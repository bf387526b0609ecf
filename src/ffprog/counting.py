"""Progression counts and the averaged trilinear forms built on them.

The central count is N(A, B, C) = #{(x, y) : x in A, x + P1(y) in B,
x + P2(y) in C}, an exact integer computed in O(p^2) integer operations.
Its normalized companion is

    L(f0, f1, f2) = E_{x,y} f0(x) f1(x + P1(y)) f2(x + P2(y))

together with the two-term average L1(f0, f1) = E_{x,y} f0(x) f1(x + P1(y))
and the variety-averaged pair correlation

    L'(f0, f1) = E_{x in F_p, y in V} f0(x) f1(x + Q(y))

which is evaluated through the fiber histogram of Q, never by walking V
against F_p.  Floating-point reductions use numpy's fixed pairwise
summation, so identical inputs reproduce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegreeTooSmall, EmptyVariety, NotMeanZero
from .field import PrimeField, value_table
from .polys import IntPoly, NormalizedPair, normalize_pair
from .setfun import GridFunction, SubsetSpec, balance, indicator, l2_norm

MEAN_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class CountReport:
    """An exact progression count with its error against the main term."""

    exact_count: int
    expected: Fraction
    error: Fraction
    bound: float
    constant_used: float


def _check_same_field(field: PrimeField, *fs: GridFunction) -> None:
    for f in fs:
        if f.field.p != field.p:
            raise ValueError("grid functions live on different fields")


def _indicator_int(subset: SubsetSpec) -> np.ndarray:
    v = np.zeros(subset.field.p, dtype=np.int64)
    if subset.members:
        v[list(subset.members)] = 1
    return v


def _shift_dots(f0, f1, s1, f2=None, s2=None) -> np.ndarray:
    """rows[r] = sum_x f0[x] * f1[x + s1[r]] * f2[x + s2[r]], indices mod p.

    Without f2 the last factor is dropped.  Shifts lie in [0, p), so each
    shifted copy is a window of a doubled array (a view, no copy).  The
    dtype follows the inputs: int64 indicators give exact integer rows.
    """
    p = len(f0)
    d1 = np.concatenate([f1, f1])
    rows = np.empty(len(s1), dtype=np.result_type(f0, f1, f1 if f2 is None else f2))
    if f2 is None:
        for r, a in enumerate(s1):
            rows[r] = np.dot(f0, d1[a : a + p])
    else:
        d2 = np.concatenate([f2, f2])
        for r, (a, b) in enumerate(zip(s1, s2)):
            rows[r] = np.dot(f0 * d1[a : a + p], d2[b : b + p])
    return rows


def count_progressions(
    a: SubsetSpec,
    b: SubsetSpec,
    c: SubsetSpec,
    p1: IntPoly,
    p2: IntPoly,
    field: PrimeField,
    constant: float = 1.0,
) -> CountReport:
    """Exact N(A, B, C) for the progression x, x + P1(y), x + P2(y).

    The polynomials are used as given (no swapping), but the pair must be
    admissible and the characteristic must clear its min_char.
    """
    pair = normalize_pair(p1, p2)
    pair.require_char(field)
    p = field.p
    t1 = value_table(p1, field)
    t2 = value_table(p2, field)
    ia, ib, ic = _indicator_int(a), _indicator_int(b), _indicator_int(c)
    # Exact in int64: each row counts x in [0, p), so the total is at most
    # p^2 < 2^62 for p < 2^31.
    n = int(_shift_dots(ia, ib, t1, ic, t2).sum())
    sizes = len(a.members) * len(b.members) * len(c.members)
    expected = Fraction(sizes, p)
    error = abs(Fraction(n) - expected)
    bound = constant * float(np.sqrt(sizes)) * p ** (0.5 - 1 / 16)
    return CountReport(
        exact_count=n,
        expected=expected,
        error=error,
        bound=bound,
        constant_used=constant,
    )


def lambda3(
    f0: GridFunction,
    f1: GridFunction,
    f2: GridFunction,
    p1: IntPoly,
    p2: IntPoly,
    field: PrimeField,
) -> float:
    """E_{x,y} f0(x) f1(x + P1(y)) f2(x + P2(y))."""
    _check_same_field(field, f0, f1, f2)
    p = field.p
    t1 = value_table(p1, field)
    t2 = value_table(p2, field)
    rows = _shift_dots(f0.values, f1.values, t1, f2.values, t2)
    return float(rows.sum() / (p * p))


def lambda2(
    f0: GridFunction, f1: GridFunction, p1: IntPoly, field: PrimeField
) -> float:
    """E_{x,y} f0(x) f1(x + P1(y))."""
    _check_same_field(field, f0, f1)
    p = field.p
    t1 = value_table(p1, field)
    rows = _shift_dots(f0.values, f1.values, t1)
    return float(rows.sum() / (p * p))


def decomposition_residual(
    a: SubsetSpec,
    b: SubsetSpec,
    c: SubsetSpec,
    p1: IntPoly,
    p2: IntPoly,
    field: PrimeField,
) -> float:
    """Residual of the indicator decomposition.

    Splitting 1_B = f_B + beta and 1_C = f_C + gamma into balanced parts and
    densities gives, exactly,

        L(1_A, 1_B, 1_C) = L(1_A, 1_B, f_C) + gamma * L1(1_A, f_B)
                           + alpha * beta * gamma.

    Both sides are computed independently; the result is the absolute
    difference, which should sit at rounding level (< 1e-10).
    """
    alpha, beta, gamma = a.density, b.density, c.density
    ia, ib = indicator(a), indicator(b)
    fb, fc = balance(b), balance(c)
    lhs = lambda3(ia, ib, indicator(c), p1, p2, field)
    rhs = (
        lambda3(ia, ib, fc, p1, p2, field)
        + gamma * lambda2(ia, fb, p1, field)
        + alpha * beta * gamma
    )
    return abs(lhs - rhs)


def lambda_prime(f0: GridFunction, f1: GridFunction, fibers) -> float:
    """E_{x, y in V} f0(x) f1(x + Q(y)) via the fiber histogram.

    Equals (1/(p * |V|)) * sum_a c[a] * sum_x f0(x) f1(x + a).
    """
    if f0.field.p != f1.field.p or f0.field.p != fibers.field.p:
        raise ValueError("functions and fibers live on different fields")
    if fibers.v_size == 0:
        raise EmptyVariety("fiber distribution has no points")
    p = f0.field.p
    corr = _shift_dots(f0.values, f1.values, np.arange(p))
    weighted = np.dot(fibers.c.astype(np.float64), corr)
    return float(weighted / (p * fibers.v_size))


def prop22_sides(
    f0: GridFunction,
    f1: GridFunction,
    f2: GridFunction,
    pair: NormalizedPair,
    fibers,
) -> tuple[float, float]:
    """Both sides of the degree-lowering inequality.

    lhs = L(f0, f1, f2) for the normalized pair; rhs is
    (|V|/p^4) * ||f0|| * ||f1|| * ||f2||^(3/4) * |L'(f2, f2)|^(1/8).
    Callers assert lhs <= rhs.
    """
    field = f0.field
    _check_same_field(field, f1, f2)
    lhs = lambda3(f0, f1, f2, pair.p1, pair.p2, field)
    vol = fibers.v_size / field.p**4
    rhs = (
        vol
        * l2_norm(f0)
        * l2_norm(f1)
        * l2_norm(f2) ** 0.75
        * abs(lambda_prime(f2, f2, fibers)) ** 0.125
    )
    return lhs, rhs


def main_theorem_ratio(
    f0: GridFunction,
    f1: GridFunction,
    f2: GridFunction,
    pair: NormalizedPair,
    fibers=None,
) -> float:
    """|L(f0, f1, f2)| / (||f0|| ||f1|| ||f2|| p^(-1/16)) for balanced f2.

    The last argument must be mean zero (tolerance 1e-9).  Returns 0 when
    any norm vanishes.  A uniformly bounded ratio across instances is the
    quantitative content of the power-saving estimate.
    """
    field = f0.field
    _check_same_field(field, f1, f2)
    if fibers is not None and fibers.field.p != field.p:
        raise ValueError("fibers live on a different field")
    if abs(f2.mean()) > MEAN_ZERO_TOL:
        raise NotMeanZero(f"f2 has mean {f2.mean()!r}")
    n0, n1, n2 = l2_norm(f0), l2_norm(f1), l2_norm(f2)
    if n0 == 0.0 or n1 == 0.0 or n2 == 0.0:
        return 0.0
    lam = lambda3(f0, f1, f2, pair.p1, pair.p2, field)
    return abs(lam) / (n0 * n1 * n2 * field.p ** (-1 / 16))


def expander_image(
    a: SubsetSpec, b: SubsetSpec, poly: IntPoly, field: PrimeField
) -> int:
    """Size of the image {u + P(v - u) : u in A, v in B}, deg P >= 2."""
    d = poly.degree
    if d == float("-inf") or d < 2:
        raise DegreeTooSmall(f"expander needs deg >= 2, got {d}")
    if a.field.p != field.p or b.field.p != field.p:
        raise ValueError("subsets live on a different field")
    if not a.members or not b.members:
        return 0
    p = field.p
    table = value_table(poly, field)
    ua = np.asarray(a.members, dtype=np.int64)
    vb = np.asarray(b.members, dtype=np.int64)
    seen = np.zeros(p, dtype=bool)
    for u in ua:
        vals = (u + table[(vb - u) % p]) % p
        seen[vals] = True
    return int(seen.sum())
