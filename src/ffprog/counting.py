"""Progression counts and the averaged trilinear forms built on them.

The central count is N(A, B, C) = #{(x, y) : x in A, x + P1(y) in B,
x + P2(y) in C}, an exact integer: the popcount of three bit-packed
windows per y, gathered in blocks of y, so O(p^2 / 64) word operations.
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
    """An exact progression count, its error against the main term
    |A||B||C|/p, and the power-saving scale sqrt(|A||B||C|) p^(1/2 - 1/16)
    that count reports divide the error by."""

    exact_count: int
    expected: Fraction
    error: Fraction
    bound: float


def _check_same_field(field: PrimeField, *fs: GridFunction) -> None:
    for f in fs:
        if f.field.p != field.p:
            raise ValueError("grid functions live on different fields")


WORD = 64


def _pack_bits(bits: np.ndarray, words: int) -> np.ndarray:
    """0/1 uint8 array as `words` little-endian uint64 words (bit i of word
    k is bits[64k + i]); bits past len(bits) are zero."""
    padded = np.zeros(WORD * words, dtype=np.uint8)
    padded[: len(bits)] = bits
    return np.packbits(padded, bitorder="little").view("<u8")


def _packed_count(a: SubsetSpec, b: SubsetSpec, c: SubsetSpec, s1, s2) -> int:
    """sum_r #{x : x in A, x + s1[r] in B, x + s2[r] in C}, indices mod p.

    Row r is the popcount of A & rot(B, s1[r]) & rot(C, s2[r]) over
    w = ceil(p/64) words.  Row k of a phase table holds the doubled set
    from bit k on, so rot(X, s) is phase[s % 64, s // 64 :][:w]; bits past
    p in that window are masked by A's zero tail.  The windows of a table
    are one overlapping (64, p // 64 + 1, w) view of it, and the shifts go
    in blocks of R = max(1, COUNT_BLOCK // w): one two-axis fancy index
    gathers the block's B windows into an (R, w) array, its C windows and
    A are and-ed into that in place, and one popcount and one uint64 sum
    give the block's count.  Memory per call is the two phase tables,
    about 16p bytes each, plus two blocks of 8·R·w bytes: a block and the
    C windows and-ed into it, or the next block gathered while the last is
    still bound.  Exact: a block sums at most 64·R·w bits, far below 2^64,
    and the Python-int total is at most p^2 < 2^62 for p < 2^31.
    """
    p = a.field.p
    w = -(-p // WORD)
    span = p // WORD + w  # phase words needed: s // 64 + w for every s < p

    def windows(s: SubsetSpec) -> np.ndarray:
        # Row k of the phase table packs bits k, ..., k + 64·span - 1 of the
        # doubled set, zero past 2p: one packbits over overlapping rows.
        bits = np.zeros(WORD * span + WORD - 1, dtype=np.uint8)
        bits[:p] = bits[p : 2 * p] = s.mask.view(np.uint8)
        rows = np.ndarray((WORD, WORD * span), bits.dtype, bits, strides=(1, 1))
        table = np.packbits(rows, axis=1, bitorder="little").view("<u8")
        step = table.itemsize
        return np.ndarray(
            (WORD, p // WORD + 1, w), table.dtype, table, strides=(span * step, step, step)
        )

    pa = _pack_bits(a.mask.view(np.uint8), w)
    wb, wc = windows(b), windows(c)
    block = max(1, COUNT_BLOCK // w)
    total = 0
    for lo in range(0, len(s1), block):
        qu, ru = np.divmod(s1[lo : lo + block], WORD)
        qv, rv = np.divmod(s2[lo : lo + block], WORD)
        words = wb[ru, qu]
        words &= wc[rv, qv]
        words &= pa
        total += int(np.bitwise_count(words).sum(dtype=np.uint64))
    return total


SHIFT_BLOCK = 1 << 16  # window elements gathered at a time by _shift_dots
# Packed words gathered at a time by _packed_count.  In the large-p
# benchmark (2-core VM, 3 seeds) the peak RSS was 39.96-40.12 MB at 2^14,
# as low as a loop over single shifts (40.07-40.22 MB), against 40.52-40.73
# MB at 2^15 and 40.90-40.92 MB at 2^16; 2^16 took about 10% less kernel time.
COUNT_BLOCK = 1 << 14


def _windows(f: np.ndarray) -> np.ndarray:
    """(p, p) view of the doubled f whose row s is f[s], ..., f[s + p - 1]
    (indices mod p); the rows overlap, so only the 2p doubled values are stored."""
    doubled = np.concatenate([f, f])
    step = doubled.itemsize
    return np.ndarray((len(f), len(f)), doubled.dtype, doubled, strides=(step, step))


def _shift_dots(f0, f1, s1, f2=None, s2=None) -> np.ndarray:
    """rows[r] = sum_x f0[x] * f1[x + s1[r]] * f2[x + s2[r]], indices mod p.

    Without f2 the last factor is dropped.  Shifts lie in [0, p).  The
    shifts go in blocks of R = max(1, SHIFT_BLOCK // p): one fancy index
    gathers the block's R windows of f1 into an (R, p) array, the f2
    windows multiply it in place, and one matrix-vector product against f0
    gives its R rows.  Memory per call is O(SHIFT_BLOCK + p): one block
    without f2; with f2 the f2 windows are a second block, and the product
    is released only when the next gather replaces it.  Releasing it first
    freed two blocks at the top of the heap, which glibc hands back to the
    OS, so every block faulted in again: 85,470 minor page faults and
    about 200 ms per call at p = 5003, against about 260 and 30 ms.  The window
    views are plain np.ndarray views of the doubled buffer: views built with
    sliding_window_view (or as_strided, which it calls) raised the steady
    RSS of a repeated verify run by about 1.2 MB, and these do not.  On 0/1
    inputs every partial sum is an integer of at most p, so the rows are
    exact.  The callers pass float64 grid functions; the integer count goes
    through _packed_count.
    """
    p = len(f0)
    w1 = _windows(f1)
    w2 = None if f2 is None else _windows(f2)
    rows = np.empty(len(s1), dtype=np.result_type(f0, f1, f1 if f2 is None else f2))
    block = max(1, SHIFT_BLOCK // p)
    for lo in range(0, len(s1), block):
        hi = lo + block
        gathered = w1[s1[lo:hi]]
        if w2 is not None:
            gathered *= w2[s2[lo:hi]]
        rows[lo:hi] = gathered @ f0
        if w2 is None:
            del gathered  # so the next block's gather does not hold two blocks
    return rows


def count_progressions(
    a: SubsetSpec,
    b: SubsetSpec,
    c: SubsetSpec,
    p1: IntPoly,
    p2: IntPoly,
    field: PrimeField,
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
    n = _packed_count(a, b, c, t1, t2)
    sizes = a.size * b.size * c.size
    expected = Fraction(sizes, p)
    error = abs(Fraction(n) - expected)
    bound = sizes**0.5 * p ** (0.5 - 1 / 16)
    return CountReport(exact_count=n, expected=expected, error=error, bound=bound)


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
    if not a.size or not b.size:
        return 0
    p = field.p
    table = value_table(poly, field)
    ua, vb = np.flatnonzero(a.mask), np.flatnonzero(b.mask)
    seen = np.zeros(p, dtype=bool)
    for u in ua:
        vals = (u + table[(vb - u) % p]) % p
        seen[vals] = True
    return int(seen.sum())
