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

from .errors import DegreeTooSmall, NotMeanZero
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
# Packed words gathered at a time by _and_blocks.  In the large-p benchmark
# (2-core VM, 3 seeds) the peak RSS was 39.96-40.12 MB at 2^14, as low as a
# loop over single shifts (40.07-40.22 MB), against 40.52-40.73 MB at 2^15
# and 40.90-40.92 MB at 2^16; 2^16 took about 10% less kernel time.
COUNT_BLOCK = 1 << 14


def _phase_windows(mask: np.ndarray) -> np.ndarray:
    """(64, p // 64 + 1, w) view whose [s % 64, s // 64] entry is rot(X, s),
    bits X[s], ..., X[s + 64w - 1] (indices mod p) as w = ceil(p/64)
    little-endian uint64 words; the bits past p are the doubled set's next
    ones, or zero past 2p.

    Row k of the underlying phase table packs bits k, ..., k + 64·span - 1
    of the doubled set, one packbits over overlapping rows, and the windows
    of a row overlap, so the table is all that is stored: about 16p bytes.
    """
    p = len(mask)
    w = -(-p // WORD)
    span = p // WORD + w  # phase words needed: s // 64 + w for every s < p
    bits = np.zeros(WORD * span + WORD - 1, dtype=np.uint8)
    bits[:p] = bits[p : 2 * p] = mask.view(np.uint8)
    rows = np.ndarray((WORD, WORD * span), bits.dtype, bits, strides=(1, 1))
    table = np.packbits(rows, axis=1, bitorder="little").view("<u8")
    step = table.itemsize
    return np.ndarray(
        (WORD, p // WORD + 1, w), table.dtype, table, strides=(span * step, step, step)
    )


def _and_blocks(b: SubsetSpec, c: SubsetSpec, s1, s2):
    """Yield rot(B, s1[r]) & rot(C, s2[r]) for every r, in (R, w) uint64
    blocks of consecutive r, R = max(1, COUNT_BLOCK // w); shifts lie in
    [0, p), and the bits past p of each row are not masked.

    One two-axis fancy index gathers a block's B windows and its C windows
    are and-ed into that in place.  Memory is the two phase tables plus two
    blocks, a block and the C windows and-ed into it, or the next block
    gathered while the last is still bound: so a caller must drop its
    reference to a block before asking for the next one.
    """
    wb, wc = _phase_windows(b.mask), _phase_windows(c.mask)
    block = max(1, COUNT_BLOCK // wb.shape[2])
    for lo in range(0, len(s1), block):
        qu, ru = np.divmod(s1[lo : lo + block], WORD)
        qv, rv = np.divmod(s2[lo : lo + block], WORD)
        words = wb[ru, qu]
        words &= wc[rv, qv]
        yield words


def _packed_count(a: SubsetSpec, b: SubsetSpec, c: SubsetSpec, s1, s2) -> int:
    """sum_r #{x : x in A, x + s1[r] in B, x + s2[r] in C}, indices mod p.

    Each block of _and_blocks is and-ed with A, packed straight from its
    mask into w = ceil(p/64) words whose zero tail masks the bits past p,
    and one popcount and one uint64 sum give the block's count.  Memory per
    call is the two phase tables, about 16p bytes each, plus two blocks of
    8·R·w bytes and a block's uint8 popcounts.  Exact: a block sums at most
    64·R·w bits, far below 2^64, and the Python-int total is at most
    p^2 < 2^62 for p < 2^31.
    """
    p = a.field.p
    pa = np.zeros(-(-p // WORD), dtype="<u8")
    pa.view(np.uint8)[: -(-p // 8)] = np.packbits(a.mask, bitorder="little")
    total = 0
    for words in _and_blocks(b, c, s1, s2):
        words &= pa
        total += int(np.bitwise_count(words).sum(dtype=np.uint64))
        del words  # so the next block's gather does not hold three blocks
    return total


SHIFT_BLOCK = 1 << 16  # window elements gathered at a time by _shift_dots


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
    """Size of the image {u + P(v - u) : u in A, v in B}, deg P >= 2.

    With d = v - u, z is in the image iff A[z - P(d)] and B[z - P(d) + d]
    for some d, so the image is the OR over d of rot(A, -P(d)) &
    rot(B, d - P(d)): the blocks of _and_blocks, or-ed into w = ceil(p/64)
    words whose first p bits are counted.  Memory is that of _and_blocks
    plus the two length-p int64 shift arrays and the w-word image.
    """
    d = poly.degree
    if d == float("-inf") or d < 2:
        raise DegreeTooSmall(f"expander needs deg >= 2, got {d}")
    if a.field.p != field.p or b.field.p != field.p:
        raise ValueError("subsets live on a different field")
    p = field.p
    table = value_table(poly, field)
    image = np.zeros(-(-p // WORD), dtype="<u8")
    for words in _and_blocks(a, b, -table % p, (np.arange(p) - table) % p):
        image |= np.bitwise_or.reduce(words, axis=0)
        del words  # so the next block's gather does not hold three blocks
    return int(np.unpackbits(image.view(np.uint8), count=p, bitorder="little").sum())
