"""Enumeration of the eight-variable auxiliary variety and its Q-fibers.

For a normalized pair (P1, P2) with P2' = P2 - P1, the variety V consists of
the points y in F_p^8 satisfying

    R1 = P1(y4) - P1(y3) - P1(y2) + P1(y1) = 0
    R2 = P1(y8) - P1(y7) - P1(y6) + P1(y5) = 0
    R3 = P2(y6) - P2(y5) - P2(y2) + P2(y1) = 0
    R4 = P2'(y7) - P2'(y5) - P2'(y3) + P2'(y1) = 0

and the object of interest is the histogram c[a] = #{y in V : Q(y) = a}
where Q = P2(y8) - P2(y7) - P2(y4) + P2(y3).

The production path exploits the product structure of the system.  Writing
u = (y1, y2, y3, y4) and v = (y5, y6, y7, y8), the constraints say u and v
both lie in S = {P1(u2) - P1(u1) = P1(u4) - P1(u3)} and share the same value
of the pair (T2, T3) = (P2'(u3) - P2'(u1), P2(u2) - P2(u1)); moreover
Q(u, v) = G(v) - G(u) for G(u) = P2(u4) - P2(u3).  With K the joint
histogram of (T2, T3, G) over S, read as a (p^2) x p matrix with one row
per (t2, t3),

    c[a] = sum over rows r of sum_g K[r, g] * K[r, (g + a) mod p]
         = sum_g Gram[g, (g + a) mod p],   Gram = K^T K.

Swapping (u1, u2) with (u3, u4) maps S onto itself and sends (T2, T3, G)
to (-T2, G, T3), so K[t2, t3, g] = K[-t2, g, t3]: read as p x p matrices
with rows t3 and columns g, slab -t2 of K is the transpose of slab t2.
Only the slabs t2 = 0, ..., (p - 1)/2 are built.  Each slab K_t with t != 0
adds K_t^T K_t + K_t K_t^T to the Gram, and the squares of its column sums
as well as of its row sums to |V|; slab 0 is its own mirror and counts once.

K is never held whole.  The pairs (u1, u3) are grouped by their T2 value
into slabs; slab -t2 has as many pairs as slab t2, so the built half is a
prefix of the slab order.  Given a base row (u1, u2, u3), u4 runs over the
roots of P1 at P1(u2) + P1(u3) - P1(u1), that is at x mod p for the column
x = (P1(u3) - P1(u1) mod p) + P1(u2) in [0, 2p).  So before the batch loop,
each root slot j < max_v #P1^-1(v) gets one p x 2p table: row u3, column x
holds G = P2(u4) - P2(u3) mod p for the j-th root u4 of P1 at x mod p, or p,
the trash column, where x mod p has at most j roots.  A slot's keys are then
one gather, with no mask, no reduction mod p and no concatenation.  A batch
of whole slabs (about BATCH_ROWS = 2^16 keys: one per slot and base row,
plus the p(p + 1) cells of K per slab) histograms its keys with one bincount
into rows p + 1 wide and drops the trash column with a view.  Its rows,
stacked on the transposed rows of its mirrored slabs, give one Gram block,
added to the running p x p total.  The budget is sized so that a batch's
working set stays in a per-core L2 cache while a slab fits in it, and the
cell, row-key, key and stacked-row buffers are allocated once, at the
largest batch, and refilled in place.  Memory is therefore
O(slots * p^2 + BATCH_ROWS): the stacked rows are 2 p^2 float32 values per
slab, the bytes one float64 copy of the slab took.  The work is
O(deg(P1) * p^3 + p^4) with the p^4 term in BLAS, and the key building and
bincount cover half of K.

The Gram blocks are exact.  Every entry of K is a nonnegative integer, so
every partial sum BLAS forms, in whatever order, is at most its final Gram
entry.  By Cauchy-Schwarz every entry of a block is at most its largest
diagonal entry, and under monotone rounding a computed diagonal entry is
below 2^24 exactly when the true one is: partial sums are exact while they
stay below 2^24, and since 2^24 is a float32, a rounded sum of nonnegative
terms that reaches it never falls back below it.  So a block runs in
float32, which represents every integer up to 2^24, and is kept when its
computed diagonal stays below F32_LIMIT = 2^24; otherwise that batch is
redone in float64.  Every partial sum of the float64 total, or of a float64
block, is at most an entry of the whole Gram, and so at most
sum_r rowsum_r^2 = |V|.  The enumeration tracks that sum, one int64 sum of
squares per batch, and stops with WorkBudgetExceeded before it reaches
EXACT_LIMIT = 2**53, below which float64 represents every integer; the
finished c must then sum to it.  Each batch's sum is part of |V|, and the
gate refuses a (pair, p) whose bound r1^2 * r2^2 * p^4 on |V| reaches
INT64_LIMIT = 2**63, so no int64 sum can wrap.

Two slower paths back this up: a four-variable walk that resolves the
dependent slots y4, y6, y7, y8 through the per-value root lists of
_csr_preimages, the one preimage layout the fast path also reads (the
transparent reference), and a flat scan of all p^8 tuples (the naive
oracle, which its budget gate charges p^8 steps).

A pair whose normalized degrees are (1, 2), such as x, x + y, x + y^2,
needs no enumeration: its histogram has a closed form, proven in the
docstring of closed_fibers, which builds it in O(p).  fiber_builder picks
the closed form for such a pair unless an enumerator is named, and the
named enumerator otherwise.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CorruptFiberFile, WorkBudgetExceeded
from .field import PrimeField, field_new, value_table
from .files import NotRegularFile, read_text, write_text_atomic
from .polys import NormalizedPair
from .fourier import char_sums_over_fibers

DEFAULT_BUDGET = 2_000_000_000

SCHEMA_VERSION = 1

# Keys per batch of the fast enumerator: one per root slot of P1 and base
# row (u1, u2, u3).  Batches hold whole T2 slabs, and each slab also counts
# its p(p + 1) cells of K.  2**16 int64 keys are 512 KiB, so one batch's
# key, cell and row-key buffers and its K block fit in a 4 MiB L2 together
# while a slab costs less than the budget (about 2p^2 < 2**16, p up to 181);
# past that a batch is one slab.  The three fibers-cold enumerations
# (y,y^2 at 151 and 173, y^2,y^3 at 131) in one process peaked at
# 70 / 46 / 40 / 39 MB RSS with 2**20 / 2**18 / 2**16 / 2**14 keys.
BATCH_ROWS = 1 << 16

# float64 holds every integer below 2**53 exactly; see the module docstring.
EXACT_LIMIT = 1 << 53

# float32 holds every integer up to 2**24 exactly; a Gram block whose
# computed diagonal reaches this is redone in float64 (module docstring).
F32_LIMIT = 1 << 24

# admit refuses a (pair, p) whose |V| bound reaches this, so every count and
# every sum of squared K row or column sums, each at most |V|, fits in int64.
INT64_LIMIT = 1 << 63


def _csr_preimages(values: np.ndarray, p: int):
    """CSR layout of the preimage lists of a value table.

    Returns (counts, offsets, roots): the roots with value v occupy
    roots[offsets[v] : offsets[v] + counts[v]], each run ascending.
    """
    counts = np.bincount(values, minlength=p)
    order = np.argsort(values, kind="stable")
    offsets = np.zeros(p, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return counts.astype(np.int64), offsets, order.astype(np.int64)


def _preimage_lists(values: np.ndarray, p: int) -> list:
    """The runs of _csr_preimages as one ascending list of roots per value."""
    counts, offsets, roots = _csr_preimages(values, p)
    roots = roots.tolist()
    return [roots[o : o + n] for o, n in zip(offsets.tolist(), counts.tolist())]


@dataclass
class FiberDistribution:
    """Exact fiber histogram of Q over the variety."""

    field: PrimeField
    pair: NormalizedPair
    c: np.ndarray
    v_size: int
    w_size: int
    max_fiber: int

    @classmethod
    def from_histogram(cls, field, pair, c) -> "FiberDistribution":
        c = np.asarray(c, dtype=np.int64)
        if c.shape != (field.p,) or (c < 0).any():
            raise ValueError("histogram must be p nonnegative counts")
        fibers = c.tolist()
        v_size = sum(fibers)
        low, high = v_bounds(pair, field.p)
        if not low <= v_size <= high:
            raise ValueError(f"fiber histogram total {v_size} violates [{low}, {high}]")
        return cls(
            field=field,
            pair=pair,
            c=c,
            v_size=v_size,
            w_size=sum(n * n for n in fibers),
            max_fiber=int(c.max()),
        )

    def digest(self) -> str:
        payload = ",".join(map(str, self.c.tolist()))
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "p": self.field.p,
            "pair": self.pair.key(),
            "pair_hash": self.pair.pair_hash(),
            "c": self.c.tolist(),
            "v_size": self.v_size,
            "w_size": self.w_size,
            "max_fiber": self.max_fiber,
            "digest": self.digest(),
        }

    def save(self, path) -> None:
        """Write the file atomically (see write_text_atomic)."""
        write_text_atomic(path, json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path, pair: NormalizedPair, p: int) -> "FiberDistribution":
        """Read the fiber file of (pair, p).  It is accepted only if it is the
        document save writes for the counts it holds, compared as canonical
        JSON: every key, value and JSON type.  Anything else, an unreadable
        path included, is CorruptFiberFile; so is a path that is neither a
        regular file nor a directory, which read_text refuses unopened."""
        try:
            raw = json.loads(read_text(path))
            if not isinstance(raw, dict):
                raise CorruptFiberFile(f"{path}: fiber file is not a JSON object")
            if raw.get("p") != p:
                raise CorruptFiberFile(f"{path}: fiber file is for p={raw.get('p')!r}, not p={p}")
            dist = cls.from_histogram(field_new(p), pair, raw["c"])
        except NotRegularFile as exc:
            raise CorruptFiberFile(f"{path}: fiber file is not a regular file") from exc
        except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise CorruptFiberFile(f"{path}: {type(exc).__name__}: {exc}") from exc
        want = dist.to_json_dict()
        if _canonical(raw) != _canonical(want):
            got, exp = ({k: _canonical(v) for k, v in doc.items()} for doc in (raw, want))
            key = min(k for k, _ in got.items() ^ exp.items())
            raise CorruptFiberFile(f"{path}: key {key!r} is not what save writes for these counts")
        return dist


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def work_estimate(pair: NormalizedPair, p: int, oracle: str = "fast") -> int:
    """Elementary-step estimate that the budget gate charges the builder
    named oracle (see fiber_builder): p for "closed", the closed form of a
    degree-(1, 2) pair; p^8 for naive8; r1 * r2 * p^4 for fast and loop."""
    if oracle == "closed":
        return p
    return p**8 if oracle == "naive8" else pair.r1 * pair.r2 * p**4


def v_bounds(pair: NormalizedPair, p: int) -> tuple[int, int]:
    """The proven bounds p^4 <= |V| <= r1^2 * r2^2 * p^4: y1, y2, y3, y5 are
    free, and y4, y6, y7, y8 each range over at most r1, r2, r2, r1 roots."""
    return p**4, pair.r1**2 * pair.r2**2 * p**4


def admit(pair: NormalizedPair, field: PrimeField, budget: int, oracle: str) -> None:
    """The gate of the builder named oracle (see fiber_builder): CharTooSmall
    below the pair's characteristic, WorkBudgetExceeded when the work
    estimate passes budget or the |V| bound reaches INT64_LIMIT.  The bound
    holds for the closed form too, whose counts are int64 as well: for
    degree (1, 2) it is 4 p^4, below 2**63 up to p = 38959."""
    pair.require_char(field)
    est = work_estimate(pair, field.p, oracle)
    if est > budget:
        raise WorkBudgetExceeded(
            f"estimated {est} steps for p = {field.p} exceeds budget {budget}"
        )
    high = v_bounds(pair, field.p)[1]
    if high >= INT64_LIMIT:
        raise WorkBudgetExceeded(f"p = {field.p}: the |V| bound {high} reaches 2**63, past int64")


def _slab_batches(cost):
    """Split slabs 0..len(cost)-1 into runs [lo, hi) of about BATCH_ROWS cost."""
    lo = 0
    while lo < len(cost):
        hi, acc = lo, 0
        while hi < len(cost) and acc < BATCH_ROWS:
            acc += int(cost[hi])
            hi += 1
        yield lo, hi
        lo = hi


def enumerate_fibers(
    pair: NormalizedPair,
    field: PrimeField,
    budget: int = DEFAULT_BUDGET,
) -> FiberDistribution:
    """Exact Q-fiber histogram: K streamed by T2 slab, autocorrelated by Gram."""
    admit(pair, field, budget, "fast")
    p = field.p
    gram, v_size = _k_gram(pair, field)
    idx = np.arange(p)
    shifted = np.take_along_axis(
        gram.astype(np.int64), (idx[:, None] + idx[None, :]) % p, axis=1
    )
    c = shifted.sum(axis=0)
    if int(c.sum()) != v_size:
        raise ArithmeticError(
            f"p = {p}: Gram autocorrelation sums to {int(c.sum())}, not |V| = {v_size}"
        )
    return FiberDistribution.from_histogram(field, pair, c)


def _k_gram(pair: NormalizedPair, field: PrimeField) -> tuple[np.ndarray, int]:
    """Gram = K^T K as exact float64 integers, and |V| = sum of K's squared
    row sums, streaming the T2 slabs 0, ..., (p - 1)/2 of K by batches.

    Slab -t2 is the transpose of slab t2 (module docstring), so slab t2 != 0
    stands for both: its Gram block gains K_t K_t^T and |V| its squared
    column sums.  A batch's blocks are one float32 product, redone in float64
    only if its diagonal reaches F32_LIMIT (_gram_block).  The stacked K rows
    and their transposes take 2 p^2 float32 values per slab of the largest
    batch, in one buffer allocated next to the key buffers.  Its tables and
    batch buffers are freed on return, before the caller's p x p index
    arithmetic."""
    p = field.p
    t1 = value_table(pair.p1, field)
    t2 = value_table(pair.p2, field)
    t2p = value_table(pair.p2prime, field)

    # Root-slot tables: for slot j, row u3 and x in [0, 2p), the G value
    # (P2(u4) - P2(u3)) mod p of the j-th root u4 of P1 at x mod p, or the
    # trash column p where x mod p has at most j roots.
    counts, offsets, roots = _csr_preimages(t1, p)
    slots = int(counts.max())
    x = np.arange(2 * p) % p
    slot = np.arange(slots)[:, None]
    has = counts[x] > slot
    root_p2 = t2[roots[np.where(has, offsets[x] + slot, 0)]]
    g_table = np.where(has[:, None, :], (root_p2[:, None, :] - t2[:, None]) % p, p)
    g_table = g_table.reshape(slots, -1)

    # CSR list of the pairs (u1, u3), flat index u1*p + u3, by T2 slab.  The
    # slabs 0..(p - 1)/2 that are built come first.
    slab_pairs, slab_start, slab_order = _csr_preimages(
        ((t2p[None, :] - t2p[:, None]) % p).ravel(), p
    )
    half = p // 2 + 1

    # K rows are p + 1 wide: the p values of G, then the trash column.
    # T3 * (p + 1) for every (u1, u2): the middle digit of the K key.
    width = p + 1
    t3_key = ((t2[None, :] - t2[:, None]) % p) * width

    # Batches, then one buffer each for the cells, row keys and slot keys of
    # the largest batch, and for its stacked K rows and their transposes;
    # every batch fills a contiguous prefix of them.
    batches = list(_slab_batches(slots * slab_pairs[:half] * p + p * width))
    most = max(int(slab_pairs[lo:hi].sum()) for lo, hi in batches) * p
    cell_buf = np.empty(most, dtype=np.int64)
    row_key_buf = np.empty(most, dtype=np.int64)
    keys_buf = np.empty(slots * most, dtype=np.int64)
    rows_buf = np.empty((2 * p * max(hi - lo for lo, hi in batches), p), dtype=np.float32)

    gram = np.zeros((p, p))
    v_size = 0
    for lo, hi in batches:
        n_pairs = int(slab_pairs[lo:hi].sum())
        u1, u3 = np.divmod(slab_order[slab_start[lo] : slab_start[lo] + n_pairs], p)
        slab = np.repeat(np.arange(hi - lo, dtype=np.int64), slab_pairs[lo:hi])
        # One key per (pair, u2, slot): u4 is the slot's root of P1 at
        # P1(u2) + P1(u3) - P1(u1), a column in [0, 2p) of row u3.  Every
        # index below is in range, so "clip" never clips; it lets take write
        # into out without the buffered copy that mode "raise" makes.
        row_key = row_key_buf[: n_pairs * p].reshape(n_pairs, p)
        np.take(t3_key, u1, axis=0, out=row_key, mode="clip")
        row_key += (slab * (p * width))[:, None]
        cell = cell_buf[: n_pairs * p].reshape(n_pairs, p)
        np.add((u3 * (2 * p) + (t1[u3] - t1[u1]) % p)[:, None], t1, out=cell)
        keys = keys_buf[: slots * n_pairs * p].reshape(slots, n_pairs, p)
        for j in range(slots):
            np.take(g_table[j], cell, out=keys[j], mode="clip")
            keys[j] += row_key
        kb = np.bincount(keys.ravel(), minlength=(hi - lo) * p * width)
        kb = kb.reshape(hi - lo, p, width)[:, :, :p]
        mirrored = kb[1:] if lo == 0 else kb  # slab 0 is its own mirror

        # Row sums of K, and column sums of the mirrored slabs: each sum of
        # their squares is part of |V|, below INT64_LIMIT (admit), so exact.
        rs, cs = kb.sum(axis=2), mirrored.sum(axis=1)
        v_size += int(np.vdot(rs, rs)) + int(np.vdot(cs, cs))
        if v_size >= EXACT_LIMIT:
            raise WorkBudgetExceeded(
                f"p = {p}: |V| reaches {EXACT_LIMIT}, the exactness limit of "
                "the float64 Gram product"
            )
        gram += _gram_block(kb, mirrored, rows_buf)
    return gram, v_size


def _gram_block(slabs: np.ndarray, mirrored: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Exact sum of S^T S over the nonnegative integer (p x p) matrices S of
    slabs and of S S^T over those of mirrored, as one Gram product of their
    rows stacked on their transposed rows in a prefix of the buffer rows.

    The product runs in rows.dtype (float32 in _k_gram) and is kept when the
    largest diagonal entry is below F32_LIMIT, which proves it exact (module
    docstring); otherwise it is redone in a float64 buffer."""
    p = slabs.shape[-1]
    n = len(slabs) * p
    rows = rows[: n + len(mirrored) * p]
    rows[:n].reshape(slabs.shape)[...] = slabs
    rows[n:].reshape(mirrored.shape)[...] = mirrored.transpose(0, 2, 1)
    block = rows.T @ rows
    if rows.dtype != np.float64 and block.diagonal().max() >= F32_LIMIT:
        return _gram_block(slabs, mirrored, np.empty(rows.shape))
    return block


def enumerate_fibers_reference(
    pair: NormalizedPair,
    field: PrimeField,
    budget: int = DEFAULT_BUDGET,
) -> FiberDistribution:
    """Transparent four-variable walk with dependent-slot preimage lists.

    Loops (y1, y2, y3, y5); y4, y6, y7 come from the preimage lists forced
    by R1, R3, R4, then y8 from R2.  Pure Python, so only suitable for small
    p.  It reads the fast path's preimage layout but none of its logic.
    """
    admit(pair, field, budget, "loop")
    p = field.p
    tables = [value_table(poly, field) for poly in (pair.p1, pair.p2, pair.p2prime)]
    t1, t2, t2p = (t.tolist() for t in tables)
    pre1, pre2, pre2p = (_preimage_lists(t, p) for t in tables)

    c = [0] * p
    for y1 in range(p):
        a1, b1, c1 = t1[y1], t2[y1], t2p[y1]
        for y2 in range(p):
            a12 = t1[y2] - a1
            b12 = t2[y2] - b1
            for y3 in range(p):
                l4 = pre1[(t1[y3] + a12) % p]
                if not l4:
                    continue
                v4 = [(t2[y3] - t2[y4]) % p for y4 in l4]
                c34 = t2p[y3] - c1
                for y5 in range(p):
                    l6 = pre2[(t2[y5] + b12) % p]
                    if not l6:
                        continue
                    l7 = pre2p[(t2p[y5] + c34) % p]
                    if not l7:
                        continue
                    a5 = t1[y5]
                    for y6 in l6:
                        a56 = t1[y6] - a5
                        for y7 in l7:
                            q7 = t2[y7]
                            for y8 in pre1[(t1[y7] + a56) % p]:
                                q0 = t2[y8] - q7
                                for v in v4:
                                    c[(q0 + v) % p] += 1
    return FiberDistribution.from_histogram(field, pair, np.asarray(c))


def enumerate_fibers_naive(
    pair: NormalizedPair,
    field: PrimeField,
    budget: int = DEFAULT_BUDGET,
) -> FiberDistribution:
    """Flat scan of all p^8 tuples.  The oracle; the gate charges p^8 steps."""
    admit(pair, field, budget, "naive8")
    p = field.p
    t1 = [int(v) for v in value_table(pair.p1, field)]
    t2 = [int(v) for v in value_table(pair.p2, field)]
    t2p = [int(v) for v in value_table(pair.p2prime, field)]
    c = [0] * p
    for y in itertools.product(range(p), repeat=8):
        if (t1[y[3]] - t1[y[2]] - t1[y[1]] + t1[y[0]]) % p:
            continue
        if (t1[y[7]] - t1[y[6]] - t1[y[5]] + t1[y[4]]) % p:
            continue
        if (t2[y[5]] - t2[y[4]] - t2[y[1]] + t2[y[0]]) % p:
            continue
        if (t2p[y[6]] - t2p[y[4]] - t2p[y[2]] + t2p[y[0]]) % p:
            continue
        c[(t2[y[7]] - t2[y[6]] - t2[y[3]] + t2[y[2]]) % p] += 1
    return FiberDistribution.from_histogram(field, pair, np.asarray(c))


ENUMERATORS = {
    "fast": enumerate_fibers,
    "loop": enumerate_fibers_reference,
    "naive8": enumerate_fibers_naive,
}


def closed_fibers(
    pair: NormalizedPair,
    field: PrimeField,
    budget: int = DEFAULT_BUDGET,
) -> FiberDistribution:
    """Exact Q-fiber histogram of a pair whose normalized degrees are (1, 2),
    from its closed form, in O(p):

        c[0] = 4p^3 - 4p^2 + 2p - 1,    c[alpha] = p^3 - p - 1 for alpha != 0,

    so |V| = p^4 + 3p^3 - 5p^2 + 2p.  The gate charges p steps and keeps the
    int64 bound on |V| (admit).

    Proof.  After normalization P1 = a*y and P2 = b*y^2 + c*y, so
    P2' = b*y^2 + (c - a)*y.  require_char leaves a and b units mod p,
    since min_char exceeds every numerator and denominator, and p odd, since
    min_char > r2 = 2.  Write e(x) = exp(2 pi i x / p), and [X] for 1 if X
    holds and 0 otherwise.

    Since a is a unit, R1 = 0 and R2 = 0 say y2 - y1 = y4 - y3 = s and
    y6 - y5 = y8 - y7 = s', so (y1, y3, y5, y7, s, s') in F_p^6 runs over
    their solutions one to one.  With D(y, s) = P2(y + s) - P2(y)
    = 2bsy + bs^2 + cs,

        R3 = D(y5, s') - D(y1, s),    Q = D(y7, s') - D(y3, s),

    and R4 is unchanged.  Detecting R3 = 0, R4 = 0 and Q = alpha by
    (1/p) sum_t e(t x) = [x = 0] with t = lambda, mu, nu,

        c[alpha] = p^-3 sum over (lambda, mu, nu) of e(-nu alpha) S(lambda, mu, nu),
        S = sum over (y1, y3, y5, y7, s, s') of e(lambda R3 + mu R4 + nu Q).

    For fixed (s, s') the phase is a sum of one polynomial in each of y1,
    y3, y5, y7, so S is a sum over (s, s') of a product of four y-sums.

    Case mu = 0.  Every y-sum has a linear phase.  The y1-sum is
    p e(-lambda(bs^2 + cs)) if lambda s = 0 and 0 otherwise, as 2b is a
    unit, and lambda s = 0 makes that constant vanish.  Likewise the y3, y5
    and y7 sums are p when nu s, lambda s' and nu s' vanish, and 0
    otherwise.  So S = p^6 at lambda = nu = 0, where every (s, s') counts,
    and S = p^4 otherwise, where only s = s' = 0 does.

    Case mu != 0.  Every y-sum is a Gauss sum.  For A != 0 and p odd,
    completing the square gives sum_y e(Ay^2 + By + C) = e(C - B^2/(4A)) G(A)
    with G(A) = sum_y e(Ay^2) = (A/p) g, where (A/p) is the Legendre symbol,
    g = G(1) and g^2 = (-1/p) p.  The (A, B, C) of the four sums are

        y1: ( mu b,  mu(c - a) - 2 lambda b s,   -lambda (bs^2 + cs))
        y3: (-mu b, -mu(c - a) - 2 nu b s,       -nu (bs^2 + cs))
        y5: (-mu b,  2 lambda b s' - mu(c - a),   lambda (bs'^2 + cs'))
        y7: ( mu b,  2 nu b s' + mu(c - a),       nu (bs'^2 + cs'))

    so the four G factors multiply to g^4 = p^2, and the four phases
    C - B^2/(4A) add up to

        (s - s')(lambda + nu)(-a + b(s + s')(nu - lambda - mu)/mu).

    Put u = s - s' and v = s + s', a change of variables since 2 is a unit,
    k = lambda + nu and m = b(nu - lambda - mu)/mu.  The phase is
    k u (-a + m v), and its sum over (u, v) is p^2 if k = 0; p if k != 0
    and m != 0, where the v-sum leaves only u = 0; and 0 if k != 0 and
    m = 0, where the u-sum of e(-a k u) vanishes.  So S = p^4 if
    lambda + nu = 0, S = p^3 if lambda + nu != 0 and nu - lambda != mu, and
    S = 0 otherwise.

    Summing, with sum over nu of e(-nu alpha) = p [alpha = 0]:
      * mu = 0 gives p^6 + p^4 (p^2 [alpha = 0] - 1);
      * mu != 0 and lambda + nu = 0 give (p - 1) p^4 p [alpha = 0];
      * mu != 0, lambda + nu != 0 and nu - lambda != mu: a pair
        (lambda, nu) with lambda + nu != 0 meets p - 2 such mu if
        nu != lambda and p - 1 if nu = lambda (then nu != 0), so they give
        p^3 ((p - 2)(p^2 - p) [alpha = 0] + p [alpha = 0] - 1).
    Divided by p^3, the terms without [alpha = 0] give p^3 - p - 1 for
    every alpha, and those with it add p^3 + (p - 1) p^2 + (p - 2)(p^2 - p)
    + p = 3p^3 - 4p^2 + 3p at alpha = 0.  Neither depends on a, b or c.
    """
    if (pair.r1, pair.r2) != (1, 2):
        raise ValueError(
            f"the closed form needs normalized degrees (1, 2), not ({pair.r1}, {pair.r2})"
        )
    admit(pair, field, budget, "closed")
    p = field.p
    c = np.full(p, p**3 - p - 1, dtype=np.int64)
    c[0] = 4 * p**3 - 4 * p**2 + 2 * p - 1
    return FiberDistribution.from_histogram(field, pair, c)


def fiber_builder(pair: NormalizedPair, oracle: str | None = None):
    """The name and the function that build pair's fibers: ("closed",
    closed_fibers) for a pair whose normalized degrees are (1, 2) when no
    oracle is named, else the named enumerator of ENUMERATORS, fast by
    default.  The name is what admit charges."""
    if oracle is None and (pair.r1, pair.r2) == (1, 2):
        return "closed", closed_fibers
    name = oracle or "fast"
    return name, ENUMERATORS[name]


class GrowthRow(NamedTuple):
    """One prime of a growth report; the field names are the report columns."""

    p: int
    v_size: int
    v_over_p4: float
    w_size: int
    w_over_p7: float
    max_fiber: int
    max_fiber_over_p3: float
    max_charsum_sqrtp: float


def growth_row(dist: FiberDistribution) -> GrowthRow:
    p = dist.field.p
    cs = char_sums_over_fibers(dist)
    scaled = float(np.abs(cs[1:]).max() * np.sqrt(p)) if p > 1 else 0.0
    return GrowthRow(
        p=p,
        v_size=dist.v_size,
        v_over_p4=dist.v_size / p**4,
        w_size=dist.w_size,
        w_over_p7=dist.w_size / p**7,
        max_fiber=dist.max_fiber,
        max_fiber_over_p3=dist.max_fiber / p**3,
        max_charsum_sqrtp=scaled,
    )


def growth_report(fibers_by_p: dict) -> list[GrowthRow]:
    """Size and character-sum growth across a prime sweep, one row per
    prime of ``{p: FiberDistribution}``, in ascending p."""
    return [growth_row(fibers_by_p[p]) for p in sorted(fibers_by_p)]
