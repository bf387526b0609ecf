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

K is never held whole.  The pairs (u1, u3) are grouped by their T2 value
into slabs; a batch of whole slabs (about BATCH_ROWS base rows (u1, u2, u3)
plus the p^2 cells of K per slab) expands u4 through the CSR preimage table
of P1, histograms its block of complete K rows with one bincount, and adds
that block's Gram product to the running p x p total.  Memory is therefore
O(p^2 + BATCH_ROWS) and the work O(deg(P1) * p^3 + p^4) with the p^4 term
in BLAS.

The Gram product runs in float64 yet is exact.  Every entry of K is a
nonnegative integer, so every partial sum BLAS forms, in whatever order, is
at most its final Gram entry, which is at most sum_r rowsum_r^2 = |V|.  The
enumeration tracks that sum in Python ints and stops with
WorkBudgetExceeded before it reaches EXACT_LIMIT = 2**53, below which
float64 represents every integer; the finished c must then sum to it.

Two slower paths back this up: a four-variable walk that resolves the
dependent slots y4, y6, y7, y8 through preimage tables (the transparent
reference), and a flat scan of all p^8 tuples (the naive oracle, p <= 5).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CharTooSmall, CorruptFiberFile, WorkBudgetExceeded
from .field import PrimeField, field_new, value_table
from .polys import IntPoly, NormalizedPair
from .fourier import char_sums_over_fibers

DEFAULT_BUDGET = 2_000_000_000

SCHEMA_VERSION = 1

# Base rows (u1, u2, u3) per batch of the fast enumerator.  Batches hold
# whole T2 slabs, and each slab also counts its p^2 cells of K.
BATCH_ROWS = 1 << 20

# float64 holds every integer below 2**53 exactly; see the module docstring.
EXACT_LIMIT = 1 << 53


@dataclass(frozen=True)
class PreimageTable:
    """For each value v, the sorted list of roots of P(y) = v."""

    field: PrimeField
    poly: IntPoly
    table: tuple

    def preimages(self, v: int):
        return self.table[v % self.field.p]


def build_preimage_table(poly: IntPoly, field: PrimeField) -> PreimageTable:
    if poly.degree != float("-inf") and field.p <= poly.degree:
        raise CharTooSmall(
            f"preimage table needs p > deg = {poly.degree}, got p = {field.p}"
        )
    values = value_table(poly, field)
    buckets: list[list[int]] = [[] for _ in range(field.p)]
    for y in range(field.p):
        buckets[int(values[y])].append(y)
    return PreimageTable(field, poly, tuple(tuple(b) for b in buckets))


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


def write_text_atomic(path, text: str) -> None:
    """Write a file atomically: a same-directory temp file, then rename.

    Readers see either the old file or the complete new one, even if the
    writer dies midway or another worker writes the same path.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
        p4 = field.p**4
        upper = pair.r1**2 * pair.r2**2 * p4
        if not p4 <= v_size <= upper:
            raise ValueError(
                f"fiber histogram total {v_size} violates [{p4}, {upper}]"
            )
        return cls(
            field=field,
            pair=pair,
            c=c,
            v_size=v_size,
            w_size=sum(n * n for n in fibers),
            max_fiber=int(c.max()),
        )

    def digest(self) -> str:
        payload = ",".join(str(int(v)) for v in self.c)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "p": self.field.p,
            "pair": self.pair.key(),
            "pair_hash": self.pair.pair_hash(),
            "c": [int(v) for v in self.c],
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
        """Read and check the fiber file of (pair, p); a file for another pair
        or prime, or malformed content, is CorruptFiberFile."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise CorruptFiberFile(f"{path}: fiber file is not a JSON object")
            if raw.get("schema") != SCHEMA_VERSION:
                raise CorruptFiberFile(
                    f"{path}: unsupported schema {raw.get('schema')}"
                )
            if raw.get("pair") != pair.key() or raw.get("pair_hash") != pair.pair_hash():
                raise CorruptFiberFile(f"{path}: fiber file is for a different pair")
            if raw.get("p") != p:
                raise CorruptFiberFile(f"{path}: fiber file is for p={raw.get('p')!r}, not p={p}")
            field = field_new(p)
            dist = cls.from_histogram(field, pair, raw["c"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorruptFiberFile(f"{path}: {type(exc).__name__}: {exc}") from exc
        for key, got in (
            ("v_size", dist.v_size),
            ("w_size", dist.w_size),
            ("max_fiber", dist.max_fiber),
            ("digest", dist.digest()),
        ):
            if raw.get(key) != got:
                raise CorruptFiberFile(
                    f"{path}: stored {key} {raw.get(key)!r} != derived {got!r}"
                )
        return dist


def work_estimate(pair: NormalizedPair, p: int) -> int:
    """Elementary-step estimate r1 * r2 * p^4 used by the budget gate."""
    return pair.r1 * pair.r2 * p**4


def _gate(pair: NormalizedPair, field: PrimeField, budget: int) -> None:
    pair.require_char(field)
    est = work_estimate(pair, field.p)
    if est > budget:
        raise WorkBudgetExceeded(
            f"estimated {est} steps for p = {field.p} exceeds budget {budget}"
        )


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
    _gate(pair, field, budget)
    p = field.p
    t1 = value_table(pair.p1, field)
    t2 = value_table(pair.p2, field)
    t2p = value_table(pair.p2prime, field)

    counts, offsets, roots = _csr_preimages(t1, p)
    root_p2 = t2[roots]

    # CSR list of the pairs (u1, u3), flat index u1*p + u3, by T2 slab.
    z2 = ((t2p[None, :] - t2p[:, None]) % p).ravel()
    slab_pairs, slab_start, slab_order = _csr_preimages(z2, p)

    # T3 * p for every (u1, u2): the middle digit of the K key.
    t3_key = ((t2[None, :] - t2[:, None]) % p) * p

    gram = np.zeros((p, p))
    v_size = 0
    for lo, hi in _slab_batches(slab_pairs * p + p * p):
        n_pairs = int(slab_pairs[lo:hi].sum())
        u1, u3 = np.divmod(slab_order[slab_start[lo] : slab_start[lo] + n_pairs], p)
        slab = np.repeat(np.arange(hi - lo, dtype=np.int64), slab_pairs[lo:hi])
        # One base row per (pair, u2); u4 runs over the roots of P1 at s.
        s = (t1[None, :] + (t1[u3] - t1[u1])[:, None]) % p
        row_key = t3_key[u1] + (slab * (p * p))[:, None]
        u3_p2 = np.broadcast_to(t2[u3][:, None], s.shape)
        n_roots, first = counts[s], offsets[s]
        keys = []
        for j in range(int(counts.max())):
            has = n_roots > j
            g = (root_p2[first[has] + j] - u3_p2[has]) % p
            keys.append(row_key[has] + g)
        kb = np.bincount(np.concatenate(keys), minlength=(hi - lo) * p * p)
        kb = kb.reshape(-1, p)

        v_size += sum(r * r for r in kb.sum(axis=1).tolist())
        if v_size >= EXACT_LIMIT:
            raise WorkBudgetExceeded(
                f"p = {p}: |V| reaches {EXACT_LIMIT}, the exactness limit of "
                "the float64 Gram product"
            )
        kf = kb.astype(np.float64)
        gram += kf.T @ kf

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


def enumerate_fibers_reference(
    pair: NormalizedPair,
    field: PrimeField,
    budget: int = DEFAULT_BUDGET,
) -> FiberDistribution:
    """Transparent four-variable walk with dependent-slot preimage tables.

    Loops (y1, y2, y3, y5); y4, y6, y7 come from the preimage lists forced
    by R1, R3, R4, then y8 from R2.  Pure Python, so only suitable for small
    p, but it shares no code with the fast path.
    """
    _gate(pair, field, budget)
    p = field.p
    t1 = [int(v) for v in value_table(pair.p1, field)]
    t2 = [int(v) for v in value_table(pair.p2, field)]
    t2p = [int(v) for v in value_table(pair.p2prime, field)]
    pre1 = build_preimage_table(pair.p1, field).table
    pre2 = build_preimage_table(pair.p2, field).table
    pre2p = build_preimage_table(pair.p2prime, field).table

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
    """Flat scan of all p^8 tuples.  The oracle; keep p tiny."""
    _gate(pair, field, budget)
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


@dataclass(frozen=True)
class GrowthRow:
    p: int
    v_size: int
    v_ratio: float
    w_size: int
    w_ratio: float
    max_fiber: int
    fiber_ratio: float
    charsum_scaled: float

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "v_size": self.v_size,
            "v_over_p4": self.v_ratio,
            "w_size": self.w_size,
            "w_over_p7": self.w_ratio,
            "max_fiber": self.max_fiber,
            "max_fiber_over_p3": self.fiber_ratio,
            "max_charsum_sqrtp": self.charsum_scaled,
        }


CSV_COLUMNS = (
    "p",
    "v_size",
    "v_over_p4",
    "w_size",
    "w_over_p7",
    "max_fiber",
    "max_fiber_over_p3",
    "max_charsum_sqrtp",
)


@dataclass
class SweepReport:
    pair: NormalizedPair
    rows: list

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "pair": self.pair.key(),
            "rows": [r.to_json_dict() for r in self.rows],
        }


def growth_row(dist: FiberDistribution) -> GrowthRow:
    p = dist.field.p
    cs = char_sums_over_fibers(dist)
    scaled = float(np.abs(cs[1:]).max() * np.sqrt(p)) if p > 1 else 0.0
    return GrowthRow(
        p=p,
        v_size=dist.v_size,
        v_ratio=dist.v_size / p**4,
        w_size=dist.w_size,
        w_ratio=dist.w_size / p**7,
        max_fiber=dist.max_fiber,
        fiber_ratio=dist.max_fiber / p**3,
        charsum_scaled=scaled,
    )


def growth_report(
    pair: NormalizedPair,
    primes,
    budget: int = DEFAULT_BUDGET,
    fibers_by_p=None,
) -> SweepReport:
    """Size and character-sum growth across a prime sweep.

    ``fibers_by_p`` lets callers supply already-enumerated distributions
    (for example from cache); missing primes are enumerated here.
    """
    rows = []
    for p in sorted(primes):
        dist = None if fibers_by_p is None else fibers_by_p.get(p)
        if dist is None:
            dist = enumerate_fibers(pair, field_new(p), budget=budget)
        rows.append(growth_row(dist))
    return SweepReport(pair=pair, rows=rows)
