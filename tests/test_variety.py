import dataclasses
import hashlib
import json
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import brute_histogram, brute_points

from ffprog import variety
from ffprog import (
    CharTooSmall,
    CorruptFiberFile,
    FiberDistribution,
    WorkBudgetExceeded,
    enumerate_fibers,
    enumerate_fibers_naive,
    enumerate_fibers_reference,
    field_new,
    growth_report,
    normalize_pair,
    parse_pair,
    parse_poly,
    value_table,
    work_estimate,
)


def block_swap(y):
    return (*y[4:], *y[:4])


def pair_swap(y):
    return (y[1], y[0], y[3], y[2], y[5], y[4], y[7], y[6])


def admissible_at(standard_pairs, p):
    return {k: v for k, v in standard_pairs.items() if v.min_char <= p}


# --- preimage layout -------------------------------------------------------


def csr_runs(values, p):
    """The runs of _csr_preimages, one tuple of roots per value."""
    counts, offsets, roots = variety._csr_preimages(values, p)
    assert counts.dtype == offsets.dtype == roots.dtype == np.int64
    return [tuple(roots[o : o + n].tolist()) for o, n in zip(offsets, counts)]


def test_preimage_table_identity():
    f = field_new(11)
    runs = csr_runs(value_table(parse_poly("y"), f), 11)
    assert runs == [(v,) for v in range(11)]


def test_preimage_table_squares_mod_7():
    f = field_new(7)
    runs = csr_runs(value_table(parse_poly("y^2"), f), 7)
    assert runs[2] == (3, 4)
    assert runs[3] == ()
    assert sum(len(r) for r in runs) == 7


@pytest.mark.parametrize("poly", ["2*y^2+y", "y^3"])
@pytest.mark.parametrize("p", [5, 7, 13, 31, 37])
def test_csr_preimages_match_bucket_loop(poly, p):
    # y^3 is 3-to-1 on the units for p = 1 mod 3 and injective for p = 5
    values = value_table(parse_poly(poly), field_new(p))
    buckets = [[] for _ in range(p)]
    for y, v in enumerate(values.tolist()):
        buckets[v].append(y)
    assert csr_runs(values, p) == [tuple(b) for b in buckets]
    assert variety._preimage_lists(values, p) == buckets


# --- enumerator agreement --------------------------------------------------


def test_all_paths_agree_p3(standard_pairs):
    f = field_new(3)
    for pair in admissible_at(standard_pairs, 3).values():
        want = brute_histogram(pair, 3)
        for fn in (enumerate_fibers, enumerate_fibers_reference, enumerate_fibers_naive):
            got = fn(pair, f)
            assert got.c.tolist() == want.tolist(), fn.__name__


def test_all_paths_agree_p5(standard_pairs):
    f = field_new(5)
    for pair in standard_pairs.values():
        want = brute_histogram(pair, 5)
        for fn in (enumerate_fibers, enumerate_fibers_reference, enumerate_fibers_naive):
            got = fn(pair, f)
            assert got.c.tolist() == want.tolist(), fn.__name__


def test_fast_matches_reference_p7_p11(standard_pairs, fibers_cache):
    for p in (7, 11):
        f = field_new(p)
        for pair in standard_pairs.values():
            fast = fibers_cache(pair, p)
            loop = enumerate_fibers_reference(pair, f)
            assert fast.c.tolist() == loop.c.tolist()
            assert fast.v_size == loop.v_size
            assert fast.w_size == loop.w_size


def with_y3_y4(standard_pairs, p):
    """The standard pairs admissible at p, and y^3,y^4 (3-to-1 P1 where
    3 divides p - 1) from p = 5 on."""
    pairs = admissible_at(standard_pairs, p)
    if p >= 5:
        pairs["y^3,y^4"] = normalize_pair(*parse_pair("y^3,y^4"))
    return pairs


def recorded_batches(monkeypatch):
    """Patch variety._slab_batches to append each (lo, hi) it yields to the
    returned list."""
    batches = []
    slab_batches = variety._slab_batches

    def recorded(cost):
        for lo_hi in slab_batches(cost):
            batches.append(lo_hi)
            yield lo_hi

    monkeypatch.setattr(variety, "_slab_batches", recorded)
    return batches


def slab_sizes(pair, p):
    t2p = value_table(pair.p2prime, field_new(p))
    return np.bincount(((t2p[None, :] - t2p[:, None]) % p).ravel(), minlength=p)


@pytest.mark.parametrize("spec", ["y^2,y^3", "y,y^3", "2*y^2,y^2+y"])
def test_fast_matches_reference_across_batches(standard_pairs, spec, monkeypatch):
    # y^2,y^3 and 2*y^2,y^2+y have a 2-to-1 P1; every pair here has T2
    # slabs of unequal sizes.  The batch size is cut so that batches hold
    # several slabs and there are several batches.
    p = 19
    pair = standard_pairs[spec]
    sizes = slab_sizes(pair, p)
    assert sizes.min() < sizes.max()
    monkeypatch.setattr(variety, "BATCH_ROWS", 3 * p * p)
    cost = sizes * p + p * p
    assert 1 < len(list(variety._slab_batches(cost))) < p
    f = field_new(p)
    fast = enumerate_fibers(pair, f)
    loop = enumerate_fibers_reference(pair, f)
    assert fast.c.tolist() == loop.c.tolist()


@pytest.mark.parametrize("p, slots", [(19, 3), (17, 1)])
def test_root_slots_match_reference_across_batches(p, slots, monkeypatch):
    # P1 = y^3 is 3-to-1 on the cubes at p = 19 (3 divides p - 1), so K is
    # built from three root-slot tables with trash cells; at p = 17 it is
    # injective and one slot covers every root.
    pair = normalize_pair(*parse_pair("y^3,y^4"))
    f = field_new(p)
    assert np.bincount(value_table(pair.p1, f)).max() == slots
    batches = recorded_batches(monkeypatch)
    monkeypatch.setattr(variety, "BATCH_ROWS", 4 * p * p)
    fast = enumerate_fibers(pair, f)
    assert 1 < len(batches) < p
    assert fast.c.tolist() == enumerate_fibers_reference(pair, f).c.tolist()


def test_one_slab_per_batch_matches_default(standard_pairs, monkeypatch):
    p = 31
    f = field_new(p)
    want = {k: enumerate_fibers(pair, f).c.tolist() for k, pair in standard_pairs.items()}
    monkeypatch.setattr(variety, "BATCH_ROWS", 1)
    assert len(list(variety._slab_batches(slab_sizes(standard_pairs["y,y^2"], p)))) == p
    for k, pair in standard_pairs.items():
        assert enumerate_fibers(pair, f).c.tolist() == want[k], k


@pytest.mark.parametrize("batch_rows, shared", [(1, False), (1 << 30, True)])
@pytest.mark.parametrize("p", [3, 7, 13])
def test_half_slabs_match_reference(standard_pairs, p, batch_rows, shared, monkeypatch):
    # only the T2 slabs 0..(p - 1)/2 are built, the rest by mirror; slab 0 is
    # its own mirror and must count once, whether it is a batch alone or
    # shares one with mirrored slabs
    batches = recorded_batches(monkeypatch)
    monkeypatch.setattr(variety, "BATCH_ROWS", batch_rows)
    f = field_new(p)
    for spec, pair in with_y3_y4(standard_pairs, p).items():
        batches.clear()
        fast = enumerate_fibers(pair, f)
        assert batches[0][0] == 0 and batches[-1][1] == (p + 1) // 2, spec
        assert (batches[0][1] > 1) == shared, spec
        loop = enumerate_fibers_reference(pair, f)
        assert fast.c.tolist() == loop.c.tolist(), spec
        assert fast.v_size == loop.v_size, spec


def test_float64_gram_blocks_give_the_same_histogram(standard_pairs, monkeypatch):
    dtypes = []
    gram_block = variety._gram_block

    def recorded(*args):
        block = gram_block(*args)
        dtypes.append(block.dtype)
        return block

    monkeypatch.setattr(variety, "_gram_block", recorded)
    cases = [(pair, p) for p in (3, 13, 31) for pair in with_y3_y4(standard_pairs, p).values()]
    want = [enumerate_fibers(pair, field_new(p)).c.tolist() for pair, p in cases]
    assert set(dtypes) == {np.dtype(np.float32)}
    monkeypatch.setattr(variety, "F32_LIMIT", 0)
    dtypes.clear()
    got = [enumerate_fibers(pair, field_new(p)).c.tolist() for pair, p in cases]
    assert set(dtypes) == {np.dtype(np.float64)}
    assert got == want


@pytest.mark.parametrize(
    "column, dtype",
    [
        ([4095, 90, 9, 3], np.float32),  # squares sum to 2**24 - 1
        ([4096], np.float64),  # 2**24
        ([4096, 1], np.float64),  # 2**24 + 1, which float32 rounds to 2**24
    ],
)
def test_gram_block_float32_guard(column, dtype):
    # two equal columns put the off-diagonal entry at the limit too
    p = 5
    slab = np.zeros((p, p), dtype=np.int64)
    slab[: len(column), 0] = slab[: len(column), 1] = column
    slabs = slab[None]
    rows = np.empty((p, p), dtype=np.float32)
    block = variety._gram_block(slabs, slabs[:0], rows)
    assert block.dtype == dtype
    assert (block == slab.T @ slab).all()
    assert block[0, 0] == sum(v * v for v in column)
    if dtype == np.float64:
        assert block[0, 0] >= 2**24
        single = slab.astype(np.float32)
        assert (single.T @ single)[0, 0] == 2**24


def test_gram_block_adds_the_mirrored_transposes():
    rng = np.random.default_rng(0)
    p = 7
    slabs = rng.integers(0, 50, size=(3, p, p))
    rows = np.empty((5 * p, p), dtype=np.float32)
    block = variety._gram_block(slabs, slabs[1:], rows)
    want = sum(k.T @ k for k in slabs) + sum(k @ k.T for k in slabs[1:])
    assert block.dtype == np.float32
    assert (block == want).all()


def test_pinned_sizes_y_y2_p101(standard_pairs):
    # recorded from the enumerator that materialised K[t2, t3, g] whole
    d = enumerate_fibers(standard_pairs["y,y^2"], field_new(101))
    assert (d.v_size, d.w_size, d.max_fiber) == (107100501, 122782302481301, 4080601)


@pytest.mark.parametrize("spec", ["y,y^2", "y^2,y^3"])
def test_enumeration_memory_is_batch_sized(standard_pairs, spec):
    # batches of 2**20 keys peaked at 28.4 MiB (y,y^2) and 22.3 MiB (y^2,y^3)
    pair = standard_pairs[spec]
    f = field_new(101)
    for poly in (pair.p1, pair.p2, pair.p2prime):
        value_table(poly, f)
    tracemalloc.start()
    try:
        enumerate_fibers(pair, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_exactness_limit_fails_fast(standard_pairs, monkeypatch):
    pair = standard_pairs["y,y^2"]
    f = field_new(7)
    v_size = enumerate_fibers(pair, f).v_size
    monkeypatch.setattr(variety, "EXACT_LIMIT", v_size + 1)
    assert enumerate_fibers(pair, f).v_size == v_size
    monkeypatch.setattr(variety, "EXACT_LIMIT", v_size)
    with pytest.raises(WorkBudgetExceeded, match="exactness limit"):
        enumerate_fibers(pair, f)


def test_w_size_matches_pair_count_oracle(standard_pairs):
    # |W| = number of (u, v) in V x V with equal Q values
    for p in (3, 5):
        for pair in admissible_at(standard_pairs, p).values():
            vq = brute_points(pair, p)
            counts = Counter(vq.values())
            pairs_equal = sum(n * n for n in counts.values())
            dist = enumerate_fibers(pair, field_new(p))
            assert dist.w_size == pairs_equal
            assert dist.v_size == len(vq)


# --- symmetry --------------------------------------------------------------


def test_block_swap_preserves_points(standard_pairs):
    # swapping the two blocks of four coordinates fixes the point set and
    # negates the fiber label
    for p in (3, 5):
        for pair in admissible_at(standard_pairs, p).values():
            vq = brute_points(pair, p)
            for y, a in vq.items():
                assert vq[block_swap(y)] == (-a) % p


def walked_k(pair, p):
    """K[t2, t3, g] = #{u in S : (T2, T3, G)(u) = (t2, t3, g)}, counted by
    testing every u in F_p^4 against S = {P1(u2) - P1(u1) = P1(u4) - P1(u3)}."""
    f = field_new(p)
    t1, t2, t2p = (value_table(q, f) for q in (pair.p1, pair.p2, pair.p2prime))
    u1, u2, u3, u4 = np.indices((p,) * 4).reshape(4, -1)
    on_s = (t1[u2] - t1[u1] - t1[u4] + t1[u3]) % p == 0
    u1, u2, u3, u4 = (u[on_s] for u in (u1, u2, u3, u4))
    k = np.zeros((p, p, p), dtype=np.int64)
    np.add.at(k, ((t2p[u3] - t2p[u1]) % p, (t2[u2] - t2[u1]) % p, (t2[u4] - t2[u3]) % p), 1)
    return k


@pytest.mark.parametrize("p", [5, 7, 13])
def test_k_mirror_identity(standard_pairs, p):
    # swapping (u1, u2) with (u3, u4) fixes S and sends (T2, T3, G) to
    # (-T2, G, T3): K[t2, t3, g] = K[-t2, g, t3].  y^2 is 2-to-1 on the
    # squares; y^3 is 3-to-1 on the cubes at p = 7 and 13, injective at 5.
    f = field_new(p)
    pairs = with_y3_y4(standard_pairs, p)
    most = {np.bincount(value_table(pair.p1, f)).max() for pair in pairs.values()}
    assert most == ({1, 2} if p == 5 else {1, 2, 3})
    idx = np.arange(p)
    for spec, pair in pairs.items():
        k = walked_k(pair, p)
        assert (k == k[-idx % p].transpose(0, 2, 1)).all(), spec
        # and this K is the production one: c[a] = sum_g Gram[g, g + a]
        kf = k.reshape(p * p, p)
        gram = kf.T @ kf
        c = np.take_along_axis(gram, (idx[:, None] + idx[None, :]) % p, axis=1).sum(axis=0)
        assert c.tolist() == enumerate_fibers(pair, f).c.tolist(), spec


def test_pair_swap_lands_inside_iff_label_zero(standard_pairs):
    # the within-pair swap is NOT a symmetry of the point set: chasing the
    # defining equations shows its fourth equation picks up exactly Q, so
    # the image stays inside precisely on the zero fiber
    for p in (3, 5):
        for pair in admissible_at(standard_pairs, p).values():
            vq = brute_points(pair, p)
            for y, a in vq.items():
                assert (pair_swap(y) in vq) == (a == 0)


def test_histogram_palindrome(standard_pairs, fibers_cache):
    # consequence of the block swap: c[a] == c[p - a]
    for p in (7, 11, 13):
        for pair in standard_pairs.values():
            c = fibers_cache(pair, p).c
            assert c.tolist() == np.roll(c[::-1], 1).tolist()


# --- sandwich and histogram validation --------------------------------------


def test_sandwich_bounds(standard_pairs, fibers_cache):
    for p in (7, 11):
        for pair in standard_pairs.values():
            d = fibers_cache(pair, p)
            assert p**4 <= d.v_size <= pair.r1**2 * pair.r2**2 * p**4
            assert d.w_size == int(np.dot(d.c, d.c))
            assert d.max_fiber == int(d.c.max())


def test_constructor_rejects_bad_input(standard_pairs):
    pair = standard_pairs["y,y^2"]
    f = field_new(7)
    with pytest.raises(ValueError):
        FiberDistribution(f, pair, np.zeros(6, dtype=np.int64))
    c = np.zeros(7, dtype=np.int64)
    c[0] = -1
    with pytest.raises(ValueError):
        FiberDistribution(f, pair, c)
    with pytest.raises(ValueError, match="total 0 violates"):
        # no points at all: lambda_prime and the character sums divide by |V|
        FiberDistribution(f, pair, np.zeros(7, dtype=np.int64))
    with pytest.raises(ValueError):
        # total below p^4
        FiberDistribution(f, pair, np.ones(7, dtype=np.int64))
    with pytest.raises(ValueError):
        # total above r1^2 r2^2 p^4
        FiberDistribution(f, pair, np.full(7, 4 * 7**4, dtype=np.int64))


def test_w_size_exact_beyond_int64(standard_pairs):
    # p^8 > 2^63: an int64 dot product wraps to a negative number here
    p = 251
    c = np.zeros(p, dtype=np.int64)
    c[0] = p**4
    d = FiberDistribution(field_new(p), standard_pairs["y,y^2"], c)
    assert d.w_size == p**8


def eager_fibers(field, pair, c):
    """FiberDistribution.from_histogram as it was before the distribution
    derived its sizes from c: every stored value computed up front, and the
    document save writes built from them.  Kept as the oracle."""
    c = np.asarray(c, dtype=np.int64)
    if c.shape != (field.p,) or (c < 0).any():
        raise ValueError("histogram must be p nonnegative counts")
    fibers = c.tolist()
    v_size = sum(fibers)
    p = field.p
    low, high = p**4, pair.r1**2 * pair.r2**2 * p**4
    if not low <= v_size <= high:
        raise ValueError(f"fiber histogram total {v_size} violates [{low}, {high}]")
    sizes = dict(v_size=v_size, w_size=sum(n * n for n in fibers), max_fiber=int(c.max()))
    digest = hashlib.sha256(",".join(map(str, fibers)).encode()).hexdigest()
    doc = dict(schema=1, p=p, pair=pair.key(), pair_hash=pair.pair_hash(), c=fibers, **sizes)
    return dict(sizes, digest=digest, doc=dict(doc, digest=digest))


@st.composite
def histograms(draw):
    """(field, pair, c) with a total near either bound of v_bounds or
    anywhere in [0, 2 * high], sometimes with a negative count or a wrong
    length, as a list or an int64 array."""
    pair = normalize_pair(*parse_pair(draw(st.sampled_from(["y,y^2", "y^2,y^3", "2*y^2,y^2+y"]))))
    p = draw(st.sampled_from([q for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31) if q >= pair.min_char]))
    low, high = variety.v_bounds(pair, p)
    total = draw(
        st.integers(low - 2, low + 2) | st.integers(high - 2, high + 2) | st.integers(0, 2 * high)
    )
    weights = draw(st.lists(st.integers(0, 9), min_size=p, max_size=p))
    c = [total * w // max(sum(weights), 1) for w in weights]
    c[0] += total - sum(c)
    flaw = draw(st.sampled_from(["none", "none", "none", "negative", "short", "long"]))
    if flaw == "negative":
        c[draw(st.integers(0, p - 1))] = -draw(st.integers(1, 3))
    elif flaw != "none":
        c = c[:-1] if flaw == "short" else c + [0]
    return field_new(p), pair, np.array(c, dtype=np.int64) if draw(st.booleans()) else c


@given(histograms())
@settings(max_examples=300, deadline=None)
def test_distribution_matches_eager_reference(case):
    field, pair, c = case
    try:
        want = eager_fibers(field, pair, c)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            FiberDistribution(field, pair, c)
        assert str(got.value) == str(exc)
        return
    dist = FiberDistribution(field, pair, c)
    got = dict(v_size=dist.v_size, w_size=dist.w_size, max_fiber=dist.max_fiber)
    assert {**got, "digest": dist.digest()} == {k: want[k] for k in (*got, "digest")}
    assert all(type(v) is int for v in got.values())
    assert json.dumps(dist.to_json_dict(), sort_keys=True) == json.dumps(want["doc"], sort_keys=True)


def test_distribution_holds_only_its_counts(standard_pairs):
    assert [f.name for f in dataclasses.fields(FiberDistribution)] == ["field", "pair", "c"]
    c = np.full(7, 7**3, dtype=np.int64)
    dist = FiberDistribution(field_new(7), standard_pairs["y,y^2"], c)
    # a size that disagrees with the counts cannot be set
    with pytest.raises(TypeError):
        dataclasses.replace(dist, v_size=0)
    with pytest.raises(ValueError):
        dist.c[0] = 1
    # the distribution holds its own copy of the counts
    c[0] = 0
    assert dist.c.tolist() == [7**3] * 7
    assert (dist.v_size, dist.w_size, dist.max_fiber) == (7**4, 7**7, 7**3)


# --- gates -------------------------------------------------------------------


def test_work_estimate_formula(standard_pairs):
    pair = standard_pairs["y^2,y^3"]
    assert work_estimate(pair, 7) == work_estimate(pair, 7, "loop") == 2 * 3 * 7**4
    assert work_estimate(pair, 7, "naive8") == 7**8
    assert work_estimate(pair, 7, "closed") == 7  # the degree-(1, 2) closed form


def test_budget_gate(standard_pairs):
    pair = standard_pairs["y,y^2"]
    f = field_new(11)
    need = work_estimate(pair, 11)
    for fn in (enumerate_fibers, enumerate_fibers_reference, enumerate_fibers_naive):
        with pytest.raises(WorkBudgetExceeded):
            fn(pair, f, budget=need - 1)
    assert enumerate_fibers(pair, f, budget=need).v_size >= 11**4


def test_char_gate(standard_pairs):
    pair = standard_pairs["y^2,y^3"]
    assert pair.min_char == 4
    for fn in (enumerate_fibers, enumerate_fibers_reference, enumerate_fibers_naive):
        with pytest.raises(CharTooSmall):
            fn(pair, field_new(3))


# --- persistence -------------------------------------------------------------


def test_save_load_roundtrip(standard_pairs, fibers_cache, tmp_path):
    pair = standard_pairs["y,y^2"]
    d = fibers_cache(pair, 7)
    path = tmp_path / "fibers.json"
    d.save(path)
    back = FiberDistribution.load(path, pair, 7)
    assert back.c.tolist() == d.c.tolist()
    assert back.v_size == d.v_size
    assert back.w_size == d.w_size
    assert back.digest() == d.digest()


def tampered(path, tmp_path, mutate):
    raw = json.loads(path.read_text())
    mutate(raw)
    out = tmp_path / f"tampered_{mutate.__name__}.json"
    out.write_text(json.dumps(raw))
    return out


def test_load_rejects_tampering(standard_pairs, fibers_cache, tmp_path):
    pair = standard_pairs["y,y^2"]
    d = fibers_cache(pair, 7)
    path = tmp_path / "fibers.json"
    d.save(path)

    def bump_count(raw):
        raw["c"][3] += 1

    def wrong_schema(raw):
        raw["schema"] = 99

    def wrong_wsize(raw):
        raw["w_size"] += 2

    def wrong_digest(raw):
        raw["digest"] = "0" * 64

    for mutate in (bump_count, wrong_schema, wrong_wsize, wrong_digest):
        with pytest.raises(CorruptFiberFile):
            FiberDistribution.load(tampered(path, tmp_path, mutate), pair, 7)

    other = standard_pairs["y,y^3"]
    with pytest.raises(CorruptFiberFile):
        FiberDistribution.load(path, other, 7)


def test_load_rejects_other_prime(standard_pairs, fibers_cache, tmp_path):
    pair = standard_pairs["y,y^2"]
    path = tmp_path / "fibers.json"
    fibers_cache(pair, 7).save(path)
    assert FiberDistribution.load(path, pair, 7).field.p == 7
    with pytest.raises(CorruptFiberFile):
        FiberDistribution.load(path, pair, 11)


def test_load_rejects_malformed_files(standard_pairs, fibers_cache, tmp_path):
    pair = standard_pairs["y,y^2"]
    path = tmp_path / "fibers.json"
    fibers_cache(pair, 7).save(path)
    text = path.read_text()

    def drop_counts(raw):
        del raw["c"]

    def text_counts(raw):
        raw["c"] = "many"

    def huge_counts(raw):
        raw["c"] = [2**70] * 7

    def composite_p(raw):
        raw["p"] = 8

    def null_p(raw):
        raw["p"] = None

    # the stored totals and digest still match these counts' values
    def float_counts(raw):
        raw["c"] = [float(v) for v in raw["c"]]

    def string_counts(raw):
        raw["c"] = [str(v) for v in raw["c"]]

    # counts and digest kept; a JSON type or an extra key differs from save's
    def float_p(raw):
        raw["p"] = 7.0

    def bool_schema(raw):
        raw["schema"] = True

    def float_v_size(raw):
        raw["v_size"] = float(raw["v_size"])

    def float_w_size(raw):
        raw["w_size"] = float(raw["w_size"])

    def float_max_fiber(raw):
        raw["max_fiber"] = float(raw["max_fiber"])

    def extra_key(raw):
        raw["note"] = "hand edited"

    mutations = (
        drop_counts, text_counts, huge_counts, composite_p, null_p, float_counts, string_counts,
        float_p, bool_schema, float_v_size, float_w_size, float_max_fiber, extra_key,
    )
    bad = [tampered(path, tmp_path, m) for m in mutations]
    assert len(set(bad)) == len(mutations)
    deep = "[" * 10**5 + "]" * 10**5  # past json's recursion limit
    for name, body in (("truncated.json", text[:200]), ("list.json", "[]"), ("empty.json", ""), ("deep.json", deep)):
        bad.append(tmp_path / name)
        bad[-1].write_text(body)
    for bad_path in bad:
        with pytest.raises(CorruptFiberFile):
            FiberDistribution.load(bad_path, pair, 7)


def test_failed_save_keeps_old_file(standard_pairs, fibers_cache, tmp_path, monkeypatch):
    pair = standard_pairs["y,y^2"]
    path = tmp_path / "fibers.json"
    fibers_cache(pair, 7).save(path)
    before = path.read_bytes()
    # serialisation fails before the new file is complete
    monkeypatch.setattr(
        FiberDistribution, "to_json_dict", lambda self: {"c": [1], "z": object()}
    )
    with pytest.raises(TypeError):
        fibers_cache(pair, 7).save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["fibers.json"]


# --- growth report -----------------------------------------------------------


def test_growth_report_sweep(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    primes = (13, 7, 11)
    rows = growth_report({p: fibers_cache(pair, p) for p in primes})
    assert [r.p for r in rows] == [7, 11, 13]
    for row in rows:
        assert row.v_size >= row.p**4
        assert row.v_over_p4 <= 4.0
        assert row.w_over_p7 > 0
        assert row.max_charsum_sqrtp >= 0.0
    # |W| at the smallest prime against the explicit pair-count oracle
    vq = brute_points(pair, 7)
    counts = Counter(vq.values())
    assert rows[0].w_size == sum(n * n for n in counts.values())
