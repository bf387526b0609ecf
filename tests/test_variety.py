import json
import os
from collections import Counter

import numpy as np
import pytest
from conftest import brute_histogram, brute_points

from ffprog import variety
from ffprog import (
    CSV_COLUMNS,
    CharTooSmall,
    CorruptFiberFile,
    FiberDistribution,
    WorkBudgetExceeded,
    build_preimage_table,
    enumerate_fibers,
    enumerate_fibers_naive,
    enumerate_fibers_reference,
    field_new,
    growth_report,
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


# --- preimage tables -------------------------------------------------------


def test_preimage_table_identity():
    f = field_new(11)
    t = build_preimage_table(parse_poly("y"), f)
    assert all(t.preimages(v) == (v,) for v in range(11))


def test_preimage_table_squares_mod_7():
    f = field_new(7)
    t = build_preimage_table(parse_poly("y^2"), f)
    assert t.preimages(2) == (3, 4)
    assert t.preimages(3) == ()
    assert sum(len(t.preimages(v)) for v in range(7)) == 7


def test_preimage_table_char_gate():
    with pytest.raises(CharTooSmall):
        build_preimage_table(parse_poly("y^3"), field_new(3))


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


def test_one_slab_per_batch_matches_default(standard_pairs, monkeypatch):
    p = 31
    f = field_new(p)
    want = {k: enumerate_fibers(pair, f).c.tolist() for k, pair in standard_pairs.items()}
    monkeypatch.setattr(variety, "BATCH_ROWS", 1)
    assert len(list(variety._slab_batches(slab_sizes(standard_pairs["y,y^2"], p)))) == p
    for k, pair in standard_pairs.items():
        assert enumerate_fibers(pair, f).c.tolist() == want[k], k


def test_pinned_sizes_y_y2_p101(standard_pairs):
    # recorded from the enumerator that materialised K[t2, t3, g] whole
    d = enumerate_fibers(standard_pairs["y,y^2"], field_new(101))
    assert (d.v_size, d.w_size, d.max_fiber) == (107100501, 122782302481301, 4080601)


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


def test_from_histogram_rejects_bad_input(standard_pairs):
    pair = standard_pairs["y,y^2"]
    f = field_new(7)
    with pytest.raises(ValueError):
        FiberDistribution.from_histogram(f, pair, np.zeros(6, dtype=np.int64))
    c = np.zeros(7, dtype=np.int64)
    c[0] = -1
    with pytest.raises(ValueError):
        FiberDistribution.from_histogram(f, pair, c)
    with pytest.raises(ValueError):
        # total below p^4
        FiberDistribution.from_histogram(f, pair, np.ones(7, dtype=np.int64))
    with pytest.raises(ValueError):
        # total above r1^2 r2^2 p^4
        FiberDistribution.from_histogram(
            f, pair, np.full(7, 4 * 7**4, dtype=np.int64)
        )


def test_w_size_exact_beyond_int64(standard_pairs):
    # p^8 > 2^63: an int64 dot product wraps to a negative number here
    p = 251
    c = np.zeros(p, dtype=np.int64)
    c[0] = p**4
    d = FiberDistribution.from_histogram(field_new(p), standard_pairs["y,y^2"], c)
    assert d.w_size == p**8


# --- gates -------------------------------------------------------------------


def test_work_estimate_formula(standard_pairs):
    pair = standard_pairs["y^2,y^3"]
    assert work_estimate(pair, 7) == 2 * 3 * 7**4


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
    out = tmp_path / "tampered.json"
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

    bad = [tampered(path, tmp_path, m) for m in (drop_counts, text_counts, huge_counts, composite_p, null_p)]
    for name, body in (("truncated.json", text[:200]), ("list.json", "[]"), ("empty.json", "")):
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
    primes = (7, 11, 13)
    rep = growth_report(
        pair, primes, fibers_by_p={p: fibers_cache(pair, p) for p in primes}
    )
    assert [r.p for r in rep.rows] == [7, 11, 13]
    for row in rep.rows:
        assert row.v_size >= row.p**4
        assert row.v_ratio <= 4.0
        assert row.w_ratio > 0
        assert row.charsum_scaled >= 0.0
    # |W| at the smallest prime against the explicit pair-count oracle
    vq = brute_points(pair, 7)
    counts = Counter(vq.values())
    assert rep.rows[0].w_size == sum(n * n for n in counts.values())


def test_growth_row_json_matches_csv_columns(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    rep = growth_report(pair, (7,), fibers_by_p={7: fibers_cache(pair, 7)})
    assert tuple(rep.rows[0].to_json_dict().keys()) == CSV_COLUMNS
    assert rep.to_json_dict()["pair"] == pair.key()


def test_growth_report_prefers_supplied_fibers(standard_pairs, fibers_cache):
    # with a distribution supplied, no enumeration happens, so a tiny
    # budget cannot trip the gate
    pair = standard_pairs["y,y^2"]
    rep = growth_report(
        pair, (7,), budget=1, fibers_by_p={7: fibers_cache(pair, 7)}
    )
    assert rep.rows[0].v_size == fibers_cache(pair, 7).v_size
