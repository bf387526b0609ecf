import math
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import brute_points

from ffprog import (
    CharTooSmall,
    CountReport,
    DegreeTooSmall,
    FiberDistribution,
    GridFunction,
    Inadmissible,
    NotMeanZero,
    SubsetSpec,
    balance,
    count_progressions,
    decomposition_residual,
    expander_image,
    field_new,
    indicator,
    l2_norm,
    lambda2,
    lambda3,
    lambda_prime,
    main_theorem_ratio,
    normalize_pair,
    parse_poly,
    prop22_sides,
    random_subset,
)
from ffprog import counting
from ffprog.counting import _packed_count, _shift_dots
from ffprog.field import value_table

Y = parse_poly("y")
Y2 = parse_poly("y^2")
Y3 = parse_poly("y^3")


def rand_fn(field, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(field, rng.normal(size=field.p))


# --- exact counts ------------------------------------------------------------


def test_count_full_sets():
    f = field_new(7)
    full = SubsetSpec.full(f)
    rep = count_progressions(full, full, full, Y, Y2, f)
    assert rep.exact_count == 49
    assert rep.expected == Fraction(343, 7)
    assert rep.error == 0


def test_count_empty_c():
    f = field_new(7)
    full = SubsetSpec.full(f)
    rep = count_progressions(full, full, SubsetSpec.empty(f), Y, Y2, f)
    assert rep.exact_count == 0


def test_count_singletons_p5():
    f = field_new(5)
    z = SubsetSpec.from_members(f, [0])
    rep = count_progressions(z, z, z, Y, Y2, f)
    assert rep.exact_count == 1
    assert rep.expected == Fraction(1, 5)
    assert rep.error == Fraction(4, 5)


def test_count_error_is_exact_rational():
    f = field_new(11)
    a = SubsetSpec.from_members(f, [0, 1, 2])
    b = SubsetSpec.from_members(f, [3, 4])
    c = SubsetSpec.full(f)
    rep = count_progressions(a, b, c, Y, Y2, f)
    assert rep.error == abs(Fraction(rep.exact_count) - Fraction(3 * 2 * 11, 11))
    assert rep.bound == pytest.approx(
        (3 * 2 * 11) ** 0.5 * 11 ** (0.5 - 1 / 16), rel=1e-12
    )


def test_count_bound_matches_report_ratio():
    # count reports divide the error by this bound, so it keeps their
    # expression; for |A||B||C| = 8415, sqrt(8415) and 8415**0.5 round
    # differently
    f = field_new(37)
    a, b, c = (SubsetSpec.from_members(f, list(range(n))) for n in (15, 17, 33))
    rep = count_progressions(a, b, c, Y, Y2, f)
    assert rep.bound == 8415**0.5 * 37 ** (0.5 - 1 / 16)


def test_count_gates():
    f3 = field_new(3)
    full = SubsetSpec.full(f3)
    with pytest.raises(CharTooSmall):
        count_progressions(full, full, full, Y2, Y3, f3)
    f7 = field_new(7)
    full7 = SubsetSpec.full(f7)
    with pytest.raises(Inadmissible):
        count_progressions(full7, full7, full7, Y, parse_poly("2*y"), f7)


# --- packed count kernel -----------------------------------------------------

# Primes on either side of a 64-bit word boundary (1, 2, 3 and 4 words).
WORD_PRIMES = (61, 67, 127, 131, 193, 257)

# (P1, P2) as strings and as plain Python functions for the double loop;
# the last two are not injective in y.
KERNEL_PAIRS = (
    ("y", "y^2", lambda y: y, lambda y: y * y),
    ("2*y^2", "y^2+y", lambda y: 2 * y * y, lambda y: y * y + y),
    ("y^2", "y^3", lambda y: y * y, lambda y: y**3),
)


def double_loop_count(a, b, c, q1, q2, p):
    """#{(x, y) : x in A, x + q1(y) in B, x + q2(y) in C}, one pair at a time."""
    in_b, in_c = set(b.members), set(c.members)
    total = 0
    for y in range(p):
        u, v = q1(y) % p, q2(y) % p
        for x in a.members:
            if (x + u) % p in in_b and (x + v) % p in in_c:
                total += 1
    return total


def kernel_sets(f):
    p = f.p
    full, empty = SubsetSpec.full(f), SubsetSpec.empty(f)
    edge = SubsetSpec.from_members(f, [0, 1, 62, 63, 64, p - 2, p - 1])
    rand = [random_subset(f, 0.5, seed=p + k) for k in range(3)]
    return [
        (full, full, full),
        (full, full, empty),
        (empty, full, full),
        (SubsetSpec.from_members(f, [p - 1]), full, full),
        (full, SubsetSpec.from_members(f, [0]), SubsetSpec.from_members(f, [p - 1])),
        (edge, edge, edge),
        (full, edge, rand[0]),
        tuple(rand),
    ]


@pytest.mark.parametrize("p", WORD_PRIMES)
@pytest.mark.parametrize("pair", KERNEL_PAIRS, ids=lambda t: f"{t[0]},{t[1]}")
def test_packed_count_matches_double_loop(p, pair):
    f = field_new(p)
    s1, s2, q1, q2 = pair
    p1, p2 = parse_poly(s1), parse_poly(s2)
    for a, b, c in kernel_sets(f):
        rep = count_progressions(a, b, c, p1, p2, f)
        assert rep.exact_count == double_loop_count(a, b, c, q1, q2, p)


@pytest.mark.parametrize("p", WORD_PRIMES)
def test_packed_count_shifts_across_the_seam(p):
    # shifts just below p wrap x + s past the end of the doubled array's
    # first copy; 63/64 and p-64/p-65 sit on a word boundary of the windows
    f = field_new(p)
    shifts = [k % p for k in (-1, -2, -63, -64, -65, 0, 1, 63, 64, 65)]
    s1 = np.array(shifts, dtype=np.int64)
    s2 = s1[::-1].copy()
    for a, b, c in kernel_sets(f):
        in_b, in_c = set(b.members), set(c.members)
        expected = sum(
            1
            for u, v in zip(s1.tolist(), s2.tolist())
            for x in a.members
            if (x + u) % p in in_b and (x + v) % p in in_c
        )
        assert _packed_count(a, b, c, s1, s2) == expected


@pytest.mark.parametrize("p", WORD_PRIMES)
@pytest.mark.parametrize("pair", KERNEL_PAIRS, ids=lambda t: f"{t[0]},{t[1]}")
def test_packed_count_blocks_with_an_uneven_last_block(monkeypatch, p, pair):
    # R = block shifts per gather; no prime here is a multiple of 5 or 13
    f = field_new(p)
    s1_text, s2_text, q1, q2 = pair
    s1 = value_table(parse_poly(s1_text), f)
    s2 = value_table(parse_poly(s2_text), f)
    w = -(-p // 64)
    for a, b, c in kernel_sets(f):
        expected = double_loop_count(a, b, c, q1, q2, p)
        for block in (1, 5, 13):
            monkeypatch.setattr(counting, "COUNT_BLOCK", block * w + w // 2)
            assert _packed_count(a, b, c, s1, s2) == expected, block


def test_packed_count_memory_is_phase_tables_plus_two_blocks():
    # two 64-phase tables of p // 64 + ceil(p/64) words each, one block and
    # its successor (or the C windows and-ed into it), and the block's uint8
    # popcounts; the per-y loop this kernel replaced peaked at 1,097,254 bytes
    # here, and gathering every shift at once would take 112 MB.  The slack
    # of p bytes is far below a third block (about 128 KiB), which a caller
    # that keeps its block bound while the next is gathered would add.  The
    # expander adds its two length-p int64 shift arrays and its w-word image.
    p = 30011
    f = field_new(p)
    sets = [random_subset(f, 0.5, seed=p + k) for k in range(3)]
    s1, s2 = value_table(Y, f), value_table(Y2, f)
    w = -(-p // 64)
    tables = 2 * 64 * (p // 64 + w) * 8
    bound = tables + 2.125 * counting.COUNT_BLOCK * 8 + p
    for run, limit in (
        (lambda: _packed_count(*sets, s1, s2), bound),
        (lambda: expander_image(sets[0], sets[1], Y2, f), bound + 16 * p),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit


def test_packed_count_agrees_with_lambda3_at_1009():
    f = field_new(1009)
    sets = [random_subset(f, 0.5, seed=90 + k) for k in range(3)]
    rep = count_progressions(*sets, Y, Y2, f)
    lam = lambda3(*(indicator(s) for s in sets), Y, Y2, f)
    assert rep.exact_count == round(lam * 1009 * 1009)
    assert abs(lam * 1009 * 1009 - rep.exact_count) < 1e-6


# --- shift-dot kernel ---------------------------------------------------------


def double_loop_rows(f0, f1, s1, f2=None, s2=None):
    """Each row of _shift_dots as a correctly rounded sum over x, and the sum
    of its terms' magnitudes (the scale its rounding error is measured on)."""
    p = len(f0)
    f0, d1 = f0.tolist(), f1.tolist() * 2
    d2 = [1.0] * 2 * p if f2 is None else f2.tolist() * 2
    s2 = [0] * len(s1) if s2 is None else s2
    rows, scales = [], []
    for a, b in zip(list(s1), list(s2)):
        terms = [u * v * w for u, v, w in zip(f0, d1[a : a + p], d2[b : b + p])]
        rows.append(math.fsum(terms))
        scales.append(math.fsum(map(abs, terms)))
    return np.array(rows), np.array(scales)


def check_shift_dots(p, q1, q2, seed):
    """Blocked rows against the double loop: float64 rows to 1e-12 of their
    scale, 0/1 rows exactly (integers below 2^53)."""
    s1 = np.array([q1(y) % p for y in range(p)], dtype=np.int64)
    s2 = np.array([q2(y) % p for y in range(p)], dtype=np.int64)
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=(3, p))
    bits = (rng.random((3, p)) < 0.5).astype(np.float64)
    for (f0, f1, f2), exact in ((normal, False), (bits, True)):
        for args in ((f0, f1, s1, f2, s2), (f0, f1, s1), (f1, f2, s2)):
            got = _shift_dots(*args)
            want, scale = double_loop_rows(*args)
            if exact:
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize(
    "p, pair",
    [(p, pair) for p in (31, 73, 257) for pair in KERNEL_PAIRS] + [(1009, KERNEL_PAIRS[1])],
    ids=lambda v: str(v) if isinstance(v, int) else f"{v[0]},{v[1]}",
)
def test_shift_dots_matches_double_loop(p, pair):
    # 2*y^2 and y^2+y are 2-to-1, so most shifts come twice
    check_shift_dots(p, pair[2], pair[3], seed=p)


@pytest.mark.parametrize("block", [1, 5, 13])
def test_shift_dots_blocks_with_an_uneven_last_block(monkeypatch, block):
    # R = block rows per gather; 31 and 73 shifts are no multiple of 5 or 13
    for p in (31, 73):
        monkeypatch.setattr(counting, "SHIFT_BLOCK", block * p + p // 2)
        check_shift_dots(p, lambda y: 2 * y * y, lambda y: y * y + y, seed=block)


def test_shift_dots_memory_stays_within_a_block():
    p = 5003
    f = field_new(p)
    s1, s2 = value_table(Y, f), value_table(Y2, f)
    f0, f1, f2 = np.random.default_rng(1).normal(size=(3, p))
    tracemalloc.start()
    try:
        _shift_dots(f0, f1, s1, f2, s2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole (p, p) window matrix would be 200 MB
    assert peak <= 3 * counting.SHIFT_BLOCK * 8 + 64 * p


def test_shift_dots_two_factor_memory_holds_one_block():
    # each block is released before the next gather, so a call never holds
    # two (R, p) blocks at once
    p = 5003
    s1 = value_table(Y2, field_new(p))
    f0, f1 = np.random.default_rng(2).normal(size=(2, p))
    tracemalloc.start()
    try:
        _shift_dots(f0, f1, s1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * counting.SHIFT_BLOCK * 8 + 64 * p


@pytest.mark.skipif(sys.platform != "linux", reason="minor page faults as Linux counts them")
def test_shift_dots_product_blocks_are_not_faulted_in_again():
    # releasing each (R, p) product block before the next gather freed two
    # blocks at the top of the heap, which glibc returned to the OS, so every
    # block was faulted in again: 85,470 minor faults for this call.  Holding
    # it until the next gather replaces it costs about 260.
    import resource

    p = 5003
    f = field_new(p)
    s1, s2 = value_table(Y, f), value_table(Y2, f)
    f0, f1, f2 = np.random.default_rng(3).normal(size=(3, p))
    block_pages = counting.SHIFT_BLOCK * 8 // resource.getpagesize()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _shift_dots(f0, f1, s1, f2, s2)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 8 * block_pages


# --- averaged forms ----------------------------------------------------------


def test_lambda3_constants():
    f = field_new(7)
    one = GridFunction(f, np.ones(7))
    zero = GridFunction(f, np.zeros(7))
    assert lambda3(one, one, one, Y, Y2, f) == pytest.approx(1.0, abs=1e-12)
    assert lambda3(one, one, zero, Y, Y2, f) == 0.0


def test_lambda3_matches_count_and_brute_force():
    f = field_new(5)
    s = SubsetSpec.from_members(f, [0, 1])
    ind = indicator(s)
    val = lambda3(ind, ind, ind, Y, Y2, f)
    rep = count_progressions(s, s, s, Y, Y2, f)
    assert val == pytest.approx(rep.exact_count / 25, abs=1e-12)
    # independent 25-term double loop
    member = set(s.members)
    brute = sum(
        1
        for x in range(5)
        for y in range(5)
        if x in member and (x + y) % 5 in member and (x + y * y) % 5 in member
    )
    assert rep.exact_count == brute


def test_lambda3_count_identity_random_sweep(standard_pairs):
    for p in (5, 7, 11):
        f = field_new(p)
        for pair in standard_pairs.values():
            if pair.min_char > p:
                continue
            for seed in range(50):
                rng = np.random.default_rng(seed)
                sets = [
                    SubsetSpec.from_members(f, np.flatnonzero(rng.random(p) < 0.5))
                    for _ in range(3)
                ]
                rep = count_progressions(*sets, pair.p1, pair.p2, f)
                lam = lambda3(*(indicator(s) for s in sets), pair.p1, pair.p2, f)
                assert abs(lam * p * p - rep.exact_count) < 1e-6


def test_lambda2_constants_and_linear_shift():
    f = field_new(11)
    one = GridFunction(f, np.ones(11))
    assert lambda2(one, one, Y2, f) == pytest.approx(1.0, abs=1e-12)
    fb = balance(random_subset(f, 0.5, seed=3))
    # P1 = y shifts uniformly, so the mean-zero factor kills the average
    assert abs(lambda2(one, fb, Y, f)) < 1e-12


def test_lambda2_matches_brute_force():
    f = field_new(7)
    f0, f1 = rand_fn(f, 10), rand_fn(f, 11)
    want = sum(
        f0.values[x] * f1.values[(x + y * y) % 7] for x in range(7) for y in range(7)
    ) / 49
    assert lambda2(f0, f1, Y2, f) == pytest.approx(want, rel=1e-12)


def test_lambda2_weil_flavored_bound(standard_pairs):
    f = field_new(31)
    for seed in range(10):
        f0 = rand_fn(f, 100 + seed)
        fb = balance(random_subset(f, 0.4, seed=seed))
        for poly in (Y2, Y3):
            got = abs(lambda2(f0, fb, poly, f))
            cap = poly.degree * l2_norm(f0) * l2_norm(fb) * 31**-0.5
            assert got <= cap + 1e-9


# --- decomposition -----------------------------------------------------------


def test_decomposition_full_c():
    f = field_new(11)
    a = random_subset(f, 0.5, seed=1)
    b = random_subset(f, 0.5, seed=2)
    assert decomposition_residual(a, b, SubsetSpec.full(f), Y, Y2, f) < 1e-10


def test_decomposition_empty_a():
    f = field_new(11)
    b = random_subset(f, 0.5, seed=2)
    c = random_subset(f, 0.5, seed=3)
    assert decomposition_residual(SubsetSpec.empty(f), b, c, Y, Y2, f) == 0.0


def test_decomposition_random_halves(standard_pairs):
    f = field_new(31)
    for pair in standard_pairs.values():
        for seed in range(5):
            a = random_subset(f, 0.5, seed=3 * seed)
            b = random_subset(f, 0.5, seed=3 * seed + 1)
            c = random_subset(f, 0.5, seed=3 * seed + 2)
            assert decomposition_residual(a, b, c, pair.p1, pair.p2, f) < 1e-10


# --- variety-averaged correlation ---------------------------------------------


def test_lambda_prime_constants(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    fibers = fibers_cache(pair, 7)
    f = field_new(7)
    one = GridFunction(f, np.ones(7))
    assert lambda_prime(one, one, fibers) == pytest.approx(1.0, abs=1e-12)


def test_lambda_prime_uniform_fibers_kill_mean_zero(standard_pairs):
    pair = standard_pairs["y,y^2"]
    f = field_new(5)
    uniform = FiberDistribution(f, pair, np.full(5, 5**3, dtype=np.int64))
    f0 = rand_fn(f, 20)
    fb = balance(random_subset(f, 0.6, seed=21))
    assert abs(lambda_prime(f0, fb, uniform)) < 1e-12


def test_lambda_prime_matches_naive_oracle(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    p = 3
    vq = brute_points(pair, p)
    f = field_new(p)
    f0, f1 = rand_fn(f, 30), rand_fn(f, 31)
    direct = sum(
        f0.values[x] * f1.values[(x + q) % p] for q in vq.values() for x in range(p)
    ) / (p * len(vq))
    got = lambda_prime(f0, f1, fibers_cache(pair, p))
    assert got == pytest.approx(direct, rel=1e-12)


def test_lambda_prime_field_mismatch(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    fibers = fibers_cache(pair, 7)
    f11 = field_new(11)
    with pytest.raises(ValueError):
        lambda_prime(GridFunction(f11, np.ones(11)), GridFunction(f11, np.ones(11)), fibers)


# --- the degree-lowering inequality --------------------------------------------


def test_prop22_constant_functions(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    fibers = fibers_cache(pair, 7)
    f = field_new(7)
    one = GridFunction(f, np.ones(7))
    zero = GridFunction(f, np.zeros(7))
    lhs, rhs = prop22_sides(one, one, one, pair, fibers)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(fibers.v_size / 7**4, rel=1e-12)
    assert rhs >= 1.0
    lhs0, rhs0 = prop22_sides(one, one, zero, pair, fibers)
    assert lhs0 == 0.0
    assert rhs0 == 0.0


def test_prop22_inequality_random(standard_pairs, fibers_cache):
    f = field_new(31)
    for pair in standard_pairs.values():
        fibers = fibers_cache(pair, 31)
        for seed in range(8):
            f0 = balance(random_subset(f, 0.5, seed=50 + seed))
            f1 = balance(random_subset(f, 0.45, seed=150 + seed))
            f2 = balance(random_subset(f, 0.55, seed=250 + seed))
            lhs, rhs = prop22_sides(f0, f1, f2, pair, fibers)
            assert lhs <= rhs + 1e-9, (pair.key(), seed)


# --- main bound ratio -----------------------------------------------------------


def test_main_theorem_ratio_finite(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    f = field_new(31)
    f0 = indicator(random_subset(f, 0.5, seed=60))
    f1 = indicator(random_subset(f, 0.5, seed=61))
    f2 = balance(random_subset(f, 0.5, seed=62))
    ratio = main_theorem_ratio(f0, f1, f2, pair, fibers_cache(pair, 31))
    assert np.isfinite(ratio)
    assert ratio >= 0.0


def test_main_theorem_ratio_zero_function(standard_pairs):
    pair = standard_pairs["y,y^2"]
    f = field_new(7)
    zero = GridFunction(f, np.zeros(7))
    f1 = GridFunction(f, np.ones(7))
    f2 = balance(random_subset(f, 0.5, seed=1))
    assert main_theorem_ratio(zero, f1, f2, pair) == 0.0


def test_main_theorem_ratio_requires_mean_zero(standard_pairs):
    pair = standard_pairs["y,y^2"]
    f = field_new(7)
    one = GridFunction(f, np.ones(7))
    with pytest.raises(NotMeanZero):
        main_theorem_ratio(one, one, one, pair)


# --- expander image --------------------------------------------------------------


def test_expander_full_sets():
    f = field_new(13)
    full = SubsetSpec.full(f)
    assert expander_image(full, full, Y2, f) == 13


def test_expander_singletons():
    f = field_new(13)
    z = SubsetSpec.from_members(f, [0])
    assert expander_image(z, z, Y2, f) == 1


def test_expander_degree_gate():
    f = field_new(13)
    full = SubsetSpec.full(f)
    with pytest.raises(DegreeTooSmall):
        expander_image(full, full, Y, f)


# P as a string and as a plain Python function; the last is not monic
EXPANDER_POLYS = (
    ("y^2", lambda d: d * d),
    ("y^3", lambda d: d**3),
    ("2*y^2+y", lambda d: 2 * d * d + d),
)


@pytest.mark.parametrize("poly", EXPANDER_POLYS, ids=lambda t: t[0])
@pytest.mark.parametrize("density", (0.02, 0.1, 0.5, 0.9))
@pytest.mark.parametrize("p", (31,) + WORD_PRIMES)
def test_expander_matches_brute_force(monkeypatch, p, density, poly):
    # sparse sets leave the image short of F_p; R = 1, 5 and 13 shifts per
    # block give an uneven last block, as in the packed count tests
    f = field_new(p)
    text, q = poly
    a = random_subset(f, density, seed=70)
    b = random_subset(f, density, seed=71)
    want = len({(u + q(v - u)) % p for u in a.members for v in b.members})
    assert expander_image(a, b, parse_poly(text), f) == want
    w = -(-p // 64)
    for block in (1, 5, 13):
        monkeypatch.setattr(counting, "COUNT_BLOCK", block * w + w // 2)
        assert expander_image(a, b, parse_poly(text), f) == want, block


def test_expander_empty_input():
    f = field_new(13)
    assert expander_image(SubsetSpec.empty(f), SubsetSpec.full(f), Y2, f) == 0


def _other_field_cases():
    """Each function's guard against inputs from two fields, p = 7 and 11."""
    f7, f11 = field_new(7), field_new(11)
    g7, g11 = GridFunction(f7, np.ones(7)), GridFunction(f11, np.ones(11))
    pair = normalize_pair(Y, Y2)
    fibers11 = SimpleNamespace(field=f11)
    return {
        "lambda3": (lambda: lambda3(g7, g7, g11, Y, Y2, f7), ValueError, "different fields"),
        "lambda2": (lambda: lambda2(g7, g11, Y, f7), ValueError, "different fields"),
        "main_theorem_ratio": (
            lambda: main_theorem_ratio(g7, g7, g7, pair, fibers11), ValueError, "different field"
        ),
        "expander_image": (
            lambda: expander_image(SubsetSpec.full(f7), SubsetSpec.full(f11), Y2, f7),
            ValueError,
            "different field",
        ),
    }


@pytest.mark.parametrize("case", sorted(_other_field_cases()))
def test_guards_refuse_mixed_fields_and_empty_fibers(case):
    call, error, match = _other_field_cases()[case]
    with pytest.raises(error, match=match):
        call()
