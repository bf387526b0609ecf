import cmath

import numpy as np
import pytest
from conftest import brute_points, direct_char_sums, root_table

from ffprog import (
    CharTooSmall,
    DegreeTooSmall,
    FiberDistribution,
    GridFunction,
    SubsetSpec,
    balance,
    char_sums_over_fibers,
    dft,
    field_new,
    indicator,
    inverse_dft,
    lambda_prime,
    lambda_prime_spectral,
    parse_poly,
    random_subset,
    value_table,
    weil_ratio,
)


def test_dft_point_mass():
    f = field_new(11)
    fhat = dft(indicator(SubsetSpec.from_members(f, [0])))
    assert np.allclose(fhat, np.full(11, 1 / 11), atol=1e-12)


def test_dft_constant_function():
    f = field_new(13)
    fhat = dft(GridFunction(f, np.ones(13)))
    assert fhat[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(fhat[1:]) < 1e-12)


def test_dft_zeroth_coefficient_is_mean():
    f = field_new(17)
    rng = np.random.default_rng(7)
    g = GridFunction(f, rng.normal(size=17))
    fhat = dft(g)
    assert abs(fhat[0] - g.mean()) < 1e-12


def test_dft_inversion_roundtrip():
    f = field_new(17)
    rng = np.random.default_rng(1)
    vals = rng.normal(size=17)
    back = inverse_dft(dft(GridFunction(f, vals)))
    assert np.allclose(back.real, vals, atol=1e-9)
    assert np.all(np.abs(back.imag) < 1e-9)


# p = 1009 is prime and above 1000, so numpy's FFT takes Bluestein's path.
ORACLE_PRIMES = (31, 1009)


def close_to_direct(got, want, weights):
    # float64 rounding in either transform grows at most like p * eps * sum|w|
    tol = len(weights) * 1e-15 * np.abs(weights).sum()
    return np.allclose(got, want, rtol=0, atol=tol)


def test_dft_and_inverse_match_direct_sum():
    for p in ORACLE_PRIMES:
        vals = np.random.default_rng(p).normal(size=p)
        fhat = dft(GridFunction(field_new(p), vals))
        assert close_to_direct(fhat, direct_char_sums(vals, -1) / p, vals)
        assert close_to_direct(inverse_dft(fhat), direct_char_sums(fhat, 1), fhat)


def test_weil_ratio_matches_direct_sum():
    for p in ORACLE_PRIMES:
        for text in ("y^2", "y^3+y", "2*y^5"):
            poly = parse_poly(text)
            hist = np.bincount(value_table(poly, field_new(p)), minlength=p)
            best = np.abs(direct_char_sums(hist.astype(np.float64))[1:]).max() / p
            want = best / (poly.degree / p**0.5)
            assert weil_ratio(poly, field_new(p)) == pytest.approx(want, rel=1e-12)


def test_charsum_matches_direct_sum(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    p = ORACLE_PRIMES[1]
    rng = np.random.default_rng(3)
    big = FiberDistribution(field_new(p), pair, p**3 + rng.integers(0, p**3, size=p))
    for fibers in (fibers_cache(pair, 31), fibers_cache(standard_pairs["y^2,y^3"], 13), big):
        c = fibers.c.astype(np.float64)
        want = direct_char_sums(c) / fibers.v_size
        cs = char_sums_over_fibers(fibers)
        assert cs[0] == 1.0
        assert close_to_direct(cs[1:], want[1:], c / fibers.v_size)


def test_parseval():
    for p, seed in ((17, 0), (31, 1), (101, 2)):
        f = field_new(p)
        rng = np.random.default_rng(seed)
        g = GridFunction(f, rng.normal(size=p))
        fhat = dft(g)
        lhs = float(np.sum(np.abs(fhat) ** 2))
        rhs = float(np.mean(g.values**2))
        assert lhs == pytest.approx(rhs, rel=1e-9)


# --- weil ratio --------------------------------------------------------------


def test_weil_linear_vanishes():
    assert weil_ratio(parse_poly("y"), field_new(13)) < 1e-12


def test_weil_ratio_is_python_float():
    # a numpy scalar's repr leaks into the verify report as np.float64(...)
    for text in ("y", "y^2", "y^3+y"):
        assert type(weil_ratio(parse_poly(text), field_new(13))) is float


def test_weil_square_mod_7_is_half():
    # independent oracle: direct 7-term sums per character
    p = 7
    best = 0.0
    for t in range(1, p):
        s = sum(cmath.exp(2j * cmath.pi * t * (y * y % p) / p) for y in range(p))
        best = max(best, abs(s) / p)
    assert best == pytest.approx(p**-0.5, rel=1e-12)
    ratio = weil_ratio(parse_poly("y^2"), field_new(p))
    assert ratio == pytest.approx(0.5, abs=1e-12)
    assert ratio == pytest.approx(best / (2 / p**0.5), rel=1e-12)


def test_weil_cube_mod_7_within_bound():
    p = 7
    best = 0.0
    for t in range(1, p):
        s = sum(cmath.exp(2j * cmath.pi * t * (y**3 % p) / p) for y in range(p))
        best = max(best, abs(s) / p)
    ratio = weil_ratio(parse_poly("y^3"), field_new(p))
    assert ratio == pytest.approx(best / (3 / p**0.5), rel=1e-12)
    assert ratio <= 1.0 + 1e-9


def test_weil_bound_sweep():
    polys = [parse_poly(s) for s in ("y", "y^2", "y^3", "y^3+y", "2*y^2+y", "y^4")]
    primes = [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]
    for p in primes:
        f = field_new(p)
        for poly in polys:
            if poly.degree >= p:
                continue
            assert weil_ratio(poly, f) <= 1.0 + 1e-9, (str(poly), p)


def test_weil_gates():
    with pytest.raises(DegreeTooSmall):
        weil_ratio(parse_poly("5"), field_new(7))
    with pytest.raises(CharTooSmall):
        weil_ratio(parse_poly("y^3"), field_new(3))


# --- character sums over fibers ----------------------------------------------


def test_charsum_trivial_entry_is_exact_one(standard_pairs, fibers_cache):
    cs = char_sums_over_fibers(fibers_cache(standard_pairs["y,y^2"], 7))
    assert cs[0] == 1.0


def test_charsum_uniform_histogram_vanishes(standard_pairs):
    pair = standard_pairs["y,y^2"]
    f = field_new(5)
    uniform = FiberDistribution(f, pair, np.full(5, 5**3, dtype=np.int64))
    cs = char_sums_over_fibers(uniform)
    assert np.all(np.abs(cs[1:]) < 1e-12)


def test_charsum_matches_brute_force_p3(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    vq = brute_points(pair, 3)
    p = 3
    cs = char_sums_over_fibers(fibers_cache(pair, p))
    for t in range(p):
        direct = sum(cmath.exp(2j * cmath.pi * t * a / p) for a in vq.values())
        direct /= len(vq)
        assert cs[t] == pytest.approx(direct, abs=1e-12)


# --- spectral identity ---------------------------------------------------------


def test_spectral_constant_one(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    f = field_new(7)
    fibers = fibers_cache(pair, 7)
    assert lambda_prime_spectral(GridFunction(f, np.ones(7)), fibers) == pytest.approx(
        1.0, abs=1e-12
    )
    assert lambda_prime_spectral(GridFunction(f, np.zeros(7)), fibers) == 0.0


def test_spectral_matches_direct(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    f = field_new(31)
    fibers = fibers_cache(pair, 31)
    f2 = balance(random_subset(f, 0.5, seed=42))
    spectral = lambda_prime_spectral(f2, fibers)
    direct = lambda_prime(f2, f2, fibers)
    assert spectral == pytest.approx(direct, rel=1e-8)


def test_spectral_sum_is_real(standard_pairs, fibers_cache):
    pair = standard_pairs["y^2,y^3"]
    f = field_new(13)
    fibers = fibers_cache(pair, 13)
    f2 = balance(random_subset(f, 0.4, seed=5))
    fhat = dft(f2)
    cs = char_sums_over_fibers(fibers)
    total = np.dot(np.abs(fhat) ** 2, cs)
    assert abs(total.imag) < 1e-9
    assert lambda_prime_spectral(f2, fibers) == pytest.approx(total.real, abs=1e-15)


def test_spectral_field_mismatch_rejected(standard_pairs, fibers_cache):
    pair = standard_pairs["y,y^2"]
    fibers = fibers_cache(pair, 7)
    with pytest.raises(ValueError):
        lambda_prime_spectral(GridFunction(field_new(11), np.ones(11)), fibers)


def test_root_table_is_unit_circle():
    r = root_table(12)
    assert np.allclose(np.abs(r), 1.0, atol=1e-12)
    assert r[0] == 1.0 + 0j
