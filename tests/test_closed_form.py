"""The closed form of degree-(1, 2) fiber histograms against the enumerators,
and the case values of its proof against a direct count."""

import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffprog.cli import EXIT_CONFIG, EXIT_OK, main
from ffprog.errors import WorkBudgetExceeded
from ffprog.field import field_new, is_prime
from ffprog.polys import IntPoly, normalize_pair, parse_pair
from ffprog.variety import (
    ENUMERATORS,
    closed_fibers,
    enumerate_fibers,
    enumerate_fibers_naive,
    enumerate_fibers_reference,
    fiber_builder,
)

# Every pair here normalizes to degrees (1, 2): y^2,y is swapped, and
# y^2+y,y^2 is replaced by (y, -y^2).
DEGREE_1_2 = ("y,y^2", "2*y,y^2", "y,y^2+y", "y^2,y", "y^2+y,y^2")
# Pairs that still enumerate by default; 2*y^2,y^2+y reads like a quadratic
# pair but normalizes to degrees (2, 2).
ENUMERATED = ("2*y^2,y^2+y", "y,y^3", "y^2,y^3")
PRIMES_TO_139 = [p for p in range(3, 140) if is_prime(p)]


def pair_of(text):
    return normalize_pair(*parse_pair(text))


def closed_c(p):
    c = [p**3 - p - 1] * p
    c[0] = 4 * p**3 - 4 * p**2 + 2 * p - 1
    return c


@pytest.mark.parametrize("text", DEGREE_1_2)
def test_closed_form_equals_fast_at_every_prime_to_139(text):
    pair = pair_of(text)
    assert (pair.r1, pair.r2) == (1, 2)
    assert fiber_builder(pair) == ("closed", closed_fibers)
    for p in PRIMES_TO_139:
        if p < pair.min_char:
            continue
        f = field_new(p)
        dist = closed_fibers(pair, f)
        assert dist.c.tolist() == closed_c(p)
        assert dist.v_size == p**4 + 3 * p**3 - 5 * p**2 + 2 * p
        assert dist.to_json_dict() == enumerate_fibers(pair, f).to_json_dict(), p


@pytest.mark.parametrize("text", DEGREE_1_2)
def test_closed_form_equals_loop_and_naive8(text):
    pair = pair_of(text)
    for p in (3, 5, 7, 11, 13):
        if p < pair.min_char:
            continue
        f = field_new(p)
        want = closed_fibers(pair, f).to_json_dict()
        assert enumerate_fibers_reference(pair, f).to_json_dict() == want, p
        if p == 5:
            assert enumerate_fibers_naive(pair, f).to_json_dict() == want


# |numerators| <= 5 and denominators <= 5 keep min_char, which also counts
# the coefficients of P2' = P2 - P1, at most 42, so a prime <= 61 admits every pair
units = st.integers(-5, 5).filter(bool)
rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5))


@given(
    a=units | rationals.filter(bool),
    b=units | rationals.filter(bool),
    c=rationals,
    swap=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_closed_form_equals_fast_on_random_pairs(a, b, c, swap, data):
    polys = [IntPoly.from_terms([(1, a)]), IntPoly.from_terms([(2, b), (1, c)])]
    pair = normalize_pair(*(polys[::-1] if swap else polys))
    assert fiber_builder(pair)[0] == "closed"
    p = data.draw(st.sampled_from([q for q in PRIMES_TO_139 if pair.min_char <= q <= 61]))
    f = field_new(p)
    assert closed_fibers(pair, f).to_json_dict() == enumerate_fibers(pair, f).to_json_dict()


@pytest.mark.slow
def test_closed_form_equals_fast_at_401():
    pair, f = pair_of("y,y^2"), field_new(401)
    fast = enumerate_fibers(pair, f, budget=10**11)
    assert closed_fibers(pair, f).to_json_dict() == fast.to_json_dict()


# --- the proof's case values ----------------------------------------------------


def case_value(lam, mu, nu, p):
    """S(lambda, mu, nu) as closed_fibers' docstring gives it, case by case."""
    if mu == 0:
        return p**6 if lam == nu == 0 else p**4
    if (lam + nu) % p == 0:
        return p**4
    return 0 if (nu - lam - mu) % p == 0 else p**3


def direct_histogram(p, a, b, c):
    """H[r3, r4, q]: how many (y1, y3, y5, y7, s, s') give R3 = r3, R4 = r4
    and Q = q, with y2, y4, y6, y8 = y1 + s, y3 + s, y5 + s', y7 + s' and
    P1 = a y, P2 = b y^2 + c y, P2' = P2 - P1 evaluated directly."""
    y1, y3, y5, y7, s, t = np.indices((p,) * 6).reshape(6, -1)
    y2, y4, y6, y8 = y1 + s, y3 + s, y5 + t, y7 + t
    for ya, yb, yc, yd in ((y4, y3, y2, y1), (y8, y7, y6, y5)):  # R1, R2
        assert not (a * (ya - yb - yc + yd) % p).any()

    def P2(y):
        return b * y * y + c * y

    def P2p(y):
        return P2(y) - a * y

    r3 = (P2(y6) - P2(y5) - P2(y2) + P2(y1)) % p
    r4 = (P2p(y7) - P2p(y5) - P2p(y3) + P2p(y1)) % p
    q = (P2(y8) - P2(y7) - P2(y4) + P2(y3)) % p
    return np.bincount((r3 * p + r4) * p + q, minlength=p**3).reshape(p, p, p)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("a, b, c", [(1, 1, 0), (2, 3, 1), (3, 2, 3), (4, 3, -1), (1, 2, 1)])
def test_case_values_sum_to_the_direct_count(p, a, b, c):
    # (3, 2, 3) and (1, 2, 1) have P2' = b y^2.  b is a square mod p or not:
    # 1 and 4 are the squares mod 5, and 1, 2 and 4 those mod 7
    hist = direct_histogram(p, a, b, c)
    cases = np.array(
        [[[case_value(lam, mu, nu, p) for nu in range(p)] for mu in range(p)] for lam in range(p)]
    )
    # each case value is the character sum S(lambda, mu, nu) of the direct count
    direct = p**3 * np.fft.ifftn(hist)
    assert np.abs(direct - cases).max() < 1e-6
    # and the cases, summed as in the docstring, give the direct count itself
    summed = cases.sum(axis=(0, 1)) @ np.exp(-2j * np.pi * np.outer(np.arange(p), np.arange(p)) / p)
    c_from_cases = summed / p**3
    assert np.abs(c_from_cases - np.rint(c_from_cases.real)).max() < 1e-6
    assert np.rint(c_from_cases.real).astype(int).tolist() == hist[0, 0].tolist() == closed_c(p)


# --- selection, gates and the command line ------------------------------------


@pytest.mark.parametrize("text", ENUMERATED)
def test_other_pairs_keep_the_fast_enumerator(text):
    pair = pair_of(text)
    assert fiber_builder(pair) == ("fast", ENUMERATORS["fast"])
    with pytest.raises(ValueError, match="degrees"):
        closed_fibers(pair, field_new(31))


def test_a_named_oracle_always_enumerates():
    pair = pair_of("y,y^2")
    for name in ENUMERATORS:
        assert fiber_builder(pair, name) == (name, ENUMERATORS[name])
    assert "closed" not in ENUMERATORS


def test_closed_form_gates():
    pair = pair_of("y,y^2")
    with pytest.raises(WorkBudgetExceeded, match="estimated 101 steps for p = 101"):
        closed_fibers(pair, field_new(101), budget=100)
    # the int64 gate on the |V| bound 4 p^4: 38959 is the last prime below it
    p = 38959
    assert closed_fibers(pair, field_new(p), budget=p).v_size == p**4 + 3 * p**3 - 5 * p**2 + 2 * p
    with pytest.raises(WorkBudgetExceeded, match="past int64"):
        closed_fibers(pair, field_new(38971))


def test_oracle_closed_is_not_a_flag_value(tmp_path, capsys):
    argv = ["variety", "--pair", "y,y^2", "--primes", "7", "--oracle", "closed"]
    assert main([*argv, "--cache-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "invalid choice: 'closed'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def read_files(cache):
    return {name: (cache / name).read_bytes() for name in sorted(os.listdir(cache))}


@pytest.mark.parametrize("text", DEGREE_1_2 + ENUMERATED)
def test_reports_and_fiber_files_match_the_fast_enumerator(text, tmp_path, capsys):
    # variety by default against --oracle fast, each from its own cache, then
    # charsum on a cold cache against charsum on the fast enumerator's files
    def run(*argv):
        assert main([*argv, "--pair", text, "--primes", "7..41"]) == EXIT_OK
        return capsys.readouterr().out

    closed, fast = tmp_path / "closed", tmp_path / "fast"
    assert run("variety", "--cache-dir", str(closed)) == run(
        "variety", "--oracle", "fast", "--cache-dir", str(fast)
    )
    assert read_files(closed) == read_files(fast)
    cold = tmp_path / "cold"
    assert run("charsum", "--cache-dir", str(cold)) == run("charsum", "--cache-dir", str(fast))
    assert read_files(cold) == read_files(fast)
