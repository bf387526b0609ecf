from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffprog import (
    BadCharacteristic,
    IntPoly,
    NotPrime,
    OutOfRange,
    field_new,
    parse_poly,
    value_table,
)
from ffprog.field import MAX_P, is_prime, pow_mod


def test_field_new_accepts_primes():
    for p in (3, 5, 31, 2**31 - 1):
        assert field_new(p).p == p


def test_field_new_rejects_bad_moduli():
    with pytest.raises(NotPrime):
        field_new(6)
    with pytest.raises(OutOfRange):
        field_new(2)
    with pytest.raises(OutOfRange):
        field_new(1)
    with pytest.raises(OutOfRange):
        field_new(2**31)
    with pytest.raises(NotPrime):
        field_new(2**31 - 2)


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for n in range(2, limit):
        if sieve[n]:
            for m in range(n * n, limit, n):
                sieve[m] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n]


def test_inverse_exhaustive_small_primes():
    for p in (3, 5, 7, 11, 101):
        f = field_new(p)
        for a in range(1, p):
            assert a * f.reduce_fraction(Fraction(1, a)) % p == 1
            assert f.reduce_fraction(Fraction(1, a + p)) == f.reduce_fraction(Fraction(1, a))
        assert f.reduce_fraction(Fraction(-3, 2)) == -3 * pow(2, p - 2, p) % p
        with pytest.raises(BadCharacteristic):
            f.reduce_fraction(Fraction(1, p))


def test_eval_poly_rational_coeff():
    f = field_new(7)
    half_y = parse_poly("1/2*y")
    assert int(value_table(half_y, f)[3]) == 5  # inv(2) = 4, 4*3 = 12 = 5 mod 7


def test_eval_poly_bad_characteristic():
    f = field_new(7)
    with pytest.raises(BadCharacteristic):
        value_table(parse_poly("1/7*y"), f)
    # a bad denominator poisons the whole polynomial, not just the term used
    with pytest.raises(BadCharacteristic):
        value_table(parse_poly("y^2 + 1/14*y"), f)


def test_eval_poly_matches_exact_arithmetic():
    polys = [parse_poly(s) for s in ("y^2", "y^3 - y", "1/2*y^3 - y", "[0,3,1]")]
    for p in (5, 31):
        f = field_new(p)
        for poly in polys:
            table = value_table(poly, f)
            for x in range(p):
                exact = poly.evalq(x)
                assert exact.denominator % p != 0
                want = (
                    exact.numerator * pow(exact.denominator, p - 2, p)
                ) % p
                assert int(table[x]) == want


def test_value_table_is_memoised_and_read_only():
    f = field_new(31)
    poly = parse_poly("y^2 + 3*y")
    table = value_table(poly, f)
    assert value_table(parse_poly("y^2 + 3*y"), field_new(31)) is table
    with pytest.raises(ValueError):
        table[0] = 1
    for p in (37, 41, 43, 47, 53, 59, 61, 67, 71, 73):
        value_table(poly, field_new(p))
        value_table(parse_poly("y^3"), field_new(p))
    assert value_table.cache_info().currsize <= 4


@given(
    st.dictionaries(
        st.integers(0, 20) | st.integers(0, 10**5),
        st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]),
        max_size=5,
    ),
    st.sampled_from([31, 1009]),
)
@settings(max_examples=100, deadline=None)
def test_value_table_matches_python_pow(terms, p):
    poly = IntPoly.from_terms(terms.items())
    f = field_new(p)
    want = [
        sum(f.reduce_fraction(c) * pow(x, k, p) for k, c in poly.terms) % p for x in range(p)
    ]
    assert value_table(poly, f).tolist() == want


@given(
    st.lists(st.integers(0, MAX_P - 2) | st.integers(MAX_P - 4, MAX_P - 2), min_size=1, max_size=40),
    st.integers(0, 64) | st.integers(0, 10**9),
)
@settings(max_examples=200, deadline=None)
def test_pow_mod_matches_python_pow_at_the_largest_prime(xs, k):
    # residues of p = 2^31 - 1 are the largest the int64 products must hold
    p = MAX_P - 1
    assert pow_mod(np.array(xs, dtype=np.int64), k, p).tolist() == [pow(x, k, p) for x in xs]
