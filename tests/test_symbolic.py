import cmath
import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffprog import (
    AUX_ORDER,
    AUX_ORDER_EQUAL,
    BadDegrees,
    IntPoly,
    MultiPoly,
    VarOrder,
    ZeroPolynomial,
    build_aux_system,
    certify_separation_equal,
    certify_separation_unequal,
    grlex_compare,
    normalize_pair,
    parse_pair,
    verify_lm_claims,
)


def e(var, k, n=8):
    m = [0] * n
    m[var - 1] = k
    return tuple(m)


def test_var_order_validation():
    with pytest.raises(ValueError):
        VarOrder((0, 0, 1))
    assert VarOrder.from_one_based((8, 4, 7, 3, 6, 2, 5, 1)) == AUX_ORDER


def test_grlex_degree_dominates():
    order = VarOrder.from_one_based((1, 2, 3))
    m1 = (0, 0, 3)
    m2 = (2, 0, 0)
    assert grlex_compare(m1, m2, order) == 1
    assert grlex_compare(m2, m1, order) == -1
    assert grlex_compare(m1, m1, order) == 0


def test_grlex_tiebreak_by_precedence():
    # with y1 > y2 > y3: y1^2*y2*y3 > y1^2*y3^2 (same degree 4)
    order = VarOrder.from_one_based((1, 2, 3))
    m1 = (2, 1, 1)
    m2 = (2, 0, 2)
    assert grlex_compare(m1, m2, order) == 1
    # reversing the precedence reverses the verdict
    rev = VarOrder.from_one_based((3, 2, 1))
    assert grlex_compare(m1, m2, rev) == -1


def test_multipoly_ring_ops():
    x = MultiPoly.univariate([0, 1], 1, nvars=2)
    y = MultiPoly.univariate([0, 1], 2, nvars=2)
    assert (x + y) + (x - y) == x.scale(2)
    assert (x - x).is_zero
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_multipoly_univariate_eval_matches(coeffs, var):
    poly = MultiPoly.univariate(coeffs, var, nvars=3)
    point = (Fraction(2), Fraction(-1), Fraction(3))
    want = sum(Fraction(c) * point[var - 1] ** k for k, c in enumerate(coeffs))
    assert poly.evaluate(point) == want


def test_equal_polynomials_have_equal_parts_and_terms():
    # both sides are 1 + y1 + 2*y2, with the constant written in y1's part
    # on one side and in y2's on the other
    a = MultiPoly.univariate([1, 1], 1) + MultiPoly.univariate([0, 2], 2)
    b = MultiPoly.univariate([0, 1], 1) + MultiPoly.univariate([1, 2], 2)
    assert a == b and hash(a) == hash(b)
    assert a.terms == b.terms == {
        e(1, 0): Fraction(1),
        e(1, 1): Fraction(1),
        e(2, 1): Fraction(2),
    }
    assert (a - b).is_zero


def test_leading_monomial_zero_raises():
    with pytest.raises(ZeroPolynomial):
        MultiPoly.zero().leading_monomial(AUX_ORDER)


def test_lm_claims_standard_pairs(standard_pairs):
    for pair in standard_pairs.values():
        aux = build_aux_system(pair)
        assert verify_lm_claims(aux, pair)
        assert aux.R1.leading_monomial(AUX_ORDER) == e(4, pair.r1)
        assert aux.R2.leading_monomial(AUX_ORDER) == e(8, pair.r1)
        assert aux.R3.leading_monomial(AUX_ORDER) == e(6, pair.r2)
        assert aux.R4.leading_monomial(AUX_ORDER) == e(7, pair.r2)


def test_q_leading_monomial_linear_quadratic(standard_pairs):
    aux = build_aux_system(standard_pairs["y,y^2"])
    assert aux.Q.leading_monomial(AUX_ORDER) == e(8, 2)


def test_lm_claims_generated_family():
    # distinct degrees: pure powers and dense lower parts
    for r1 in range(1, 13):
        for r2 in range(r1, 13):
            candidates = []
            if r1 < r2:
                candidates.append((IntPoly.monomial(r1), IntPoly.monomial(r2)))
                candidates.append(
                    (
                        IntPoly.from_coeffs([0] + [1] * r1),
                        IntPoly.from_coeffs([0] + [2] * r2),
                    )
                )
            else:
                for r3 in range(1, r1):
                    candidates.append(
                        (
                            IntPoly.monomial(r1, 2),
                            IntPoly.monomial(r1, 1) + IntPoly.monomial(r3, 1),
                        )
                    )
            for p1, p2 in candidates:
                pair = normalize_pair(p1, p2)
                aux = build_aux_system(pair)
                assert verify_lm_claims(aux, pair), (str(p1), str(p2))


def test_aux_order_equal_differs_only_in_middle():
    assert AUX_ORDER.precedence[:4] == AUX_ORDER_EQUAL.precedence[:4]
    assert set(AUX_ORDER.precedence) == set(AUX_ORDER_EQUAL.precedence)
    assert AUX_ORDER.precedence != AUX_ORDER_EQUAL.precedence


# --- certificates ---------------------------------------------------------
#
# A certificate holds only its numbers.  The analytic margins behind each
# case are recomputed here from the certificate docstrings' formulas, as an
# oracle that shares no code with ffprog.symbolic.


def unit(n, a):
    """e(a/n) = exp(2*pi*i*a/n)."""
    return cmath.exp(2j * math.pi * a / n)


def unequal_roots(r1, r2):
    """For each root e(a/r1) of H1'', with g = gcd(r1, r2), r1' = r1/g and
    r2' = r2/g: whether e(a*r2'/r1') != 1, whether the ordering
    |e(1/r2') - 1|^r2' < |e(a*r2'/r1') - 1|^r1' holds there, and |H2''|."""
    g = math.gcd(r1, r2)
    r1p, r2p = r1 // g, r2 // g
    const = (-1) ** r1p * (unit(r2p, 1) - 1) ** r2p
    small = abs(unit(r2p, 1) - 1) ** r2p
    rows = []
    for a in range(r1):
        w = unit(r1p, a * r2p)
        h2 = abs((unit(r1, a) ** r2 - 1) ** r1p - const)
        rows.append((abs(w - 1) > 1e-9, small < abs(w - 1) ** r1p, h2))
    return rows


def equal_margins_hold(r1, r3):
    """2^(x+1) - 3^x - 1 > 1e-6 for x = r3/r1, and at every root z of
    z^r1 + 2 the minuend |2z^r3 + 1|^r1 stays above (2^(x+1) - 1)^r1."""
    x = r3 / r1
    lower = (2 ** (x + 1) - 1) ** r1
    roots = [2 ** (1 / r1) * cmath.exp(1j * math.pi * (2 * a + 1) / r1) for a in range(r1)]
    minuends_ok = all(abs((2 * z**r3 + 1) ** r1) >= lower - 1e-9 for z in roots)
    return 2 ** (x + 1) - 3**x - 1 > 1e-6 and minuends_ok


def test_certificate_unequal_1_2_hand_value():
    cert = certify_separation_unequal(1, 2)
    # single root z = 1, H2''(1) = 1^2 - 1 + (e(1/2) - 1)^2 = 0 + 4
    assert cert.passed
    assert cert.min_modulus == pytest.approx(4.0, abs=1e-12)
    assert cert.params == (1, 2)
    assert cert.case_tag == "R1LessR2"


def test_certificate_equal_2_1_hand_value():
    cert = certify_separation_equal(2, 1)
    # roots +/- i*sqrt(2); H2'' = 3z^2 + 4z + 2 there has modulus sqrt(48)
    assert cert.passed
    assert cert.min_modulus == pytest.approx(math.sqrt(48.0), rel=1e-12)
    assert cert.case_tag == "R1EqualsR2"
    assert equal_margins_hold(2, 1)


def test_certificates_sweep_to_12():
    for r1 in range(1, 13):
        for r2 in range(r1 + 1, 13):
            cert = certify_separation_unequal(r1, r2)
            assert cert.passed, (r1, r2, cert.min_modulus)
            rows = unequal_roots(r1, r2)
            assert cert.min_modulus == pytest.approx(min(h2 for *_, h2 in rows), rel=1e-12)
            g = math.gcd(r1, r2)
            if (r1 // g, r2 // g) != (2, 3):
                assert all(holds for applies, holds, _ in rows if applies), (r1, r2)
    for r1 in range(2, 13):
        for r3 in range(1, r1):
            cert = certify_separation_equal(r1, r3)
            assert cert.passed, (r1, r3, cert.min_modulus)
            assert equal_margins_hold(r1, r3), (r1, r3)


def test_certificate_2_3_ordering_caveat():
    # The modulus ordering is not what keeps (2,3) away from zero: at the
    # nontrivial square root of unity the constant term has the LARGER
    # modulus (3*sqrt(3) > 4) and the separation comes from the arguments
    # instead (the value there is 4 - 3*sqrt(3)*i).  The certificate still
    # passes with minimum modulus 3*sqrt(3), attained at z = 1.
    cert = certify_separation_unequal(2, 3)
    assert cert.passed
    assert cert.min_modulus == pytest.approx(3 * math.sqrt(3.0), rel=1e-12)
    nontrivial = [(holds, h2) for applies, holds, h2 in unequal_roots(2, 3) if applies]
    assert len(nontrivial) == 1
    holds, h2 = nontrivial[0]
    assert not holds
    assert h2 == pytest.approx(math.sqrt(43.0), rel=1e-12)


def test_certificates_reject_bad_degrees():
    for args in ((2, 2), (3, 2), (0, 5), (1, 13)):
        with pytest.raises(BadDegrees):
            certify_separation_unequal(*args)
    for args in ((2, 2), (1, 1), (13, 1), (3, 0)):
        with pytest.raises(BadDegrees):
            certify_separation_equal(*args)


def test_certificate_holds_what_it_reports():
    cert = certify_separation_unequal(2, 3)
    names = [f.name for f in dataclasses.fields(cert)]
    assert names == ["case_tag", "params", "min_modulus", "threshold"]
    with pytest.raises(TypeError):
        dataclasses.replace(cert, passed=False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.min_modulus = 0.0
    assert dataclasses.replace(cert, threshold=cert.min_modulus).passed is False
