"""Graded-lex orders, the leading-monomial claims, and root certificates.

Monomials are fixed-length exponent tuples; the auxiliary system lives in
eight variables y1..y8, and its polynomials (polys.MultiPoly, sums of
univariate parts over the rationals) are compared here under AUX_ORDER.
verify_lm_claims checks that each of the four defining polynomials has a
pure-power leading monomial in its own distinguished variable; over the
rationals that holds in every characteristic above the pair's min_char.

The certificate functions at the bottom evaluate, in complex double
precision, one explicit univariate polynomial at every root of another.
They back the dimension bounds for the auxiliary variety in the two degree
configurations (distinct degrees, equal degrees).  A certificate is its
case, its two degrees, min_modulus (the smallest modulus found) and the
threshold, and it passes iff min_modulus > threshold.  The analytic margins
behind the two cases are checked in tests/test_symbolic.py.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BadDegrees

NVARS = 8

Monomial = tuple  # exponent tuple, one entry per variable


@dataclass(frozen=True)
class VarOrder:
    """A variable precedence (highest first) used to break grlex ties.

    ``precedence`` holds 0-based variable indices and must be a permutation.
    """

    precedence: tuple

    def __post_init__(self) -> None:
        n = len(self.precedence)
        if sorted(self.precedence) != list(range(n)):
            raise ValueError("precedence must be a permutation of 0..n-1")

    @classmethod
    def from_one_based(cls, seq) -> "VarOrder":
        return cls(tuple(i - 1 for i in seq))


# Precedence y8 > y4 > y7 > y3 > y6 > y2 > y5 > y1: under this order each of
# the four defining polynomials of the auxiliary system has a pure-power
# leading monomial in its own distinguished variable.
AUX_ORDER = VarOrder.from_one_based((8, 4, 7, 3, 6, 2, 5, 1))

# Variant with y2 and y5 exchanged, used in the equal-degree analysis.
AUX_ORDER_EQUAL = VarOrder.from_one_based((8, 4, 7, 3, 6, 5, 2, 1))


def grlex_compare(m1: Monomial, m2: Monomial, order: VarOrder) -> int:
    """Graded lexicographic comparison; returns -1, 0 or 1.

    Higher total degree wins; on a tie, the first variable in the precedence
    with differing exponent decides, larger exponent first.
    """
    d1, d2 = sum(m1), sum(m2)
    if d1 != d2:
        return 1 if d1 > d2 else -1
    for v in order.precedence:
        a, b = m1[v], m2[v]
        if a != b:
            return 1 if a > b else -1
    return 0


def pure_power(var: int, k: int, nvars: int = NVARS) -> Monomial:
    """The exponent tuple of y_var^k; ``var`` is 1-based."""
    e = [0] * nvars
    e[var - 1] = k
    return tuple(e)


def verify_lm_claims(aux, pair) -> bool:
    """Check the four leading monomials of the auxiliary system.

    Under AUX_ORDER they must be y4^r1, y8^r1, y6^r2 and y7^r2 for the
    defining polynomials R1, R2, R3, R4 respectively.
    """
    r1, r2 = pair.r1, pair.r2
    expected = [
        (aux.R1, pure_power(4, r1)),
        (aux.R2, pure_power(8, r1)),
        (aux.R3, pure_power(6, r2)),
        (aux.R4, pure_power(7, r2)),
    ]
    return all(g.leading_monomial(AUX_ORDER) == m for g, m in expected)


# ---------------------------------------------------------------------------
# Root separation certificates
# ---------------------------------------------------------------------------

MAX_CERT_DEGREE = 12
DEFAULT_THRESHOLD = 1e-6


def _root_of_unity(n: int, a: float) -> complex:
    """e(a/n) = exp(2*pi*i*a/n)."""
    return cmath.exp(2j * math.pi * a / n)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a no-common-root check for one degree configuration.

    A certificate is what it reports: the case, its two degrees, the
    smallest |H2''| over all roots of H1'' (``min_modulus``) and the
    ``threshold``.  It passes iff min_modulus > threshold, derived on each
    read, so no verdict can disagree with its numbers.
    """

    case_tag: str
    params: tuple
    min_modulus: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.min_modulus > self.threshold


def certify_separation_unequal(
    r1: int, r2: int, threshold: float = DEFAULT_THRESHOLD
) -> Certificate:
    """Distinct-degree case: 1 <= r1 < r2 <= 12.

    With g = gcd(r1, r2), r1' = r1/g, r2' = r2/g, the two polynomials are

        H1''(z) = (z^r1 - 1)^r2'
        H2''(z) = (z^r2 - 1)^r1' - (-1)^r1' * (e(1/r2') - 1)^r2'

    The roots of H1'' are exactly the r1-th roots of unity, each with
    multiplicity r2'.  We evaluate H2'' at each and certify that the
    smallest modulus clears the threshold.
    """
    if not (1 <= r1 < r2 <= MAX_CERT_DEGREE):
        raise BadDegrees(f"need 1 <= r1 < r2 <= {MAX_CERT_DEGREE}: got ({r1}, {r2})")
    g = math.gcd(r1, r2)
    r1p, r2p = r1 // g, r2 // g
    const = (-1) ** r1p * (_root_of_unity(r2p, 1) - 1) ** r2p
    moduli = []
    for a in range(r1):
        omega = _root_of_unity(r1, a)
        moduli.append(abs((omega**r2 - 1) ** r1p - const))
    return Certificate("R1LessR2", (r1, r2), min(moduli), threshold)


def certify_separation_equal(
    r1: int, r3: int, threshold: float = DEFAULT_THRESHOLD
) -> Certificate:
    """Equal-degree case: 1 <= r3 < r1 <= 12.

    Here the two polynomials are

        H1''(z) = z^r1 + 2
        H2''(z) = (2*z^r3 + 1)^r1 - (z^r1 - 1)^r3

    The roots of H1'' are 2^(1/r1) * exp(i*pi*(2a+1)/r1).  At each root
    z^r1 = -2, so the subtrahend is (-3)^r3 exactly; the minuend stays large
    because |2*z^r3 + 1| >= 2^(r3/r1 + 1) - 1 and 2^(x+1) - 1 > 3^x on
    (0, 1).  We evaluate H2'' at each root and certify that the smallest
    modulus clears the threshold; tests/test_symbolic.py checks the
    analytic margins.
    """
    if not (1 <= r3 < r1 <= MAX_CERT_DEGREE):
        raise BadDegrees(f"need 1 <= r3 < r1 <= {MAX_CERT_DEGREE}: got ({r1}, {r3})")
    sub = (-3.0) ** r3
    moduli = []
    for a in range(r1):
        omega = 2 ** (1 / r1) * cmath.exp(1j * math.pi * (2 * a + 1) / r1)
        moduli.append(abs((2 * omega**r3 + 1) ** r1 - sub))
    return Certificate("R1EqualsR2", (r1, r3), min(moduli), threshold)
