"""Univariate integer/rational polynomials and progression-pair normalization.

A progression pair (P1, P2) is admissible when both polynomials are nonzero,
both have zero constant term, and they are linearly independent over the
rationals.  normalize_pair rewrites an admissible pair into the canonical
form the analysis modules expect:

  * deg P1 <= deg P2 (swapping if needed, and recording the swap because it
    exchanges the roles of the second and third sets);
  * if the degrees agree, the leading coefficients differ (replacing
    (P1, P2) by (P1 - P2, -P2) when they coincide, which strictly lowers
    deg P1).

The normalized pair holds (P1, P2, swapped, replaced) and nothing else.
Everything else is derived from P1 and P2: the degrees r1 and r2,
P2' = P2 - P1 and, in the equal-degree case, the remainder
P3 = P2 - (b/a) * P1, a and b the leading coefficients of P1 and P2, whose
degree r3 satisfies 0 < r3 < r1.  min_char is the smallest characteristic
in which every reduction below is faithful: 1 + the max of r2 and every
coefficient numerator and denominator magnitude in P1, P2, P2', P3 (the
leading coefficients among them).

The eight-variable auxiliary system is held as MultiPoly values: each of its
polynomials is a sum of univariate parts, sum over v of P_v(y_v), so the
algebra it needs is IntPoly's, part by part.

Parsing caps the degree at MAX_DEGREE, from the exponent's text and from a
dense list's length, before either is read.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .errors import CharTooSmall, Inadmissible, ZeroPolynomial
from .symbolic import NVARS, VarOrder, grlex_compare, pure_power

# Largest degree parse_poly accepts, like cli.MAX_PRIME_RANGE a fail-fast
# cap.  A term costs the same at any degree, but the dense "[...]" form
# holds one entry per degree, and a pair is usable only at p > its degree
# (min_char), where every value table holds p int64 entries.  It is checked
# on the exponent's text, since int() refuses a string over 4300 digits with
# a message that does not name the term, and on a list's length.
MAX_DEGREE = 10**5


class Diagnosis(enum.Enum):
    ZERO_POLYNOMIAL = "ZeroPolynomial"
    ZERO_CONSTANT_VIOLATED = "ZeroConstantViolated"
    LINEARLY_DEPENDENT = "LinearlyDependent"


@dataclass(frozen=True)
class IntPoly:
    """A univariate polynomial with exact rational coefficients.

    ``terms`` holds the nonzero terms as (k, c) pairs, c the Fraction
    coefficient of y^k, in increasing k; the zero polynomial has an empty
    tuple.  Each term costs the same at any degree, so a sparse pair such as
    (y, y^99999) is two terms, not 100000 coefficients.
    """

    terms: tuple

    @classmethod
    def from_terms(cls, pairs) -> "IntPoly":
        """Sum (k, c) pairs in any order and drop the zero sums."""
        sums: dict[int, Fraction] = {}
        for k, c in pairs:
            sums[k] = sums.get(k, 0) + Fraction(c)
        return cls(tuple((k, sums[k]) for k in sorted(sums) if sums[k]))

    @classmethod
    def from_coeffs(cls, seq) -> "IntPoly":
        """The polynomial whose coefficient of y^k is ``seq[k]``."""
        return cls.from_terms(enumerate(seq))

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def monomial(cls, k: int, c=1) -> "IntPoly":
        return cls.from_terms([(k, c)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Degree, with -inf as the zero-polynomial sentinel."""
        return self.terms[-1][0] if self.terms else float("-inf")

    @property
    def constant_term(self) -> Fraction:
        return self.terms[0][1] if self.terms and self.terms[0][0] == 0 else Fraction(0)

    @property
    def leading_coeff(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[-1][1]

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly.from_terms(self.terms + other.terms)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple((k, -c) for k, c in self.terms))

    def scale(self, c) -> "IntPoly":
        c = Fraction(c)
        if c == 0:
            return IntPoly.zero()
        return IntPoly(tuple((k, v * c) for k, v in self.terms))

    def evalq(self, x) -> Fraction:
        """Exact evaluation over the rationals."""
        x = Fraction(x)
        return sum((c * x**k for k, c in self.terms), Fraction(0))

    def __str__(self) -> str:
        out = []
        for k, c in reversed(self.terms):
            mag = abs(c)
            if k == 0:
                body = f"{mag}"
            else:
                y = "y" if k == 1 else f"y^{k}"
                body = y if mag == 1 else f"{mag}*{y}"
            if out:
                out.append(f" {'-' if c < 0 else '+'} {body}")
            else:
                out.append(f"-{body}" if c < 0 else body)
        return "".join(out) or "0"


@dataclass(frozen=True)
class MultiPoly:
    """A sum of univariate parts: the sum over v of parts[v](y_{v+1}).

    Every polynomial of the auxiliary system has this shape, and sums,
    differences and scalar multiples keep it, so the algebra is IntPoly's,
    part by part.  The constant term lives in ``parts[0]``; __post_init__
    moves any other part's constant there, so equal polynomials have equal
    parts (and equal hashes).
    """

    parts: tuple

    def __post_init__(self) -> None:
        head, *rest = self.parts
        if any(q.constant_term for q in rest):
            head += IntPoly.monomial(0, sum(q.constant_term for q in rest))
            rest = [IntPoly(tuple((k, c) for k, c in q.terms if k)) for q in rest]
        object.__setattr__(self, "parts", (head, *rest))

    @classmethod
    def zero(cls, nvars: int = NVARS) -> "MultiPoly":
        return cls((IntPoly.zero(),) * nvars)

    @classmethod
    def univariate(cls, coeffs, var: int, nvars: int = NVARS) -> "MultiPoly":
        """P(y_var) for a coefficient sequence (index = degree); ``var`` is
        1-based to match the y1..y8 naming."""
        if not 1 <= var <= nvars:
            raise ValueError(f"variable index {var} out of range")
        parts = [IntPoly.zero()] * nvars
        parts[var - 1] = IntPoly.from_coeffs(coeffs)
        return cls(tuple(parts))

    @property
    def nvars(self) -> int:
        return len(self.parts)

    @property
    def is_zero(self) -> bool:
        return all(q.is_zero for q in self.parts)

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient} over the nonzero terms."""
        return {
            pure_power(v + 1, k, self.nvars): c
            for v, q in enumerate(self.parts)
            for k, c in q.terms
        }

    def total_degree(self) -> int:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(q.degree for q in self.parts)

    def _zip(self, other: "MultiPoly", op) -> "MultiPoly":
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch")
        return MultiPoly(tuple(op(a, b) for a, b in zip(self.parts, other.parts)))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._zip(other, IntPoly.__add__)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._zip(other, IntPoly.__sub__)

    def scale(self, c) -> "MultiPoly":
        return MultiPoly(tuple(q.scale(c) for q in self.parts))

    def leading_monomial(self, order: VarOrder) -> tuple:
        """Largest monomial under the graded-lex order: the largest of the
        parts' top pure powers, since each part's top beats its lower terms."""
        tops = [
            pure_power(v + 1, q.degree, self.nvars)
            for v, q in enumerate(self.parts)
            if not q.is_zero
        ]
        if not tops:
            raise ZeroPolynomial("zero polynomial has no leading monomial")
        return max(tops, key=cmp_to_key(lambda a, b: grlex_compare(a, b, order)))

    def evaluate(self, point) -> Fraction:
        """Exact evaluation at a tuple of rationals."""
        return sum((q.evalq(x) for q, x in zip(self.parts, point)), Fraction(0))


_TERM_RE = re.compile(
    r"^([+-]?)(\d+(?:/\d+)?)?(?:\*?(y)(?:\^(\d+))?)?$"
)


def _fraction(text: str, term: str) -> Fraction:
    """A coefficient; a zero denominator is a ValueError that quotes the term."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in term {term!r}") from None


def _check_degree(degree_text: str, term: str) -> int:
    """The exponent of a term, refused above MAX_DEGREE before int() reads it."""
    digits = degree_text.lstrip("0") or "0"
    if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
        raise ValueError(f"degree of term {term!r} exceeds the cap of {MAX_DEGREE}")
    return int(digits)


def parse_poly(text: str) -> IntPoly:
    """Parse either sparse text ("y^2 + 3*y", "1/2*y^3 - y") or a dense
    coefficient list ("[0,3,1]" meaning 3y + y^2)."""
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated coefficient list: {text!r}")
        inner = s[1:-1].strip()
        if not inner:
            return IntPoly.zero()
        tokens = inner.split(",")
        if len(tokens) - 1 > MAX_DEGREE:
            raise ValueError(
                f"coefficient list of {len(tokens)} entries exceeds the degree cap of {MAX_DEGREE}"
            )
        return IntPoly.from_coeffs(_fraction(tok, tok.strip()) for tok in tokens)

    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"cannot parse polynomial: {text!r}")
    pairs = []
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = _fraction(m.group(2), term) if m.group(2) else Fraction(1)
        if m.group(3) is None:
            k = 0
        elif m.group(4) is not None:
            k = _check_degree(m.group(4), term)
        else:
            k = 1
        pairs.append((k, sign * coeff))
    return IntPoly.from_terms(pairs)


def parse_pair(text: str) -> tuple[IntPoly, IntPoly]:
    """Split a pair spec on its top-level comma (bracket-aware) and parse."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            return parse_poly(text[:i]), parse_poly(text[i + 1 :])
    raise ValueError(f"pair spec needs a top-level comma: {text!r}")


def check_admissible(p1: IntPoly, p2: IntPoly):
    """Return (ok, diagnosis); diagnosis is None when the pair is usable."""
    if p1.is_zero or p2.is_zero:
        return False, Diagnosis.ZERO_POLYNOMIAL
    if p1.constant_term != 0 or p2.constant_term != 0:
        return False, Diagnosis.ZERO_CONSTANT_VIOLATED
    # Two nonzero rows are dependent iff every column is a multiple of the
    # first nonzero column (u_k, v_k), so one pass over the minors at k
    # decides; a column outside both polynomials' exponents is (0, 0).
    u, v = dict(p1.terms), dict(p2.terms)
    k, *rest = sorted(u.keys() | v.keys())
    uk, vk = u.get(k, 0), v.get(k, 0)
    if any(uk * v.get(j, 0) != u.get(j, 0) * vk for j in rest):
        return True, None
    return False, Diagnosis.LINEARLY_DEPENDENT


@dataclass(frozen=True)
class NormalizedPair:
    """An admissible pair in canonical form: the canonical P1 and P2, and
    whether normalize_pair swapped or replaced them.  The degrees, P2', P3
    and min_char are functions of P1 and P2, so they are derived here, never
    stored beside them."""

    p1: IntPoly
    p2: IntPoly
    swapped: bool
    replaced: bool

    @property
    def r1(self) -> int:
        return self.p1.degree

    @property
    def r2(self) -> int:
        return self.p2.degree

    @property
    def r3(self) -> int | None:
        return None if self.p3 is None else self.p3.degree

    @cached_property
    def p2prime(self) -> IntPoly:
        return self.p2 - self.p1

    @cached_property
    def p3(self) -> IntPoly | None:
        """P2 - (b/a) P1 when r1 == r2, for a and b the leads of P1 and P2."""
        if self.r1 != self.r2:
            return None
        return self.p2 - self.p1.scale(self.p2.leading_coeff / self.p1.leading_coeff)

    @cached_property
    def min_char(self) -> int:
        polys = [self.p1, self.p2, self.p2prime] + ([] if self.p3 is None else [self.p3])
        coeffs = [c for poly in polys for _, c in poly.terms]
        magnitudes = [abs(c.numerator) for c in coeffs] + [c.denominator for c in coeffs]
        return 1 + max(self.r2, *magnitudes)

    def key(self) -> str:
        return self._key

    def pair_hash(self) -> str:
        return self._hash

    # Formatting the polynomials and hashing cost about 16 us per call, and
    # every fiber file load asks for both, so each pair computes them once.
    @cached_property
    def _key(self) -> str:
        return f"{self.p1}|{self.p2}"

    @cached_property
    def _hash(self) -> str:
        return hashlib.sha256(self._key.encode()).hexdigest()[:16]

    def require_char(self, field) -> None:
        if field.p < self.min_char:
            raise CharTooSmall(
                f"pair {self.key()} needs characteristic >= {self.min_char}, "
                f"got {field.p}"
            )


def normalize_pair(p1: IntPoly, p2: IntPoly) -> NormalizedPair:
    ok, diagnosis = check_admissible(p1, p2)
    if not ok:
        raise Inadmissible(diagnosis)

    swapped = p1.degree > p2.degree
    if swapped:
        p1, p2 = p2, p1

    replaced = p1.degree == p2.degree and p1.leading_coeff == p2.leading_coeff
    if replaced:
        p1, p2 = p1 - p2, -p2

    return NormalizedPair(p1, p2, swapped, replaced)


@dataclass(frozen=True)
class AuxSystem:
    """The eight-variable system attached to a normalized pair.

    R1, R2 are alternating P1-sums over (y1..y4) and (y5..y8); R3 and R4 are
    the alternating P2 and P2' sums coupling the two halves; Q is the
    alternating P2-sum whose fibers over the variety drive the analysis.  In
    the equal-degree case Qprime is the reduction of Q modulo the system:

        Qprime = Q + (b/a) * (R1 - R2) - R3

    which collapses to an alternating sum of P3 values and therefore has
    total degree r3 < r1.  (The combination with +R3 does not collapse; the
    minus sign is forced by expanding the alternating sums.)
    """

    R1: MultiPoly
    R2: MultiPoly
    R3: MultiPoly
    R4: MultiPoly
    Q: MultiPoly
    Qprime: MultiPoly | None


def _alternating(poly: IntPoly, slots) -> MultiPoly:
    """The sum of sign * poly(y_var) over (var, sign) slots, one per variable."""
    parts = [IntPoly.zero()] * NVARS
    for var, sign in slots:
        parts[var - 1] = poly if sign > 0 else -poly
    return MultiPoly(tuple(parts))


def build_aux_system(pair: NormalizedPair) -> AuxSystem:
    r1 = _alternating(pair.p1, [(4, 1), (3, -1), (2, -1), (1, 1)])
    r2 = _alternating(pair.p1, [(8, 1), (7, -1), (6, -1), (5, 1)])
    r3 = _alternating(pair.p2, [(6, 1), (5, -1), (2, -1), (1, 1)])
    r4 = _alternating(pair.p2prime, [(7, 1), (5, -1), (3, -1), (1, 1)])
    q = _alternating(pair.p2, [(8, 1), (7, -1), (4, -1), (3, 1)])

    qprime = None
    if pair.r1 == pair.r2:
        lam = pair.p2.leading_coeff / pair.p1.leading_coeff
        qprime = q + (r1 - r2).scale(lam) - r3

    return AuxSystem(R1=r1, R2=r2, R3=r3, R4=r4, Q=q, Qprime=qprime)


def qprime_alternating_form(pair: NormalizedPair) -> MultiPoly:
    """The P3 alternating sum that Qprime must equal (equal-degree case)."""
    if pair.p3 is None:
        raise ValueError("only defined when r1 == r2")
    return _alternating(
        pair.p3,
        [(1, -1), (2, 1), (3, 1), (4, -1), (5, 1), (6, -1), (7, -1), (8, 1)],
    )
