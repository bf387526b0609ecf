import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffprog import (
    CharTooSmall,
    Diagnosis,
    Inadmissible,
    IntPoly,
    build_aux_system,
    check_admissible,
    field_new,
    normalize_pair,
    parse_pair,
    parse_poly,
    qprime_alternating_form,
)
from ffprog.cli import EXIT_CONFIG, main
from ffprog.polys import MAX_DEGREE, NormalizedPair


def test_parse_sparse_forms():
    assert parse_poly("y^2 + 3*y") == IntPoly.from_coeffs([0, 3, 1])
    assert parse_poly("1/2*y^3 - y") == IntPoly.from_coeffs([0, -1, 0, Fraction(1, 2)])
    assert parse_poly("1/2*y^3 - y").terms == ((1, Fraction(-1)), (3, Fraction(1, 2)))
    assert parse_poly("-y") == IntPoly.from_coeffs([0, -1])
    assert parse_poly("2y^2") == parse_poly("2*y^2")
    assert parse_poly("y - y") == IntPoly.zero()


def test_parse_dense_form():
    assert parse_poly("[0,3,1]") == parse_poly("y^2 + 3*y")
    assert parse_poly("[0, 1/2]") == parse_poly("1/2*y")
    assert parse_poly("[]") == IntPoly.zero()


def test_parse_rejects_garbage():
    for bad in ("", "x^2", "y**2", "y^", "[0,1", "1//2*y"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_parse_pair_bracket_aware():
    p1, p2 = parse_pair("[0,1],[0,0,1]")
    assert p1 == parse_poly("y")
    assert p2 == parse_poly("y^2")
    p1, p2 = parse_pair("y,y^2")
    assert (p1, p2) == (parse_poly("y"), parse_poly("y^2"))
    with pytest.raises(ValueError):
        parse_pair("[0,1]")


def test_poly_str_roundtrip():
    for s in ("y^2 + 3*y", "1/2*y^3 - y", "-y^2 + y", "y"):
        poly = parse_poly(s)
        assert parse_poly(str(poly)) == poly


def test_degree_sentinel_and_eval():
    assert IntPoly.zero().degree == float("-inf")
    assert IntPoly.zero().evalq(5) == 0
    p = parse_poly("y^3 - y")
    assert p.degree == 3
    assert p.evalq(Fraction(1, 2)) == Fraction(-3, 8)


def test_check_admissible():
    y, y2 = parse_pair("y,y^2")
    assert check_admissible(y, y2) == (True, None)
    ok, diag = check_admissible(IntPoly.zero(), y2)
    assert not ok and diag is Diagnosis.ZERO_POLYNOMIAL
    ok, diag = check_admissible(parse_poly("y+1"), y2)
    assert not ok and diag is Diagnosis.ZERO_CONSTANT_VIOLATED
    ok, diag = check_admissible(y, parse_poly("2*y"))
    assert not ok and diag is Diagnosis.LINEARLY_DEPENDENT
    # rational multiples are dependent too
    ok, diag = check_admissible(parse_poly("y^2+y"), parse_poly("1/3*y^2+1/3*y"))
    assert not ok and diag is Diagnosis.LINEARLY_DEPENDENT


def dense(poly):
    """The coefficient list of an IntPoly, index = degree."""
    out = [Fraction(0)] * (poly.degree + 1 if poly.terms else 0)
    for k, c in poly.terms:
        out[k] = c
    return out


def all_minors_independent(u, v):
    """The rule check_admissible used before its one-pass form: some 2x2
    minor of the two coefficient rows is nonzero.  O(n^2); kept as the oracle."""
    n = max(len(u), len(v))
    u, v = [*u, *[0] * (n - len(u))], [*v, *[0] * (n - len(v))]
    return any(u[i] * v[j] != u[j] * v[i] for i in range(n) for j in range(i + 1, n))


class DenseRef:
    """IntPoly as it was held before its terms form: ``coeffs[k]`` is the
    coefficient of y^k, trailing zeros stripped.  Kept as the oracle."""

    def __init__(self, seq):
        cs = [Fraction(c) for c in seq]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        u = self.coeffs + [0] * (n - len(self.coeffs))
        v = other.coeffs + [0] * (n - len(other.coeffs))
        return DenseRef([a + b for a, b in zip(u, v)])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return DenseRef([v * Fraction(c) for v in self.coeffs])

    def evalq(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(x) + c
        return acc

    def __str__(self):
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = f"{mag}"
            else:
                y = "y" if k == 1 else f"y^{k}"
                body = y if mag == 1 else f"{mag}*{y}"
            parts.append(("-" if c < 0 else "+", body))
        if not parts:
            return "0"
        (sign, body), rest = parts[0], parts[1:]
        return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in rest)

    def admissible(self, other):
        if not self.coeffs or not other.coeffs:
            return False, Diagnosis.ZERO_POLYNOMIAL
        if self.coeffs[0] or other.coeffs[0]:
            return False, Diagnosis.ZERO_CONSTANT_VIOLATED
        if all_minors_independent(self.coeffs, other.coeffs):
            return True, None
        return False, Diagnosis.LINEARLY_DEPENDENT


coeff_rows = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2)]), max_size=7)


@given(coeff_rows, coeff_rows, st.sampled_from([None, 1, -2, Fraction(1, 3)]))
@settings(max_examples=400, deadline=None)
def test_one_pass_independence_matches_all_minors(a, b, scale):
    # scale draws the second row as a multiple of the first, so dependent
    # pairs are common rather than rare
    if scale is not None:
        b = [scale * c for c in a]
    p1, p2 = IntPoly.from_coeffs([0, *a]), IntPoly.from_coeffs([0, *b])
    ok, diag = check_admissible(p1, p2)
    if p1.is_zero or p2.is_zero:
        assert diag is Diagnosis.ZERO_POLYNOMIAL
    else:
        assert ok == all_minors_independent(dense(p1), dense(p2))
        assert diag is (None if ok else Diagnosis.LINEARLY_DEPENDENT)


term_maps = st.dictionaries(
    st.integers(0, 12) | st.sampled_from([40, 97]),
    st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]),
    max_size=6,
)


@given(
    term_maps,
    term_maps,
    st.booleans(),
    st.sampled_from([0, 1, -2, Fraction(3, 5)]),
    st.sampled_from([0, 1, -1, 2, Fraction(-1, 3)]),
)
@settings(max_examples=400, deadline=None)
def test_terms_match_the_dense_reference(a, b, same, c, x):
    # same draws q equal to p, split into pieces, so equal pairs are common
    p = IntPoly.from_terms(a.items())
    q = IntPoly.from_terms([*a.items(), (5, 1), (5, -1)]) if same else IntPoly.from_terms(b.items())
    dp = DenseRef([a.get(k, 0) for k in range(max(a, default=-1) + 1)])
    dq = dp if same else DenseRef([b.get(k, 0) for k in range(max(b, default=-1) + 1)])
    for poly, ref in (
        (p, dp), (q, dq), (p + q, dp + dq), (p - q, dp - dq), (-p, -dp), (p.scale(c), dp.scale(c)),
    ):
        assert dense(poly) == ref.coeffs
        assert str(poly) == str(ref)
        assert poly.degree == ref.degree
        assert poly.evalq(x) == ref.evalq(x)
        assert all(c != 0 for _, c in poly.terms)
        assert [k for k, _ in poly.terms] == sorted({k for k, _ in poly.terms})
    assert (p == q) == (dp.coeffs == dq.coeffs)
    assert p != q or hash(p) == hash(q)
    assert p == IntPoly.from_coeffs(dp.coeffs) and hash(p) == hash(IntPoly.from_coeffs(dp.coeffs))
    assert check_admissible(p, q) == dp.admissible(dq)


def test_degree_cap_is_checked_before_any_coefficient_list():
    assert parse_poly(f"y^{MAX_DEGREE}").degree == MAX_DEGREE
    assert parse_poly("y^0000000000000000000000002") == parse_poly("y^2")
    assert parse_poly("[" + ",".join(["0"] * (MAX_DEGREE + 1)) + "]").is_zero
    for bad in (
        f"y^{MAX_DEGREE + 1}",
        "y^99999999999999999999999",
        "y^" + "9" * 5000,
        "[" + ",".join(["0"] * (MAX_DEGREE + 2)) + "]",
    ):
        with pytest.raises(ValueError, match=f"cap of {MAX_DEGREE}"):
            parse_poly(bad)


def test_normalize_swap_records():
    pair = normalize_pair(parse_poly("y^2"), parse_poly("y"))
    assert pair.swapped
    assert pair.p1 == parse_poly("y")
    assert pair.p2 == parse_poly("y^2")
    assert (pair.r1, pair.r2) == (1, 2)


def test_normalize_equal_lead_replacement():
    # (y^2 + y, y^2): equal degree, equal leads -> (y, -y^2)
    pair = normalize_pair(parse_poly("y^2+y"), parse_poly("y^2"))
    assert pair.replaced and not pair.swapped
    assert pair.p1 == parse_poly("y")
    assert pair.p2 == parse_poly("-y^2")
    assert (pair.r1, pair.r2) == (1, 2)
    assert pair.p3 is None


def test_normalize_equal_degree_distinct_leads():
    pair = normalize_pair(parse_poly("2*y^2"), parse_poly("y^2+y"))
    assert not pair.swapped and not pair.replaced
    assert pair.p2prime == parse_poly("-y^2+y")
    assert pair.p3 == parse_poly("y")
    assert pair.r3 == 1
    assert pair.p1.leading_coeff == 2 and pair.p2.leading_coeff == 1
    assert pair.p2prime.leading_coeff == -1 and pair.p3.leading_coeff == 1
    assert pair.min_char == 3


def eager_normalize(p1, p2):
    """normalize_pair as it was before NormalizedPair derived its data: every
    value that normalize prints, computed up front.  Kept as the oracle."""
    ok, diagnosis = check_admissible(p1, p2)
    if not ok:
        raise Inadmissible(diagnosis)
    swapped = False
    if p1.degree > p2.degree:
        p1, p2 = p2, p1
        swapped = True
    replaced = False
    if p1.degree == p2.degree and p1.leading_coeff == p2.leading_coeff:
        p1, p2 = p1 - p2, -p2
        replaced = True
    r1, r2 = p1.degree, p2.degree
    p2prime = p2 - p1
    p3 = r3 = None
    if r1 == r2:
        p3 = p2 - p1.scale(p2.leading_coeff / p1.leading_coeff)
        r3 = p3.degree
    magnitudes = [r2]
    for poly in (p1, p2, p2prime) + ((p3,) if p3 is not None else ()):
        for _, c in poly.terms:
            magnitudes.extend((abs(c.numerator), c.denominator))
    key = f"{p1}|{p2}"
    return dict(
        p1=p1, p2=p2, p2prime=p2prime, p3=p3, r1=r1, r2=r2, r3=r3, min_char=1 + max(magnitudes),
        swapped=swapped, replaced=replaced, key=key,
        pair_hash=hashlib.sha256(key.encode()).hexdigest()[:16],
    )


positive_terms = st.dictionaries(
    st.integers(1, 9) | st.sampled_from([40, 97]),
    st.sampled_from([1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-5, 3), Fraction(9, 11)]),
    min_size=1,
    max_size=5,
)


@given(positive_terms, positive_terms, st.sampled_from(["free", "equal degree", "equal lead"]))
@example({1: 1}, {2: 1}, "free")  # in order
@example({2: 1}, {1: 1}, "free")  # swapped
@example({2: 1, 1: 1}, {}, "equal lead")  # replaced: (y^2 + y, y^2)
@example({2: 2}, {1: 1}, "equal degree")  # P3: (2*y^2, y^2 + y)
@example({3: Fraction(1, 2), 2: -3}, {1: Fraction(9, 11)}, "equal degree")  # fractions
@example({2: 1, 1: 7}, {1: -7}, "equal degree")  # P3 = -21*y has the largest coefficient
@settings(max_examples=400, deadline=None)
def test_derived_pair_matches_the_eager_reference(a, b, tie):
    # a tie gives the second polynomial the first one's degree, with the
    # same lead (so normalize_pair replaces) or twice it (so P3 exists)
    if tie != "free":
        top = max(a)
        b = {k: c for k, c in b.items() if k < top}
        b[top] = a[top] if tie == "equal lead" else 2 * a[top]
    p1, p2 = IntPoly.from_terms(a.items()), IntPoly.from_terms(b.items())
    try:
        want = eager_normalize(p1, p2)
    except Inadmissible as exc:
        with pytest.raises(Inadmissible) as got:
            normalize_pair(p1, p2)
        assert got.value.diagnosis is exc.diagnosis
        return
    pair = normalize_pair(p1, p2)
    got = {name: getattr(pair, name) for name in want if name not in ("key", "pair_hash")}
    assert {**got, "key": pair.key(), "pair_hash": pair.pair_hash()} == want


def test_normalized_pair_holds_only_what_normalize_decides():
    assert [f.name for f in dataclasses.fields(NormalizedPair)] == [
        "p1", "p2", "swapped", "replaced"
    ]
    pair = normalize_pair(*parse_pair("y^2,y^3"))
    # a degree that disagrees with the polynomials cannot be set
    with pytest.raises(TypeError):
        dataclasses.replace(pair, r1=1, r2=2)


def test_normalize_is_idempotent():
    for spec in ("y,y^2", "y^2,y", "y^2+y,y^2", "2*y^2,y^2+y", "1/2*y^3-y,y^2"):
        pair = normalize_pair(*parse_pair(spec))
        again = normalize_pair(pair.p1, pair.p2)
        assert (again.p1, again.p2) == (pair.p1, pair.p2)
        assert not again.swapped and not again.replaced


def test_normalize_rejects_inadmissible():
    with pytest.raises(Inadmissible) as exc:
        normalize_pair(parse_poly("y"), parse_poly("2*y"))
    assert exc.value.diagnosis is Diagnosis.LINEARLY_DEPENDENT


def test_min_char_values():
    values = {
        "y,y^2": 3,
        "y^2,y^3": 4,
        "y,y^3": 4,
        "2*y^2,y^2+y": 3,
    }
    for spec, want in values.items():
        assert normalize_pair(*parse_pair(spec)).min_char == want


def test_min_char_sees_denominators():
    pair = normalize_pair(*parse_pair("1/2*y^3-y,y^2"))
    # p1 = y^2 after swap?  no swap: deg 3 > 2 swaps -> p1 = y^2, p2 = 1/2y^3 - y
    assert pair.swapped
    assert pair.min_char == 1 + 3  # max(r2=3, |1/2| parts, 1s) = 3
    pair2 = normalize_pair(*parse_pair("1/7*y,y^2"))
    assert pair2.min_char == 8


def test_degree_preservation_mod_p():
    from ffprog.field import is_prime

    specs = ("y,y^2", "y^2,y^3", "y,y^3", "2*y^2,y^2+y", "1/2*y^3-y,y^2")
    primes = [p for p in range(3, 102) if is_prime(p)]
    for spec in specs:
        pair = normalize_pair(*parse_pair(spec))
        polys = [(pair.p1, pair.r1), (pair.p2, pair.r2), (pair.p2prime, pair.r2)]
        if pair.p3 is not None:
            polys.append((pair.p3, pair.r3))
        for p in primes:
            if p < pair.min_char:
                continue
            f = field_new(p)
            for poly, deg in polys:
                assert f.reduce_fraction(dense(poly)[deg]) != 0


def test_require_char_gate():
    pair = normalize_pair(*parse_pair("y^2,y^3"))
    with pytest.raises(CharTooSmall):
        pair.require_char(field_new(3))
    pair.require_char(field_new(5))


def test_aux_system_shapes():
    pair = normalize_pair(*parse_pair("y,y^2"))
    aux = build_aux_system(pair)
    # R1 is an alternating P1-sum: for P1 = y it is y4 - y3 - y2 + y1
    assert aux.R1.terms == {
        (1, 0, 0, 0, 0, 0, 0, 0): Fraction(1),
        (0, 1, 0, 0, 0, 0, 0, 0): Fraction(-1),
        (0, 0, 1, 0, 0, 0, 0, 0): Fraction(-1),
        (0, 0, 0, 1, 0, 0, 0, 0): Fraction(1),
    }
    assert aux.Qprime is None


def test_aux_system_alternating_values():
    # spot-check R3 agrees with its defining alternating sum on points
    pair = normalize_pair(*parse_pair("y^2,y^3"))
    aux = build_aux_system(pair)
    pt = tuple(Fraction(k) for k in (3, 1, 4, 1, 5, 9, 2, 6))
    want = (
        pair.p2.evalq(pt[5])
        - pair.p2.evalq(pt[4])
        - pair.p2.evalq(pt[1])
        + pair.p2.evalq(pt[0])
    )
    assert aux.R3.evaluate(pt) == want


def test_qprime_identity_equal_degree():
    pair = normalize_pair(*parse_pair("2*y^2,y^2+y"))
    aux = build_aux_system(pair)
    assert aux.Qprime is not None
    assert aux.Qprime == qprime_alternating_form(pair)
    assert (aux.Qprime - qprime_alternating_form(pair)).is_zero
    assert aux.Qprime.total_degree() == pair.r3


def test_qprime_identity_generated_family():
    # equal-degree pairs (a*y^r1 + y^r3, y^r1 + y^r3) style with a != 1
    for r1 in range(2, 8):
        for r3 in range(1, r1):
            p1 = IntPoly.monomial(r1, 2) + IntPoly.monomial(r3, 1)
            p2 = IntPoly.monomial(r1, 1) + IntPoly.monomial(r3, 3)
            pair = normalize_pair(p1, p2)
            if pair.r1 != pair.r2:
                continue
            aux = build_aux_system(pair)
            assert aux.Qprime == qprime_alternating_form(pair)
            assert aux.Qprime.total_degree() < pair.r1


def test_zero_polynomial_has_no_leading_coefficient():
    with pytest.raises(ValueError, match="zero polynomial has no leading coefficient"):
        IntPoly.zero().leading_coeff


@pytest.mark.parametrize("text", ["y+,y^2", "y++y,y^2", "--y,y^2"])
def test_a_dangling_or_doubled_sign_exits_2(text, capsys):
    # "--pair=" form, since argparse takes a separate "--y,y^2" for a flag
    assert main(["normalize", f"--pair={text}"]) == EXIT_CONFIG
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: cannot parse polynomial: ") and cap.err.count("\n") == 1
