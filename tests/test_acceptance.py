"""Acceptance sweep: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
criterion writes a canonical JSON report; criterion 10 rebuilds all of them
from the same seeds and insists on byte identity.

Pinned thresholds (regenerate by running the loops below and reading the
report fields; the observed values are noted next to each constant):
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

from conftest import brute_points
from ffprog import (
    CharTooSmall,
    balance,
    build_aux_system,
    count_progressions,
    decomposition_residual,
    field_new,
    indicator,
    lambda3,
    normalize_pair,
    parse_pair,
    random_subset,
)
from ffprog.counting import lambda_prime, main_theorem_ratio, prop22_sides
from ffprog.field import is_prime
from ffprog.fourier import lambda_prime_spectral, weil_ratio
from ffprog.polys import IntPoly, qprime_alternating_form
from ffprog.symbolic import (
    certify_separation_equal,
    certify_separation_unequal,
    verify_lm_claims,
)
from ffprog.variety import ENUMERATORS, enumerate_fibers, growth_row

PAIR_SPECS = ("y,y^2", "y^2,y^3", "y,y^3", "2*y^2,y^2+y")
SWEEP_PRIMES = tuple(p for p in range(3, 62) if is_prime(p))
IDENTITY_PRIMES = (5, 7, 11, 31)
DEGREE_LOWERING_PRIMES = (31, 41, 53)
WEIL_PRIMES = tuple(p for p in range(11, 102) if is_prime(p))

# decay rule: max over the sweep may not exceed this multiple of the value at
# the smallest admissible prime (observed growth factors: charsum 2.991 for
# y^2,y^3 and below 1.11 elsewhere; fiber 2.456 worst case)
DECAY_FACTOR = 3.0
# observed maximum 0.08823 over the 200 seeded instances
MAIN_RATIO_MAX = 0.12
# observed maximum 0.39563 over the 800 seeded count instances
COUNT_RATIO_MAX = 0.5


@pytest.fixture(scope="module")
def pairs():
    return {spec: normalize_pair(*parse_pair(spec)) for spec in PAIR_SPECS}


@pytest.fixture(scope="module")
def sweep_fibers(pairs):
    out = {}
    for spec, pair in pairs.items():
        for p in SWEEP_PRIMES:
            if p < pair.min_char:
                continue
            out[(spec, p)] = enumerate_fibers(pair, field_new(p))
    return out


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-reports")


@pytest.fixture(scope="module")
def reports():
    return {}


def _scalar(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, default=_scalar) + "\n"


def _finish(reports, report_dir, name, num, ok, detail, doc):
    text = _dumps(doc)
    reports[name] = text
    (report_dir / f"{name}.json").write_text(text)
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# --- report builders (pure given the module constants) -------------------------


def build_identity_report(pairs, fibers):
    rows = []
    for pi, p in enumerate(IDENTITY_PRIMES):
        field = field_new(p)
        for qi, spec in enumerate(PAIR_SPECS):
            p1, p2 = parse_pair(spec)
            for k in range(50):
                base = 10_000 * pi + 1_000 * qi + 3 * k
                a = random_subset(field, 0.5, base)
                b = random_subset(field, 0.5, base + 1)
                c = random_subset(field, 0.5, base + 2)
                rep = count_progressions(a, b, c, p1, p2, field)
                q2lam = p * p * lambda3(
                    indicator(a), indicator(b), indicator(c), p1, p2, field
                )
                resid = decomposition_residual(a, b, c, p1, p2, field)
                sizes = a.size * b.size * c.size
                denom = sizes**0.5 * p ** (0.5 - 1 / 16)
                rows.append(
                    {
                        "p": p,
                        "pair": spec,
                        "seed": base,
                        "count": rep.exact_count,
                        "q2_lambda": q2lam,
                        "count_matches": abs(q2lam - rep.exact_count) < 1e-6,
                        "residual": resid,
                        "error_ratio": float(rep.error) / denom if denom else 0.0,
                    }
                )
    return {"schema": 1, "report": "identity", "rows": rows}


def build_oracle_report(pairs, fibers):
    rows = []
    for p in (3, 5):
        field = field_new(p)
        for spec in PAIR_SPECS:
            pair = pairs[spec]
            if p < pair.min_char:
                raised = []
                for name in sorted(ENUMERATORS):
                    try:
                        ENUMERATORS[name](pair, field)
                        raised.append(False)
                    except CharTooSmall:
                        raised.append(True)
                rows.append(
                    {
                        "p": p,
                        "pair": spec,
                        "admissible": False,
                        "char_gate_raised": all(raised),
                    }
                )
                continue
            dists = {
                name: ENUMERATORS[name](pair, field) for name in sorted(ENUMERATORS)
            }
            histograms = {name: list(map(int, d.c)) for name, d in dists.items()}
            reference = histograms["naive8"]
            points = brute_points(pair, p)
            tally = Counter(points.values())
            pair_count = sum(m * m for m in tally.values())
            rows.append(
                {
                    "p": p,
                    "pair": spec,
                    "admissible": True,
                    "histograms_agree": all(
                        h == reference for h in histograms.values()
                    ),
                    "w_size": dists["fast"].w_size,
                    "w_pair_oracle": pair_count,
                }
            )
    return {"schema": 1, "report": "oracles", "rows": rows}


def build_sandwich_report(pairs, fibers):
    rows = []
    for (spec, p), dist in sorted(fibers.items()):
        pair = pairs[spec]
        upper = pair.r1**2 * pair.r2**2 * p**4
        rows.append(
            {
                "pair": spec,
                "p": p,
                "v_size": dist.v_size,
                "lower": p**4,
                "upper": upper,
                "holds": p**4 <= dist.v_size <= upper,
            }
        )
    return {"schema": 1, "report": "sandwich", "rows": rows}


def _degree_lowering_instances(pairs, fibers):
    for i in range(200):
        p = DEGREE_LOWERING_PRIMES[i % 3]
        spec = PAIR_SPECS[(i // 3) % 4]
        field = field_new(p)
        base = 70_000 + 3 * i
        f0 = balance(random_subset(field, 0.5, base))
        f1 = balance(random_subset(field, 0.5, base + 1))
        f2 = balance(random_subset(field, 0.5, base + 2))
        yield i, p, spec, base, f0, f1, f2, fibers[(spec, p)]


def build_degree_lowering_report(pairs, fibers):
    rows = []
    for i, p, spec, base, f0, f1, f2, dist in _degree_lowering_instances(
        pairs, fibers
    ):
        lhs, rhs = prop22_sides(f0, f1, f2, pairs[spec], dist)
        rows.append(
            {
                "i": i,
                "p": p,
                "pair": spec,
                "seed": base,
                "lhs": lhs,
                "rhs": rhs,
                "holds": lhs <= rhs + 1e-9,
            }
        )
    return {"schema": 1, "report": "degree_lowering", "rows": rows}


def build_spectral_report(pairs, fibers):
    rows = []
    for i, p, spec, base, f0, f1, f2, dist in _degree_lowering_instances(
        pairs, fibers
    ):
        direct = lambda_prime(f2, f2, dist)
        spectral = lambda_prime_spectral(f2, dist)
        rel = abs(direct - spectral) / max(abs(direct), 1e-12)
        rows.append(
            {
                "i": i,
                "p": p,
                "pair": spec,
                "direct": direct,
                "spectral": spectral,
                "rel_error": rel,
            }
        )
    return {"schema": 1, "report": "spectral", "rows": rows}


def _component_polys(pairs):
    seen = {}
    for spec in PAIR_SPECS:
        pair = pairs[spec]
        for poly in (pair.p1, pair.p2, pair.p2prime) + (
            (pair.p3,) if pair.p3 is not None else ()
        ):
            if poly.degree >= 1:
                seen.setdefault(str(poly), poly)
    return sorted(seen.items())


def build_weil_report(pairs, fibers):
    rows = []
    for text, poly in _component_polys(pairs):
        for p in WEIL_PRIMES:
            if poly.degree >= p:
                continue
            ratio = weil_ratio(poly, field_new(p))
            rows.append(
                {
                    "poly": text,
                    "p": p,
                    "ratio": ratio,
                    "holds": ratio <= 1.0 + 1e-9,
                }
            )
    return {"schema": 1, "report": "weil", "rows": rows}


def build_decay_report(pairs, fibers):
    rows = []
    for spec in PAIR_SPECS:
        series = [
            growth_row(fibers[(spec, p)])
            for p in SWEEP_PRIMES
            if (spec, p) in fibers
        ]
        charsums = [r.max_charsum_sqrtp for r in series]
        fiber_ratios = [r.max_fiber_over_p3 for r in series]
        rows.append(
            {
                "pair": spec,
                "smallest_p": series[0].p,
                "charsum_first": charsums[0],
                "charsum_max": max(charsums),
                "charsum_within_factor": max(charsums)
                <= DECAY_FACTOR * charsums[0],
                "fiber_first": fiber_ratios[0],
                "fiber_max": max(fiber_ratios),
                "fiber_within_factor": max(fiber_ratios)
                <= DECAY_FACTOR * fiber_ratios[0],
            }
        )
    return {"schema": 1, "report": "decay", "rows": rows}


def build_ratio_report(pairs, fibers):
    worst_main = 0.0
    for i, p, spec, base, f0, f1, f2, dist in _degree_lowering_instances(
        pairs, fibers
    ):
        ratio = main_theorem_ratio(f0, f1, f2, pairs[spec], dist)
        worst_main = max(worst_main, ratio)
    worst_count = max(
        row["error_ratio"] for row in build_identity_report(pairs, fibers)["rows"]
    )
    return {
        "schema": 1,
        "report": "ratios",
        "rows": [
            {
                "kind": "main_theorem_ratio",
                "observed_max": worst_main,
                "pinned_max": MAIN_RATIO_MAX,
                "holds": worst_main < MAIN_RATIO_MAX,
            },
            {
                "kind": "count_error_ratio",
                "observed_max": worst_count,
                "pinned_max": COUNT_RATIO_MAX,
                "holds": worst_count < COUNT_RATIO_MAX,
            },
        ],
    }


def _symbolic_family():
    """Admissible pairs with degrees <= 12, exhaustive within four shapes."""
    out = []
    for r1 in range(1, 13):
        for r2 in range(r1 + 1, 13):
            out.append((IntPoly.monomial(r1), IntPoly.monomial(r2)))
            out.append(
                (
                    IntPoly.from_coeffs([0] + [1] * r1),
                    IntPoly.from_coeffs([0] + [2] * r2),
                )
            )
    for r1 in range(2, 13):
        for r3 in range(1, r1):
            out.append(
                (IntPoly.monomial(r1, 2), IntPoly.monomial(r1) + IntPoly.monomial(r3))
            )
            out.append(
                (IntPoly.monomial(r1), IntPoly.monomial(r1) + IntPoly.monomial(r3))
            )
    return out


def build_symbolic_report(pairs, fibers):
    lm_failures = 0
    reduction_failures = 0
    family_size = 0
    equal_degree = 0
    for p1, p2 in _symbolic_family():
        pair = normalize_pair(p1, p2)
        aux = build_aux_system(pair)
        family_size += 1
        if not verify_lm_claims(aux, pair):
            lm_failures += 1
        if pair.r1 == pair.r2:
            equal_degree += 1
            if not (aux.Qprime - qprime_alternating_form(pair)).is_zero:
                reduction_failures += 1

    cert_rows = []
    for r1 in range(1, 13):
        for r2 in range(r1 + 1, 13):
            cert = certify_separation_unequal(r1, r2, 1e-6)
            cert_rows.append(
                {"case": cert.case_tag, "params": list(cert.params), "pass": cert.passed}
            )
    for r1 in range(2, 13):
        for r3 in range(1, r1):
            cert = certify_separation_equal(r1, r3, 1e-6)
            cert_rows.append(
                {"case": cert.case_tag, "params": list(cert.params), "pass": cert.passed}
            )

    return {
        "schema": 1,
        "report": "symbolic",
        "family_size": family_size,
        "equal_degree_pairs": equal_degree,
        "lm_failures": lm_failures,
        "reduction_failures": reduction_failures,
        "certificates": cert_rows,
    }


BUILDERS = {
    "identity": build_identity_report,
    "oracles": build_oracle_report,
    "sandwich": build_sandwich_report,
    "degree_lowering": build_degree_lowering_report,
    "spectral": build_spectral_report,
    "weil": build_weil_report,
    "decay": build_decay_report,
    "ratios": build_ratio_report,
    "symbolic": build_symbolic_report,
}


# --- the criteria ---------------------------------------------------------------


def test_criterion_01_identity_suite(pairs, sweep_fibers, reports, report_dir):
    t0 = time.monotonic()
    doc = build_identity_report(pairs, sweep_fibers)
    elapsed = time.monotonic() - t0
    rows = doc["rows"]
    bad = [r for r in rows if not r["count_matches"] or r["residual"] >= 1e-10]
    ok = not bad and len(rows) == 800 and elapsed < 60
    detail = (
        f"{len(rows)} instances, {len(bad)} violations, "
        f"max residual {max(r['residual'] for r in rows):.3e}, {elapsed:.1f}s"
    )
    _finish(reports, report_dir, "identity", 1, ok, detail, doc)


def test_criterion_02_oracle_equivalence(pairs, sweep_fibers, reports, report_dir):
    t0 = time.monotonic()
    doc = build_oracle_report(pairs, sweep_fibers)
    elapsed = time.monotonic() - t0
    rows = doc["rows"]
    gated = [r for r in rows if not r["admissible"]]
    live = [r for r in rows if r["admissible"]]
    ok = (
        all(r["char_gate_raised"] for r in gated)
        and all(r["histograms_agree"] for r in live)
        and all(r["w_size"] == r["w_pair_oracle"] for r in live)
        and elapsed < 120
    )
    detail = (
        f"{len(live)} admissible combos agree across enumerators, "
        f"{len(gated)} below min_char raise, {elapsed:.1f}s"
    )
    _finish(reports, report_dir, "oracles", 2, ok, detail, doc)


def test_criterion_03_sandwich(pairs, sweep_fibers, reports, report_dir):
    t0 = time.monotonic()
    doc = build_sandwich_report(pairs, sweep_fibers)
    elapsed = time.monotonic() - t0
    rows = doc["rows"]
    ok = all(r["holds"] for r in rows) and elapsed < 600
    detail = f"{len(rows)} (pair, p) combos up to p=61, {elapsed:.1f}s"
    _finish(reports, report_dir, "sandwich", 3, ok, detail, doc)


def test_criterion_04_degree_lowering(pairs, sweep_fibers, reports, report_dir):
    doc = build_degree_lowering_report(pairs, sweep_fibers)
    rows = doc["rows"]
    violations = [r for r in rows if not r["holds"]]
    margin = min(r["rhs"] - r["lhs"] for r in rows)
    ok = not violations and len(rows) == 200
    detail = f"200 instances, {len(violations)} violations, min margin {margin:.3e}"
    _finish(reports, report_dir, "degree_lowering", 4, ok, detail, doc)


def test_criterion_05_spectral_identity(pairs, sweep_fibers, reports, report_dir):
    doc = build_spectral_report(pairs, sweep_fibers)
    rows = doc["rows"]
    worst = max(r["rel_error"] for r in rows)
    ok = worst < 1e-8 and len(rows) == 200
    detail = f"200 instances, max relative error {worst:.3e}"
    _finish(reports, report_dir, "spectral", 5, ok, detail, doc)


def test_criterion_06_weil(pairs, sweep_fibers, reports, report_dir):
    doc = build_weil_report(pairs, sweep_fibers)
    rows = doc["rows"]
    worst = max(r["ratio"] for r in rows)
    ok = all(r["holds"] for r in rows)
    detail = (
        f"{len(rows)} (poly, p) combos over primes 11..101, max ratio {worst:.6f}"
    )
    _finish(reports, report_dir, "weil", 6, ok, detail, doc)


def test_criterion_07_charsum_decay(pairs, sweep_fibers, reports, report_dir):
    doc = build_decay_report(pairs, sweep_fibers)
    rows = doc["rows"]
    ok = all(r["charsum_within_factor"] and r["fiber_within_factor"] for r in rows)
    growth = max(r["charsum_max"] / r["charsum_first"] for r in rows)
    detail = (
        f"4 pairs swept to p=61, worst charsum growth {growth:.3f} "
        f"(allowed {DECAY_FACTOR})"
    )
    _finish(reports, report_dir, "decay", 7, ok, detail, doc)


def test_criterion_08_ratio_bounds(pairs, sweep_fibers, reports, report_dir):
    doc = build_ratio_report(pairs, sweep_fibers)
    rows = {r["kind"]: r for r in doc["rows"]}
    ok = all(r["holds"] for r in doc["rows"])
    detail = (
        f"main theorem ratio {rows['main_theorem_ratio']['observed_max']:.5f} "
        f"< {MAIN_RATIO_MAX}, count error ratio "
        f"{rows['count_error_ratio']['observed_max']:.5f} < {COUNT_RATIO_MAX}"
    )
    _finish(reports, report_dir, "ratios", 8, ok, detail, doc)


def test_criterion_09_symbolic_suite(pairs, sweep_fibers, reports, report_dir):
    t0 = time.monotonic()
    doc = build_symbolic_report(pairs, sweep_fibers)
    elapsed = time.monotonic() - t0
    certs_ok = all(c["pass"] for c in doc["certificates"])
    ok = (
        doc["lm_failures"] == 0
        and doc["reduction_failures"] == 0
        and certs_ok
        and len(doc["certificates"]) == 132
        and elapsed < 60
    )
    detail = (
        f"{doc['family_size']} pairs, {doc['equal_degree_pairs']} equal-degree "
        f"reductions, 132 certificates, {elapsed:.1f}s"
    )
    _finish(reports, report_dir, "symbolic", 9, ok, detail, doc)


def test_criterion_10_determinism(pairs, sweep_fibers, reports, report_dir):
    mismatches = []
    for name, builder in BUILDERS.items():
        if name not in reports:
            reports[name] = _dumps(builder(pairs, sweep_fibers))
        rebuilt = _dumps(builder(pairs, sweep_fibers))
        if rebuilt != reports[name]:
            mismatches.append(name)
        (report_dir / f"{name}.rerun.json").write_text(rebuilt)
    ok = not mismatches
    detail = "9 reports rebuilt byte-identical" if ok else f"mismatch: {mismatches}"
    doc = {"schema": 1, "report": "determinism", "mismatches": mismatches}
    _finish(reports, report_dir, "determinism", 10, ok, detail, doc)
