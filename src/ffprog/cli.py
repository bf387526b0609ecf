"""Command-line front end: sweeps, reports, verification, oracle toggles.

Subcommands
-----------
count      exact progression counts over a prime sweep
variety    fiber enumeration + growth report (writes cacheable fiber files)
charsum    normalized character sums over the fibers, full vector per prime
verify     run the invariant checks and print a pass/fail table
expander   image sizes of u + P(v - u) on A x B
normalize  show the normalized form of a pair (degrees, min_char, hash)
certify    root-separation certificates up to a degree cap

Exit codes: 0 success, 1 failed verification/certification, 2 bad
configuration or inadmissible input, 3 characteristic too small, 4 work
budget exceeded.

Reports are deterministic: JSON is dumped with sorted keys, CSV rows are
emitted in sorted sweep order, and all randomness flows from --seed through
the package's pinned generator.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .counting import (
    count_progressions,
    decomposition_residual,
    lambda_prime,
    prop22_sides,
    expander_image,
)
from .errors import (
    BadCharacteristic,
    BadDensity,
    CharTooSmall,
    CorruptFiberFile,
    FFProgError,
    Inadmissible,
    NotPrime,
    WorkBudgetExceeded,
)
from .field import MAX_P, field_new, is_prime
from .fourier import char_sums_over_fibers, lambda_prime_spectral, weil_ratio
from .polys import build_aux_system, normalize_pair, parse_pair, parse_poly
from .setfun import balance, parse_subset, random_subset
from .symbolic import (
    MAX_CERT_DEGREE,
    certify_separation_equal,
    certify_separation_unequal,
    verify_lm_claims,
)
from .variety import (
    CSV_COLUMNS,
    DEFAULT_BUDGET,
    ENUMERATORS,
    FiberDistribution,
    SCHEMA_VERSION,
    growth_report,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_CHAR = 3
EXIT_BUDGET = 4

DEFAULT_VERIFY_PAIRS = ("y,y^2", "y^2,y^3", "y,y^3", "2*y^2,y^2+y")
DEFAULT_VERIFY_PRIMES = "31,41,53"
VERIFY_CHECKS = (
    "decomposition",
    "prop22",
    "spectral",
    "weil",
    "sandwich",
    "lm",
    "certificates",
)
FIBER_CHECKS = {"prop22", "spectral", "sandwich"}


class ConfigError(Exception):
    pass


# --- configuration -----------------------------------------------------------


def parse_primes(text: str) -> list[int]:
    """'a..b' (inclusive, primality-filtered) or a comma list (filtered)."""
    text = text.strip()
    if ".." in text:
        lo, hi = sorted(int(s) for s in text.split("..", 1))
        if hi >= MAX_P:
            raise ConfigError(f"prime range {text!r} must stay below 2**31")
        candidates = range(lo, hi + 1)
    else:
        candidates = [int(tok) for tok in text.split(",") if tok.strip()]
    primes = sorted({n for n in candidates if n >= 2 and is_prime(n)})
    if not primes:
        raise ConfigError(f"no primes in {text!r}")
    return primes


def load_config(parser: argparse.ArgumentParser, command: str, path: str) -> dict:
    """Values of a flat key = value file, checked by the same types and
    choices as the flags; an unknown key or a bad value exits like a bad flag."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path!r}")
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            tokens.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    parsed = vars(parser.parse_args([command, *tokens]))
    return {k: v for k, v in parsed.items() if v is not None and k != "command"}


def merged_option(args, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def resolve_sets(spec_text: str, field, how_many: int) -> list:
    """Split a comma-joined spec list; a single random spec fans out by
    bumping its seed once per extra set."""
    parts = [s.strip() for s in spec_text.split(",") if s.strip()]
    if len(parts) == how_many:
        return [parse_subset(s, field) for s in parts]
    if len(parts) == 1:
        base = parts[0]
        if base.startswith("random:"):
            _, density, seed = base.split(":")
            return [
                random_subset(field, float(density), int(seed) + k)
                for k in range(how_many)
            ]
        one = parse_subset(base, field)
        return [one] * how_many
    raise ConfigError(
        f"--sets needs 1 or {how_many} comma-separated specs, got {len(parts)}"
    )


# --- fiber cache ---------------------------------------------------------------


def fiber_path(cache_dir: str, pair, p: int) -> str:
    return os.path.join(cache_dir, f"fibers_{pair.pair_hash()}_{p}.json")


def get_fibers(
    pair,
    p: int,
    budget: int,
    cache_dir: str,
    enumerator=None,
    strict_cache: bool = False,
):
    """Fetch a fiber distribution, preferring the file cache.

    With strict_cache a corrupt cached file propagates CorruptFiberFile (the
    verify command must surface tampering, not silently heal it); otherwise a
    bad cache entry is recomputed and overwritten.
    """
    fn = enumerator or ENUMERATORS["fast"]
    path = fiber_path(cache_dir, pair, p)
    if os.path.exists(path):
        try:
            return FiberDistribution.load(path, pair, p)
        except CorruptFiberFile:
            if strict_cache:
                raise
    dist = fn(pair, field_new(p), budget=budget)
    os.makedirs(cache_dir, exist_ok=True)
    dist.save(path)
    return dist


def warm_fibers(pairs, primes, budget, cache_dir, workers, enumerator=None):
    jobs = [(pair, p) for pair in pairs for p in primes]
    results = {}
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                (pair.key(), p): pool.submit(
                    get_fibers, pair, p, budget, cache_dir, enumerator
                )
                for pair, p in jobs
            }
            for key, fut in futures.items():
                results[key] = fut.result()
    else:
        for pair, p in jobs:
            results[(pair.key(), p)] = get_fibers(
                pair, p, budget, cache_dir, enumerator
            )
    return results


# --- report emission -------------------------------------------------------------


def _write_report(text: str, out: str | None) -> None:
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def emit_rows(command: str, meta: dict, columns, rows, fmt: str, out: str | None) -> None:
    if fmt == "json":
        doc = {"schema": SCHEMA_VERSION, "command": command}
        doc.update(meta)
        doc["rows"] = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    _write_report(text, out)


def emit_json(doc: dict, out: str | None) -> None:
    _write_report(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)


# --- subcommands ---------------------------------------------------------------


def cmd_count(args, config) -> int:
    pair_text = merged_option(args, config, "pair")
    if not pair_text:
        raise ConfigError("count needs --pair")
    p1, p2 = parse_pair(pair_text)
    pair = normalize_pair(p1, p2)
    primes = parse_primes(merged_option(args, config, "primes", "31..101"))
    sets_text = merged_option(args, config, "sets", "random:0.5:0")
    fmt = merged_option(args, config, "format", "csv")
    out = merged_option(args, config, "out")

    columns = (
        "p",
        "pair",
        "a_size",
        "b_size",
        "c_size",
        "exact_count",
        "expected",
        "error",
        "ratio",
    )
    rows = []
    for p in primes:
        field = field_new(p)
        pair.require_char(field)
        a, b, c = resolve_sets(sets_text, field, 3)
        rep = count_progressions(a, b, c, p1, p2, field)
        sizes = a.size * b.size * c.size
        denom = sizes**0.5 * p ** (0.5 - 1 / 16)
        ratio = float(rep.error) / denom if denom > 0 else 0.0
        rows.append(
            (
                p,
                pair_text,
                a.size,
                b.size,
                c.size,
                rep.exact_count,
                float(rep.expected),
                float(rep.error),
                ratio,
            )
        )
    emit_rows("count", {"pair": pair_text}, columns, rows, fmt, out)
    return EXIT_OK


def cmd_variety(args, config) -> int:
    pair_text = merged_option(args, config, "pair")
    if not pair_text:
        raise ConfigError("variety needs --pair")
    pair = normalize_pair(*parse_pair(pair_text))
    primes = parse_primes(merged_option(args, config, "primes", "7,11,13"))
    budget = merged_option(args, config, "budget", DEFAULT_BUDGET)
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    cache_dir = merged_option(args, config, "cache_dir", "ffprog-cache")
    workers = merged_option(args, config, "workers", 1)
    oracle = merged_option(args, config, "oracle", "fast")
    fmt = merged_option(args, config, "format", "csv")
    out = merged_option(args, config, "out")

    for p in primes:
        pair.require_char(field_new(p))
    fibers = warm_fibers(
        [pair], primes, budget, cache_dir, workers, ENUMERATORS[oracle]
    )
    report = growth_report(
        pair,
        primes,
        budget=budget,
        fibers_by_p={p: fibers[(pair.key(), p)] for p in primes},
    )
    rows = [tuple(r.to_json_dict()[c] for c in CSV_COLUMNS) for r in report.rows]
    emit_rows("variety", {"pair": pair_text}, CSV_COLUMNS, rows, fmt, out)
    return EXIT_OK


def cmd_charsum(args, config) -> int:
    pair_text = merged_option(args, config, "pair")
    if not pair_text:
        raise ConfigError("charsum needs --pair")
    pair = normalize_pair(*parse_pair(pair_text))
    primes = parse_primes(merged_option(args, config, "primes", "7,11,13"))
    budget = merged_option(args, config, "budget", DEFAULT_BUDGET)
    cache_dir = merged_option(args, config, "cache_dir", "ffprog-cache")
    fmt = merged_option(args, config, "format", "csv")
    out = merged_option(args, config, "out")

    columns = ("p", "t", "real", "imag", "modulus")
    rows = []
    for p in primes:
        pair.require_char(field_new(p))
        dist = get_fibers(pair, p, budget, cache_dir)
        cs = char_sums_over_fibers(dist)
        for t in range(p):
            rows.append(
                (p, t, float(cs[t].real), float(cs[t].imag), float(abs(cs[t])))
            )
    emit_rows("charsum", {"pair": pair_text}, columns, rows, fmt, out)
    return EXIT_OK


def cmd_expander(args, config) -> int:
    poly_text = merged_option(args, config, "poly")
    if not poly_text:
        raise ConfigError("expander needs --poly")
    poly = parse_poly(poly_text)
    primes = parse_primes(merged_option(args, config, "primes", "31..101"))
    sets_text = merged_option(args, config, "sets", "random:0.5:0")
    fmt = merged_option(args, config, "format", "csv")
    out = merged_option(args, config, "out")

    columns = ("p", "a_size", "b_size", "image_size", "image_over_p")
    rows = []
    for p in primes:
        field = field_new(p)
        a, b = resolve_sets(sets_text, field, 2)
        size = expander_image(a, b, poly, field)
        rows.append((p, a.size, b.size, size, size / p))
    emit_rows("expander", {"poly": poly_text}, columns, rows, fmt, out)
    return EXIT_OK


def cmd_normalize(args, config) -> int:
    pair_text = merged_option(args, config, "pair")
    if not pair_text:
        raise ConfigError("normalize needs --pair")
    pair = normalize_pair(*parse_pair(pair_text))
    out = merged_option(args, config, "out")
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "normalize",
        "input": pair_text,
        "p1": str(pair.p1),
        "p2": str(pair.p2),
        "p2prime": str(pair.p2prime),
        "p3": None if pair.p3 is None else str(pair.p3),
        "r1": pair.r1,
        "r2": pair.r2,
        "r3": pair.r3,
        "min_char": pair.min_char,
        "swapped": pair.swapped,
        "replaced": pair.replaced,
        "pair_hash": pair.pair_hash(),
    }
    emit_json(doc, out)
    return EXIT_OK


def _certificates(rmax: int, threshold: float):
    """Every root-separation certificate up to degree rmax, in report order."""
    for r1 in range(1, rmax + 1):
        for r2 in range(r1 + 1, rmax + 1):
            yield certify_separation_unequal(r1, r2, threshold)
    for r1 in range(2, rmax + 1):
        for r3 in range(1, r1):
            yield certify_separation_equal(r1, r3, threshold)


def cmd_certify(args, config) -> int:
    rmax = merged_option(args, config, "rmax", MAX_CERT_DEGREE)
    if not 1 <= rmax <= MAX_CERT_DEGREE:
        raise ConfigError(f"rmax must lie in [1, {MAX_CERT_DEGREE}]")
    threshold = merged_option(args, config, "threshold", 1e-6)
    fmt = merged_option(args, config, "format", "csv")
    out = merged_option(args, config, "out")

    certs = list(_certificates(rmax, threshold))
    columns = ("case", "param1", "param2", "min_modulus", "threshold", "pass")
    rows = [
        (c.case_tag, c.params[0], c.params[1], c.min_modulus, c.threshold, c.passed)
        for c in certs
    ]
    emit_rows("certify", {"rmax": rmax}, columns, rows, fmt, out)
    return EXIT_OK if all(c.passed for c in certs) else EXIT_CHECK_FAILED


def _verify_instances(pairs, primes, base_seed):
    """Deterministic (pair, prime, seed-triple) grid for the checks."""
    for i, pair in enumerate(pairs):
        for j, p in enumerate(primes):
            for k in range(3):
                seed = base_seed + 1009 * i + 101 * j + 3 * k
                yield i, pair, p, seed


def cmd_verify(args, config) -> int:
    pair_text = merged_option(args, config, "pair")
    pair_texts = [pair_text] if pair_text else list(DEFAULT_VERIFY_PAIRS)
    pairs = [normalize_pair(*parse_pair(t)) for t in pair_texts]
    primes = parse_primes(merged_option(args, config, "primes", DEFAULT_VERIFY_PRIMES))
    budget = merged_option(args, config, "budget", DEFAULT_BUDGET)
    cache_dir = merged_option(args, config, "cache_dir", "ffprog-cache")
    workers = merged_option(args, config, "workers", 1)
    base_seed = merged_option(args, config, "seed", 0)
    rmax = merged_option(args, config, "rmax", MAX_CERT_DEGREE)
    threshold = merged_option(args, config, "threshold", 1e-6)
    out = merged_option(args, config, "out")
    only = merged_option(args, config, "only")
    selected = set(VERIFY_CHECKS)
    if only:
        selected = {tok.strip() for tok in only.split(",") if tok.strip()}
        unknown = selected - set(VERIFY_CHECKS)
        if unknown:
            raise ConfigError(
                f"unknown checks {sorted(unknown)}; pick from {list(VERIFY_CHECKS)}"
            )

    for pair in pairs:
        for p in primes:
            pair.require_char(field_new(p))

    # fiber distributions, via the cache; corruption surfaces as check failures
    fibers = {}
    fiber_errors = {}
    if selected & FIBER_CHECKS:
        for i, pair in enumerate(pairs):
            for p in primes:
                try:
                    fibers[(i, p)] = get_fibers(
                        pair, p, budget, cache_dir, strict_cache=True
                    )
                except CorruptFiberFile as exc:
                    fiber_errors[(i, p)] = str(exc)

    rows = []

    def record(check, instance, ok, detail=""):
        rows.append((check, instance, "PASS" if ok else "FAIL", detail))

    for i, pair in enumerate(pairs):
        label = pair_texts[i]
        if "lm" in selected:
            aux = build_aux_system(pair)
            record("lm", label, verify_lm_claims(aux, pair))
        if "weil" in selected:
            polys = {}
            for poly in (pair.p1, pair.p2, pair.p2prime):
                polys.setdefault(str(poly), poly)
            for text, poly in sorted(polys.items()):
                worst = 0.0
                for p in primes:
                    if poly.degree >= p:
                        continue
                    worst = max(worst, weil_ratio(poly, field_new(p)))
                record(
                    "weil",
                    f"{label} [{text}]",
                    worst <= 1.0 + 1e-9,
                    f"max_ratio={worst!r}",
                )
        for p in primes:
            key = (i, p)
            tag = f"{label} p={p}"
            if "sandwich" in selected:
                if key in fiber_errors:
                    record("sandwich", tag, False, fiber_errors[key])
                else:
                    d = fibers[key]
                    ok = p**4 <= d.v_size <= pair.r1**2 * pair.r2**2 * p**4
                    record("sandwich", tag, ok, f"v_size={d.v_size}")

    for i, pair, p, seed in _verify_instances(pairs, primes, base_seed):
        label = f"{pair_texts[i]} p={p} seed={seed}"
        field = field_new(p)
        key = (i, p)
        if "decomposition" in selected:
            a = random_subset(field, 0.5, seed)
            b = random_subset(field, 0.5, seed + 1)
            c = random_subset(field, 0.5, seed + 2)
            resid = decomposition_residual(a, b, c, pair.p1, pair.p2, field)
            record("decomposition", label, resid < 1e-10, f"residual={resid!r}")
        if selected & {"prop22", "spectral"}:
            f0 = balance(random_subset(field, 0.5, seed))
            f1 = balance(random_subset(field, 0.5, seed + 1))
            f2 = balance(random_subset(field, 0.5, seed + 2))
            if key in fiber_errors:
                for check in ("prop22", "spectral"):
                    if check in selected:
                        record(check, label, False, fiber_errors[key])
            else:
                dist = fibers[key]
                if "prop22" in selected:
                    lhs, rhs = prop22_sides(f0, f1, f2, pair, dist)
                    record(
                        "prop22",
                        label,
                        lhs <= rhs + 1e-9,
                        f"lhs={lhs!r} rhs={rhs!r}",
                    )
                if "spectral" in selected:
                    direct = lambda_prime(f2, f2, dist)
                    spectral = lambda_prime_spectral(f2, dist)
                    rel = abs(direct - spectral) / max(abs(direct), 1e-12)
                    record("spectral", label, rel < 1e-8, f"rel={rel!r}")

    if "certificates" in selected:
        certs = list(_certificates(rmax, threshold))
        ok = all(c.passed for c in certs)
        worst = min((c.min_modulus for c in certs), default=float("inf"))
        record("certificates", f"rmax={rmax}", ok, f"min_modulus={worst!r}")

    rows.sort(key=lambda r: (VERIFY_CHECKS.index(r[0]), r[1]))
    failed = [r for r in rows if r[2] == "FAIL"]
    for check, instance, status, detail in rows:
        line = f"{status:4s} {check:14s} {instance}"
        if detail and status == "FAIL":
            line += f"  ({detail})"
        print(line)
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")

    if out:
        doc = {
            "schema": SCHEMA_VERSION,
            "command": "verify",
            "rows": [
                {"check": c, "instance": i, "status": s, "detail": d}
                for c, i, s, d in rows
            ],
            "passed": not failed,
        }
        emit_json(doc, out)
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


# --- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffprog",
        description="Progression counting and variety experiments over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("count", "variety", "charsum", "verify", "expander", "normalize", "certify"):
        p = sub.add_parser(name)
        p.add_argument("--pair", help='polynomial pair, e.g. "y,y^2"')
        p.add_argument("--poly", help='single polynomial (expander), e.g. "y^2"')
        p.add_argument("--primes", help='range "a..b" or comma list; non-primes dropped')
        p.add_argument("--sets", help="subset specs: files or random:<density>:<seed>")
        p.add_argument("--seed", type=int, help="base seed for seeded sweeps")
        p.add_argument("--budget", type=int, help="work cap for fiber enumeration")
        p.add_argument("--workers", type=int, help="parallel enumeration jobs")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), help="report format")
        p.add_argument("--config", help="flat key=value config file; flags win")
        p.add_argument("--cache-dir", dest="cache_dir", help="fiber file cache directory")
        p.add_argument("--oracle", choices=sorted(ENUMERATORS), help="enumerator to use")
        p.add_argument("--only", help="verify: comma list of checks to run")
        p.add_argument("--rmax", type=int, help="certificate degree cap (<= 12)")
        p.add_argument("--threshold", type=float, help="certificate threshold")
    return parser


COMMANDS = {
    "count": cmd_count,
    "variety": cmd_variety,
    "charsum": cmd_charsum,
    "verify": cmd_verify,
    "expander": cmd_expander,
    "normalize": cmd_normalize,
    "certify": cmd_certify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(parser, args.command, args.config) if args.config else {}
        return COMMANDS[args.command](args, config)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (ConfigError, Inadmissible, BadDensity, NotPrime, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CharTooSmall, BadCharacteristic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHAR
    except WorkBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FFProgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
