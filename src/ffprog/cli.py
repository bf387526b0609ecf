"""Command-line front end: sweeps, reports, verification, oracle toggles.

Subcommands
-----------
count      exact progression counts over a prime sweep
variety    fiber histograms + growth report (writes cacheable fiber files)
charsum    normalized character sums over the fibers, full vector per prime
verify     run the invariant checks and print a pass/fail table
expander   image sizes of u + P(v - u) on A x B
normalize  show the normalized form of a pair (degrees, min_char, hash)
certify    root-separation certificates up to a degree cap

Exit codes: 0 success, 1 failed verification/certification, 2 bad
configuration, inadmissible input, or a path or stdout that cannot be read
or written, 3 characteristic too small, 4 work budget exceeded or an
allocation that failed.

Reports are deterministic: JSON is dumped with sorted keys, CSV rows are
emitted in sorted sweep order, and all randomness flows from --seed through
the package's pinned generator.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple

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
    WorkBudgetExceeded,
)
from .field import MAX_P, field_new, is_prime
from .files import probe_write, read_text, write_text_atomic
from .fourier import char_sums_over_fibers, lambda_prime_spectral, weil_ratio
from .polys import build_aux_system, normalize_pair, parse_pair, parse_poly
from .setfun import balance, parse_random_spec, parse_subset, random_subset
from .symbolic import (
    DEFAULT_THRESHOLD,
    MAX_CERT_DEGREE,
    certify_separation_equal,
    certify_separation_unequal,
    verify_lm_claims,
)
from .variety import (
    DEFAULT_BUDGET,
    ENUMERATORS,
    FiberDistribution,
    GrowthRow,
    SCHEMA_VERSION,
    admit,
    fiber_builder,
    growth_report,
    v_bounds,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_CHAR = 3
EXIT_BUDGET = 4
# The exit code of each error that main reports; any other one exits EXIT_CONFIG.
# A MemoryError means that an array, sized by the prime, could not be allocated.
ERROR_EXITS = {
    CharTooSmall: EXIT_CHAR, BadCharacteristic: EXIT_CHAR,
    WorkBudgetExceeded: EXIT_BUDGET, MemoryError: EXIT_BUDGET,
}

DEFAULT_VERIFY_PAIRS = ("y,y^2", "y^2,y^3", "y,y^3", "2*y^2,y^2+y")
# Longest '--primes a..b' range; each candidate costs a Miller-Rabin test
# (a few microseconds), so the walk stays well under a second.
MAX_PRIME_RANGE = 10**5


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _fs_errors(what: str):
    """An OSError raised inside, at a path the user named or at stdout,
    becomes ConfigError(f"cannot {what}: <strerror>"), so it exits 2."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot {what}: {exc.strerror}") from exc


# --- flag types ------------------------------------------------------------------


def parse_primes(text: str) -> list[int]:
    """'a..b' (inclusive, primality-filtered) or a comma list (filtered)."""
    text = text.strip()
    if ".." in text:
        lo, hi = sorted(int(s) for s in text.split("..", 1))
        if hi >= MAX_P:
            raise ConfigError(f"prime range {text!r} must stay below 2**31")
        if hi - lo >= MAX_PRIME_RANGE:
            raise ConfigError(
                f"prime range {text!r} spans more than {MAX_PRIME_RANGE} integers"
            )
        candidates = range(lo, hi + 1)
    else:
        candidates = [int(tok) for tok in text.split(",") if tok.strip()]
        if max(candidates, default=0) >= MAX_P:
            raise ConfigError(f"prime list {text!r} must stay below 2**31")
    primes = sorted({n for n in candidates if n >= 2 and is_prime(n)})
    if not primes:
        raise ConfigError(f"no primes in {text!r}")
    return primes


def parse_checks(text: str) -> set[str]:
    """Comma list of verify checks; verify runs all of them for an empty list."""
    selected = {tok.strip() for tok in text.split(",") if tok.strip()}
    unknown = selected - set(VERIFY_CHECKS)
    if unknown:
        raise ConfigError(
            f"unknown checks {sorted(unknown)}; pick from {list(VERIFY_CHECKS)}"
        )
    return selected


def cert_threshold(text: str) -> float:
    threshold = float(text)
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ConfigError("threshold must be a finite number >= 0")
    return threshold


# argparse's "invalid <name> value" message names the flag
parse_primes.__name__ = "primes"
parse_checks.__name__ = "only"
cert_threshold.__name__ = "threshold"


def at_least(low: int, name: str, high: float = math.inf):
    """Flag type: an integer in [low, high], else a ConfigError that names the flag."""
    rule = (f"be >= {low}" if high == math.inf else
            f"be {low}" if high == low else f"lie in [{low}, {high}]")

    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise ConfigError(f"{name} must {rule}")
        return value

    parse.__name__ = name
    return parse


# argparse spec of every flag; the flag --cache-dir is the key cache_dir.
FLAGS = {
    "pair": dict(help='polynomial pair, e.g. "y,y^2"'),
    "poly": dict(help='single polynomial, e.g. "y^2"'),
    "primes": dict(type=parse_primes, help='"a..b" or comma list; non-primes dropped'),
    "sets": dict(help="subset specs: files or random:<density>:<seed>"),
    "seed": dict(type=at_least(0, "seed"), help="base seed for the seeded checks (>= 0)"),
    "budget": dict(type=at_least(1, "budget"), help="work cap for fiber enumeration (>= 1)"),
    # fiber jobs run one after another; the flag stays while bench/workloads.py passes 1
    "workers": dict(type=at_least(1, "workers", 1), help="fiber jobs at a time; must be 1"),
    "out": dict(help="write the report here instead of stdout"),
    "format": dict(choices=("json", "csv"), help="report format"),
    "config": dict(help="flat key=value config file; flags win"),
    "cache_dir": dict(help="fiber file cache directory"),
    "oracle": dict(
        choices=sorted(ENUMERATORS),
        help="enumerator to use (default: the closed form for degrees (1, 2), else fast)",
    ),
    "only": dict(type=parse_checks, help="comma list of checks to run"),
    "rmax": dict(
        type=at_least(1, "rmax", MAX_CERT_DEGREE),
        help=f"certificate degree cap, 1..{MAX_CERT_DEGREE}",
    ),
    "threshold": dict(type=cert_threshold, help="certificate threshold, finite and >= 0"),
}

REQUIRED = object()  # a default meaning "the subcommand exits 2 without this flag"

# The flags each subcommand takes, with their defaults there; every
# subcommand also takes --config.
COMMAND_FLAGS = {
    "count": dict(
        pair=REQUIRED, primes="31..101", sets="random:0.5:0", format="csv", out=None
    ),
    "variety": dict(
        pair=REQUIRED, primes="7,11,13", budget=DEFAULT_BUDGET, cache_dir="ffprog-cache",
        workers=1, oracle=None, format="csv", out=None,
    ),
    "charsum": dict(
        pair=REQUIRED, primes="7,11,13", budget=DEFAULT_BUDGET, cache_dir="ffprog-cache",
        format="csv", out=None,
    ),
    "verify": dict(
        pair=None, primes="31,41,53", budget=DEFAULT_BUDGET, cache_dir="ffprog-cache",
        workers=1, seed=0, only=None, rmax=MAX_CERT_DEGREE, threshold=DEFAULT_THRESHOLD,
        out=None,
    ),
    "expander": dict(
        poly=REQUIRED, primes="31..101", sets="random:0.5:0", format="csv", out=None
    ),
    "normalize": dict(pair=REQUIRED, out=None),
    "certify": dict(rmax=MAX_CERT_DEGREE, threshold=DEFAULT_THRESHOLD, format="csv", out=None),
}


class _Parser(argparse.ArgumentParser):
    """argparse, with --help written like a report: a stdout that cannot
    take it exits 2 with one error line (subcommand parsers are this class too)."""

    def print_help(self, file=None):
        if file is None:
            _write_report(self.format_help(), None)
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ffprog",
        description="Progression counting and variety experiments over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, defaults in COMMAND_FLAGS.items():
        p = sub.add_parser(command)
        for name, default in {**defaults, "config": None}.items():
            p.add_argument(
                "--" + name.replace("_", "-"),
                default=None if default is REQUIRED else default,
                **FLAGS[name],
            )
    return parser


def load_config(path: str) -> list[str]:
    """A flat key = value file as '--key=value' tokens, so its values go
    through the same parser, types and choices as the flags."""
    with _fs_errors(f"read config file {path!r}"):
        text = read_text(path)
    tokens = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        tokens.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return tokens


def resolve_sets(spec_text: str, field, how_many: int) -> list:
    """Split a comma-joined spec list; a single random spec fans out by
    bumping its seed once per extra set."""
    parts = [s.strip() for s in spec_text.split(",") if s.strip()]
    if len(parts) not in (1, how_many):
        raise ConfigError(
            f"--sets needs 1 or {how_many} comma-separated specs, got {len(parts)}"
        )
    try:
        if len(parts) == how_many:
            return [parse_subset(s, field) for s in parts]
        if parts[0].startswith("random:"):
            density, seed = parse_random_spec(parts[0])
            return [random_subset(field, density, seed + k) for k in range(how_many)]
        return [parse_subset(parts[0], field)] * how_many
    except (ValueError, BadDensity) as exc:
        raise ConfigError(f"--sets: {exc}") from None


# --- fiber cache ---------------------------------------------------------------


def fiber_path(cache_dir: str, pair, p: int) -> str:
    return os.path.join(cache_dir, f"fibers_{pair.pair_hash()}_{p}.json")


def cached_fibers(cache_dir: str, pair, p: int, strict_cache: bool):
    """One read of the cached fiber file of (pair, p): its distribution; with
    strict_cache, the CorruptFiberFile of a corrupt file (verify must surface
    tampering, not heal it); or None when the file must be built, because it
    is missing, or corrupt outside strict_cache."""
    path = fiber_path(cache_dir, pair, p)
    if not os.path.exists(path):
        return None
    try:
        return FiberDistribution.load(path, pair, p)
    except CorruptFiberFile as exc:
        return exc if strict_cache else None


def get_fibers(pair, p: int, budget: int, cache_dir: str, oracle: str | None, cached):
    """The fibers of one (pair, p), the last step of warm_fibers' one pass
    (characteristic gate, one read per cached file, budget gate, write probe,
    build): the pre-pass result cached when there is one, else a fresh
    build by fiber_builder(pair, oracle), saved to the cache."""
    if cached is not None:
        return cached
    dist = fiber_builder(pair, oracle)[1](pair, field_new(p), budget=budget)
    path = fiber_path(cache_dir, pair, p)
    with _fs_errors(f"write fiber file {path!r}"):
        dist.save(path)
    return dist


def warm_fibers(pairs, primes, budget, cache_dir, oracle=None, strict_cache=False):
    """get_fibers for every (pair, p), keyed by (pair.key(), p), each built
    by fiber_builder(pair, oracle).  Every job is decided before any build,
    in this order: the characteristic gate on all of them; one read of each
    cached file (cached_fibers, so with strict_cache a corrupt file yields
    its CorruptFiberFile as the value); then, for the jobs that must be
    built only, the budget gate and a write probe of their fiber files,
    which first makes the cache directory; then the builds, one after
    another in sweep order, so a failed build stops the sweep before the
    next one starts."""
    jobs = [(pair, p) for pair in pairs for p in primes]
    fields = {p: field_new(p) for p in primes}
    for pair, p in jobs:
        pair.require_char(fields[p])
    cached = [cached_fibers(cache_dir, pair, p, strict_cache) for pair, p in jobs]
    build = [job for job, hit in zip(jobs, cached) if hit is None]
    for pair, p in build:
        admit(pair, fields[p], budget, fiber_builder(pair, oracle)[0])
    for pair, p in build:
        path = fiber_path(cache_dir, pair, p)
        with _fs_errors(f"write fiber file {path!r}"):
            os.makedirs(cache_dir or os.curdir, exist_ok=True)  # '' is the working directory
            probe_write(path)
    return {
        (pair.key(), p): get_fibers(pair, p, budget, cache_dir, oracle, hit)
        for (pair, p), hit in zip(jobs, cached)
    }


# --- report emission -------------------------------------------------------------


def check_cache_dir(cache_dir: str | None) -> None:
    """Fail before any work on a --cache-dir that is, or lies under, a
    file other than a directory: the cache could never be made there."""
    if not cache_dir:
        return
    path = os.path.abspath(cache_dir)
    while not os.path.exists(path):  # up to its nearest existing ancestor
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--cache-dir {cache_dir!r}: {os.strerror(errno.ENOTDIR)}")


def check_out(out: str | None, cache_dir: str | None) -> None:
    """Fail before any work on an --out the report cannot be written to: a
    probe creates and removes write_text_atomic's temp file, so the file
    system gives the answer.  A missing directory passes only when it is the
    cache directory or one of its ancestors; the cache directory is then made
    here, since a run that reads no fibers would never make it."""
    if not out:
        return
    target = os.path.dirname(os.path.abspath(out))
    with _fs_errors(f"write --out {out!r}"):
        if out.endswith((os.sep, os.altsep or os.sep)):  # abspath drops the separator
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        if cache_dir is not None and not os.path.exists(target) and os.path.commonpath(
            [target, os.path.abspath(cache_dir)]
        ) == target:
            os.makedirs(cache_dir, exist_ok=True)
        probe_write(out)


def _write_report(text: str, out: str | None) -> None:
    # a missing or unwritable --out directory, say, or a reader that has gone
    with _fs_errors(f"write --out {out!r}" if out else "write to stdout"):
        if out:
            write_text_atomic(out, text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()  # a closed stdout raises here, not at exit


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


def cmd_count(args) -> int:
    p1, p2 = parse_pair(args.pair)
    pair = normalize_pair(p1, p2)
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
    for p in args.primes:
        field = field_new(p)
        pair.require_char(field)
        a, b, c = resolve_sets(args.sets, field, 3)
        rep = count_progressions(a, b, c, p1, p2, field)
        ratio = float(rep.error) / rep.bound if rep.bound > 0 else 0.0
        rows.append(
            (
                p,
                args.pair,
                a.size,
                b.size,
                c.size,
                rep.exact_count,
                float(rep.expected),
                float(rep.error),
                ratio,
            )
        )
    emit_rows("count", {"pair": args.pair}, columns, rows, args.format, args.out)
    return EXIT_OK


def cmd_variety(args) -> int:
    pair = normalize_pair(*parse_pair(args.pair))
    fibers = warm_fibers([pair], args.primes, args.budget, args.cache_dir, args.oracle)
    rows = growth_report({p: fibers[(pair.key(), p)] for p in args.primes})
    emit_rows("variety", {"pair": args.pair}, GrowthRow._fields, rows, args.format, args.out)
    return EXIT_OK


def cmd_charsum(args) -> int:
    pair = normalize_pair(*parse_pair(args.pair))
    columns = ("p", "t", "real", "imag", "modulus")
    fibers = warm_fibers([pair], args.primes, args.budget, args.cache_dir)
    rows = []
    for p in args.primes:
        cs = char_sums_over_fibers(fibers[(pair.key(), p)])
        for t in range(p):
            rows.append(
                (p, t, float(cs[t].real), float(cs[t].imag), float(abs(cs[t])))
            )
    emit_rows("charsum", {"pair": args.pair}, columns, rows, args.format, args.out)
    return EXIT_OK


def cmd_expander(args) -> int:
    poly = parse_poly(args.poly)
    columns = ("p", "a_size", "b_size", "image_size", "image_over_p")
    rows = []
    for p in args.primes:
        field = field_new(p)
        a, b = resolve_sets(args.sets, field, 2)
        size = expander_image(a, b, poly, field)
        rows.append((p, a.size, b.size, size, size / p))
    emit_rows("expander", {"poly": args.poly}, columns, rows, args.format, args.out)
    return EXIT_OK


def cmd_normalize(args) -> int:
    pair = normalize_pair(*parse_pair(args.pair))
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "normalize",
        "input": args.pair,
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
    emit_json(doc, args.out)
    return EXIT_OK


def _certificates(rmax: int, threshold: float):
    """Every root-separation certificate up to degree rmax, in report order."""
    for r1 in range(1, rmax + 1):
        for r2 in range(r1 + 1, rmax + 1):
            yield certify_separation_unequal(r1, r2, threshold)
    for r1 in range(2, rmax + 1):
        for r3 in range(1, r1):
            yield certify_separation_equal(r1, r3, threshold)


def cmd_certify(args) -> int:
    certs = list(_certificates(args.rmax, args.threshold))
    columns = ("case", "param1", "param2", "min_modulus", "threshold", "pass")
    rows = [
        (c.case_tag, c.params[0], c.params[1], c.min_modulus, c.threshold, c.passed)
        for c in certs
    ]
    emit_rows("certify", {"rmax": args.rmax}, columns, rows, args.format, args.out)
    return EXIT_OK if all(c.passed for c in certs) else EXIT_CHECK_FAILED


# --- verify checks ---------------------------------------------------------------
#
# Every check yields (instance, ok, detail) rows.  Its scope says how often it
# runs and with which keyword arguments besides the row label:
#   "pair"      once per pair: pair, fields (one per prime)
#   "fibers"    once per (pair, p): pair, field, dist
#   "instance"  three seeded instances per (pair, p): pair, field, dist, and
#               subsets, balanced (A, B, C and their balanced indicators)
#   "once"      rmax, threshold
# dist is the pair's fiber distribution at p.  It is read only by checks
# marked reads_fibers, and for those a corrupt fiber file is a FAIL row.


def _check_lm(label, pair, **_):
    yield label, verify_lm_claims(build_aux_system(pair), pair), ""


def _check_weil(label, pair, fields, **_):
    """One row per distinct polynomial among P1, P2, P2'."""
    polys = {}
    for poly in (pair.p1, pair.p2, pair.p2prime):
        polys.setdefault(str(poly), poly)
    for text, poly in sorted(polys.items()):
        worst = max([0.0] + [weil_ratio(poly, f) for f in fields if poly.degree < f.p])
        yield f"{label} [{text}]", worst <= 1.0 + 1e-9, f"max_ratio={worst!r}"


def _check_sandwich(label, pair, field, dist, **_):
    low, high = v_bounds(pair, field.p)
    yield label, low <= dist.v_size <= high, f"v_size={dist.v_size}"


def _check_decomposition(label, pair, field, subsets, **_):
    resid = decomposition_residual(*subsets, pair.p1, pair.p2, field)
    yield label, resid < 1e-10, f"residual={resid!r}"


def _check_prop22(label, pair, balanced, dist, **_):
    lhs, rhs = prop22_sides(*balanced, pair, dist)
    yield label, lhs <= rhs + 1e-9, f"lhs={lhs!r} rhs={rhs!r}"


def _check_spectral(label, balanced, dist, **_):
    f2 = balanced[2]
    direct = lambda_prime(f2, f2, dist)
    spectral = lambda_prime_spectral(f2, dist)
    rel = abs(direct - spectral) / max(abs(direct), 1e-12)
    yield label, rel < 1e-8, f"rel={rel!r}"


def _check_certificates(label, rmax, threshold):
    certs = list(_certificates(rmax, threshold))
    worst = min((c.min_modulus for c in certs), default=float("inf"))
    yield label, all(c.passed for c in certs), f"min_modulus={worst!r}"


class VerifyCheck(NamedTuple):
    scope: str
    run: Callable
    reads_fibers: bool = False


# Every verify check, in report order.
VERIFY_CHECKS = {
    "decomposition": VerifyCheck("instance", _check_decomposition),
    "prop22": VerifyCheck("instance", _check_prop22, reads_fibers=True),
    "spectral": VerifyCheck("instance", _check_spectral, reads_fibers=True),
    "weil": VerifyCheck("pair", _check_weil),
    "sandwich": VerifyCheck("fibers", _check_sandwich, reads_fibers=True),
    "lm": VerifyCheck("pair", _check_lm),
    "certificates": VerifyCheck("once", _check_certificates),
}


def cmd_verify(args) -> int:
    pair_texts = [args.pair] if args.pair else list(DEFAULT_VERIFY_PAIRS)
    pairs = [normalize_pair(*parse_pair(t)) for t in pair_texts]
    fields = [field_new(p) for p in args.primes]
    for pair in pairs:
        for field in fields:
            pair.require_char(field)
    checks = {n: c for n, c in VERIFY_CHECKS.items() if not args.only or n in args.only}

    # fiber distributions, via the cache; corruption surfaces as check failures
    fibers = {}
    if any(c.reads_fibers for c in checks.values()):
        fibers = warm_fibers(pairs, args.primes, args.budget, args.cache_dir, strict_cache=True)

    rows = []

    def run(scope, label, **context):
        dist = context.get("dist")
        for name, check in checks.items():
            if check.scope != scope:
                continue
            if check.reads_fibers and isinstance(dist, CorruptFiberFile):
                rows.append((name, label, "FAIL", str(dist)))
                continue
            for instance, ok, detail in check.run(label, **context):
                rows.append((name, instance, "PASS" if ok else "FAIL", detail))

    seeded = any(c.scope == "instance" for c in checks.values())
    for i, (text, pair) in enumerate(zip(pair_texts, pairs)):
        key = pair.key()
        run("pair", text, pair=pair, fields=fields)
        for j, field in enumerate(fields):
            p = field.p
            dist = fibers.get((key, p))
            run("fibers", f"{text} p={p}", pair=pair, field=field, dist=dist)
            for k in range(3) if seeded else ():
                seed = args.seed + 1009 * i + 101 * j + 3 * k
                subsets = [random_subset(field, 0.5, seed + n) for n in range(3)]
                balanced = [balance(s) for s in subsets]
                run(
                    "instance", f"{text} p={p} seed={seed}", pair=pair, field=field,
                    dist=dist, subsets=subsets, balanced=balanced,
                )
    run("once", f"rmax={args.rmax}", rmax=args.rmax, threshold=args.threshold)

    order = list(VERIFY_CHECKS)
    rows.sort(key=lambda r: (order.index(r[0]), r[1]))
    failed = [r for r in rows if r[2] == "FAIL"]
    table = [f"{s:4s} {c:14s} {i}" + (f"  ({d})" if d and s == "FAIL" else "")
             for c, i, s, d in rows]
    table.append(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    _write_report("\n".join(table) + "\n", None)

    if args.out:
        columns = ("check", "instance", "status", "detail")
        emit_rows("verify", {"passed": not failed}, columns, rows, "json", args.out)
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's tokens go first; argparse keeps the last value, so flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *load_config(args.config), *argv[at:]])
        for name, default in COMMAND_FLAGS[args.command].items():
            if default is REQUIRED and not getattr(args, name):
                raise ConfigError(f"{args.command} needs --{name}")
        cache_dir = getattr(args, "cache_dir", None)
        check_cache_dir(cache_dir)
        check_out(args.out, cache_dir)
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except (ConfigError, ValueError, FFProgError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(
            (code for cls, code in ERROR_EXITS.items() if isinstance(exc, cls)), EXIT_CONFIG
        )


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
