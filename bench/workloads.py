"""The benchmark's workloads: ffprog command lists, their set-up and their output checks.

Each workload is closed-loop and single-process: one iteration runs its
command list through ``ffprog.cli.main`` in order, and the next iteration
starts when the last command returns.  The workload seed reaches the program
only as ``--seed`` values and ``random:`` subset specs.

Integer outputs are checked against values that do not come from the timed
path: fiber statistics recorded in ``reference.json`` from the seed commit,
and progression counts recomputed here by bitset rotation, which shares no
code with ffprog.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

WARM_PRIMES = "31..73"
COUNT_PAIR = "y,y^2"
COUNT_PRIMES = (10007, 30011)


class Workload:
    name = ""
    setups = 11  # set-ups per run; setup_s is their median
    focus: tuple[str, ...] = ()  # per-layer spans this workload was chosen for

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.cache = work / "cache"

    def setup_commands(self) -> list[list[str]]:
        return []

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def expect(self) -> None:
        """Compute reference values before timing starts."""

    def reset(self) -> None:
        """Prepare one iteration; runs outside the timed region."""

    def check(self, outputs: list[tuple[list[str], str]]) -> list[str]:
        """Problems in one iteration's (argv, --out file text) pairs."""
        return []

    def out(self, name: str) -> str:
        return str(self.work / name)


def option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _verify_problems(argv: list[str], text: str) -> list[str]:
    doc = json.loads(text)
    bad = [f"{r['check']} {r['instance']}: {r['status']}" for r in doc["rows"] if r["status"] != "PASS"]
    if not doc["rows"] or not doc["passed"] or bad:
        return [f"{' '.join(argv[:3])}: verify rows not all PASS {bad[:3]}"]
    return []


class FibersCold(Workload):
    name = "fibers-cold"
    focus = ("variety.enumerate_fibers.s",)

    def commands(self):
        common = ["--cache-dir", str(self.cache), "--workers", "1"]
        return [
            ["variety", "--pair", "y,y^2", "--primes", "151,173", *common, "--out", self.out("v1.csv")],
            ["variety", "--pair", "y^2,y^3", "--primes", "131", *common, "--out", self.out("v2.csv")],
        ]

    def reset(self):
        shutil.rmtree(self.cache, ignore_errors=True)

    def check(self, outputs):
        problems = []
        for argv, text in outputs:
            want = REFERENCE["variety"][option(argv, "--pair")]
            rows = _csv_rows(text)
            if sorted(r["p"] for r in rows) != sorted(want):
                problems.append(f"variety {option(argv, '--pair')}: primes {[r['p'] for r in rows]}")
            for row in rows:
                got = {k: int(row[k]) for k in ("v_size", "w_size", "max_fiber")}
                if got != want.get(row["p"]):
                    problems.append(f"variety {option(argv, '--pair')} p={row['p']}: {got} != {want.get(row['p'])}")
        return problems


class VerifyWarm(Workload):
    name = "verify-warm"
    setups = 5
    focus = ("counting.lambda3.s", "counting.lambda2.s", "counting.lambda_prime.s")

    def setup_commands(self):
        # The sandwich check loads the fibers of every default pair, so it fills
        # exactly the cache that the timed verify runs read.
        return [
            ["verify", "--primes", WARM_PRIMES, "--only", "sandwich", "--cache-dir", str(self.cache),
             "--workers", "1", "--out", self.out("setup.json")]
        ]

    def commands(self):
        return [
            ["verify", "--primes", WARM_PRIMES, "--seed", str(3 * self.seed + k), "--cache-dir", str(self.cache),
             "--workers", "1", "--out", self.out(f"verify-{k}.json")]
            for k in range(3)
        ]

    def expect(self):
        self.cache_files = sorted(os.listdir(self.cache))

    def check(self, outputs):
        problems = [p for argv, text in outputs for p in _verify_problems(argv, text)]
        if sorted(os.listdir(self.cache)) != self.cache_files:
            problems.append("verify wrote to the pre-filled fiber cache: set-up did not cover it")
        return problems


class LargeP(Workload):
    name = "large-p"
    focus = ("counting.count_progressions.s", "fourier.weil_ratio.s")

    def commands(self):
        return [
            ["count", "--pair", COUNT_PAIR, "--primes", ",".join(map(str, COUNT_PRIMES)),
             "--sets", f"random:0.5:{self.seed}", "--out", self.out("count.csv")],
            ["verify", "--only", "weil", "--primes", "5003", "--cache-dir", str(self.cache),
             "--workers", "1", "--out", self.out("weil.json")],
        ]

    def expect(self):
        self.counts = {str(p): count_reference(self.seed, p) for p in COUNT_PRIMES}
        pinned = REFERENCE["count"]
        if self.seed == pinned["seed"] and self.counts != pinned["rows"]:
            raise RuntimeError(f"bitset counts {self.counts} disagree with reference.json {pinned['rows']}")

    def check(self, outputs):
        (count_argv, count_text), (verify_argv, verify_text) = outputs
        problems = _verify_problems(verify_argv, verify_text)
        for row in _csv_rows(count_text):
            got = {k: int(row[k]) for k in ("a_size", "b_size", "c_size", "exact_count")}
            if got != self.counts.get(row["p"]):
                problems.append(f"count p={row['p']}: {got} != {self.counts.get(row['p'])}")
        if sorted(r["p"] for r in _csv_rows(count_text)) != sorted(self.counts):
            problems.append("count: wrong set of primes")
        return problems


WORKLOADS = {w.name: w for w in (FibersCold, VerifyWarm, LargeP)}


def _bitset(seed: int, p: int) -> tuple[int, int]:
    """The set ``random:0.5:<seed>`` denotes (one uniform draw per residue, kept
    when below 0.5) as a Python int bitset, with its size."""
    members = np.random.default_rng(seed).random(p) < 0.5
    packed = np.packbits(members, bitorder="little").tobytes()
    return int.from_bytes(packed, "little"), int(members.sum())


def count_reference(seed: int, p: int) -> dict[str, int]:
    """Exact N(A, B, C) for x, x + y, x + y^2 by rotating bitsets.

    A, B, C come from seeds seed, seed + 1, seed + 2, as a single random spec
    fans out.  Bit x of rot(X, s) is bit (x + s) mod p of X, so
    N = sum over y of popcount(A & rot(B, y) & rot(C, y^2)).
    """
    (a, na), (b, nb), (c, nc) = (_bitset(seed + k, p) for k in range(3))
    mask = (1 << p) - 1

    def rot(x: int, s: int) -> int:
        return ((x >> s) | (x << (p - s))) & mask

    n = sum((a & rot(b, y) & rot(c, y * y % p)).bit_count() for y in range(p))
    return {"a_size": na, "b_size": nb, "c_size": nc, "exact_count": n}
