"""End-to-end checks of the command line: exit codes, report bytes, cache."""

import csv
import glob
import hashlib
import json
import os

import pytest

from ffprog.cli import (
    EXIT_BUDGET,
    EXIT_CHAR,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    emit_rows,
    main,
    parse_primes,
    resolve_sets,
    ConfigError,
)
from ffprog.counting import count_progressions, expander_image
from ffprog.field import field_new
from ffprog.polys import normalize_pair, parse_pair, parse_poly
from ffprog.setfun import random_subset
from ffprog import variety
from ffprog.variety import FiberDistribution, growth_report

# sha256 of the count report for (y,y^2), primes 5,7, sets random:0.5:42.
# Regenerate with:
#   ffprog count --pair y,y^2 --primes 5,7 --sets random:0.5:42 --out report.csv
GOLDEN_COUNT_SHA = "b8380ee440eff7d3ff3966e927cb1bbfef237211eebcd0cd11e7d6912ba486a7"


def run_count(tmp_path, name, extra=()):
    out = tmp_path / name
    rc = main(
        [
            "count",
            "--pair",
            "y,y^2",
            "--primes",
            "5,7",
            "--sets",
            "random:0.5:42",
            "--out",
            str(out),
            *extra,
        ]
    )
    return rc, out.read_bytes()


# --- option parsing ----------------------------------------------------------


def test_parse_primes_range_filters_composites():
    assert parse_primes("10..20") == [11, 13, 17, 19]


def test_parse_primes_list_dedupes_and_sorts():
    assert parse_primes("7,5,7,9") == [5, 7]


def test_parse_primes_empty_raises():
    with pytest.raises(ConfigError):
        parse_primes("4")


def test_parse_primes_range_past_max_p_fails_fast():
    # a walk over this range with Miller-Rabin would run for hours
    with pytest.raises(ConfigError):
        parse_primes("2..100000000000")
    with pytest.raises(ConfigError):
        parse_primes(f"{2**31}..3")
    assert main(["count", "--pair", "y,y^2", "--primes", "2..100000000000"]) == EXIT_CONFIG


def test_resolve_sets_random_fanout_bumps_seed():
    field = field_new(31)
    sets = resolve_sets("random:0.5:7", field, 3)
    assert sets[0].members == random_subset(field, 0.5, 7).members
    assert sets[1].members == random_subset(field, 0.5, 8).members
    assert sets[2].members == random_subset(field, 0.5, 9).members


def test_resolve_sets_single_file_reused(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("1\n2\n3\n")
    sets = resolve_sets(str(path), field_new(7), 3)
    assert len(sets) == 3
    assert sets[0].members == sets[2].members == (1, 2, 3)


def test_resolve_sets_wrong_count():
    with pytest.raises(ConfigError):
        resolve_sets("random:0.5:1,random:0.5:2", field_new(7), 3)


# --- exit codes -------------------------------------------------------------


def test_no_primes_is_config_error():
    assert main(["count", "--pair", "y,y^2", "--primes", "4"]) == EXIT_CONFIG


def test_inadmissible_pair_is_config_error():
    assert main(["count", "--pair", "y,2*y", "--primes", "7"]) == EXIT_CONFIG


def test_char_too_small_exit():
    assert main(["count", "--pair", "y^2,y^3", "--primes", "3"]) == EXIT_CHAR


def test_budget_exceeded_exit(tmp_path):
    rc = main(
        [
            "variety",
            "--pair",
            "y,y^2",
            "--primes",
            "7",
            "--budget",
            "5",
            "--cache-dir",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_BUDGET


def test_unknown_subcommand_is_config_error(capsys):
    assert main(["bogus"]) == EXIT_CONFIG
    capsys.readouterr()


def test_unknown_verify_check_is_config_error():
    assert main(["verify", "--only", "nonsense"]) == EXIT_CONFIG


def test_missing_pair_is_config_error():
    assert main(["count", "--primes", "7"]) == EXIT_CONFIG


def test_help_exits_clean(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "count" in capsys.readouterr().out


def test_missing_config_file_is_config_error():
    assert main(["count", "--config", "/nonexistent/conf"]) == EXIT_CONFIG


def test_malformed_config_line(tmp_path):
    conf = tmp_path / "c.txt"
    conf.write_text("pair y,y^2\n")
    assert main(["count", "--config", str(conf)]) == EXIT_CONFIG


# --- count reports ------------------------------------------------------------


def test_count_golden_bytes(tmp_path):
    rc, data = run_count(tmp_path, "r.csv")
    assert rc == EXIT_OK
    assert hashlib.sha256(data).hexdigest() == GOLDEN_COUNT_SHA


def test_count_rows_match_library(tmp_path):
    rc, data = run_count(tmp_path, "r.csv")
    assert rc == EXIT_OK
    rows = list(csv.DictReader(data.decode().splitlines()))
    assert [r["p"] for r in rows] == ["5", "7"]
    p1, p2 = parse_pair("y,y^2")
    for row in rows:
        field = field_new(int(row["p"]))
        a = random_subset(field, 0.5, 42)
        b = random_subset(field, 0.5, 43)
        c = random_subset(field, 0.5, 44)
        rep = count_progressions(a, b, c, p1, p2, field)
        assert int(row["exact_count"]) == rep.exact_count
        assert float(row["expected"]) == pytest.approx(float(rep.expected))


def test_count_deterministic_bytes(tmp_path):
    _, first = run_count(tmp_path, "r1.csv")
    _, second = run_count(tmp_path, "r2.csv")
    assert first == second


def test_count_json_schema(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        [
            "count",
            "--pair",
            "y,y^2",
            "--primes",
            "5",
            "--sets",
            "random:0.5:42",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["command"] == "count"
    assert doc["rows"][0]["p"] == 5
    assert out.read_text().endswith("\n")


def test_config_file_flags_override(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("pair = y,y^2\nprimes = 5,7\nsets = random:0.5:42\n")
    out = tmp_path / "r.csv"
    rc = main(["count", "--config", str(conf), "--primes", "11", "--out", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["p"] for r in rows] == ["11"]


def test_config_values_checked_like_flags(tmp_path, capsys):
    out = tmp_path / "r.csv"
    base = "pair = y,y^2\nprimes = 5\n"
    for bad in ("format = xml", "workers = two", "oracle = psychic", "colour = blue"):
        conf = tmp_path / "conf.txt"
        conf.write_text(f"{base}{bad}\n")
        assert main(["count", "--config", str(conf), "--out", str(out)]) == EXIT_CONFIG, bad
        assert not out.exists()
    conf.write_text(f"{base}format = json\n")
    assert main(["count", "--config", str(conf), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["command"] == "count"
    assert main(["count", "--config", str(conf), "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert out.read_text().startswith("p,pair,")


def test_failed_report_write_keeps_old_report(tmp_path):
    out = tmp_path / "r.csv"
    emit_rows("count", {}, ("p",), [(5,)], "csv", str(out))
    before = out.read_bytes()
    # a lone surrogate cannot be encoded, so the write fails midway
    with pytest.raises(UnicodeEncodeError):
        emit_rows("count", {}, ("p",), [(7,), ("\ud800",)], "csv", str(out))
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["r.csv"]


# --- variety and fiber cache -----------------------------------------------------


def test_variety_rows_match_growth_report(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(
        [
            "variety",
            "--pair",
            "y,y^2",
            "--primes",
            "5,7",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    pair = normalize_pair(*parse_pair("y,y^2"))
    report = growth_report(pair, [5, 7])
    for row, ref in zip(rows, report.rows):
        assert int(row["p"]) == ref.p
        assert int(row["v_size"]) == ref.v_size
        assert int(row["w_size"]) == ref.w_size
        assert float(row["max_charsum_sqrtp"]) == pytest.approx(ref.charsum_scaled)


def test_variety_cache_hit_skips_enumeration(tmp_path):
    cache = str(tmp_path / "cache")
    args = ["variety", "--pair", "y,y^2", "--primes", "7", "--cache-dir", cache]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == EXIT_OK
    # a budget far below the work estimate only passes if the cache is used
    rc = main(args + ["--budget", "1", "--out", str(tmp_path / "b.csv")])
    assert rc == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_fiber_file_identical_across_oracles(tmp_path):
    files = {}
    for oracle in ("fast", "naive8"):
        cache = tmp_path / oracle
        rc = main(
            [
                "variety",
                "--pair",
                "y,y^2",
                "--primes",
                "3",
                "--oracle",
                oracle,
                "--cache-dir",
                str(cache),
                "--out",
                str(cache / "rep.csv"),
            ]
        )
        assert rc == EXIT_OK
        (path,) = glob.glob(str(cache / "fibers_*.json"))
        files[oracle] = open(path, "rb").read()
    assert files["fast"] == files["naive8"]


def test_bad_oracle_name(tmp_path):
    rc = main(
        [
            "variety",
            "--pair",
            "y,y^2",
            "--primes",
            "5",
            "--oracle",
            "psychic",
            "--cache-dir",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_CONFIG


def test_charsum_rows(tmp_path):
    out = tmp_path / "cs.csv"
    rc = main(
        [
            "charsum",
            "--pair",
            "y,y^2",
            "--primes",
            "7",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 7
    assert float(rows[0]["modulus"]) == 1.0
    assert all(float(r["modulus"]) <= 1.0 + 1e-12 for r in rows)


def test_charsum_heals_corrupt_cache(tmp_path):
    cache = tmp_path / "cache"
    args = [
        "charsum",
        "--pair",
        "y,y^2",
        "--primes",
        "5",
        "--cache-dir",
        str(cache),
        "--out",
        str(tmp_path / "a.csv"),
    ]
    assert main(args) == EXIT_OK
    (path,) = glob.glob(str(cache / "fibers_*.json"))
    doc = json.loads(open(path).read())
    doc["c"][1] += 2
    json.dump(doc, open(path, "w"))
    args[-1] = str(tmp_path / "b.csv")
    assert main(args) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # file was rewritten clean
    rewritten = json.loads(open(path).read())
    assert rewritten["v_size"] == sum(rewritten["c"])


def truncate_cached_fibers(cache):
    (path,) = glob.glob(str(cache / "fibers_*.json"))
    assert os.path.getsize(path) > 200
    with open(path, "r+b") as fh:
        fh.truncate(200)
    return path


def test_variety_rebuilds_truncated_cache(tmp_path):
    cache = tmp_path / "cache"
    args = [
        "variety",
        "--pair",
        "y,y^2",
        "--primes",
        "7",
        "--cache-dir",
        str(cache),
        "--out",
        str(tmp_path / "a.csv"),
    ]
    assert main(args) == EXIT_OK
    path = truncate_cached_fibers(cache)
    args[-1] = str(tmp_path / "b.csv")
    assert main(args) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    pair = normalize_pair(*parse_pair("y,y^2"))
    assert FiberDistribution.load(path, pair, 7).field.p == 7


def test_verify_truncated_cache_fails_rows(tmp_path, capsys):
    cache = tmp_path / "cache"
    base = [
        "verify",
        "--only",
        "sandwich",
        "--pair",
        "y,y^2",
        "--primes",
        "7",
        "--cache-dir",
        str(cache),
    ]
    assert main(base) == EXIT_OK
    truncate_cached_fibers(cache)
    capsys.readouterr()
    rc = main(base)
    out = capsys.readouterr().out
    assert rc == EXIT_CHECK_FAILED
    failing = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL")}
    assert failing == {"sandwich"}


def cached_file_for_other_prime(cache, p_from, p_to):
    """Copy the valid fiber file of p_from to the name of p_to."""
    (path,) = glob.glob(str(cache / f"fibers_*_{p_from}.json"))
    wrong = path[: -len(f"{p_from}.json")] + f"{p_to}.json"
    with open(path, "rb") as src, open(wrong, "wb") as dst:
        dst.write(src.read())
    return wrong


def test_variety_rebuilds_cache_file_of_other_prime(tmp_path):
    cache = tmp_path / "cache"
    args = ["variety", "--pair", "y,y^2", "--primes", "7", "--cache-dir", str(cache)]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == EXIT_OK
    wrong = cached_file_for_other_prime(cache, 7, 11)
    args[4] = "11"
    assert main(args + ["--out", str(tmp_path / "b.csv")]) == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "b.csv").read_text().splitlines()))
    assert [r["p"] for r in rows] == ["11"]
    assert int(rows[0]["v_size"]) >= 11**4
    assert json.loads(open(wrong).read())["p"] == 11


def test_verify_cache_file_of_other_prime_fails_rows(tmp_path, capsys):
    cache = tmp_path / "cache"
    base = ["verify", "--only", "sandwich", "--pair", "y,y^2", "--cache-dir", str(cache)]
    assert main(base + ["--primes", "7"]) == EXIT_OK
    cached_file_for_other_prime(cache, 7, 11)
    capsys.readouterr()
    assert main(base + ["--primes", "11"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL sandwich" in out and "not p=11" in out


def test_variety_past_exactness_limit_exits_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(variety, "EXACT_LIMIT", 7**4)
    rc = main(
        ["variety", "--pair", "y,y^2", "--primes", "7", "--cache-dir", str(tmp_path)]
    )
    assert rc == EXIT_BUDGET
    assert "exactness limit" in capsys.readouterr().err


# --- verify ---------------------------------------------------------------------


def test_verify_small_passes(tmp_path, capsys):
    rc = main(
        [
            "verify",
            "--pair",
            "y,y^2",
            "--primes",
            "7,11",
            "--cache-dir",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_only_subset(tmp_path, capsys):
    rc = main(
        [
            "verify",
            "--pair",
            "y,y^2",
            "--primes",
            "7",
            "--only",
            "lm,certificates",
            "--cache-dir",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "lm" in out and "certificates" in out
    assert "decomposition" not in out


def test_verify_tampered_fiber_file_fails_spectral(tmp_path, capsys):
    cache = tmp_path / "cache"
    base = [
        "verify",
        "--pair",
        "y,y^2",
        "--primes",
        "7",
        "--cache-dir",
        str(cache),
    ]
    assert main(base) == EXIT_OK
    capsys.readouterr()
    (path,) = glob.glob(str(cache / "fibers_*.json"))
    doc = json.loads(open(path).read())
    doc["c"][2] += 1
    json.dump(doc, open(path, "w"))
    rc = main(base)
    out = capsys.readouterr().out
    assert rc == EXIT_CHECK_FAILED
    failing = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL")}
    assert "spectral" in failing
    # checks that do not touch the fiber file still run and pass
    passing = {line.split()[1] for line in out.splitlines() if line.startswith("PASS")}
    assert "lm" in passing


def test_verify_report_file(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = main(
        [
            "verify",
            "--pair",
            "y,y^2",
            "--primes",
            "7",
            "--only",
            "decomposition,sandwich",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    checks = {row["check"] for row in doc["rows"]}
    assert checks == {"decomposition", "sandwich"}


# --- expander, normalize, certify ----------------------------------------------


def test_expander_rows_match_library(tmp_path):
    out = tmp_path / "e.csv"
    rc = main(
        [
            "expander",
            "--poly",
            "y^2",
            "--primes",
            "11,13",
            "--sets",
            "random:0.4:1",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    poly = parse_poly("y^2")
    for row in rows:
        field = field_new(int(row["p"]))
        a = random_subset(field, 0.4, 1)
        b = random_subset(field, 0.4, 2)
        assert int(row["image_size"]) == expander_image(a, b, poly, field)


def test_expander_needs_poly():
    assert main(["expander", "--primes", "11"]) == EXIT_CONFIG


def test_normalize_report(tmp_path):
    out = tmp_path / "n.json"
    rc = main(["normalize", "--pair", "y^3,y", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["swapped"] is True
    assert doc["p1"] == "y"
    assert doc["r2"] == 3
    assert doc["min_char"] == 4
    assert len(doc["pair_hash"]) == 16


def test_normalize_equal_lead_replacement(tmp_path):
    out = tmp_path / "n.json"
    rc = main(["normalize", "--pair", "y^2,y^2+y", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["replaced"] is True
    # the substitution P1 - P2, -P2 drops the first degree below the second
    assert doc["p1"] == "-y"
    assert (doc["r1"], doc["r2"]) == (1, 2)


def test_certify_all_pass(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["certify", "--rmax", "6", "--out", str(out)])
    assert rc == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert all(r["pass"] == "True" for r in rows)
    unequal = sum(1 for r in rows if r["case"] == "R1LessR2")
    equal = sum(1 for r in rows if r["case"] == "R1EqualsR2")
    assert unequal == 15
    assert equal == 15


def test_certify_rmax_out_of_range():
    assert main(["certify", "--rmax", "13"]) == EXIT_CONFIG
