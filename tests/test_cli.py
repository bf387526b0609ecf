"""End-to-end checks of the command line: exit codes, report bytes, cache."""

import csv
import errno
import glob
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from ffprog.cli import (
    COMMAND_FLAGS,
    EXIT_BUDGET,
    EXIT_CHAR,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    FLAGS,
    emit_rows,
    main,
    parse_primes,
    resolve_sets,
    ConfigError,
)
from ffprog.counting import count_progressions
from ffprog.errors import FFProgError, WorkBudgetExceeded
from ffprog.field import field_new
from ffprog.polys import MAX_DEGREE, normalize_pair, parse_pair
from ffprog.setfun import random_subset
from ffprog import cli, variety
from ffprog.variety import FiberDistribution, enumerate_fibers, growth_report

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


def test_parse_primes_range_length_is_capped():
    # below 2**31, yet about 2**31 Miller-Rabin candidates: hours without the cap
    with pytest.raises(ConfigError):
        parse_primes("3..2147483647")
    with pytest.raises(ConfigError):
        parse_primes("2..100002")  # 100001 integers
    assert len(parse_primes("2..100001")) == 9592
    primes = parse_primes("10007..30011")
    assert (primes[0], primes[-1]) == (10007, 30011)
    assert main(["count", "--pair", "y,y^2", "--primes", "3..2147483647"]) == EXIT_CONFIG


def test_parse_primes_list_past_max_p_fails_before_any_work(tmp_path, capsys):
    # 2147483659 is prime, so only the cap keeps p = 31's fibers from being written
    with pytest.raises(ConfigError):
        parse_primes("31,2147483659")
    cache = tmp_path / "cache"
    for argv in (
        ["charsum", "--pair", "y,y^2", "--cache-dir", str(cache)],
        ["count", "--pair", "y,y^2"],
        ["expander", "--poly", "y^2"],
    ):
        assert main([*argv, "--primes", "31,2147483659"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "2**31" in captured.err
    assert not cache.exists()


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


@pytest.mark.parametrize(
    "spec", ["random:0.5", "random:0.5:1:2", "random:x:1", "random:0.5:-1"]
)
def test_bad_random_sets_spec_names_the_flag(spec, capsys):
    with pytest.raises(ConfigError, match="--sets"):
        resolve_sets(spec, field_new(7), 3)
    for argv in (["count", "--pair", "y,y^2"], ["expander", "--poly", "y^2"]):
        assert main([*argv, "--primes", "5", "--sets", spec]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: --sets") and repr(spec) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--pair", "y,y^2", "--sets", "{d}"],
        ["count", "--pair", "y,y^2", "--config", "{d}"],
        ["expander", "--poly", "y^2", "--sets", "{d},{d}"],
    ],
)
def test_directory_as_sets_or_config_exits_config(argv, tmp_path, capsys):
    assert main([*(a.format(d=tmp_path) for a in argv), "--primes", "31"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(("error: cannot read", "error: --sets: cannot read"))
    assert captured.err.count("\n") == 1 and os.strerror(errno.EISDIR) in captured.err


# --- exit codes -------------------------------------------------------------


def test_no_primes_is_config_error():
    assert main(["count", "--pair", "y,y^2", "--primes", "4"]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["count", "verify"])
def test_prime_two_is_refused_before_any_report(command, tmp_path):
    # 2 is a prime, but F_p needs 3 <= p < 2**31
    argv = [command, "--pair", "y,y^2", "--primes", "2..7"]
    done = run_cli(*argv, "--cache-dir", str(tmp_path)) if command == "verify" else run_cli(*argv)
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    assert done.stderr == "error: modulus must lie in [3, 2**31): got 2\n"


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


# fast charges y,y^2 2 p^4 steps: 257 and 263 fit OVER_SWEEP; 269 and 271 do not
OVER_SWEEP = ["--budget", str(10**10)]
AT_269 = "estimated 10472228642 steps for p = 269"
# charsum and verify name no enumerator, so they take y,y^2 from its closed
# form; y,y^3 (3 p^4 steps) still enumerates: 257 and 263 fit, 269 does not
CUBIC_OVER_SWEEP = ["--pair", "y,y^3", "--budget", str(15 * 10**9)]
CUBIC_AT_269 = "estimated 15708342963 steps for p = 269"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["variety", "--pair", "y,y^2", "--primes", "257,263,269,271", *OVER_SWEEP,
          "--oracle", "fast", "--workers", "1"], AT_269),
        (["charsum", "--primes", "257,269", *CUBIC_OVER_SWEEP], CUBIC_AT_269),
        (["verify", "--primes", "257,269", "--only", "sandwich", *CUBIC_OVER_SWEEP], CUBIC_AT_269),
        # naive8 is charged 5^8 = 390625 at p = 5 and 7^8 at p = 7
        (["variety", "--pair", "y,y^2", "--oracle", "naive8", "--primes", "5,7",
          "--budget", "390625"], "estimated 5764801 steps for p = 7"),
    ],
    ids=["variety", "charsum", "verify", "naive8"],
)
def test_sweep_over_budget_exits_before_any_enumeration(tmp_path, capsys, argv, err):
    cache = tmp_path / "cache"
    assert main([*argv, "--cache-dir", str(cache)]) == EXIT_BUDGET
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith(f"error: {err} exceeds budget")
    assert not cache.exists()  # not one fiber file of the primes that fit


def test_degree_one_two_sweep_takes_the_closed_form_past_the_budget(tmp_path, capsys):
    # the closed form is charged p steps, so the sweep that exits 4 above
    # under --oracle fast finishes, with |V| from the formula at every prime
    primes = [257, 263, 269, 271]
    cache = tmp_path / "cache"
    args = ["variety", "--pair", "y,y^2", "--primes", ",".join(map(str, primes)), *OVER_SWEEP]
    assert main([*args, "--cache-dir", str(cache)]) == EXIT_OK
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [int(r["p"]) for r in rows] == primes
    assert [int(r["v_size"]) for r in rows] == [p**4 + 3 * p**3 - 5 * p**2 + 2 * p for p in primes]
    assert len(os.listdir(cache)) == len(primes)


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


def test_out_into_missing_directory_is_config_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    rc = main(["certify", "--rmax", "2", "--out", str(missing / "x.csv")])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert err.startswith("error:") and "Traceback" not in err
    assert not missing.exists()
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("parent", ["missing", "regular-file"])
def test_bad_out_directory_fails_before_work(tmp_path, capsys, parent):
    (tmp_path / "regular-file").write_text("")
    out = str(tmp_path / parent / "x.json")
    rc = main(["verify", "--pair", "y,y^2", "--primes", "7", "--only", "lm", "--out", out])
    cap = capsys.readouterr()
    assert rc == EXIT_CONFIG
    assert cap.out == ""  # no table: the check ran before the work
    assert cap.err.startswith(f"error: cannot write --out {out!r}: ")
    assert sorted(os.listdir(tmp_path)) == ["regular-file"]


def test_out_under_cache_dir_is_created_with_it(tmp_path, capsys):
    # the fiber cache creates the cache directory and its ancestors, so
    # --out may name one of them before it exists, but nothing below it
    cache = tmp_path / "d" / "cache"
    args = ["variety", "--pair", "y,y^2", "--primes", "5", "--cache-dir", str(cache)]
    assert main([*args, "--out", str(cache / "sub" / "r.csv")]) == EXIT_CONFIG
    assert not (tmp_path / "d").exists()
    for out in (tmp_path / "d" / "r.csv", cache / "r.csv"):
        assert main([*args, "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("p,")
    capsys.readouterr()


def test_out_naming_a_directory_fails_before_work(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rep").mkdir()
    args = ["verify", "--pair", "y,y^2", "--primes", "7", "--only", "lm"]
    assert main([*args, "--out", "rep"]) == EXIT_CONFIG
    cap = capsys.readouterr()
    assert cap.out == ""  # no table: the check ran before the work
    assert cap.err == "error: cannot write --out 'rep': Is a directory\n"
    # a symlink to a directory is replaced by the report, as at write time
    os.symlink("rep", "link")
    assert main([*args, "--out", "link"]) == EXIT_OK
    assert json.loads((tmp_path / "link").read_text())["passed"] is True
    assert not os.path.islink("link") and os.listdir("rep") == []
    capsys.readouterr()


def test_out_under_missing_cache_dir_without_fiber_checks(tmp_path, capsys):
    # --only lm reads no fibers, so only the early check can make the cache
    cache = tmp_path / "D"
    out = cache / "x.json"
    rc = main(
        ["verify", "--pair", "y,y^2", "--primes", "7", "--only", "lm",
         "--cache-dir", str(cache), "--out", str(out)]
    )
    assert rc == EXIT_OK
    assert json.loads(out.read_text())["rows"][0]["check"] == "lm"
    assert os.listdir(cache) == ["x.json"]
    capsys.readouterr()


@pytest.mark.parametrize("under", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["variety", "--pair", "y,y^2", "--primes", "5"],
        ["charsum", "--pair", "y,y^2", "--primes", "5"],
        ["verify", "--pair", "y,y^2", "--primes", "7"],
    ],
    ids=lambda argv: argv[0],
)
def test_cache_dir_naming_a_file_fails_before_work(tmp_path, capsys, monkeypatch, argv, under):
    monkeypatch.chdir(tmp_path)
    open("F", "w").close()
    cache = os.path.join("F", "sub") if under else "F"
    assert main([*argv, "--cache-dir", cache]) == EXIT_CONFIG
    cap = capsys.readouterr()
    assert cap.out == ""  # no enumeration, no table: the check ran before the work
    assert cap.err == f"error: --cache-dir {cache!r}: Not a directory\n"
    assert os.listdir(tmp_path) == ["F"]


def test_out_with_trailing_separator_fails_before_work(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["verify", "--pair", "y,y^2", "--primes", "7", "--only", "lm"]
    for out in ("newdir" + os.sep, "." + os.sep):
        assert main([*args, "--out", out]) == EXIT_CONFIG
        cap = capsys.readouterr()
        assert cap.out == ""  # no table: the check ran before the work
        assert cap.err == f"error: cannot write --out {out!r}: Is a directory\n"
    assert os.listdir(tmp_path) == []


def test_out_name_too_long_fails_before_work(tmp_path, capsys, monkeypatch):
    # the name fits NAME_MAX (255 on Linux), write_text_atomic's temp name does not
    monkeypatch.chdir(tmp_path)
    out = "r" * 250 + ".json"
    args = ["verify", "--pair", "y,y^2", "--primes", "7", "--only", "lm", "--out", out]
    assert main(args) == EXIT_CONFIG
    cap = capsys.readouterr()
    assert cap.out == ""  # no table: the check ran before the work
    assert cap.err == f"error: cannot write --out {out!r}: {os.strerror(errno.ENAMETOOLONG)}\n"
    assert os.listdir(tmp_path) == []


def test_naive8_budget_exceeded_exit(tmp_path, capsys):
    # 5^8 = 390625 tuples: over this budget for naive8, not for fast
    args = ["variety", "--pair", "y,y^2", "--primes", "5", "--budget", "390624"]
    rc = main([*args, "--oracle", "naive8", "--cache-dir", str(tmp_path / "a")])
    assert rc == EXIT_BUDGET
    assert "estimated 390625 steps for p = 5 exceeds budget 390624" in capsys.readouterr().err
    assert main([*args, "--oracle", "fast", "--cache-dir", str(tmp_path / "b")]) == EXIT_OK


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
    report = growth_report({p: enumerate_fibers(pair, field_new(p)) for p in (5, 7)})
    assert len(rows) == len(report) == 2
    for row, ref in zip(rows, report):
        assert int(row["p"]) == ref.p
        assert int(row["v_size"]) == ref.v_size
        assert int(row["w_size"]) == ref.w_size
        assert float(row["max_charsum_sqrtp"]) == pytest.approx(ref.max_charsum_sqrtp)


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


def test_charsum_charges_only_uncached_primes(tmp_path):
    cache = tmp_path / "cache"
    args = ["charsum", "--pair", "y,y^2", "--primes", "7", "--cache-dir", str(cache)]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == EXIT_OK
    assert main(args + ["--budget", "1", "--out", str(tmp_path / "b.csv")]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # a corrupt file is rebuilt, and the rebuild is charged
    truncate_cached_fibers(cache)
    assert main(args + ["--budget", "1", "--out", str(tmp_path / "c.csv")]) == EXIT_BUDGET


def test_empty_cache_dir_is_the_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["variety", "--pair", "y,y^2", "--primes", "5", "--cache-dir", ""]) == EXIT_OK
    assert glob.glob("fibers_*_5.json")
    capsys.readouterr()


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
        ["variety", "--pair", "y,y^2", "--primes", "7", "--oracle", "fast",
         "--cache-dir", str(tmp_path)]
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
    assert failing == {"prop22", "sandwich", "spectral"}
    # checks that do not touch the fiber file still run and pass
    passing = {line.split()[1] for line in out.splitlines() if line.startswith("PASS")}
    assert passing == {"decomposition", "weil", "lm", "certificates"}


def test_fiber_file_counts_must_be_json_integers(tmp_path, capsys):
    cache = tmp_path / "cache"
    verify = ["verify", "--pair", "y,y^2", "--primes", "7", "--only", "sandwich"]
    variety_args = ["variety", "--pair", "y,y^2", "--primes", "7"]
    assert main([*verify, "--cache-dir", str(cache)]) == EXIT_OK
    (path,) = glob.glob(str(cache / "fibers_*.json"))
    clean = open(path, "rb").read()
    doc = json.loads(clean)
    # same values, digest and totals; only the JSON types of the counts, or
    # of the prime, change
    mixed_counts = dict(doc, c=[float(v) if i % 2 == 0 else str(v) for i, v in enumerate(doc["c"])])
    float_p = dict(doc, p=7.0)
    for bad in (mixed_counts, float_p):
        json.dump(bad, open(path, "w"))
        capsys.readouterr()
        assert main([*verify, "--cache-dir", str(cache)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert [line.split()[:2] for line in out.splitlines() if line.startswith(("PASS", "FAIL"))] == [
            ["FAIL", "sandwich"]
        ]
        assert main([*variety_args, "--cache-dir", str(cache)]) == EXIT_OK
        assert open(path, "rb").read() == clean


def test_fiber_file_that_is_a_directory(tmp_path, capsys):
    cache = tmp_path / "cache"
    verify = ["verify", "--pair", "y,y^2", "--primes", "7", "--only", "sandwich"]
    assert main([*verify, "--cache-dir", str(cache)]) == EXIT_OK
    (path,) = glob.glob(str(cache / "fibers_*.json"))
    os.unlink(path)
    os.mkdir(path)
    capsys.readouterr()
    assert main([*verify, "--cache-dir", str(cache)]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines() if line.startswith(("PASS", "FAIL"))] == [
        ["FAIL", "sandwich"]
    ]
    assert main(["variety", "--pair", "y,y^2", "--primes", "7", "--cache-dir", str(cache)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write fiber file {path!r}: {os.strerror(errno.EISDIR)}\n"
    assert os.listdir(path) == [] and os.listdir(cache) == [os.path.basename(path)]


def test_variety_fails_on_an_unwritable_fiber_file_before_enumerating(tmp_path, capsys, monkeypatch):
    # a directory at the fiber path of the second prime: the sweep must stop
    # before the first enumeration, not after the whole sweep has run
    cache = tmp_path / "cache"
    pair = normalize_pair(*parse_pair("y,y^2"))
    path = cli.fiber_path(str(cache), pair, 11)
    os.makedirs(path)
    calls = []

    def enumerator(pair, field, budget):
        calls.append(field.p)
        return enumerate_fibers(pair, field, budget=budget)

    monkeypatch.setitem(cli.ENUMERATORS, "fast", enumerator)
    args = ["variety", "--pair", "y,y^2", "--primes", "7,11", "--oracle", "fast",
            "--cache-dir", str(cache)]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write fiber file {path!r}: {os.strerror(errno.EISDIR)}\n"
    assert calls == []
    assert os.listdir(cache) == [os.path.basename(path)]


@pytest.mark.parametrize(
    "error",
    [*cli.ERROR_EXITS, FFProgError],
    ids=lambda cls: cls.__name__,
)
def test_a_failed_build_stops_the_sweep_in_order(tmp_path, capsys, monkeypatch, error):
    # builds run one after another in sweep order: the one before the failed
    # build is saved, the one after it never starts
    cache = tmp_path / "cache"
    pair = normalize_pair(*parse_pair("y,y^2"))
    calls = []

    def enumerator(pair, field, budget):
        calls.append(field.p)
        if field.p == 11:
            time.sleep(0.1)  # time enough for a concurrent p = 13 build to start
            raise error("injected")
        return enumerate_fibers(pair, field, budget=budget)

    monkeypatch.setitem(cli.ENUMERATORS, "fast", enumerator)
    args = ["variety", "--pair", "y,y^2", "--primes", "7,11,13", "--oracle", "fast",
            "--cache-dir", str(cache)]
    assert main(args) == cli.ERROR_EXITS.get(error, EXIT_CONFIG)
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: injected\n")
    assert calls == [7, 11]
    assert os.listdir(cache) == [os.path.basename(cli.fiber_path(str(cache), pair, 7))]


def test_a_sound_cached_fiber_file_need_not_be_writable(tmp_path, capsys, monkeypatch):
    # a file that loads is never rewritten, so a failed write probe on it is
    # no error; a missing file with a failed probe is
    cache = tmp_path / "cache"
    args = ["variety", "--pair", "y,y^2", "--primes", "7", "--cache-dir", str(cache)]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out

    def denied(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(cli, "probe_write", denied)
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first
    assert main([*args[:-3], "7,11", *args[-2:]]) == EXIT_CONFIG
    assert capsys.readouterr().err.endswith(f": {os.strerror(errno.EACCES)}\n")


def test_corrupt_cached_file_over_budget_exits_before_any_enumeration(tmp_path, capsys, monkeypatch):
    # a corrupt file outside verify must be built, so it is charged before
    # the first enumeration, like a missing one: p = 7 (4802 steps) fits the
    # budget, the corrupt p = 11 (29282 steps) does not
    cache = tmp_path / "cache"
    cache.mkdir()
    pair = normalize_pair(*parse_pair("y,y^2"))
    enumerate_fibers(pair, field_new(11)).save(cli.fiber_path(str(cache), pair, 11))
    truncate_cached_fibers(cache)
    calls = []

    def enumerator(pair, field, budget):
        calls.append(field.p)
        return enumerate_fibers(pair, field, budget=budget)

    monkeypatch.setitem(cli.ENUMERATORS, "fast", enumerator)
    args = ["variety", "--pair", "y,y^2", "--primes", "7,11", "--budget", "10000", "--oracle", "fast"]
    assert main([*args, "--cache-dir", str(cache)]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: estimated 29282 steps for p = 11 exceeds budget 10000\n"
    assert calls == []
    assert not os.path.exists(cli.fiber_path(str(cache), pair, 7))


def test_int64_bound_on_v_exits_before_any_enumeration(tmp_path, monkeypatch):
    # the limit lowered so that the bound 9 p^4 of y,y^3 stays below it at
    # p = 7 and reaches it at p = 11: the sweep stops before p = 7 is enumerated
    monkeypatch.setattr(variety, "INT64_LIMIT", 10**5)
    pair = normalize_pair(*parse_pair("y,y^3"))
    assert variety.v_bounds(pair, 7)[1] < variety.INT64_LIMIT <= variety.v_bounds(pair, 11)[1]
    calls = []
    monkeypatch.setitem(cli.ENUMERATORS, "fast", lambda *args, **kw: calls.append(args))
    cache = str(tmp_path / "cache")
    with pytest.raises(WorkBudgetExceeded, match="past int64"):
        cli.warm_fibers([pair], [7, 11], 10**12, cache)
    assert calls == []
    assert not os.path.exists(cli.fiber_path(cache, pair, 7))


@pytest.mark.parametrize(
    "argv",
    [
        ["variety", "--pair", "y,y^2", "--primes", "7"],
        ["charsum", "--pair", "y,y^2", "--primes", "7"],
        ["verify", "--pair", "y,y^2", "--primes", "7"],
    ],
    ids=lambda argv: argv[0],
)
def test_cache_dir_name_too_long_fails_before_work(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    cache = "a" * 300  # past NAME_MAX (255 on Linux)
    path = cli.fiber_path(cache, normalize_pair(*parse_pair("y,y^2")), 7)
    assert main([*argv, "--cache-dir", cache]) == EXIT_CONFIG
    cap = capsys.readouterr()
    assert cap.out == ""  # no enumeration, no table: the probe ran before the work
    assert cap.err == f"error: cannot write fiber file {path!r}: {os.strerror(errno.ENAMETOOLONG)}\n"
    assert os.listdir(tmp_path) == []


def run_cli(*argv, stdout=subprocess.PIPE, timeout=60):
    """ffprog in a fresh process, so that a run that blocks fails on the
    timeout instead of stalling the suite."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "ffprog.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
        text=True, env=env, timeout=timeout,
    )


def _address_space_3gib():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--pair", "y,y^2"],
        ["expander", "--poly", "y^2"],
        ["verify", "--only", "weil"],
        ["verify", "--only", "decomposition"],
    ],
    ids=" ".join,
)
def test_an_allocation_that_fails_exits_4(tmp_path, argv):
    # p = 2147483647 needs 16 GiB for one float64 or int64 array, past a
    # 3 GiB address space: one error line, not numpy's traceback
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "ffprog.cli", *argv, "--primes", "2147483647"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        preexec_fn=_address_space_3gib,
    )
    assert done.returncode == EXIT_BUDGET
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_a_leading_minus_needs_the_equals_form():
    # argparse reads a separate value that starts with "-" as a flag, so
    # "--pair -y,y^2" is a usage error; "--pair=-y,y^2" reaches the parser
    done = run_cli("normalize", "--pair=-y,y^2")
    assert done.returncode == EXIT_OK
    assert json.loads(done.stdout)["p1"] == "-y"
    done = run_cli("normalize", "--pair", "-y,y^2")
    assert done.returncode == EXIT_CONFIG
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert run_cli("expander", "--poly=-y^2", "--primes", "31").returncode == EXIT_OK


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_cached_fiber_path_that_is_a_fifo(tmp_path, capsys):
    # a FIFO is neither a regular file nor a directory: corrupt, so verify
    # fails its rows and variety rebuilds the file, without opening it
    cache = tmp_path / "cache"
    args = ["--pair", "y,y^2", "--primes", "7", "--cache-dir", str(cache)]
    assert main(["variety", *args]) == EXIT_OK
    cold = capsys.readouterr().out
    path = cli.fiber_path(str(cache), normalize_pair(*parse_pair("y,y^2")), 7)
    os.unlink(path)
    os.mkfifo(path)
    done = run_cli("verify", *args, "--only", "sandwich")
    assert done.returncode == EXIT_CHECK_FAILED
    assert done.stdout.startswith(f"FAIL sandwich       y,y^2 p=7  ({path}: fiber file is not")
    done = run_cli("variety", *args)
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, cold, "")
    assert os.path.isfile(path) and os.listdir(cache) == [os.path.basename(path)]


@pytest.mark.parametrize("kind", ["fifo", "device"])
@pytest.mark.parametrize(
    "flag, message",
    [("--config", "cannot read config file"), ("--sets", "--sets: cannot read subset file")],
)
def test_fifo_or_device_as_sets_or_config_exits_config(tmp_path, kind, flag, message):
    # neither a regular file nor a directory: refused before the open, which
    # blocks for good on a FIFO and reads an empty file from /dev/null
    if kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("needs os.mkfifo")
        path = str(tmp_path / "F")
        os.mkfifo(path)
    else:
        path = os.devnull
    done = run_cli("count", "--pair", "y,y^2", "--primes", "7", flag, path)
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    assert done.stderr == f"error: {message} {path!r}: not a regular file\n"


@pytest.mark.parametrize(
    "argv, sink",
    [
        pytest.param(
            ["verify", "--pair", "y,y^2", "--primes", "7", "--only", "lm,weil"], "closed", id="verify"
        ),
        pytest.param(["charsum", "--pair", "y,y^2", "--primes", "7"], "closed", id="charsum"),
        pytest.param(["--help"], "closed", id="help"),
        pytest.param(["count", "--help"], "closed", id="count-help"),
        pytest.param(["--help"], "full", id="help-dev-full"),
        pytest.param(["charsum", "--pair", "y,y^2", "--primes", "7"], "full", id="charsum-dev-full"),
    ],
)
def test_closed_stdout_exits_config_with_one_error_line(tmp_path, argv, sink):
    # "closed": a pipe whose reader has gone before the report is written;
    # "full": /dev/full, where every write fails with ENOSPC
    if sink == "closed":
        read_end, write_end = os.pipe()
        os.close(read_end)
        reason = os.strerror(errno.EPIPE)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        write_end = os.open("/dev/full", os.O_WRONLY)
        reason = os.strerror(errno.ENOSPC)
    try:
        # --help exits before argparse reads the flags after it
        done = run_cli(*argv, "--cache-dir", str(tmp_path / "cache"), stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_CONFIG
    assert done.stderr == f"error: cannot write to stdout: {reason}\n"


def test_each_cached_fiber_file_is_read_once_per_run(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    args = ["variety", "--pair", "y,y^2", "--primes", "7,11", "--cache-dir", str(cache)]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    assert main(args) == EXIT_OK
    warm = capsys.readouterr().out
    loads = []
    load = FiberDistribution.load.__func__

    def counted(cls, path, pair, p):
        loads.append(p)
        return load(cls, path, pair, p)

    def denied(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(FiberDistribution, "load", classmethod(counted))
    monkeypatch.setattr(cli, "probe_write", denied)
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == warm
    assert sorted(loads) == [7, 11]


def test_default_verify_pair_hashes_are_unchanged():
    # fiber cache file names embed these, so a change orphans every cache
    hashes = {
        text: normalize_pair(*parse_pair(text)).pair_hash() for text in cli.DEFAULT_VERIFY_PAIRS
    }
    assert hashes == {
        "y,y^2": "339cbf1577340712",
        "y^2,y^3": "23377d9d2c296379",
        "y,y^3": "6a76fd669e4dfdec",
        "2*y^2,y^2+y": "80ad99acac51fc72",
    }


def test_verify_weil_detail_is_a_plain_float(tmp_path, capsys):
    out = tmp_path / "verify.json"
    args = ["verify", "--only", "weil", "--pair", "y,y^2", "--primes", "7,11"]
    assert main([*args, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    details = [row["detail"] for row in json.loads(out.read_text())["rows"]]
    assert details
    for detail in details:
        assert "np." not in detail
        key, value = detail.split("=")
        assert key == "max_ratio" and 0 < float(value) <= 1


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["variety", "verify"])
def test_workers_other_than_1_exits_before_any_fiber_file(tmp_path, capsys, command, source):
    # fiber jobs run one after another, so --workers accepts only 1
    cache = tmp_path / "cache"
    args = [command, "--pair", "y,y^2", "--primes", "7,11", "--cache-dir", str(cache)]
    if source == "flag":
        args += ["--workers", "2"]
    else:
        conf = tmp_path / "conf.txt"
        conf.write_text("workers = 2\n")
        args += ["--config", str(conf)]
    assert main(args) == EXIT_CONFIG
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", "error: workers must be 1\n")
    assert not cache.exists()


def test_verify_builds_three_subsets_per_instance(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return random_subset(*args)

    monkeypatch.setattr(cli, "random_subset", counted)
    args = ["verify", "--pair", "y,y^2", "--primes", "31", "--only",
            "decomposition,prop22,spectral", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == 9  # three instances, one subset each for A, B, C
    assert len(set(calls)) == 9
    assert [line.split()[:2] for line in lines[:-1]] == [
        ["PASS", check] for check in ("decomposition", "prop22", "spectral") for _ in range(3)
    ]
    assert lines[-1] == "9/9 checks passed"


@pytest.fixture(scope="module")
def full_verify_rows(tmp_path_factory):
    """The rows of one verify run with every check, and its cache directory."""
    tmp = tmp_path_factory.mktemp("full_verify")
    out = tmp / "verify.json"
    args = ["verify", "--pair", "y,y^2", "--primes", "7,11", "--cache-dir", str(tmp / "cache")]
    assert main([*args, "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text())["rows"], tmp / "cache"


@pytest.mark.parametrize("check", list(cli.VERIFY_CHECKS))
def test_verify_only_gives_the_full_runs_rows(check, full_verify_rows, tmp_path, capsys):
    rows, cache = full_verify_rows
    out = tmp_path / "verify.json"
    args = ["verify", "--pair", "y,y^2", "--primes", "7,11", "--only", check,
            "--cache-dir", str(cache), "--out", str(out)]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    want = [row for row in rows if row["check"] == check]
    assert want
    assert json.loads(out.read_text())["rows"] == want


def test_verify_negative_seed_exits_before_any_work(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["verify", "--primes", "61,73", "--seed", "-3", "--only", "sandwich,decomposition",
            "--cache-dir", str(cache)]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: seed must be >= 0" in captured.err
    assert not cache.exists()


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
    assert [int(row["p"]) for row in rows] == [11, 13]
    # the image by set comprehension, independent of the packed kernel
    for row in rows:
        p = int(row["p"])
        a = random_subset(field_new(p), 0.4, 1).members
        b = random_subset(field_new(p), 0.4, 2).members
        assert int(row["image_size"]) == len({(u + (v - u) ** 2) % p for u in a for v in b})


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


@pytest.mark.parametrize("source", ["pair", "poly", "config"])
@pytest.mark.parametrize(
    "first, second, term", [("y", "1/0*y^2", "1/0*y^2"), ("[0,1]", "[0,1/0]", "1/0")],
    ids=["sparse", "dense"],
)
def test_zero_denominator_exits_config_with_one_error_line(tmp_path, capsys, source, first, second, term):
    if source == "poly":
        argv = ["expander", "--poly", second, "--primes", "7"]
    elif source == "pair":
        argv = ["normalize", "--pair", f"{first},{second}"]
    else:
        conf = tmp_path / "conf.txt"
        conf.write_text(f"pair = {first},{second}\n")
        argv = ["normalize", "--config", str(conf)]
    assert main(argv) == EXIT_CONFIG
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", f"error: zero denominator in term {term!r}\n")


def test_huge_exponent_exits_config_without_hanging():
    # the exponent is refused from its text; building range(10^22 + 1) never ends
    done = run_cli("normalize", "--pair", "y,y^99999999999999999999999")
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    assert done.stderr == (
        "error: degree of term 'y^99999999999999999999999' exceeds the cap of "
        f"{MAX_DEGREE}\n"
    )


def test_normalize_at_the_degree_cap_finishes(tmp_path):
    # a polynomial is its nonzero terms, and independence is one pass over
    # their exponents, not every 2x2 minor
    out = tmp_path / "n.json"
    start = time.perf_counter()
    assert main(["normalize", "--pair", f"y^{MAX_DEGREE - 1},y^{MAX_DEGREE}", "--out", str(out)]) == EXIT_OK
    assert time.perf_counter() - start < 10
    doc = json.loads(out.read_text())
    assert (doc["r1"], doc["r2"], doc["min_char"]) == (MAX_DEGREE - 1, MAX_DEGREE, MAX_DEGREE + 1)


def test_sparse_high_degree_count_finishes():
    # value tables run Horner's rule over the nonzero terms, stepping between
    # exponents by repeated squaring: y^99999 is 17 squarings, not 99999 steps
    done = run_cli(
        "count", "--pair", "y,y^99999", "--primes", "100003", "--sets", "random:0.5:1", timeout=20
    )
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    (row,) = csv.DictReader(done.stdout.splitlines())
    assert (row["p"], row["a_size"], row["b_size"], row["c_size"], row["exact_count"]) == (
        "100003", "50052", "49872", "49986", "1247732205",
    )


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


def test_certify_fails_when_a_modulus_does_not_clear_the_threshold():
    # (1, 2) has min_modulus exactly 4.0, which does not clear 4; (2, 1) has
    # sqrt(48), printed one ulp below math.sqrt(48.0)
    done = run_cli("certify", "--rmax", "2", "--threshold", "4")
    assert (done.returncode, done.stderr) == (EXIT_CHECK_FAILED, "")
    assert done.stdout.splitlines() == [
        "case,param1,param2,min_modulus,threshold,pass",
        "R1LessR2,1,2,4.0,4.0,False",
        "R1EqualsR2,2,1,6.928203230275508,4.0,True",
    ]


def test_verify_certificates_fail_row(tmp_path, capsys):
    out = tmp_path / "verify.json"
    argv = ["verify", "--only", "certificates", "--rmax", "2", "--threshold", "100"]
    assert main([*argv, "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]) == (
        EXIT_CHECK_FAILED
    )
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    assert doc["rows"] == [
        {"check": "certificates", "detail": "min_modulus=4.0", "instance": "rmax=2", "status": "FAIL"}
    ]


# --- the flag table -------------------------------------------------------------


def quick_args(command, tmp_path):
    """A fast valid invocation of each subcommand.  It sets neither --rmax nor
    --budget, so a config file's value for them is not overridden."""
    cache = ["--cache-dir", str(tmp_path / "cache")]
    return {
        "count": ["--pair", "y,y^2", "--primes", "5"],
        "variety": ["--pair", "y,y^2", "--primes", "5", *cache],
        "charsum": ["--pair", "y,y^2", "--primes", "5", *cache],
        "verify": ["--pair", "y,y^2", "--primes", "7", "--only", "lm,certificates", *cache],
        "expander": ["--poly", "y^2", "--primes", "5"],
        "normalize": ["--pair", "y,y^2"],
        "certify": [],
    }[command]


def flag_values(tmp_path):
    """A value each flag accepts, for every subcommand that takes it."""
    return {
        "pair": "y,y^2",
        "poly": "y^2",
        "primes": "7",
        "sets": "random:0.5:1",
        "seed": "1",
        "budget": "1000000000",
        "workers": "1",
        "out": str(tmp_path / "report.txt"),
        "format": "json",
        "cache_dir": str(tmp_path / "cache"),
        "oracle": "naive8",
        "only": "lm",
        "rmax": "3",
        "threshold": "1e-7",
    }


def as_flag(name):
    return "--" + name.replace("_", "-")


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_subcommand_takes_exactly_its_flags(command, tmp_path, capsys):
    base = [command, *quick_args(command, tmp_path)]
    values = flag_values(tmp_path)
    conf = tmp_path / "conf.txt"
    taken = set(COMMAND_FLAGS[command])
    for name in sorted(taken):
        assert main([*base, as_flag(name), values[name]]) == EXIT_OK, name
        conf.write_text(f"{name} = {values[name]}\n")
        assert main([*base, "--config", str(conf)]) == EXIT_OK, name
    # every other flag belongs to another subcommand, and is refused here
    for name in sorted(set(FLAGS) - taken - {"config"}):
        assert any(name in flags for flags in COMMAND_FLAGS.values())
        assert main([*base, as_flag(name), values[name]]) == EXIT_CONFIG, name
        conf.write_text(f"{name} = {values[name]}\n")
        assert main([*base, "--config", str(conf)]) == EXIT_CONFIG, name
    capsys.readouterr()


RANGE_CASES = [
    (command, name, value)
    for command, flags in sorted(COMMAND_FLAGS.items())
    for name, value in (
        ("rmax", "0"), ("rmax", "13"), ("budget", "0"), ("workers", "0"), ("workers", "-3"),
        ("seed", "-1"), ("threshold", "nan"), ("threshold", "inf"), ("threshold", "-1"),
    )
    if name in flags
]


@pytest.mark.parametrize("command,name,value", RANGE_CASES)
def test_range_checked_wherever_flag_is_taken(command, name, value, tmp_path, capsys):
    base = [command, *quick_args(command, tmp_path)]
    assert main([*base, as_flag(name), value]) == EXIT_CONFIG
    assert f"{name} must" in capsys.readouterr().err
    conf = tmp_path / "conf.txt"
    conf.write_text(f"{name} = {value}\n")
    assert main([*base, "--config", str(conf)]) == EXIT_CONFIG
    assert f"{name} must" in capsys.readouterr().err


TYPED_FLAGS = sorted(name for name, spec in FLAGS.items() if "type" in spec)


@pytest.mark.parametrize("name", TYPED_FLAGS)
def test_each_flag_type_names_its_flag(name, tmp_path, capsys):
    # argparse's "invalid <type name> value" message, from a flag and from a
    # config file; parse_checks reads any text, so for --only "x" is an
    # unknown check instead
    assert FLAGS[name]["type"].__name__ == name
    command = next(c for c, flags in sorted(COMMAND_FLAGS.items()) if name in flags)
    base = [command, *quick_args(command, tmp_path)]
    want = (
        "error: unknown checks ['x']" if name == "only"
        else f"error: argument {as_flag(name)}: invalid {name} value: 'x'\n"
    )
    assert main([*base, as_flag(name), "x"]) == EXIT_CONFIG
    assert want in capsys.readouterr().err
    conf = tmp_path / "conf.txt"
    conf.write_text(f"{name} = x\n")
    assert main([*base, "--config", str(conf)]) == EXIT_CONFIG
    assert want in capsys.readouterr().err
