import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from synergy.bounds import cache_fraction_for_gap
from synergy import cli
from synergy.cli import main
from synergy.field import SeededRng
from synergy.placement import load_library, random_library, save_library
from synergy.scheduler import default_config
from synergy.simulator import LIBRARY_STREAM


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_three_users(capsys):
    code, out, err = run(capsys, "simulate", "-K", "3", "-N", "3", "-M", "1", "--seed", "7")
    assert code == 0
    assert "delivery time: 5/6" in out
    assert "over 5 channel uses" in out
    assert out.count(": ok") == 3


def test_simulate_explicit_demand(capsys):
    code, out, _ = run(
        capsys, "simulate", "-K", "4", "-N", "4", "-M", "3", "--demand", "1,2,3,4", "--seed", "1"
    )
    assert code == 0
    assert "delivery time: 1/4" in out


def test_simulate_writes_reports(tmp_path, capsys):
    prefix = tmp_path / "run"
    code, out, _ = run(
        capsys,
        "simulate", "-K", "3", "-N", "3", "-M", "1", "--seed", "3",
        "--output", str(prefix),
    )
    assert code == 0
    transcript = json.loads((tmp_path / "run.transcript.json").read_text())
    assert transcript["total_duration"] == "5/6"
    assert (tmp_path / "run.transcript.bin").exists()
    verification = json.loads((tmp_path / "run.verification.json").read_text())
    assert verification["format"] == "synergy-verification"
    assert verification["all_pass"] is True


def test_simulate_csv_report(tmp_path, capsys):
    prefix = tmp_path / "run"
    code, _, _ = run(
        capsys,
        "simulate", "-K", "2", "-N", "2", "-M", "1", "--seed", "5",
        "--output", str(prefix), "--format", "csv",
    )
    assert code == 0
    with open(tmp_path / "run.verification.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["match"] for row in rows] == ["True", "True"]


def test_simulate_invalid_replication_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "-K", "3", "-N", "4", "-M", "1")
    assert code == 2
    assert "integer" in err


@pytest.mark.parametrize("K", ["0", "-2"])
def test_simulate_rejects_fewer_than_one_user(capsys, K):
    # -K 0 with --replication used to take `% K` and exit 1 with a
    # ZeroDivisionError traceback.
    for cache in (("--replication", "0"), ("-M", "0")):
        code, out, err = run(capsys, "simulate", "-K", K, "-N", "3", *cache)
        assert code == 2
        assert err == f"error: -K must be at least 1, got {K}\n"
        assert out == ""


def test_simulate_missing_size_flags_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "-K", "3", "-N", "3")
    assert code == 2


def test_simulate_conflicting_cache_flags_exits_2(capsys):
    code, _, err = run(
        capsys, "simulate", "-K", "3", "-N", "3", "-M", "1", "--replication", "1"
    )
    assert code == 2


def test_simulate_replication_flag(capsys):
    code, out, _ = run(capsys, "simulate", "-K", "3", "-N", "3", "--replication", "1")
    assert code == 0
    assert "M=1" in out


def test_simulate_infeasible_granularity_exits_2(capsys):
    code, _, err = run(
        capsys, "simulate", "-K", "5", "-N", "5", "-M", "1", "--granularity", "1"
    )
    assert code == 2
    assert "minimal_granularity" in err


def test_simulate_bad_demand_exits_2(capsys):
    code, _, err = run(capsys, "simulate", "-K", "3", "-N", "3", "-M", "1", "--demand", "1,2")
    assert code == 2
    code, _, err = run(capsys, "simulate", "-K", "3", "-N", "3", "-M", "1", "--demand", "1,2,9")
    assert code == 2


def test_simulate_uniform_random_demand_deterministic(capsys):
    args = ("simulate", "-K", "3", "-N", "3", "-M", "1",
            "--demand", "uniform-random", "--seed", "9")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_simulate_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SYNERGY_SEED", "31")
    code, out_env, _ = run(capsys, "simulate", "-K", "3", "-N", "3", "-M", "1",
                           "--demand", "uniform-random")
    assert code == 0
    code, out_flag, _ = run(capsys, "simulate", "-K", "3", "-N", "3", "-M", "1",
                            "--demand", "uniform-random", "--seed", "31")
    assert out_env.replace("seed=31", "") == out_flag.replace("seed=31", "")
    monkeypatch.setenv("SYNERGY_SEED", "junk")
    code, _, err = run(capsys, "simulate", "-K", "3", "-N", "3", "-M", "1")
    assert code == 2


def test_simulate_names_a_corrupt_library(tmp_path, capsys):
    path = tmp_path / "lib.bin"
    path.write_bytes(b"abc")
    code, _, err = run(capsys, "simulate", "--library", str(path))
    assert code == 2
    assert f"{path}: truncated library file" in err


def test_simulate_from_library_file(tmp_path, capsys):
    config = default_config(3, 3, 1)
    library = random_library(config, SeededRng(0).child(LIBRARY_STREAM))
    path = tmp_path / "lib.bin"
    save_library(path, config, library)
    code, out, _ = run(capsys, "simulate", "--library", str(path), "--seed", "2")
    assert code == 0
    assert "K=3" in out
    code, _, err = run(capsys, "simulate", "--library", str(path), "-K", "4", "--seed", "2")
    assert code == 2


def test_simulate_reads_a_library_file_once(tmp_path, capsys, monkeypatch):
    config = default_config(3, 3, 1)
    path = tmp_path / "lib.bin"
    save_library(path, config, random_library(config, SeededRng(0).child(LIBRARY_STREAM)))
    loads = []

    def counting(*args):
        loads.append(args)
        return load_library(*args)

    monkeypatch.setattr(cli, "load_library", counting)
    code, out, _ = run(capsys, "simulate", "--library", str(path), "--seed", "2")
    assert code == 0 and out.count(": ok") == 3
    assert len(loads) == 1


def test_simulate_resample_flag_on_tiny_field(capsys):
    # find a seed whose draw goes degenerate over a 7-element field, then
    # check the resample escape hatch turns failure into success
    raising = None
    for seed in range(64):
        code, _, err = run(
            capsys,
            "simulate", "-K", "3", "-N", "3", "-M", "1",
            "--modulus", "7", "--seed", str(seed),
        )
        if code == 1 and "degenerate" in err:
            raising = seed
            break
    assert raising is not None
    code, out, _ = run(
        capsys,
        "simulate", "-K", "3", "-N", "3", "-M", "1",
        "--modulus", "7", "--seed", str(raising), "--resample-degenerate",
    )
    assert code == 0


def test_sweep_gap(tmp_path, capsys):
    out_csv = tmp_path / "gap.csv"
    code, _, err = run(capsys, "sweep", "--mode", "gap", "--kmax", "12",
                       "--output", str(out_csv))
    assert code == 0
    assert "all 66 cells below 4" in err
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == sum(K - 1 for K in range(2, 13))
    assert all(float(row["gap"]) < 4 for row in rows)
    assert rows[0]["delivery_time"].count("/") == 1


def test_sweep_gap_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--mode", "gap", "--kmax", "4")
    assert code == 0
    assert out.splitlines()[0].startswith("K,replication,")


def test_sweep_kmax_guard(capsys):
    code, _, err = run(capsys, "sweep", "--mode", "gap", "--kmax", "300")
    assert code == 2
    code, _, err = run(capsys, "sweep", "--mode", "dof", "--kmax", "1")
    assert code == 2


def test_sweep_dof(tmp_path, capsys):
    out_csv = tmp_path / "dof.csv"
    code, _, _ = run(capsys, "sweep", "--mode", "dof", "--kmax", "100",
                     "--output", str(out_csv))
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == sum(K - 1 for K in range(2, 101))
    tail = [row for row in rows if row["K"] == "100"]
    assert len(tail) == 99
    # the joint gain beats the summed baselines on the small-cache side,
    # which is where the headline claim lives; large replication saturates
    # the cache-only baseline and the margin legitimately flips sign
    assert all(float(row["margin"]) > 0 for row in tail if int(row["replication"]) <= 50)


def test_sweep_buffer(tmp_path, capsys):
    out_csv = tmp_path / "buffer.csv"
    code, _, _ = run(capsys, "sweep", "--mode", "buffer", "--kmax", "100",
                     "--gap-range", "1..5", "--output", str(out_csv))
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert float(rows[2]["cache_fraction_formula"]) == pytest.approx(
        cache_fraction_for_gap(3, 100)
    )


def test_sweep_buffer_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--mode", "buffer", "--gap-range", "5..1")
    assert code == 2
    code, _, err = run(capsys, "sweep", "--mode", "buffer", "--gap-range", "nope")
    assert code == 2


def _no_exhaustive_search(monkeypatch):
    def refuse(gap, K):
        raise AssertionError("the exhaustive search ran")

    monkeypatch.setattr(cli, "min_cache_fraction_for_gap", refuse)


def test_sweep_buffer_rejects_unrepresentable_target(capsys, monkeypatch):
    # the closed form underflows to a subnormal (745) and to 0.0 (746)
    _no_exhaustive_search(monkeypatch)
    code, out, err = run(capsys, "sweep", "--mode", "buffer", "--kmax", "1000",
                         "--gap-range", "1..800")
    assert code == 2
    assert "smallest normal double" in err
    assert out == ""


def test_sweep_buffer_kmax_limit(capsys, monkeypatch):
    _no_exhaustive_search(monkeypatch)
    code, _, err = run(capsys, "sweep", "--mode", "buffer", "--kmax", "1000001")
    assert code == 2
    assert "--kmax must lie in [2, 1000000]" in err
    monkeypatch.setattr(cli, "min_cache_fraction_for_gap", lambda gap, K: None)
    code, out, _ = run(capsys, "sweep", "--mode", "buffer", "--kmax", "1000000",
                       "--gap-range", "3..3")
    assert code == 0
    assert out.splitlines()[1].startswith("3,1000000,")


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("ok ") for line in lines)


def test_simulate_rejects_modulus_above_two_to_the_31(capsys):
    code, _, err = run(
        capsys, "simulate", "-K", "2", "-N", "2", "-M", "1", "--modulus", "2147483659"
    )
    assert code == 2
    assert "below 2**31" in err


SRC = Path(__file__).resolve().parents[1] / "src"

# Each snippet breaks one self-check from the inside.
BROKEN_CHECKS = {
    "schedule": "cli.harmonic = lambda n: Fraction(-1)",
    "cache": "cli.fill_caches = lambda config, subfiles: "
    "[CacheContents(1, np.arange(0), np.empty((1, 0, 1)))]",
    "decode": "cli.verify_all = lambda transcript, library: DeliveryReport("
    "[UserReport(1, 1, False, 0, 0, 'broken')])",
}


@pytest.mark.parametrize("check", sorted(BROKEN_CHECKS))
def test_verify_fails_under_python_O(check):
    script = "\n".join(
        [
            "import sys",
            "from fractions import Fraction",
            "import numpy as np",
            "import synergy.cli as cli",
            "from synergy.decoder import DeliveryReport, UserReport",
            "from synergy.placement import CacheContents",
            BROKEN_CHECKS[check],
            "sys.exit(cli.main(['verify', '--quick']))",
        ]
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAIL" in done.stdout


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep"])  # --mode is required
    assert excinfo.value.code == 2


def test_consecutive_calls_share_one_parser_and_parse_independently(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; no subcommand, flag or default
    # of one call leaks into the next.
    monkeypatch.delenv("SYNERGY_SEED", raising=False)
    gap_csv = tmp_path / "gap.csv"
    code, out, _ = run(capsys, "sweep", "--mode", "gap", "--kmax", "4", "--output", str(gap_csv))
    assert code == 0 and out == ""
    parser = cli._PARSER
    assert parser is not None
    code, out, _ = run(capsys, "simulate", "-K", "3", "-N", "3", "-M", "1", "--seed", "7")
    assert code == 0 and "seed=7" in out and out.count(": ok") == 3
    monkeypatch.setenv("SYNERGY_SEED", "5")
    code, out, _ = run(capsys, "simulate", "-K", "3", "-N", "3", "--replication", "2")
    assert code == 0 and "seed=5" in out and "replication=2" in out
    code, out, _ = run(capsys, "sweep", "--mode", "gap", "--kmax", "4")
    assert code == 0 and out == gap_csv.read_bytes().decode()
    code, _, err = run(capsys, "simulate", "-K", "3", "-N", "3", "-M", "1", "--replication", "1")
    assert code == 2 and "error:" in err
    code, out, _ = run(capsys, "simulate", "-K", "3", "-N", "3", "-M", "1")
    assert code == 0 and "seed=5" in out
    assert cli._PARSER is parser
