import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def line(op_cost, setup_s, failed=0, attempted=20):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "op_cost": {"value": op_cost, "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
    }


DIRECTIONS = {"op_cost": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}


def test_parse_result_line_takes_the_last_result():
    stdout = "\n".join([
        "fine-resample: 20 ops",
        json.dumps(line(1.0, 0.1)),
        "note: {not json",
        json.dumps(line(2.0, 0.2)),
        "",
    ])
    assert bench_pairs.parse_result_line(stdout)["metrics"]["op_cost"]["value"] == 2.0
    with pytest.raises(ValueError, match="no result line"):
        bench_pairs.parse_result_line("benchmark error: boom\n{\"gate_ok\": true}\n")


def test_result_file_is_the_path_named_on_stdout():
    stdout = "\n".join([
        "workload coarse  seed 1  ops 20  failed 0  error_rate 0/20",
        "  op_cost = 8.1 ref",
        "  result file: /tmp/tree/perfbench/out/coarse-seed1-trace0.json",
        json.dumps(line(8.1, 0.1)),
    ])
    assert bench_pairs.result_file(stdout) == Path("/tmp/tree/perfbench/out/coarse-seed1-trace0.json")
    with pytest.raises(ValueError, match="no result file"):
        bench_pairs.result_file(json.dumps(line(8.1, 0.1)))


def test_read_benchmark_takes_workloads_and_directions_from_the_spec(tmp_path):
    spec = {
        "workloads": [{"name": "coarse", "why": "a"}, {"name": "analytics", "why": "b"}],
        "end_to_end": [{"name": "op_cost", "better": "lower"}, {"name": "rate", "better": "higher"}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    assert bench_pairs.read_benchmark(tmp_path) == (
        ["coarse", "analytics"], {"op_cost": "lower", "rate": "higher"}
    )


def test_quartiles_match_numpy_linear_percentiles():
    for values in ([3.0], [1.0, 2.0], [5.0, 1.0, 4.0, 2.0, 3.0], [0.3, 9.1, 2.2, 7.5, 1.0, 4.4, 8.8]):
        q1, median, q3 = bench_pairs.quartiles(values)
        assert (q1, median, q3) == pytest.approx(tuple(np.percentile(values, [25, 50, 75])))


def test_summarize_counts_wins_per_pair():
    parent = [line(10.0, 0.10), line(11.0, 0.12), line(12.0, 0.11), line(9.0, 0.10)]
    change = [line(8.0, 0.11), line(8.5, 0.12), line(12.5, 0.10), line(7.0, 0.10, failed=1)]
    summary = bench_pairs.summarize(parent, change, DIRECTIONS)
    assert summary["pairs"] == 4
    op_cost = summary["metrics"]["op_cost"]
    assert op_cost["change_wins"] == 3  # pair 3 reads higher
    assert op_cost["parent"]["runs"] == [10.0, 11.0, 12.0, 9.0]
    assert op_cost["parent"]["median"] == 10.5
    assert op_cost["change"]["median"] == 8.25
    assert op_cost["ratio_of_medians"] == pytest.approx(8.25 / 10.5)
    # ties (pairs 2 and 4) count for neither side
    assert summary["metrics"]["setup_s"]["change_wins"] == 1
    assert "peak_rss_mb" not in summary["metrics"]  # in no result line
    assert summary["failed"] == {
        "parent": {"attempted": 80, "failed": 0},
        "change": {"attempted": 80, "failed": 1},
    }


def test_summarize_higher_is_better_and_rejects_mismatched_pairs():
    summary = bench_pairs.summarize([line(1.0, 0.1)], [line(2.0, 0.1)], {"op_cost": "higher"})
    assert summary["metrics"]["op_cost"]["change_wins"] == 1
    with pytest.raises(ValueError, match="same"):
        bench_pairs.summarize([line(1.0, 0.1)], [], DIRECTIONS)
    with pytest.raises(ValueError, match="better must be"):
        bench_pairs.summarize([line(1.0, 0.1)], [line(1.0, 0.1)], {"op_cost": "faster"})


def test_build_report_records_both_commits():
    environment = {"cpu_model": "cpu", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
    environments = {
        "parent": {**environment, "git_commit": "aaa", "source_sha256": "p" * 64},
        "change": {**environment, "git_commit": None, "source_sha256": "c" * 64},
    }
    summaries = {"coarse": bench_pairs.summarize([line(1.0, 0.1)], [line(0.9, 0.1)], DIRECTIONS)}
    report = bench_pairs.build_report("about", summaries, environments, "cmd")
    assert report["commits"]["parent"] == "aaa"
    assert report["commits"]["change"] is None
    assert report["commits"]["change_source_sha256"] == "c" * 64
    assert report["machine"] == environment
    assert report["workloads"]["coarse"]["metrics"]["op_cost"]["change_wins"] == 1
    json.dumps(report)  # serializable as written
    environments["parent"]["numpy"] = "1.0"
    with pytest.raises(ValueError, match="numpy"):
        bench_pairs.build_report("about", summaries, environments, "cmd")


def test_run_pairs_alternates_which_side_runs_first(monkeypatch):
    calls = []

    def fake_run_once(tree, workload):
        calls.append(tree.name)
        value = 10.0 if tree.name == "parent" else 8.0
        return line(value, 0.1), {"source_sha256": tree.name}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    trees = {"parent": Path("parent"), "change": Path("change")}
    summaries, environments = bench_pairs.run_pairs(
        trees, ["coarse"], 3, DIRECTIONS, log=lambda message: None
    )
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert summaries["coarse"]["metrics"]["op_cost"]["change_wins"] == 3
    assert environments["change"] == {"source_sha256": "change"}
