"""Alternating parent/change pairs of the repository benchmark.

Runs ``perfbench/run.py --workload W --trace 0`` in two source trees, a
parent and a change, pair after pair, with the benchmark's own seed and
run length: in pair i (from 1) the parent runs first when i is odd and
the change first when i is even, so a slow spell of a shared machine
falls on both sides alike.  Every run's last stdout line is its result
line, ``{"correct", "attempted", "failed", "metrics"}``; the result file
it names on stdout adds the machine, the commit and the source SHA-256.  The summary is one JSON
file: per workload and end-to-end metric, each side's runs, median and
quartiles (linear interpolation, as numpy's default percentile), the
number of pairs the change won (ties count for neither side) and the
ratio of the medians.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --output bench.json --about "what changed"

Both trees must be complete checkouts with ``perfbench/`` and
``src/synergy/``; the workloads and the metric directions come from the
change tree's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_result_line(stdout: str) -> dict:
    """The last line of a benchmark run that is a JSON result object."""
    for line in reversed(stdout.strip().splitlines()):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            result = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(result, dict) and "metrics" in result:
            return result
    raise ValueError("benchmark output holds no result line")


def metric_values(result: dict) -> dict[str, float]:
    """``{name: value}`` of a result line's metrics."""
    return {name: float(entry["value"]) for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) with linear interpolation between order
    statistics; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """One workload's summary from the paired result lines (pair i is
    ``parent[i]`` and ``change[i]``).  ``better`` maps each metric to
    "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero, number of runs on both sides")
    values = {side: [metric_values(r) for r in runs] for side, runs in zip(SIDES, (parent, change))}
    metrics = {}
    for name, direction in better.items():
        if direction not in ("lower", "higher"):
            raise ValueError(f"metric {name}: better must be lower or higher, got {direction!r}")
        if not all(name in run for side in SIDES for run in values[side]):
            continue
        entry = {}
        for side in SIDES:
            runs = [run[name] for run in values[side]]
            q1, median, q3 = quartiles(runs)
            entry[side] = {"median": median, "q1": q1, "q3": q3, "runs": runs}
        sign = 1 if direction == "lower" else -1
        entry["change_wins"] = sum(
            sign * (p[name] - c[name]) > 0 for p, c in zip(values["parent"], values["change"])
        )
        base = entry["parent"]["median"]
        entry["ratio_of_medians"] = entry["change"]["median"] / base if base else None
        metrics[name] = entry
    return {
        "pairs": len(parent),
        "failed": {
            side: {
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
            }
            for side, runs in zip(SIDES, (parent, change))
        },
        "metrics": metrics,
    }


def result_file(stdout: str) -> Path:
    """The path of the result file a benchmark run names on stdout."""
    for line in stdout.splitlines():
        name, _, path = line.strip().partition("result file: ")
        if not name and path:
            return Path(path)
    raise ValueError("benchmark output names no result file")


def read_benchmark(tree: Path) -> tuple[list[str], dict[str, str]]:
    """The workload names and ``{metric: "lower" | "higher"}`` of the
    end-to-end metrics in ``tree``'s ``BENCHMARK.json``."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    return workloads, {entry["name"]: entry["better"] for entry in spec["end_to_end"]}


def run_once(tree: Path, workload: str) -> tuple[dict, dict]:
    """One benchmark run in ``tree``: its result line and the environment
    from its result file."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(command[1:])} exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    result = parse_result_line(done.stdout)
    return result, json.loads(result_file(done.stdout).read_text())["environment"]


def run_pairs(trees: dict[str, Path], workloads: list[str], pairs: int,
              directions: dict[str, str], log=print) -> tuple[dict, dict]:
    """Every workload's summary, and each side's environment from its
    last run."""
    summaries, environments = {}, {}
    for workload in workloads:
        results = {side: [] for side in SIDES}
        for pair in range(1, pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                result, environments[side] = run_once(trees[side], workload)
                results[side].append(result)
                log(f"{workload} pair {pair} {side}: {json.dumps(metric_values(result))}")
        summaries[workload] = summarize(results["parent"], results["change"], directions)
    return summaries, environments


def build_report(about: str, summaries: dict, environments: dict, command: str) -> dict:
    """The BENCH file: machine, both commits with their source SHA-256,
    the command and the per-workload summaries."""
    first = environments["change"]
    for key in ("cpu_model", "nproc", "python", "numpy"):
        if environments["parent"].get(key) != first.get(key):
            raise ValueError(f"the two trees ran with a different {key}")
    return {
        "about": about,
        "machine": {key: first.get(key) for key in ("cpu_model", "nproc", "python", "numpy")},
        "commits": {
            "parent": environments["parent"].get("git_commit"),
            "parent_source_sha256": environments["parent"]["source_sha256"],
            "change": environments["change"].get("git_commit"),
            "change_source_sha256": environments["change"]["source_sha256"],
            "source_sha256_definition": "perfbench/run.py: SHA-256 over src/synergy/*.py "
                                        "(name, NUL, bytes), sorted by name",
        },
        "command": command,
        "quartiles": "linear interpolation between order statistics (numpy's default "
                     "percentile); a win is a pair whose change run reads better",
        "workloads": summaries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--about", default="", help="what the change is, for the report")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads, directions = read_benchmark(trees["change"])
    summaries, environments = run_pairs(trees, workloads, args.pairs, directions)
    command = ("python3 perfbench/run.py --workload W --trace 0 (its default seed and run "
               "length), run in a separate source tree of each commit; in pair i (from 1) the "
               "parent runs first when i is odd and the change first when i is even")
    report = build_report(args.about, summaries, environments, command)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
