"""The benchmark's tracer contract, checked on small instances.

``perfbench/tracer.py`` wraps named functions and methods of the package
and ``perfbench/workloads.json`` lists, per workload, the spans and
counters that must fire (``must_fire``); ``perfbench/run.py --trace 1``
fails when a wrapped name is missing or a listed name stays silent.
These tests install the same tracer and run one small instance of each
workload's operation under ``Tracer.run_op``, so renaming or shrinking a
traced name fails here as well as in a traced benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

# Importing the CLI loads every synergy module, which the tracer needs.
from synergy import cli, placement, simulator
from synergy.field import SeededRng
from synergy.scheduler import default_config, plan_phases

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
tracer_module = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tracer_module  # dataclasses resolve annotations through sys.modules
_SPEC.loader.exec_module(tracer_module)
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]


def traced(op):
    """Run ``op()`` as benchmark operation 0 under a freshly installed
    tracer; return its result, the names that fired and the counters."""
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        result = tracer.run_op(0, op)
    finally:
        tracer.uninstall()
    return result, tracer.fired([0]), tracer.counters[0]


def small_argv(argv):
    """A workload's ``simulate`` flags at K=N=3, with M at most 1."""
    argv = list(argv)
    for i, flag in enumerate(argv[:-1]):
        if flag in ("-K", "-N"):
            argv[i + 1] = "3"
        elif flag == "-M":
            argv[i + 1] = str(min(int(argv[i + 1]), 1))
    return argv


def simulate_op(spec, tmp_path):
    argv = [*small_argv(spec["argv"]), "--seed", "1", "--output", str(tmp_path / "run")]
    (code,), fired, counters = traced(lambda: (cli.main(argv),))
    assert code == 0
    config = default_config(3, 3, int(argv[argv.index("-M") + 1]))
    groups = sum(phase.group_count for phase in plan_phases(config).phases)
    # One Subset per group of the delivered transcript, as the benchmark counts.
    assert counters["combinatorics.Subset.created"] == groups
    return fired


def transcript_io_op(spec, tmp_path):
    config = default_config(3, 3, 0)
    library = placement.random_library(config, SeededRng(5).child(simulator.LIBRARY_STREAM))
    plan = plan_phases(config, (1, 2, 3), subfiles=placement.subpacketize(config, library))
    transcript = simulator.run_delivery(plan, library, 5)
    json_path, sidecar, library_path = (tmp_path / name for name in ("io.json", "io.bin", "lib.bin"))

    def op():
        simulator.save_transcript(transcript, json_path, sidecar)
        placement.save_library(library_path, config, library)
        loaded = simulator.load_transcript(json_path, sidecar)
        loaded_config, loaded_library = placement.load_library(library_path)
        return loaded == transcript, loaded_config == config and (loaded_library == library).all()

    (transcript_equal, library_equal), fired, _ = traced(op)
    assert transcript_equal and library_equal
    return fired


def analytics_op(spec, tmp_path):
    def op():
        return [
            cli.main(["sweep", "--mode", mode, "--kmax", "4", "--output", str(tmp_path / f"{mode}.csv")])
            for mode in ("gap", "dof")
        ]

    codes, fired, _ = traced(op)
    assert codes == [0, 0]
    return fired


SMALL_OPS = {"simulate": simulate_op, "transcript-io": transcript_io_op, "analytics": analytics_op}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_must_fire_name_fires_on_a_small_instance(name, tmp_path):
    spec = WORKLOADS[name]
    assert spec["kind"] in SMALL_OPS, f"no small instance of workload kind {spec['kind']!r}"
    fired = SMALL_OPS[spec["kind"]](spec, tmp_path)
    assert sorted(set(spec["must_fire"]) - fired) == []


def test_install_rejects_a_missing_name(monkeypatch):
    monkeypatch.delattr(simulator.Transcript, "__eq__")
    tracer = tracer_module.Tracer()
    with pytest.raises(tracer_module.TraceSetupError, match="Transcript.__eq__"):
        tracer.install()
    assert tracer._patches == []
