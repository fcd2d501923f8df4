"""Benchmark of the synergy package: one workload per run, in-process,
single-threaded.

    python3 perfbench/run.py --workload coarse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Run it from any directory of a source checkout; it imports ``synergy``
from the checkout's ``src/`` and nothing else.  Workloads, pinned
outputs and the modules each workload must exercise live in
``perfbench/workloads.json``; the metric names and units it prints come
from ``BENCHMARK.json``.  A run times operations until ``--seconds`` have
passed, checks every operation's output (a failed check is counted,
never asserted), writes a result file under ``perfbench/out/`` and
prints one JSON object as its last line.  ``--trace 1`` alternates
untraced and traced operations and reports per-module numbers instead
of end-to-end ones; ``--self-check`` feeds every output check a
deliberately wrong input and exits 0 only if each one is counted as a
failure.
"""

import os

# Pinned before numpy loads, so that no BLAS or OpenMP pool adds threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from tracer import TraceSetupError, Tracer, metric_names  # noqa: E402

# Set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS
# have passed (cheap set-ups get more repetitions), and the median kept.
SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_SECONDS = 4.0
# The reference loop is timed before and after every operation.  On a
# shared machine the speed a process gets changes by up to 2x within
# seconds and between periods of minutes; dividing an operation's time by
# the reference time taken next to it cancels most of that change.  A
# loop of small numpy matrix products was tried as well: it followed
# coarse and analytics more closely but swung on its own while
# fine-resample and transcript-io operations held steady.
REFERENCE_ITERATIONS = 100_000
REFERENCE_REPEATS = 3
# setup_s is each set-up's time divided by the reference time measured
# around it, scaled to a machine on which the reference loop takes this
# long (about what it takes on a quiet 2 GHz Xeon core), so that it
# follows the code and not the period the run landed in.
REFERENCE_NOMINAL_S = 0.0075
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import synergy, synergy.cli; print(time.perf_counter() - start)"
)
SYNERGY_MODULES = ("bounds", "cli", "combinatorics", "decoder", "field", "placement", "scheduler", "simulator")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_synergy():
    """Import every synergy module from this checkout's ``src/``."""
    if not (SRC / "synergy" / "__init__.py").is_file():
        raise BenchError(f"no synergy sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"synergy.{name}") for name in SYNERGY_MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"synergy imported from {origin}, not from {SRC}")
    return argparse.Namespace(**modules)


def import_probe() -> float:
    """Seconds a fresh interpreter spends importing synergy (numpy
    included): what every CLI call pays before any work."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        raise BenchError(f"import probe failed: {done.stderr.strip()[-300:]}")
    return float(done.stdout.strip().splitlines()[-1])


def clear_program_caches(syn) -> None:
    """Empty the package's memo caches so every operation pays what a
    fresh CLI process pays, whatever ran before it."""
    for module in vars(syn).values():
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def run_cli(syn, argv: list[str]) -> tuple[int, str, str]:
    """``synergy.cli.main`` in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = syn.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def flip_byte(path: Path, offset_share: float = 0.5) -> None:
    """Invert one byte of a file in place (for the negative self-check)."""
    data = bytearray(Path(path).read_bytes())
    index = int(len(data) * offset_share)
    data[index] ^= 0xFF
    Path(path).write_bytes(bytes(data))


class Verdict:
    """Outcome of one operation's output check."""

    def __init__(self, work: float = 0.0, reasons=(), info=None):
        self.reasons = list(reasons)
        self.work = work
        self.info = info or {}

    @property
    def ok(self) -> bool:
        return not self.reasons


class SimulateWorkload:
    """One ``synergy simulate`` run per operation."""

    def __init__(self, syn, name: str, spec: dict, workdir: Path):
        self.syn, self.name, self.spec, self.workdir = syn, name, spec, workdir
        self.prefix = workdir / "run"
        self.pins = spec["transcript_sha256"]

    def round_seeds(self, seed: int) -> list[int]:
        pool = sorted(int(s) for s in self.pins)
        return random.Random(seed).sample(pool, len(pool))

    def prepare(self, seeds) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def outputs(self) -> list[Path]:
        return sorted(self.workdir.glob(self.prefix.name + ".*"))

    def op(self, round_seed: int):
        for stale in self.outputs():
            stale.unlink()
        argv = [*self.spec["argv"], "--seed", str(round_seed), "--output", str(self.prefix)]
        return run_cli(self.syn, argv)

    def check(self, round_seed: int, outcome, pins=None) -> Verdict:
        pins = self.pins if pins is None else pins
        code, stdout, stderr = outcome
        reasons = []
        if code != 0:
            reasons.append(f"exit code {code}: {stderr.strip()[-200:]}")
        found = re.search(r"over (\d+) channel uses", stdout)
        uses = int(found.group(1)) if found else None
        if uses != self.spec["facts"]["uses"]:
            reasons.append(f"{uses} channel uses, expected {self.spec['facts']['uses']}")
        sidecar = Path(f"{self.prefix}.transcript.bin")
        digest = sha256_file(sidecar) if sidecar.is_file() else None
        pinned = pins.get(str(round_seed))
        if digest is None:
            reasons.append("no transcript sidecar written")
        elif pinned is not None and digest != pinned:
            reasons.append(f"transcript sha256 {digest} != pinned {pinned}")
        info = {"round_seed": round_seed, "transcript_sha256": digest, "pinned": pinned is not None}
        return Verdict(uses or 0, reasons, info)

    def negative_cases(self, round_seed: int, outcome):
        sidecar = Path(f"{self.prefix}.transcript.bin")
        wrong = {key: "0" * 64 for key in self.pins}
        yield "wrong pinned digest", lambda: self.check(round_seed, outcome, pins=wrong)

        def flipped():
            flip_byte(sidecar)
            return self.check(round_seed, outcome)

        yield "flipped sidecar byte", flipped


class TranscriptIOWorkload:
    """Save, load and compare one K=9 transcript and its library per
    operation."""

    def __init__(self, syn, name: str, spec: dict, workdir: Path):
        self.syn, self.name, self.spec, self.workdir = syn, name, spec, workdir
        self.json_path = workdir / "io.transcript.json"
        self.sidecar = workdir / "io.transcript.bin"
        self.library_path = workdir / "io.library.bin"

    def round_seeds(self, seed: int) -> list[int]:
        return [random.Random(seed).randrange(1 << 32)]

    def prepare(self, seeds) -> None:
        syn, facts = self.syn, self.spec["facts"]
        self.workdir.mkdir(parents=True, exist_ok=True)
        round_seed = seeds[0]
        config = syn.scheduler.default_config(facts["K"], facts["N"], facts["M"])
        stream = syn.field.SeededRng(round_seed).child(syn.simulator.LIBRARY_STREAM)
        library = syn.placement.random_library(config, stream)
        demand = tuple(range(1, config.K + 1))
        plan = syn.scheduler.plan_phases(config, demand, subfiles=syn.placement.subpacketize(config, library))
        self.config, self.library = config, library
        self.transcript = syn.simulator.run_delivery(plan, library, round_seed)

    def op(self, round_seed: int, tamper=None):
        syn = self.syn
        syn.simulator.save_transcript(self.transcript, self.json_path, self.sidecar)
        syn.placement.save_library(self.library_path, self.config, self.library)
        if tamper is not None:
            tamper()
        loaded = syn.simulator.load_transcript(self.json_path, self.sidecar)
        transcript_equal = loaded == self.transcript
        config, library = syn.placement.load_library(self.library_path)
        library_equal = config == self.config and bool((library == self.library).all())
        return transcript_equal, library_equal

    def file_bytes(self) -> int:
        return sum(path.stat().st_size for path in (self.json_path, self.sidecar, self.library_path))

    def check(self, round_seed: int, outcome) -> Verdict:
        transcript_equal, library_equal = outcome
        reasons = []
        if not transcript_equal:
            reasons.append("loaded transcript differs from the saved one")
        if not library_equal:
            reasons.append("loaded library differs from the saved one")
        if self.transcript.total_uses != self.spec["facts"]["uses"]:
            reasons.append(f"{self.transcript.total_uses} uses, expected {self.spec['facts']['uses']}")
        # Every byte is written once and read once.
        return Verdict(2 * self.file_bytes() / 1e6, reasons, {"round_seed": round_seed})

    def negative_cases(self, round_seed: int, outcome):
        def corrupt(path):
            def run():
                try:
                    result = self.op(round_seed, tamper=lambda: flip_byte(path))
                except Exception as exc:  # a loader rejecting the file is a failed op
                    return Verdict(reasons=[f"{type(exc).__name__}: {exc}"])
                return self.check(round_seed, result)

            return run

        yield "flipped sidecar byte", corrupt(self.sidecar)
        yield "flipped library byte", corrupt(self.library_path)


class AnalyticsWorkload:
    """``synergy sweep --mode gap`` then ``--mode dof`` per operation."""

    def __init__(self, syn, name: str, spec: dict, workdir: Path):
        self.syn, self.name, self.spec, self.workdir = syn, name, spec, workdir
        self.gap_csv = workdir / "gap.csv"
        self.dof_csv = workdir / "dof.csv"

    def round_seeds(self, seed: int) -> list[int]:
        return [seed]  # the sweeps take no random input

    def prepare(self, seeds) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def op(self, round_seed: int):
        kmax = str(self.spec["facts"]["kmax"])
        for stale in (self.gap_csv, self.dof_csv):
            stale.unlink(missing_ok=True)
        gap = run_cli(self.syn, ["sweep", "--mode", "gap", "--kmax", kmax, "--output", str(self.gap_csv)])
        dof = run_cli(self.syn, ["sweep", "--mode", "dof", "--kmax", kmax, "--output", str(self.dof_csv)])
        return gap, dof

    def check(self, round_seed: int, outcome, pins=None) -> Verdict:
        pins = self.spec["pins"] if pins is None else pins
        (gap_code, _, gap_err), (dof_code, _, dof_err) = outcome
        reasons = []
        if gap_code != 0 or dof_code != 0:
            reasons.append(f"exit codes {gap_code}, {dof_code}: {(gap_err + dof_err).strip()[-200:]}")
        found = re.search(r"max gap (\d+/\d+)", gap_err)
        if found is None or found.group(1) != pins["max_gap"]:
            reasons.append(f"max gap {found and found.group(1)} != pinned {pins['max_gap']}")
        rows = 0
        for path, key in ((self.gap_csv, "gap_csv_sha256"), (self.dof_csv, "dof_csv_sha256")):
            if not path.is_file():
                reasons.append(f"{path.name} not written")
                continue
            if sha256_file(path) != pins[key]:
                reasons.append(f"{path.name} sha256 differs from the pinned digest")
            with open(path) as fh:
                rows += sum(1 for _ in fh) - 1
        if rows != self.spec["facts"]["rows"]:
            reasons.append(f"{rows} CSV rows, expected {self.spec['facts']['rows']}")
        return Verdict(rows, reasons)

    def negative_cases(self, round_seed: int, outcome):
        pins = self.spec["pins"]
        yield "wrong pinned gap digest", lambda: self.check(
            round_seed, outcome, pins={**pins, "gap_csv_sha256": "0" * 64}
        )
        yield "wrong pinned max_gap", lambda: self.check(round_seed, outcome, pins={**pins, "max_gap": "4/1"})


KINDS = {"simulate": SimulateWorkload, "transcript-io": TranscriptIOWorkload, "analytics": AnalyticsWorkload}


def load_specs() -> tuple[dict, dict]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    return benchmark, workloads


def make_workload(syn, name: str, spec: dict, workdir: Path):
    return KINDS[spec["kind"]](syn, name, spec, workdir)


def median_tail(samples: list[float]) -> dict:
    """Median plus the highest of p75/p90/p99 with at least ten samples
    beyond it, when the run has that many."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    for pct in (99, 90, 75):
        rank = math.ceil(len(ordered) * pct / 100) - 1  # nearest-rank percentile
        if len(ordered) - 1 - rank >= 10:
            out[f"p{pct}"] = ordered[rank]
            break
    return out


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "synergy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "command": [sys.executable, *sys.argv],
        "workload_seed": args.seed,
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: the CPU speed the process
    got at this moment."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def reference_seconds() -> float:
    return min(reference_loop() for _ in range(REFERENCE_REPEATS))


class OpSample:
    """One timed operation: wall seconds, the reference-loop seconds
    measured right before and after it, and its check."""

    def __init__(self, seconds: float, reference: float, verdict: Verdict, traced: bool):
        self.seconds, self.reference, self.verdict, self.traced = seconds, reference, verdict, traced

    @property
    def cost(self) -> float:
        return self.seconds / self.reference


def timed_op(syn, workload, round_seed: int, tracer: Tracer | None = None, op_id: int = 0) -> OpSample:
    """Run and check one operation between two reference measurements."""
    clear_program_caches(syn)
    before = reference_seconds()
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.op(round_seed)
        else:
            outcome = tracer.run_op(op_id, workload.op, round_seed)
    except Exception as exc:  # counted as a failed operation, never raised
        seconds = time.perf_counter() - start
        verdict = Verdict(reasons=[f"{type(exc).__name__}: {exc}"], info={"round_seed": round_seed})
    else:
        seconds = time.perf_counter() - start
        verdict = workload.check(round_seed, outcome)
    reference = (before + reference_seconds()) / 2
    return OpSample(seconds, reference, verdict, tracer is not None)


def measure(args, benchmark: dict, spec: dict, workload, syn, setup_s: float, seeds: list[int]) -> dict:
    tracer = Tracer() if args.trace else None
    samples: list[OpSample] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(samples)
        round_seed = seeds[index % len(seeds)]
        if tracer is not None and index % 2 == 1:
            tracer.install()
            try:
                samples.append(timed_op(syn, workload, round_seed, tracer, index))
            finally:
                tracer.uninstall()
        else:
            samples.append(timed_op(syn, workload, round_seed))
        if time.perf_counter() >= deadline and (tracer is None or len(samples) > 1):
            break

    plain = [sample for sample in samples if not sample.traced]
    traced_ids = [i for i, sample in enumerate(samples) if sample.traced]
    failed = [sample.verdict for sample in samples if not sample.verdict.ok]
    work = sum(sample.verdict.work for sample in samples if sample.verdict.ok)
    detail = {
        "op_s": median_tail([sample.seconds for sample in plain]),
        "op_cost": median_tail([sample.cost for sample in plain]),
        spec["throughput"]["name"]: {
            "value": work / sum(sample.seconds for sample in samples),
            "unit": spec["throughput"]["unit"],
        },
        "error_rate": len(failed) / len(samples),
        "failures": [
            {"op": i, "reasons": s.verdict.reasons, **s.verdict.info}
            for i, s in enumerate(samples) if not s.verdict.ok
        ][:20],
        "unpinned_digests": [s.verdict.info for s in samples if s.verdict.info.get("pinned") is False],
        "round_seeds": [seeds[i % len(seeds)] for i in range(len(samples))],
        "ops": [{"seconds": s.seconds, "reference_s": s.reference, "traced": s.traced} for s in samples],
    }
    reference_s = statistics.median(sample.reference for sample in samples)
    detail["reference_s"] = reference_s
    if tracer is None:
        values = {
            "op_cost": statistics.median(sample.cost for sample in plain),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        declared = benchmark["end_to_end"]
    else:
        traced = [samples[i] for i in traced_ids]
        values = layer_metrics(tracer, traced_ids, spec, syn, workload, seeds)
        values["trace.op_s"] = statistics.median(sample.seconds for sample in traced)
        values["trace.untraced_op_s"] = statistics.median(sample.seconds for sample in plain)
        values["trace.overhead_s"] = values["trace.op_s"] - values["trace.untraced_op_s"]
        declared = benchmark["per_layer"]
        detail["traced_op_s"] = median_tail([sample.seconds for sample in traced])
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
        "detail": detail,
        "tracer": tracer,
    }


def layer_metrics(tracer: Tracer, traced_ids, spec, syn, workload, seeds) -> dict:
    """Per-operation numbers from the traced operations, plus the peak
    allocation of one more, untraced operation under tracemalloc (kept
    out of the timed operations)."""
    fired = tracer.fired(traced_ids)
    silent = [name for name in spec["must_fire"] if name not in fired]
    if silent:
        raise TraceSetupError(f"wrapped names never fired on {workload.name}: {silent}")
    values = tracer.per_op(traced_ids)
    clear_program_caches(syn)
    tracemalloc.start()
    try:
        workload.op(seeds[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    draws = values.get("field.field_matrix.calls", 0.0)
    uses = values.get("simulator.uses", 0.0)
    values["simulator.channel_draws"] = draws
    values["simulator.redraws"] = draws - uses
    values["simulator.draw_yield"] = uses / draws if draws else 0.0
    # The operation's peak is the delivery's (and its decode's) where the
    # operation runs a delivery.
    values["simulator.peak_alloc_mb"] = peak / 1e6 if values.get("simulator.run_delivery.calls") else 0
    # A wrapped layer the workload never enters measured zero; a declared
    # name no target produces is left missing and reported as an error.
    for name in metric_names():
        values.setdefault(name, 0)
    return values


def run(args) -> int:
    benchmark, specs = load_specs()
    if args.workload not in specs:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(specs)}")
    spec = specs[args.workload]
    start = time.perf_counter()
    syn = load_synergy()
    import_s = time.perf_counter() - start

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        # One set-up: what a fresh process pays for `import synergy`, plus
        # the workload's preparation.
        probes: list[float] = []
        prep: list[float] = []
        costs: list[float] = []
        setup_start = time.perf_counter()
        while len(costs) < SETUP_REPEATS or (
            len(costs) < SETUP_MAX_REPEATS and time.perf_counter() - setup_start < SETUP_SECONDS
        ):
            before = reference_seconds()
            probes.append(import_probe())
            begin = time.perf_counter()
            workload = make_workload(syn, args.workload, spec, workdir)
            seeds = workload.round_seeds(args.seed)
            workload.prepare(seeds)
            prep.append(time.perf_counter() - begin)
            costs.append((probes[-1] + prep[-1]) / ((before + reference_seconds()) / 2))
        setup_s = statistics.median(costs) * REFERENCE_NOMINAL_S
        result = measure(args, benchmark, spec, workload, syn, setup_s, seeds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tracer = result.pop("tracer")
    detail = result.pop("detail")
    detail["setup"] = {"import_probe_s": probes, "prepare_s": prep, "cost": costs,
                       "in_process_import_s": import_s}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": environment(args), "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, **result, "detail": detail}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.csv.gz")

    print(f"workload {args.workload}  seed {args.seed}  ops {result['attempted']}  "
          f"failed {result['failed']}  error_rate {detail['error_rate']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    throughput = spec["throughput"]["name"]
    print(f"  {throughput} = {detail[throughput]['value']} {detail[throughput]['unit']}")
    print(f"  op_s = {detail['op_s']}")
    for failure in detail["failures"]:
        print(f"  FAILED op {failure['op']}: {failure['reasons']}")
    print(f"  result file: {OUT / (stem + '.json')}")
    print(json.dumps(result))
    return 0


def self_check(args) -> int:
    """Feed each workload's output check deliberately wrong inputs; every
    such operation must be counted as failed."""
    _, specs = load_specs()
    syn = load_synergy()
    names = [args.workload] if args.workload else list(specs)
    attempted = failed = 0
    gate_ok = True
    OUT.mkdir(parents=True, exist_ok=True)
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"selfcheck-{name}-", dir=OUT))
        try:
            workload = make_workload(syn, name, specs[name], workdir)
            seeds = workload.round_seeds(args.seed)
            workload.prepare(seeds)
            clear_program_caches(syn)
            outcome = workload.op(seeds[0])
            clean = workload.check(seeds[0], outcome)
            attempted += 1
            failed += not clean.ok
            gate_ok &= clean.ok
            print(f"{name}: clean op {'passed' if clean.ok else 'FAILED ' + str(clean.reasons)}")
            for case, check in workload.negative_cases(seeds[0], outcome):
                verdict = check()
                attempted += 1
                failed += not verdict.ok
                gate_ok &= not verdict.ok
                print(f"{name}: {case}: {'counted as failed' if not verdict.ok else 'NOT CAUGHT'}"
                      f" {verdict.reasons[:1]}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"gate_ok": gate_ok, "attempted": attempted, "failed": failed,
                      "error_rate": failed / attempted}))
    return 0 if gate_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every output check on deliberately wrong inputs")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check(args)
        if not args.workload:
            raise BenchError("--workload is required")
        return run(args)
    except (BenchError, TraceSetupError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
