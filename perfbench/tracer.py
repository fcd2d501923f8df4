"""Span tracer for the benchmark's traced run.

Wraps public functions of the ``synergy`` package from outside the
package: a module-level function is replaced under every name a
``synergy`` module binds it to (so ``synergy.cli.run_delivery`` and
``synergy.simulator.run_delivery`` both see the wrapper), and a method is
replaced on its class.  Each call records one span (name, start, end,
parent span, operation id) in memory; optional hooks add exact counts
taken from the call's arguments and result.  Nothing under ``src/`` is
edited, and :meth:`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import gzip
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class TraceSetupError(RuntimeError):
    """A wrapped name is missing, or a span that must fire never did."""


Hook = Callable[[dict, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module`` is a synergy submodule, ``attr`` a
    function name or ``Class.method``; ``span`` is the metric prefix."""

    module: str
    attr: str
    span: str
    hook: Hook | None = None
    counters: tuple[str, ...] = ()


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if p is not None)


def _max_solve_dim(counters, args, kwargs, result):
    dim = len(args[0]) if args else len(kwargs["a"])
    counters["field.solve.max_dim"] = max(counters.get("field.solve.max_dim", 0), dim)


def _delivered(counters, args, kwargs, result):
    _add(counters, "simulator.uses", result.total_uses)


def _transcript_written(counters, args, kwargs, result):
    # The sidecar defaults to the JSON path with a .bin suffix.
    json_path = Path(args[1])
    sidecar = args[2] if len(args) > 2 else kwargs.get("sidecar_path")
    sidecar = json_path.with_suffix(".bin") if sidecar is None else sidecar
    _add(counters, "simulator.transcript_bytes", _file_bytes(json_path, sidecar))


def _decode_totals(counters, args, kwargs, result):
    _add(counters, "decoder.solves", sum(entry.solves for entry in result.users))
    dims = [entry.max_system_dim for entry in result.users] or [0]
    counters["decoder.max_system_dim"] = max(counters.get("decoder.max_system_dim", 0), max(dims))


def _planned(counters, args, kwargs, result):
    _add(counters, "scheduler.groups", sum(phase.group_count for phase in result.phases))


def _library_drawn(counters, args, kwargs, result):
    _add(counters, "placement.random_library.draws", int(result.size))


def _library_file(counters, args, kwargs, result):
    _add(counters, "placement.library_bytes", _file_bytes(args[0]))


def _certificate_cells(counters, args, kwargs, result):
    _add(counters, "bounds.cells", len(result.rows))


def _one_cell(counters, args, kwargs, result):
    _add(counters, "bounds.cells", 1)


def _add(counters: dict, key: str, amount) -> None:
    counters[key] = counters.get(key, 0) + amount


# Every public entry point the per-module metrics need, per layer.  File
# sizes are counted when a file is saved, not again when it is loaded.
TARGETS = (
    Target("field", "solve", "field.solve", _max_solve_dim, ("field.solve.max_dim",)),
    Target("field", "is_invertible", "field.is_invertible"),
    Target("field", "SeededRng.field_matrix", "field.field_matrix"),
    Target("field", "matmul", "field.matmul"),
    Target("simulator", "run_delivery", "simulator.run_delivery", _delivered, ("simulator.uses",)),
    Target("simulator", "save_transcript", "simulator.save_transcript", _transcript_written,
           ("simulator.transcript_bytes",)),
    Target("simulator", "load_transcript", "simulator.load_transcript"),
    Target("simulator", "Transcript.__eq__", "simulator.transcript_eq"),
    Target("decoder", "verify_all", "decoder.verify_all", _decode_totals,
           ("decoder.solves", "decoder.max_system_dim")),
    Target("decoder", "decode_user", "decoder.decode_user"),
    Target("scheduler", "plan_phases", "scheduler.plan_phases", _planned, ("scheduler.groups",)),
    Target("placement", "random_library", "placement.random_library", _library_drawn,
           ("placement.random_library.draws",)),
    Target("placement", "subpacketize", "placement.subpacketize"),
    Target("placement", "fill_caches", "placement.fill_caches"),
    Target("placement", "save_library", "placement.save_library", _library_file,
           ("placement.library_bytes",)),
    Target("placement", "load_library", "placement.load_library"),
    Target("bounds", "gap_certificate", "bounds.gap_certificate", _certificate_cells, ("bounds.cells",)),
    Target("bounds", "outer_bound", "bounds.outer_bound"),
    Target("bounds", "synergy_report", "bounds.synergy_report", _one_cell, ("bounds.cells",)),
    Target("cli", "main", "cli.main"),
)
# Called tens of thousands of times per operation: counted, without spans.
COUNTED = (Target("combinatorics", "Subset.__post_init__", "combinatorics.Subset.created"),)

PACKAGE = "synergy"
OP_SPAN = "bench.op"
# Counters that keep the largest value seen rather than a per-op mean.
MAX_COUNTERS = frozenset({"field.solve.max_dim", "decoder.max_system_dim"})


def metric_names() -> set[str]:
    """Every per-operation metric the targets can produce; a declared
    metric outside this set can never be measured."""
    names = {target.span for target in COUNTED}
    for target in TARGETS:
        names.update(f"{target.span}.{kind}" for kind in ("calls", "s", "self_s"))
        names.update(target.counters)
    return names


class Tracer:
    """In-memory span recorder.  Spans are ``(id, parent, op, name,
    start_ns, end_ns)``; counters are per operation id."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counters: dict[int, dict] = {}
        self._stack: list[int] = []
        self._next_id = 1
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a missing module or name is an error."""
        if self._patches:
            raise TraceSetupError("tracer already installed")
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        try:
            for target in TARGETS:
                self._install_one(target, modules, self._wrap)
            for target in COUNTED:
                self._install_one(target, modules, self._count)
        except TraceSetupError:
            self.uninstall()
            raise

    def _install_one(self, target: Target, modules, wrap) -> None:
        module = sys.modules.get(f"{PACKAGE}.{target.module}")
        if module is None:
            raise TraceSetupError(f"module {PACKAGE}.{target.module} is not loaded")
        owner_name, _, method = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is None or method not in vars(owner):
                raise TraceSetupError(f"{PACKAGE}.{target.module}.{target.attr} does not exist")
            self._patch(owner, method, wrap(vars(owner)[method], target))
            return
        original = getattr(module, method, None)
        if not callable(original):
            raise TraceSetupError(f"{PACKAGE}.{target.module}.{method} does not exist")
        wrapper = wrap(original, target)
        for holder in modules:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, attr, wrapper)

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def _count(self, fn, target: Target):
        tracer, name = self, target.span

        def counted(*args, **kwargs):
            _add(tracer.counters.setdefault(tracer._op, {}), name, 1)
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, target: Target):
        tracer = self
        name, hook = target.span, target.hook

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else 0
            span_id = tracer._next_id
            tracer._next_id += 1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, parent, tracer._op, name, start, end))
            if hook is not None:
                hook(tracer.counters.setdefault(tracer._op, {}), args, kwargs, result)
            return result

        return traced

    # -- operations ---------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation under a root span."""
        self._op = op_id
        self.counters.setdefault(op_id, {})
        root = self._wrap(fn, Target("", "", OP_SPAN))
        try:
            return root(*args)
        finally:
            self._op = -1

    def fired(self, op_ids) -> set[str]:
        """Names of spans and counters seen in the given operations."""
        ops = set(op_ids)
        names = {span[3] for span in self.spans if span[2] in ops}
        for op in ops:
            names.update(key for key, value in self.counters.get(op, {}).items() if value)
        return names

    def per_op(self, op_ids) -> dict[str, float]:
        """Per-operation means of call counts, summed span time, self time
        and hook counters over the given operations."""
        ops = set(op_ids)
        if not ops:
            raise ValueError("no traced operations to summarise")
        spans = [span for span in self.spans if span[2] in ops]
        child_ns: dict[int, int] = {}
        for span_id, parent, _, _, start, end in spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        for span_id, _, _, name, start, end in spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + (end - start)
            own[name] = own.get(name, 0) + (end - start) - child_ns.get(span_id, 0)
        out: dict[str, float] = {}
        n = len(ops)
        for name in calls:
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.s"] = total[name] / n / 1e9
            out[f"{name}.self_s"] = own[name] / n / 1e9
        summed: dict[str, float] = {}
        peaks: dict[str, float] = {}
        for op in ops:
            for key, value in self.counters.get(op, {}).items():
                if key in MAX_COUNTERS:
                    peaks[key] = max(peaks.get(key, 0), value)
                else:
                    summed[key] = summed.get(key, 0) + value
        out.update({key: value / n for key, value in summed.items()})
        out.update(peaks)
        return out

    def write_spans(self, path: Path) -> None:
        """Write every recorded span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=3) as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%d,%d\n" % span)
