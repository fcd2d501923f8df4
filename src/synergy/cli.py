"""Command-line front end: end-to-end delivery simulation, analytic
sweeps, and a self-check battery.

Exit codes are the machine contract: 0 success, 1 analytic or decode
failure, 2 usage/configuration error.  All outputs are deterministic
given the flags and the seed (flag --seed, else env SYNERGY_SEED, else 0).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from .bounds import (
    BoundReport,
    CertificateViolationError,
    SynergyReport,
    cache_fraction_for_gap,
    check_midrange_gap_envelope,
    gap_certificate,
    min_cache_fraction_for_gap,
    synergy_report,
)
from .combinatorics import format_rational, harmonic
from .decoder import verify_all
from .field import MODULUS, SeededRng
from .placement import SystemConfig, fill_caches, load_library, random_library, subpacketize
from .scheduler import default_config, plan_phases, validate_demand
from .simulator import (
    DEMAND_STREAM,
    LIBRARY_STREAM,
    DegenerateChannelError,
    run_delivery,
    save_transcript,
    simulate,
)

_GAP_SWEEP_LIMIT = 256
# Sweep CSV lines per write call.  Larger blocks were no faster and held
# more: at 512 lines the kmax-128 gap sweep's tracemalloc peak was
# 0.13 MB above one csv.writer call per row, and 4,096 lines raised the
# peak RSS of both kmax-128 sweeps by 0.8-1.0 MB.
_CSV_BLOCK = 256
# buffer sweeps build a list of K+1 floats per gap target
_BUFFER_KMAX_LIMIT = 1_000_000


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SYNERGY_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"SYNERGY_SEED must be an integer, got {env!r}") from exc
    return 0


def _build_config(args) -> tuple[SystemConfig, np.ndarray | None]:
    """The config the flags give, and None; or, with --library, the
    config and the library of the file, loaded once."""
    if args.library is not None:
        config, library = load_library(args.library)
        for name, given in (("K", args.K), ("N", args.N), ("M", args.M)):
            if given is not None and given != getattr(config, name):
                raise UsageError(f"flag -{name} {given} conflicts with the library header")
        return config, library
    if args.K is None or args.N is None:
        raise UsageError("simulate needs -K and -N (or --library)")
    if args.K < 1:
        raise UsageError(f"-K must be at least 1, got {args.K}")
    if (args.M is None) == (args.replication is None):
        raise UsageError("give exactly one of -M or --replication")
    M = args.M
    if M is None:
        if (args.replication * args.N) % args.K:
            raise UsageError(
                f"replication {args.replication} does not give an integer cache size "
                f"for K={args.K}, N={args.N}"
            )
        M = (args.replication * args.N) // args.K
    try:
        if args.granularity is None:
            return default_config(args.K, args.N, M, modulus=args.modulus), None
        return SystemConfig(args.K, args.N, M, granularity=args.granularity, modulus=args.modulus), None
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_demand(spec: str, config: SystemConfig, seed: int) -> tuple[int, ...]:
    if spec == "distinct":
        if config.K > config.N:
            raise UsageError("distinct demands need K <= N")
        return tuple(range(1, config.K + 1))
    if spec == "uniform-random":
        rng = SeededRng(seed).child(DEMAND_STREAM)
        return tuple(1 + rng.uniform_int(config.N) for _ in range(config.K))
    try:
        demand = tuple(int(part) for part in spec.split(","))
    except ValueError as exc:
        raise UsageError(f"demand must be comma-separated integers, got {spec!r}") from exc
    try:
        return validate_demand(config, demand)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_simulate(args) -> int:
    config, library = _build_config(args)
    seed = _seed_from(args)
    demand = _parse_demand(args.demand, config, seed)
    if config.K > 8:
        print(f"warning: K={config.K} blocks grow as C(K, replication); expect a slow run",
              file=sys.stderr)
    if library is None:
        library = random_library(config, SeededRng(seed).child(LIBRARY_STREAM))
    mode = "resample" if args.resample_degenerate else "error"
    try:
        transcript = run_delivery(plan_phases(config, demand), library, seed, on_degenerate=mode)
    except DegenerateChannelError as exc:
        print(f"degenerate channel: {exc} (rerun with --resample-degenerate)", file=sys.stderr)
        return 1
    report = verify_all(transcript, library)

    total = transcript.plan.total_duration
    print(f"K={config.K} N={config.N} M={config.M} replication={config.replication} "
          f"granularity={config.granularity} seed={seed}")
    print(f"demand: {','.join(str(r) for r in demand)}")
    print(f"delivery time: {format_rational(total)} ({float(total):.6f}) "
          f"over {transcript.total_uses} channel uses")
    for entry in report.users:
        status = "ok" if entry.match else f"FAIL ({entry.error or 'mismatch'})"
        print(f"  user {entry.user} wants file {entry.requested}: {status}")

    if args.output is not None:
        prefix = Path(args.output)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        save_transcript(transcript, Path(f"{prefix}.transcript.json"),
                        Path(f"{prefix}.transcript.bin"))
        if args.format == "json":
            payload = {"format": "synergy-verification", "version": 1, **report.to_json()}
            Path(f"{prefix}.verification.json").write_text(json.dumps(payload, indent=2) + "\n")
        else:
            with open(f"{prefix}.verification.csv", "w", newline="") as fh:
                writer = csv.DictWriter(
                    fh, fieldnames=["user", "requested", "match", "solves", "max_system_dim", "error"]
                )
                writer.writeheader()
                for entry in report.users:
                    writer.writerow(entry.to_json())
        print(f"reports written under {prefix}")
    return 0 if report.all_pass else 1


def _csv_line(values: Iterable) -> str:
    """One CSV line of ``values``, without its line ending, as
    ``csv.writer`` writes it for the values the sweeps emit: ints, floats
    (``str`` of a float is its ``repr``), None as an empty field, and
    strings that need no quoting (``num/den`` and empty)."""
    return ",".join(["" if value is None else str(value) for value in values])


def _write_csv(header: tuple[str, ...], lines: Iterable[str], output: str | None) -> None:
    """Write a header and then the finished ``lines`` as they are
    produced, at most ``_CSV_BLOCK`` lines per ``write`` call, each ending
    in ``\r\n`` as ``csv.writer`` ends them."""
    lines = itertools.chain([",".join(header)], lines)
    target = open(output, "w", newline="") if output else sys.stdout
    try:
        while block := list(itertools.islice(lines, _CSV_BLOCK)):
            target.write("\r\n".join(block) + "\r\n")
    finally:
        if output:
            target.close()


def _parse_gap_range(spec: str) -> list[int]:
    try:
        lo, hi = spec.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"gap range must look like 1..10, got {spec!r}") from exc
    if lo < 1 or hi < lo:
        raise UsageError(f"gap range must be an increasing range of targets >= 1, got {spec!r}")
    return range(lo, hi + 1)


def _cmd_sweep(args) -> int:
    if args.mode in ("gap", "dof"):
        if not 2 <= args.kmax <= _GAP_SWEEP_LIMIT:
            raise UsageError(f"--kmax must lie in [2, {_GAP_SWEEP_LIMIT}] for {args.mode} sweeps")
    if args.mode == "gap":
        try:
            certificate = gap_certificate(args.kmax)
        except CertificateViolationError as exc:
            print(f"gap certificate violated: {exc}", file=sys.stderr)
            return 1
        _write_csv(BoundReport.CSV_FIELDS, certificate.csv_lines(), args.output)
        print(
            f"max gap {format_rational(certificate.max_gap)} "
            f"({float(certificate.max_gap):.6f}) at K={certificate.argmax[0]}, "
            f"replication={certificate.argmax[1]}; all {len(certificate.cells)} cells below 4",
            file=sys.stderr,
        )
        return 0
    if args.mode == "dof":
        lines = (
            synergy_report(K, replication).csv_line()
            for K in range(2, args.kmax + 1)
            for replication in range(1, K)
        )
        _write_csv(SynergyReport.CSV_FIELDS, lines, args.output)
        return 0
    # buffer mode: closed-form vs. exhaustive minimum cache fraction per target
    if not 2 <= args.kmax <= _BUFFER_KMAX_LIMIT:
        raise UsageError(f"--kmax must lie in [2, {_BUFFER_KMAX_LIMIT}] for buffer sweeps")
    gaps = _parse_gap_range(args.gap_range)
    # the closed form decreases in the target: reject an unrepresentable
    # largest target before any exhaustive search runs
    cache_fraction_for_gap(gaps[-1], args.kmax)
    lines = []
    for gap in gaps:
        exhaustive = min_cache_fraction_for_gap(gap, args.kmax)
        formula = cache_fraction_for_gap(gap, args.kmax)
        exhaustive = None if exhaustive is None else float(exhaustive)
        lines.append(_csv_line((gap, args.kmax, formula, exhaustive)))
    header = ("gap_target", "users", "cache_fraction_formula", "cache_fraction_exhaustive")
    _write_csv(header, lines, args.output)
    return 0


def _require(condition: bool, message: str) -> None:
    """Fail a self-check; unlike ``assert``, kept under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def _check_schedule_identities(kmax: int) -> int:
    """Check the plan of every K <= kmax and replication < K; return how many."""
    cases = [(K, replication) for K in range(1, kmax + 1) for replication in range(K)]
    for K, replication in cases:
        plan = plan_phases(default_config(K, K, replication))
        expected = harmonic(K) - harmonic(replication)
        _require(plan.total_duration == expected, f"duration off at K={K}, g={replication}")
        first = plan.phases[0]
        for phase in plan.phases:
            _require(
                phase.duration * phase.order == first.duration * first.order,
                f"ratio law off at K={K}, g={replication}, phase {phase.order}",
            )
        denom = plan.config.subfiles_per_file * (K - replication) * plan.config.granularity
        _require(plan.total_uses == expected * denom, f"use accounting off at K={K}, g={replication}")
    return len(cases)


def _check_cache_identity(users: range, granularity: int | None) -> int:
    """Check the caches of every K in ``users`` and replication in [0, K]
    at ``granularity`` (None: the minimal one); return how many."""
    cases = [(K, replication) for K in users for replication in range(K + 1)]
    for K, replication in cases:
        if granularity is None:
            config = default_config(K, K, replication)
        else:
            config = SystemConfig(K, K, replication, granularity=granularity)
        library = random_library(config, SeededRng(7).child(LIBRARY_STREAM))
        caches = fill_caches(config, subpacketize(config, library))
        expected = config.cache_fraction * config.library_symbols
        _require(expected.denominator == 1, f"fractional cache size at K={K}")
        for cache in caches:
            _require(cache.symbol_count == expected, f"cache identity off at K={K}")
    return len(cases)


def _check_decodes(users: range, seeds: int) -> int:
    """Simulate and decode every K in ``users``, replication in [0, K] and
    seed below ``seeds``; return how many runs."""
    cases = [(K, replication) for K in users for replication in range(K + 1)]
    for K, replication in cases:
        config = default_config(K, K, replication)
        denom = config.subfiles_per_file * (K - replication) * config.granularity
        for seed in range(seeds):
            transcript = simulate(config, tuple(range(1, K + 1)), seed)
            library = random_library(config, SeededRng(seed).child(LIBRARY_STREAM))
            report = verify_all(transcript, library)
            _require(
                report.all_pass,
                f"decode failed at K={K}, replication={replication}, seed={seed}: "
                + json.dumps(report.to_json()),
            )
            duration = transcript.plan.total_duration
            _require(
                duration == harmonic(K) - harmonic(replication)
                and transcript.total_uses == duration * denom,
                f"duration or use count off at K={K}, replication={replication}, seed={seed}",
            )
    return len(cases) * seeds


def _cmd_verify(args) -> int:
    quick = args.quick
    checks = [
        ("schedule duration + ratio identities", lambda: _check_schedule_identities(16 if quick else 64)),
        ("cache-size identity", lambda: _check_cache_identity(range(1, 7 if quick else 11), 1)),
        ("gap certificate", lambda: gap_certificate(16 if quick else 64)),
        ("mid-range gap envelope", check_midrange_gap_envelope),
        ("end-to-end decode", lambda: _check_decodes(range(2, 5 if quick else 7), 1 if quick else 2)),
    ]
    for name, check in checks:
        try:
            check()
        except Exception as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok {name}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synergy",
        description="Cache-aided broadcast delivery with delayed channel feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run placement, delivery and per-user decoding")
    sim.add_argument("-K", type=int, default=None, help="number of users/antennas")
    sim.add_argument("-N", type=int, default=None, help="number of library files")
    sim.add_argument("-M", type=int, default=None, help="per-user cache size in files")
    sim.add_argument("--replication", type=int, default=None,
                     help="K*M/N, alternative to -M")
    sim.add_argument("--granularity", type=int, default=None,
                     help="symbols per first-phase stream (default: minimal feasible)")
    sim.add_argument("--modulus", type=int, default=MODULUS, help="field modulus (prime)")
    sim.add_argument("--seed", type=int, default=None, help="seed (default: $SYNERGY_SEED or 0)")
    sim.add_argument("--demand", default="distinct",
                     help='comma-separated 1-based file indices, "distinct" or "uniform-random"')
    sim.add_argument("--library", default=None, help="binary library file to load")
    sim.add_argument("--output", default=None, help="prefix for transcript + verification reports")
    sim.add_argument("--format", choices=("json", "csv"), default="json",
                     help="verification report format")
    sim.add_argument("--resample-degenerate", action="store_true",
                     help="redraw channel uses that break decodability instead of failing")
    sim.set_defaults(handler=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="emit plot-ready CSV over parameter grids")
    sweep.add_argument("--mode", choices=("gap", "dof", "buffer"), required=True)
    sweep.add_argument("--kmax", type=int, default=64, help="largest K (gap/dof) or the K (buffer)")
    sweep.add_argument("--gap-range", default="1..10",
                       help="buffer mode: inclusive integer range of gap targets, e.g. 1..10")
    sweep.add_argument("--output", default=None, help="CSV path (default: stdout)")
    sweep.set_defaults(handler=_cmd_sweep)

    verify = sub.add_parser("verify", help="run the self-check battery")
    verify.add_argument("--quick", action="store_true", help="reduced ranges, < 30 s")
    verify.set_defaults(handler=_cmd_verify)
    return parser


# One parser per process, built by the first ``main`` call rather than on
# import (importing the CLI stays as cheap as before).  Parsing leaves the
# parser unchanged, and the seed's environment fallback is read by the
# handler, not at parse time, so every call parses afresh.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
