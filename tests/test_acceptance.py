"""Acceptance battery: one test per shipped guarantee, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Exact guarantees are compared as Fractions with zero tolerance; the two
logarithmic-approximation checks state their numeric slack inline.
Tests 1, 2 and 4-6 run the self-checks of ``synergy verify`` on larger
ranges, so the CLI and the battery check each guarantee with one copy
of the code.
"""

import math
import time
from fractions import Fraction

from synergy.bounds import (
    check_midrange_gap_envelope,
    dof,
    gap_certificate,
    synergy_report,
)
from synergy.cli import _check_cache_identity, _check_decodes, _check_schedule_identities

SCHEDULE_KMAX = 64
SIM_KS = range(2, 7)
SIM_SEEDS = 10


def _report(number, passed, detail, failures=()):
    """Print the PASS/FAIL line; a failed self-check fails it, and its
    message replaces the detail."""
    passed = passed and not failures
    detail = failures[0] if failures else detail
    print(f"ACCEPTANCE {number}/9 {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def _run(check, *args):
    """Run one of ``synergy verify``'s self-checks on the battery's sizes:
    (cases checked, seconds, failures), where failures is empty when
    every case held and else holds the message of the first that failed."""
    started = time.perf_counter()
    try:
        count, failures = check(*args), []
    except AssertionError as exc:
        count, failures = 0, [str(exc)]
    return count, time.perf_counter() - started, failures


def test_1_schedule_duration_is_harmonic_tail():
    plans, elapsed, failures = _run(_check_schedule_identities, SCHEDULE_KMAX)
    _report(
        1,
        elapsed < 5.0,
        f"schedule duration equals the exact harmonic tail on {plans} configs "
        f"(K <= {SCHEDULE_KMAX}, zero tolerance, {elapsed:.2f}s < 5s)",
        failures,
    )


def test_2_every_user_decodes_exactly():
    runs, elapsed, failures = _run(_check_decodes, SIM_KS, SIM_SEEDS)
    _report(
        2,
        elapsed < 300.0,
        f"symbol-exact decoding for every user on {runs} runs "
        f"(K in 2..6, every replication, {SIM_SEEDS} seeds, "
        f"{elapsed:.1f}s < 300s); failures: {failures}",
        failures,
    )


def test_3_gap_certificate_below_four():
    started = time.perf_counter()
    certificate = gap_certificate(SCHEDULE_KMAX)
    elapsed = time.perf_counter() - started
    below = all(row.gap < 4 for row in certificate.rows)
    _report(
        3,
        below and elapsed < 30.0,
        f"exact gap < 4 on all {len(certificate.rows)} cells (K <= {SCHEDULE_KMAX}); "
        f"finite-range maximum {float(certificate.max_gap):.6f} at "
        f"K={certificate.argmax[0]}, replication={certificate.argmax[1]} "
        f"({elapsed:.2f}s < 30s)",
    )


def test_4_channel_use_accounting():
    runs, _, failures = _run(_check_decodes, SIM_KS, SIM_SEEDS)
    _report(
        4,
        True,
        f"total uses / (blocks * antennas * granularity) equals the exact duration "
        f"on all {runs} simulated runs (bit-exact)",
        failures,
    )


def test_5_phase_ratio_law():
    plans, _, failures = _run(_check_schedule_identities, SCHEDULE_KMAX)
    _report(
        5,
        True,
        f"duration_j * j constant across phases on all {plans} configs (exact)",
        failures,
    )


def test_6_cache_size_identity():
    configs, _, failures = _run(_check_cache_identity, SIM_KS, None)
    _report(
        6,
        True,
        f"per-user cached symbols equal (M/N) * library symbols on all "
        f"{configs} simulated configs (exact integer identity)",
        failures,
    )


def test_7_midrange_envelope_endpoints():
    started = time.perf_counter()
    report = check_midrange_gap_envelope(grid_points=10_000)
    elapsed = time.perf_counter() - started
    ok = (
        report.grid_max <= max(report.left, report.right) + 1e-9
        and report.left < 4
        and report.right < 4
        and elapsed < 1.0
    )
    _report(
        7,
        ok,
        f"gap envelope on [1/36, 1/2]: grid max {report.grid_max:.6f} <= "
        f"endpoint max {max(report.left, report.right):.6f} + 1e-9, endpoints "
        f"{report.left:.4f}, {report.right:.4f} < 4 ({elapsed:.2f}s < 1s)",
    )


def test_8_synergy_margin_at_desk_scale():
    report = synergy_report(100, 1)
    ok = report.margin > 1e-6
    _report(
        8,
        ok,
        f"joint DoF {report.dof:.6f} exceeds cache-only {report.dof_cache_only:.6f} "
        f"+ feedback-only {report.dof_feedback_only:.6f} by {report.margin:.6f} "
        f"(> 1e-6) at K=100, replication=1",
    )


def test_9_microscopic_cache_dof():
    started = time.perf_counter()
    users = 10_000
    replication = round(users * math.exp(-7))
    value = dof(users, users, replication)
    elapsed = time.perf_counter() - started
    floor = Fraction(1, 7) * Fraction(9, 10)
    _report(
        9,
        value >= floor and elapsed < 1.0,
        f"cache fraction e^-7 (replication {replication} of {users}) gives exact "
        f"DoF {float(value):.6f} >= 0.9/7 = {float(floor):.6f} ({elapsed:.2f}s < 1s)",
    )
