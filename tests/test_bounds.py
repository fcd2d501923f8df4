import csv
import dataclasses
import io
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest

from synergy import bounds
from synergy.bounds import (
    EULER_MASCHERONI,
    CertificateViolationError,
    OuterBound,
    SynergyReport,
    achievable_time,
    bound_report,
    cache_fraction_for_gap,
    check_midrange_gap_envelope,
    dof,
    gap_certificate,
    min_cache_fraction_for_gap,
    outer_bound,
    synergy_report,
)
from synergy.cli import main
from synergy.combinatorics import epsilon, harmonic


def test_achievable_time_examples():
    assert achievable_time(3, 1) == Fraction(5, 6)
    assert achievable_time(4, 1) == Fraction(13, 12)
    for K in (1, 2, 5, 9):
        assert achievable_time(K, K) == 0
    with pytest.raises(ValueError):
        achievable_time(3, 4)


def test_achievable_time_strictly_decreasing_in_replication():
    for K in (2, 5, 17, 64):
        times = [achievable_time(K, g) for g in range(K + 1)]
        assert all(a > b for a, b in zip(times, times[1:]))


def test_outer_bound_enumerated_example():
    # s = 1: 1 - 1/4; s = 2: 3/2 - 1; s = 3, 4 negative
    result = outer_bound(4, 4, 1)
    assert result.value == Fraction(3, 4)
    assert result.argmax_s == 1
    assert not result.clamped


def test_outer_bound_two_users():
    result = outer_bound(2, 2, 1)
    assert (result.value, result.argmax_s) == (Fraction(1, 2), 1)


def test_outer_bound_without_caches_is_full_harmonic():
    for K in (2, 3, 7):
        result = outer_bound(K, K, 0)
        assert result.value == harmonic(K)
        assert result.argmax_s == K


def test_outer_bound_matches_brute_force():
    def brute(K, N, M):
        M = Fraction(M)
        s_hi = K if M == 0 else min(math.floor(Fraction(N) / M), K)
        return max(harmonic(s) - s * M / (N // s) for s in range(1, s_hi + 1))

    for K in range(2, 12):
        for M in range(0, K + 1):
            result = outer_bound(K, K, M)
            assert result.value == max(brute(K, K, M), 0)


@pytest.mark.parametrize(
    "K, N, M",
    [(128, 128, 1), (300, 300, 2), (257, 400, Fraction(1, 3)), (200, 200, Fraction(7, 2)), (150, 150, 0)],
)
def test_outer_bound_matches_the_full_scan_past_its_early_stop(K, N, M):
    # the scan stops once an upper bound of every later candidate is below
    # the best; the full scan must agree on the value and the smallest argmax
    M = Fraction(M)
    s_hi = K if M == 0 else min(math.floor(N / M), K)
    candidates = [harmonic(s) - s * M / (N // s) for s in range(1, s_hi + 1)]
    best = max(candidates)
    result = outer_bound(K, N, M)
    assert (result.value, result.argmax_s) == (max(best, 0), candidates.index(best) + 1)


def test_outer_bound_builds_its_harmonic_table_only_as_far_as_it_scans():
    # The scan at K = N = 10**4, M = 1 stops near s = 70; a table built for
    # every s up to K took 52 MB and 0.2 s.
    K = 10**4
    for value in vars(bounds).values():
        getattr(value, "cache_clear", lambda: None)()
    tracemalloc.start()
    try:
        result = outer_bound(K, K, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the full scan over one common denominator lcm(1, ..., K): candidate s
    # is (heads[s] * q - common * s) / (common * q) with q = K // s
    common = math.lcm(*range(1, K + 1))
    heads = list(accumulate((common // s for s in range(1, K + 1)), initial=0))
    best_num, best_q, best_s = heads[1] * K - common, K, 1
    for s in range(2, K + 1):
        q = K // s
        num = heads[s] * q - common * s
        if num * best_q > best_num * q:
            best_num, best_q, best_s = num, q, s
    assert result == OuterBound(Fraction(best_num, common * best_q), best_s, False)


def test_outer_bound_rational_cache_size():
    result = outer_bound(4, 4, Fraction(3, 2))
    assert result.value == Fraction(5, 8)
    assert result.argmax_s == 1


def test_outer_bound_clamps_nonpositive():
    result = outer_bound(4, 4, 4)
    assert result.value == 0
    assert result.clamped


def test_outer_bound_validation():
    with pytest.raises(ValueError):
        outer_bound(3, 2, 1)
    with pytest.raises(ValueError):
        outer_bound(2, 2, 3)


def test_gap_examples():
    row = bound_report(4, 4, 1)
    assert row.gap == Fraction(13, 12) / Fraction(3, 4)
    assert row.gap == Fraction(13, 9)
    assert bound_report(2, 2, 1).gap == 1


def test_gap_certificate_small_sweep():
    certificate = gap_certificate(16)
    assert len(certificate.rows) == sum(K - 1 for K in range(2, 17))
    assert certificate.max_gap < 4
    for row in certificate.rows:
        assert row.lower_bound <= row.achievable
        assert 0 <= row.dof <= 1


def test_gap_certificate_reports_argmax():
    certificate = gap_certificate(12)
    best = max(certificate.rows, key=lambda row: row.gap)
    assert certificate.max_gap == best.gap
    assert certificate.argmax == (best.K, best.replication)


def test_gap_certificate_validation():
    with pytest.raises(ValueError):
        gap_certificate(1)


def test_gap_certificate_rows_equal_bound_reports_field_by_field():
    certificate = gap_certificate(24)
    cells = [(K, replication) for K in range(2, 25) for replication in range(1, K)]
    assert [(row.K, row.replication) for row in certificate.rows] == cells
    for row in certificate.rows:
        expected = bound_report(row.K, row.K, row.replication)
        assert row == expected
        for name in (field.name for field in dataclasses.fields(row)):
            assert type(getattr(row, name)) is type(getattr(expected, name)), (row.K, name)


def _csv_writer_line(row: dict) -> str:
    """``csv.writer``'s line for the values of a report's ``csv_row()``,
    without its line ending."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerow(row.values())
    line = buffer.getvalue()
    assert line.endswith("\r\n")
    return line[:-2]


def test_gap_certificate_csv_lines_match_the_reports_without_building_them():
    certificate = gap_certificate(24)
    lines = list(certificate.csv_lines())
    assert len(certificate.cells) == len(lines) == 23 * 24 // 2
    assert "rows" not in vars(certificate)  # built on first read only
    assert lines == [_csv_writer_line(row.csv_row()) for row in certificate.rows]


def test_every_dof_sweep_line_is_the_csv_writer_line_of_its_report(tmp_path):
    path = tmp_path / "dof.csv"
    assert main(["sweep", "--mode", "dof", "--kmax", "64", "--output", str(path)]) == 0
    header, *lines = path.read_bytes().decode().split("\r\n")
    assert lines.pop() == ""  # the last line ends in \r\n as well
    assert header == ",".join(SynergyReport.CSV_FIELDS)
    cells = [(K, replication) for K in range(2, 65) for replication in range(1, K)]
    assert len(lines) == len(cells)
    for line, (K, replication) in zip(lines, cells):
        report = synergy_report(K, replication)
        assert line == report.csv_line() == _csv_writer_line(report.csv_row()), (K, replication)


@pytest.mark.parametrize("shift", [0, 1])
def test_gap_certificate_rejects_a_cell_pushed_to_four(monkeypatch, shift):
    # the check cross-multiplies integer pairs: a lower bound of exactly a
    # quarter of the achievable time must fail, one a hair above must pass
    true_outer_bound = bounds.outer_bound

    def pushed(K, N, M):
        result = true_outer_bound(K, N, M)
        if (K, M) != (7, 3):
            return result
        quarter = achievable_time(7, 3) / 4 + Fraction(shift, 10**30)
        return OuterBound(value=quarter, argmax_s=result.argmax_s, clamped=False)

    monkeypatch.setattr(bounds, "outer_bound", pushed)
    if shift:
        certificate = gap_certificate(8)
        assert certificate.max_gap < 4 and certificate.argmax == (7, 3)
        return
    with pytest.raises(CertificateViolationError, match=r"^gap 4 at K=7, replication=3$"):
        gap_certificate(8)


def test_gap_certificate_rejects_a_clamped_lower_bound(monkeypatch):
    monkeypatch.setattr(
        bounds, "outer_bound", lambda K, N, M: OuterBound(value=Fraction(0), argmax_s=1, clamped=True)
    )
    with pytest.raises(CertificateViolationError, match=r"^gap None at K=2, replication=1$"):
        gap_certificate(2)


def test_every_bounds_memo_clears_and_a_cleared_sweep_writes_the_same_bytes(tmp_path):
    memos = {name for name, value in vars(bounds).items() if callable(getattr(value, "cache_clear", None))}
    assert {"harmonic", "epsilon", "_cumulative_harmonics", "_harmonic_table"} <= memos
    # state kept anywhere but in an lru_cache would survive the clearing
    held = [
        name
        for name, value in vars(bounds).items()
        if isinstance(value, (list, dict, set)) and name not in ("__all__", "__builtins__")
    ]
    assert held == []

    def cleared_sweep(name):
        for memo in memos:
            getattr(bounds, memo).cache_clear()
        path = tmp_path / name
        assert main(["sweep", "--mode", "gap", "--kmax", "16", "--output", str(path)]) == 0
        return path.read_bytes()

    first = cleared_sweep("first.csv")
    assert bounds._harmonic_table.cache_info().currsize > 0
    assert cleared_sweep("second.csv") == first


def test_midrange_case_closed_form():
    # replication at or above K/2 keeps time/(1 - fraction) under 2
    for K in range(2, 65):
        for replication in range((K + 1) // 2, K):
            ratio = achievable_time(K, replication) / (1 - Fraction(replication, K))
            assert ratio < 2


def test_dof_examples():
    assert dof(2, 2, 1) == 1
    assert dof(4, 4, 1) == Fraction(9, 13)
    for K in (2, 3, 8):
        assert dof(K, K, K - 1) == 1
    with pytest.raises(ValueError):
        dof(4, 4, 4)
    with pytest.raises(ValueError):
        dof(3, 4, 1)  # non-integral replication


@pytest.mark.parametrize("K, N", [(2, 0), (2, 1), (0, 0), (0, 3), (-1, 2)])
def test_dof_and_bound_report_need_at_least_as_many_files_as_users(K, N):
    # N = 0 used to divide by zero; N < K gave a DoF for a system with
    # fewer files than users.
    for function in (dof, bound_report):
        with pytest.raises(ValueError, match=r"^need 1 <= K <= N$"):
            function(K, N, 0)


def test_dof_stays_in_unit_interval():
    for K in range(2, 40):
        for M in range(0, K):
            assert 0 <= dof(K, K, M) <= 1


def test_synergy_feedback_only_baseline():
    report = synergy_report(3, 1)
    assert report.dof_feedback_only == pytest.approx(6 / 11, abs=1e-12)


def test_synergy_cache_only_baseline():
    report = synergy_report(10, 1)
    assert report.single_stream_time == Fraction(10 * Fraction(9, 10), 2)
    assert report.dof_cache_only == pytest.approx(1 / 5, abs=1e-12)
    assert report.dof_cache_only == pytest.approx(1 / 10 + 1 / 10, abs=1e-12)


def test_synergy_margin_positive_at_desk_scale():
    report = synergy_report(100, 1)
    assert report.margin > 0
    assert report.dof > report.dof_cache_only + report.dof_feedback_only


def test_synergy_validation():
    with pytest.raises(ValueError):
        synergy_report(4, 0)
    with pytest.raises(ValueError):
        synergy_report(4, 4)


def test_cache_fraction_for_gap_formula_and_decay():
    for K in (10, 1000):
        values = [cache_fraction_for_gap(g, K) for g in range(1, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[6] == pytest.approx(
            math.exp(-(7 - epsilon(K) + EULER_MASCHERONI)), rel=1e-12
        )
    with pytest.raises(ValueError):
        cache_fraction_for_gap(0.5, 10)


def test_cache_fraction_for_gap_rejects_non_normal_doubles():
    assert cache_fraction_for_gap(708, 1000) >= sys.float_info.min
    for gap in (709, 745, 746, 10**6):
        with pytest.raises(ValueError, match="smallest normal double"):
            cache_fraction_for_gap(gap, 1000)


@pytest.mark.parametrize("gap", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("function", [cache_fraction_for_gap, min_cache_fraction_for_gap])
def test_buffer_functions_reject_non_finite_targets(function, gap):
    # NaN used to pass `gap < 1` and read as "no replication reaches it".
    with pytest.raises(ValueError, match="must be finite"):
        function(gap, 10)


@pytest.mark.parametrize("M", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("function", [outer_bound, bound_report, dof])
def test_cache_size_must_be_finite(function, M):
    # infinite M used to raise OverflowError from Fraction(inf)
    with pytest.raises(ValueError, match=rf"^cache size must be a finite number, got {M}$"):
        function(4, 4, M)


@pytest.mark.parametrize(
    "call, message",
    [
        # each used to raise AttributeError (bit_length) or TypeError
        (lambda: outer_bound(3.5, 4, 1), "K must be an integer, got 3.5"),
        (lambda: gap_certificate(3.0), "K_max must be an integer, got 3.0"),
        (lambda: outer_bound("3", 6, 2), "K must be an integer, got '3'"),
        (lambda: gap_certificate("4"), "K_max must be an integer, got '4'"),
        (lambda: dof(3, 3.5, 1), "N must be an integer, got 3.5"),
        (lambda: min_cache_fraction_for_gap(3, 10.0), "K must be an integer, got 10.0"),
        # used to name harmonic, not N
        (lambda: dof(3, 6.0, 2), "N must be an integer, got 6.0"),
        # the first two used to raise TypeError, the third to name harmonic
        pytest.param(
            lambda: achievable_time(4, "1"),
            "replication must be an integer, got '1'",
            id="achievable_time-replication-str",
        ),
        pytest.param(
            lambda: synergy_report(4, "1"),
            "replication must be an integer, got '1'",
            id="synergy_report-replication-str",
        ),
        pytest.param(
            lambda: synergy_report(4, 1.5),
            "replication must be an integer, got 1.5",
            id="synergy_report-replication-float",
        ),
    ],
)
def test_non_integer_sizes_are_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        # each used to raise TypeError
        pytest.param(
            lambda: outer_bound(4, 4, None), "cache size must be a finite number, got None",
            id="outer_bound-M-None",
        ),
        pytest.param(
            lambda: outer_bound(4, 4, [1]), "cache size must be a finite number, got [1]",
            id="outer_bound-M-list",
        ),
        pytest.param(
            lambda: bound_report(4, 4, None), "cache size must be a finite number, got None",
            id="bound_report-M-None",
        ),
        pytest.param(
            lambda: bound_report(4, 4, [1]), "cache size must be a finite number, got [1]",
            id="bound_report-M-list",
        ),
        pytest.param(
            lambda: dof(4, 4, None), "cache size must be a finite number, got None", id="dof-M-None"
        ),
        pytest.param(
            lambda: dof(4, 4, [1]), "cache size must be a finite number, got [1]", id="dof-M-list"
        ),
        pytest.param(
            lambda: cache_fraction_for_gap("3", 4),
            "the target factor gap must be a real number, got '3'",
            id="cache_fraction_for_gap-gap-str",
        ),
        pytest.param(
            lambda: min_cache_fraction_for_gap(None, 4),
            "the target factor gap must be a real number, got None",
            id="min_cache_fraction_for_gap-gap-None",
        ),
        pytest.param(
            lambda: check_midrange_gap_envelope(2.5),
            "grid_points must be an integer, got 2.5",
            id="check_midrange_gap_envelope-float",
        ),
        pytest.param(
            lambda: check_midrange_gap_envelope("9"),
            "grid_points must be an integer, got '9'",
            id="check_midrange_gap_envelope-str",
        ),
    ],
)
def test_arguments_of_the_wrong_type_raise_a_value_error_that_names_them(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_achievable_time_rejects_a_non_integer_replication():
    # harmonic(1.5) used to recurse until RecursionError, then to raise a
    # ValueError that named harmonic, not replication
    with pytest.raises(ValueError, match="^replication must be an integer, got 1.5$"):
        achievable_time(3, 1.5)


def test_cache_fraction_formula_vs_exhaustive():
    formula = cache_fraction_for_gap(7, 1000)
    exhaustive = min_cache_fraction_for_gap(7, 1000)
    assert exhaustive is not None
    ratio = float(exhaustive) / formula
    assert 1 / 1.2 <= ratio <= 1.2


def test_min_cache_fraction_boundary():
    # replication K-1 always reaches the interference-free point exactly
    assert min_cache_fraction_for_gap(1, 5) == Fraction(4, 5)


def test_tiny_cache_reaches_target_dof():
    # cache fraction e^-G puts the per-user DoF within ~G of optimal
    K = 10_000
    for gap in (5, 7):
        replication = round(K * math.exp(-gap))
        value = float(dof(K, K, replication))
        assert value == pytest.approx(1 / gap, rel=0.1)


def test_envelope_endpoints_below_four():
    report = check_midrange_gap_envelope()
    assert report.left < 4
    assert report.right < 4
    assert report.left == pytest.approx(
        (math.log(36) + epsilon(2) - EULER_MASCHERONI) / (1 - 1 / 36), rel=1e-12
    )


def test_envelope_interior_dominated_by_endpoints():
    report = check_midrange_gap_envelope(grid_points=20_000)
    assert report.grid_max <= max(report.left, report.right) + 1e-9
    assert report.grid_argmax == pytest.approx(1 / 36, abs=1e-6)


def test_envelope_validation():
    with pytest.raises(ValueError):
        check_midrange_gap_envelope(grid_points=1)


def test_bound_report_csv_row():
    row = bound_report(4, 4, 1).csv_row()
    assert row["delivery_time"] == "13/12"
    assert row["lower_bound"] == "3/4"
    assert row["gap"] == pytest.approx(13 / 9)
    assert row["argmax_s"] == 1
    clamped = bound_report(4, 4, 4).csv_row()
    assert clamped["gap"] == ""


def test_synergy_csv_row():
    row = synergy_report(10, 1).csv_row()
    assert row["cache_fraction"] == "1/10"
    assert row["margin"] == pytest.approx(row["dof"] - row["dof_cache_only"] - row["dof_feedback_only"])
