"""Differential tests: the integer-pair arithmetic in ``synergy.bounds``
against a straightforward ``Fraction`` reference.

The reference functions below are the per-candidate ``Fraction`` loops the
module used before it moved to integer pairs.  Every field must match
exactly (``==`` on floats too, and the same types); error types and
messages must match as well.
"""

import math
from fractions import Fraction

import pytest

from synergy.bounds import (
    BoundReport,
    OuterBound,
    SynergyReport,
    achievable_time,
    bound_report,
    cache_fraction_for_gap,
    dof,
    min_cache_fraction_for_gap,
    outer_bound,
    synergy_report,
)
from synergy.combinatorics import harmonic


def ref_achievable_time(K, replication):
    if not 0 <= replication <= K:
        raise ValueError(f"replication must lie in [0, K], got {replication}")
    return harmonic(K) - harmonic(replication)


def ref_outer_bound(K, N, M):
    if K < 1 or N < K:
        raise ValueError("need 1 <= K <= N")
    M = Fraction(M)
    if not 0 <= M <= N:
        raise ValueError(f"cache size must lie in [0, {N}] files, got {M}")
    s_hi = K if M == 0 else min(math.floor(Fraction(N) / M), K)
    best = None
    best_s = 1
    for s in range(1, s_hi + 1):
        value = harmonic(s) - s * M / (N // s)
        if best is None or value > best:
            best, best_s = value, s
    return OuterBound(value=max(best, Fraction(0)), argmax_s=best_s, clamped=best <= 0)


def ref_dof(K, N, M):
    M = Fraction(M)
    replication = K * M / N
    if replication.denominator != 1:
        raise ValueError(f"K*M/N must be an integer, got {replication}")
    replication = int(replication)
    if replication >= K:
        raise ValueError("dof is undefined when everything is cached (replication = K)")
    return (1 - M / N) / ref_achievable_time(K, replication)


def ref_bound_report(K, N, M):
    M = Fraction(M)
    replication = K * M / N
    if replication.denominator != 1:
        raise ValueError(f"K*M/N must be an integer, got {replication}")
    replication = int(replication)
    achievable = ref_achievable_time(K, replication)
    lower = ref_outer_bound(K, N, M)
    return BoundReport(
        K=K,
        N=N,
        M=M,
        replication=replication,
        cache_fraction=M / N,
        achievable=achievable,
        lower_bound=lower.value,
        gap=None if lower.clamped else achievable / lower.value,
        dof=ref_dof(K, N, M) if replication < K else Fraction(0),
        argmax_s=lower.argmax_s,
    )


def ref_synergy_report(K, replication):
    if not 1 <= replication <= K - 1:
        raise ValueError(f"replication must lie in [1, K-1], got {replication}")
    gamma = Fraction(replication, K)
    joint = float(ref_dof(K, K, replication))
    single_stream_time = K * (1 - gamma) / (1 + K * gamma)
    cache_only = float((1 - gamma) / single_stream_time)
    feedback_only = 1.0 / float(harmonic(K))
    return SynergyReport(
        K=K,
        replication=replication,
        cache_fraction=gamma,
        dof=joint,
        dof_cache_only=cache_only,
        dof_feedback_only=feedback_only,
        margin=joint - (cache_only + feedback_only),
        single_stream_time=single_stream_time,
    )


def outcome(function, *args):
    """Comparable result: every field with its type, or the error."""
    try:
        result = function(*args)
    except ValueError as exc:
        return "error", type(exc), str(exc)
    fields = vars(result).values() if hasattr(result, "__dict__") else [result]
    return "ok", [(type(value), value) for value in fields]


def grid(K_max):
    """(K, N, M) with N in {K, K+3, 2K} and M over the integers, thirds
    and sevenths in [0, N], plus one step past each end."""
    for K in range(1, K_max + 1):
        for N in sorted({K, K + 3, 2 * K}):
            for step in (1, 3, 7):
                for numerator in range(-1, N * step + 2):
                    yield K, N, numerator if step == 1 else Fraction(numerator, step)


GRID = list(grid(20))


def test_grid_covers_rational_oversized_and_clamped_cases():
    assert any(isinstance(M, Fraction) and M.denominator == 7 for _, _, M in GRID)
    assert any(N > K for K, N, _ in GRID)
    assert any(ref_outer_bound(K, N, M).clamped for K, N, M in GRID if 0 <= M <= N)


@pytest.mark.parametrize(
    "function, reference",
    [(outer_bound, ref_outer_bound), (bound_report, ref_bound_report), (dof, ref_dof)],
    ids=["outer_bound", "bound_report", "dof"],
)
def test_matches_fraction_reference(function, reference):
    for K, N, M in GRID:
        assert outcome(function, K, N, M) == outcome(reference, K, N, M), (K, N, M)


def test_accepts_every_rational_spelling_of_the_cache_size():
    for M in (3, Fraction(3), 3.0, "3", Fraction(9, 7), "9/7", 1.5):
        for function, reference in ((outer_bound, ref_outer_bound), (bound_report, ref_bound_report)):
            assert outcome(function, 6, 6, M) == outcome(reference, 6, 6, M), (function, M)


def test_achievable_time_matches_reference():
    for K in range(0, 40):
        for replication in range(-1, K + 2):
            assert outcome(achievable_time, K, replication) == outcome(
                ref_achievable_time, K, replication
            )


def test_synergy_report_matches_reference_to_K_128():
    for K in range(2, 129):
        for replication in range(1, K):
            assert outcome(synergy_report, K, replication) == outcome(
                ref_synergy_report, K, replication
            ), (K, replication)
    for K, replication in ((4, 0), (4, 4), (1, 1)):
        assert outcome(synergy_report, K, replication) == outcome(ref_synergy_report, K, replication)


def ref_min_cache_fraction_for_gap(gap, K):
    # The per-replication loop over a float cumulative harmonic list.
    target = 1.0 / gap
    cumulative = [0.0]
    for i in range(1, K + 1):
        cumulative.append(cumulative[-1] + 1.0 / i)
    for replication in range(1, K):
        time = cumulative[K] - cumulative[replication]
        if (1.0 - replication / K) / time >= target - 1e-12:
            return Fraction(replication, K)
    return None


@pytest.mark.parametrize("K", [2, 3, 7, 64, 1000, 12_345])
def test_min_cache_fraction_matches_loop_reference(K):
    for gap in (1, 1.05, 1.5, 2, 3, 4.5, 7, 12, 40):
        assert min_cache_fraction_for_gap(gap, K) == ref_min_cache_fraction_for_gap(gap, K), gap


@pytest.mark.parametrize("K", [-1, 0, 1])
def test_min_cache_fraction_needs_two_users(K):
    # No replication in 1..K-1 to search: rejected, as in cache_fraction_for_gap.
    for gap in (1, 2, 40):
        for function in (min_cache_fraction_for_gap, cache_fraction_for_gap):
            with pytest.raises(ValueError, match="need at least two users"):
                function(gap, K)
