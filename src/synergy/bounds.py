"""Analytic performance results: exact achievable delivery time, a
converse lower bound, optimality-gap certification, and per-user DoF
metrics quantifying what caching and delayed feedback deliver jointly.

Delivery time is measured in normalized slots (one slot = serving one
file to one user interference-free).  Exact intermediate values are
integer numerator/denominator pairs, and each exact value a function
returns is built once, as a reduced Fraction.  The floats are int / int
divisions, which Python rounds correctly.  The logarithmic-approximation
metrics (cache_fraction_for_gap, the mid-range gap envelope) use doubles.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import ClassVar, Iterator

import numpy as np

from .combinatorics import _as_int, epsilon, format_rational, harmonic

__all__ = [
    "EULER_MASCHERONI",
    "CertificateViolationError",
    "EnvelopeCheckError",
    "OuterBound",
    "BoundReport",
    "GapCertificate",
    "SynergyReport",
    "EnvelopeReport",
    "achievable_time",
    "outer_bound",
    "dof",
    "bound_report",
    "gap_certificate",
    "synergy_report",
    "cache_fraction_for_gap",
    "min_cache_fraction_for_gap",
    "check_midrange_gap_envelope",
]

EULER_MASCHERONI = 0.5772156649015329


class CertificateViolationError(Exception):
    """A sweep cell broke the factor-4 gap guarantee (implementation bug)."""


class EnvelopeCheckError(Exception):
    """The mid-range gap envelope failed an endpoint-dominance check."""


def _split(M) -> tuple[int, int]:
    """Numerator and positive denominator of a cache size (int or rational);
    ValueError for an infinite or NaN one."""
    if type(M) is int:
        return M, 1
    if not isinstance(M, Fraction):
        try:
            M = Fraction(M)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"cache size must be a finite number, got {M!r}") from exc
    return M.numerator, M.denominator


def _sizes(K, N) -> tuple[int, int]:
    """K and N as ints; ValueError naming the argument that is not an
    integer, or unless 1 <= K <= N."""
    K, N = _as_int(K, "K must be an integer"), _as_int(N, "N must be an integer")
    if K < 1 or N < K:
        raise ValueError("need 1 <= K <= N")
    return K, N


def _replication(K: int, N: int, mn: int, md: int) -> int:
    """K*M/N for M = mn/md; ValueError unless it is an integer."""
    replication, rest = divmod(K * mn, N * md)
    if rest:
        raise ValueError(f"K*M/N must be an integer, got {Fraction(K * mn, N * md)}")
    return replication


@lru_cache(maxsize=None)
def _harmonic_table(size: int) -> tuple[int, tuple[int, ...]]:
    """L = lcm(1, ..., size - 1) and the numerators of harmonic(0), ...,
    harmonic(size - 1) over L, unreduced: each the previous plus L / n."""
    # every n below size // 2 divides one of its doublings in the upper half
    common = math.lcm(*range(size // 2, size))
    return common, tuple(accumulate((common // n for n in range(1, size)), initial=0))


def _harmonics(n: int) -> tuple[int, tuple[int, ...]]:
    """A common denominator and a numerator table whose entry s is
    harmonic(s) over it for every s in [0, n]; sizes are powers of two,
    so a sweep over n builds few tables."""
    return _harmonic_table(1 << n.bit_length())


def _achievable_pair(K: int, replication: int) -> tuple[int, int]:
    """harmonic(K) - harmonic(replication) as an unreduced pair."""
    if not 0 <= replication <= K:
        raise ValueError(f"replication must lie in [0, K], got {replication}")
    whole_num, whole_den = harmonic(K).as_integer_ratio()
    head_num, head_den = harmonic(replication).as_integer_ratio()
    return whole_num * head_den - head_num * whole_den, whole_den * head_den


def _dof_pair(N: int, mn: int, md: int, achievable: tuple[int, int]) -> tuple[int, int]:
    """Per-user DoF (1 - M/N) / achievable for M = mn/md, as an unreduced
    pair; the denominator is zero when nothing is left to deliver."""
    time_num, time_den = achievable
    return (N * md - mn) * time_den, N * md * time_num


def achievable_time(K: int, replication: int) -> Fraction:
    """Delivery time of the scheme: harmonic(K) - harmonic(replication)."""
    K = _as_int(K, "K must be an integer")
    replication = _as_int(replication, "replication must be an integer")
    return Fraction(*_achievable_pair(K, replication))


@dataclass(frozen=True)
class OuterBound:
    """Converse lower bound on delivery time.

    ``argmax_s`` is the smallest maximizer of the bound expression;
    ``clamped`` flags a raw maximum that was non-positive (reported as 0).
    """

    value: Fraction
    argmax_s: int
    clamped: bool


def outer_bound(K: int, N: int, M) -> OuterBound:
    """Lower bound on the optimal delivery time:
    max over s in {1, ..., min(floor(N/M), K)} of
    harmonic(s) - s*M / floor(N/s).

    M = mn/md may be rational; all arithmetic is exact.  With the
    harmonic table's common denominator L and q = md*floor(N/s), the
    candidate of s is (L*harmonic(s)*q - L*mn*s) / (L*q): candidates
    compare by cross-multiplying the small q's, and only the maximum is
    reduced.
    """
    K, N = _sizes(K, N)
    mn, md = _split(M)
    if not 0 <= mn <= N * md:
        raise ValueError(f"cache size must lie in [0, {N}] files, got {Fraction(mn, md)}")
    n_md = N * md
    s_hi = K if mn == 0 else min(n_md // mn, K)
    # Most scans stop early, so the table starts at 64 entries at most and
    # doubles only when the scan runs past its end, which the IndexError
    # catches at no cost to the scans that stop; lcm(1, ..., n) divides
    # lcm(1, ..., 2n), so the best candidate is rescaled exactly.
    common, table = _harmonics(s_hi if s_hi < 64 else 63)
    scaled = common * mn
    best_num, best_q, best_s = common * n_md - scaled, n_md, 1
    for s in range(2, s_hi + 1):
        try:
            head = table[s]
        except IndexError:
            larger, table = _harmonic_table(2 * s)
            best_num, common, scaled = best_num * (larger // common), larger, larger * mn
            head = table[s]
        # harmonic(s) - s*s*M/N bounds candidate s from above, and its steps
        # 1/(s+1) - (2s+1)*M/N shrink: once it is below the best it has
        # passed its peak, so no later candidate can win
        if best_q * (head * n_md - scaled * s * s) < best_num * n_md:
            break
        q = md * (N // s)
        num = head * q - scaled * s
        # strict, so the smallest maximizer is kept
        if num * best_q > best_num * q:
            best_num, best_q, best_s = num, q, s
    # positional: keywords cost a fifth of this call on the sweeps' path
    if best_num <= 0:
        return OuterBound(Fraction(0), best_s, True)
    return OuterBound(Fraction(best_num, common * best_q), best_s, False)


def dof(K: int, N: int, M) -> Fraction:
    """Per-user degrees of freedom (1 - M/N) / achievable_time.

    Excludes the local caching gain, so the value lies in [0, 1].
    Requires replication K*M/N integral and below K (an all-cached system
    has no delivery to measure).
    """
    K, N = _sizes(K, N)
    mn, md = _split(M)
    replication = _replication(K, N, mn, md)
    if replication >= K:
        raise ValueError("dof is undefined when everything is cached (replication = K)")
    return Fraction(*_dof_pair(N, mn, md, _achievable_pair(K, replication)))


@dataclass(frozen=True)
class BoundReport:
    """One analytic row: achievable time, lower bound, and their ratio."""

    CSV_FIELDS: ClassVar[tuple[str, ...]] = (
        "K",
        "replication",
        "cache_fraction",
        "delivery_time",
        "delivery_time_decimal",
        "lower_bound",
        "lower_bound_decimal",
        "gap",
        "argmax_s",
    )

    K: int
    N: int
    M: Fraction
    replication: int
    cache_fraction: Fraction
    achievable: Fraction
    lower_bound: Fraction
    gap: Fraction | None
    dof: Fraction
    argmax_s: int

    def csv_row(self) -> dict:
        values = (
            self.K,
            self.replication,
            format_rational(self.cache_fraction),
            format_rational(self.achievable),
            float(self.achievable),
            format_rational(self.lower_bound),
            float(self.lower_bound),
            "" if self.gap is None else float(self.gap),
            self.argmax_s,
        )
        return dict(zip(self.CSV_FIELDS, values))


def _bound_row(
    K: int, N: int, mn: int, md: int, replication: int, achievable: tuple[int, int], lower: OuterBound
) -> BoundReport:
    """The report of M = mn/md from its achievable-time pair and its bound."""
    gap = None
    if not lower.clamped:
        time_num, time_den = achievable
        gap = Fraction(time_num * lower.value.denominator, time_den * lower.value.numerator)
    return BoundReport(
        K=K,
        N=N,
        M=Fraction(mn, md),
        replication=replication,
        cache_fraction=Fraction(mn, N * md),
        achievable=Fraction(*achievable),
        lower_bound=lower.value,
        gap=gap,
        dof=Fraction(*_dof_pair(N, mn, md, achievable)) if replication < K else Fraction(0),
        argmax_s=lower.argmax_s,
    )


def bound_report(K: int, N: int, M) -> BoundReport:
    """Achievable time vs. lower bound for one configuration.

    ``gap`` is None when the raw lower bound is non-positive (nothing to
    divide by); that never happens on the certification sweep.
    """
    K, N = _sizes(K, N)
    mn, md = _split(M)
    replication = _replication(K, N, mn, md)
    return _bound_row(
        K, N, mn, md, replication, _achievable_pair(K, replication), outer_bound(K, N, M)
    )


@dataclass(frozen=True)
class GapCertificate:
    """Exhaustive sweep result: every cell's exact gap is below 4.

    ``cells`` holds one ``(K, replication, achievable numerator,
    achievable denominator, lower-bound numerator, lower-bound
    denominator, argmax_s)`` tuple per cell in sweep order, both pairs
    reduced; the cell's exact gap is achievable / lower bound.  ``rows``
    builds one :class:`BoundReport` per cell on first read, each equal to
    ``bound_report(K, K, replication)``.
    """

    cells: tuple[tuple[int, int, int, int, int, int, int], ...]
    max_gap: Fraction
    argmax: tuple[int, int]  # (K, replication)

    @cached_property
    def rows(self) -> tuple[BoundReport, ...]:
        return tuple(
            _bound_row(
                K, K, replication, 1, replication, (time_num, time_den),
                OuterBound(Fraction(low_num, low_den), argmax_s, clamped=False),
            )
            for K, replication, time_num, time_den, low_num, low_den, argmax_s in self.cells
        )

    def csv_lines(self) -> Iterator[str]:
        """Every cell's gap-sweep CSV line, without its line ending: the
        values of ``row.csv_row()`` for each of ``rows``, as ``csv.writer``
        writes them, formatted from the cells without building the rows."""
        for K, replication, time_num, time_den, low_num, low_den, argmax_s in self.cells:
            common = math.gcd(replication, K)
            yield (
                f"{K},{replication},{replication // common}/{K // common},"
                f"{time_num}/{time_den},{time_num / time_den!r},"
                f"{low_num}/{low_den},{low_num / low_den!r},"
                f"{time_num * low_den / (time_den * low_num)!r},{argmax_s}"
            )


def gap_certificate(K_max: int) -> GapCertificate:
    """Exact gap for every K <= K_max, N = K, replication in [1, K-1].

    Raises CertificateViolationError the moment any exact ratio reaches
    4 (which would falsify the implementation, not the guarantee).
    """
    K_max = _as_int(K_max, "K_max must be an integer")
    if K_max < 2:
        raise ValueError("the sweep needs K_max >= 2")
    cells = []
    # every certified gap is positive, so the first cell replaces 0/1
    best_num, best_den, argmax = 0, 1, (0, 0)
    for K in range(2, K_max + 1):
        common, table = _harmonics(K)
        whole = table[K]
        for replication in range(1, K):
            time_num = whole - table[replication]
            shared = math.gcd(time_num, common)
            time_num, time_den = time_num // shared, common // shared
            lower = outer_bound(K, K, replication)
            low_num, low_den = lower.value.as_integer_ratio()
            gap_num, gap_den = time_num * low_den, time_den * low_num
            if lower.clamped or gap_num >= 4 * gap_den:
                gap = None if lower.clamped else Fraction(gap_num, gap_den)
                raise CertificateViolationError(
                    f"gap {gap} at K={K}, replication={replication}"
                )
            cells.append((K, replication, time_num, time_den, low_num, low_den, lower.argmax_s))
            if gap_num * best_den > best_num * gap_den:
                best_num, best_den, argmax = gap_num, gap_den, (K, replication)
    return GapCertificate(cells=tuple(cells), max_gap=Fraction(best_num, best_den), argmax=argmax)


@dataclass(frozen=True)
class SynergyReport:
    """Joint DoF against the two single-ingredient baselines.

    ``dof_cache_only`` is the single-stream coded-delivery baseline (no
    feedback), with exact time ``single_stream_time`` =
    K(1-gamma)/(1+K*gamma); ``dof_feedback_only`` is the cache-free
    delayed-feedback baseline 1/harmonic(K).  ``margin`` is how far the
    joint scheme exceeds their sum (not sign-guaranteed at small K).
    """

    CSV_FIELDS: ClassVar[tuple[str, ...]] = (
        "K",
        "replication",
        "cache_fraction",
        "dof",
        "dof_cache_only",
        "dof_feedback_only",
        "margin",
        "single_stream_time",
    )

    K: int
    replication: int
    cache_fraction: Fraction
    dof: float
    dof_cache_only: float
    dof_feedback_only: float
    margin: float
    single_stream_time: Fraction

    def csv_row(self) -> dict:
        values = (
            self.K,
            self.replication,
            format_rational(self.cache_fraction),
            self.dof,
            self.dof_cache_only,
            self.dof_feedback_only,
            self.margin,
            format_rational(self.single_stream_time),
        )
        return dict(zip(self.CSV_FIELDS, values))

    def csv_line(self) -> str:
        """The DoF-sweep CSV line of ``csv_row()``, as ``csv.writer``
        writes it, without its line ending."""
        cache_num, cache_den = self.cache_fraction.as_integer_ratio()
        time_num, time_den = self.single_stream_time.as_integer_ratio()
        return (
            f"{self.K},{self.replication},{cache_num}/{cache_den},{self.dof!r},"
            f"{self.dof_cache_only!r},{self.dof_feedback_only!r},{self.margin!r},"
            f"{time_num}/{time_den}"
        )


def synergy_report(K: int, replication: int) -> SynergyReport:
    """DoF of the combined scheme vs. the sum of the individual gains.

    ``dof`` is :func:`dof`'s exact pair at N = K, M = replication, and
    ``dof_cache_only`` a pair too; each is an int / int division, which
    Python rounds correctly, so it equals ``float`` of the reduced
    Fraction.  ``dof_feedback_only`` is ``1.0 / float(harmonic(K))``.
    """
    K = _as_int(K, "K must be an integer")
    replication = _as_int(replication, "replication must be an integer")
    if not 1 <= replication <= K - 1:
        raise ValueError(f"replication must lie in [1, K-1], got {replication}")
    # (1 - gamma) / (harmonic(K) - harmonic(replication)), gamma = replication / K
    dof_num, dof_den = _dof_pair(K, replication, 1, _achievable_pair(K, replication))
    joint = dof_num / dof_den
    # (1 - gamma) / single_stream_time
    cache_only = (1 + replication) / K
    # 1.0 / float(harmonic(K)), rounded twice: the pinned sweep CSVs hold this value
    whole_num, whole_den = harmonic(K).as_integer_ratio()
    feedback_only = 1.0 / (whole_num / whole_den)
    # in field order, positional as in outer_bound
    return SynergyReport(
        K,
        replication,
        Fraction(replication, K),
        joint,
        cache_only,
        feedback_only,
        joint - (cache_only + feedback_only),
        Fraction(K - replication, 1 + replication),
    )


def _check_gap_target(gap: float, K) -> int:
    """K as an int, once the target and K are checked."""
    if not isinstance(gap, numbers.Real):
        raise ValueError(f"the target factor gap must be a real number, got {gap!r}")
    # NaN fails every comparison, so it is rejected by name, not by `gap < 1`.
    if not math.isfinite(gap):
        raise ValueError(f"the target factor must be finite, got {gap}")
    if gap < 1:
        raise ValueError("the target factor must be at least 1")
    K = _as_int(K, "K must be an integer")
    if K < 2:
        raise ValueError("need at least two users")
    return K


def cache_fraction_for_gap(gap: float, K: int) -> float:
    """Closed-form cache fraction that puts the per-user DoF within a
    target factor ``gap`` of the interference-free optimum:
    exp(-(gap - epsilon(K) + epsilon_infinity)).

    Decays exponentially in the target, which is what makes tiny caches
    worthwhile; compare with :func:`min_cache_fraction_for_gap`.  Raises
    ValueError for a target that is not finite and where the value is not
    a normal double (targets above about 709).
    """
    K = _check_gap_target(gap, K)
    value = math.exp(-(gap - epsilon(K) + EULER_MASCHERONI))
    # the true value is positive: a subnormal or zero double would be a
    # silently wrong answer
    if not value >= sys.float_info.min:
        raise ValueError(
            f"cache fraction for target {gap} at K={K} is below the smallest normal double"
        )
    return value


@lru_cache(maxsize=1)
def _cumulative_harmonics(K: int) -> np.ndarray:
    """Doubles H(0), H(1), ..., H(K), each the previous plus 1.0 / i
    (``cumsum`` adds left to right, as a Python loop would); kept for the
    last K so a sweep over gap targets builds it once."""
    cumulative = np.zeros(K + 1)
    np.cumsum(1.0 / np.arange(1, K + 1), out=cumulative[1:])
    cumulative.setflags(write=False)
    return cumulative


def min_cache_fraction_for_gap(gap: float, K: int) -> Fraction | None:
    """Smallest replication/K whose DoF reaches 1/gap, by exhaustive
    search over replication (float harmonic accumulation); None when even
    replication = K-1 falls short.  Raises ValueError for a target that is
    not finite or below 1, or fewer than two users, as
    :func:`cache_fraction_for_gap` does."""
    K = _check_gap_target(gap, K)
    target = 1.0 / gap
    cumulative = _cumulative_harmonics(K)
    replication = np.arange(1, K)
    time = cumulative[K] - cumulative[1:K]
    # float metric: leave a few ulp of slack so exact boundary hits
    # (e.g. replication = K-1 at gap 1) are not lost to rounding
    reached = np.flatnonzero((1.0 - replication / K) / time >= target - 1e-12)
    return Fraction(int(reached[0]) + 1, K) if reached.size else None


@dataclass(frozen=True)
class EnvelopeReport:
    """Grid scan of the mid-range gap envelope
    f(g) = (ln(1/g) + epsilon(2) - epsilon_infinity) / (1 - g)
    over cache fractions g in [1/36, 1/2]."""

    left: float
    right: float
    grid_max: float
    grid_argmax: float


def check_midrange_gap_envelope(grid_points: int = 10_000) -> EnvelopeReport:
    """Verify that the mid-range gap envelope attains its maximum at an
    interval endpoint and that both endpoint values are below 4.

    The envelope's derivative has a positive denominator and an
    increasing numerator on the interval, so its maximum must sit at an
    endpoint; the grid scan checks that conclusion numerically.  Raises
    EnvelopeCheckError with the offending cache fraction otherwise.
    """
    grid_points = _as_int(grid_points, "grid_points must be an integer")
    if grid_points < 2:
        raise ValueError("need at least the two endpoints")
    shift = epsilon(2) - EULER_MASCHERONI

    def envelope(g: float) -> float:
        return (math.log(1.0 / g) + shift) / (1.0 - g)

    lo, hi = 1.0 / 36.0, 0.5
    left, right = envelope(lo), envelope(hi)
    grid_max, grid_argmax = -math.inf, lo
    for i in range(grid_points):
        g = lo + (hi - lo) * i / (grid_points - 1)
        value = envelope(g)
        if value > grid_max:
            grid_max, grid_argmax = value, g
    if grid_max > max(left, right) + 1e-9:
        raise EnvelopeCheckError(
            f"interior value {grid_max} at cache fraction {grid_argmax} exceeds both endpoints"
        )
    if not (left < 4 and right < 4):
        raise EnvelopeCheckError(f"endpoint value reaches 4: left={left}, right={right}")
    return EnvelopeReport(left=left, right=right, grid_max=grid_max, grid_argmax=grid_argmax)
