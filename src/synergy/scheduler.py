"""Delivery scheduling: folded messages, exact phase durations, integral
channel-use counts, and the fixed combining matrices that re-encode
overheard observations.

Phase ``order`` j runs from replication+1 up to K and sends one block per
j-subset of users.  The first phase carries each folded message split
over K-replication antennas; every later phase carries j-1 fixed linear
combinations of what the j group members each overheard of the previous
phase, re-chunked onto K-j+1 antennas.  Durations are exact rationals and
telescope to harmonic(K) - harmonic(replication).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .combinatorics import _as_int, format_rational, group_table
from .field import MODULUS, cauchy_combining_matrix, solve
from .placement import SystemConfig

__all__ = [
    "GranularityError",
    "PhasePlan",
    "DeliveryPlan",
    "minimal_granularity",
    "default_config",
    "validate_demand",
    "build_xors",
    "plan_phases",
    "plan_to_json",
]


class GranularityError(ValueError):
    """Configured granularity does not give whole channel-use counts."""


@dataclass(frozen=True, eq=False)
class PhasePlan:
    """Block schedule for every group of size ``order``.

    ``combining`` is None in the first phase (blocks are raw folded
    messages) and a (order-1) x order matrix over GF(``modulus``)
    afterwards.  Groups are not listed, so plans stay cheap for large K;
    the group of rank r is row r of
    :func:`~synergy.combinatorics.group_table` (universe, order).
    """

    order: int
    universe: int
    uses_per_group: int
    active_antennas: int
    duration: Fraction
    combining: np.ndarray | None
    modulus: int

    @property
    def group_count(self) -> int:
        return math.comb(self.universe, self.order)

    @cached_property
    def combining_inverses(self) -> np.ndarray | None:
        """(order, order-1, order-1): entry i inverts ``combining`` with
        column i deleted, exactly; None in the first phase.

        Computed once per plan with one batched solve against the
        identity, and derived from ``combining`` itself, so a plan built
        with another matrix gets its own inverses.  Raises
        SingularMatrixError if some minor is singular.
        """
        if self.combining is None:
            return None
        minors = np.stack([np.delete(self.combining, i, axis=1) for i in range(self.order)])
        identity = np.broadcast_to(np.eye(self.order - 1, dtype=np.int64), minors.shape)
        inverses = solve(minors, identity, self.modulus)
        inverses.setflags(write=False)
        return inverses


@dataclass(frozen=True, eq=False)
class DeliveryPlan:
    """Per-phase schedule plus, optionally, the folded-message payloads
    (see :func:`build_xors`).

    Phase i occupies channel uses ``offsets[i]`` up to ``offsets[i + 1]``,
    and within it the group of rank r the ``uses_per_group`` uses from
    ``offsets[i] + r * uses_per_group`` (:meth:`block_uses`).
    """

    config: SystemConfig
    demand: tuple[int, ...] | None
    xors: np.ndarray | None
    phases: tuple[PhasePlan, ...]

    @property
    def durations(self) -> tuple[Fraction, ...]:
        return tuple(phase.duration for phase in self.phases)

    @property
    def total_duration(self) -> Fraction:
        return sum(self.durations, Fraction(0))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """The first use of each phase, then the total use count."""
        return tuple(
            itertools.accumulate(
                (phase.group_count * phase.uses_per_group for phase in self.phases), initial=0
            )
        )

    @property
    def total_uses(self) -> int:
        return self.offsets[-1]

    def block_uses(self, index: int, ranks) -> np.ndarray:
        """Channel uses of the blocks that phase ``index`` sends for the
        groups of rank ``ranks``: an int64 array of shape
        ``(*ranks.shape, uses_per_group)``, slot s of group rank r at
        ``offsets[index] + r * uses_per_group + s``.

        The one place a (phase, group rank, slot) becomes a use index;
        delivery and decoding both read it.
        """
        width = self.phases[index].uses_per_group
        return self.offsets[index] + np.asarray(ranks)[..., np.newaxis] * width + np.arange(width)


def minimal_granularity(K: int, replication: int) -> int:
    """Smallest granularity making every phase's per-group use count an
    integer; always divides (K - replication - 1)!."""
    K = _as_int(K, "K must be an integer")
    replication = _as_int(replication, "replication must be an integer")
    if not 0 <= replication <= K - 1:
        raise ValueError(f"replication must lie in [0, K-1], got {replication}")
    scale = 1
    uses = Fraction(1)
    for order in range(replication + 2, K + 1):
        uses *= Fraction(order - 1, K - order + 1)
        scale = math.lcm(scale, uses.denominator)
    return scale


def default_config(K: int, N: int, M: int, modulus: int = MODULUS) -> SystemConfig:
    """SystemConfig with the minimal schedule-feasible granularity."""
    probe = SystemConfig(K=K, N=N, M=M, granularity=1, modulus=modulus)
    if probe.replication == K:
        return probe
    scale = minimal_granularity(K, probe.replication)
    if scale == 1:
        return probe
    return SystemConfig(K=K, N=N, M=M, granularity=scale, modulus=modulus)


def validate_demand(config: SystemConfig, demand) -> tuple[int, ...]:
    """Demand is one 1-based file index per user; repeats are allowed.
    ValueError for an entry that is not an integer."""
    demand = tuple(_as_int(r, "demand entries must be integers") for r in demand)
    if len(demand) != config.K:
        raise ValueError(f"demand must list {config.K} file indices, got {len(demand)}")
    if any(not 1 <= r <= config.N for r in demand):
        raise ValueError(f"demand entries must lie in [1, {config.N}]: {demand}")
    return demand


def build_xors(config: SystemConfig, subfiles: np.ndarray, demand) -> np.ndarray:
    """One folded message per (replication+1)-subset, in canonical order:
    a (C(K, replication+1), subfile_symbols) array whose row g sums, over
    the members m of group g, the block of file demand[m] held by the
    group without m.  Empty (0 rows) when everything is cached.

    Field addition plays the folding role: it is invertible by
    subtraction, which is all decoding needs.
    """
    demand = np.array(validate_demand(config, demand))
    size = config.replication + 1
    if size > config.K:
        return np.zeros((0, config.subfile_symbols), dtype=np.int64)
    members, _, without_rank = group_table(config.K, size)
    return subfiles[demand[members - 1] - 1, without_rank].sum(axis=1) % config.modulus


def plan_phases(
    config: SystemConfig,
    demand=None,
    subfiles: np.ndarray | None = None,
) -> DeliveryPlan:
    """Build the full delivery plan.

    Without ``subfiles`` the plan is structural (exact durations and use
    counts, no payloads), which is enough for analytics and decoding.
    Raises GranularityError when the configured granularity leaves some
    phase with a fractional per-group use count.
    """
    if demand is not None:
        demand = validate_demand(config, demand)
    if subfiles is not None and demand is None:
        raise ValueError("payloads need a demand")
    K = config.K
    replication = config.replication
    slot_symbols = math.comb(K, replication) * (K - replication) * config.granularity
    phases = []
    uses = config.granularity
    for order in range(replication + 1, K + 1):
        if order > replication + 1:
            carried = (order - 1) * uses
            antennas = K - order + 1
            if carried % antennas:
                raise GranularityError(
                    f"phase {order}: {carried} symbols do not split over {antennas} antennas; "
                    f"use a multiple of minimal_granularity({K}, {replication})"
                )
            uses = carried // antennas
        combining = cauchy_combining_matrix(order, config.modulus) if order >= replication + 2 else None
        phases.append(
            PhasePlan(
                order=order,
                universe=K,
                uses_per_group=uses,
                active_antennas=K - order + 1,
                duration=Fraction(math.comb(K, order) * uses, slot_symbols),
                combining=combining,
                modulus=config.modulus,
            )
        )
    xors = build_xors(config, subfiles, demand) if subfiles is not None else None
    return DeliveryPlan(config=config, demand=demand, xors=xors, phases=tuple(phases))


def plan_to_json(plan: DeliveryPlan, include_groups: bool = True) -> dict:
    """JSON-ready view: subsets as sorted integer arrays, durations as
    "num/den" strings.  Group listings can be suppressed for large K."""
    phases = []
    for phase in plan.phases:
        entry = {
            "order": phase.order,
            "uses_per_group": phase.uses_per_group,
            "active_antennas": phase.active_antennas,
            "duration": format_rational(phase.duration),
            "group_count": phase.group_count,
            "combining": None if phase.combining is None else phase.combining.tolist(),
        }
        if include_groups:
            entry["groups"] = group_table(phase.universe, phase.order)[0].tolist()
        phases.append(entry)
    return {
        "format": "synergy-plan",
        "version": 1,
        "config": plan.config.to_json(),
        "demand": None if plan.demand is None else list(plan.demand),
        "xor_count": None if plan.xors is None else len(plan.xors),
        "total_duration": format_rational(plan.total_duration),
        "total_uses": plan.total_uses,
        "phases": phases,
    }
