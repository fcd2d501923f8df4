import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from references import rank
from synergy.combinatorics import group_table, harmonic
from synergy.field import MODULUS, SeededRng, SingularMatrixError, matmul, solve
from synergy.placement import SystemConfig, random_library, subpacketize
from synergy.scheduler import (
    GranularityError,
    build_xors,
    default_config,
    minimal_granularity,
    plan_phases,
    validate_demand,
)


def brute_force_granularity(K, replication):
    """Oracle: smallest multiplier that keeps the use-count recurrence
    integral, by direct trial."""
    for c in range(1, math.factorial(max(K - replication - 1, 1)) + 1):
        uses = c
        ok = True
        for order in range(replication + 2, K + 1):
            carried = (order - 1) * uses
            if carried % (K - order + 1):
                ok = False
                break
            uses = carried // (K - order + 1)
        if ok:
            return c
    raise AssertionError("no granularity found")


def seeded_setup(K, N, M, seed=0):
    config = default_config(K, N, M)
    library = random_library(config, SeededRng(seed))
    return config, library, subpacketize(config, library)


def test_minimal_granularity_examples():
    assert minimal_granularity(2, 1) == 1
    assert minimal_granularity(3, 1) == 1
    assert math.factorial(3) % minimal_granularity(5, 1) == 0


def test_minimal_granularity_matches_brute_force():
    for K in range(1, 9):
        for replication in range(K):
            assert minimal_granularity(K, replication) == brute_force_granularity(K, replication)


def test_minimal_granularity_divides_factorial():
    for K in range(2, 12):
        for replication in range(K):
            bound = math.factorial(max(K - replication - 1, 1))
            assert bound % minimal_granularity(K, replication) == 0


def test_minimal_granularity_range_check():
    with pytest.raises(ValueError):
        minimal_granularity(4, 4)


@pytest.mark.parametrize(
    "K, replication, message",
    [
        # each used to raise TypeError from range
        (4.0, 1, "K must be an integer, got 4.0"),
        (4, 1.5, "replication must be an integer, got 1.5"),
    ],
)
def test_minimal_granularity_rejects_non_integer_arguments(K, replication, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        minimal_granularity(K, replication)


def test_default_config_uses_minimal_granularity():
    assert default_config(6, 6, 1).granularity == minimal_granularity(6, 1)
    assert default_config(4, 4, 4).granularity == 1  # fully cached: no schedule


def test_validate_demand():
    config = SystemConfig(3, 4, 0)
    assert validate_demand(config, [1, 4, 2]) == (1, 4, 2)
    with pytest.raises(ValueError):
        validate_demand(config, [1, 2])
    with pytest.raises(ValueError):
        validate_demand(config, [1, 2, 5])
    with pytest.raises(ValueError):
        validate_demand(config, [0, 1, 2])


def test_validate_demand_rejects_a_demand_that_is_not_a_sequence():
    # iterating the int used to raise TypeError
    with pytest.raises(ValueError, match=r"^demand must be a sequence of file indices, got -1$"):
        validate_demand(SystemConfig(3, 4, 0), -1)


def test_validate_demand_rejects_non_integer_entries():
    # 2.9999 used to be truncated, so user 1 silently got file 2
    config = SystemConfig(3, 3, 1)
    with pytest.raises(ValueError, match=r"^demand entries must be integers, got 2.9999$"):
        validate_demand(config, (2.9999, 1, 3))
    demand = validate_demand(config, (np.int64(2), 1, 3))
    assert demand == (2, 1, 3) and all(type(entry) is int for entry in demand)


def test_build_xors_two_users_by_hand():
    config, library, subfiles = seeded_setup(2, 2, 1)
    xors = build_xors(config, subfiles, (1, 2))
    assert xors.shape == (1, config.subfile_symbols)
    assert group_table(2, 2)[0].tolist() == [[1, 2]]
    wanted_by_1 = subfiles[0, rank((2,), 2)]
    wanted_by_2 = subfiles[1, rank((1,), 2)]
    assert np.array_equal(xors[0], (wanted_by_1 + wanted_by_2) % config.modulus)


def test_build_xors_count_three_users():
    config, library, subfiles = seeded_setup(3, 3, 1)
    xors = build_xors(config, subfiles, (1, 2, 3))
    assert len(xors) == 3
    assert group_table(3, 2)[0].tolist() == [[1, 2], [1, 3], [2, 3]]


def test_build_xors_no_cache_degenerates_to_files():
    config, library, subfiles = seeded_setup(3, 3, 0)
    xors = build_xors(config, subfiles, (2, 2, 1))
    members, _, _ = group_table(3, 1)
    for rank, user in enumerate((1, 2, 3)):
        assert members[rank].tolist() == [user]
        assert np.array_equal(xors[rank], library[(2, 2, 1)[user - 1] - 1])


def test_build_xors_count_matches_binomial():
    for K in range(2, 7):
        for M in range(0, K):
            config, library, subfiles = seeded_setup(K, K, M)
            xors = build_xors(config, subfiles, tuple(range(1, K + 1)))
            assert len(xors) == math.comb(K, config.replication + 1)


def test_build_xors_fully_cached_is_empty():
    config, library, subfiles = seeded_setup(3, 3, 3)
    assert build_xors(config, subfiles, (1, 2, 3)).shape == (0, config.subfile_symbols)


def test_plan_durations_three_users():
    plan = plan_phases(default_config(3, 3, 1))
    assert plan.durations == (Fraction(1, 2), Fraction(1, 3))
    assert plan.total_duration == Fraction(5, 6)


def test_plan_single_phase_when_almost_everything_cached():
    plan = plan_phases(default_config(4, 4, 3))
    assert len(plan.phases) == 1
    assert plan.total_duration == Fraction(1, 4)
    assert plan.phases[0].active_antennas == 1


def test_plan_last_harmonic_term():
    for K in (2, 3, 5, 8):
        plan = plan_phases(default_config(K, K, K - 1))
        assert plan.total_duration == Fraction(1, K)


def test_plan_fully_cached_is_empty():
    plan = plan_phases(default_config(3, 3, 3))
    assert plan.phases == ()
    assert plan.total_duration == 0
    assert plan.total_uses == 0


def test_plan_telescoping_and_ratio_law():
    for K in range(1, 33):
        for replication in range(K):
            plan = plan_phases(default_config(K, K, replication))
            assert plan.total_duration == harmonic(K) - harmonic(replication)
            first = plan.phases[0]
            assert first.uses_per_group == plan.config.granularity
            for phase in plan.phases:
                assert phase.duration * phase.order == first.duration * first.order


def test_plan_channel_use_accounting():
    for K, M in ((3, 1), (5, 1), (6, 2), (6, 5)):
        config = default_config(K, K, M)
        plan = plan_phases(config)
        denom = config.subfiles_per_file * (K - config.replication) * config.granularity
        assert Fraction(plan.total_uses, denom) == plan.total_duration


def test_plan_counts_three_users_example():
    plan = plan_phases(default_config(3, 3, 1))
    by_order = {phase.order: phase for phase in plan.phases}
    assert by_order[2].uses_per_group == 1 and by_order[2].active_antennas == 2
    assert by_order[3].uses_per_group == 2 and by_order[3].active_antennas == 1
    assert plan.total_uses == 5


def test_plan_rejects_infeasible_granularity():
    config = SystemConfig(5, 5, 1, granularity=1)  # minimal is 3
    with pytest.raises(GranularityError):
        plan_phases(config)
    assert plan_phases(SystemConfig(5, 5, 1, granularity=6)).total_duration == harmonic(5) - 1


def test_plan_combining_shapes():
    plan = plan_phases(default_config(5, 5, 1))
    for phase in plan.phases:
        if phase.order == plan.config.replication + 1:
            assert phase.combining is None
        else:
            assert phase.combining.shape == (phase.order - 1, phase.order)


def test_plan_group_iteration_is_canonical():
    plan = plan_phases(default_config(4, 4, 1))
    phase = plan.phases[0]
    groups = group_table(phase.universe, phase.order)[0]
    assert [tuple(g) for g in groups.tolist()] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
    ]
    assert plan.phases[0].group_count == 6


def test_plan_offsets_delimit_phases():
    for K, M in ((4, 1), (5, 0), (3, 3), (64, 1)):
        plan = plan_phases(default_config(K, K, M))
        sizes = [phase.group_count * phase.uses_per_group for phase in plan.phases]
        assert plan.offsets[0] == 0
        assert [b - a for a, b in zip(plan.offsets, plan.offsets[1:])] == sizes
        assert plan.offsets[-1] == plan.total_uses == sum(sizes)
        assert len(plan.offsets) == len(plan.phases) + 1


def test_plan_with_payloads_requires_demand():
    config, library, subfiles = seeded_setup(3, 3, 1)
    with pytest.raises(ValueError):
        plan_phases(config, subfiles=subfiles)
    plan = plan_phases(config, (1, 2, 3), subfiles=subfiles)
    assert len(plan.xors) == 3


def test_plan_structural_avoids_group_materialization():
    # large-K plans stay cheap because groups are never listed
    plan = plan_phases(default_config(64, 64, 1))
    assert plan.total_duration == harmonic(64) - 1
    widest = next(phase for phase in plan.phases if phase.order == 32)
    assert widest.group_count == math.comb(64, 32)


def minor_inverse(combining, column, modulus):
    """Reference: one solve of the minor without ``column`` against the
    identity."""
    minor = np.delete(combining, column, axis=1)
    return solve(minor, np.eye(len(minor), dtype=np.int64), modulus)


@pytest.mark.parametrize("modulus", [13, 101, MODULUS])
def test_plan_combining_inverses_equal_per_minor_solves(modulus):
    # GF(13) has Cauchy matrices for groups of at most 6 members
    for K in range(1, min(8, (modulus - 1) // 2) + 1):
        for M in sorted({0, 1, K - 1}):
            config = default_config(K, K, M, modulus=modulus)
            plan = plan_phases(config)
            inverses = plan.combining_inverses
            assert len(inverses) == len(plan.phases)
            for phase, entry in zip(plan.phases, inverses):
                if phase.combining is None:
                    assert entry is None
                    continue
                assert entry.shape == (phase.order, phase.order - 1, phase.order - 1)
                assert not entry.flags.writeable
                for column in range(phase.order):
                    expected = minor_inverse(phase.combining, column, modulus)
                    assert np.array_equal(entry[column], expected)


def test_a_plan_with_other_combining_matrices_gets_its_own_inverses():
    plan = plan_phases(default_config(5, 5, 0))
    modulus = plan.config.modulus
    assert plan.combining_inverses[2] is plan.combining_inverses[2]  # computed once per plan
    phases = tuple(
        replace(phase, combining=phase.combining * 2 % modulus) if phase.order == 3 else phase
        for phase in plan.phases
    )
    other = replace(plan, phases=phases)
    for index, phase in enumerate(other.phases[1:], start=1):
        for column, inverse in enumerate(other.combining_inverses[index]):
            expected = minor_inverse(phase.combining, column, modulus)
            assert np.array_equal(inverse, expected)
            minor = np.delete(phase.combining, column, axis=1)
            assert np.array_equal(matmul(minor, inverse, modulus), np.eye(phase.order - 1))
    assert not np.array_equal(other.combining_inverses[2], plan.combining_inverses[2])
    assert np.array_equal(other.combining_inverses[3], plan.combining_inverses[3])


def test_a_singular_combining_minor_names_its_phase_and_column():
    plan = plan_phases(default_config(4, 4, 0))
    # Deleting column 2 leaves [[1, 2], [2, 4]]; the other two minors are
    # invertible.  In the padded batch this minor is system 4.
    singular = np.array([[1, 2, 1], [2, 4, 3]], dtype=np.int64)
    phases = tuple(
        replace(phase, combining=singular) if phase.order == 3 else phase for phase in plan.phases
    )
    message = r"^phase 3: combining matrix with column 2 deleted is singular$"
    with pytest.raises(SingularMatrixError, match=message):
        replace(plan, phases=phases).combining_inverses
