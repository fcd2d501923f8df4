from dataclasses import replace

import numpy as np
import pytest

from synergy import decoder
from references import complement, rank, subsets, without
from synergy.combinatorics import group_table
from synergy.decoder import decode_user, verify_all
from synergy.field import SeededRng
from synergy.placement import (
    CacheContents,
    LengthMismatchError,
    fill_caches,
    random_library,
    subpacketize,
)
from synergy.scheduler import default_config, plan_phases
from synergy.simulator import LIBRARY_STREAM, run_delivery, simulate


def seeded_case(K, N, M, seed=0, demand=None):
    config = default_config(K, N, M)
    demand = demand or tuple(range(1, K + 1))
    library = random_library(config, SeededRng(seed).child(LIBRARY_STREAM))
    subfiles = subpacketize(config, library)
    caches = fill_caches(config, subfiles)
    plan = plan_phases(config, demand, subfiles=subfiles)
    transcript = run_delivery(plan, library, seed)
    return config, library, subfiles, caches, transcript


def test_two_user_hand_trace():
    # single phase: user 1 reads the folded message off its own scalar,
    # strips the cached block it holds for user 2, and keeps its own
    config, library, subfiles, caches, transcript = seeded_case(2, 2, 1)
    outcome = decode_user(transcript, 1, caches[0])
    ground_block = subfiles[0, rank((2,), 2)]
    assert np.array_equal(outcome.file[ground_block.size :], ground_block)
    expected = np.concatenate(
        [subfiles[0, rank((1,), 2)], ground_block]
    )
    assert np.array_equal(outcome.file, expected)
    assert np.array_equal(outcome.file, library[0])


def test_three_user_end_to_end():
    config, library, subfiles, caches, transcript = seeded_case(3, 3, 1, seed=7)
    for user in range(1, 4):
        decoded = decode_user(transcript, user, caches[user - 1]).file
        assert np.array_equal(decoded, library[user - 1])


def test_fully_cached_reads_from_cache_only():
    config, library, subfiles, caches, transcript = seeded_case(3, 3, 3)
    assert transcript.total_uses == 0
    for user in range(1, 4):
        assert np.array_equal(decode_user(transcript, user, caches[user - 1]).file, library[user - 1])


def test_no_cache_pure_feedback_delivery():
    config, library, subfiles, caches, transcript = seeded_case(4, 4, 0, seed=3)
    for user in range(1, 5):
        assert np.array_equal(decode_user(transcript, user, caches[user - 1]).file, library[user - 1])


def test_repeated_demands_decode():
    config, library, subfiles, caches, transcript = seeded_case(3, 3, 1, demand=(1, 1, 1), seed=5)
    report = verify_all(transcript, library)
    assert report.all_pass
    assert [entry.requested for entry in report.users] == [1, 1, 1]


def test_recovered_streams_match_ground_truth():
    # what a user reconstructs of others' observations equals the log,
    # read level by level from the per-phase step of the decode
    for K, M, seed in ((4, 1, 11), (5, 0, 4)):
        config, library, subfiles, caches, transcript = seeded_case(K, K, M, seed=seed)
        phases = transcript.plan.phases
        offsets = transcript.plan.offsets
        for user in (1, K):
            slot = np.full(K + 1, -1)
            slot[user] = 0
            levels = {}
            compact = None
            for index in range(len(phases) - 1, 0, -1):
                compact = decoder._decode_phase(transcript, index, slot, compact)
                phase = phases[index - 1]
                groups, _, _ = decoder._phase_pairs(K, phase.order, slot)
                n = phase.uses_per_group
                assert compact.shape == (len(groups), n, K - phase.order)
                # Spread the compact streams over (group, observer, slot), -1 elsewhere.
                streams = np.full((phase.group_count, K, n), -1, dtype=np.int64)
                for pair, group in enumerate(groups):
                    observers = complement(subsets(K, phase.order)[group], K)
                    streams[group, np.array(observers) - 1] = compact[pair].T
                levels[phase.order] = streams
            pairs = len(decoder._phase_pairs(K, phases[0].order, slot)[0])
            payloads = decoder._decode_phase(transcript, 0, slot, compact)
            assert payloads.shape == (pairs, config.subfile_symbols)
            assert sorted(levels) == [phase.order for phase in phases[:-1]]
            for phase, start in zip(phases[:-1], offsets):
                streams = levels[phase.order]
                groups, n = phase.group_count, phase.uses_per_group
                assert streams.shape == (groups, K, n)
                logged = transcript.observations[:, start : start + groups * n]
                logged = logged.reshape(K, groups, n).transpose(1, 0, 2)
                filled = streams != -1
                assert np.array_equal(streams[filled], logged[filled])
                # whole streams of exactly the non-members of the user's groups
                inside = np.zeros((groups, K + 1), dtype=bool)
                for index, group in enumerate(subsets(K, phase.order)):
                    inside[index, list(group)] = True
                expected = inside[:, [user]] & ~inside[:, 1:]
                assert expected.any()
                assert np.array_equal(filled, np.repeat(expected[:, :, np.newaxis], n, axis=2))


def test_recovered_and_cached_block_indices_partition():
    config, library, subfiles, caches, transcript = seeded_case(4, 4, 2, seed=2)
    every = subsets(4, 2)
    members, _, without_rank = group_table(4, 3)
    for user in range(1, 5):
        outcome = decode_user(transcript, user, caches[user - 1])
        assert np.array_equal(outcome.file, library[user - 1])
        holding = np.flatnonzero((members == user).any(axis=1))
        position = (members[holding] == user).argmax(axis=1)
        recovered = [every[r] for r in without_rank[holding, position]]
        assert recovered == [without(subsets(4, 3)[g], user) for g in holding]
        cached = [every[r] for r in caches[user - 1].holders]
        assert sorted(recovered + cached, key=lambda sub: rank(sub, 4)) == every
        assert all(user not in holders for holders in recovered)
        assert all(user in holders for holders in cached)


def test_coarse_cell_solve_counts():
    # 2,283 uses, granularity 105: the per-user system counts are structural
    config = default_config(8, 8, 0)
    transcript = simulate(config, tuple(range(1, 9)), seed=1)
    library = random_library(config, SeededRng(1).child(LIBRARY_STREAM))
    report = verify_all(transcript, library)
    assert report.all_pass
    assert sum(entry.solves for entry in report.users) == 7_736
    assert max(entry.max_system_dim for entry in report.users) == 8


def test_verify_all_report_shape():
    config, library, subfiles, caches, transcript = seeded_case(3, 3, 1)
    report = verify_all(transcript, library)
    data = report.to_json()
    assert data["all_pass"] is True
    assert [entry["user"] for entry in data["users"]] == [1, 2, 3]
    assert all(entry["error"] is None for entry in data["users"])
    assert all(entry["solves"] > 0 for entry in data["users"])
    assert max(entry["max_system_dim"] for entry in data["users"]) <= 3


def test_corrupted_observation_breaks_some_user():
    config, library, subfiles, caches, transcript = seeded_case(3, 3, 1, seed=9)
    dirty = transcript.observations.copy()
    dirty[1, 2] = (dirty[1, 2] + 1) % config.modulus
    corrupted = replace(transcript, observations=dirty)
    report = verify_all(corrupted, library)
    assert not report.all_pass


def test_tampered_combining_matrix_breaks_decoding():
    config, library, subfiles, caches, transcript = seeded_case(4, 4, 1, seed=13)
    tampered_phases = []
    for phase in transcript.plan.phases:
        if phase.combining is not None and phase.order == 3:
            tampered_phases.append(
                replace(phase, combining=(phase.combining * 2) % config.modulus)
            )
        else:
            tampered_phases.append(phase)
    tampered = replace(transcript, plan=replace(transcript.plan, phases=tuple(tampered_phases)))
    report = verify_all(tampered, library)
    assert not report.all_pass


def test_truncated_transcript_raises_and_reports():
    # A transcript shorter than its plan cannot be built, so no decode or
    # report ever reads one; the error reports the shape the plan needs.
    config, library, subfiles, caches, transcript = seeded_case(3, 3, 1, seed=1)
    total = transcript.total_uses
    with pytest.raises(ValueError) as caught:
        replace(
            transcript,
            channels=transcript.channels[:-1],
            observations=transcript.observations[:, :-1],
        )
    assert str(caught.value) == f"channels must have shape ({total}, 3, 3), got ({total - 1}, 3, 3)"


@pytest.mark.parametrize("short", ["channels", "observations", "both-empty"])
def test_transcript_shorter_than_its_plan_is_missing_observations(short):
    config, library, subfiles, caches, transcript = seeded_case(4, 4, 1, seed=3)
    channels, observations = transcript.channels, transcript.observations
    if short == "channels":
        channels = channels[: len(channels) // 2]
    elif short == "observations":
        observations = observations[:, :-1]
    else:
        channels, observations = channels[:0], observations[:, :0]
    with pytest.raises(ValueError, match=rf"must have shape \(.*{transcript.total_uses}.*\), got"):
        replace(transcript, channels=channels, observations=observations)


def test_missing_observation_message_counts_what_is_short():
    config, library, subfiles, caches, transcript = seeded_case(4, 4, 1, seed=3)
    total = transcript.total_uses
    with pytest.raises(ValueError) as caught:
        replace(transcript, observations=transcript.observations[:, :-1])
    assert str(caught.value) == f"observations must have shape (4, {total}), got (4, {total - 1})"
    with pytest.raises(ValueError) as caught:
        replace(transcript, channels=transcript.channels[:-2])
    assert str(caught.value) == f"channels must have shape ({total}, 4, 4), got ({total - 2}, 4, 4)"


def test_decode_rejects_bad_user():
    config, library, subfiles, caches, transcript = seeded_case(2, 2, 1)
    with pytest.raises(ValueError):
        decode_user(transcript, 0, caches[0])


def test_decode_rejects_a_non_integer_user():
    # 2.0 used to raise a numpy IndexError
    config, library, subfiles, caches, transcript = seeded_case(3, 3, 1)
    with pytest.raises(ValueError, match=r"^user must be an integer, got 2.0$"):
        decode_user(transcript, 2.0, caches[1])
    with pytest.raises(ValueError, match="user must be an integer"):
        decode_user(transcript, [1, 2.0], caches[:2])
    outcome = decode_user(transcript, np.int64(2), caches[1])
    assert np.array_equal(outcome.file, library[transcript.demand[1] - 1])


def test_foreign_cache_fails_decoding(monkeypatch):
    config, library, subfiles, caches, transcript = seeded_case(4, 4, 2, seed=2)
    own = caches[0]
    dropped = CacheContents(1, own.holders[1:], own.blocks[:, 1:])
    for cache in (caches[1], dropped):
        with pytest.raises(ValueError, match="does not hold"):
            decode_user(transcript, 1, cache)
    rotated = caches[1:] + caches[:1]
    for foreign, failing in ((rotated, [1, 2, 3, 4]), ([dropped] + caches[1:], [1])):
        monkeypatch.setattr(decoder, "fill_caches", lambda config, subfiles: foreign)
        report = verify_all(transcript, library)
        assert [entry.user for entry in report.users if not entry.match] == failing
        assert all(
            entry.error.startswith("ValueError: cache of user")
            for entry in report.users
            if entry.user in failing
        )


def test_single_user_boundary():
    config, library, subfiles, caches, transcript = seeded_case(1, 1, 0)
    assert transcript.total_uses == 1
    assert verify_all(transcript, library).all_pass


def test_all_replication_levels_small_sweep():
    for K in (2, 3, 4):
        for M in range(0, K + 1):
            config, library, subfiles, caches, transcript = seeded_case(K, K, M, seed=K * 10 + M)
            report = verify_all(transcript, library)
            assert report.all_pass, (K, M, report.to_json())


def test_more_files_than_users():
    config, library, subfiles, caches, transcript = seeded_case(3, 6, 2, demand=(6, 4, 5), seed=8)
    report = verify_all(transcript, library)
    assert report.all_pass


def test_simulate_convenience_matches_manual_pipeline():
    config = default_config(3, 3, 1)
    transcript = simulate(config, (3, 1, 2), seed=17)
    library = random_library(config, SeededRng(17).child(LIBRARY_STREAM))
    report = verify_all(transcript, library)
    assert report.all_pass


def test_transcript_longer_than_its_plan_is_rejected():
    config = default_config(3, 3, 1)
    transcript = simulate(config, (1, 2, 3), 1)
    total = transcript.total_uses
    channels, observations = transcript.channels, transcript.observations
    with pytest.raises(ValueError) as caught:
        replace(
            transcript,
            channels=np.concatenate([channels, channels[:2]]),
            observations=np.concatenate([observations, observations[:, :2]], axis=1),
        )
    assert str(caught.value) == f"channels must have shape ({total}, 3, 3), got ({total + 2}, 3, 3)"
    with pytest.raises(ValueError) as caught:
        replace(transcript, observations=np.concatenate([observations, observations[:, :1]], axis=1))
    assert str(caught.value) == f"observations must have shape (3, {total}), got (3, {total + 1})"


def test_verify_all_raises_argument_errors_before_any_decode(monkeypatch):
    config, library, subfiles, caches, transcript = seeded_case(3, 3, 1)
    calls = []
    monkeypatch.setattr(decoder, "decode_user", lambda *args: calls.append(args))
    with pytest.raises(LengthMismatchError):
        verify_all(transcript, library[:, :-1])
    with pytest.raises(LengthMismatchError):
        verify_all(transcript, library[:-1])
    assert calls == []


def test_verify_all_turns_decode_failures_into_entries(monkeypatch):
    # A batch that raises is decoded user by user, so each entry carries
    # its own exception and the users that decode still pass.
    config, library, subfiles, caches, transcript = seeded_case(3, 3, 1, seed=4)
    original = decoder.decode_user

    def failing(transcript, user, cache):
        if np.ndim(user) or user == 2:
            raise RuntimeError(f"cannot decode {user}")
        return original(transcript, user, cache)

    monkeypatch.setattr(decoder, "decode_user", failing)
    report = verify_all(transcript, library)
    assert [entry.match for entry in report.users] == [True, False, True]
    assert [entry.error for entry in report.users] == [None, "RuntimeError: cannot decode 2", None]
    assert report.users[1].solves == report.users[1].max_system_dim == 0
