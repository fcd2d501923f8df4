"""The batched decode against one user at a time.

``verify_all`` decodes every user in one ``decode_user`` call over the
whole batch.  Its per-user report must equal what decoding each user
alone gives: the same match, solve count, largest system and error,
on clean transcripts and on corrupted ones.
"""

from dataclasses import replace

import numpy as np
import pytest

from synergy import decoder
from synergy.decoder import decode_user, verify_all
from synergy.field import SeededRng
from synergy.placement import CacheContents, fill_caches, random_library, subpacketize
from synergy.scheduler import default_config
from synergy.simulator import LIBRARY_STREAM, simulate
from test_golden import GOLDEN, GOLDEN_RESAMPLE_13


def user_by_user(transcript, library, caches):
    """(match, solves, max_system_dim, error) of each user decoded alone."""
    rows = []
    for user in range(1, transcript.config.K + 1):
        requested = transcript.demand[user - 1]
        try:
            outcome = decode_user(transcript, user, caches[user - 1])
        except Exception as exc:
            rows.append((False, 0, 0, f"{type(exc).__name__}: {exc}"))
            continue
        match = bool(np.array_equal(outcome.file, library[requested - 1]))
        rows.append((match, outcome.solves, outcome.max_system_dim, None))
    return rows


def report_rows(report):
    return [
        (entry.match, entry.solves, entry.max_system_dim, entry.error) for entry in report.users
    ]


def case(K, replication, seed, modulus=None):
    if modulus is None:
        config, on_degenerate = default_config(K, K, replication), "error"
    else:
        config, on_degenerate = default_config(K, K, replication, modulus=modulus), "resample"
    transcript = simulate(config, tuple(range(1, K + 1)), seed, on_degenerate=on_degenerate)
    library = random_library(config, SeededRng(seed).child(LIBRARY_STREAM))
    return transcript, library, fill_caches(config, subpacketize(config, library))


CLEAN = [(*cell, None) for cell in sorted(GOLDEN)] + [
    (*cell, 13) for cell in sorted(GOLDEN_RESAMPLE_13)
]


@pytest.mark.parametrize("K, replication, seed, modulus", CLEAN)
def test_batch_equals_user_by_user_on_clean_transcripts(K, replication, seed, modulus):
    transcript, library, caches = case(K, replication, seed, modulus)
    report = verify_all(transcript, library)
    assert report.all_pass
    assert report_rows(report) == user_by_user(transcript, library, caches)
    batch = decode_user(transcript, range(1, K + 1), caches)
    for user, outcome in enumerate(batch, start=1):
        alone = decode_user(transcript, user, caches[user - 1])
        assert np.array_equal(outcome.file, alone.file)


def corrupted_observation(transcript):
    dirty = transcript.observations.copy()
    dirty[1, 2] = (dirty[1, 2] + 1) % transcript.config.modulus
    return replace(transcript, observations=dirty)


def tampered_combining(transcript):
    modulus = transcript.config.modulus
    phases = tuple(
        replace(phase, combining=phase.combining * 2 % modulus) if phase.order == 3 else phase
        for phase in transcript.plan.phases
    )
    return replace(transcript, plan=replace(transcript.plan, phases=phases))


@pytest.mark.parametrize("fault", [corrupted_observation, tampered_combining])
def test_batch_equals_user_by_user_on_faulty_transcripts(fault):
    transcript, library, caches = case(4, 1, 13)
    faulty = fault(transcript)
    report = verify_all(faulty, library)
    assert not report.all_pass
    assert report_rows(report) == user_by_user(faulty, library, caches)


def test_batch_equals_user_by_user_with_foreign_caches(monkeypatch):
    transcript, library, caches = case(4, 2, 2)
    own = caches[0]
    dropped = CacheContents(1, own.holders[1:], own.blocks[:, 1:])
    for foreign in (caches[1:] + caches[:1], [dropped] + caches[1:]):
        monkeypatch.setattr(decoder, "fill_caches", lambda config, subfiles: foreign)
        report = verify_all(transcript, library)
        assert not report.all_pass
        assert report_rows(report) == user_by_user(transcript, library, foreign)


@pytest.mark.parametrize("K, replication, seed", [(1, 0, 0), (4, 0, 1), (5, 2, 2), (6, 6, 0)])
def test_batch_of_one_equals_the_single_user_call(K, replication, seed):
    transcript, library, caches = case(K, replication, seed)
    for user in range(1, K + 1):
        (batched,) = decode_user(transcript, [user], [caches[user - 1]])
        alone = decode_user(transcript, user, caches[user - 1])
        assert np.array_equal(batched.file, alone.file)
        assert (batched.solves, batched.max_system_dim) == (alone.solves, alone.max_system_dim)


def test_a_batch_in_any_order_and_of_any_subset_decodes_each_user():
    transcript, library, caches = case(5, 1, 0)
    users = [4, 2, 5]
    outcomes = decode_user(transcript, users, [caches[user - 1] for user in users])
    for user, outcome in zip(users, outcomes):
        assert np.array_equal(outcome.file, library[transcript.demand[user - 1] - 1])
    assert decode_user(transcript, [], []) == []


def test_batch_rejects_repeated_users_and_unmatched_caches():
    transcript, library, caches = case(3, 1, 0)
    with pytest.raises(ValueError, match="distinct"):
        decode_user(transcript, [1, 1], [caches[0], caches[0]])
    with pytest.raises(ValueError, match="2 users but 1 caches"):
        decode_user(transcript, [1, 2], caches[:1])
