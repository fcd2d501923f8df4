import json
import re
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import complement, matrix_rank, rank, subsets, without
from synergy import simulator
from synergy.combinatorics import group_table
from synergy.decoder import verify_all
from synergy.field import SeededRng, matmul
from synergy.placement import random_library, subpacketize
from synergy.scheduler import default_config, plan_phases
from synergy.simulator import (
    CHANNEL_STREAM,
    LIBRARY_STREAM,
    CausalityError,
    DegenerateChannelError,
    Transcript,
    load_transcript,
    reconstruct_transmissions,
    run_delivery,
    save_transcript,
    simulate,
)


def seeded_run(K, N, M, seed=0, demand=None):
    config = default_config(K, N, M)
    demand = demand or tuple(range(1, K + 1))
    library = random_library(config, SeededRng(seed).child(LIBRARY_STREAM))
    plan = plan_phases(config, demand, subfiles=subpacketize(config, library))
    return config, library, plan, run_delivery(plan, library, seed)


def test_two_user_single_phase():
    config, library, plan, transcript = seeded_run(2, 2, 1)
    assert [phase.order for phase in plan.phases] == [2]
    assert plan.phases[0].active_antennas == 1
    assert transcript.total_uses == 1
    assert transcript.observations.shape == (2, 1)


def test_three_user_counts_and_accounting():
    config, library, plan, transcript = seeded_run(3, 3, 1)
    assert transcript.total_uses == 5
    denom = config.subfiles_per_file * (config.K - config.replication) * config.granularity
    assert Fraction(transcript.total_uses, denom) == Fraction(5, 6)
    assert transcript.plan.total_duration == Fraction(5, 6)


def test_fully_cached_empty_transcript():
    config, library, plan, transcript = seeded_run(3, 3, 3)
    assert transcript.total_uses == 0
    assert transcript.observations.shape == (3, 0)


def test_use_count_matches_plan():
    for K, M in ((4, 1), (5, 1), (6, 3)):
        config, library, plan, transcript = seeded_run(K, K, M)
        assert transcript.total_uses == plan.total_uses
        assert sum(phase.group_count * phase.uses_per_group for phase in plan.phases) == plan.total_uses


def test_uses_walk_phases_in_canonical_contiguous_order():
    config, library, plan, transcript = seeded_run(4, 4, 1)
    # The plan's layout walked phase -> group rank -> slot.
    walk = [
        (phase.order, tuple(group), slot, t)
        for index, phase in enumerate(plan.phases)
        for group, uses in zip(
            group_table(4, phase.order)[0].tolist(),
            plan.block_uses(index, np.arange(phase.group_count)).tolist(),
        )
        for slot, t in enumerate(uses)
    ]
    # It numbers the rows of the channel log in order, so within each
    # group the slots count up from zero at consecutive uses.
    assert [t for *_, t in walk] == list(range(len(transcript.channels)))
    # groups appear contiguously, in canonical order, phases ascending
    seen = []
    for order, group, _, _ in walk:
        if not seen or seen[-1] != (order, group):
            seen.append((order, group))
    assert [k[0] for k in seen] == sorted(k[0] for k in seen)
    assert len(set(seen)) == len(seen)
    assert seen == [(phase.order, group) for phase in plan.phases for group in subsets(4, phase.order)]


def test_channel_entries_nonzero_and_fresh():
    config, library, plan, transcript = seeded_run(4, 4, 1, seed=3)
    for channel in transcript.channels:
        assert channel.shape == (4, 4)
        assert (channel != 0).all()
        assert channel.max() < config.modulus
    pairs = zip(transcript.channels, transcript.channels[1:])
    assert all(not np.array_equal(a, b) for a, b in pairs)


def test_noiseless_consistency_and_overheard_reencoding():
    # every logged value equals channel row . transmitted symbols, with the
    # transmitted symbols recomputed from payloads + previously logged output
    config, library, plan, transcript = seeded_run(5, 5, 1, seed=2)
    sent = reconstruct_transmissions(plan, transcript)
    for t, channel in enumerate(transcript.channels):
        expected = matmul(channel, sent[t], config.modulus)
        assert np.array_equal(expected, transcript.observations[:, t])
    # idle antennas carry zeros, on every use of each phase
    for index, phase in enumerate(plan.phases):
        start, end = plan.offsets[index], plan.offsets[index + 1]
        assert start < end
        assert (sent[start:end, phase.active_antennas :] == 0).all()


def test_later_phase_content_uses_only_past_observations():
    config, library, plan, transcript = seeded_run(4, 4, 1, seed=5)
    phases, offsets = plan.phases, plan.offsets
    for index in range(1, len(phases)):
        for group in subsets(4, phases[index].order):
            start = offsets[index] + rank(group, 4) * phases[index].uses_per_group
            for member in group:
                prev_count = phases[index - 1].uses_per_group
                prev_start = offsets[index - 1] + rank(without(group, member), 4) * prev_count
                assert prev_start + prev_count <= start


def test_ledger_guards_future_reads():
    ledger = simulator._DelayedCsitLedger(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(CausalityError):
        ledger.observations(1, [0])
    ledger.record(np.array([[1], [2]]))
    assert ledger.observations(2, [0]).tolist() == [2]
    assert ledger.observations(np.array([[1], [2]]), np.array([[0]])).tolist() == [[1], [2]]
    for uses in ([1], [0, 1], [-1]):  # at the visible count, past it, or before use 0
        with pytest.raises(CausalityError):
            ledger.observations(1, uses)
    assert ledger.visible_uses == 1


def test_replay_is_bit_identical():
    # A replay is a second simulate call with the same inputs.
    config = default_config(4, 4, 2)
    demand = (1, 2, 3, 4)
    first = simulate(config, demand, seed=11)
    second = simulate(config, demand, seed=11)
    assert first == second
    different = simulate(config, demand, seed=12)
    assert first != different


def test_run_delivery_accepts_structural_plan():
    config = default_config(3, 3, 1)
    library = random_library(config, SeededRng(0).child(LIBRARY_STREAM))
    structural = plan_phases(config, (1, 2, 3))
    via_structural = run_delivery(structural, library, 0)
    assert via_structural == simulate(config, (1, 2, 3), 0)


def test_run_delivery_requires_demand():
    config = default_config(3, 3, 1)
    library = random_library(config, SeededRng(0))
    with pytest.raises(ValueError):
        run_delivery(plan_phases(config), library, 0)


def test_run_delivery_rejects_unknown_mode():
    config = default_config(2, 2, 1)
    library = random_library(config, SeededRng(0))
    with pytest.raises(ValueError):
        run_delivery(plan_phases(config, (1, 2)), library, 0, on_degenerate="ignore")


def test_degenerate_channel_surfaced_and_resampled():
    # a tiny field makes singular draws likely; the 2x2 systems of K=3
    # phase order 2 then collide within a few seeds
    config = default_config(3, 3, 1, modulus=7)
    demand = (1, 2, 3)
    raising = None
    for seed in range(64):
        try:
            simulate(config, demand, seed)
        except DegenerateChannelError:
            raising = seed
            break
    assert raising is not None, "expected some singular draw over a field of 7 elements"
    transcript = simulate(config, demand, raising, on_degenerate="resample")
    assert transcript.total_uses == 5
    again = simulate(config, demand, raising, on_degenerate="resample")
    assert transcript == again


def per_use_channels(plan, seed, max_redraws, on_degenerate="resample", phase_states=None):
    """Reference channel draws, one use at a time: up to ``max_redraws``
    K x K draws per use until every member's decoding system has full
    rank; with "error", the first draw that does not raises.  The stream
    state after each phase is appended to ``phase_states`` if given."""
    config = plan.config
    K, modulus = config.K, config.modulus
    rng = SeededRng(seed).child(CHANNEL_STREAM)
    channels = []
    for phase in plan.phases:
        active = phase.active_antennas
        for group in subsets(K, phase.order):
            others = [member - 1 for member in complement(group, K)]
            for _ in range(phase.uses_per_group):
                for _ in range(max_redraws):
                    channel = rng.field_matrix(K, K, modulus, nonzero=True)
                    if all(
                        matrix_rank(channel[[member - 1] + others][:, :active], modulus) == active
                        for member in group
                    ):
                        break
                    if on_degenerate == "error":
                        raise DegenerateChannelError(
                            f"use {len(channels)}: singular decoding system for group {group}"
                        )
                else:
                    raise DegenerateChannelError(
                        f"use {len(channels)}: still singular after {max_redraws} redraws"
                    )
                channels.append(channel)
        if phase_states is not None:
            phase_states.append(rng._state)
    return channels


def check_against_per_use_reference(on_degenerate, max_redraws):
    """Every GF(13) cell with K <= 6, seeds 0-2: the same channels as the
    per-use reference, or the same error message, with
    ``simulator._MAX_REDRAWS`` patched to ``max_redraws`` by the caller.
    Returns how many cells raised."""
    raised = 0
    for K in range(3, 7):
        for replication in range(K):
            config = default_config(K, K, replication, modulus=13)
            library = random_library(config, SeededRng(0).child(LIBRARY_STREAM))
            plan = plan_phases(config, tuple(range(1, K + 1)), subfiles=subpacketize(config, library))
            for seed in range(3):
                try:
                    expected = per_use_channels(plan, seed, max_redraws, on_degenerate)
                except DegenerateChannelError as exc:
                    raised += 1
                    with pytest.raises(DegenerateChannelError, match=f"^{re.escape(str(exc))}$"):
                        run_delivery(plan, library, seed, on_degenerate=on_degenerate)
                    continue
                transcript = run_delivery(plan, library, seed, on_degenerate=on_degenerate)
                assert len(transcript.channels) == len(expected)
                assert all(np.array_equal(channel, h) for channel, h in zip(transcript.channels, expected))
    return raised


@pytest.mark.parametrize("max_redraws", [1, 2, 64])
def test_resample_draws_match_per_use_reference(max_redraws, monkeypatch):
    # Over GF(13) degenerate draws are common, so the phase draws fall
    # back to per-use redraws many times across this grid.
    monkeypatch.setattr(simulator, "_MAX_REDRAWS", max_redraws)
    check_against_per_use_reference("resample", max_redraws)


def test_error_mode_matches_per_use_reference():
    # The first degenerate draw raises, naming its use and group; 13 of
    # the 54 cells draw no degenerate channel at all.  The module's own
    # limit is the README's 64 draws per use.
    assert simulator._MAX_REDRAWS == 64
    assert check_against_per_use_reference("error", 64) == 41


def delivery_phase_states(monkeypatch):
    """Record the channel stream's state after each phase that
    run_delivery draws."""
    states = []
    draw_phase = simulator._draw_phase

    def recording(rng, *args):
        channels = draw_phase(rng, *args)
        states.append(rng._state)
        return channels

    monkeypatch.setattr(simulator, "_draw_phase", recording)
    return states


@pytest.mark.parametrize("window", [None, 1, 3])
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    K=st.integers(3, 6),
    modulus=st.sampled_from([13, 17, 101]),
    max_redraws=st.sampled_from([1, 2, 3, 64]),
    seed=st.integers(0, 2**32),
    on_degenerate=st.sampled_from(["resample", "resample", "error"]),
)
def test_channel_walk_matches_per_use_reference(window, data, K, modulus, max_redraws, seed, on_degenerate):
    # A window of 1 or 3 uses puts degenerate draws on window edges; None
    # keeps the module's window.
    replication = data.draw(st.integers(0, K - 1), label="replication")
    config = default_config(K, K, replication, modulus=modulus)
    library = random_library(config, SeededRng(seed).child(LIBRARY_STREAM))
    plan = plan_phases(config, tuple(range(1, K + 1)), subfiles=subpacketize(config, library))
    expected_states = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        if window is not None:
            monkeypatch.setattr(simulator, "_WINDOW", window)
        monkeypatch.setattr(simulator, "_MAX_REDRAWS", max_redraws)
        states = delivery_phase_states(monkeypatch)
        try:
            expected = per_use_channels(plan, seed, max_redraws, on_degenerate, expected_states)
        except DegenerateChannelError as exc:
            with pytest.raises(DegenerateChannelError, match=f"^{re.escape(str(exc))}$"):
                run_delivery(plan, library, seed, on_degenerate=on_degenerate)
            return
        transcript = run_delivery(plan, library, seed, on_degenerate=on_degenerate)
    assert len(transcript.channels) == len(expected)
    assert all(np.array_equal(channel, h) for channel, h in zip(transcript.channels, expected))
    assert states == expected_states


def test_channel_walk_checks_few_uses(monkeypatch):
    # K=12 replication 8 over GF(101) draws degenerate channels often:
    # the walk checks at most 3x the delivered uses, in at most 30 draws.
    checked, draws = [0], [0]
    decodable, field_matrix = simulator._decodable, SeededRng.field_matrix

    def counting_decodable(channels, *args):
        checked[0] += len(channels)
        return decodable(channels, *args)

    def counting_field_matrix(rng, *args, **kwargs):
        draws[0] += 1
        return field_matrix(rng, *args, **kwargs)

    config = default_config(12, 12, 8, modulus=101)
    for seed in (1, 2, 3):
        library = random_library(config, SeededRng(seed).child(LIBRARY_STREAM))
        plan = plan_phases(config, tuple(range(1, 13)), subfiles=subpacketize(config, library))
        checked[0] = draws[0] = 0
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_decodable", counting_decodable)
            patch.setattr(SeededRng, "field_matrix", counting_field_matrix)
            transcript = run_delivery(plan, library, seed, on_degenerate="resample")
        assert transcript.total_uses == 763
        with pytest.raises(DegenerateChannelError):  # so the walk did redraw
            run_delivery(plan, library, seed)
        assert checked[0] <= 3 * transcript.total_uses, (seed, checked[0])
        assert draws[0] <= 30, (seed, draws[0])


def test_plan_offsets_and_group_ranks_cover_every_use():
    # Use t of phase i, group rank r, slot s sits at offsets[i] + r * n + s,
    # and those positions tile the transcript exactly once.
    config, library, plan, transcript = seeded_run(4, 4, 1, seed=9)
    positions = {
        (phase.order, group, slot): plan.offsets[index] + rank(group, 4) * phase.uses_per_group + slot
        for index, phase in enumerate(plan.phases)
        for group in subsets(4, phase.order)
        for slot in range(phase.uses_per_group)
    }
    assert sorted(positions.values()) == list(range(transcript.total_uses))
    for index, phase in enumerate(plan.phases):
        members = group_table(4, phase.order)[0]
        table = plan.block_uses(index, np.arange(phase.group_count))
        assert table.dtype == np.int64
        assert table.shape == (phase.group_count, phase.uses_per_group)
        for r, group in enumerate(members.tolist()):
            # one rank alone, and the rank table, give the same uses
            assert plan.block_uses(index, r).tolist() == table[r].tolist()
            for slot, t in enumerate(table[r].tolist()):
                assert positions[(phase.order, tuple(group), slot)] == t


def test_transcript_roundtrip_through_files(tmp_path):
    config, library, plan, transcript = seeded_run(4, 4, 2, seed=21)
    save_transcript(transcript, tmp_path / "run.json")
    loaded = load_transcript(tmp_path / "run.json")
    assert loaded == transcript
    assert loaded.plan.total_duration == transcript.plan.total_duration
    assert not any(channel.flags.writeable for channel in loaded.channels)


@pytest.mark.parametrize("seed", [1.5, "7"])
def test_simulate_rejects_a_non_integer_seed(seed):
    # used to run with a truncated or parsed seed but store the raw one,
    # which load_transcript then rejected
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
        simulate(default_config(3, 3, 1), (1, 2, 3), seed)


def test_integer_like_inputs_survive_save_and_load(tmp_path):
    # an int64 seed used to make save_transcript raise TypeError (not JSON serializable)
    config = default_config(3, 3, 1)
    transcript = simulate(config, tuple(np.arange(1, 4)), np.int64(4))
    assert type(transcript.seed) is int
    assert all(type(entry) is int for entry in transcript.demand)
    assert transcript == simulate(config, (1, 2, 3), 4)
    save_transcript(transcript, tmp_path / "run.json")
    assert load_transcript(tmp_path / "run.json") == transcript


def test_uses_are_read_only_views_of_the_channel_log(tmp_path):
    config, library, plan, transcript = seeded_run(4, 4, 1, seed=6)
    save_transcript(transcript, tmp_path / "run.json")
    for record in (transcript, load_transcript(tmp_path / "run.json")):
        channels = record.channels
        assert channels.shape == (plan.total_uses, 4, 4) and channels.dtype == np.uint32
        assert not channels.flags.writeable
        assert record.total_uses == len(channels) == record.observations.shape[1]
        for t, channel in enumerate(channels):
            assert not channel.flags.writeable
            assert np.shares_memory(channel, channels)
            assert np.array_equal(channel, channels[t])


def _base_owner(array):
    while isinstance(array, np.ndarray):
        array = array.base
    return array


def test_delivered_and_loaded_arrays_are_read_only_uint32(tmp_path):
    config, library, plan, transcript = seeded_run(4, 4, 1, seed=6)
    save_transcript(transcript, tmp_path / "run.json")
    loaded = load_transcript(tmp_path / "run.json")
    for record in (transcript, loaded):
        for symbols in (record.channels, record.observations):
            assert symbols.dtype == np.uint32 and not symbols.flags.writeable
    # The loaded arrays are views of the one bytes object read from the
    # sidecar, not copies.
    owner = _base_owner(loaded.channels)
    assert isinstance(owner, bytes) and len(owner) == (tmp_path / "run.bin").stat().st_size
    assert _base_owner(loaded.observations) is owner


def test_transcript_io_allocates_no_copy_of_the_log(tmp_path):
    # K=9 replication 0: 7,129 uses, a 2.6 MB sidecar.  Loading holds the
    # bytes read and two views of them; saving writes the two arrays
    # themselves.
    transcript = simulate(default_config(9, 9, 0), tuple(range(1, 10)), 1)

    def peak_above_start(call):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        _, save_peak = peak_above_start(lambda: save_transcript(transcript, tmp_path / "run.json"))
        loaded, load_peak = peak_above_start(lambda: load_transcript(tmp_path / "run.json"))
    finally:
        tracemalloc.stop()
    size = (tmp_path / "run.bin").stat().st_size
    assert loaded == transcript
    assert save_peak <= 0.25 * size, save_peak / size
    assert load_peak <= 2.5 * size, load_peak / size


def test_no_library_path_builds_the_per_use_records(tmp_path):
    config, library, plan, delivered = seeded_run(4, 4, 1, seed=3)
    simulated = simulate(config, (1, 2, 3, 4), 3)
    save_transcript(delivered, tmp_path / "run.json")
    loaded = load_transcript(tmp_path / "run.json")
    assert simulated == delivered == loaded
    # A transcript holds its fields and nothing per use, before and after
    # a full decode.
    names = {field.name for field in fields(Transcript)}
    for transcript in (delivered, simulated, loaded):
        assert set(vars(transcript)) == names
        assert verify_all(transcript, library).all_pass
        assert set(vars(transcript)) == names


def test_transcript_load_holds_little_beyond_the_sidecar_bytes(tmp_path):
    # K=9 replication 0: 7,129 uses.  Building a record object and a row
    # view per use on load made the peak 1.69x the sidecar.
    save_transcript(simulate(default_config(9, 9, 0), tuple(range(1, 10)), 1), tmp_path / "run.json")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loaded = load_transcript(tmp_path / "run.json")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = (tmp_path / "run.bin").stat().st_size
    assert loaded.total_uses == 7129
    assert peak <= 1.2 * size, peak / size


def test_replace_keeps_a_view_of_a_truncated_log():
    config, library, plan, transcript = seeded_run(4, 4, 1, seed=6)
    short = replace(transcript, channels=transcript.channels[:5])
    assert short.total_uses == 5
    assert short.plan is transcript.plan
    assert np.shares_memory(short.channels, transcript.channels)
    assert np.array_equal(short.channels, transcript.channels[:5])


@pytest.mark.parametrize("name", ["channels", "observations"])
@pytest.mark.parametrize(
    "entry, message",
    [
        (lambda modulus: -1, "outside"),
        (lambda modulus: modulus, "outside"),
        (lambda modulus: 1 << 32, "outside"),
        (lambda modulus: 1.0, "integers"),
    ],
    ids=["negative", "modulus", "2**32", "float"],
)
def test_transcript_never_narrows_silently(name, entry, message):
    config, library, plan, transcript = seeded_run(3, 3, 1, seed=1)
    value = entry(config.modulus)
    symbols = getattr(transcript, name).astype(type(value))
    symbols.flat[1] = value
    with pytest.raises(ValueError, match=f"{name} .*{message}"):
        replace(transcript, **{name: symbols})


def test_transcript_keeps_uint32_and_narrows_checked_integers():
    config, library, plan, transcript = seeded_run(3, 3, 1, seed=1)
    channels, observations = transcript.channels.copy(), transcript.observations.copy()
    kept = replace(transcript, channels=channels, observations=observations)
    assert np.shares_memory(kept.channels, channels)
    assert np.shares_memory(kept.observations, observations)
    assert channels.flags.writeable and not kept.channels.flags.writeable
    assert not kept.observations.flags.writeable
    narrowed = replace(
        transcript, channels=channels.astype(np.int64), observations=observations.astype(np.uint64)
    )
    assert narrowed == transcript
    for symbols in (narrowed.channels, narrowed.observations):
        assert symbols.dtype == np.uint32 and not symbols.flags.writeable


def test_transcript_equality_compares_channels_observations_and_seed(tmp_path):
    config, library, plan, transcript = seeded_run(3, 3, 1, seed=1)
    save_transcript(transcript, tmp_path / "run.json")
    loaded = load_transcript(tmp_path / "run.json")
    assert loaded == transcript and transcript == loaded
    channels = transcript.channels.copy()
    channels[2, 1, 0] = channels[2, 1, 0] % (config.modulus - 1) + 1  # another nonzero value
    assert replace(transcript, channels=channels) != transcript
    observations = transcript.observations.copy()
    observations[1, 3] = (observations[1, 3] + 1) % config.modulus
    assert replace(transcript, observations=observations) != transcript
    assert replace(transcript, seed=transcript.seed + 1) != transcript
    assert replace(transcript, channels=transcript.channels.copy()) == transcript


@pytest.mark.parametrize(
    "arrays, message",
    [
        (lambda channels, observations: (channels.reshape(len(channels), -1), observations), "channels"),
        (lambda channels, observations: (channels[:, :, :-1], observations), "channels"),
        (lambda channels, observations: (channels[:, :-1], observations), "channels"),
        (lambda channels, observations: (channels[0], observations), "channels"),
        (lambda channels, observations: (channels, observations[:-1]), "observations"),
        (lambda channels, observations: (channels, observations[0]), "observations"),
    ],
    ids=["flat", "short-columns", "short-rows", "one-use", "short-observations", "one-user"],
)
def test_transcript_rejects_misshapen_arrays(arrays, message):
    config, library, plan, transcript = seeded_run(3, 3, 1, seed=1)
    channels, observations = arrays(transcript.channels, transcript.observations)
    with pytest.raises(ValueError, match=message):
        Transcript(config, transcript.demand, transcript.plan, channels, observations, transcript.seed)


def test_transcript_roundtrip_empty(tmp_path):
    config, library, plan, transcript = seeded_run(3, 3, 3, seed=4)
    save_transcript(transcript, tmp_path / "empty.json")
    assert load_transcript(tmp_path / "empty.json") == transcript


@pytest.mark.parametrize("columns", [-1, 1])
def test_save_rejects_observations_that_do_not_match_the_channel_log(tmp_path, columns):
    # the header counts uses from the channel log: one observation column
    # too few or too many would make a file that load_transcript rejects
    config, library, plan, transcript = seeded_run(3, 3, 1, seed=1)
    observations = transcript.observations
    if columns < 0:
        observations = observations[:, :columns]
    else:
        observations = np.concatenate([observations, observations[:, :columns]], axis=1)
    malformed = replace(transcript, observations=observations)
    expected = f"observations hold {observations.shape[1]} columns for {transcript.total_uses}"
    with pytest.raises(ValueError, match=expected):
        save_transcript(malformed, tmp_path / "run.json")
    assert not (tmp_path / "run.json").exists() and not (tmp_path / "run.bin").exists()


def test_transcript_load_rejects_tampered_sidecar(tmp_path):
    config, library, plan, transcript = seeded_run(3, 3, 1, seed=1)
    save_transcript(transcript, tmp_path / "run.json")
    raw = bytearray((tmp_path / "run.bin").read_bytes())
    raw[:4] = b"XXXX"
    (tmp_path / "run.bin").write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_transcript(tmp_path / "run.json")


def _saved_run(tmp_path):
    config, library, plan, transcript = seeded_run(3, 3, 1, seed=1)
    save_transcript(transcript, tmp_path / "run.json")
    return config, transcript, tmp_path / "run.json", tmp_path / "run.bin"


def test_transcript_load_rejects_out_of_range_symbols(tmp_path):
    config, transcript, json_path, sidecar = _saved_run(tmp_path)
    raw = sidecar.read_bytes()
    header, total = 20, transcript.total_uses
    channels_end = header + 4 * total * config.K * config.K
    zeroed = bytearray(raw)
    zeroed[header + 4 : header + 8] = bytes(4)  # one channel coefficient
    sidecar.write_bytes(bytes(zeroed))
    with pytest.raises(ValueError, match="zero channel coefficient"):
        load_transcript(json_path)
    for offset, value in ((header, config.modulus), (channels_end + 4, 4294967295)):
        large = bytearray(raw)
        large[offset : offset + 4] = value.to_bytes(4, "little")
        sidecar.write_bytes(bytes(large))
        with pytest.raises(ValueError, match="modulus"):
            load_transcript(json_path)
    sidecar.write_bytes(raw)
    assert load_transcript(json_path) == transcript


def test_transcript_load_reports_sidecar_size(tmp_path):
    config, transcript, json_path, sidecar = _saved_run(tmp_path)
    raw = sidecar.read_bytes()
    body = len(raw) - 20
    for cut in (raw[:-4], raw[:-1], raw + b"\x00\x00", raw[:14]):
        sidecar.write_bytes(cut)
        expected = "at least 20" if len(cut) < 20 else f"{len(cut) - 20} bytes, expected {body}"
        with pytest.raises(ValueError, match=f"run.bin.*{expected}"):
            load_transcript(json_path)


def test_transcript_load_requires_seed(tmp_path):
    config, transcript, json_path, sidecar = _saved_run(tmp_path)
    meta = json.loads(json_path.read_text())
    del meta["seed"]
    json_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="run.json.*seed"):
        load_transcript(json_path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: meta["config"].pop("K"), "config lacks K"),
        (lambda meta: meta.update(config=[3, 3, 1, 1, 101]), "config must be a JSON object, got list"),
        (lambda meta: meta["config"].update(modulus="101"), "config field modulus must be an integer"),
    ],
    ids=["missing-field", "list", "string-field"],
)
def test_transcript_load_rejects_malformed_config(tmp_path, edit, message):
    config, transcript, json_path, sidecar = _saved_run(tmp_path)
    meta = json.loads(json_path.read_text())
    edit(meta)
    json_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"run.json: {message}"):
        load_transcript(json_path)



@pytest.mark.parametrize(
    "document, message",
    [
        (lambda meta: {**meta, "seed": 1.9}, "seed must be an integer"),
        (lambda meta: {**meta, "seed": True}, "seed must be an integer"),
        (lambda meta: {**meta, "total_uses": meta["total_uses"] + 0.5}, "total_uses must be an integer"),
        (lambda meta: {**meta, "demand": [1.9, 2.2, 3.7]}, "demand must be a list of integers"),
        (lambda meta: {**meta, "demand": [True, 2, 3]}, "demand must be a list of integers"),
        (lambda meta: {**meta, "demand": 5}, "demand must be a list of integers"),
        (lambda meta: {**meta, "demand": [1, 2, 4]}, "demand entries must lie in"),
        (lambda meta: {**meta, "sidecar": 5}, "sidecar must be a file name"),
        (lambda meta: {**meta, "version": 2}, "unrecognized transcript format or version"),
        (lambda meta: [], "transcript metadata must be a JSON object"),
    ],
    ids=[
        "float-seed", "bool-seed", "float-uses", "float-demand", "bool-demand",
        "scalar-demand", "demand-range", "int-sidecar", "version", "list",
    ],
)
def test_transcript_load_rejects_coerced_metadata(tmp_path, document, message):
    config, transcript, json_path, sidecar = _saved_run(tmp_path)
    json_path.write_text(json.dumps(document(json.loads(json_path.read_text()))))
    with pytest.raises(ValueError, match=f"run.json: {message}"):
        load_transcript(json_path)


def test_transcript_load_names_the_sidecar(tmp_path):
    config, transcript, json_path, sidecar = _saved_run(tmp_path)
    raw = sidecar.read_bytes()
    for broken, message in (
        (b"XXXXXXXX" + raw[8:], "magic mismatch"),
        (raw[:12] + (config.K + 1).to_bytes(4, "little") + raw[16:], "header inconsistent"),
        (raw[:16] + (transcript.total_uses + 1).to_bytes(4, "little") + raw[20:], "use count"),
    ):
        sidecar.write_bytes(broken)
        with pytest.raises(ValueError, match=f"run.bin: sidecar {message}"):
            load_transcript(json_path)


@pytest.mark.parametrize(
    "content", [b"not json\n", b"\x80\xff\x00SYNTRANS"], ids=["not-json", "binary"]
)
def test_transcript_load_names_undecodable_metadata(tmp_path, content):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    with pytest.raises(ValueError, match="run.json: transcript metadata is not JSON text"):
        load_transcript(path)
