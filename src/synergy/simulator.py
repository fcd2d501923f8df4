"""Symbol-level delivery over a random prime-field broadcast channel.

Every channel use draws a fresh K x K matrix of nonzero coefficients
(row k is user k's channel).  The transmitter learns coefficients and
received values only through a strictly causal ledger: content for
order-j groups is built exclusively from what was logged during the
previous phase.  After delivery ends the full channel log is released to
the decoders (delayed global receiver-side channel knowledge), while
received values stay private to each user.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .combinatorics import Subset, format_rational
from .field import SeededRng, is_invertible, matmul
from .placement import LengthMismatchError, SystemConfig, random_library, subpacketize
from .scheduler import DeliveryPlan, PhasePlan, build_xors, plan_phases

__all__ = [
    "LIBRARY_STREAM",
    "CHANNEL_STREAM",
    "DEMAND_STREAM",
    "DegenerateChannelError",
    "CausalityError",
    "ChannelUse",
    "DelayedCsitLedger",
    "Transcript",
    "run_delivery",
    "simulate",
    "replay",
    "reconstruct_transmissions",
    "save_transcript",
    "load_transcript",
]

# Child-stream indices of the top-level seed; fixed so that transcripts
# are a pure function of (config, demand, seed).
LIBRARY_STREAM, CHANNEL_STREAM, DEMAND_STREAM = 0, 1, 2

_TRANSCRIPT_FORMAT = "synergy-transcript"
_TRANSCRIPT_VERSION = 1
_SIDECAR_MAGIC = b"SYNTRANS"


class DegenerateChannelError(Exception):
    """A drawn channel makes some decoder-side square system singular."""


class CausalityError(Exception):
    """Attempt to read channel state before it is ledger-visible."""


@dataclass(frozen=True, eq=False)
class ChannelUse:
    """One channel use: global index, phase order, group, within-group
    slot, and the K x K coefficient matrix (row k = user k's channel)."""

    t: int
    order: int
    group: Subset
    slot: int
    channel: np.ndarray


class DelayedCsitLedger:
    """Transmitter-side record of past uses; reads are strictly causal.

    A use becomes visible only once :meth:`record` ran for it, i.e.
    strictly after the use completed.
    """

    def __init__(self) -> None:
        self._channels: list[np.ndarray] = []
        self._observations: list[np.ndarray] = []

    @property
    def visible_uses(self) -> int:
        return len(self._channels)

    def record(self, channel: np.ndarray, observations: np.ndarray) -> None:
        self._channels.append(channel)
        self._observations.append(observations)

    def _guard(self, t: int) -> None:
        if not 0 <= t < self.visible_uses:
            raise CausalityError(
                f"use {t} is not ledger-visible yet (visible: {self.visible_uses})"
            )

    def channel(self, t: int) -> np.ndarray:
        self._guard(t)
        return self._channels[t]

    def observation(self, t: int, user: int) -> int:
        self._guard(t)
        return int(self._observations[t][user - 1])


@dataclass(frozen=True, eq=False)
class Transcript:
    """Complete delivery record, reproducible from (config, demand, seed).

    ``plan`` is structural (no payloads); ``observations`` has one row
    per user and one column per channel use.
    """

    config: SystemConfig
    demand: tuple[int, ...]
    plan: DeliveryPlan
    uses: tuple[ChannelUse, ...]
    observations: np.ndarray
    seed: int

    @cached_property
    def group_slots(self) -> dict[tuple[int, Subset], tuple[int, int]]:
        """(order, group) -> (first use index, use count)."""
        slots: dict[tuple[int, Subset], list[int]] = {}
        for use in self.uses:
            key = (use.order, use.group)
            if key not in slots:
                slots[key] = [use.t, 0]
            slots[key][1] += 1
        return {key: (start, count) for key, (start, count) in slots.items()}

    @property
    def total_uses(self) -> int:
        return len(self.uses)

    def __eq__(self, other: object):
        if not isinstance(other, Transcript):
            return NotImplemented
        return (
            self.config == other.config
            and self.demand == other.demand
            and self.seed == other.seed
            and len(self.uses) == len(other.uses)
            and all(
                a.t == b.t
                and a.order == b.order
                and a.group == b.group
                and a.slot == b.slot
                and np.array_equal(a.channel, b.channel)
                for a, b in zip(self.uses, other.uses)
            )
            and np.array_equal(self.observations, other.observations)
        )


def _group_streams(
    phase: PhasePlan,
    group: Subset,
    previous: PhasePlan | None,
    slots: dict[tuple[int, Subset], tuple[int, int]],
    payloads: dict[Subset, np.ndarray],
    observe,
    modulus: int,
) -> np.ndarray:
    """Symbols for this group as an (active_antennas, uses_per_group) block.

    First phase: the folded message, split contiguously across antennas.
    Later phases: the order-1 combined rows over the members' logged
    previous-phase observations, flattened row-major (combined row major,
    time minor) and refilled antenna-fastest.
    """
    if phase.combining is None:
        return payloads[group].reshape(phase.active_antennas, phase.uses_per_group)
    rows = []
    for member in group:
        start, count = slots[(previous.order, group.without(member))]
        rows.append([observe(t, member) for t in range(start, start + count)])
    overheard = np.array(rows, dtype=np.int64)
    combined = matmul(phase.combining, overheard, modulus)
    flat = combined.reshape(-1)
    return flat.reshape(phase.uses_per_group, phase.active_antennas).T


def _decodable(channels: np.ndarray, group: Subset, active: int, modulus: int) -> np.ndarray:
    """Per channel of a (uses, K, K) block: whether every system decoding
    will rely on is invertible.  For each member that is its own row plus
    every non-member row, restricted to the active antennas."""
    complement_rows = [member - 1 for member in group.complement()]
    rows = np.array([[member - 1] + complement_rows for member in group])
    systems = channels[:, rows, :active]  # (uses, members, active, active)
    invertible = is_invertible(systems.reshape(-1, active, active), modulus)
    return invertible.reshape(len(channels), len(group)).all(axis=1)


def _draw_channels(
    rng: SeededRng,
    config: SystemConfig,
    phase: PhasePlan,
    group: Subset,
    on_degenerate: str,
    max_redraws: int,
    t: int,
) -> np.ndarray:
    """The (uses_per_group, K, K) channels of one group, starting at use t.

    All uses are drawn as one (uses * K) x K matrix, which is the same
    row-major stream as one K x K draw per use.  From the first
    degenerate use on, the stream is rewound to that use: it is redrawn
    on its own (up to ``max_redraws`` draws in all), and the uses after
    it are drawn as a block again.
    """
    K, modulus, active = config.K, config.modulus, phase.active_antennas
    blocks: list[np.ndarray] = []
    done = 0
    while done < phase.uses_per_group:
        start = rng._state
        block = rng.field_matrix((phase.uses_per_group - done) * K, K, modulus, nonzero=True)
        block = block.reshape(-1, K, K)
        bad = np.flatnonzero(~_decodable(block, group, active, modulus))
        if bad.size == 0:
            blocks.append(block)
            break
        first = int(bad[0])
        if on_degenerate == "error":
            raise DegenerateChannelError(
                f"use {t + done + first}: singular decoding system for group {tuple(group)}"
            )
        # Rewind (the stream is a pure function of its state) and replay
        # up to and including the degenerate draw, which counts as the
        # first of that use's max_redraws draws.
        rng._state = start
        replayed = rng.field_matrix((first + 1) * K, K, modulus, nonzero=True)
        blocks.append(replayed[: first * K].reshape(-1, K, K))
        for _ in range(max_redraws - 1):
            channel = rng.field_matrix(K, K, modulus, nonzero=True)[np.newaxis]
            if _decodable(channel, group, active, modulus)[0]:
                break
        else:
            raise DegenerateChannelError(
                f"use {t + done + first}: still singular after {max_redraws} redraws"
            )
        blocks.append(channel)
        done += first + 1
    return np.concatenate(blocks)


def run_delivery(
    plan: DeliveryPlan,
    library: np.ndarray,
    seed: int,
    *,
    on_degenerate: str = "error",
    max_redraws: int = 64,
) -> Transcript:
    """Execute the plan over a fresh random channel per use.

    ``library`` supplies the folded-message payloads when the plan
    carries none.  ``on_degenerate`` picks the reaction when a drawn
    channel makes a decoder-side system singular (probability ~K/modulus
    per use): "error" raises DegenerateChannelError, "resample" redraws
    that use's coefficients as part of the deterministic stream.
    """
    if on_degenerate not in ("error", "resample"):
        raise ValueError('on_degenerate must be "error" or "resample"')
    config = plan.config
    if plan.demand is None:
        raise ValueError("plan has no demand; build it with plan_phases(config, demand, ...)")
    library = np.asarray(library, dtype=np.int64)
    if library.shape != (config.N, config.file_symbols):
        raise LengthMismatchError(
            f"library shape {library.shape} does not match the config "
            f"(expected {(config.N, config.file_symbols)})"
        )
    xors = plan.xors
    if xors is None:
        xors = build_xors(config, subpacketize(config, library), plan.demand)
    payloads = {message.group: message.payload for message in xors}
    rng = SeededRng(seed).child(CHANNEL_STREAM)
    ledger = DelayedCsitLedger()
    uses: list[ChannelUse] = []
    columns: list[np.ndarray] = []
    slots: dict[tuple[int, Subset], tuple[int, int]] = {}
    previous: PhasePlan | None = None
    t = 0
    for phase in plan.phases:
        for group in phase.iter_groups():
            streams = _group_streams(
                phase, group, previous, slots, payloads, ledger.observation, config.modulus
            )
            slots[(phase.order, group)] = (t, phase.uses_per_group)
            channels = _draw_channels(rng, config, phase, group, on_degenerate, max_redraws, t)
            channels.setflags(write=False)
            # received[slot] = channels[slot][:, :active] @ streams[:, slot]
            active_columns = channels[:, :, : phase.active_antennas]
            received = matmul(active_columns, streams.T[:, :, np.newaxis], config.modulus)[:, :, 0]
            columns.append(received.T)
            for slot, (channel, observed) in enumerate(zip(channels, received)):
                uses.append(ChannelUse(t=t, order=phase.order, group=group, slot=slot, channel=channel))
                ledger.record(channel, observed)
                t += 1
        previous = phase
    observations = (
        np.concatenate(columns, axis=1) if columns else np.zeros((config.K, 0), dtype=np.int64)
    )
    return Transcript(
        config=config,
        demand=plan.demand,
        plan=replace(plan, xors=None),
        uses=tuple(uses),
        observations=observations,
        seed=seed,
    )


def simulate(
    config: SystemConfig,
    demand,
    seed: int,
    *,
    on_degenerate: str = "error",
) -> Transcript:
    """Seeded end-to-end run: library, placement, plan, delivery.

    The library and the channel consume independent child streams of the
    seed, so the transcript is a pure function of (config, demand, seed).
    """
    library = random_library(config, SeededRng(seed).child(LIBRARY_STREAM))
    subfiles = subpacketize(config, library)
    plan = plan_phases(config, demand, subfiles=subfiles)
    return run_delivery(plan, library, seed, on_degenerate=on_degenerate)


def replay(config: SystemConfig, demand, seed: int, *, on_degenerate: str = "error") -> Transcript:
    """Re-run :func:`simulate` with the same inputs; bit-identical result."""
    return simulate(config, demand, seed, on_degenerate=on_degenerate)


def reconstruct_transmissions(plan: DeliveryPlan, transcript: Transcript) -> np.ndarray:
    """Recompute the (total_uses, K) matrix of transmitted symbols from a
    payload-bearing plan and the logged observations, zero-padded on idle
    antennas.

    Used to cross-check the log: each column of ``observations`` must
    equal channel @ transmitted for its use, and every later-phase symbol
    is a function of observations logged strictly earlier.
    """
    if plan.xors is None:
        raise ValueError("reconstruction needs a payload-bearing plan")
    config = plan.config
    payloads = {message.group: message.payload for message in plan.xors}
    sent = np.zeros((transcript.total_uses, config.K), dtype=np.int64)

    def observe(t: int, user: int) -> int:
        return int(transcript.observations[user - 1, t])

    slots: dict[tuple[int, Subset], tuple[int, int]] = {}
    previous: PhasePlan | None = None
    t = 0
    for phase in plan.phases:
        for group in phase.iter_groups():
            streams = _group_streams(phase, group, previous, slots, payloads, observe, config.modulus)
            slots[(phase.order, group)] = (t, phase.uses_per_group)
            for slot in range(phase.uses_per_group):
                sent[t, : phase.active_antennas] = streams[:, slot]
                t += 1
        previous = phase
    return sent


def save_transcript(transcript: Transcript, json_path, sidecar_path=None) -> None:
    """Write metadata as JSON plus a binary sidecar with the channel and
    observation symbols (little-endian uint32, versioned header)."""
    json_path = Path(json_path)
    sidecar_path = Path(sidecar_path) if sidecar_path is not None else json_path.with_suffix(".bin")
    total = transcript.total_uses
    if total >= 1 << 32:
        raise ValueError("transcript too large for the sidecar header")
    meta = {
        "format": _TRANSCRIPT_FORMAT,
        "version": _TRANSCRIPT_VERSION,
        "config": transcript.config.to_json(),
        "demand": list(transcript.demand),
        "seed": transcript.seed,
        "total_uses": total,
        "total_duration": format_rational(transcript.plan.total_duration),
        "phase_durations": {
            str(phase.order): format_rational(phase.duration) for phase in transcript.plan.phases
        },
        "sidecar": sidecar_path.name,
    }
    json_path.write_text(json.dumps(meta, indent=2) + "\n")
    with open(sidecar_path, "wb") as fh:
        fh.write(_SIDECAR_MAGIC)
        fh.write(np.array([_TRANSCRIPT_VERSION, transcript.config.K, total], dtype="<u4").tobytes())
        if total:
            channels = np.stack([use.channel for use in transcript.uses])
            fh.write(channels.astype("<u4").tobytes())
            fh.write(transcript.observations.astype("<u4").tobytes())


def load_transcript(json_path, sidecar_path=None) -> Transcript:
    """Inverse of :func:`save_transcript`; the plan is rebuilt from the
    stored config and demand.

    Raises ValueError, naming the file, when the metadata or its config
    lacks a field or holds an invalid one, the sidecar's size does not
    match its header, a channel coefficient is zero or a symbol is not
    below the modulus.
    """
    json_path = Path(json_path)
    meta = json.loads(json_path.read_text())
    if meta.get("format") != _TRANSCRIPT_FORMAT or meta.get("version") != _TRANSCRIPT_VERSION:
        raise ValueError("unrecognized transcript format or version")
    required = ["config", "demand", "seed", "total_uses"]
    if sidecar_path is None:
        required.append("sidecar")
    missing = [key for key in required if key not in meta]
    if missing:
        raise ValueError(f"{json_path}: transcript metadata lacks {', '.join(missing)}")
    try:
        config = SystemConfig.from_json(meta["config"])
    except ValueError as exc:
        raise ValueError(f"{json_path}: {exc}") from exc
    demand = tuple(int(r) for r in meta["demand"])
    plan = plan_phases(config, demand)
    if sidecar_path is None:
        sidecar_path = json_path.parent / meta["sidecar"]
    raw = Path(sidecar_path).read_bytes()
    if raw[: len(_SIDECAR_MAGIC)] != _SIDECAR_MAGIC:
        raise ValueError("sidecar magic mismatch")
    header = len(_SIDECAR_MAGIC) + 12
    if len(raw) < header:
        raise ValueError(
            f"{sidecar_path}: sidecar holds {len(raw)} bytes, expected at least {header}"
        )
    head = np.frombuffer(raw, dtype="<u4", count=3, offset=len(_SIDECAR_MAGIC))
    version, k, total = (int(v) for v in head)
    if version != _TRANSCRIPT_VERSION or k != config.K:
        raise ValueError("sidecar header inconsistent with metadata")
    if total != plan.total_uses or total != int(meta["total_uses"]):
        raise ValueError("sidecar use count inconsistent with the plan")
    expected = 4 * (total * k * k + k * total)
    if len(raw) - header != expected:
        raise ValueError(
            f"{sidecar_path}: sidecar body holds {len(raw) - header} bytes, expected {expected}"
        )
    symbols = np.frombuffer(raw, dtype="<u4", offset=header)
    if total and int(symbols.max()) >= config.modulus:
        raise ValueError(f"{sidecar_path}: symbol not below the modulus {config.modulus}")
    if total and int(symbols[: total * k * k].min()) == 0:
        raise ValueError(f"{sidecar_path}: zero channel coefficient")
    symbols = symbols.astype(np.int64)
    channels = symbols[: total * k * k].reshape(total, k, k)
    observations = symbols[total * k * k :].reshape(k, total)
    uses: list[ChannelUse] = []
    t = 0
    for phase in plan.phases:
        for group in phase.iter_groups():
            for slot in range(phase.uses_per_group):
                channel = channels[t].copy()
                channel.setflags(write=False)
                uses.append(ChannelUse(t=t, order=phase.order, group=group, slot=slot, channel=channel))
                t += 1
    return Transcript(
        config=config,
        demand=demand,
        plan=plan,
        uses=tuple(uses),
        observations=observations,
        seed=int(meta["seed"]),
    )
