"""Backward decoding per user: recover overheard observation streams from
the last phase down, solve each first-phase block, strip cached blocks
from the folded messages, and reassemble the requested file.

For phase order j, a user inside a group gathers K-j+1 observation
streams of that group's block (its own log plus one recovered stream per
non-member).  Each slot of the block is a (K-j+1)-square system for the
transmitted symbols; the systems of every slot of every group holding the
user in that phase are stacked and solved as one batch.  In phases past
the first, the user then removes its own previous-phase observation from
the combined rows and, per group, inverts a column-deleted combining
minor to learn what the other members saw.  At the first phase the
solved block is the folded message itself; the user subtracts the
blocks it caches for the other members and keeps its own missing block.

Each user's decode reads only the immutable transcript and its own
cache, so per-user decodes are independent and safe to run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import Subset, enumerate_subsets
from .field import solve
from .placement import CacheContents, SubfileIndex, fill_caches, subpacketize
from .simulator import Transcript

__all__ = [
    "MissingObservationError",
    "DecodeOutcome",
    "UserReport",
    "DeliveryReport",
    "backward_decode",
    "decode_user",
    "verify_all",
]


class MissingObservationError(Exception):
    """Transcript lacks uses the decode needs."""


@dataclass
class DecodeOutcome:
    """Decoded file plus the decoder's working state, for inspection.

    ``recovered`` maps (order, group, observer) to that observer's
    reconstructed observation stream of the group's block;
    ``recovered_blocks`` maps each holder subset the user is *not* in to
    the file block it extracted from that folded message.
    """

    file: np.ndarray
    recovered: dict[tuple[int, Subset, int], np.ndarray]
    recovered_blocks: dict[Subset, np.ndarray]
    solves: int
    max_system_dim: int


def decode_user(transcript: Transcript, user: int, cache: CacheContents) -> DecodeOutcome:
    """Backward-decode one user from its own observations, the delayed
    global channel log, and its cache."""
    config = transcript.config
    plan = transcript.plan
    demand = transcript.demand
    modulus = config.modulus
    if not 1 <= user <= config.K:
        raise ValueError(f"user must lie in [1, {config.K}]")
    if transcript.total_uses < plan.total_uses or transcript.observations.shape[1] < plan.total_uses:
        raise MissingObservationError(
            f"transcript holds {transcript.total_uses} of {plan.total_uses} uses"
        )
    own = transcript.observations[user - 1]
    recovered: dict[tuple[int, Subset, int], np.ndarray] = {}
    blocks: dict[Subset, np.ndarray] = {}
    solves = 0
    max_dim = 0
    phases = plan.phases
    for idx in range(len(phases) - 1, -1, -1):
        phase = phases[idx]
        active, n = phase.active_antennas, phase.uses_per_group
        groups = [group for group in phase.iter_groups() if user in group]
        if not groups:
            continue
        # Every slot of every group holding the user, as one batch of
        # square systems: the user's own row plus one row per non-member.
        coefficients = np.empty((len(groups), n, active, active), dtype=np.int64)
        rhs = np.empty((len(groups), n, active), dtype=np.int64)
        for g, group in enumerate(groups):
            start, _ = transcript.group_slots[(phase.order, group)]
            others = group.complement()
            rows = [user - 1] + [other - 1 for other in others]
            channels = np.stack([use.channel for use in transcript.uses[start : start + n]])
            coefficients[g] = channels[:, rows, :active]
            rhs[g, :, 0] = own[start : start + n]
            for row, other in enumerate(others, start=1):
                rhs[g, :, row] = recovered[(phase.order, group, other)]
        solved = solve(coefficients.reshape(-1, active, active), rhs.reshape(-1, active), modulus)
        solved = solved.reshape(len(groups), n, active)
        solves += len(groups) * n
        max_dim = max(max_dim, active)
        for group, sent in zip(groups, solved):  # sent[slot] = symbols of that slot
            if phase.combining is not None:
                previous = phases[idx - 1]
                combined = sent.reshape(phase.order - 1, previous.uses_per_group)
                position = group.index_of(user)
                prev_start, prev_count = transcript.group_slots[
                    (previous.order, group.without(user))
                ]
                own_previous = own[prev_start : prev_start + prev_count]
                adjusted = (
                    combined - phase.combining[:, position : position + 1] * own_previous[np.newaxis, :]
                ) % modulus
                minor = np.delete(phase.combining, position, axis=1)
                other_streams = solve(minor, adjusted, modulus)
                solves += 1
                max_dim = max(max_dim, phase.order - 1)
                row = 0
                for member in group:
                    if member == user:
                        continue
                    recovered[(previous.order, group.without(member), member)] = other_streams[row]
                    row += 1
            else:
                payload = sent.T.reshape(-1)  # antenna-major, as the message was split
                for member in group:
                    if member == user:
                        continue
                    cached = cache.entries[SubfileIndex(demand[member - 1], group.without(member))]
                    payload = (payload - cached) % modulus
                blocks[group.without(user)] = payload
    pieces = []
    for holders in enumerate_subsets(config.K, config.replication):
        if user in holders:
            pieces.append(cache.entries[SubfileIndex(demand[user - 1], holders)])
        else:
            pieces.append(blocks[holders])
    file = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
    return DecodeOutcome(
        file=file,
        recovered=recovered,
        recovered_blocks=blocks,
        solves=solves,
        max_system_dim=max_dim,
    )


def backward_decode(transcript: Transcript, user: int, cache: CacheContents) -> np.ndarray:
    """Reconstructed file requested by ``user``."""
    return decode_user(transcript, user, cache).file


@dataclass
class UserReport:
    user: int
    requested: int
    match: bool
    solves: int
    max_system_dim: int
    error: str | None = None

    def to_json(self) -> dict:
        return {
            "user": self.user,
            "requested": self.requested,
            "match": self.match,
            "solves": self.solves,
            "max_system_dim": self.max_system_dim,
            "error": self.error,
        }


@dataclass
class DeliveryReport:
    """Per-user decode outcomes for one transcript."""

    users: list[UserReport]

    @property
    def all_pass(self) -> bool:
        return all(entry.match for entry in self.users)

    def to_json(self) -> dict:
        return {"all_pass": self.all_pass, "users": [entry.to_json() for entry in self.users]}


def verify_all(transcript: Transcript, library: np.ndarray) -> DeliveryReport:
    """Decode every user against the original library.

    Failures (mismatches or decode exceptions) become report entries,
    never exceptions.
    """
    config = transcript.config
    library = np.asarray(library, dtype=np.int64)
    caches = fill_caches(config, subpacketize(config, library))
    entries: list[UserReport] = []
    for user in range(1, config.K + 1):
        requested = transcript.demand[user - 1]
        try:
            outcome = decode_user(transcript, user, caches[user - 1])
        except Exception as exc:  # decode failures become report entries
            entries.append(
                UserReport(user, requested, False, 0, 0, f"{type(exc).__name__}: {exc}")
            )
            continue
        match = bool(np.array_equal(outcome.file, library[requested - 1]))
        entries.append(UserReport(user, requested, match, outcome.solves, outcome.max_system_dim))
    return DeliveryReport(entries)
