"""Backward decoding per user: recover overheard observation streams from
the last phase down, solve each first-phase block, strip cached blocks
from the folded messages, and reassemble the requested file.

Decoding walks integer group tables.  Phase order j has one row per
j-subset in canonical order (:func:`~synergy.combinatorics.group_table`),
so in phase i the group of rank r occupies uses
``plan.offsets[i] + r * uses_per_group`` onward, and "the group without
member i" is one lookup in the table's ``without_rank``.

Per phase, a user gathers its groups (the rows holding it) and, with one
index into the transcript's uint32 (T, K, K) channel log, only the
channel rows and active columns of those groups' uses; ``solve`` widens
that block to int64, and the user's own uint32 observations are only
copied into int64 arrays or widened before any arithmetic.  Each slot
of a group's block is a (K-j+1)-square system, the user's own row plus one row per non-member
(:func:`~synergy.combinatorics.system_rows`, the systems delivery
checked), whose right-hand side is the user's own observation and the
streams it recovered for the non-members in the phase after; every slot
of every such group is solved in one batch.  In phases past the first,
the user then removes its own previous-phase observation from the
combined rows and applies the inverse of the combining matrix with the
user's column deleted.  There are only j such minors per phase; the plan
inverts them once (``PhasePlan.combining_inverses``, shared by every
user) and each user applies them to all its groups as one batched
product, which yields what the other members saw in the previous phase.
At the first phase the solved block is the folded message itself; the
user subtracts the blocks it caches for the other members, found by
subset rank in the cache's ``holders``, and keeps its own missing block.

Each user's decode reads only the immutable transcript and its own
cache, so per-user decodes are independent and safe to run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import group_table, system_rows
from .field import matmul, solve
from .placement import CacheContents, fill_caches, subpacketize
from .simulator import Transcript

__all__ = [
    "DecodeOutcome",
    "UserReport",
    "DeliveryReport",
    "decode_user",
    "verify_all",
]


@dataclass
class DecodeOutcome:
    """Decoded file plus the decoder's recovered streams, for inspection.

    ``recovered`` maps each phase order j below K to a
    (C(K, j), K, uses_per_group) array: entry [r, k - 1] is what observer
    k saw of the block of the group of rank r, as this user reconstructed
    it, and -1 where the user reconstructed no such stream (groups
    without the user, and the group's own members).
    """

    file: np.ndarray
    recovered: dict[int, np.ndarray]
    solves: int
    max_system_dim: int


def decode_user(transcript: Transcript, user: int, cache: CacheContents) -> DecodeOutcome:
    """Backward-decode one user from its own observations, the delayed
    global channel log, and its cache.

    Raises ValueError when the cache does not hold exactly the blocks of
    the subsets containing ``user`` (another user's cache, for one), or
    when the transcript holds fewer channel uses, or fewer observation
    columns, than the plan sends.
    """
    config = transcript.config
    plan = transcript.plan
    demand = transcript.demand
    K, modulus = config.K, config.modulus
    if not 1 <= user <= K:
        raise ValueError(f"user must lie in [1, {K}]")
    if transcript.total_uses < plan.total_uses:
        raise ValueError(
            f"transcript holds {transcript.total_uses} of {plan.total_uses} uses"
        )
    observed = transcript.observations.shape[1]
    if observed < plan.total_uses:
        raise ValueError(
            f"transcript holds observations of {observed} of {plan.total_uses} uses"
        )
    holders = np.flatnonzero((group_table(K, config.replication)[0] == user).any(axis=1))
    blocks_shape = (config.N, len(holders), config.subfile_symbols)
    if not np.array_equal(cache.holders, holders) or cache.blocks.shape != blocks_shape:
        raise ValueError(
            f"cache of user {cache.user} does not hold the {blocks_shape} blocks "
            f"of the subsets containing user {user}"
        )
    own = transcript.observations[user - 1]
    phases, offsets = plan.phases, plan.offsets
    recovered = {
        phase.order: np.full((phase.group_count, K, phase.uses_per_group), -1, dtype=np.int64)
        for phase in phases[:-1]
    }
    file = np.empty((config.subfiles_per_file, config.subfile_symbols), dtype=np.int64)
    solves = 0
    max_dim = 0
    for idx in range(len(phases) - 1, -1, -1):
        phase = phases[idx]
        order, active, n = phase.order, phase.active_antennas, phase.uses_per_group
        members, _, without_rank = group_table(K, order)
        groups = np.flatnonzero((members == user).any(axis=1))
        count = len(groups)
        position = (members[groups] == user).argmax(axis=1)
        # Every slot of every group holding the user, as one batch of
        # square systems: the user's own row plus one row per non-member.
        rows = system_rows(K, order)[groups, position]
        slots = offsets[idx] + groups[:, np.newaxis] * n + np.arange(n)
        coefficients = transcript.channels[slots.reshape(-1, 1), np.repeat(rows, n, axis=0), :active]
        rhs = np.empty((count, n, active), dtype=np.int64)
        rhs[:, :, 0] = own[slots]
        if active > 1:
            streams = recovered[order][groups[:, np.newaxis], rows[:, 1:]]
            rhs[:, :, 1:] = streams.transpose(0, 2, 1)
        solved = solve(coefficients, rhs.reshape(-1, active), modulus)
        solved = solved.reshape(count, n, active)  # solved[g, slot] = symbols of that slot
        solves += count * n
        max_dim = max(max_dim, active)
        without_user = without_rank[groups, position]
        # Per group, its other members and the group without each of them.
        kept = np.arange(order - 1) + (np.arange(order - 1) >= position[:, np.newaxis])
        other_members = members[groups[:, np.newaxis], kept]
        other_ranks = without_rank[groups[:, np.newaxis], kept]
        if phase.combining is not None:
            previous = phases[idx - 1]
            combining, width = phase.combining, previous.uses_per_group
            combined = solved.reshape(count, order - 1, width)
            start = offsets[idx - 1] + without_user * width
            own_previous = own[start[:, np.newaxis] + np.arange(width)].astype(np.int64)
            own_part = combining.T[position][:, :, np.newaxis] * own_previous[:, np.newaxis]
            adjusted = (combined - own_part) % modulus
            # Only `order` distinct minors, inverted once per plan, exactly,
            # so applying the inverse equals a per-group solve.
            other_streams = matmul(phase.combining_inverses[position], adjusted, modulus)
            solves += count  # one combining system per group
            max_dim = max(max_dim, order - 1)
            recovered[previous.order][other_ranks, other_members - 1] = other_streams
        else:
            payload = solved.transpose(0, 2, 1).reshape(count, -1)  # antenna-major, as split
            # Member m's block is file demand[m]'s block of the group
            # without m, which the user caches.
            files = np.array(demand)[other_members - 1] - 1
            cached = cache.blocks[files, np.searchsorted(holders, other_ranks)]
            file[without_user] = (payload - cached.sum(axis=1)) % modulus
    file[holders] = cache.blocks[demand[user - 1] - 1]
    return DecodeOutcome(
        file=file.reshape(-1),
        recovered=recovered,
        solves=solves,
        max_system_dim=max_dim,
    )


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
        del outcome  # free this user's recovered streams before the next decode
    return DeliveryReport(entries)
