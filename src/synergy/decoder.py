"""Backward decoding of a batch of users in one pass per phase: recover
overheard observation streams from the last phase down, solve each
first-phase block, strip cached blocks from the folded messages, and
reassemble the requested files.

Decoding walks integer group tables
(:func:`~synergy.combinatorics.group_table`) and the plan's use layout
(:meth:`~synergy.scheduler.DeliveryPlan.block_uses`).  Every member of a
group decodes the same uses, so a phase's work for a batch is one list
of (group, member) pairs (:func:`_phase_pairs`), solved window by window
(:func:`_decode_phase`).  The recovered streams are held one phase level
at a time, and each member's right-hand side uses only its own
observations and its own recovered streams, so a batch decodes each user
exactly as a batch of one does.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .combinatorics import _as_int, group_table, system_rows
from .field import _reduce, matmul, solve
from .placement import CacheContents, _holder_table, _symbols, fill_caches, subpacketize
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
    """One user's decoded file and the count and largest dimension of
    the square systems its decode solved."""

    file: np.ndarray
    solves: int
    max_system_dim: int


# Most int64 entries of the augmented systems one window of the decode
# solves at once: a pair counts n * active * (active + 1) entries, or
# n * active * (order - 1) when that is more.  It bounds the solve only:
# past the first phase, each pair's (order - 1)-square combining minor is
# gathered too, and matmul copies that gather batch-last, so on K=12
# replication 8 the order-10 phase (660 pairs, one window) forms 106,920
# entries of minors and about 144,000 with the product's other arrays,
# 2.2 times the bound.  A window holds whole (group, member) pairs, at
# least one.  Each window pays the kernels' fixed cost once, which at
# these sizes outweighs the arithmetic.  At 65,536, every phase of K=8
# replication 0 (at most 60,480 entries) and of K=12 replication 8 (at
# most 63,360) is one window; at 32,768 the three largest of each took
# two.  Measured in process against 32,768: a K=8 replication-0 simulate
# took 0.94x the time and a K=9 one 0.87x, and the K=12 replication-0
# decode peak rose from 12.56 to 12.59 MB.
_SYSTEM_ENTRIES = 65_536


def _phase_pairs(K: int, order: int, slot: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rank and member position of every (group, member) pair of
    phase order ``order`` whose member is in the batch (``slot[user]``,
    the user's index in the batch, is -1 for users outside it),
    group-major, and the (C(K, order), order) table of each pair's index
    in that list, -1 where the member is outside the batch."""
    inside = slot[group_table(K, order)[0]] >= 0
    index = np.where(inside, np.cumsum(inside).reshape(inside.shape) - 1, -1)
    groups, positions = np.nonzero(inside)
    return groups, positions, index


def _others(order: int, position: np.ndarray) -> np.ndarray:
    """Per pair, the positions of the group's other order - 1 members."""
    others = np.arange(order - 1)
    return others + (others >= position[..., np.newaxis])


def _decode_phase(
    transcript: Transcript, index: int, slot: np.ndarray, streams: np.ndarray | None
) -> np.ndarray:
    """Solve phase ``index`` of the plan for every pair of the batch
    (see :func:`_phase_pairs`), window by window.

    Each slot of a pair's block is a (K - order + 1)-square system, the
    member's own channel row plus one row per non-member (the systems
    delivery checked, :func:`~synergy.combinatorics.system_rows`), whose
    right-hand side is the member's own observation and the streams it
    recovered for the non-members in the phase after.  A window of whole
    pairs is one ``solve``; it gathers only its pairs' channel rows and
    active columns, with one index into the transcript's log (any uint32
    view), and ``solve`` widens that block to int64.  Past the first
    phase, each member then removes its own previous-phase observation
    from the combined rows and applies the inverse of the combining
    matrix with its column deleted, which yields what the other members
    saw in the previous phase.

    ``streams`` holds what each pair's member recovered of the
    non-members' observations of the group's block: a (pairs,
    uses_per_group, K - order) int64 array, None in the last phase,
    which has no non-members.  Past the first phase, returns the streams
    the previous phase reads, laid out the same way for that phase's
    pairs; in the first phase, each pair's folded message, a (pairs,
    subfile_symbols) int64 array.
    """
    config, plan = transcript.config, transcript.plan
    K, modulus = config.K, config.modulus
    phase = plan.phases[index]
    order, active, n = phase.order, phase.active_antennas, phase.uses_per_group
    members, _, without_rank = group_table(K, order)
    rows_table = system_rows(K, order)
    observations = transcript.observations
    groups, positions, _ = _phase_pairs(K, order, slot)
    if index:
        width = plan.phases[index - 1].uses_per_group
        inverses = plan.combining_inverses[index]
        _, _, previous_pair = _phase_pairs(K, order - 1, slot)
        out = np.empty((np.count_nonzero(previous_pair >= 0), width, K - order + 1), dtype=np.int64)
    else:
        out = np.empty((len(groups), n * active), dtype=np.int64)
    step = max(1, _SYSTEM_ENTRIES // (n * active * max(active + 1, order - 1)))
    for lo in range(0, len(groups), step):
        group, position = groups[lo : lo + step], positions[lo : lo + step]
        count = len(group)
        member = members[group, position]
        # Every slot of every pair of the window, as one batch of square
        # systems: the member's own row plus one row per non-member.
        uses = plan.block_uses(index, group)
        rows = np.repeat(rows_table[group, position], n, axis=0)
        coefficients = transcript.channels[uses.reshape(-1, 1), rows, :active]
        rhs = np.empty((count, n, active), dtype=np.int64)
        rhs[:, :, 0] = observations[member[:, np.newaxis] - 1, uses]
        if streams is not None:
            rhs[:, :, 1:] = streams[lo : lo + step]
        solved = solve(coefficients, rhs.reshape(-1, active), modulus)
        if not index:
            payload = solved.reshape(count, n, active).transpose(0, 2, 1)  # antenna-major, as split
            out[lo : lo + step] = payload.reshape(count, -1)
            continue
        heard = plan.block_uses(index - 1, without_rank[group, position])
        own_previous = observations[member[:, np.newaxis] - 1, heard].astype(np.int64)
        own_part = phase.combining.T[position][:, :, np.newaxis] * own_previous[:, np.newaxis]
        adjusted = _reduce(solved.reshape(count, order - 1, width) - own_part, modulus)
        # Only `order` distinct minors, inverted once per plan, exactly,
        # so applying the inverse equals a per-group solve.
        recovered = matmul(inverses[position], adjusted, modulus)
        # Row k of `recovered` is what the group's other member at
        # position k saw of the group without it.  There this pair's
        # member sits one position earlier when k came first, and the
        # other member is non-member number (its label - 1 - k).
        kept = _others(order, position)
        shifted = position[:, np.newaxis] - (kept < position[:, np.newaxis])
        target = previous_pair[without_rank[group[:, np.newaxis], kept], shifted]
        out[target, :, members[group[:, np.newaxis], kept] - 1 - kept] = recovered
    return out


def decode_user(
    transcript: Transcript,
    user: int | Sequence[int],
    cache: CacheContents | Sequence[CacheContents],
) -> DecodeOutcome | list[DecodeOutcome]:
    """Backward-decode users from their own observations, the delayed
    global channel log, and their caches.

    ``user`` is one user with its ``cache``, giving one
    :class:`DecodeOutcome`, or a sequence of distinct users with the
    matching sequence of caches, giving one outcome per user in that
    order.  The batch is decoded in one pass per phase; one user is the
    batch of one.

    Raises ValueError when a user is not an integer, lies outside
    [1, K] or appears twice, the users and caches differ in number, a
    cache does not hold exactly the blocks of the subsets containing its
    user (another user's cache, for one), or its blocks are not integer,
    hold a symbol outside [0, modulus) or, as LengthMismatchError, are
    not (N, holders, subfile_symbols).  The transcript needs no check:
    its constructor makes it consistent with its plan.
    """
    config = transcript.config
    plan = transcript.plan
    demand = transcript.demand
    K, modulus = config.K, config.modulus
    single = np.ndim(user) == 0
    users = [_as_int(entry, "user must be an integer") for entry in ([user] if single else user)]
    caches = [cache] if single else list(cache)
    if len(users) != len(caches):
        raise ValueError(f"{len(users)} users but {len(caches)} caches")
    if not all(1 <= entry <= K for entry in users):
        raise ValueError(f"user must lie in [1, {K}]")
    table = _holder_table(K, config.replication)
    shape = (config.N, table.shape[1], config.subfile_symbols)
    blocks = []
    for entry, contents in zip(users, caches):
        name = f"cache of user {contents.user}"
        if not np.array_equal(contents.holders, table[entry - 1]):
            raise ValueError(f"{name} does not hold the blocks of the subsets containing user {entry}")
        blocks.append(_symbols(name, contents.blocks, shape, modulus))
    slot = np.full(K + 1, -1)
    slot[users] = np.arange(len(users))
    if np.count_nonzero(slot >= 0) != len(users):
        raise ValueError("users must be distinct")
    phases = plan.phases
    streams = None
    solves = max_dim = 0
    for index in range(len(phases) - 1, -1, -1):
        # Rebinding frees the streams this phase read.
        streams = _decode_phase(transcript, index, slot, streams)
        phase = phases[index]
        # Each user is in C(K - 1, order - 1) groups of the phase: one
        # system per slot and, past the first phase, one combining system
        # per group.
        count = math.comb(K - 1, phase.order - 1)
        solves += count * phase.uses_per_group
        max_dim = max(max_dim, phase.active_antennas)
        if index:
            solves += count
            max_dim = max(max_dim, phase.order - 1)
    files = np.empty((len(users), config.subfiles_per_file, config.subfile_symbols), dtype=np.int64)
    if phases:
        # `streams` now holds each first-phase pair's folded message.
        # Member m's block in it is file demand[m]'s block of the group
        # without m, which the pair's member caches.  Each user's pairs
        # form one row of the batch.  `place` maps a block's subset rank
        # to its place in each user's holder row, which every cache was
        # checked to hold above, so one gather per cache, laid out
        # (order - 1, pairs, symbols), strips its row with a first-axis
        # sum, and one reduction finishes every row.  The gather's
        # indices are built per user, so only one user's are held at a
        # time; building them for the whole batch at once was no faster.
        order = phases[0].order
        members, _, without_rank = group_table(K, order)
        place = np.zeros((K, math.comb(K, order - 1)), dtype=np.int64)
        place[np.arange(K)[:, np.newaxis], table] = np.arange(table.shape[1])
        groups, positions, _ = _phase_pairs(K, order, slot)
        mine = np.argsort(slot[members[groups, positions]], kind="stable")
        mine = mine.reshape(len(users), math.comb(K - 1, order - 1))
        group, position = groups[mine], positions[mine]
        requested = np.array(demand) - 1
        payload = streams[mine]
        for row, (entry, cache_blocks) in enumerate(zip(users, blocks)):
            kept = _others(order, position[row]).T
            spot = place[entry - 1, without_rank[group[row], kept]] * config.N
            spot += requested[members[group[row], kept] - 1]
            # One row per (holder place, file): a view for the caches of
            # fill_caches, which hold each user's blocks holder-major.
            cached = cache_blocks.transpose(1, 0, 2).reshape(-1, config.subfile_symbols)
            payload[row] -= cached.take(spot, axis=0).sum(axis=0)
        target = without_rank[group, position]
        files[np.arange(len(users))[:, np.newaxis], target] = _reduce(payload, modulus)
    for file, entry, cache_blocks in zip(files, users, blocks):
        file[table[entry - 1]] = cache_blocks[demand[entry - 1] - 1]
    outcomes = [DecodeOutcome(file.reshape(-1), solves, max_dim) for file in files]
    return outcomes[0] if single else outcomes


@dataclass
class UserReport:
    user: int
    requested: int
    match: bool
    solves: int
    max_system_dim: int
    error: str | None = None

    def to_json(self) -> dict:
        return dict(vars(self))


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
    """Decode every user against the original library, in one batched
    :func:`decode_user` call.

    Argument errors raise before any decode: a library that
    ``subpacketize`` rejects raises its ValueError or LengthMismatchError.
    Decode failures become report entries: a user whose file differs is
    a mismatch, and when the batch raises, every user is decoded alone
    again so that each entry carries its own exception.
    """
    config = transcript.config
    subfiles = subpacketize(config, library)
    caches = fill_caches(config, subfiles)
    users = range(1, config.K + 1)
    try:
        outcomes = decode_user(transcript, users, caches)
    except Exception:  # decode failures become report entries, user by user
        outcomes = [None] * config.K
    entries: list[UserReport] = []
    for user, outcome in zip(users, outcomes):
        requested = transcript.demand[user - 1]
        if outcome is None:
            try:
                outcome = decode_user(transcript, user, caches[user - 1])
            except Exception as exc:  # decode failures become report entries
                entries.append(
                    UserReport(user, requested, False, 0, 0, f"{type(exc).__name__}: {exc}")
                )
                continue
        match = bool(np.array_equal(outcome.file, subfiles[requested - 1].reshape(-1)))
        entries.append(UserReport(user, requested, match, outcome.solves, outcome.max_system_dim))
    return DeliveryReport(entries)
