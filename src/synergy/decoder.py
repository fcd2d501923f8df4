"""Backward decoding of a batch of users in one pass per phase: recover
overheard observation streams from the last phase down, solve each
first-phase block, strip cached blocks from the folded messages, and
reassemble the requested files.

Decoding walks integer group tables.  Phase order j has one row per
j-subset in canonical order (:func:`~synergy.combinatorics.group_table`),
the plan maps a group rank to its uses
(:meth:`~synergy.scheduler.DeliveryPlan.block_uses`), and "the group
without member i" is one lookup in the table's ``without_rank``.

Every member of a group decodes the same uses, so a phase's work for a
batch of users is one list of (group, member) pairs: each pair whose
member is in the batch, group-major.  Each slot of a pair's block is a
(K-j+1)-square system, the member's own channel row plus one row per
non-member (:func:`~synergy.combinatorics.system_rows`, the systems
delivery checked), whose right-hand side is the member's own observation
and the streams that member recovered for the non-members in the phase
after.  The pairs are solved in windows of whole pairs, one ``solve``
per window, each window at most ``_SYSTEM_ENTRIES`` int64 entries of
augmented systems or combining products (but at least one pair).  A
window gathers, with one index into the transcript's uint32 (T, K, K)
channel log, only the channel rows and active columns of its pairs'
uses, and ``solve`` widens that block to int64.  The uint32 observations
are only copied into int64 arrays or widened before any arithmetic.  In
phases past the first, each member then removes its own previous-phase
observation from the combined rows and applies the inverse of the
combining matrix with its column deleted.  There are only j such minors
per phase; the plan inverts them once (``PhasePlan.combining_inverses``)
and each window applies them as one batched product, which yields what
the other members saw in the previous phase.  At the first phase each
pair's solved block is the folded message itself; each user then
subtracts the blocks it caches for the other members, found by subset
rank in its cache's ``holders``, and keeps its own missing block.

The recovered streams are held one level at a time, and only the
entries some member reconstructs: the streams phase i reads are a
(pairs, uses_per_group, K - j) array, indexed by that phase's pair,
slot and non-member, allocated when phase i + 1 first writes it and
freed once phase i has read it.  Each member's right-hand side uses only
its own observations and its own recovered streams, so a batch decodes
each user exactly as a batch of one does.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .combinatorics import _as_int, group_table, system_rows
from .field import matmul, solve
from .placement import CacheContents, _holders, fill_caches, subpacketize
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


# Most int64 entries one window of the decode forms at once: a pair
# counts the entries of its augmented systems, or of its combining
# product when that is larger.  A window holds whole (group, member)
# pairs, at least one, so the decode's working set is bounded as
# delivery's is by ``simulator._WINDOW``.
_SYSTEM_ENTRIES = 32_768


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
    return others + (others >= position[:, np.newaxis])


def _decode_phase(
    transcript: Transcript, index: int, slot: np.ndarray, streams: np.ndarray | None
) -> np.ndarray:
    """Solve phase ``index`` of the plan for every pair of the batch
    (see :func:`_phase_pairs`), window by window.

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
        adjusted = solved.reshape(count, order - 1, width) - own_part
        adjusted %= modulus
        # Only `order` distinct minors, inverted once per plan, exactly,
        # so applying the inverse equals a per-group solve.
        recovered = matmul(phase.combining_inverses[position], adjusted, modulus)
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
    user (another user's cache, for one), or the transcript holds fewer
    or more channel uses, or observation columns, than the plan sends.
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
    _check_length(transcript.total_uses, plan.total_uses, "")
    _check_length(transcript.observations.shape[1], plan.total_uses, "observations of ")
    for entry, contents in zip(users, caches):
        holders = _holders(config, entry)
        blocks_shape = (config.N, len(holders), config.subfile_symbols)
        if not np.array_equal(contents.holders, holders) or contents.blocks.shape != blocks_shape:
            raise ValueError(
                f"cache of user {contents.user} does not hold the {blocks_shape} blocks "
                f"of the subsets containing user {entry}"
            )
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
    if phases:
        # `streams` now holds each first-phase pair's folded message.
        order = phases[0].order
        members, _, without_rank = group_table(K, order)
        _, _, pair = _phase_pairs(K, order, slot)
    outcomes = []
    for entry, contents in zip(users, caches):
        file = np.empty((config.subfiles_per_file, config.subfile_symbols), dtype=np.int64)
        if phases:
            # Member m's block in the folded message is file demand[m]'s
            # block of the group without m, which the user caches.
            groups, position = np.nonzero(members == entry)
            kept = _others(order, position)
            wanted = np.array(demand)[members[groups[:, np.newaxis], kept] - 1] - 1
            cached = contents.blocks[
                wanted, np.searchsorted(contents.holders, without_rank[groups[:, np.newaxis], kept])
            ]
            payload = streams[pair[groups, position]]
            file[without_rank[groups, position]] = (payload - cached.sum(axis=1)) % modulus
        file[contents.holders] = contents.blocks[demand[entry - 1] - 1]
        outcomes.append(DecodeOutcome(file=file.reshape(-1), solves=solves, max_system_dim=max_dim))
    return outcomes[0] if single else outcomes


def _check_length(held: int, sent: int, what: str) -> None:
    """ValueError unless the transcript holds exactly the ``sent`` uses
    of its plan."""
    if held < sent:
        raise ValueError(f"transcript holds {what}{held} of {sent} uses")
    if held > sent:
        raise ValueError(f"transcript holds {what}{held} uses, more than the {sent} its plan sends")


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
    """Decode every user against the original library, in one batched
    :func:`decode_user` call.

    Argument errors raise before any decode: a library whose shape does
    not match the config raises LengthMismatchError.  Decode failures
    become report entries: a user whose file differs is a mismatch, and
    when the batch raises, every user is decoded alone again so that
    each entry carries its own exception.
    """
    config = transcript.config
    library = np.asarray(library, dtype=np.int64)
    caches = fill_caches(config, subpacketize(config, library))
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
        match = bool(np.array_equal(outcome.file, library[requested - 1]))
        entries.append(UserReport(user, requested, match, outcome.solves, outcome.max_system_dim))
    return DeliveryReport(entries)
