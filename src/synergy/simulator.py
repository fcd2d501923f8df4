"""Symbol-level delivery over a random prime-field broadcast channel.

Every channel use draws a fresh K x K matrix of nonzero coefficients
(row k is user k's channel).  The transmitter learns what the users
received only through a strictly causal ledger: content for order-j
groups is built exclusively from what was logged during the previous
phase.  After delivery ends the full channel log is released to the
decoders (delayed global receiver-side channel knowledge), while
received values stay private to each user.

The channel log and the observations are read-only uint32 arrays
(:class:`Transcript`), exact since every symbol lies below the modulus,
which is below 2**31.  No code does arithmetic on them, since uint32
differences wrap: each reader widens a gathered block to int64 (the
field kernels do so at entry) or uses it only as an index or an
assignment source.  No object is built per use.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .combinatorics import Subset, _as_int, format_rational, group_table, system_rows
from .field import SeededRng, is_invertible, matmul
from .placement import SystemConfig, _library, random_library, subpacketize
from .scheduler import DeliveryPlan, PhasePlan, build_xors, plan_phases

__all__ = [
    "DegenerateChannelError",
    "CausalityError",
    "Transcript",
    "run_delivery",
    "simulate",
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

# Most uses one step of the channel walk draws, checks or multiplies at
# once, which bounds those buffers whatever the phase length (a phase's
# transmitted symbols are held whole).  _draw_phase says how the window
# and the candidate uses per draw follow the redraws and the group
# width: a retry step checks _RETRY_WINDOW uses per alignment, and at
# most _ALIGNMENTS alignments.
_WINDOW = 1024
_RETRY_WINDOW = 8
_ALIGNMENTS = 32
# Draws per use, the degenerate one included, before "resample" gives up.
_MAX_REDRAWS = 64


class DegenerateChannelError(Exception):
    """A drawn channel makes some decoder-side square system singular."""


class CausalityError(Exception):
    """Attempt to read channel state before it is ledger-visible."""


class _DelayedCsitLedger:
    """Transmitter-side record of what every user received, wrapping the
    (K, total_uses) uint32 observation array that delivery fills in use
    order.  Reads are strictly causal: a use becomes visible (counted in
    ``visible_uses``) only once :meth:`record` ran for it.  The combining
    is fixed, so the transmitter needs the received symbols of past uses
    but none of their coefficients.
    """

    def __init__(self, observations: np.ndarray) -> None:
        self._observations = observations
        self.visible_uses = 0

    def record(self, observations: np.ndarray) -> None:
        """Log the (K, count) received symbols of the next ``count`` uses
        (reduced, so storing them as uint32 is exact)."""
        count = observations.shape[1]
        self._observations[:, self.visible_uses : self.visible_uses + count] = observations
        self.visible_uses += count

    def observations(self, users, uses) -> np.ndarray:
        """What ``users`` (1-based) received at ``uses``, index arrays
        broadcast together, as uint32; CausalityError if any use is not
        visible."""
        uses = np.asarray(uses)
        if uses.size:
            first, last = int(uses.min()), int(uses.max())
            if first < 0 or last >= self.visible_uses:
                raise CausalityError(
                    f"use {first if first < 0 else last} is not ledger-visible yet "
                    f"(visible: {self.visible_uses})"
                )
        return self._observations[np.asarray(users) - 1, uses]


@dataclass(frozen=True, eq=False)
class Transcript:
    """Complete delivery record, reproducible from (config, demand, seed).

    ``plan`` is structural (no payloads) and owns the config and the
    demand, which ``config`` and ``demand`` read.  ``channels`` is the
    channel log, one read-only uint32 (total_uses, K, K) array whose row
    t is the matrix of use t (row k of it is user k's channel);
    ``observations``, read-only uint32 too, has one row per user and one
    column per channel use.  Which phase, group and slot a row belongs to
    is the plan's layout (:meth:`DeliveryPlan.block_uses`).

    Every transcript is consistent with its plan: the constructor raises
    ValueError unless the plan has a demand, ``channels`` has shape
    (plan.total_uses, K, K) and ``observations`` (K, plan.total_uses),
    both hold integers, every symbol lies in [0, modulus) and no channel
    coefficient is zero, and unless ``seed`` is an integer, which it
    stores as a Python int.  uint32 input is kept as is, without a copy;
    another integer dtype is narrowed once the checks pass.
    """

    plan: DeliveryPlan
    channels: np.ndarray
    observations: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        if self.plan.demand is None:
            raise ValueError("plan has no demand; build it with plan_phases(config, demand, ...)")
        K, modulus, total = self.config.K, self.config.modulus, self.plan.total_uses
        channels = _symbols("channels", self.channels, (total, K, K), modulus, nonzero=True)
        observations = _symbols("observations", self.observations, (K, total), modulus)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "observations", observations)
        object.__setattr__(self, "seed", _as_int(self.seed, "seed must be an integer"))
        # One Subset per group, built and dropped, for this reason alone:
        # perfbench counts Subset constructions as the delivered groups.
        # ROADMAP item 1 replaces that counter and retires this loop.
        for phase in self.plan.phases:
            for members in itertools.combinations(range(1, K + 1), phase.order):
                Subset(members, K)

    @property
    def config(self) -> SystemConfig:
        return self.plan.config

    @property
    def demand(self) -> tuple[int, ...]:
        return self.plan.demand

    @property
    def total_uses(self) -> int:
        return len(self.channels)

    def __eq__(self, other: object):
        if not isinstance(other, Transcript):
            return NotImplemented
        return (
            self.config == other.config
            and self.demand == other.demand
            and self.seed == other.seed
            and np.array_equal(self.channels, other.channels)
            and np.array_equal(self.observations, other.observations)
        )


def _symbols(name: str, values, shape: tuple, modulus: int, nonzero: bool = False) -> np.ndarray:
    """``values`` as a read-only uint32 array of ``shape``, every entry in
    [0, modulus) and, with ``nonzero``, none zero; ValueError otherwise.

    uint32 input is a view of itself.  One max per array, plus one min
    where the dtype is signed or zeros are rejected, so an unsigned array
    of symbols is scanned once.
    """
    symbols = np.asarray(values)
    if symbols.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {symbols.dtype}")
    if symbols.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {symbols.shape}")
    if symbols.size:
        low = symbols.min() if nonzero or symbols.dtype.kind == "i" else 0
        if low < 0 or symbols.max() >= modulus:
            raise ValueError(f"{name} hold a symbol outside [0, modulus) = [0, {modulus})")
        if nonzero and low == 0:
            raise ValueError(f"{name} hold a zero channel coefficient")
    if symbols.dtype != np.uint32:
        symbols = symbols.astype(np.uint32)
    symbols = symbols.view()
    symbols.setflags(write=False)
    return symbols


def _phase_symbols(plan: DeliveryPlan, index: int, xors, observe) -> np.ndarray:
    """Transmitted symbols of every use of phase ``index`` of the plan, as
    a (group_count * uses_per_group, active_antennas) array in use order.

    First phase: each group's folded message (row g of ``xors`` for the
    group of rank g), split contiguously across antennas.  Later
    phases: every group's members' previous-phase observations, gathered
    with one index through ``observe(users, uses)`` (uint32, widened by
    ``matmul``), times ``phase.combining`` in one batched product; each
    group's combined rows are flattened row-major (combined row major,
    time minor) and refilled antenna-fastest.
    """
    phase = plan.phases[index]
    members, _, without_rank = group_table(phase.universe, phase.order)
    active, uses = phase.active_antennas, phase.uses_per_group
    if phase.combining is None:
        blocks = xors.reshape(len(members), active, uses)
        return blocks.transpose(0, 2, 1).reshape(-1, active)
    heard = plan.block_uses(index - 1, without_rank)
    overheard = observe(members[:, :, np.newaxis], heard)  # (groups, order, width)
    return matmul(phase.combining, overheard, plan.config.modulus).reshape(-1, active)


def _decodable(channels: np.ndarray, rows: np.ndarray, active: int, modulus: int) -> np.ndarray:
    """Per channel of a contiguous (uses, K, K) block: whether every
    system decoding will rely on is invertible.  ``rows[u, i]`` lists the
    channel rows of member i's system at use u (see
    :func:`~synergy.combinatorics.system_rows`); each system keeps the
    active antennas' columns.

    One ``take`` gathers the systems straight into the batch-last layout
    :func:`~synergy.field.is_invertible` eliminates in: entry (r, c, b)
    of the (active, active, uses * members) array is row r, column c of
    system b, handed over as its (uses * members, active, active)
    transpose, so the kernel widens it without transposing."""
    K = channels.shape[1]
    # Flat offset of entry (r, 0) of every system, (active, uses * members).
    starts = ((np.arange(len(channels))[:, np.newaxis, np.newaxis] * K + rows) * K).reshape(-1, active).T
    systems = channels.reshape(-1).take(starts[:, np.newaxis] + np.arange(active)[:, np.newaxis])
    invertible = is_invertible(systems.transpose(2, 0, 1), modulus)
    return invertible.reshape(len(channels), -1).all(axis=1)


def _draw_phase(
    rng: SeededRng, config: SystemConfig, phase: PhasePlan, on_degenerate: str,
    channels: np.ndarray, offset: int, retry: bool = False,
) -> bool:
    """Fill ``channels``, the (uses, K, K) slice of the channel log that
    holds one phase, whose first use is ``offset``; return whether this
    phase or an earlier one of the delivery (``retry``) met a degenerate
    draw.

    One forward walk over the channel stream, in steps.  A step covers a
    window of the uses not yet accepted and draws the matrices its
    window lacks as one (n * K) x K draw.  It then checks, in one batch,
    each of the window's pending draws at its candidate uses: after a
    failed draws earlier in the step, the draw at window index i is
    tried at the use a before its own, for a below the step's alignments
    (and a <= i).  A check is one system per member of the use's group,
    so a draw is checked once per group, not per use: alignments that
    keep it in one group share a check, and the check a draw had in an
    earlier step is reused while it stays in that group.

    One scan over that (draw, alignment) table replays the per-use rule:
    each draw either becomes its use's channel or is consumed as a
    failed draw of that use (one of its ``_MAX_REDRAWS`` draws), and the
    scan stops at the draw that would need an alignment the step did not
    check.  The next step starts at the first use not accepted.

    A step with no pending draw and one alignment draws straight into
    the log, so a phase that draws no degenerate channel costs one check
    per use, in one batch per ``_WINDOW`` uses.  Every other step keeps
    its draws in a ring of pending draws, in stream order, no longer
    than the phase or ``_WINDOW``, and copies each accepted one once
    into its use's slot.  A step after one that met a degenerate draw,
    and the first step of a phase after one that did (``retry``), is a
    retry step: it checks width + 2 alignments (at most
    ``_ALIGNMENTS``), which keep a draw within 3 groups of ``width``
    uses, over ``_RETRY_WINDOW`` uses per alignment (at most
    ``_WINDOW``).  A step after a clean one checks one alignment of
    twice the previous window, up to ``_WINDOW`` uses.  Which draws each
    step checks is not part of the stream: the stream is never rewound,
    nothing is drawn past the phase's last use, and every draw is
    consumed as the per-use rule consumes it.
    """
    K, modulus, active, width = config.K, config.modulus, phase.active_antennas, phase.uses_per_group
    group_rows = system_rows(K, phase.order)
    retry_alignments = min(width + 2, _ALIGNMENTS)
    retry_window = min(_RETRY_WINDOW * retry_alignments, _WINDOW)
    alignments, window = (retry_alignments, retry_window) if retry else (1, _WINDOW)
    # Draws are numbered in stream order from the phase's first: `drawn`
    # were drawn, the first `consumed` accepted or failed.  Pending draw j
    # sits at ring[j % size] (no more are pending than uses remain), and
    # known_group[j % size] and known_ok[j % size] hold the group and
    # result of its latest check (group -1: none).  The ring is made when
    # a step first needs it, so a clean phase makes none.  `failures`
    # counts the failed draws of use `failed_use`.
    done, consumed, drawn, failures, failed_use = 0, 0, 0, 0, -1
    size = min(len(channels), _WINDOW)
    ring = np.empty((size, K, K), dtype=np.uint32) if retry else None
    known_group, known_ok = np.full(size, -1), np.zeros(size, dtype=bool)
    while done < len(channels):
        logged = drawn == consumed and alignments == 1
        count = min(window, len(channels) - done)
        slots = np.arange(consumed, consumed + count) % size
        if drawn < consumed + count:
            block = rng.field_matrix((consumed + count - drawn) * K, K, modulus, nonzero=True)
            where = slice(done, done + count) if logged else slots[drawn - consumed :]
            (channels if logged else ring)[where] = block.reshape(-1, K, K)
            known_group[slots[drawn - consumed :]] = -1
            drawn = consumed + count
        # groups[i, a]: the group of use done + i - a, where the draw at
        # window index i is tried after a failures in this step; only
        # entries with i >= a are ever read.  Such an entry needs a check
        # unless the draw's last check or the entry before it in its row
        # has its group.
        lags = np.arange(count)[:, np.newaxis] - np.arange(alignments)
        groups = (done + lags) // width
        fresh = (lags >= 0) & (groups != known_group[slots, np.newaxis])
        need = fresh.copy()
        need[:, 1:] &= groups[:, 1:] != groups[:, :-1]
        ok = known_ok[slots, np.newaxis].repeat(alignments, axis=1)
        if need.any():
            # A step drawn into the log checks every draw once and hands
            # over the log slice itself rather than a gathered copy.
            pending = channels[done : done + count] if logged else ring[slots[need.nonzero()[0]]]
            checked = _decodable(pending, group_rows[groups[need]], active, modulus)
            ok[fresh] = checked[need.cumsum()[fresh.ravel()] - 1]
        # Replay the per-use rule: after a failures the next draw is read
        # at alignment a; stop at the draw past the last alignment checked.
        bad, scanned = [], count
        for a in range(alignments):
            first = bad[-1] + 1 if bad else 0
            column = ok[first:scanned, a]
            if column.all():
                break
            index = first + int(column.argmin())
            use = done + index - a
            if on_degenerate == "error":
                group = tuple(group_table(K, phase.order)[0][use // width].tolist())
                raise DegenerateChannelError(
                    f"use {offset + use}: singular decoding system for group {group}"
                )
            failures = failures + 1 if use == failed_use else 1
            if failures >= _MAX_REDRAWS:
                raise DegenerateChannelError(
                    f"use {offset + use}: still singular after {_MAX_REDRAWS} redraws"
                )
            bad.append(index)
            failed_use = use
        else:
            scanned = bad[-1] + 1
        if not logged:  # each accepted draw leaves the ring for its use's slot
            channels[done : done + scanned - len(bad)] = ring[np.delete(slots[:scanned], bad)]
        elif bad:  # the draws after the failed one, if any, wait in the ring
            ring = np.empty((size, K, K), dtype=np.uint32) if ring is None else ring
            ring[slots[scanned:]] = channels[done + scanned : done + count]
        # Keep each pending draw's check at its last column, the nearest
        # to the use the next step tries it at.
        known_group[slots[scanned:]] = groups[scanned:, -1]
        known_ok[slots[scanned:]] = ok[scanned:, -1]
        if bad:
            retry, alignments, window = True, retry_alignments, retry_window
        else:
            alignments, window = 1, min(2 * window, _WINDOW)
        done, consumed = done + scanned - len(bad), consumed + scanned
    return retry


def run_delivery(
    plan: DeliveryPlan,
    library: np.ndarray,
    seed: int,
    *,
    on_degenerate: str = "error",
) -> Transcript:
    """Execute the plan over a fresh random channel per use.

    ``library`` supplies the folded-message payloads when the plan
    carries none, and is checked as ``subpacketize`` checks it either
    way.  ``on_degenerate`` picks the reaction when a drawn
    channel makes a decoder-side system singular (probability ~K/modulus
    per use): "error" raises DegenerateChannelError, "resample" redraws
    that use's coefficients as part of the deterministic stream, at most
    ``_MAX_REDRAWS`` draws per use in all.  ValueError for a seed that
    is not an integer; the transcript stores it as a Python int.

    The delivery runs a phase at a time: one stream gather and product
    per phase, then one forward walk over the channel stream
    (:func:`_draw_phase`) into the phase's slice of the preallocated
    channel log, and one received-symbol product and ledger update per
    window of at most ``_WINDOW`` uses.
    """
    if on_degenerate not in ("error", "resample"):
        raise ValueError('on_degenerate must be "error" or "resample"')
    config = plan.config
    if plan.demand is None:
        raise ValueError("plan has no demand; build it with plan_phases(config, demand, ...)")
    library = _library(config, library)
    xors = plan.xors
    if xors is None:
        xors = build_xors(config, subpacketize(config, library), plan.demand)
    K, modulus = config.K, config.modulus
    rng = SeededRng(seed).child(CHANNEL_STREAM)
    channels = np.empty((plan.total_uses, K, K), dtype=np.uint32)
    observations = np.zeros((K, plan.total_uses), dtype=np.uint32)
    ledger, retry = _DelayedCsitLedger(observations), False
    for index, phase in enumerate(plan.phases):
        first, end = plan.offsets[index], plan.offsets[index + 1]
        sent = _phase_symbols(plan, index, xors, ledger.observations)
        retry = _draw_phase(rng, config, phase, on_degenerate, channels[first:end], first, retry)
        for start in range(first, end, _WINDOW):
            # received[u] = channels[u][:, :active] @ sent[u]
            stop = min(start + _WINDOW, end)
            active_columns = channels[start:stop, :, : phase.active_antennas]
            received = matmul(active_columns, sent[start - first : stop - first, :, np.newaxis], modulus)
            ledger.record(received[:, :, 0].T)
    return Transcript(
        plan=replace(plan, xors=None), channels=channels, observations=observations, seed=seed
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
    ValueError for a seed that is not an integer.
    """
    library = random_library(config, SeededRng(seed).child(LIBRARY_STREAM))
    subfiles = subpacketize(config, library)
    plan = plan_phases(config, demand, subfiles=subfiles)
    return run_delivery(plan, library, seed, on_degenerate=on_degenerate)


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
    sent = np.zeros((transcript.total_uses, config.K), dtype=np.int64)

    def observe(users, uses):
        return transcript.observations[users - 1, uses]

    for index, phase in enumerate(plan.phases):
        first, end = plan.offsets[index], plan.offsets[index + 1]
        sent[first:end, : phase.active_antennas] = _phase_symbols(plan, index, plan.xors, observe)
    return sent


def save_transcript(transcript: Transcript, json_path, sidecar_path=None) -> None:
    """Write metadata as JSON plus a binary sidecar with the channel and
    observation symbols (little-endian uint32, versioned header).

    Raises ValueError, before writing anything, when the transcript has
    2**32 uses or more, which the uint32 header cannot count.  Every
    transcript is consistent with its plan (see :class:`Transcript`), so
    the file always loads back.
    """
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
        for symbols in (transcript.channels, transcript.observations):
            # The uint32 arrays themselves: no copy on a little-endian host.
            fh.write(np.ascontiguousarray(symbols, dtype="<u4"))


def load_transcript(json_path, sidecar_path=None) -> Transcript:
    """Inverse of :func:`save_transcript`; the plan is rebuilt from the
    stored config and demand.

    Raises ValueError, naming the file, when the metadata is not JSON
    text or not a JSON object, it or its config lacks a field or holds
    an invalid one (seed, total_uses and every demand entry must be JSON
    integers, not floats or booleans), or the sidecar's magic, header,
    use count or size does not match; and, naming the sidecar, whatever
    the :class:`Transcript` constructor rejects: arrays that do not
    match the plan, a zero channel coefficient or a symbol not below the
    modulus.  The transcript's two arrays are read-only views of the
    sidecar bytes read, reshaped, not copies.
    """
    json_path = Path(json_path)
    try:
        meta = json.loads(json_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{json_path}: transcript metadata is not JSON text ({exc})") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{json_path}: transcript metadata must be a JSON object")
    if meta.get("format") != _TRANSCRIPT_FORMAT or meta.get("version") != _TRANSCRIPT_VERSION:
        raise ValueError(f"{json_path}: unrecognized transcript format or version")
    required = ["config", "demand", "seed", "total_uses"]
    if sidecar_path is None:
        required.append("sidecar")
    missing = [key for key in required if key not in meta]
    if missing:
        raise ValueError(f"{json_path}: transcript metadata lacks {', '.join(missing)}")
    for key in ("seed", "total_uses"):
        if type(meta[key]) is not int:
            raise ValueError(f"{json_path}: {key} must be an integer, got {meta[key]!r}")
    demand = meta["demand"]
    if not isinstance(demand, list) or any(type(r) is not int for r in demand):
        raise ValueError(f"{json_path}: demand must be a list of integers, got {demand!r}")
    if sidecar_path is None and not isinstance(meta["sidecar"], str):
        raise ValueError(f"{json_path}: sidecar must be a file name, got {meta['sidecar']!r}")
    try:
        config = SystemConfig.from_json(meta["config"])
        plan = plan_phases(config, demand)
    except ValueError as exc:
        raise ValueError(f"{json_path}: {exc}") from exc
    if sidecar_path is None:
        sidecar_path = json_path.parent / meta["sidecar"]
    raw = Path(sidecar_path).read_bytes()
    if raw[: len(_SIDECAR_MAGIC)] != _SIDECAR_MAGIC:
        raise ValueError(f"{sidecar_path}: sidecar magic mismatch")
    header = len(_SIDECAR_MAGIC) + 12
    if len(raw) < header:
        raise ValueError(
            f"{sidecar_path}: sidecar holds {len(raw)} bytes, expected at least {header}"
        )
    head = np.frombuffer(raw, dtype="<u4", count=3, offset=len(_SIDECAR_MAGIC))
    version, k, total = (int(v) for v in head)
    if version != _TRANSCRIPT_VERSION or k != config.K:
        raise ValueError(f"{sidecar_path}: sidecar header inconsistent with metadata")
    if total != meta["total_uses"]:
        raise ValueError(f"{sidecar_path}: sidecar use count inconsistent with the metadata")
    expected = 4 * (total * k * k + k * total)
    if len(raw) - header != expected:
        raise ValueError(
            f"{sidecar_path}: sidecar body holds {len(raw) - header} bytes, expected {expected}"
        )
    symbols = np.frombuffer(raw, dtype="<u4", offset=header)
    try:
        return Transcript(
            plan=plan,
            channels=symbols[: total * k * k].reshape(total, k, k),
            observations=symbols[total * k * k :].reshape(k, total),
            seed=meta["seed"],
        )
    except ValueError as exc:
        raise ValueError(f"{sidecar_path}: {exc}") from exc
