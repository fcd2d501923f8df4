"""Symbol-level delivery over a random prime-field broadcast channel.

Every channel use draws a fresh K x K matrix of nonzero coefficients
(row k is user k's channel).  The transmitter learns what the users
received only through a strictly causal ledger: content for order-j
groups is built exclusively from what was logged during the previous
phase.  After delivery ends the full channel log is released to the
decoders (delayed global receiver-side channel knowledge), while
received values stay private to each user.

The channel log is one read-only uint32 (T, K, K) array,
``Transcript.channels``: row t is the matrix of use t.  Delivery fills it
in place, the sidecar stores the same bytes in the same order, the
loader hands back a read-only view of the bytes it read, reshaped, and
decoders index it directly.  The (K, T) observations are uint32 too.
Every symbol lies below the modulus, which is below 2**31, so the
narrow dtype is exact; no code does arithmetic on it: each reader
gathers a block and widens it to int64 (the field kernels do so at
entry) or uses it only as an index or an assignment source, since
uint32 differences wrap silently.  No object is built per use.

Delivery walks phases, not groups.  Each phase is a fixed table of
groups (:func:`~synergy.combinatorics.group_table`), and the plan lays
out their uses: ``DeliveryPlan.offsets`` per phase and
``DeliveryPlan.block_uses``, the one place a (phase, group rank, slot)
becomes a use index.  So a phase costs one gather of its streams (in
later phases one index into the ledger's observation array, then one
batched product with the combining matrix) and one forward walk over the
channel stream.  The walk fills the phase's slice of the preallocated
channel log in windows of at most ``_WINDOW`` uses, each drawn and
checked for decodability in one batch against the systems of
:func:`~synergy.combinatorics.system_rows`, which decoding solves, and
never rewinds the stream: a degenerate draw is consumed as a failed draw
of its use.  The received symbols are formed and logged window by window
too.  Only those buffers (each window's draw, decodability check and
received-symbol product) are bounded by ``_WINDOW``; the phase's
transmitted symbols are still held whole.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .combinatorics import Subset, _as_int, format_rational, group_table, system_rows
from .field import SeededRng, is_invertible, matmul
from .placement import LengthMismatchError, SystemConfig, random_library, subpacketize
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
# once, which bounds delivery's working set whatever the phase length;
# after a degenerate draw the walk restarts at _RETRY_WINDOW uses.
_WINDOW = 1024
_RETRY_WINDOW = 4
# Draws per use, the degenerate one included, before "resample" gives up.
_MAX_REDRAWS = 64


class DegenerateChannelError(Exception):
    """A drawn channel makes some decoder-side square system singular."""


class CausalityError(Exception):
    """Attempt to read channel state before it is ledger-visible."""


class _DelayedCsitLedger:
    """Transmitter-side record of what every user received; reads are
    strictly causal.

    It wraps the (K, total_uses) uint32 observation array that the
    delivery fills in use order; ``visible_uses`` counts the uses logged
    so far.
    A use becomes visible only once :meth:`record` ran for it, i.e.
    strictly after it completed.  The combining is fixed, so the transmitter needs
    the received symbols of past uses but none of their coefficients.
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

    ``plan`` is structural (no payloads).  ``channels`` is the channel
    log, one read-only uint32 (total_uses, K, K) array whose row t is the
    matrix of use t (row k of it is user k's channel); ``observations``,
    read-only uint32 too, has one row per user and one column per channel
    use.  uint32 input is kept as is, without a copy; another integer
    dtype is narrowed only after checking that every entry lies in
    [0, modulus).  Which phase, group and slot a row belongs to is the
    plan's layout (:meth:`DeliveryPlan.block_uses`).

    Raises ValueError when either array does not hold integers, an
    integer array other than uint32 holds an entry outside
    [0, modulus), ``channels`` is not a (T, K, K) array or
    ``observations`` does not have K rows.
    """

    config: SystemConfig
    demand: tuple[int, ...]
    plan: DeliveryPlan
    channels: np.ndarray
    observations: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        K, modulus = self.config.K, self.config.modulus
        channels = _symbols("channels", self.channels, modulus)
        observations = _symbols("observations", self.observations, modulus)
        if channels.ndim != 3 or channels.shape[1:] != (K, K):
            raise ValueError(f"channels must have shape (uses, {K}, {K}), got {channels.shape}")
        if observations.ndim != 2 or len(observations) != K:
            raise ValueError(f"observations must have {K} rows, got shape {observations.shape}")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "observations", observations)
        # One Subset per group, built and dropped, for this reason alone:
        # perfbench counts Subset constructions as the delivered groups.
        # ROADMAP item 1 replaces that counter and retires this loop.
        for phase in self.plan.phases:
            for members in itertools.combinations(range(1, K + 1), phase.order):
                Subset(members, K)

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


def _symbols(name: str, values, modulus: int) -> np.ndarray:
    """``values`` as a read-only uint32 array: uint32 input as a view of
    itself, any other integer dtype narrowed only after an exact
    [0, modulus) range check; ValueError otherwise."""
    symbols = np.asarray(values)
    if symbols.dtype != np.uint32:
        if not np.issubdtype(symbols.dtype, np.integer):
            raise ValueError(f"{name} must hold integers, got dtype {symbols.dtype}")
        if symbols.size and (symbols.min() < 0 or symbols.max() >= modulus):
            raise ValueError(f"{name} hold a symbol outside [0, {modulus})")
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
    """Per channel of a (uses, K, K) block: whether every system decoding
    will rely on is invertible.  ``rows[u, i]`` lists the channel rows of
    member i's system at use u (see
    :func:`~synergy.combinatorics.system_rows`); each system keeps the
    active antennas' columns."""
    uses = np.arange(len(channels))[:, np.newaxis, np.newaxis]
    systems = channels[uses, rows, :active]  # (uses, members, active, active)
    invertible = is_invertible(systems.reshape(-1, active, active), modulus)
    return invertible.reshape(len(channels), -1).all(axis=1)


def _draw_phase(
    rng: SeededRng,
    config: SystemConfig,
    phase: PhasePlan,
    on_degenerate: str,
    channels: np.ndarray,
    offset: int,
) -> None:
    """Fill ``channels``, the (uses, K, K) slice of the channel log that
    holds one phase, whose first use is ``offset``.

    One forward walk over the channel stream, in windows of at most
    ``_WINDOW`` uses.  A window draws only the matrices it still lacks
    (n consecutive K x K draws equal one (n * K) x K draw), stores them
    in the uint32 slice (every draw is reduced, so that is exact) and
    checks every (use, member) system in one batch.  Every matrix before
    the first degenerate one is kept; the degenerate one is consumed as a
    failed draw of its use (the first of that use's ``_MAX_REDRAWS``
    draws), and the matrices after it move up one use and are checked
    again.  The window then restarts at ``_RETRY_WINDOW`` uses and
    doubles while checks come back clean.  The stream is never rewound
    and nothing is drawn past the phase's last use.
    """
    K, modulus, active, width = config.K, config.modulus, phase.active_antennas, phase.uses_per_group
    group_rows = system_rows(K, phase.order)
    # channels[:done] are accepted, channels[done:drawn] drawn but unchecked
    # at their current use; `failures` counts the failed draws of use `done`.
    done = drawn = failures = 0
    window = _WINDOW
    while done < len(channels):
        end = min(done + window, len(channels))
        if drawn < end:
            block = rng.field_matrix((end - drawn) * K, K, modulus, nonzero=True)
            channels[drawn:end] = block.reshape(-1, K, K)
            drawn = end
        rows = group_rows[np.arange(done, end) // width]
        bad = np.flatnonzero(~_decodable(channels[done:end], rows, active, modulus))
        if bad.size == 0:
            done, failures = end, 0
            window = min(2 * window, _WINDOW)
            continue
        use = done + int(bad[0])
        if on_degenerate == "error":
            group = tuple(group_table(K, phase.order)[0][use // width].tolist())
            raise DegenerateChannelError(
                f"use {offset + use}: singular decoding system for group {group}"
            )
        failures = failures + 1 if use == done else 1
        if failures >= _MAX_REDRAWS:
            raise DegenerateChannelError(
                f"use {offset + use}: still singular after {_MAX_REDRAWS} redraws"
            )
        channels[use : drawn - 1] = channels[use + 1 : drawn]
        done, drawn, window = use, drawn - 1, min(_RETRY_WINDOW, _WINDOW)


def run_delivery(
    plan: DeliveryPlan,
    library: np.ndarray,
    seed: int,
    *,
    on_degenerate: str = "error",
) -> Transcript:
    """Execute the plan over a fresh random channel per use.

    ``library`` supplies the folded-message payloads when the plan
    carries none.  ``on_degenerate`` picks the reaction when a drawn
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
    seed = _as_int(seed, "seed must be an integer")
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
    K, modulus = config.K, config.modulus
    rng = SeededRng(seed).child(CHANNEL_STREAM)
    channels = np.empty((plan.total_uses, K, K), dtype=np.uint32)
    observations = np.zeros((K, plan.total_uses), dtype=np.uint32)
    ledger = _DelayedCsitLedger(observations)
    for index, phase in enumerate(plan.phases):
        first, end = plan.offsets[index], plan.offsets[index + 1]
        sent = _phase_symbols(plan, index, xors, ledger.observations)
        _draw_phase(rng, config, phase, on_degenerate, channels[first:end], first)
        for start in range(first, end, _WINDOW):
            # received[u] = channels[u][:, :active] @ sent[u]
            stop = min(start + _WINDOW, end)
            active_columns = channels[start:stop, :, : phase.active_antennas]
            received = matmul(active_columns, sent[start - first : stop - first, :, np.newaxis], modulus)
            ledger.record(received[:, :, 0].T)
    return Transcript(
        config=config,
        demand=plan.demand,
        plan=replace(plan, xors=None),
        channels=channels,
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

    Raises ValueError, before writing anything, when ``observations`` does
    not have one column per channel use: the header counts the uses from
    ``channels``, so such a file could not be loaded back.
    """
    json_path = Path(json_path)
    sidecar_path = Path(sidecar_path) if sidecar_path is not None else json_path.with_suffix(".bin")
    total = transcript.total_uses
    if total >= 1 << 32:
        raise ValueError("transcript too large for the sidecar header")
    if transcript.observations.shape[1] != total:
        raise ValueError(
            f"observations hold {transcript.observations.shape[1]} columns "
            f"for {total} channel uses"
        )
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
    integers, not floats or booleans), the sidecar's magic, header or
    size does not match, a channel coefficient is zero or a symbol is not
    below the modulus.  The transcript's two arrays are read-only views
    of the sidecar bytes read, reshaped, not copies.
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
    if total != plan.total_uses or total != meta["total_uses"]:
        raise ValueError(f"{sidecar_path}: sidecar use count inconsistent with the plan")
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
    return Transcript(
        config=config,
        demand=plan.demand,
        plan=plan,
        channels=symbols[: total * k * k].reshape(total, k, k),
        observations=symbols[total * k * k :].reshape(k, total),
        seed=meta["seed"],
    )
