"""Cache placement: split every file into equal blocks indexed by user
subsets and fill each user's cache with the blocks whose subset contains
that user.

A library is an (N, file_symbols) int64 array of field symbols.  Each
file splits into one contiguous block per replication-sized user subset,
in canonical subset order, so concatenating the blocks back in that
order reproduces the file exactly.  Blocks and caches are arrays indexed
by subset rank (:func:`~synergy.combinatorics.group_table` order), never
keyed by subset objects.  Block size is
``max(K - replication, 1) * granularity`` symbols: the first delivery
phase spreads a block over K - replication antennas, and the granularity
multiplier keeps every later phase's re-chunking integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .combinatorics import _as_int, group_table
from .field import MODULUS, SeededRng, is_prime

__all__ = [
    "LengthMismatchError",
    "SystemConfig",
    "CacheContents",
    "random_library",
    "subpacketize",
    "fill_caches",
    "save_library",
    "load_library",
]

_HEADER_BYTES = 20  # K, N, M, granularity, modulus as little-endian uint32
_MODULUS_LIMIT = 1 << 31  # keeps products of reduced elements below 2**62, exact in int64


class LengthMismatchError(ValueError):
    """Library shape inconsistent with the subpacketization grid."""


@dataclass(frozen=True)
class SystemConfig:
    """Problem size: K users (one transmit antenna each at the server),
    N library files, M files of cache per user, the per-block symbol
    granularity, and the field modulus.

    ``replication`` = K*M/N must be an integer: the number of users that
    cache each block.  The modulus is a prime above 2K and below 2**31,
    the widest field whose products the int64 kernels hold exactly.
    Every field is stored as a Python int; ValueError names a field that
    is not an integer.
    """

    K: int
    N: int
    M: int
    granularity: int = 1
    modulus: int = MODULUS

    def __post_init__(self) -> None:
        for key in ("K", "N", "M", "granularity", "modulus"):
            value = _as_int(getattr(self, key), f"config field {key} must be an integer")
            object.__setattr__(self, key, value)
        if self.K < 1:
            raise ValueError("need at least one user")
        if self.N < self.K:
            raise ValueError(f"need at least as many files as users (N={self.N} < K={self.K})")
        if not 0 <= self.M <= self.N:
            raise ValueError(f"per-user cache size must lie in [0, {self.N}] files, got {self.M}")
        if (self.K * self.M) % self.N:
            raise ValueError(
                f"K*M/N must be an integer, got {self.K}*{self.M}/{self.N}"
            )
        if self.granularity < 1:
            raise ValueError("granularity must be a positive integer")
        if not 2 * self.K < self.modulus < _MODULUS_LIMIT or not is_prime(self.modulus):
            raise ValueError(
                f"modulus must be a prime exceeding 2K and below 2**31, got {self.modulus}"
            )

    @property
    def replication(self) -> int:
        """Number of users caching each block (K*M/N)."""
        return (self.K * self.M) // self.N

    @property
    def cache_fraction(self) -> Fraction:
        """Fraction of the library each user stores (M/N)."""
        return Fraction(self.M, self.N)

    @property
    def subfiles_per_file(self) -> int:
        return math.comb(self.K, self.replication)

    @property
    def subfile_symbols(self) -> int:
        # With everything cached there is no delivery to split for; keep
        # one granularity-sized block per file so caches stay non-trivial.
        return max(self.K - self.replication, 1) * self.granularity

    @property
    def file_symbols(self) -> int:
        return self.subfiles_per_file * self.subfile_symbols

    @property
    def library_symbols(self) -> int:
        return self.N * self.file_symbols

    def to_json(self) -> dict:
        return {
            "K": self.K,
            "N": self.N,
            "M": self.M,
            "granularity": self.granularity,
            "modulus": self.modulus,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SystemConfig":
        """Inverse of :meth:`to_json`; ValueError names a missing or
        non-integer field."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        fields = ("K", "N", "M", "granularity", "modulus")
        missing = [key for key in fields if key not in data]
        if missing:
            raise ValueError(f"config lacks {', '.join(missing)}")
        for key in fields:
            if type(data[key]) is not int:
                raise ValueError(f"config field {key} must be an integer, got {data[key]!r}")
        return cls(**{key: data[key] for key in fields})


@dataclass(eq=False)
class CacheContents:
    """Blocks stored at one user: ``holders`` are the ascending ranks of
    the replication-sized subsets that contain the user, and ``blocks``
    is the (N, len(holders), subfile_symbols) array whose entry
    [file - 1, i] is that file's block of subset rank ``holders[i]``."""

    user: int
    holders: np.ndarray
    blocks: np.ndarray

    @property
    def symbol_count(self) -> int:
        return self.blocks.size


def random_library(config: SystemConfig, rng: SeededRng) -> np.ndarray:
    """Uniform random field symbols, shape (N, file_symbols), drawn row-major."""
    return rng.field_matrix(config.N, config.file_symbols, config.modulus)


def subpacketize(config: SystemConfig, library: np.ndarray) -> np.ndarray:
    """Split every file into equal contiguous blocks, one per
    replication-sized subset in canonical order: the read-only
    (N, subfiles_per_file, subfile_symbols) view whose entry [file - 1, r]
    is the block of subset rank r.

    Raises LengthMismatchError when the library does not match the
    (N, subfiles_per_file * subfile_symbols) grid.
    """
    library = np.asarray(library, dtype=np.int64)
    expected = (config.N, config.file_symbols)
    if library.shape != expected:
        raise LengthMismatchError(
            f"library shape {library.shape} does not split into "
            f"{config.subfiles_per_file} blocks of {config.subfile_symbols} symbols "
            f"(expected {expected})"
        )
    blocks = library.reshape(config.N, config.subfiles_per_file, config.subfile_symbols)
    blocks.setflags(write=False)
    return blocks


def _holders(config: SystemConfig, user: int) -> np.ndarray:
    """Ranks, ascending, of the replication-sized subsets that contain
    ``user``: the blocks of every file that its cache holds."""
    members = group_table(config.K, config.replication)[0]
    return np.flatnonzero((members == user).any(axis=1))


def fill_caches(config: SystemConfig, subfiles: np.ndarray) -> list[CacheContents]:
    """User k caches exactly the blocks whose subset contains k."""
    caches = []
    for user in range(1, config.K + 1):
        holders = _holders(config, user)
        caches.append(CacheContents(user, holders, subfiles[:, holders]))
    return caches


def save_library(path, config: SystemConfig, library: np.ndarray) -> None:
    """Write the library in the interchange layout: a header of
    K, N, M, granularity, modulus as little-endian uint32, then all files
    concatenated as little-endian uint32 symbols."""
    library = np.asarray(library, dtype=np.int64)
    if library.shape != (config.N, config.file_symbols):
        raise LengthMismatchError(f"library shape {library.shape} does not match the config")
    header_values = (config.K, config.N, config.M, config.granularity, config.modulus)
    if any(value >= 1 << 32 for value in header_values):
        raise ValueError("header field exceeds uint32 range")
    if library.size and (int(library.min()) < 0 or int(library.max()) >= config.modulus):
        raise ValueError(f"library symbols must lie in [0, {config.modulus})")
    with open(path, "wb") as fh:
        fh.write(np.array(header_values, dtype="<u4").tobytes())
        fh.write(library.astype("<u4").tobytes())


def load_library(path) -> tuple[SystemConfig, np.ndarray]:
    """Inverse of :func:`save_library`.

    Raises ValueError (LengthMismatchError for a wrong size), naming the
    file, when it is truncated, its header is not a valid config, its
    payload does not hold the config's symbols or a symbol is not below
    the modulus.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_BYTES:
        raise LengthMismatchError(
            f"{path}: truncated library file ({len(raw)} bytes, header needs {_HEADER_BYTES})"
        )
    k, n, m, granularity, modulus = (int(v) for v in np.frombuffer(raw[:_HEADER_BYTES], dtype="<u4"))
    try:
        config = SystemConfig(K=k, N=n, M=m, granularity=granularity, modulus=modulus)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    expected = _HEADER_BYTES + 4 * config.library_symbols
    if len(raw) != expected:
        raise LengthMismatchError(
            f"{path}: payload holds {len(raw) - _HEADER_BYTES} bytes, expected "
            f"{config.library_symbols} symbols ({expected - _HEADER_BYTES} bytes)"
        )
    symbols = np.frombuffer(raw, dtype="<u4", offset=_HEADER_BYTES).astype(np.int64)
    if symbols.size and int(symbols.max()) >= config.modulus:
        raise ValueError(f"{path}: library symbol not below the field modulus {config.modulus}")
    return config, symbols.reshape(config.N, config.file_symbols)
