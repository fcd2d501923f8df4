"""Exact combinatorial primitives: harmonic numbers and integer tables
of the canonical subsets of {1, ..., universe}.

Schedule durations, bounds and gap ratios throughout the package are
exact `fractions.Fraction` values built on these helpers.  Floats appear
only in `epsilon`, the logarithmic-approximation error of the harmonic
number, which feeds approximate metrics and never exact accounting.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "harmonic",
    "epsilon",
    "format_rational",
]

# Exact harmonic values stay cheap up to ~1e4 terms; past that epsilon()
# falls back to a correctly rounded float sum (fsum), good to a few ulp.
_EXACT_EPSILON_LIMIT = 10_000


def _harmonic_span(lo: int, hi: int) -> tuple[int, int]:
    # Unreduced numerator/denominator of sum_{i=lo}^{hi} 1/i, by halving.
    if lo == hi:
        return 1, lo
    mid = (lo + hi) // 2
    n1, d1 = _harmonic_span(lo, mid)
    n2, d2 = _harmonic_span(mid + 1, hi)
    return n1 * d2 + n2 * d1, d1 * d2


def _as_int(value, what: str) -> int:
    """``value`` as a Python int (``operator.index``, so numpy integers
    pass); ValueError "<what>, got <value>" for a float, a string or any
    other non-integer, which would otherwise be truncated or fail later
    with an undefined error."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what}, got {value!r}") from None


# typed, so a float equal to a cached int is checked rather than served
@lru_cache(maxsize=None, typed=True)
def harmonic(n: int) -> Fraction:
    """n-th harmonic number 1 + 1/2 + ... + 1/n, exact; harmonic(0) == 0."""
    n = _as_int(n, "harmonic is defined for integer n")
    if n < 0:
        raise ValueError("harmonic is defined for non-negative n")
    if n == 0:
        return Fraction(0)
    return Fraction(*_harmonic_span(1, n))


@lru_cache(maxsize=256, typed=True)
def epsilon(n: int) -> float:
    """harmonic(n) - ln(n) as a double, memoized on n.

    Non-increasing in n: starts at 1.0 and approaches ~0.5772.  Exact
    harmonic numbers are used while they stay small; bigger n switches to
    math.fsum, which keeps the result within a few ulp of exact.
    """
    n = _as_int(n, "epsilon is defined for integer n")
    if n < 1:
        raise ValueError("epsilon is defined for n >= 1")
    if n <= _EXACT_EPSILON_LIMIT:
        return float(harmonic(n)) - math.log(n)
    return math.fsum(1.0 / i for i in range(1, n + 1)) - math.log(n)


def format_rational(value: Fraction) -> str:
    """Render as "num/den", keeping the denominator even when it is 1."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Subset:
    """Sorted subset of the ground set {1, ..., universe}; not exported.

    Computation never reads it; the integer tables of :func:`group_table`
    and :func:`system_rows` hold every subset of a size by rank.  It is
    still built once per delivered group (see
    :class:`~synergy.simulator.Transcript`), only because the benchmark
    counts its constructions.
    """

    elements: tuple[int, ...]
    universe: int

    def __post_init__(self) -> None:
        elems = tuple(int(e) for e in self.elements)
        object.__setattr__(self, "elements", elems)
        if any(not 1 <= e <= self.universe for e in elems):
            raise ValueError(f"elements {elems} out of range for universe {self.universe}")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError(f"elements must be strictly increasing: {elems}")


def _lex_ranks(combos: np.ndarray, universe: int) -> np.ndarray:
    """Lexicographic index, among all subsets of their size, of every row
    of an (..., size) array of ascending elements: C(n, k) - 1 minus the
    sum over positions i (1-based) of C(n - c_i, k - i + 1)."""
    size = combos.shape[-1]
    table = np.array(
        [[math.comb(n, k) for k in range(size + 2)] for n in range(universe + 1)], dtype=np.int64
    )
    tail = table[universe - combos, np.arange(size, 0, -1)].sum(axis=-1)
    return table[universe, size] - 1 - tail


@lru_cache(maxsize=None)
def group_table(universe: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer tables of all size-``size`` subsets, row r being the
    subset of rank r (``itertools.combinations`` order):

    - ``members`` (C(universe, size), size): the elements, ascending;
    - ``complement`` (C(universe, size), universe - size): the rest;
    - ``without_rank`` (C(universe, size), size): entry [r, i] is the rank
      of subset r with its i-th member removed, among the size - 1 subsets.

    All three are int64 and read-only.
    """
    if not 0 <= size <= universe:
        raise ValueError(f"subset size {size} out of range for universe {universe}")
    ground = range(1, universe + 1)
    count = math.comb(universe, size)
    members = np.array(list(itertools.combinations(ground, size)), dtype=np.int64)
    members = members.reshape(count, size)
    inside = np.zeros((count, universe + 1), dtype=bool)
    inside[np.arange(count)[:, np.newaxis], members] = True
    complement = np.nonzero(~inside[:, 1:])[1].reshape(count, universe - size) + 1
    keep = np.array([[i for i in range(size) if i != drop] for drop in range(size)], dtype=np.int64)
    without_rank = _lex_ranks(members[:, keep.reshape(size, max(size - 1, 0))], universe)
    for table in (members, complement, without_rank):
        table.setflags(write=False)
    return members, complement, without_rank


@lru_cache(maxsize=None)
def system_rows(universe: int, size: int) -> np.ndarray:
    """Channel rows of every member's decoding system, per group:
    a read-only int64 (C(universe, size), size, universe - size + 1)
    array whose entry [r, i] lists, 0-based, the i-th member's own row of
    the group of rank r and then every non-member's row, ascending.

    Delivery checks exactly these systems for invertibility and decoding
    solves them, so both read this one table.
    """
    members, complement, _ = group_table(universe, size)
    others = np.broadcast_to(complement[:, np.newaxis], (*members.shape, universe - size))
    rows = np.concatenate([members[:, :, np.newaxis], others], axis=2) - 1
    rows.setflags(write=False)
    return rows
