"""Exact combinatorial primitives: harmonic numbers and integer tables
of the canonical subsets of {1, ..., universe}.

Schedule durations, bounds and gap ratios throughout the package are
exact `fractions.Fraction` values built on these helpers.  Floats appear
only in `epsilon`, the logarithmic-approximation error of the harmonic
number, which feeds approximate metrics and never exact accounting.
"""

from __future__ import annotations

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
    """Render as "num/den", keeping the denominator even when it is 1.
    ValueError naming the value for anything ``Fraction`` cannot read
    exactly: None, NaN, an infinity or a malformed string."""
    if not isinstance(value, Fraction):
        try:
            value = Fraction(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"value must be a finite rational, got {value!r}") from None
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
        try:
            elems = tuple(map(operator.index, self.elements))
        except TypeError:
            elems = tuple(_as_int(e, "subset elements must be integers") for e in self.elements)
        object.__setattr__(self, "elements", elems)
        # Strictly increasing elements lie in range when their two ends do.
        if any(map(operator.ge, elems, elems[1:])) or (
            elems and not (1 <= elems[0] and elems[-1] <= self.universe)
        ):
            if any(not 1 <= e <= self.universe for e in elems):
                raise ValueError(f"elements {elems} out of range for universe {self.universe}")
            raise ValueError(f"elements must be strictly increasing: {elems}")


@lru_cache(maxsize=None)
def group_table(universe: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer tables of all size-``size`` subsets, row r being the
    subset of rank r (``itertools.combinations`` order):

    - ``members`` (C(universe, size), size): the elements, ascending;
    - ``complement`` (C(universe, size), universe - size): the rest;
    - ``without_rank`` (C(universe, size), size): entry [r, i] is the rank
      of subset r with its i-th member removed, among the size - 1 subsets.

    All three are int64 and read-only.  The rank of c_1 < ... < c_k among
    the k-subsets of {1, ..., n} is C(n, k) - 1 - sum_i C(n - c_i, k - i + 1)
    (i 1-based), so row r is unranked from the combinatorial number
    system digits n - c_i of C(n, k) - 1 - r, one ``searchsorted`` per
    position on a binomial column (Knuth, TAOCP 4A, 7.2.1.3).  Only the
    smaller of the members and the complements is unranked; a mask of
    each row yields the other.  Removing c_i keeps the terms before it
    with one lower column and moves those after it one position up, so
    ``without_rank`` is a prefix sum of C(n - c_j, k - j) plus a suffix
    sum of C(n - c_j, k - j + 1): O(k) per row.  The binomial table holds
    only the columns up to k, each entry capped at 2**63 - 1, which no
    rank reaches, so no entry read overflows: ``group_table(70, 2)`` and
    ``group_table(70, 68)`` both build.
    """
    if not 0 <= size <= universe:
        raise ValueError(f"subset size {size} out of range for universe {universe}")
    count = math.comb(universe, size)
    # binomial[n, k] = C(n, k), capped (from n = 67 on) at 2**63 - 1.
    binomial = [[math.comb(n, k) for n in range(universe + 1)] for k in range(size + 1)]
    binomial = np.minimum(binomial, (1 << 63) - 1).astype(np.int64).T
    # The complement of the subset of rank r has rank count - 1 - r among
    # the (universe - size)-subsets, so only the smaller side is unranked,
    # the members or, in reverse rank order, the complements.  Its
    # digits[i] = universe - e_i is the largest d with C(d, j - i) at most
    # what rank is left (j its size, i 0-based).  C(0, j - i) = 0 always
    # qualifies, so a search past entry 0 returns d itself.
    small = min(size, universe - size)
    digits = np.empty((small, count), dtype=np.int64)
    rest = np.arange(count - 1, -1, -1) if small == size else np.arange(count)
    for i in range(small):
        column = binomial[:universe, small - i]
        digits[i] = np.searchsorted(column[1:], rest, side="right")
        rest -= column[digits[i]]
    drawn = np.ascontiguousarray((universe - digits).T)
    starts = universe * np.arange(count)[:, np.newaxis] - 1  # element e of row r sits at starts[r] + e
    outside = np.ones(count * universe, dtype=bool)
    outside[(drawn + starts).reshape(-1)] = False
    other = np.flatnonzero(outside).reshape(count, universe - small) - starts
    members, complement = (drawn, other) if small == size else (other, drawn)
    # Subset r's rank terms high_i = C(universe - c_i, size - i) sum to
    # count - 1 - r, so dropping c_i leaves C(universe, size - 1) - count
    # + r + sum_{j <= i} (high_j - low_j) + low_i, low_i = C(universe - c_i,
    # size - i - 1).
    high, low = (binomial[universe - members, size - shift - np.arange(size)] for shift in (0, 1))
    base = np.arange(count) + (binomial[universe, size - 1] - count)
    without_rank = np.cumsum(high - low, axis=1) + low + base[:, np.newaxis]
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
