"""Pure-Python references the tests compare the package against.

Canonical subsets come from ``itertools.combinations`` and their rank
from the combinatorial number system, one element at a time; row rank
over a prime field is an unbatched Gaussian elimination, and solutions
and products over the field are computed on Python ints, one system at a
time; a field element is drawn from the raw splitmix64 outputs, one
draw at a time.  None of them reads the package's own tables or kernels.
"""

import itertools
import math

import numpy as np

from synergy.field import MODULUS


def subsets(universe, size):
    """Every size-``size`` subset of {1, ..., universe} as a sorted
    tuple, in canonical (lexicographic) order."""
    return list(itertools.combinations(range(1, universe + 1), size))


def rank(elements, universe):
    """Lexicographic index of a sorted subset among all subsets of its
    size: for each element, count the subsets that take a smaller
    element at that position."""
    index = 0
    size = len(elements)
    previous = 0
    for i, element in enumerate(elements):
        for skipped in range(previous + 1, element):
            index += math.comb(universe - skipped, size - i - 1)
        previous = element
    return index


def without(elements, member):
    """The subset with one member removed."""
    if member not in elements:
        raise ValueError(f"{member} is not a member of {elements}")
    return tuple(e for e in elements if e != member)


def complement(elements, universe):
    """Ground-set members not in the subset, ascending."""
    return tuple(e for e in range(1, universe + 1) if e not in elements)


def matrix_rank(a, modulus=MODULUS):
    """Row rank by elimination over the field."""
    a = np.array(a, dtype=np.int64) % modulus
    if a.ndim != 2:
        raise ValueError("rank needs a matrix")
    rows, cols = a.shape
    result = 0
    for col in range(cols):
        if result == rows:
            break
        pivots = np.nonzero(a[result:, col])[0]
        if pivots.size == 0:
            continue
        pivot = result + int(pivots[0])
        if pivot != result:
            a[[result, pivot]] = a[[pivot, result]]
        inv = pow(int(a[result, col]), -1, modulus)
        a[result] = a[result] * inv % modulus
        below = a[result + 1 :, col].copy()
        a[result + 1 :] = (a[result + 1 :] - np.outer(below, a[result])) % modulus
        result += 1
    return result


def gauss_jordan_solve(a, b, modulus):
    """Solution of ``a @ x = b`` over the field by Gauss-Jordan on Python
    ints, as a list of rows of ``x``; None when ``a`` is singular."""
    n = len(a)
    rows = [[int(x) % modulus for x in row] + [int(x) % modulus for x in rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, modulus)
        rows[col] = [x * inv % modulus for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % modulus for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def matrix_product(a, b, modulus):
    """``a @ b`` over the field on Python ints, as a list of rows."""
    columns = list(zip(*b))
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % modulus for col in columns] for row in a]


def field_element(rng, modulus=MODULUS, nonzero=False):
    """One draw below ``modulus`` from ``rng``'s next outputs: the next
    output reduced, with ``nonzero`` the first one that does not reduce
    to zero.  ``SeededRng.field_matrix`` must equal one such draw per
    entry, row-major, stream state included."""
    value = rng.next_u64() % modulus
    while nonzero and value == 0:
        value = rng.next_u64() % modulus
    return value
