"""Property tests of the batch-last field kernels against the Python-int
references: batches of 0 to 300 systems of 1 to 9 rows over five prime
fields, with zero top-left blocks that force a row swap at each of the
first steps and singular members mixed into every batch."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from references import gauss_jordan_solve, matrix_product, matrix_rank
from synergy.field import MODULUS, SingularMatrixError, _reduce, is_invertible, matmul, solve

PRIMES = [2, 3, 13, 101, MODULUS]


def swap_heavy_batch(seed, count, n, modulus):
    """``count`` random n x n matrices over the field.  About a third get
    a zero top-left r x c block (r, c >= 1): while the elimination is
    inside it the top row's pivot is zero, so a row swap runs at each of
    the first min(r, c) steps, and the block makes the matrix singular
    when r + c > n.  About a sixth get a row that is a combination of
    the others (a zero row when n is 1)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, modulus, size=(count, n, n), dtype=np.int64)
    kind = rng.integers(0, 6, size=count)
    for i in np.flatnonzero(kind < 2):
        r, c = rng.integers(1, n + 1, size=2)
        a[i, :r, :c] = 0
    for i in np.flatnonzero(kind == 2):
        weights = rng.integers(0, modulus, size=n)
        target = rng.integers(n)
        weights[target] = 0
        a[i, target] = weights @ a[i] % modulus
    return a


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 9),
    count=st.integers(0, 300),
    rhs_cols=st.integers(1, 3),
    modulus=st.sampled_from(PRIMES),
)
@example(seed=1, n=9, count=300, rhs_cols=3, modulus=MODULUS)
@example(seed=2, n=9, count=300, rhs_cols=1, modulus=2)
@example(seed=3, n=7, count=300, rhs_cols=2, modulus=3)
@example(seed=4, n=4, count=0, rhs_cols=1, modulus=13)
def test_kernels_match_the_python_references(seed, n, count, rhs_cols, modulus):
    a = swap_heavy_batch(seed, count, n, modulus)
    rng = np.random.default_rng(seed + 1)
    b = rng.integers(0, modulus, size=(count, n, rhs_cols), dtype=np.int64)

    expected = np.array([matrix_rank(m, modulus) == n for m in a], dtype=bool)
    got = is_invertible(a, modulus)
    assert got.dtype == bool and got.shape == (count,)
    assert np.array_equal(got, expected)

    solutions = [gauss_jordan_solve(a[i].tolist(), b[i].tolist(), modulus) for i in range(count)]
    assert [x is not None for x in solutions] == expected.tolist()
    if not expected.all():
        first = int(np.argmin(expected))
        with pytest.raises(SingularMatrixError, match=f"system {first}$"):
            solve(a, b, modulus)
    keep = np.flatnonzero(expected)
    x = solve(a[keep], b[keep], modulus)
    assert x.shape == (len(keep), n, rhs_cols)
    assert x.tolist() == [solutions[i] for i in keep]
    assert solve(a[keep], b[keep, :, 0], modulus).tolist() == [[row[0] for row in solutions[i]] for i in keep]

    product = matmul(a, b, modulus)
    assert product.shape == (count, n, rhs_cols)
    assert product.tolist() == [matrix_product(a[i], b[i], modulus) for i in range(count)]
    # The product of a solution is its right-hand side.
    assert np.array_equal(matmul(a[keep], x, modulus), b[keep])


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40),
    modulus=st.sampled_from(PRIMES),
)
def test_reduction_equals_remainder_on_every_int64(values, modulus):
    array = np.array(values, dtype=np.int64)
    assert _reduce(array.copy(), modulus).tolist() == [v % modulus for v in values]


@pytest.mark.parametrize("modulus", PRIMES)
def test_reduction_at_the_int64_extremes_and_products_of_reduced_elements(modulus):
    top = (modulus - 1) ** 2
    values = [
        -(2**63), -(2**63) + 1, 2**63 - 1, -(2**62), 2**62, 2**62 - 1, -(2**62) + 1,
        -1, 0, 1, modulus - 1, modulus, -modulus, top, -top, top - (modulus - 1), 2 * top, -2 * top + 1,
    ]
    array = np.array(values, dtype=np.int64)
    scratch = np.empty_like(array)
    assert _reduce(array, modulus, scratch).tolist() == [v % modulus for v in values]
