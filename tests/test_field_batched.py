"""Differential tests: the batched field kernels against per-matrix calls
and against plain Python-int references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import field_element, gauss_jordan_solve, matrix_rank
from synergy.field import (
    MODULUS,
    SeededRng,
    SingularMatrixError,
    _inverse_batch,
    is_invertible,
    matmul,
    solve,
)


def biased_matrices(rng, count, rows, cols, modulus):
    """Field elements, a third each from {0, 1, 2}, from the three largest
    and uniform over the field."""
    cells = []
    for _ in range(count * rows * cols):
        kind, offset = rng.uniform_int(3), rng.uniform_int(3)
        cells.append((offset, modulus - 1 - offset, field_element(rng, modulus))[kind])
    return np.array(cells, dtype=np.int64).reshape(count, rows, cols)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 12),
    count=st.integers(1, 6),
    rhs_cols=st.integers(1, 3),
    modulus=st.sampled_from([101, MODULUS]),
)
def test_batched_solve_matches_per_matrix_and_reference(seed, n, count, rhs_cols, modulus):
    rng = SeededRng(seed)
    a = biased_matrices(rng, count, n, n, modulus)
    b = biased_matrices(rng, count, n, rhs_cols, modulus)
    references = [gauss_jordan_solve(a[i].tolist(), b[i].tolist(), modulus) for i in range(count)]
    keep = [i for i, ref in enumerate(references) if ref is not None]
    if not keep:
        return
    a, b = a[keep], b[keep]
    expected = np.array([references[i] for i in keep], dtype=np.int64)

    batched = solve(a, b, modulus)
    assert batched.shape == (len(keep), n, rhs_cols)
    assert np.array_equal(batched, expected)
    assert np.array_equal(np.stack([solve(a[i], b[i], modulus) for i in range(len(keep))]), expected)
    # Vector right-hand sides, batched and not.
    assert np.array_equal(solve(a, b[:, :, 0], modulus), expected[:, :, 0])
    assert np.array_equal(solve(a[0], b[0, :, 0], modulus), expected[0, :, 0])


def singular_batch(rng, count, n, modulus):
    """Random n x n matrices, every other one made singular by setting a
    row to a combination of two others (or to zero when n < 3)."""
    a = np.stack([rng.field_matrix(n, n, modulus) for _ in range(count)])
    for i in range(0, count, 2):
        target = rng.uniform_int(n)
        if n >= 3:
            first, second = [r for r in range(n) if r != target][:2]
            c1, c2 = field_element(rng, modulus), field_element(rng, modulus)
            a[i, target] = (c1 * a[i, first] + c2 * a[i, second]) % modulus
        else:
            a[i, target] = 0
    return a


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 8), count=st.integers(1, 12))
def test_batched_is_invertible_matches_rank(seed, n, count):
    rng = SeededRng(seed)
    a = singular_batch(rng, count, n, 7)
    expected = np.array([matrix_rank(m, 7) == n for m in a])
    got = is_invertible(a, 7)
    assert got.dtype == bool and got.shape == (count,)
    assert np.array_equal(got, expected)
    assert [is_invertible(m, 7) for m in a] == expected.tolist()
    assert not expected[0]  # the batch always holds a singular matrix
    with pytest.raises(SingularMatrixError):
        solve(a, np.ones((count, n), dtype=np.int64), 7)


def test_is_invertible_rejects_non_square_batches():
    # A non-square input used to read as singular; it is rejected as solve rejects it.
    for shape in [(3, 2), (3,), (4, 3, 2), (), (2, 2, 2, 2)]:
        with pytest.raises(ValueError, match="^coefficient matrix must be square$"):
            is_invertible(np.ones(shape, dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), count=st.integers(1, 5), m=st.integers(1, 6), k=st.integers(1, 6))
def test_batched_matmul_matches_per_matrix(seed, count, m, k):
    rng = SeededRng(seed)
    a = np.stack([rng.field_matrix(m, k) for _ in range(count)])
    b = np.stack([rng.field_matrix(k, 2) for _ in range(count)])
    expected = np.stack([matmul(a[i], b[i]) for i in range(count)])
    assert np.array_equal(matmul(a, b), expected)
    exact = [
        [[sum(int(x) * int(y) for x, y in zip(row, col)) % MODULUS for col in b[i].T] for row in a[i]]
        for i in range(count)
    ]
    assert matmul(a, b).tolist() == exact


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    rows=st.integers(0, 9),
    cols=st.integers(0, 9),
    modulus=st.sampled_from([2, 3, 13, 101, MODULUS]),
    nonzero=st.booleans(),
)
def test_field_matrix_matches_repeated_field_element(seed, rows, cols, modulus, nonzero):
    batched, serial = SeededRng(seed), SeededRng(seed)
    matrix = batched.field_matrix(rows, cols, modulus, nonzero)
    expected = [field_element(serial, modulus, nonzero) for _ in range(rows * cols)]
    assert matrix.dtype == np.int64 and matrix.shape == (rows, cols)
    assert matrix.reshape(-1).tolist() == expected
    assert batched._state == serial._state


def test_field_matrix_blocks_equal_one_tall_draw():
    # n consecutive K x K draws are the same stream as one (n*K) x K draw.
    tall = SeededRng(5).field_matrix(4 * 3, 3, 2, nonzero=True)
    rng = SeededRng(5)
    blocks = np.concatenate([rng.field_matrix(3, 3, 2, nonzero=True) for _ in range(4)])
    assert np.array_equal(tall, blocks)


@pytest.mark.parametrize("modulus", [101, MODULUS])
def test_large_batch_solve_matches_single_solves(modulus):
    # One batch of 40 systems against one solve per system.
    rng = SeededRng(9)
    a = np.stack([rng.field_matrix(5, 5, modulus, nonzero=True) for _ in range(40)])
    keep = is_invertible(a, modulus)
    a = a[keep]
    b = np.stack([rng.field_matrix(5, 1, modulus)[:, 0] for _ in range(len(a))])
    x = solve(a, b, modulus)
    assert len(a) > 30
    assert np.array_equal(x, np.stack([solve(a[i], b[i], modulus) for i in range(len(a))]))
    assert np.array_equal(matmul(a, x[:, :, np.newaxis], modulus)[:, :, 0], b)


PRIMES = [2, 3, 13, 101, MODULUS]


def near_modulus(rng, shape, modulus):
    """Nonzero field elements, half from the three largest, half uniform."""
    cells = [
        max(1, modulus - 1 - rng.uniform_int(3))
        if rng.uniform_int(2)
        else field_element(rng, modulus, True)
        for _ in range(int(np.prod(shape)))
    ]
    return np.array(cells, dtype=np.int64).reshape(shape)


def rotated_triangular(rng, count, n, modulus, singular):
    """Rows U_1, ..., U_{n-1}, U_0 of upper-triangular matrices U with a
    nonzero diagonal (one diagonal entry zeroed where ``singular``): only
    U_k has a nonzero in column k of its trailing block, and it is always
    the bottom row, so elimination swaps rows at every column but the
    last."""
    u = np.triu(near_modulus(rng, (count, n, n), modulus))
    for i in np.flatnonzero(singular):
        k = rng.uniform_int(n)
        u[i, k, k] = 0
    return np.roll(u, -1, axis=1)


def trailing_singular(rng, count, n, modulus, singular):
    """L @ U with L unit lower-triangular: every leading minor below the
    last is invertible, so no row swap happens; where ``singular``, U's
    last diagonal entry is zero, so only the last pivot vanishes."""
    lower = np.tril(near_modulus(rng, (count, n, n), modulus), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(near_modulus(rng, (count, n, n), modulus))
    upper[singular, n - 1, n - 1] = 0
    return matmul(lower, upper, modulus)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 9),
    count=st.integers(1, 8),
    modulus=st.sampled_from(PRIMES),
    shape=st.sampled_from([rotated_triangular, trailing_singular]),
)
def test_is_invertible_on_swap_heavy_and_trailing_singular_batches(seed, n, count, modulus, shape):
    rng = SeededRng(seed)
    singular = np.array([rng.uniform_int(2) == 1 for _ in range(count)])
    a = shape(rng, count, n, modulus, singular)
    expected = np.array([matrix_rank(m, modulus) == n for m in a])
    assert np.array_equal(expected, ~singular)  # the construction does what it says
    got = is_invertible(a, modulus)
    assert np.array_equal(got, expected)
    assert [is_invertible(m, modulus) for m in a] == expected.tolist()
    # Unreduced input is reduced first, and reduced input is left as it was.
    shifted = a + modulus * (np.arange(count) % 3 - 1)[:, None, None]
    assert np.array_equal(is_invertible(shifted, modulus), expected)
    before = a.copy()
    is_invertible(a, modulus)
    assert np.array_equal(a, before)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 9),
    count=st.integers(1, 6),
    rhs_cols=st.integers(1, 3),
    modulus=st.sampled_from(PRIMES),
    shape=st.sampled_from([rotated_triangular, trailing_singular]),
)
def test_solve_on_swap_heavy_batches_matches_reference(seed, n, count, rhs_cols, modulus, shape):
    rng = SeededRng(seed)
    a = shape(rng, count, n, modulus, np.zeros(count, dtype=bool))
    b = near_modulus(rng, (count, n, rhs_cols), modulus)
    expected = np.array([gauss_jordan_solve(a[i].tolist(), b[i].tolist(), modulus) for i in range(count)])
    assert np.array_equal(solve(a, b, modulus), expected)
    assert np.array_equal(solve(a[0], b[0, :, 0], modulus), expected[0, :, 0])
    singular = a.copy()
    singular[-1] = shape(rng, 1, n, modulus, np.ones(1, dtype=bool))[0]
    with pytest.raises(SingularMatrixError, match=f"system {count - 1}$"):
        solve(singular, b, modulus)


@pytest.mark.parametrize("modulus", [13, 101, MODULUS])
@pytest.mark.parametrize("size", [0, 1, 2, 3, 5, 8, 63, 64, 65, 1000])
def test_batched_inverses_match_pow(modulus, size):
    # sizes around powers of two exercise the product tree's padding
    values = np.random.default_rng(size).integers(1, modulus, size=size)
    expected = [pow(int(v), -1, modulus) for v in values]
    assert _inverse_batch(values, modulus).tolist() == expected
    assert _inverse_batch(values.reshape(-1, 1), modulus).tolist() == [[v] for v in expected]
