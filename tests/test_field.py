import numpy as np
import pytest

from references import matrix_rank
from synergy.field import (
    MODULUS,
    SeededRng,
    SingularMatrixError,
    cauchy_combining_matrix,
    is_invertible,
    is_prime,
    matmul,
    solve,
)


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return flags


def det2(m, modulus):
    """Independent 2x2 determinant oracle."""
    return (int(m[0, 0]) * int(m[1, 1]) - int(m[0, 1]) * int(m[1, 0])) % modulus


def random_invertible(rng, n, modulus=MODULUS):
    a = rng.field_matrix(n, n, modulus)
    while not is_invertible(a, modulus):
        a = rng.field_matrix(n, n, modulus)
    return a


def test_default_modulus_is_the_mersenne_prime():
    assert MODULUS == 2**31 - 1
    assert is_prime(MODULUS)


def test_is_prime_matches_sieve():
    flags = sieve(2000)
    for n in range(2001):
        assert is_prime(n) == flags[n]


def test_matmul_matches_python_ints():
    rng = SeededRng(2)
    a = rng.field_matrix(3, 4, MODULUS)
    b = rng.field_matrix(4, 2, MODULUS)
    expected = [
        [sum(int(a[i, k]) * int(b[k, j]) for k in range(4)) % MODULUS for j in range(2)]
        for i in range(3)
    ]
    assert matmul(a, b).tolist() == expected


def test_solve_identity_returns_rhs():
    rng = SeededRng(3)
    b = rng.field_matrix(5, 1)[:, 0]
    assert np.array_equal(solve(np.eye(5, dtype=np.int64), b), b)


def test_solve_two_by_two_by_hand():
    a = np.array([[1, 1], [1, 2]])
    b = np.array([3, 5])
    assert solve(a, b).tolist() == [1, 2]


def test_solve_roundtrip_six_by_six():
    rng = SeededRng(11)
    a = random_invertible(rng, 6)
    x = rng.field_matrix(6, 1)[:, 0]
    assert np.array_equal(solve(a, matmul(a, x)), x)


def test_solve_random_roundtrips_up_to_32():
    rng = SeededRng(123)
    for _ in range(100):
        n = 1 + rng.uniform_int(32)
        a = random_invertible(rng, n)
        x = rng.field_matrix(n, 3)  # matrix right-hand side too
        assert np.array_equal(solve(a, matmul(a, x)), x)


def test_solve_singular_raises():
    a = np.array([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        solve(a, np.array([1, 1]))


def test_solve_rejects_bad_shapes():
    with pytest.raises(ValueError):
        solve(np.ones((2, 3), dtype=np.int64), np.ones(2, dtype=np.int64))
    with pytest.raises(ValueError):
        solve(np.eye(2, dtype=np.int64), np.ones(3, dtype=np.int64))


def test_rank_zero_and_identity():
    assert matrix_rank(np.zeros((3, 4), dtype=np.int64)) == 0
    assert matrix_rank(np.eye(5, dtype=np.int64)) == 5


def test_rank_duplicated_row_drops():
    rng = SeededRng(5)
    a = rng.field_matrix(4, 4)
    a[3] = a[0]
    assert matrix_rank(a) < 4


def test_rank_rectangular():
    assert matrix_rank(np.array([[1, 2, 3], [2, 4, 6]])) == 1


def test_combining_two_columns_nonzero():
    m = cauchy_combining_matrix(2)
    assert m.shape == (1, 2)
    assert (m != 0).all()


def test_combining_three_columns_minors_by_determinant():
    m = cauchy_combining_matrix(3)
    for drop in range(3):
        assert det2(np.delete(m, drop, axis=1), MODULUS) != 0


def test_combining_eight_columns_all_minors_full_rank():
    m = cauchy_combining_matrix(8)
    for drop in range(8):
        assert matrix_rank(np.delete(m, drop, axis=1)) == 7


@pytest.mark.parametrize("size", range(2, 17))
def test_combining_column_deleted_minors_invertible(size):
    m = cauchy_combining_matrix(size)
    assert m.shape == (size - 1, size)
    for drop in range(size):
        assert is_invertible(np.delete(m, drop, axis=1))


def test_combining_small_field():
    with pytest.raises(ValueError):
        cauchy_combining_matrix(3, 5)  # needs more than 2*3 points
    m = cauchy_combining_matrix(3, 11)
    for drop in range(3):
        assert is_invertible(np.delete(m, drop, axis=1), 11)


@pytest.mark.parametrize("size", [2.5, "3"])
def test_combining_rejects_a_non_integer_size(size):
    # 2.5 used to be truncated to the size-2 matrix
    with pytest.raises(ValueError, match=f"^size must be an integer, got {size!r}$"):
        cauchy_combining_matrix(size)
    assert np.array_equal(cauchy_combining_matrix(np.int64(3)), cauchy_combining_matrix(3))


def test_combining_deterministic_and_readonly():
    assert np.array_equal(cauchy_combining_matrix(5), cauchy_combining_matrix(5))
    with pytest.raises(ValueError):
        cauchy_combining_matrix(5)[0, 0] = 1


def test_rng_known_answer():
    # canonical splitmix64 outputs for seed 0
    rng = SeededRng(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_rng_same_seed_same_stream():
    a, b = SeededRng(42), SeededRng(42)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]
    assert SeededRng(np.int64(42)).next_u64() == SeededRng(42).next_u64()


@pytest.mark.parametrize("seed", [1.5, "7"])
def test_rng_rejects_a_non_integer_seed(seed):
    # used to draw the streams of int(seed): seed 1 for 1.5, seed 7 for "7"
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
        SeededRng(seed)


def test_rng_child_streams_ignore_consumption():
    parent = SeededRng(9)
    before = parent.child(2).seed
    parent.next_u64()
    parent.next_u64()
    assert parent.child(2).seed == before
    assert parent.child(2).seed != parent.child(3).seed


@pytest.mark.parametrize("index", [1.5, "2"])
def test_rng_child_rejects_a_non_integer_index(index):
    # used to raise TypeError from the bit mask (1.5) or the addition ("2")
    with pytest.raises(ValueError, match=f"^child index must be an integer, got {index!r}$"):
        SeededRng(1).child(index)
    assert SeededRng(1).child(np.int64(2)).seed == SeededRng(1).child(2).seed


@pytest.mark.parametrize("bound", [2.5, "10"])
def test_rng_uniform_int_rejects_a_non_integer_bound(bound):
    # 2.5 used to return the float 1.0, "10" to raise TypeError
    with pytest.raises(ValueError, match=f"^bound must be an integer, got {bound!r}$"):
        SeededRng(1).uniform_int(bound)
    draws = [SeededRng(1).uniform_int(b) for b in (np.int64(10), 10)]
    assert draws[0] == draws[1] and type(draws[0]) is int


def test_rng_nonzero_rejection():
    rng = SeededRng(1)
    assert all(rng.field_element(3, nonzero=True) in (1, 2) for _ in range(200))


def test_rng_field_matrix_range():
    m = SeededRng(4).field_matrix(8, 8, 97)
    assert m.shape == (8, 8)
    assert m.min() >= 0 and m.max() < 97


def test_rng_uniform_int_bounds():
    rng = SeededRng(7)
    assert all(0 <= rng.uniform_int(10) < 10 for _ in range(100))
    with pytest.raises(ValueError):
        rng.uniform_int(0)
