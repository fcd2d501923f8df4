"""Prime-field arithmetic on int64 numpy arrays, plus the deterministic
generator behind every random draw in the package.

Field elements are plain ints in ``[0, modulus)``.  Moduli must stay
below ``2**31`` (the default ``2**31 - 1`` is the largest prime there):
then one product of reduced elements, and the difference of two such
products, fits in int64, so products are reduced eagerly and the short
sums that follow cannot overflow at the matrix sizes used here.
:class:`~synergy.placement.SystemConfig` enforces the bound.

``solve``, ``is_invertible`` and ``matmul`` also take a leading batch
axis, so a block of small systems costs one pass of numpy operations
instead of one Python loop per system.  ``solve`` and ``is_invertible``
share one fraction-free forward elimination that forms only the
trailing block at each step (about n**3 / 3 multiply-reduce steps per
n x n system): ``is_invertible`` runs it alone, ``solve`` runs it on
``[a | b]`` and back-substitutes with one inversion per system.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .combinatorics import _as_int

__all__ = [
    "MODULUS",
    "SingularMatrixError",
    "SeededRng",
    "is_prime",
    "matmul",
    "solve",
    "is_invertible",
    "cauchy_combining_matrix",
]

MODULUS = (1 << 31) - 1

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class SingularMatrixError(Exception):
    """Square system has no unique solution over the field."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for anything below 3.3e24.
    ValueError for an ``n`` that is not an integer."""
    n = _as_int(n, "n must be an integer")
    if n < 2:
        return False
    for base in _MR_BASES:
        if n % base == 0:
            return n == base
    d, twos = n - 1, 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integers(name: str, values) -> np.ndarray:
    """``values`` as an array of an integer dtype; ValueError naming the
    argument for float, bool, object, string or any other dtype, which
    would otherwise be truncated or cast into a wrong answer."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
    return values


def matmul(a: np.ndarray, b: np.ndarray, modulus: int = MODULUS) -> np.ndarray:
    """Matrix (or matrix-vector) product over the field.

    ``a`` may carry leading batch axes, ``(..., m, k)``, with ``b`` of
    shape ``(..., k, n)`` broadcast against them; a one-dimensional ``b``
    is a single vector.  Each scalar product is reduced before summation,
    so the inner dimension may grow to ~2**32 terms without overflowing
    int64.  Both operands must have an integer dtype (ValueError).
    """
    a = _integers("a", a).astype(np.int64, copy=False)
    b = _integers("b", b).astype(np.int64, copy=False)
    single = b.ndim == 1
    rhs = b[:, np.newaxis] if single else b
    products = a[..., :, :, np.newaxis] * rhs[..., np.newaxis, :, :]
    products %= modulus
    out = products.sum(axis=-2)
    out %= modulus
    return out[..., 0] if single else out


def _eliminate(block: np.ndarray, modulus: int, keep_rows: bool) -> tuple[np.ndarray, list]:
    """Fraction-free forward elimination over a batch of systems.

    ``block`` is a reduced int64 array of shape (B, n, c) with c >= n: the
    square coefficients first, then any right-hand-side columns.  It is
    read, never written.  Each step takes the first nonzero entry of the
    leading column as the pivot (swapping it with the top row) and turns
    every other row r into ``pivot * r - r[0] * pivot_row``, which scales
    r by a nonzero field element and so keeps each system's solution.
    Only the trailing block is formed: the next step works on a new array
    one row and one column smaller, about n**3 / 3 multiply-reduce steps
    per square system in all.  Products of two reduced elements stay
    below 2**62, so nothing overflows for moduli below 2**31.

    Returns the (B,) mask of invertible systems and, with ``keep_rows``,
    the pivot rows: entry k has shape (B, c - k), its first column the
    k-th diagonal element of the triangular factor.  Rows of a singular
    system hold garbage.
    """
    ok = np.ones(block.shape[0], dtype=bool)
    pivot_rows = []
    for step in range(block.shape[1]):
        top = block[:, 0]
        pivot_row, swapped = top, None
        if not top[:, 0].all():
            nonzero = block[:, :, 0] != 0
            ok &= nonzero.any(axis=1)
            index = nonzero.argmax(axis=1)
            swapped = np.flatnonzero(index)
            pivot_row = top.copy()
            pivot_row[swapped] = block[swapped, index[swapped]]
        pivot = pivot_row[:, :1, np.newaxis]
        rest = block[:, 1:]
        trailing = rest[:, :, 1:] * pivot
        trailing -= rest[:, :, :1] * pivot_row[:, np.newaxis, 1:]
        trailing %= modulus
        if swapped is not None and swapped.size:
            # The pivot's old slot in the trailing block takes the old top row.
            old, new = top[swapped], pivot_row[swapped]
            trailing[swapped, index[swapped] - 1] = (
                old[:, 1:] * new[:, :1] - old[:, :1] * new[:, 1:]
            ) % modulus
        if keep_rows:
            # Past the input block a copy, so each step's block is freed
            # once the next one is formed.
            pivot_rows.append(pivot_row.copy() if step and pivot_row is top else pivot_row)
        block = trailing
    return ok, pivot_rows


def _inverse_batch(values: np.ndarray, modulus: int) -> np.ndarray:
    """Elementwise inverses of nonzero reduced elements, exactly.

    Montgomery's trick on a product tree: pad to a power of two with
    ones, multiply pairs, pairs of pairs and so on up to one root, which
    a single ``pow`` inverts; walking back down, a node's inverse times
    its sibling is its own inverse.  That is about four multiply-reduce
    steps per element in 2 * log2(size) array passes.
    """
    flat = values.reshape(-1)
    level = np.ones(1 << max(flat.size - 1, 0).bit_length(), dtype=np.int64)
    level[: flat.size] = flat
    levels = []
    while level.size > 1:
        levels.append(level)
        level = level[0::2] * level[1::2] % modulus
    inverse = np.array([pow(int(level[0]), -1, modulus)], dtype=np.int64)
    for level in reversed(levels):
        children = np.empty_like(level)
        children[0::2] = inverse * level[1::2] % modulus
        children[1::2] = inverse * level[0::2] % modulus
        inverse = children
    return inverse[: flat.size].reshape(values.shape)


def solve(a: np.ndarray, b: np.ndarray, modulus: int = MODULUS) -> np.ndarray:
    """Solve ``a @ x = b`` over the field; ``b`` may be a vector or a
    matrix of stacked right-hand-side columns.

    ``a`` may also be a batch ``(B, n, n)`` with ``b`` of shape ``(B, n)``
    or ``(B, n, m)``: every system is solved in one pass.  Forward
    elimination of ``[a | b]`` with the first nonzero pivot (exact
    arithmetic needs no magnitude pivoting), then back-substitution.  Each
    system inverts only the product of its diagonal; the back-substitution
    recovers every pivot's inverse from prefix products of the diagonal
    (Montgomery's trick).  Raises SingularMatrixError when any ``a`` is
    not invertible, and ValueError when ``a`` or ``b`` does not have an
    integer dtype.
    """
    a = _integers("a", a)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("coefficient matrix must be square")
    batched = a.ndim == 3
    b = _integers("b", b).astype(np.int64, copy=False)
    single = b.ndim == a.ndim - 1
    rhs = b[..., np.newaxis] if single else b
    if rhs.ndim != a.ndim or rhs.shape[:-1] != a.shape[:-1]:
        raise ValueError("right-hand side does not match the matrix")
    if not batched:
        a, rhs = a[np.newaxis], rhs[np.newaxis]
    # [a | rhs] widened to int64 in one array, without an int64 copy of a.
    n = a.shape[-1]
    augmented = np.empty((*a.shape[:-1], n + rhs.shape[-1]), dtype=np.int64)
    augmented[..., :n] = a
    augmented[..., n:] = rhs
    augmented %= modulus
    ok, pivot_rows = _eliminate(augmented, modulus, keep_rows=True)
    if not ok.all():
        raise SingularMatrixError(f"rank deficiency in system {int(np.argmin(ok))}")
    # Row k of the triangular factor is [d_k, u_k(k+1), ..., u_k(n-1), rhs_k].
    # prefix[k] = d_0 * ... * d_k; one inversion of prefix[n - 1] per
    # system, then 1/d_k = prefix[k - 1] / prefix[k] walking k down.
    prefix = [pivot_rows[0][:, 0]]
    for row in pivot_rows[1:]:
        prefix.append(prefix[-1] * row[:, 0] % modulus)
    running = _inverse_batch(prefix[-1], modulus)  # 1 / prefix[k] at step k
    x = np.empty(rhs.shape, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        row = pivot_rows[k]
        if k:
            inverse_k = running * prefix[k - 1] % modulus
            running = running * row[:, 0] % modulus
        else:
            inverse_k = running
        known = (row[:, 1 : n - k, np.newaxis] * x[:, k + 1 :]) % modulus
        value = (row[:, n - k :] - known.sum(axis=1)) % modulus
        x[:, k] = value * inverse_k[:, np.newaxis] % modulus
    if not batched:
        x = x[0]
    return x[..., 0] if single else x


def is_invertible(a: np.ndarray, modulus: int = MODULUS) -> bool | np.ndarray:
    """Whether a square matrix is invertible over the field; for a batch
    ``(B, n, n)``, a boolean array with one entry per matrix.

    Runs the forward elimination alone.  Reduced int64 input is read in
    place, without a copy.  ValueError when ``a`` does not have an
    integer dtype.
    """
    a = _integers("a", a)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        return np.zeros(a.shape[0], dtype=bool) if a.ndim == 3 else False
    batch = np.asarray(a, dtype=np.int64).reshape(-1, *a.shape[-2:])
    if batch.size and (batch.min() < 0 or batch.max() >= modulus):
        batch = batch % modulus
    ok, _ = _eliminate(batch, modulus, keep_rows=False)
    return ok if a.ndim == 3 else bool(ok[0])


@lru_cache(maxsize=None)
def _cauchy(size: int, modulus: int) -> np.ndarray:
    if size < 2:
        raise ValueError("combining matrices need at least two columns")
    if modulus <= 2 * size:
        raise ValueError(f"modulus {modulus} too small for {2 * size - 1} distinct points")
    row_points = range(size - 1)
    col_points = range(size - 1, 2 * size - 1)
    matrix = np.array(
        [[pow(x - y, -1, modulus) for y in col_points] for x in row_points],
        dtype=np.int64,
    )
    matrix.setflags(write=False)
    return matrix


def cauchy_combining_matrix(size: int, modulus: int = MODULUS) -> np.ndarray:
    """(size-1) x size matrix whose every column-deleted square minor is
    invertible.

    Entries are 1/(x_i - y_j) over 2*size-1 distinct field points, so
    each minor is itself a Cauchy matrix and hence nonsingular.  The
    result is deterministic in (size, modulus) and read-only.
    """
    size = _as_int(size, "size must be an integer")
    return _cauchy(size, _as_int(modulus, "modulus must be an integer"))


def _check_nonzero(modulus: int, nonzero: bool) -> None:
    """ValueError when ``nonzero`` draws are asked for below a modulus of
    2, where every draw reduces to 0 and rejection would never end."""
    if nonzero and modulus < 2:
        raise ValueError(f"nonzero draws need a modulus of at least 2, got {modulus!r}")


class SeededRng:
    """Deterministic 64-bit stream (splitmix64); identical seeds yield
    identical streams on any platform.

    The state advances by the golden-ratio increment 0x9E3779B97F4A7C15
    and each output applies the splitmix64 finalizer to the new state.
    Draws below a bound reduce one 64-bit output modulo the bound (bias
    below 2**-33 for the moduli used here); nonzero draws reject zeros.
    Child stream i is seeded with mix64(seed XOR mix64(i + 1)) from the
    *original* seed, so children do not depend on how much of the parent
    stream was consumed.
    """

    def __init__(self, seed: int):
        self.seed = _as_int(seed, "seed must be an integer") & _MASK64
        self._state = self.seed

    @staticmethod
    def _mix(z: int) -> int:
        z = (z ^ (z >> 30)) * _MIX1 & _MASK64
        z = (z ^ (z >> 27)) * _MIX2 & _MASK64
        return z ^ (z >> 31)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return self._mix(self._state)

    def uniform_int(self, bound: int) -> int:
        """Uniform draw from [0, bound)."""
        bound = _as_int(bound, "bound must be an integer")
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def field_element(self, modulus: int = MODULUS, nonzero: bool = False) -> int:
        """One draw below ``modulus``; with ``nonzero``, zeros are
        rejected, and a modulus below 2 raises ValueError."""
        _check_nonzero(modulus, nonzero)
        value = self.next_u64() % modulus
        while nonzero and value == 0:
            value = self.next_u64() % modulus
        return value

    def _outputs(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array, in one vector
        pass: the state after m outputs is seed-state + m * increment."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def field_matrix(
        self, rows: int, cols: int, modulus: int = MODULUS, nonzero: bool = False
    ) -> np.ndarray:
        """Matrix of field elements, drawn row-major, one output per entry.

        Equal to ``rows * cols`` calls of :meth:`field_element`, stream
        and final state included.  Rejected zeros are replaced by drawing
        exactly the shortfall again, so every output drawn is consumed.
        ValueError for rows or cols that are not integers, and for a
        modulus below 2 with ``nonzero``.
        """
        rows = _as_int(rows, "rows must be an integer")
        cols = _as_int(cols, "cols must be an integer")
        _check_nonzero(modulus, nonzero)
        count = rows * cols
        values = self._outputs(count) % np.uint64(modulus)
        if nonzero:
            values = values[values != 0]
            while values.size < count:
                more = self._outputs(count - values.size) % np.uint64(modulus)
                values = np.concatenate([values, more[more != 0]])
        return values.astype(np.int64).reshape(rows, cols)

    def child(self, index: int) -> "SeededRng":
        """Independent stream derived from the original seed and an integer index."""
        index = _as_int(index, "child index must be an integer")
        return SeededRng(self._mix(self.seed ^ self._mix((index + 1) & _MASK64)))
