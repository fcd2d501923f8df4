"""Prime-field arithmetic on int64 numpy arrays, plus the deterministic
generator behind every random draw in the package.

Field elements are plain ints in ``[0, modulus)``.  Moduli must stay
below ``2**31`` (the default ``2**31 - 1`` is the largest prime there);
:class:`~synergy.placement.SystemConfig` enforces the bound.  Then a
product of two reduced elements is below ``2**62``, the difference of
two such products is below ``2**62`` in magnitude, and the sum of two
stays below ``2**63``: every intermediate of the kernels fits in int64,
and each is reduced (:func:`_reduce`) before it could grow further.
``solve``, ``is_invertible`` and ``matmul`` also take a leading batch
axis, which they move last in the copy that widens them to int64.
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


def _modulus(modulus, users: str = "field kernels") -> int:
    """``modulus`` as a Python int of at least 2, the one reading of every
    modulus the kernels and draws take; ValueError naming it for a
    non-integer, which would be truncated or leak floats, and for a
    modulus below 2, which reduces every element to 0."""
    modulus = _as_int(modulus, "modulus must be an integer")
    if modulus < 2:
        raise ValueError(f"{users} need a modulus of at least 2, got {modulus!r}")
    return modulus


def _integers(name: str, values, modulus: int) -> np.ndarray:
    """``values`` as an array of an integer dtype whose int64 cast is
    exact: uint64 entries are reduced first, since those at or above
    2**63 would wrap.  ValueError naming the argument for float, bool,
    object, string or any other dtype, which would otherwise be truncated
    or cast into a wrong answer."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
    if values.dtype == np.uint64:
        values = values % np.uint64(modulus)
    return values


def _reduce(values: np.ndarray, modulus: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """Reduce the integer array ``values`` into [0, modulus) in place,
    as ``values % modulus`` would, and return it; ``scratch``, an array
    of the same shape, receives the quotients (a new one when None).
    numpy divides by a scalar through libdivide, so on cache-resident
    blocks these three passes take about a sixth of the time of one
    ``%``, which divides entry by entry.

    Floor division rounds toward minus infinity, so negative entries land
    in [0, modulus) too.  The quotient is exact for every int64 entry,
    and the multiply and subtract that follow are exact modulo 2**64
    with a true result in [0, modulus), so the remainder is exact even
    where an intermediate wraps.
    """
    quotient = np.floor_divide(values, modulus, out=scratch)
    quotient *= modulus
    values -= quotient
    return values


def _in_field(values: np.ndarray, modulus: int) -> np.ndarray:
    """Reduce the int64 array ``values`` in place unless every entry
    already lies in [0, modulus), and return it: two scans, and the
    reduction only for input that needs it."""
    if values.size and (values.min() < 0 or values.max() >= modulus):
        _reduce(values, modulus)
    return values


def _batch_last(values: np.ndarray, batch: tuple[int, ...], modulus: int) -> np.ndarray:
    """``values`` of shape (..., r, c), its leading axes broadcastable to
    ``batch``, as a new reduced, contiguous int64 array of shape (r, c,
    ...) with one trailing axis per axis of ``batch`` (missing ones of
    length 1)."""
    values = values.reshape((1,) * (len(batch) + 2 - values.ndim) + values.shape)
    out = np.empty(values.shape[-2:] + values.shape[:-2], dtype=np.int64)
    out[...] = values.transpose(-2, -1, *range(len(batch)))
    return _in_field(out, modulus)


def matmul(a: np.ndarray, b: np.ndarray, modulus: int = MODULUS) -> np.ndarray:
    """Matrix (or matrix-vector) product over the field.

    ``a`` may carry leading batch axes, ``(..., m, k)``, with ``b`` of
    shape ``(..., k, n)`` broadcast against them; a one-dimensional ``b``
    is a single vector.  The operands are copied batch-last and reduced,
    so every product and sum runs over the batch axes; the result is a
    view of a batch-last array.  The inner index is summed two terms at
    a time: two products of reduced elements sum below 2**63, so each
    pair is reduced once, and the reduced pairs may number ~2**32
    without overflowing int64.  ValueError when an operand does not have
    an integer dtype, the shapes do not match, or the modulus is not an
    integer of at least 2.
    """
    modulus = _modulus(modulus)
    a = _integers("a", a, modulus)
    b = _integers("b", b, modulus)
    single = b.ndim == 1
    rhs = b[:, np.newaxis] if single else b
    if a.ndim < 2 or rhs.ndim < 2 or a.shape[-1] != rhs.shape[-2]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    batch = np.broadcast_shapes(a.shape[:-2], rhs.shape[:-2])
    left, right = _batch_last(a, batch, modulus), _batch_last(rhs, batch, modulus)
    inner = left.shape[1]
    out = np.zeros((left.shape[0], right.shape[1], *batch), dtype=np.int64)
    term, scratch = np.empty_like(out), np.empty_like(out)
    for j in range(0, inner, 2):
        np.multiply(left[:, j, np.newaxis], right[j], out=term)
        if j + 1 < inner:
            term += np.multiply(left[:, j + 1, np.newaxis], right[j + 1], out=scratch)
        out += _reduce(term, modulus, scratch)
    out = _reduce(out, modulus, scratch).transpose(*range(2, out.ndim), 0, 1)
    return out[..., 0] if single else out


def _eliminate(block: np.ndarray, modulus: int) -> np.ndarray:
    """Fraction-free forward elimination over a batch of systems, in
    place, batch-last.

    ``block`` is a reduced, contiguous int64 array of shape (n, c, B)
    with c >= n: system b is ``block[:, :, b]``, its square coefficients
    first, then any right-hand-side columns.  The batch is the last axis,
    so every multiply, subtract and reduction runs over B contiguous
    entries (a whole trailing row, (c - k - 1) * B entries, at step k).
    Pivot search and row swaps work along the row axis.

    Step k works on the trailing view ``block[k:, k:]``.  In every
    system whose top row has a zero leading entry, it first adds the
    next row to the top one, reduced: a unimodular row operation, which
    keeps every determinant and every solution, and over a small field
    leaves few pivots zero.  Only where the pivot is still zero does it
    take the first nonzero entry of the leading column, swapping that
    row with the top one.  It then turns every other row r into
    ``pivot * r - r[0] * pivot_row``, which scales r by a nonzero field
    element and so keeps each system's solution.  Only the block past
    the pivot row and column is written, about n**3 / 3 multiply-reduce
    steps per square system, and reduced by :func:`_reduce`; the last
    step, whose trailing block is one row, only checks its pivot.  The second
    product and the quotients share one workspace, a shrinking view of a
    flat buffer the size of the first trailing block: besides ``block``,
    that buffer and the row temporaries of a zero pivot's fix are all
    the elimination allocates.

    Returns the (B,) mask of invertible systems.  ``block[k, k:]`` is
    then the k-th pivot row, its first entry the k-th diagonal element
    of the triangular factor; the entries below the diagonal are stale,
    and every row of a singular system holds garbage.
    """
    n, width, count = block.shape
    ok = np.ones(count, dtype=bool)
    scratch = np.empty(max(n - 1, 0) * (width - 1) * count, dtype=np.int64)
    for step in range(n):
        trailing = block[step:, step:]
        top = trailing[0]
        pivoted = top[0].all()
        if not pivoted and step < n - 1:
            top += trailing[1] * (top[0] == 0)
            pivoted = _reduce(top, modulus)[0].all()
        if not pivoted:
            nonzero = trailing[:, 0] != 0
            ok &= nonzero.any(axis=0)
            index = nonzero.argmax(axis=0)
            swapped = np.flatnonzero(index)
            below = trailing[index[swapped], :, swapped]
            trailing[index[swapped], :, swapped] = top[:, swapped].T
            top[:, swapped] = below.T
        if step == n - 1:
            break
        rest = trailing[1:, 1:]
        work = scratch[: rest.size].reshape(rest.shape)
        np.multiply(trailing[1:, :1], top[1:], out=work)
        rest *= top[0]
        rest -= work
        _reduce(rest, modulus, work)
    return ok


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
        level = _reduce(level[0::2] * level[1::2], modulus)
    inverse = np.array([pow(int(level[0]), -1, modulus)], dtype=np.int64)
    for level in reversed(levels):
        children = np.empty_like(level)
        np.multiply(inverse, level[1::2], out=children[0::2])
        np.multiply(inverse, level[0::2], out=children[1::2])
        inverse = _reduce(children, modulus)
    return inverse[: flat.size].reshape(values.shape)


def _square(a: np.ndarray) -> None:
    """ValueError unless ``a`` is one square matrix or a batch of them."""
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("coefficient matrix must be square")


def _systems(a: np.ndarray, rhs: np.ndarray | None, modulus: int) -> np.ndarray:
    """``[a | rhs]`` of a (B, n, n) batch and its (B, n, m) right-hand
    sides (none for None) as the reduced int64 (n, n + m, B) block that
    :func:`_eliminate` works on: a new array, transposed in the copy that
    widens it to int64."""
    count, n = a.shape[:2]
    block = np.empty((n, n + (0 if rhs is None else rhs.shape[-1]), count), dtype=np.int64)
    block[:, :n] = a.transpose(1, 2, 0)
    if rhs is not None:
        block[:, n:] = rhs.transpose(1, 2, 0)
    return _in_field(block, modulus)


def solve(a: np.ndarray, b: np.ndarray, modulus: int = MODULUS) -> np.ndarray:
    """Solve ``a @ x = b`` over the field; ``b`` may be a vector or a
    matrix of stacked right-hand-side columns.

    ``a`` may also be a batch ``(B, n, n)`` with ``b`` of shape ``(B, n)``
    or ``(B, n, m)``: every system is solved in one pass.  Forward
    elimination of ``[a | b]`` with the first nonzero pivot (exact
    arithmetic needs no magnitude pivoting), then back-substitution over
    the batch axis, with every pivot inverted in one product tree
    (:func:`_inverse_batch`).  The result is a view of a batch-last
    array.  Raises SingularMatrixError when any ``a`` is not invertible,
    and ValueError when ``a`` is not square, ``b`` does not match it,
    either does not have an integer dtype or the modulus is not an
    integer of at least 2.
    """
    modulus = _modulus(modulus)
    a = _integers("a", a, modulus)
    _square(a)
    batched = a.ndim == 3
    b = _integers("b", b, modulus)
    single = b.ndim == a.ndim - 1
    rhs = b[..., np.newaxis] if single else b
    if rhs.ndim != a.ndim or rhs.shape[:-1] != a.shape[:-1]:
        raise ValueError("right-hand side does not match the matrix")
    if not batched:
        a, rhs = a[np.newaxis], rhs[np.newaxis]
    block = _systems(a, rhs, modulus)
    ok = _eliminate(block, modulus)
    if not ok.all():
        raise SingularMatrixError(f"rank deficiency in system {int(np.argmin(ok))}")
    # Row k of the triangular factor is block[k, k:] = [d_k, u_k(k+1), ...,
    # u_k(n-1), rhs_k], so x_k = (rhs_k - sum_j u_k(j) x_j) / d_k.  Once
    # x_k is known, every row above subtracts its reduced share at once;
    # those rows stay above -n * modulus, and x_k is reduced before use.
    n = block.shape[0]
    inverses = _inverse_batch(block[np.arange(n), np.arange(n)], modulus)
    x = block[:, n:].copy()  # (n, m, B), becoming the solution from the bottom up
    for k in range(n - 1, -1, -1):
        x_k = _reduce(x[k], modulus)
        x_k *= inverses[k]
        _reduce(x_k, modulus)
        x[:k] -= _reduce(block[:k, k, np.newaxis] * x_k, modulus)
    x = x.transpose(2, 0, 1)
    if not batched:
        x = x[0]
    return x[..., 0] if single else x


def is_invertible(a: np.ndarray, modulus: int = MODULUS) -> bool | np.ndarray:
    """Whether a square matrix is invertible over the field; for a batch
    ``(B, n, n)``, a boolean array with one entry per matrix.

    Runs the forward elimination alone, on a batch-last copy; the input
    is never written.  ValueError when ``a`` is not square (the message
    :func:`solve` gives), does not have an integer dtype, or the modulus
    is not an integer of at least 2.
    """
    modulus = _modulus(modulus)
    a = _integers("a", a, modulus)
    _square(a)
    ok = _eliminate(_systems(a.reshape(-1, *a.shape[-2:]), None, modulus), modulus)
    return ok if a.ndim == 3 else bool(ok[0])


@lru_cache(maxsize=None)
def _cauchy(size: int, modulus: int) -> np.ndarray:
    """The matrix of :func:`cauchy_combining_matrix` over row points
    0, ..., size - 2 and column points size - 1, ..., 2 * size - 2.
    Entry (i, j) is 1 / (i - (size - 1 + j)), and i - (size - 1 + j)
    takes only the 2 * size - 2 values -1, ..., -(2 * size - 2), so only
    those are inverted, one ``pow`` each, and the matrix gathers them."""
    if size < 2:
        raise ValueError("combining matrices need at least two columns")
    if modulus <= 2 * size:
        raise ValueError(f"modulus {modulus} too small for {2 * size - 1} distinct points")
    inverses = np.array([pow(-d, -1, modulus) for d in range(1, 2 * size - 1)], dtype=np.int64)
    matrix = inverses[np.arange(size) - np.arange(size - 1)[:, np.newaxis] + size - 2]
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
    return _cauchy(size, _modulus(modulus, "combining matrices"))


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

    def _outputs(self, count: int, modulus: int) -> np.ndarray:
        """The next ``count`` outputs modulo ``modulus``, as a uint64
        array, in one vector pass: the state after m outputs is
        seed-state + m * increment.  They are reduced in place by scalar
        floor division, which numpy runs through libdivide, about three
        times faster than a uint64 ``%``."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        quotient = z // np.uint64(modulus)
        quotient *= np.uint64(modulus)
        z -= quotient
        return z

    def field_matrix(
        self, rows: int, cols: int, modulus: int = MODULUS, nonzero: bool = False
    ) -> np.ndarray:
        """Matrix of field elements, drawn row-major: each entry is the
        next output modulo ``modulus``; with ``nonzero``, outputs that
        reduce to zero are skipped.

        A nonzero draw computes the shortfall plus a margin of about
        four times the zeros expected in it, in one pass, keeps the
        first nonzero outputs it needs, and sets the counter-based state
        just past the last output kept, so the stream is that of one
        draw per entry, rejected zeros included.  Only a margin that
        falls short draws again; a count of 0 leaves the state as it
        was.  ValueError, before anything is drawn, for rows or cols that
        are not non-negative integers, and for a modulus that is not an
        integer of at least 2.
        """
        rows = _as_int(rows, "rows must be an integer")
        cols = _as_int(cols, "cols must be an integer")
        if rows < 0 or cols < 0:
            name, value = ("rows", rows) if rows < 0 else ("cols", cols)
            raise ValueError(f"{name} must be non-negative, got {value}")
        modulus = _modulus(modulus, "nonzero draws" if nonzero else "draws")
        count = rows * cols
        values = np.empty(0, dtype=np.uint64)
        while (short := count - values.size) > 0:
            drawn = short + (4 * (short // modulus) + 8 if nonzero else 0)
            block = self._outputs(drawn, modulus)
            zeros = np.flatnonzero(block == 0) if nonzero else np.empty(0, dtype=np.int64)
            # Zero k has zeros[k] - k nonzero outputs before it, so the
            # short-th nonzero output follows every zero with fewer than
            # `short` before it.  Past the block, the margin fell short.
            used = min(short + int(np.searchsorted(zeros - np.arange(zeros.size), short)), drawn)
            self._state = (self._state - (drawn - used) * _GOLDEN) & _MASK64
            kept = block[:used][block[:used] != 0] if zeros.size else block[:used]
            values = np.concatenate([values, kept]) if values.size else kept
        # Every reduced output is below 2**31, so its int64 view is exact.
        return values.view(np.int64).reshape(rows, cols)

    def child(self, index: int) -> "SeededRng":
        """Independent stream derived from the original seed and an integer index."""
        index = _as_int(index, "child index must be an integer")
        return SeededRng(self._mix(self.seed ^ self._mix((index + 1) & _MASK64)))
