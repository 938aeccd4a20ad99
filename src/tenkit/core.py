"""Dense tensor value type and reshaping operations.

Entries are stored flat in vectorization order: the first index varies
fastest, so the 1-based entry (i1, ..., iN) of a tensor with extents
(I1, ..., IN) sits at flat position 1 + sum_n (i_n - 1) * prod_{m<n} I_m.
For order 3 this is the familiar (k-1)*I*J + (j-1)*I + i. All public
indices, modes, and permutations are 1-based. Only this module knows the
storage order: other modules see the entries through to_array(), the array
of shape (I_1, ..., I_N), and through _rev and its inverse _from_rev, the
C-order array of shape (I_N, ..., I_1).
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Sequence

import numpy as np

from .errors import ArgumentError, BoundsError, NumericError, ShapeError

Shape = tuple[int, ...]

__all__ = [
    "DenseTensor",
    "element_count",
    "linear_index",
    "multi_index",
    "permute",
    "vec",
    "fold",
    "matricize",
    "k_unfold",
    "subtensor",
    "zeros",
    "all_ones",
    "one_hot",
    "identity",
    "matrix_unit",
    "super_diagonal",
    "folding_operator",
]


def _as_int(value, what: str, lo: int | None = None, hi: int | None = None, error=ArgumentError) -> int:
    """An integer argument as an int.

    Bools and non-integers raise ArgumentError; an int outside lo..hi (a
    None bound is open) raises `error`.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            v = operator.index(value)
        except TypeError:
            pass
        else:
            if (lo is None or v >= lo) and (hi is None or v <= hi):
                return v
            allowed = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise error(f"{what} must be {allowed}, got {v}")
    raise ArgumentError(f"{what} must be an integer, got {value!r}")


def _as_seq(values, what: str, count: int | None = None) -> tuple:
    """A sequence argument as a tuple; a scalar, a string or a length other
    than count raises ArgumentError."""
    if not isinstance(values, (str, bytes)):
        try:
            items = tuple(values)
        except TypeError:
            pass
        else:
            if count is None or len(items) == count:
                return items
            raise ArgumentError(f"{what} needs {count} entries, got {len(items)}")
    raise ArgumentError(f"{what} must be a sequence, got {values!r}")


def _as_ints(
    values,
    what: str,
    count: int | None = None,
    lo: int | None = None,
    hi: int | tuple[int, ...] | None = None,
    error=ArgumentError,
) -> tuple[int, ...]:
    """A sequence of integer arguments as a tuple of ints.

    Entry n is named f"{what} {n}" and checked by _as_int against lo and hi;
    hi is one bound for all entries or a tuple of one bound per entry.
    """
    items = _as_seq(values, f"{what} 1..{'N' if count is None else count}", count)
    his = hi if isinstance(hi, tuple) else (hi,) * len(items)
    return tuple(_as_int(v, f"{what} {n}", lo, h, error) for n, (v, h) in enumerate(zip(items, his), start=1))


def _is_finite_real(value) -> bool:
    real = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    try:
        return real and math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def _as_real(value, what: str, finite: bool = True) -> float:
    """A finite real argument (any float if not finite) as a float, else ArgumentError."""
    if _is_finite_real(value) or not finite and isinstance(value, (float, np.floating)):
        return float(value)
    raise ArgumentError(f"{what} must be a {'finite ' if finite else ''}number, got {value!r}")


def _as_tol(tol) -> float:
    """A tolerance as a float; anything but a finite real >= 0 raises ArgumentError."""
    if _is_finite_real(tol) and tol >= 0:
        return float(tol)
    raise ArgumentError(f"tol must be a finite number >= 0, got {tol!r}")


def _numpy_max_order() -> int:
    # numpy's limit on array dimensions: 64 on numpy 2, 32 before it.
    order = 1
    while True:
        try:
            np.empty((1,) * (order + 1))
        except ValueError:
            return order
        order += 1


_MAX_ORDER = _numpy_max_order()


def _scale_exponent(a: np.ndarray) -> int:
    """The e with max|a| in [2**(e - 1), 2**e), or 0 if a is all zero.

    Scaling by 2**-e, which is exact, brings max|a| into [0.5, 1)."""
    return math.frexp(float(np.abs(a).max(initial=0.0)))[1]


def _unscale(a: np.ndarray, e: int, what: str) -> np.ndarray:
    """a * 2**e, exact wherever the result is normal, for a result computed
    at the scale 2**-e; NumericError if an entry would lie beyond float range.

    The exponents are compared before numpy is called, so it never warns:
    max|a| * 2**e < 2**1024 exactly when _scale_exponent(a) + e <= 1024."""
    if _scale_exponent(a) + e > 1024:
        raise NumericError(f"{what} beyond float range")
    return np.ldexp(a, e)


def _check_order(order: int) -> None:
    """ShapeError if a tensor of this order is more than numpy can hold."""
    if order > _MAX_ORDER:
        raise ShapeError(f"order {order} is above numpy's limit of {_MAX_ORDER}")


def _check_shape(shape: Sequence[int]) -> Shape:
    """Extents >= 1, at most _MAX_ORDER of them, else ShapeError."""
    shape = _as_ints(shape, "extent of mode", lo=1, error=ShapeError)
    _check_order(len(shape))
    return shape


def _check_size(shape: Sequence[int]) -> Shape:
    """_check_shape, and an element count numpy can index, before anything is allocated."""
    shape = _check_shape(shape)
    if math.prod(shape) > np.iinfo(np.intp).max:
        raise ShapeError(f"shape {_fmt_shape(shape)} has {math.prod(shape)} entries, more than numpy can index")
    return shape


def _in_memory(what: str, make):
    """make(), whose MemoryError becomes ShapeError("<what> result of N entries
    does not fit in memory"), N being the entry count of the array numpy
    could not allocate (numpy's error names its shape)."""
    try:
        return make()
    except MemoryError as exc:
        entries = math.prod(getattr(exc, "shape", ()))
        raise ShapeError(f"{what} result of {entries} entries does not fit in memory") from None


def element_count(shape: Sequence[int]) -> int:
    """Number of entries for a shape; the empty shape (a scalar) counts 1."""
    return math.prod(_as_ints(shape, "extent of mode"))


def _fmt_shape(shape: Sequence[int]) -> str:
    return "(" + ",".join(str(e) for e in shape) + ")"


def _as_real_array(data) -> np.ndarray:
    """Tensor data from outside the library as an array of real numbers, else ArgumentError."""
    try:
        arr = np.asarray(data)
    except ValueError:
        raise ArgumentError("tensor data must be a flat or nested sequence of numbers") from None
    if arr.dtype.kind not in "biuf":
        raise ArgumentError(f"tensor data must be real numbers, got {arr.dtype} data")
    return arr


class DenseTensor:
    """Immutable dense real tensor of any order (order 0 is a scalar).

    The data buffer is a read-only float64 array in vectorization order.
    Tensors are value types: every operation returns a fresh tensor (or a
    reinterpretation sharing the frozen buffer) and instances may be freely
    shared between threads.
    """

    __slots__ = ("_shape", "_data")

    def __init__(self, shape: Sequence[int], data):
        shape = _check_shape(shape)
        arr = _as_real_array(data)
        need = math.prod(shape)
        if arr.size != need:
            raise ShapeError(f"data length {arr.size} does not match shape {_fmt_shape(shape)} with {need} entries")
        self._shape = shape
        self._data = _in_memory("DenseTensor", lambda: arr.astype(np.float64, order="C").reshape(-1))
        self._data.flags.writeable = False

    @classmethod
    def from_array(cls, array) -> "DenseTensor":
        """Build a tensor from a numpy array (vectorized first-index-fastest)."""
        a = _as_real_array(array)
        _check_shape(a.shape)
        return _in_memory("from_array", lambda: _from_rev(np.array(a.T, dtype=np.float64, order="C")))

    @property
    def shape(self) -> Shape:
        return self._shape

    @property
    def order(self) -> int:
        return len(self._shape)

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def data(self) -> np.ndarray:
        """Read-only flat view of the entries in vectorization order."""
        return self._data

    def to_array(self) -> np.ndarray:
        """N-dimensional numpy view of the entries (read-only, no copy)."""
        return self._data.reshape(self._shape, order="F")

    def at(self, *idx: int) -> float:
        """Entry at a 1-based multi-index."""
        return float(self._data[linear_index(idx, self._shape) - 1])

    def item(self) -> float:
        """The single entry of a scalar (order-0 or one-element) tensor."""
        if self._data.size != 1:
            raise ShapeError(f"item() needs exactly one entry, shape is {_fmt_shape(self._shape)}")
        return float(self._data[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self._shape == other._shape and np.array_equal(self._data, other._data)

    def __hash__(self):
        # -0.0 + 0.0 is 0.0, so tensors that compare equal hash equal.
        return hash((self._shape, (self._data + 0.0).tobytes()))

    def __repr__(self) -> str:
        if self.size <= 8:
            return f"DenseTensor(shape={_fmt_shape(self._shape)}, data={self._data.tolist()})"
        return f"DenseTensor(shape={_fmt_shape(self._shape)}, {self.size} entries)"


def _as_instance(value, cls: type | tuple[type, ...], what: str):
    """An argument of the function `what` that must be a cls (or one of a
    tuple of classes), else ArgumentError."""
    if not isinstance(value, cls):
        names = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise ArgumentError(f"{what} input must be a {names}, got {type(value).__name__}")
    return value


def _as_tensor(value, what: str, order: int | None = None, min_order: int = 0, finite: bool = False) -> DenseTensor:
    """A tensor argument of the function `what`: a non-tensor or an order below
    min_order raises ArgumentError, an order other than `order` ShapeError, and
    if finite (the factorizations) a NaN or inf entry NumericError."""
    _as_instance(value, DenseTensor, what)
    if order is not None and value.order != order:
        raise ShapeError(f"{what} expects an order-{order} tensor, got order {value.order}")
    if value.order < min_order:
        raise ArgumentError(f"{what} needs an order >= {min_order} tensor, got order {value.order}")
    if finite and not np.isfinite(value.data).all():
        raise NumericError(f"{what} input has non-finite entries (nan or inf)")
    return value


def _rev(t: DenseTensor) -> np.ndarray:
    # The buffer as the C-order array of reversed shape (I_N, ..., I_1):
    # axis k is mode N - k. Read-only, no copy.
    return t._data.reshape(t._shape[::-1])


def _from_rev(array: np.ndarray) -> DenseTensor:
    # Inverse of _rev: a C-order array of shape (I_N, ..., I_1) as the tensor
    # of shape (I_1, ..., I_N), frozen; no copy when it is contiguous float64.
    # The one constructor of the tensors the library computes.
    flat = np.ascontiguousarray(array, dtype=np.float64).reshape(-1)
    flat.flags.writeable = False
    t = object.__new__(DenseTensor)
    t._shape = tuple(int(e) for e in array.shape[::-1])
    t._data = flat
    return t


def linear_index(idx: Sequence[int], shape: Sequence[int]) -> int:
    """1-based flat position of a 1-based multi-index (first index fastest)."""
    shape = _check_shape(shape)
    idx = _as_ints(idx, "index for mode", len(shape), 1, shape, BoundsError)
    flat = 0
    stride = 1
    for i, extent in zip(idx, shape):
        flat += (i - 1) * stride
        stride *= extent
    return flat + 1


def multi_index(flat: int, shape: Sequence[int]) -> tuple[int, ...]:
    """Inverse of linear_index: 1-based multi-index of a 1-based flat position."""
    shape = _check_shape(shape)
    flat = _as_int(flat, f"flat index for shape {_fmt_shape(shape)}", 1, math.prod(shape), BoundsError)
    rem = flat - 1
    idx = []
    for extent in shape:
        idx.append(rem % extent + 1)
        rem //= extent
    return tuple(idx)


def _check_permutation(p: Sequence[int], order: int) -> tuple[int, ...]:
    p = _as_ints(p, "permutation entry", order, 1, order)
    if len(set(p)) != order:
        raise ArgumentError(f"{list(p)} is not a permutation of 1..{order}")
    return p


def permute(x: DenseTensor, p: Sequence[int]) -> DenseTensor:
    """Mode permutation: mode k of the result is mode p[k] of the input."""
    x = _as_tensor(x, "permute")
    p = _check_permutation(p, x.order)
    return _from_rev(_rev(x).transpose([x.order - v for v in reversed(p)]))


def vec(x: DenseTensor) -> DenseTensor:
    """Flatten to an order-1 tensor; the buffer is already in this order."""
    x = _as_tensor(x, "vec")
    return _from_rev(x.data)


def fold(v: DenseTensor, target: Sequence[int]) -> DenseTensor:
    """Reshape an order-1 tensor into the target shape (inverse of vec)."""
    v = _as_tensor(v, "fold", 1)
    shape = _check_shape(target)
    if math.prod(shape) != v.size:
        raise ShapeError(f"cannot fold length {v.size} into shape {_fmt_shape(shape)}")
    return _from_rev(v.data.reshape(shape[::-1]))


def matricize(x: DenseTensor, n: int) -> DenseTensor:
    """Mode-n matricization: shape (I_n, prod of the other extents).

    Row i_n collects all mode-n fibers; columns follow vectorization order
    of the remaining modes. On the reversed-shape view (_rev) this is
    mode n moved to the last axis, then one C-order reshape.
    """
    x = _as_tensor(x, "matricize")
    n = _as_int(n, "mode", 1, x.order)
    rows = x.shape[n - 1]
    return _from_rev(np.moveaxis(_rev(x), x.order - n, -1).reshape(-1, rows))


def k_unfold(x: DenseTensor, k: int) -> DenseTensor:
    """Split the modes after position k into columns; the buffer is unchanged."""
    x = _as_tensor(x, "k_unfold")
    k = _as_int(k, "split point", 1, x.order - 1)
    rows = math.prod(x.shape[:k])
    return _from_rev(x.data.reshape(x.size // rows, rows))


def subtensor(x: DenseTensor, sel: Sequence) -> DenseTensor:
    """Extract a sub-tensor; always copies.

    Each mode's selection is an int (the mode is dropped), a (m, n) pair for
    the closed 1-based range m..n, or ":" for the whole mode. A single fiber
    comes back as an order-1 tensor.
    """
    x = _as_tensor(x, "subtensor")
    indexer = []
    for mode, (s, extent) in enumerate(zip(_as_seq(sel, "selection", x.order), x.shape), start=1):
        if s is None or isinstance(s, str) and s == ":":
            indexer.append(slice(None))
        elif isinstance(s, tuple):
            m, n = _as_ints(s, f"range bound for mode {mode}", 2)
            m = _as_int(m, f"range start for mode {mode}", 1, extent, BoundsError)
            indexer.append(slice(m - 1, _as_int(n, f"range end for mode {mode}", m, extent, BoundsError)))
        else:
            indexer.append(_as_int(s, f"index for mode {mode}", 1, extent, BoundsError) - 1)
    return _from_rev(np.array(_rev(x)[tuple(indexer[::-1])]))


def zeros(shape: Sequence[int]) -> DenseTensor:
    shape = _check_size(shape)
    return _in_memory("zeros", lambda: _from_rev(np.zeros(shape[::-1])))


def all_ones(shape: Sequence[int]) -> DenseTensor:
    shape = _check_size(shape)
    return _in_memory("all_ones", lambda: _from_rev(np.ones(shape[::-1])))


def one_hot(i: int, length: int) -> DenseTensor:
    """Length-`length` vector with a single 1 at 1-based position i."""
    length = _as_int(length, "one_hot length", 1)
    i = _as_int(i, "index for mode 1", 1, length, BoundsError)
    _check_size((length,))
    buf = _in_memory("one_hot", lambda: np.zeros(length))
    buf[i - 1] = 1.0
    return _from_rev(buf)


def identity(n: int) -> DenseTensor:
    n = _as_int(n, "identity size", 1)
    _check_size((n, n))
    return _in_memory("identity", lambda: _from_rev(np.eye(n)))


def matrix_unit(i: int, j: int, rows: int, cols: int) -> DenseTensor:
    """(rows, cols) matrix with a single 1 at 1-based entry (i, j)."""
    rows = _as_int(rows, "matrix_unit rows", 1)
    cols = _as_int(cols, "matrix_unit cols", 1)
    i, j = _as_ints((i, j), "index for mode", 2, 1, (rows, cols), BoundsError)
    _check_size((rows, cols))
    buf = _in_memory("matrix_unit", lambda: np.zeros((cols, rows)))
    buf[j - 1, i - 1] = 1.0
    return _from_rev(buf)


def super_diagonal(order: int, size: int, weights: Sequence[float] | None = None) -> DenseTensor:
    """Order-`order` tensor with weights[r] at (r, ..., r) and 0 elsewhere.

    Weights default to all ones.
    """
    order = _as_int(order, "super_diagonal order", 1, _MAX_ORDER, ShapeError)
    size = _as_int(size, "super_diagonal size", 1)
    shape = _check_size((size,) * order)
    if weights is None:
        w = np.ones(size)
    else:
        weights = _as_seq(weights, "super_diagonal weights", size)
        if not all(_is_finite_real(v) for v in weights):
            raise ArgumentError(f"super_diagonal weights must be finite numbers, got {weights!r}")
        w = np.array(weights, dtype=np.float64)
    buf = _in_memory("super_diagonal", lambda: np.zeros(math.prod(shape)))
    buf[:: sum(size**k for k in range(order))] = w  # the stride from (r, ..., r) to (r+1, ..., r+1)
    return _from_rev(buf.reshape(shape))


def folding_operator(shape: Sequence[int]) -> DenseTensor:
    """Order-(N+1) tensor reshaping a length-T vector into `shape` (T = its size).

    It is the T-by-T identity folded into (*shape, T): contracting its last
    mode against vec(X) reproduces fold(vec(X), shape).
    """
    shape = _check_size(shape)
    total = math.prod(shape)
    _check_size((total, total))
    return _in_memory("folding_operator", lambda: _from_rev(np.eye(total).reshape(total, *shape[::-1])))
