"""Matrix, Kronecker, Khatri-Rao, mode, and general tensor products.

Index composition follows the overline convention of the storage order:
in a combined index like (i-bar, p-bar) the second factor varies fastest,
so kronecker(A, B) of an (I,J) and a (P,Q) matrix is the (PI, QJ) block
matrix whose (p-bar-i, q-bar-j) entry is A[i,j] * B[p,q].

The same storage order read backwards is numpy's C order: the buffer of a
tensor of shape (I_1, ..., I_N) is the C-contiguous array of the reversed
shape (I_N, ..., I_1), whose axis k is mode N - k. matmul, mode_product,
tensor_product, tt_pair_product and network.evaluate all run one GEMM,
_pair_gemm, on these reversed-shape views (core._rev): one operand's matrix
times the other's buffer read as (outer, paired, inner), batched over
outer, is the C-order array of the reversed result, which is already the
result's buffer (core._from_rev). No result is transposed. An operand is
copied only when its paired modes, in pairing order, or its free modes, in
the order the result takes them, do not run in storage order (extent-1
modes aside). A mode product puts the matrix's free mode in place of the
paired one, so its tensor is read in place. Every product of finite
operands whose result is beyond float range raises NumericError naming the
function called (elementwise._finite), from the overflow flag of its GEMM
or multiply, with no pass over the result.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import DenseTensor, _as_int, _as_ints, _as_seq, _as_tensor, _check_order, _fmt_shape, _from_rev, _rev
from .elementwise import _finite
from .errors import ArgumentError, ShapeError

__all__ = [
    "matmul",
    "trace",
    "kronecker",
    "khatri_rao",
    "mode_product",
    "multi_mode_product",
    "tensor_product",
    "tt_pair_product",
]


def matmul(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    a = _as_tensor(a, "matmul", 2)
    b = _as_tensor(b, "matmul", 2)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul mismatch: {_fmt_shape(a.shape)} times {_fmt_shape(b.shape)}")
    return _pair_gemm("matmul", a, b, [2], [1], [1], [2], 1)


def trace(s: DenseTensor) -> float:
    s = _as_tensor(s, "trace", 2)
    if s.shape[0] != s.shape[1]:
        raise ShapeError(f"trace needs a square matrix, got {_fmt_shape(s.shape)}")
    return float(_finite("trace", lambda: np.trace(_rev(s)), s.data))


def kronecker(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Kronecker product: all entry pairs A[i,j]*B[p,q] as a (PI, QJ) block matrix."""
    a = _as_tensor(a, "kronecker", 2)
    b = _as_tensor(b, "kronecker", 2)
    # kron(A, B)^T = kron(A^T, B^T), and _rev of a matrix is its transpose.
    return _from_rev(_finite("kronecker", lambda: np.kron(_rev(a), _rev(b)), a.data, b.data))


def _khatri_rao(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Khatri-Rao product of (..., I_k, R) arrays, left to right: the row
    index of the last array varies fastest. Leading axes are batch axes,
    broadcast together, so one call serves a stack of factor sets."""
    acc = mats[0]
    for m in mats[1:]:
        acc = acc[..., :, None, :] * m[..., None, :, :]
        acc = acc.reshape(*acc.shape[:-3], -1, acc.shape[-1])
    return acc


def khatri_rao(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """Column-wise Kronecker product of (I,R) and (J,R) matrices, giving (JI, R)."""
    a = _as_tensor(a, "khatri_rao", 2)
    b = _as_tensor(b, "khatri_rao", 2)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"khatri_rao needs equal column counts, got {a.shape[1]} and {b.shape[1]}")
    return _from_rev(_finite("khatri_rao", lambda: _khatri_rao([a.to_array(), b.to_array()]).T, a.data, b.data))


def mode_product(x: DenseTensor, a: DenseTensor, n: int) -> DenseTensor:
    """Multiply matrix a into mode n of x: matricize(result, n) = a @ matricize(x, n)."""
    return _mode_product("mode_product", x, a, n)


def _mode_product(what: str, x: DenseTensor, a: DenseTensor, n: int) -> DenseTensor:
    """mode_product, whose NumericError for a result beyond float range names `what`."""
    x = _as_tensor(x, "mode_product")
    n = _as_int(n, "mode", 1, x.order)
    a = _as_tensor(a, "mode_product", 2)
    if a.shape[1] != x.shape[n - 1]:
        raise ShapeError(
            f"mode_product mismatch on mode {n}: matrix has {a.shape[1]} columns, "
            f"mode extent is {x.shape[n - 1]}"
        )
    return _pair_gemm(what, x, a, [n], [2], _free(x.order, [n]), [1], n - 1)


def multi_mode_product(g: DenseTensor, mats: Sequence[DenseTensor | None]) -> DenseTensor:
    """Apply one optional matrix per mode, in ascending mode order.

    A None slot leaves that mode untouched (the all-but-one-mode product is
    the case with exactly one None).
    """
    return _multi_mode_product("multi_mode_product", g, mats)


def _multi_mode_product(what: str, g: DenseTensor, mats: Sequence[DenseTensor | None]) -> DenseTensor:
    """multi_mode_product, whose NumericError for a result beyond float range names `what`."""
    out = _as_tensor(g, "multi_mode_product")
    for n, a in enumerate(_as_seq(mats, "matrix slots", out.order), start=1):
        if a is not None:
            out = _mode_product(what, out, a, n)
    return out


def tensor_product(a: DenseTensor, b: DenseTensor, pairing: Sequence[tuple[int, int]]) -> DenseTensor:
    """Contract paired modes of two tensors; an empty pairing is the outer product.

    Free modes of a (in their original order) come first, then free modes
    of b. Each (n, m) pair contracts mode n of a against mode m of b.
    """
    a = _as_tensor(a, "tensor_product")
    b = _as_tensor(b, "tensor_product")
    pairing = [
        _as_ints(pair, f"pair {k} entry", 2, 1, (a.order, b.order))
        for k, pair in enumerate(_as_seq(pairing, "pairing"), start=1)
    ]
    ns = [n for n, _ in pairing]
    ms = [m for _, m in pairing]
    if len(set(ns)) != len(ns) or len(set(ms)) != len(ms):
        raise ArgumentError(f"paired modes must be distinct on each side, got {pairing}")
    for n, m in pairing:
        if a.shape[n - 1] != b.shape[m - 1]:
            raise ShapeError(
                f"pair ({n},{m}): extent {a.shape[n - 1]} of left mode {n} "
                f"!= extent {b.shape[m - 1]} of right mode {m}"
            )
    return _pair_gemm("tensor_product", a, b, ns, ms, _free(a.order, ns), _free(b.order, ms), a.order - len(ns))


def _free(order: int, paired: list[int]) -> list[int]:
    """The modes of an order-`order` tensor that are not paired, ascending."""
    return [k for k in range(1, order + 1) if k not in paired]


def _pair_gemm(
    what: str, a: DenseTensor, b: DenseTensor, ns: list[int], ms: list[int], fa: list[int], fb: list[int],
    at: int,
) -> DenseTensor:
    """The one GEMM of every product: modes ns of a paired with ms of b, checked.

    The result holds a's free modes fa, in that order, with b's free modes
    fb inserted before fa[at] (at = len(fa): last; at = 0: first). Mode k
    of a is axis a.order - k of _rev(a). x is _rev(b) as (fb reversed,
    paired) and y is _rev(a) as (outer, paired, inner), outer being fa[at:]
    and inner fa[:at], each reversed. x @ y, batched over outer, is the
    C-order (outer, fb reversed, inner) array of the reversed result, which
    is its buffer. When outer or inner is 1 the GEMM is flat: x @ y[0], or
    y[..., 0] @ x.T, which the BLAS reads transposed. Each entry is the same
    dot product, over the paired axes in pairing order, whatever fa, fb and
    at are. `what` names the caller in the NumericError raised when finite
    operands give a result beyond float range (elementwise._finite).
    """
    _check_order(len(fa) + len(fb))
    ko, kp = len(fa) - at, len(fa) - at + len(ns)
    y = _rev(a).transpose([a.order - k for k in fa[at:][::-1] + ns + fa[:at][::-1]])
    x = _rev(b).transpose([b.order - k for k in fb[::-1] + ms])
    so, paired, si = math.prod(y.shape[:ko]), math.prod(y.shape[ko:kp]), math.prod(y.shape[kp:])
    shape = y.shape[:ko] + x.shape[: len(fb)] + y.shape[kp:]
    x = x.reshape(math.prod(x.shape[: len(fb)]), paired)
    y = y.reshape(so, paired, si)
    left, right = (x, y[0]) if so == 1 else (y[..., 0], x.T) if si == 1 else (x, y)
    return _from_rev(_finite(what, lambda: np.matmul(left, right), a.data, b.data).reshape(shape))


def tt_pair_product(x: DenseTensor, y: DenseTensor) -> DenseTensor:
    """Contract the last mode of x against the first mode of y."""
    x = _as_tensor(x, "tt_pair_product")
    y = _as_tensor(y, "tt_pair_product")
    if x.order < 1 or y.order < 1:
        raise ShapeError("tt_pair_product operands must have order >= 1")
    if x.shape[-1] != y.shape[0]:
        raise ShapeError(
            f"tt_pair_product mismatch: last extent {x.shape[-1]} != first extent {y.shape[0]}"
        )
    return _tt_chain("tt_pair_product", [x, y])


def _tt_chain(what: str, cores: Sequence[DenseTensor]) -> DenseTensor:
    """tt_pair_product of checked tensors, left to right, whose NumericError
    for a result beyond float range names `what`."""
    acc = cores[0]
    for core in cores[1:]:
        fa = _free(acc.order, [acc.order])
        acc = _pair_gemm(what, acc, core, [acc.order], [1], fa, _free(core.order, [1]), len(fa))
    return acc
