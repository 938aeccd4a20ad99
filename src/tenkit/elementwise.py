"""Entry-wise arithmetic with broadcasting, reductions, and norms."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import DenseTensor, _tensor_from_nd, multi_index
from .errors import ArgumentError, DivisionError, ShapeError

__all__ = [
    "broadcast_shapes",
    "ew_binary",
    "add",
    "subtract",
    "multiply",
    "divide",
    "scale",
    "inner",
    "frobenius_norm",
    "sum_all",
    "outer",
]


def broadcast_shapes(left: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
    """Result shape of an entry-wise op after alignment.

    The shorter extent list is right-padded with 1s (trailing, higher modes),
    then each mode pair must be equal or contain a 1; the result takes the max.
    """
    order = max(len(left), len(right))
    a = tuple(left) + (1,) * (order - len(left))
    b = tuple(right) + (1,) * (order - len(right))
    out = []
    for ea, eb in zip(a, b):
        if ea != eb and 1 not in (ea, eb):
            raise ShapeError(
                f"shapes ({','.join(map(str, left))}) and ({','.join(map(str, right))}) "
                f"do not satisfy the broadcast condition"
            )
        out.append(max(ea, eb))
    return tuple(out)


def _aligned(x: DenseTensor, order: int) -> np.ndarray:
    return x._nd().reshape(x.shape + (1,) * (order - x.order), order="F")


def ew_binary(op: str, x: DenseTensor, y: DenseTensor) -> DenseTensor:
    """Entry-wise add/sub/mul/div of two broadcast-compatible tensors."""
    shape = broadcast_shapes(x.shape, y.shape)
    if op == "div":
        zero = np.flatnonzero(y.data == 0.0)
        if zero.size:
            where = multi_index(int(zero[0]) + 1, y.shape)
            raise DivisionError(f"divisor entry {where} is exactly zero")
    a = _aligned(x, len(shape))
    b = _aligned(y, len(shape))
    if op == "add":
        out = a + b
    elif op == "sub":
        out = a - b
    elif op == "mul":
        out = a * b
    elif op == "div":
        out = a / b
    else:
        raise ArgumentError(f"unknown entry-wise op {op!r} (need add|sub|mul|div)")
    return _tensor_from_nd(out)


def add(x: DenseTensor, y: DenseTensor) -> DenseTensor:
    return ew_binary("add", x, y)


def subtract(x: DenseTensor, y: DenseTensor) -> DenseTensor:
    return ew_binary("sub", x, y)


def multiply(x: DenseTensor, y: DenseTensor) -> DenseTensor:
    return ew_binary("mul", x, y)


def divide(x: DenseTensor, y: DenseTensor) -> DenseTensor:
    return ew_binary("div", x, y)


def scale(a: float, x: DenseTensor) -> DenseTensor:
    """Multiply every entry by the scalar a."""
    buf = a * x.data
    buf.flags.writeable = False
    return DenseTensor._wrap(x.shape, buf)


def inner(x: DenseTensor, y: DenseTensor) -> float:
    """Sum of the entry-wise products; shapes must match exactly."""
    if x.shape != y.shape:
        raise ShapeError(f"inner product needs equal shapes, got ({','.join(map(str, x.shape))}) and ({','.join(map(str, y.shape))})")
    return float(x.data @ y.data)


def frobenius_norm(x: DenseTensor) -> float:
    """Square root of the sum of squared entries.

    The entries are scaled by the power of two that brings max|x| into
    [0.5, 1), which is exact, so no square overflows and only squares far
    below the largest can underflow; the result is inf only when the norm
    itself is beyond float range.
    """
    exp = math.frexp(float(np.abs(x.data).max()))[1]
    y = np.ldexp(x.data, -exp)
    try:
        return math.ldexp(math.sqrt(float(y @ y)), exp)
    except OverflowError:
        return math.inf


def sum_all(x: DenseTensor) -> float:
    return float(x.data.sum())


def outer(vs: Sequence[DenseTensor]) -> DenseTensor:
    """Outer product of vectors: entry (i1,...,iN) = prod_n v_n(i_n)."""
    if len(vs) == 0:
        raise ArgumentError("outer product needs at least one vector")
    for v in vs:
        if v.order != 1:
            raise ShapeError(f"outer product operands must be order-1, got order {v.order}")
    acc = vs[0].data
    for v in vs[1:]:
        acc = np.multiply.outer(acc, v.data)
    return _tensor_from_nd(acc)
