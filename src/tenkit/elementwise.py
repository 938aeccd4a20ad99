"""Entry-wise arithmetic with broadcasting, reductions, and norms.

A result that overflows from finite inputs (add of two entries near 1e308,
a sum, a product of 1e200s) raises NumericError instead of returning inf or
NaN; non-finite inputs pass through as numpy computes them.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .core import (
    DenseTensor, _as_ints, _as_real, _as_seq, _as_tensor, _check_order, _fmt_shape, _from_rev, _in_memory, _rev,
    _scale_exponent, multi_index
)
from .errors import ArgumentError, DivisionError, NumericError, ShapeError

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
    left, right = _as_ints(left, "extent of mode"), _as_ints(right, "extent of mode")
    pairs = list(itertools.zip_longest(left, right, fillvalue=1))
    if any(ea != eb and 1 not in (ea, eb) for ea, eb in pairs):
        raise ShapeError(f"shapes {_fmt_shape(left)} and {_fmt_shape(right)} do not satisfy the broadcast condition")
    return tuple(map(max, pairs))


_OPS = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}


def _finite(what: str, compute, *inputs):
    """compute(), whose result is non-finite for finite inputs only where it
    raised numpy's overflow or invalid flag: then NumericError naming `what`
    if every input is finite, else compute() again with the flags off. So a
    finite result costs no pass over it. A result too large to allocate
    raises ShapeError naming `what` (core._in_memory)."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _in_memory(what, compute)
    except FloatingPointError:
        if all(np.isfinite(x).all() for x in inputs):
            raise NumericError(f"{what} result is beyond float range") from None
    with np.errstate(over="ignore", invalid="ignore"):
        return compute()


def _ew(op: str, x: DenseTensor, y: DenseTensor, what: str) -> DenseTensor:
    # On the reversed-shape views (core._rev) the right-padding of
    # broadcast_shapes is numpy's own left-padding broadcast.
    x = _as_tensor(x, what)
    y = _as_tensor(y, what)
    broadcast_shapes(x.shape, y.shape)
    if not isinstance(op, str) or op not in _OPS:
        raise ArgumentError(f"unknown entry-wise op {op!r} (need add|sub|mul|div)")
    if op == "div":
        zero = np.flatnonzero(y.data == 0.0)
        if zero.size:
            where = multi_index(int(zero[0]) + 1, y.shape)
            raise DivisionError(f"divisor entry {where} is exactly zero")
    return _from_rev(_finite(what, lambda: _OPS[op](_rev(x), _rev(y)), x.data, y.data))


def ew_binary(op: str, x: DenseTensor, y: DenseTensor) -> DenseTensor:
    """Entry-wise add/sub/mul/div of two broadcast-compatible tensors."""
    return _ew(op, x, y, "ew_binary")


def add(x: DenseTensor, y: DenseTensor) -> DenseTensor:
    return _ew("add", x, y, "add")


def subtract(x: DenseTensor, y: DenseTensor) -> DenseTensor:
    return _ew("sub", x, y, "subtract")


def multiply(x: DenseTensor, y: DenseTensor) -> DenseTensor:
    return _ew("mul", x, y, "multiply")


def divide(x: DenseTensor, y: DenseTensor) -> DenseTensor:
    return _ew("div", x, y, "divide")


def scale(a: float, x: DenseTensor) -> DenseTensor:
    """Multiply every entry by the scalar a."""
    x = _as_tensor(x, "scale")
    a = _as_real(a, "scale factor")
    return _from_rev(_finite("scale", lambda: a * _rev(x), x.data))


def inner(x: DenseTensor, y: DenseTensor) -> float:
    """Sum of the entry-wise products; shapes must match exactly.

    The plain dot product is returned unless it is inf or nan for finite
    operands. Then a product or partial sum overflowed, and the rounded
    products are summed again with math.fsum, each scaled exactly by 2**-e,
    e the largest exponent of a product: nothing overflows, and only
    products about 2**1074 below the largest are lost. The result is
    infinite only when the inner product itself is beyond float range.
    """
    x = _as_tensor(x, "inner")
    y = _as_tensor(y, "inner")
    if x.shape != y.shape:
        raise ShapeError(f"inner product needs equal shapes, got {_fmt_shape(x.shape)} and {_fmt_shape(y.shape)}")
    with np.errstate(over="ignore", invalid="ignore"):
        plain = float(x.data @ y.data)
    if math.isfinite(plain) or not (np.isfinite(x.data).all() and np.isfinite(y.data).all()):
        return plain
    # x_i y_i = mx_i my_i 2**(ex_i + ey_i); mx_i my_i is the rounded
    # product up to that power of two, and it is shifted by the exponent
    # of the largest product.
    mx, ex = np.frexp(x.data)
    my, ey = np.frexp(y.data)
    mantissa, exps = mx * my, ex + ey
    top = int(exps[mantissa != 0.0].max())
    scaled = math.fsum(np.ldexp(mantissa, exps - top))
    try:
        return math.ldexp(scaled, top)
    except OverflowError:
        return math.copysign(math.inf, scaled)


def frobenius_norm(x: DenseTensor) -> float:
    """Square root of the sum of squared entries.

    The entries are scaled by the power of two that brings max|x| into
    [0.5, 1), which is exact, so no square overflows and only squares far
    below the largest can underflow; the result is inf only when the norm
    itself is beyond float range.
    """
    x = _as_tensor(x, "frobenius_norm")
    exp = _scale_exponent(x.data)
    y = np.ldexp(x.data, -exp)
    try:
        return math.ldexp(math.sqrt(float(y @ y)), exp)
    except OverflowError:
        return math.inf


def sum_all(x: DenseTensor) -> float:
    x = _as_tensor(x, "sum_all")
    return float(_finite("sum_all", x.data.sum, x.data))


def outer(vs: Sequence[DenseTensor]) -> DenseTensor:
    """Outer product of vectors: entry (i1,...,iN) = prod_n v_n(i_n)."""
    vs = [_as_tensor(v, "outer") for v in _as_seq(vs, "outer product vectors")]
    if len(vs) == 0:
        raise ArgumentError("outer product needs at least one vector")
    for v in vs:
        if v.order != 1:
            raise ShapeError(f"outer product operands must be order-1, got order {v.order}")
    _check_order(len(vs))
    # Built in storage order: the reversed view of the result has the last
    # vector's axis first. v * acc == acc * v exactly, so entries are still
    # (v_1 v_2) v_3 ...
    def build():
        acc = vs[0].data
        for v in vs[1:]:
            acc = np.multiply.outer(v.data, acc)
        return acc

    return _from_rev(_finite("outer", build, *(v.data for v in vs)))
