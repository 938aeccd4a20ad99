"""A seeded contract sweep over tenkit.core's public names.

Every name in core.__all__, and DenseTensor.from_array, is called with
arguments drawn from a small grammar of values: integers, bools, floats
with nan and inf, strings, tuples, lists, numpy arrays of several dtypes
and tensors of order 0-3. The contract: each call returns or raises a
TenkitError (a warning counts as neither); every tensor returned holds a
read-only, flat float64 buffer of prod(shape) entries; and a tensor built
by a public constructor shares no memory with any argument array, since
those constructors copy what a caller passes.

The integers are small or beyond what numpy can index, so no call
allocates more than a few megabytes.
"""

import inspect
import itertools
import math
import warnings

import numpy as np
import pytest

import tenkit as tk
from tenkit import TenkitError, core

_NAN, _INF = float("nan"), float("inf")
_T0 = tk.DenseTensor((), [2.5])
_T1 = tk.DenseTensor((6,), [1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
_T2 = tk.DenseTensor((2, 3), range(6))
_T3 = tk.DenseTensor((2, 1, 3), [0.0, _NAN, 1.0, -1.0, 4.0, 2.0])

GRAMMAR = [
    -1, 0, 1, 2, 3, 6, 10**20,
    True, False,
    0.5, 2.0, _NAN, _INF,
    "", "a", ":",
    (), (1,), (2, 3), (3, 2, 1), (1, (1, 2)), (0, 2), (2, 1.5),
    [1, 2], [":", 1], [[1, 2], [3]], [2.0, _NAN],
    None,
    np.int64(2), np.float64(_NAN),
    np.arange(6).reshape(2, 3), np.array([[0.5, _NAN], [_INF, -1.0]]), np.zeros((0, 2)),
    np.array([1 + 2j, 3j]), np.array([1, "a"], dtype=object), np.array([[1.0, 2.0]]).T,
    _T0, _T1, _T2, _T3,
]

# At most this many argument tuples per function; smaller products are swept
# whole. A sampled argument is one of the leading integers half the time, so
# that calls of three or four integers often get past their checks.
_PER_FUNCTION = 2000
_INTS = 7

CALLS = {name: getattr(core, name) for name in core.__all__}
CALLS["from_array"] = tk.DenseTensor.from_array
# The constructors whose results must not share memory with their arguments.
COPYING = {"DenseTensor", "from_array"}


def _arities(fn):
    params = inspect.signature(fn).parameters.values()
    required = sum(p.default is inspect.Parameter.empty for p in params)
    return range(required, len(params) + 1)


def _argument_tuples(name, fn):
    rng = np.random.default_rng(sum(map(ord, name)))
    for arity in _arities(fn):
        total = len(GRAMMAR) ** arity
        if total <= _PER_FUNCTION:
            yield from itertools.product(GRAMMAR, repeat=arity)
        else:
            picks = np.where(
                rng.random((_PER_FUNCTION, arity)) < 0.5,
                rng.integers(_INTS, size=(_PER_FUNCTION, arity)),
                rng.integers(len(GRAMMAR), size=(_PER_FUNCTION, arity)),
            )
            for row in picks:
                yield tuple(GRAMMAR[k] for k in row)


def _check_result(name, args, out):
    if isinstance(out, tk.DenseTensor):
        data = out.data
        assert data.dtype == np.float64 and data.ndim == 1 and not data.flags.writeable, (name, args)
        assert data.size == math.prod(out.shape), (name, args)
        if name in COPYING:
            assert not any(np.shares_memory(data, a) for a in args if isinstance(a, np.ndarray)), (name, args)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_core_calls_return_or_raise_tenkit_error(name):
    fn = CALLS[name]
    calls = 0
    for args in _argument_tuples(name, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = fn(*args)
            except TenkitError:
                continue
            except Exception as exc:  # the contract allows no other class
                pytest.fail(f"{name}{args!r} raised {type(exc).__name__}: {exc}")
        _check_result(name, args, out)
        calls += 1
    # The grammar reaches every function's success path at least once.
    assert calls > 0, name
