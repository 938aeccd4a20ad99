"""A seeded contract sweep over tenkit's public names.

Every function, model class and TensorNetwork in tenkit.__all__, and
DenseTensor.from_array, is called with arguments drawn from a small grammar
of values: integers, bools, floats with nan and inf, strings, tuples, lists,
numpy arrays of several dtypes, tensors of order 0-3 (one of 1e308 entries,
one matrix with a column of 1e308, one of subnormals), a model of each
kind, a two-node network and its plan. The record dataclasses (QRResult,
SVDResult, CPFit, ContractionPlan) and the error classes are left out. The
contract:
- each call returns or raises a TenkitError (a warning counts as neither),
  or an OSError from a name that touches files, as README documents;
- every tensor returned, model and network parts included, holds a
  read-only, flat float64 buffer of prod(shape) entries;
- a tensor built by a public constructor shares no memory with any
  argument array, since those constructors copy what a caller passes;
- finite arguments give finite outputs, except from frobenius_norm and
  inner, which return inf when the true value is beyond float range;
- a NumericError's text starts with the name called, except from
  reconstruct, which raises under the model kind's reconstruct name, and
  the texts that name no function.

The integers are small or beyond what numpy can index, so no call
allocates more than a few megabytes.
"""

import dataclasses
import inspect
import itertools
import math
import warnings

import numpy as np
import pytest

import tenkit as tk
from tenkit import NumericError, TenkitError, core, errors

_NAN, _INF = float("nan"), float("inf")
_T0 = tk.DenseTensor((), [2.5])
_T1 = tk.DenseTensor((6,), [1.0, -2.0, 0.5, 0.0, 3.0, -1.0])
_T2 = tk.DenseTensor((2, 3), range(6))
_T3 = tk.DenseTensor((2, 1, 3), [0.0, _NAN, 1.0, -1.0, 4.0, 2.0])
_CUBE = tk.DenseTensor((2, 2, 2), [1.0, -2.0, 0.5, 3.0, 0.0, 1.5, -1.0, 2.0])
_E308 = tk.DenseTensor((2, 3, 2), [1e308] * 12)
_COLUMN_E308 = tk.DenseTensor((4, 2), [1e308] * 4 + [1.0, -1.0, 2.0, 0.5])
_SUBNORMAL = tk.DenseTensor((2, 2), [5e-324, -1e-310, 0.0, 2e-320])
_WEIGHTS = tk.DenseTensor((2,), [2.0, -1.0])
_FACTORS = (tk.DenseTensor((3, 2), [1.0, 0.0, 2.0, -1.0, 1.0, 0.5]), tk.DenseTensor((2, 2), [1.0, 1.0, 0.0, 2.0]), tk.identity(2))
_CORES = (tk.DenseTensor((1, 2, 2), [1.0, 2.0, -1.0, 0.5]), tk.DenseTensor((2, 3, 1), range(1, 7)))
_NODES = [("a", ("i",), _T1), ("b", ("i",), _T1)]
_NET = tk.TensorNetwork(_NODES, ())

GRAMMAR = [
    -1, 0, 1, 2, 3, 6, 10**20,
    True, False,
    0.5, 2.0, _NAN, _INF,
    "", "a", "b", ":", tk.dumps_tensor(_T2), tk.format_network(_NET),
    (), (1,), (2, 3), (3, 2, 1), (1, (1, 2)), (0, 2), (2, 1.5),
    [1, 2], [":", 1], [[1, 2], [3]], [2.0, _NAN],
    None,
    np.int64(2), np.float64(_NAN),
    np.arange(6).reshape(2, 3), np.array([[0.5, _NAN], [_INF, -1.0]]), np.zeros((0, 2)),
    np.array([1 + 2j, 3j]), np.array([1, "a"], dtype=object), np.array([[1.0, 2.0]]).T,
    _T0, _T1, _T2, _T3, _CUBE, _E308, _COLUMN_E308, _SUBNORMAL, _WEIGHTS,
    (_WEIGHTS, _T1), _FACTORS, _CORES, _NODES,
    tk.CPModel(_WEIGHTS, _FACTORS),
    tk.TuckerModel(_CUBE, _FACTORS),
    # A factor with more columns than rows.
    tk.TuckerModel(tk.all_ones((2, 2)), (tk.identity(2), tk.DenseTensor((1, 2), [1.0, 1.0]))),
    tk.TTTrain(_CORES),
    tk.TTTrain((tk.DenseTensor((1, 4, 1), [1e308] * 4), tk.DenseTensor((1, 2, 1), [1.0, 1.0]))),
    tk.TRRing((_CUBE, _CUBE)),
    _NET, tk.plan(_NET),
]

# Calls of up to two arguments are swept whole; longer ones are sampled,
# this many per arity. A sampled argument is one of the leading integers
# half the time, so that calls of three or four integers often get past
# their checks.
_SAMPLES = 2000
_INTS = 7
# A call known to succeed, made first, where sampling misses every one.
FIRST = {
    "ew_binary": ("add", _T2, _T2),
    "mode_product": (_CUBE, _SUBNORMAL, 1),
    "pair_cost": (_NET, "a", "b"),
    "tensor_product": (_T2, _SUBNORMAL, [(1, 1)]),
}

_NOT_CALLED = {"QRResult", "SVDResult", "CPFit", "ContractionPlan", *errors.__all__}
CALLS = {name: getattr(tk, name) for name in tk.__all__ if name not in _NOT_CALLED}
CALLS["from_array"] = tk.DenseTensor.from_array
CORE_NAMES = sorted(set(core.__all__) | {"from_array"})
# The constructors whose results must not share memory with their arguments.
COPYING = {"DenseTensor", "from_array"}
# The names that read or write files: they run in an empty directory holding
# a tensor file "a" and a model directory ":", and may raise OSError.
FILES = {"read_tensor", "write_tensor", "read_model", "write_model", "parse_network"}
# Documented to return inf when the true value is beyond float range.
MAY_OVERFLOW = {"frobenius_norm", "inner"}
# NumericError texts that name no function.
UNNAMED = ("jacobi svd did not converge", "contraction cost overflows 64-bit integers")


def _arities(fn):
    params = [
        p for p in inspect.signature(fn).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    required = sum(p.default is inspect.Parameter.empty for p in params)
    return range(required, len(params) + 1)


def _argument_tuples(name, fn):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name in FIRST:
        yield FIRST[name]
    for arity in _arities(fn):
        if arity <= 2:
            yield from itertools.product(GRAMMAR, repeat=arity)
        else:
            picks = np.where(
                rng.random((_SAMPLES, arity)) < 0.5,
                rng.integers(_INTS, size=(_SAMPLES, arity)),
                rng.integers(len(GRAMMAR), size=(_SAMPLES, arity)),
            )
            for row in picks:
                yield tuple(GRAMMAR[k] for k in row)


def _parts(value):
    """Every tensor and float in a value: an argument or a result, with the
    parts of tuples, lists, models, plans and networks."""
    if isinstance(value, (tk.DenseTensor, float, np.floating)):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _parts(v)
    elif isinstance(value, tk.TensorNetwork):
        for name in value.node_names:
            yield value.tensor(name)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _parts(getattr(value, f.name))


def _finite(value):
    """False if a tensor, float or float array in a value holds nan or inf."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    return all(np.isfinite(p.data if isinstance(p, tk.DenseTensor) else p).all() for p in _parts(value))


def _check_result(name, args, out):
    finite_in = name not in MAY_OVERFLOW and all(map(_finite, args))
    for part in _parts(out):
        if isinstance(part, tk.DenseTensor):
            data = part.data
            assert data.dtype == np.float64 and data.ndim == 1 and not data.flags.writeable, (name, args)
            assert data.size == math.prod(part.shape), (name, args)
            if name in COPYING:
                assert not any(np.shares_memory(data, a) for a in args if isinstance(a, np.ndarray)), (name, args)
        assert not finite_in or _finite(part), (name, args, out)
    for train in out if isinstance(out, tuple) else (out,):
        if isinstance(train, tk.TTTrain):
            energy = train.discarded_energy
            assert type(energy) is float and math.isfinite(energy) and energy >= 0, (name, args, energy)


def _check_error(name, args, exc):
    if isinstance(exc, NumericError) and name != "reconstruct":
        text = str(exc)
        assert text.startswith(f"{name} ") or text.startswith(UNNAMED), (name, args, text)


def _sweep(name):
    fn = CALLS[name]
    allowed = (TenkitError, OSError) if name in FILES else TenkitError
    calls = 0
    for args in _argument_tuples(name, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = fn(*args)
            except allowed as exc:
                _check_error(name, args, exc)
                continue
            except Exception as exc:  # the contract allows no other class
                pytest.fail(f"{name}{args!r} raised {type(exc).__name__}: {exc}")
        _check_result(name, args, out)
        calls += 1
    # The grammar reaches every function's success path at least once.
    assert calls > 0, name


@pytest.mark.parametrize("name", CORE_NAMES)
def test_core_calls_return_or_raise_tenkit_error(name):
    _sweep(name)


@pytest.mark.parametrize("name", sorted(CALLS.keys() - set(CORE_NAMES)))
def test_api_calls_return_or_raise_tenkit_error(name, tmp_path, monkeypatch):
    if name in FILES:
        monkeypatch.chdir(tmp_path)
        tk.write_tensor("a", _T2)
        tk.write_model(":", tk.CPModel(_WEIGHTS, _FACTORS))
    _sweep(name)
