import math

import numpy as np
import pytest

import tenkit as tk
from tenkit import ArgumentError, DivisionError, NumericError, ShapeError

from helpers import enumerate_indices, rand_tensor


def test_hadamard_equal_shapes_entrywise():
    rng = np.random.default_rng(0)
    a = rand_tensor(rng, (2, 2))
    b = rand_tensor(rng, (2, 2))
    c = tk.multiply(a, b)
    for i in (1, 2):
        for j in (1, 2):
            assert c.at(i, j) == a.at(i, j) * b.at(i, j)


def test_hadamard_with_all_ones_is_identity():
    rng = np.random.default_rng(1)
    x = rand_tensor(rng, (3, 2, 2))
    assert tk.multiply(x, tk.all_ones(x.shape)) == x


def test_standardize_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rand_tensor(rng, (3, 4))
    mu = rand_tensor(rng, (3,))
    sigma = tk.DenseTensor((3,), 1.0 + rng.random(3))
    z = tk.divide(tk.subtract(x, mu), sigma)
    assert z.shape == (3, 4)
    for i in range(1, 4):
        for j in range(1, 5):
            assert z.at(i, j) == (x.at(i, j) - mu.at(i)) / sigma.at(i)


def test_broadcast_shapes():
    assert tk.broadcast_shapes((3, 4), (3,)) == (3, 4)
    assert tk.broadcast_shapes((3, 1, 2), (3, 5, 1)) == (3, 5, 2)
    assert tk.broadcast_shapes((), (2, 2)) == (2, 2)
    with pytest.raises(ShapeError, match=r"\(3,4\).*\(2,4\)"):
        tk.broadcast_shapes((3, 4), (2, 4))


def test_division_by_zero_reports_first_multi_index():
    x = tk.all_ones((2, 2))
    y = tk.DenseTensor((2, 2), [1.0, 2.0, 0.0, 4.0])
    with pytest.raises(DivisionError, match=r"\(1, 2\)"):
        tk.divide(x, y)


def test_divide_multiply_round_trip():
    rng = np.random.default_rng(3)
    x = rand_tensor(rng, (3, 3))
    y = tk.DenseTensor((3, 3), rng.random(9) + 1.0)  # bounded away from 0
    back = tk.multiply(tk.divide(x, y), y)
    assert np.abs(back.data - x.data).max() <= 1e-12 * np.abs(x.data).max()


def test_hadamard_commutes_and_associates_exactly():
    rng = np.random.default_rng(4)
    x = rand_tensor(rng, (2, 3, 2))
    y = rand_tensor(rng, (2, 3, 2))
    assert tk.multiply(x, y) == tk.multiply(y, x)
    # Associativity is exact only while products stay representable, so
    # draw small integer entries (triple products fit the mantissa).
    ints = [tk.DenseTensor((2, 3, 2), rng.integers(-16, 17, size=12)) for _ in range(3)]
    xi, yi, zi = ints
    assert tk.multiply(tk.multiply(xi, yi), zi) == tk.multiply(xi, tk.multiply(yi, zi))


def test_hadamard_as_diagonal_matrix_map():
    rng = np.random.default_rng(5)
    x = rand_tensor(rng, (6,))
    y = tk.DenseTensor((6,), rng.random(6) + 1e-3)
    diag = tk.DenseTensor.from_array(np.diag(y.data))
    prod = tk.matmul(diag, tk.fold(x, (6, 1)))
    assert np.abs(tk.multiply(x, y).data - prod.data).max() <= 1e-12
    div = tk.matmul(tk.pinv(diag), tk.fold(x, (6, 1)))
    assert np.abs(tk.divide(x, y).data - div.data).max() <= 1e-12


def test_hadamard_via_super_diagonal_contraction():
    rng = np.random.default_rng(6)
    for r in (2, 4):
        a = rand_tensor(rng, (r,))
        b = rand_tensor(rng, (r,))
        sd = tk.super_diagonal(3, r)
        contracted = tk.multi_mode_product(
            sd, [None, tk.fold(a, (1, r)), tk.fold(b, (1, r))]
        )
        result = tk.subtensor(contracted, [":", 1, 1])
        assert np.abs(result.data - tk.multiply(a, b).data).max() <= 1e-15


def test_ew_binary_dispatch():
    rng = np.random.default_rng(12)
    x = rand_tensor(rng, (2, 3))
    y = rand_tensor(rng, (2, 3))
    assert tk.ew_binary("add", x, y) == tk.add(x, y)
    assert tk.ew_binary("sub", x, y) == tk.subtract(x, y)
    assert tk.ew_binary("mul", x, y) == tk.multiply(x, y)
    z = tk.DenseTensor((2, 3), rng.random(6) + 1.0)
    assert tk.ew_binary("div", x, z) == tk.divide(x, z)
    with pytest.raises(ArgumentError):
        tk.ew_binary("pow", x, y)
    with pytest.raises(ArgumentError):
        tk.ew_binary([1, 2], x, y)  # an unhashable op


def test_scale():
    rng = np.random.default_rng(7)
    x = rand_tensor(rng, (2, 2))
    assert tk.scale(1.0, x) == x
    assert tk.scale(0.0, x) == tk.zeros((2, 2))
    assert tk.scale(2.0, tk.DenseTensor((3,), [1, 2, 3])).data.tolist() == [2, 4, 6]
    assert tk.scale(2.0, tk.vec(x)) == tk.vec(tk.scale(2.0, x))


def test_inner():
    assert tk.inner(tk.one_hot(2, 3), tk.one_hot(2, 3)) == 1.0
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, (2, 3))
    assert tk.inner(x, tk.zeros((2, 3))) == 0.0
    ramp = tk.DenseTensor((2, 2), [1, 2, 3, 4])
    assert tk.inner(ramp, ramp) == 30.0
    assert tk.inner(x, x) == tk.inner(tk.vec(x), tk.vec(x))
    with pytest.raises(ShapeError):
        tk.inner(x, tk.zeros((3, 2)))


def test_frobenius_norm():
    assert tk.frobenius_norm(tk.zeros((2, 3))) == 0.0
    assert tk.frobenius_norm(tk.one_hot(1, 5)) == 1.0
    ramp = tk.DenseTensor((2, 2), [1, 2, 3, 4])
    assert tk.frobenius_norm(ramp) == math.sqrt(30.0)
    rng = np.random.default_rng(9)
    x = rand_tensor(rng, (3, 2, 4))
    for n in (1, 2, 3):
        assert abs(tk.frobenius_norm(tk.matricize(x, n)) - tk.frobenius_norm(x)) <= 1e-12


@pytest.mark.parametrize("s", [1e154, 1e300, 1e-170, 1e-300])
def test_frobenius_norm_far_from_unit_scale(s):
    # The oracle is numpy's norm of x at unit scale, times s; squaring the
    # entries of s * x directly would overflow or underflow.
    x = np.random.default_rng(30).standard_normal((3, 4, 5))
    want = float(np.linalg.norm(x.ravel())) * s
    got = tk.frobenius_norm(tk.DenseTensor.from_array(s * x))
    assert abs(got - want) <= 1e-14 * want


def test_frobenius_norm_is_exact_under_power_of_two_scaling():
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = rng.standard_normal(int(rng.integers(1, 200)))
        e = int(rng.integers(-900, 900))
        # At unit scale nothing overflows or underflows, and the result is
        # the plain square root of the sum of squares, bit for bit.
        unit = math.sqrt(float(x @ x))
        assert tk.frobenius_norm(tk.DenseTensor.from_array(x)) == unit
        assert tk.frobenius_norm(tk.DenseTensor.from_array(np.ldexp(x, e))) == math.ldexp(unit, e)


def test_frobenius_norm_beyond_float_range_is_inf():
    assert tk.frobenius_norm(tk.DenseTensor.from_array(np.full(4, 1.5e308))) == math.inf


def _inner(x, y):
    return tk.inner(tk.DenseTensor.from_array(x), tk.DenseTensor.from_array(y))


def test_inner_is_exact_under_power_of_two_scaling():
    rng = np.random.default_rng(32)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        j = int(rng.integers(-900, 900))
        k = int(rng.integers(max(-900, -900 - j), min(900, 900 - j)))
        # As for frobenius_norm: at unit scale the result is the plain dot
        # product, and scaling the operands by 2**j and 2**k scales it by
        # 2**(j + k), bit for bit.
        unit = float(x @ y)
        assert _inner(x, y) == unit
        assert _inner(np.ldexp(x, j), np.ldexp(y, k)) == math.ldexp(unit, j + k)
        # Two products of +-2**1200 overflow the plain dot product and cancel: the
        # rescaled sum is the correctly rounded sum of the other products,
        # and exact under the same scaling.
        bx = np.concatenate([np.ldexp([1.0, 1.0], 600), np.ldexp(x, 500)])
        by = np.concatenate([np.ldexp([1.0, -1.0], 600), np.ldexp(y, 500)])
        j, k = int(rng.integers(-50, 5)), int(rng.integers(-50, 5))
        rescaled = _inner(bx, by)
        assert rescaled == math.ldexp(math.fsum(x * y), 1000)
        assert _inner(np.ldexp(bx, j), np.ldexp(by, k)) == math.ldexp(rescaled, j + k)


def test_inner_partial_sums_do_not_overflow():
    # The true value 1e308 is in range, but 1e308 + 1e308 is not.
    big = tk.DenseTensor((3,), [1e308, 1e308, -1e308])
    assert tk.inner(big, tk.all_ones((3,))) == 1e308
    # About 4e-340 is below the smallest subnormal, and 4e320 above the
    # largest float: the result is 0.0, or inf with the true value's sign.
    tiny, huge = tk.DenseTensor((4,), [1e-170] * 4), tk.DenseTensor((4,), [1e160] * 4)
    assert tk.inner(tiny, tiny) == 0.0
    assert tk.inner(huge, huge) == math.inf
    assert tk.inner(huge, tk.scale(-1.0, huge)) == -math.inf


def test_inner_mixed_scales_within_an_operand():
    # The largest product can sit far below max|x| max|y|; it is kept.
    assert _inner(np.array([1e300, 1e-300]), np.array([0.0, 1e300])) == 1.0
    assert _inner(np.array([1e300, 1e-10]), np.array([0.0, 1e10])) == 1e-10 * 1e10
    # 1e320 - 1e320 overflows the plain sum; 1 is 2**1063 below the largest
    # product, so the rescaled sum still holds it.
    assert _inner(np.array([1e160, 1e160, 1e-100]), np.array([1e160, -1e160, 1e100])) == 1.0
    assert _inner(np.array([1e308, 1e308, -1e308, 1e-300, 1e300]), np.array([1.0, 1.0, 1.0, 1e300, 0.0])) == 1e308 + 1.0


def test_sum_all():
    assert tk.sum_all(tk.zeros((2, 2))) == 0.0
    assert tk.sum_all(tk.all_ones((2, 3, 4))) == 24.0
    assert tk.sum_all(tk.DenseTensor((2, 3), range(1, 7))) == 21.0
    rng = np.random.default_rng(10)
    x = rand_tensor(rng, (2, 2, 2))
    assert abs(tk.sum_all(x) - tk.inner(x, tk.all_ones(x.shape))) <= 1e-12


def test_outer_examples():
    e1 = tk.one_hot(1, 2)
    e2 = tk.one_hot(2, 2)
    assert tk.outer([e1, e2]) == tk.matrix_unit(1, 2, 2, 2)

    rng = np.random.default_rng(11)
    a = rand_tensor(rng, (3,))
    b = rand_tensor(rng, (4,))
    ab = tk.outer([a, b])
    assert ab == tk.matmul(tk.fold(a, (3, 1)), tk.permute(tk.fold(b, (4, 1)), [2, 1]))

    # vec(outer(b, a)) equals kronecker(a, b) with the operand order reversed
    assert tk.vec(tk.outer([b, a])) == tk.fold(
        tk.vec(tk.kronecker(tk.fold(a, (3, 1)), tk.fold(b, (4, 1)))), (12,)
    )

    with pytest.raises(ArgumentError):
        tk.outer([])
    with pytest.raises(ShapeError):
        tk.outer([a, ab])


@pytest.mark.parametrize("shape", [(3, 4, 2), (2, 3, 4, 3)])
def test_outer_of_many_vectors_matches_a_loop_oracle_bit_for_bit(shape):
    # The oracle multiplies left to right, (v1 v2) v3 ..., one index at a
    # time; an outer product that associated the other way would differ in
    # the last bit of many entries.
    rng = np.random.default_rng(13)
    for _ in range(20):
        vs = [rng.standard_normal(e) for e in shape]
        want = []
        for idx in enumerate_indices(shape):
            p = vs[0][idx[0] - 1]
            for v, i in zip(vs[1:], idx[1:]):
                p = p * v[i - 1]
            want.append(p)
        got = tk.outer([tk.DenseTensor((e,), v) for e, v in zip(shape, vs)])
        assert got.shape == shape
        assert got.data.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_ew_binary_with_order_zero_operands(op):
    fn = {"add": float.__add__, "sub": float.__sub__, "mul": float.__mul__, "div": float.__truediv__}[op]
    s = tk.DenseTensor((), [2.5])
    t = tk.DenseTensor((), [-0.75])
    x = tk.DenseTensor((2, 3), [1.0, -2.0, 3.5, 4.0, 0.5, 6.0])
    both = tk.ew_binary(op, s, t)
    assert both.shape == () and both.item() == fn(2.5, -0.75)
    left = tk.ew_binary(op, s, x)
    assert left.shape == (2, 3) and left.data.tolist() == [fn(2.5, v) for v in x.data.tolist()]
    right = tk.ew_binary(op, x, t)
    assert right.shape == (2, 3) and right.data.tolist() == [fn(v, -0.75) for v in x.data.tolist()]


def test_division_by_an_order_zero_zero():
    with pytest.raises(DivisionError, match=r"^divisor entry \(\) is exactly zero$"):
        tk.divide(tk.all_ones((2,)), tk.DenseTensor((), [0.0]))


_NEAR_MAX = tk.DenseTensor((2, 2), [1e308, -1.0, 2.0, 1e308])
_TINY = tk.DenseTensor((2, 2), [1e-10, 1.0, 1.0, 1.0])
_E200 = tk.DenseTensor((1, 2), [1e200, 3.0])
_E200_CUBE = tk.DenseTensor((1, 1, 1), [1e200])
_E200_NET = tk.TensorNetwork([("A", ("i", "j"), _E200), ("B", ("k", "j"), _E200)], ("i", "k"))
_E200_ONE = tk.DenseTensor((1, 1), [1e200])
_E200_TUCKER = tk.TuckerModel(_E200_CUBE, (_E200_ONE,) * 3)
# weight 1e300 times three factor entries 1e10
_E300_CP = tk.CPModel(tk.DenseTensor((1,), [1e300]), (tk.DenseTensor((2, 1), [1e10, 1.0]),) * 3)
# two 1x1x1 cores of 1e200, whose chain is 1e400
_E200_TRAIN = tk.TTTrain((_E200_CUBE,) * 2)
_E200_RING = tk.TRRing((_E200_CUBE,) * 2)
# one slice diag(1e308, 1e308), whose trace is 2e308
_E308_RING = tk.TRRing((tk.DenseTensor((2, 1, 2), [1e308, 0.0, 0.0, 1e308]),))


@pytest.mark.parametrize(
    "name, call",
    [
        ("add", lambda: tk.add(_NEAR_MAX, _NEAR_MAX)),
        ("subtract", lambda: tk.subtract(_NEAR_MAX, tk.scale(-1.0, _NEAR_MAX))),
        ("multiply", lambda: tk.multiply(_E200, _E200)),
        ("divide", lambda: tk.divide(_NEAR_MAX, _TINY)),
        ("ew_binary", lambda: tk.ew_binary("mul", _NEAR_MAX, tk.DenseTensor((), [10.0]))),
        ("scale", lambda: tk.scale(10.0, _NEAR_MAX)),
        ("sum_all", lambda: tk.sum_all(_NEAR_MAX)),
        ("kronecker", lambda: tk.kronecker(_E200, _E200)),
        ("tensor_product", lambda: tk.tensor_product(_E200, _E200, [(2, 2)])),
        ("tt_pair_product", lambda: tk.tt_pair_product(_E200_CUBE, _E200_CUBE)),
        ("evaluate", lambda: tk.evaluate(_E200_NET, tk.plan(_E200_NET))),
        ("matmul", lambda: tk.matmul(_E200, tk.permute(_E200, [2, 1]))),
        ("mode_product", lambda: tk.mode_product(_E200_CUBE, _E200_ONE, 2)),
        ("multi_mode_product", lambda: tk.multi_mode_product(_E200_CUBE, [None, None, _E200_ONE])),
        ("khatri_rao", lambda: tk.khatri_rao(_E200, _E200)),
        ("outer", lambda: tk.outer([tk.DenseTensor((2,), [3.0, 1e200])] * 2)),
        ("trace", lambda: tk.trace(_NEAR_MAX)),
        ("tucker_reconstruct", lambda: tk.tucker_reconstruct(_E200_TUCKER)),
        ("tucker_orthogonalize", lambda: tk.tucker_orthogonalize(_E200_TUCKER)),
        ("hosvd", lambda: tk.hosvd(tk.DenseTensor((2, 2), [1e308] * 4))),  # a core entry of 2e308
        ("tt_orthogonalize", lambda: tk.tt_orthogonalize(_E200_TRAIN, 2)),
        ("cp_reconstruct", lambda: tk.cp_reconstruct(_E300_CP)),
        ("tr_reconstruct", lambda: tk.tr_reconstruct(_E308_RING)),
        pytest.param("tt_chain", lambda: tk.tt_chain(_E200_TRAIN), id="tt_chain-train"),
        pytest.param("tt_chain", lambda: tk.tt_chain(_E200_RING), id="tt_chain-ring"),
        pytest.param("tt_reconstruct", lambda: tk.tt_reconstruct(_E200_TRAIN), id="tt_reconstruct-train"),
        pytest.param("tr_reconstruct", lambda: tk.tr_reconstruct(_E200_RING), id="tr_reconstruct-ring"),
    ],
)
def test_finite_inputs_that_overflow_raise(name, call):
    # Under the suite's RuntimeWarning filter a numpy overflow warning would
    # surface first, so this also shows that none is raised.
    with pytest.raises(NumericError, match=rf"^{name} result is beyond float range$"):
        call()


def test_sum_all_that_overflows_midway_to_nan_raises():
    # numpy's pairwise summation adds the first two and the next two
    # entries apart and then meets inf + -inf: finite inputs, a NaN result.
    x = tk.DenseTensor((8,), [1e308, 1e308, -1e308, -1e308, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(NumericError, match="^sum_all result is beyond float range$"):
        tk.sum_all(x)


def test_non_finite_inputs_pass_through_entry_wise_ops():
    x = tk.DenseTensor((3,), [math.inf, -math.inf, math.nan])
    got = tk.add(x, tk.DenseTensor((3,), [-math.inf, 1.0, 1.0]))
    assert np.isnan(got.data[0]) and got.data[1] == -math.inf and np.isnan(got.data[2])
    assert np.isnan(tk.sum_all(x))
    assert tk.scale(2.0, x).data[0] == math.inf
    assert tk.kronecker(tk.DenseTensor((1, 1), [math.inf]), tk.DenseTensor((1, 1), [2.0])).data[0] == math.inf
    # A result near the top of the range, but finite, is returned as is.
    assert tk.sum_all(tk.DenseTensor((2,), [1e308, 7e307])) == 1.7e308
