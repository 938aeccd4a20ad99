"""Degenerate inputs: malformed files, scalars, zero tensors, deep orders."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import tenkit as tk
from tenkit import ArgumentError, ModelError, NumericError, ParseError, ShapeError, TenkitError

from helpers import rand_tensor

BAD_TN = [
    "node",
    "node A",
    "node A [",
    "node A [i] @",
    "output",
    "output [",
    ";;;",
    "node A [i=x] = 1",
    "node A [i=2] 1 2",
    "node A [i=2] = one",
    "node 9bad [i=2] = 1 2\noutput [i]",
    "node A [i=0] = \noutput [i]",
    "[i]",
    "node A [i=2] = 1 2\noutput [i] extra",
]

BAD_TEN = [
    "",
    "order",
    "order -1",
    "order 2\nshape -2 2\ndata\n1 2 3 4",
    "order 1\nshape 2\ndata\n1",
    "data\norder 1\nshape 1\n1",
]


_X = tk.DenseTensor((2, 3, 4), range(24))
_TRAIN = tk.tt_svd(_X)
_M = tk.matricize(_X, 1)

# Each call passes a bool or a non-integer where an integer is required,
# or a non-number where a number is required; int() would truncate some of
# them silently, others would leak a raw TypeError, IndexError or
# ValueError.
BAD_INT_ARGS = {
    "at_float_index": lambda: _X.at(1.5, 1, 1),
    "linear_index_float": lambda: tk.linear_index((1, np.float64(2.0)), (2, 3)),
    "bool_extent": lambda: tk.DenseTensor((True, 2), [1.0, 2.0]),
    "float_extent": lambda: tk.zeros((2.5, 2)),
    "mode_product_float_mode": lambda: tk.mode_product(_X, tk.identity(2), 1.0),
    "mode_product_bool_mode": lambda: tk.mode_product(_X, tk.identity(2), True),
    "permute": lambda: tk.permute(_X, [1.5, 2, 3]),
    "subtensor_index": lambda: tk.subtensor(_X, [1.5, ":", ":"]),
    "subtensor_range": lambda: tk.subtensor(_X, [(1, 1.5), ":", ":"]),
    "tt_svd_caps": lambda: tk.tt_svd(_X, max_ranks=[1.7, 2.9]),
    "matricize": lambda: tk.matricize(_X, 1.5),
    "k_unfold": lambda: tk.k_unfold(_X, 1.5),
    "tt_split": lambda: tk.tt_split(_TRAIN, 2.5),
    "tt_orthogonalize": lambda: tk.tt_orthogonalize(_TRAIN, 1.5),
    "cp_als_rank": lambda: tk.cp_als(_X, 1.5, max_sweeps=2, restarts=1),
    "cp_als_sweeps": lambda: tk.cp_als(_X, 1, max_sweeps=2.5, restarts=1),
    "cp_als_restarts": lambda: tk.cp_als(_X, 1, max_sweeps=2, restarts=1.5),
    "one_hot": lambda: tk.one_hot(1.5, 3),
    "multi_index": lambda: tk.multi_index(2.5, (2, 3)),
    "identity": lambda: tk.identity(2.5),
    "super_diagonal": lambda: tk.super_diagonal(3, 2.5),
    "truncated_hosvd_ranks": lambda: tk.truncated_hosvd(_X, (1.5, 2, 2)),
    "truncated_svd_rank": lambda: tk.truncated_svd(_M, 1.5),
    "cp_als_seed": lambda: tk.cp_als(_X, 1, seed=1.5, max_sweeps=2, restarts=1),
    "matrix_unit": lambda: tk.matrix_unit(1.5, 1, 2, 2),
    "tensor_product_float_pair": lambda: tk.tensor_product(_X, _X, [(1.5, 1)]),
    "tensor_product_bool_pair": lambda: tk.tensor_product(_X, _X, [(True, True)]),
    "linear_index_float_extent": lambda: tk.linear_index((2, 1), (2.5, 3)),
    "multi_index_float_extent": lambda: tk.multi_index(5, (2.5, 3)),
    "element_count_float_extent": lambda: tk.element_count((2.5, 3)),
    "broadcast_shapes_float_extent": lambda: tk.broadcast_shapes((2.5,), (2,)),
    "scale_tensor": lambda: tk.scale(_X, _X),
    "scale_string": lambda: tk.scale("a", _X),
    "scale_tuple": lambda: tk.scale((), _X),
    "scale_inf": lambda: tk.scale(float("inf"), _X),
    "scale_bool": lambda: tk.scale(True, _X),
    "scale_int_beyond_float": lambda: tk.scale(10**400, _X),
    "format_float_string": lambda: tk.format_float("a"),
    "format_float_tensor": lambda: tk.format_float(_X),
}

_NET = tk.parse_network("node A [i=2] = 1 2; node B [i=2] = 3 4; output []")

# Each call passes a scalar, a string or a sequence of the wrong length
# where a sequence is required, a sequence whose entries are of the wrong
# kind, or an array where a string is (an array compared with a string is
# an array, whose truth value numpy refuses).
BAD_SEQUENCE_ARGS = {
    "tensor_product_triple": lambda: tk.tensor_product(_X, _X, [(1, 1, 1)]),
    "subtensor_range_triple": lambda: tk.subtensor(_X, [(1, 2, 3), ":", ":"]),
    "linear_index_scalar": lambda: tk.linear_index(5, (2, 3)),
    "tensor_scalar_shape": lambda: tk.DenseTensor(6, range(6)),
    "zeros_scalar_shape": lambda: tk.zeros(3),
    "permute_scalar": lambda: tk.permute(_X, 2),
    "fold_scalar_shape": lambda: tk.fold(tk.vec(_X), 24),
    "truncated_hosvd_scalar_ranks": lambda: tk.truncated_hosvd(_X, 2),
    "truncated_hosvd_no_ranks": lambda: tk.truncated_hosvd(_X, None),
    "tt_svd_scalar_caps": lambda: tk.tt_svd(_X, max_ranks=2),
    "plan_int_strategy": lambda: tk.plan(_NET, 5),
    "plan_none_strategy": lambda: tk.plan(_NET, None),
    "plan_triple_step": lambda: tk.plan(_NET, [("A", "B", "C")]),
    "plan_string_step": lambda: tk.plan(_NET, ["AB"]),
    "plan_string_array_strategy": lambda: tk.plan(_NET, np.array(["exhaustive", "greedy"])),
    "plan_int_array_strategy": lambda: tk.plan(_NET, np.array([1, 2])),
    "ew_binary_string_array_op": lambda: tk.ew_binary(np.array(["add", "div"]), _X, _X),
    "ew_binary_int_array_op": lambda: tk.ew_binary(np.array([1, 2]), _X, _X),
    "network_list_tensor": lambda: tk.TensorNetwork([("A", ("i",), [1.0, 2.0])], ("i",)),
    "network_int_name": lambda: tk.TensorNetwork([(5, ("i",), tk.zeros((2,)))], ("i",)),
    "network_int_nodes": lambda: tk.TensorNetwork(5, ["i"]),
    "network_no_nodes": lambda: tk.TensorNetwork([], ()),
    "super_diagonal_string_weights": lambda: tk.super_diagonal(2, 2, "ab"),
    "super_diagonal_nan_weight": lambda: tk.super_diagonal(2, 2, [float("nan"), 1.0]),
    "tensor_string_data": lambda: tk.DenseTensor((2,), "ab"),
    "tensor_dict_data": lambda: tk.DenseTensor((2,), {"a": 1}),
    "tensor_none_entry": lambda: tk.DenseTensor((2,), [None, 1]),
    "tensor_ragged_data": lambda: tk.DenseTensor((3,), [[1, 2], [3]]),
    "outer_int": lambda: tk.outer(0),
    "outer_tensor": lambda: tk.outer(_X),
    "cp_model_int_factors": lambda: tk.CPModel(tk.one_hot(1, 1), 0),
    "tucker_model_int_factors": lambda: tk.TuckerModel(tk.one_hot(1, 1), 0),
    "tt_train_tensor_cores": lambda: tk.TTTrain(_X),
    "broadcast_shapes_tensors": lambda: tk.broadcast_shapes(_X, _X),
    "element_count_tensor": lambda: tk.element_count(_X),
}

# Each call passes something other than a DenseTensor where a tensor is
# required, or other than a TensorNetwork, a ContractionPlan, a str or a
# path where one of those is. An int path would be a file descriptor; -1
# is one that open() refuses.
NOT_A_TENSOR_ARGS = {
    "svd_int": lambda: tk.svd(0),
    "hosvd_int": lambda: tk.hosvd(0),
    "tt_svd_none": lambda: tk.tt_svd(None),
    "qr_list": lambda: tk.qr([1, 2]),
    "pinv_float": lambda: tk.pinv(1.0),
    "truncated_svd_string": lambda: tk.truncated_svd("ab", 1),
    "numerical_rank_ndarray": lambda: tk.numerical_rank(np.eye(2)),
    "truncated_hosvd_none": lambda: tk.truncated_hosvd(None, (1, 1)),
    "cp_als_int": lambda: tk.cp_als(0, 3),
    "matmul_left_int": lambda: tk.matmul(0, _M),
    "matmul_right_int": lambda: tk.matmul(_M, 0),
    "trace_int": lambda: tk.trace(0),
    "kronecker_int": lambda: tk.kronecker(0, _M),
    "khatri_rao_int": lambda: tk.khatri_rao(_M, 0),
    "mode_product_x_int": lambda: tk.mode_product(0, tk.identity(2), 1),
    "mode_product_matrix_int": lambda: tk.mode_product(_X, 0, 1),
    "fold_int": lambda: tk.fold(0, (2,)),
    "kronecker_right_int": lambda: tk.kronecker(_M, 0),
    "khatri_rao_left_int": lambda: tk.khatri_rao(0, _M),
    "permute_int": lambda: tk.permute(0, [1]),
    "vec_int": lambda: tk.vec(0),
    "matricize_int": lambda: tk.matricize(0, 1),
    "k_unfold_int": lambda: tk.k_unfold(0, 1),
    "subtensor_int": lambda: tk.subtensor(0, [1]),
    "ew_binary_left_int": lambda: tk.ew_binary("add", 0, _X),
    "ew_binary_right_int": lambda: tk.ew_binary("add", _X, 0),
    "add_left_int": lambda: tk.add(0, _X),
    "add_right_int": lambda: tk.add(_X, 0),
    "subtract_left_int": lambda: tk.subtract(0, _X),
    "subtract_right_int": lambda: tk.subtract(_X, 0),
    "multiply_left_int": lambda: tk.multiply(0, _X),
    "multiply_right_int": lambda: tk.multiply(_X, 0),
    "divide_left_int": lambda: tk.divide(0, _X),
    "divide_right_int": lambda: tk.divide(_X, 0),
    "scale_int": lambda: tk.scale(2.0, 0),
    "inner_left_int": lambda: tk.inner(0, _X),
    "inner_right_int": lambda: tk.inner(_X, 0),
    "frobenius_norm_int": lambda: tk.frobenius_norm(0),
    "sum_all_int": lambda: tk.sum_all(0),
    "outer_entry_int": lambda: tk.outer([tk.one_hot(1, 2), 0]),
    "multi_mode_product_int": lambda: tk.multi_mode_product(0, [None]),
    "tensor_product_left_int": lambda: tk.tensor_product(0, _X, []),
    "tensor_product_right_int": lambda: tk.tensor_product(_X, 0, []),
    "tt_pair_product_left_int": lambda: tk.tt_pair_product(0, _X),
    "tt_pair_product_right_int": lambda: tk.tt_pair_product(_X, 0),
    "dumps_tensor_int": lambda: tk.dumps_tensor(0),
    # The directory does not exist, so nothing is written even if the check fails.
    "write_tensor_int": lambda: tk.write_tensor(Path("no-such-dir") / "x.ten", 0),
    "cp_model_weights_int": lambda: tk.CPModel(0, ()),
    "cp_model_factor_int": lambda: tk.CPModel(tk.one_hot(1, 1), (0,)),
    "tucker_model_core_int": lambda: tk.TuckerModel(0, ()),
    "tucker_model_factor_int": lambda: tk.TuckerModel(tk.one_hot(1, 1), (0,)),
    "tt_train_core_int": lambda: tk.TTTrain((0,)),
    "tr_ring_core_int": lambda: tk.TRRing((0,)),
    "pair_cost_int": lambda: tk.pair_cost(1, 1, 3),
    "plan_int": lambda: tk.plan(1),
    "evaluate_net_int": lambda: tk.evaluate(1, 2),
    "evaluate_plan_int": lambda: tk.evaluate(_NET, 2),
    "format_network_int": lambda: tk.format_network(1),
    "parse_network_int": lambda: tk.parse_network(0),
    "loads_tensor_tensor": lambda: tk.loads_tensor(_X),
    "read_tensor_int": lambda: tk.read_tensor(-1),
    "write_tensor_path_int": lambda: tk.write_tensor(-1, _X),
    "read_model_int": lambda: tk.read_model(-1),
    "write_model_int": lambda: tk.write_model(-1, _TRAIN),
    "parse_network_base_dir_int": lambda: tk.parse_network("node A [i=2] = 1 2; output [i]", -1),
}

# The function and parameter each NOT_A_TENSOR_ARGS case passes its
# non-tensor to; the error message names the function.
NOT_A_TENSOR_PARAMS = {
    "svd_int": "svd.m",
    "hosvd_int": "hosvd.x",
    "tt_svd_none": "tt_svd.x",
    "qr_list": "qr.m",
    "pinv_float": "pinv.m",
    "truncated_svd_string": "truncated_svd.m",
    "numerical_rank_ndarray": "numerical_rank.m",
    "truncated_hosvd_none": "truncated_hosvd.x",
    "cp_als_int": "cp_als.x",
    "matmul_left_int": "matmul.a",
    "matmul_right_int": "matmul.b",
    "trace_int": "trace.s",
    "kronecker_int": "kronecker.a",
    "khatri_rao_int": "khatri_rao.b",
    "mode_product_x_int": "mode_product.x",
    "mode_product_matrix_int": "mode_product.a",
    "fold_int": "fold.v",
    "kronecker_right_int": "kronecker.b",
    "khatri_rao_left_int": "khatri_rao.a",
    "permute_int": "permute.x",
    "vec_int": "vec.x",
    "matricize_int": "matricize.x",
    "k_unfold_int": "k_unfold.x",
    "subtensor_int": "subtensor.x",
    "ew_binary_left_int": "ew_binary.x",
    "ew_binary_right_int": "ew_binary.y",
    "add_left_int": "add.x",
    "add_right_int": "add.y",
    "subtract_left_int": "subtract.x",
    "subtract_right_int": "subtract.y",
    "multiply_left_int": "multiply.x",
    "multiply_right_int": "multiply.y",
    "divide_left_int": "divide.x",
    "divide_right_int": "divide.y",
    "scale_int": "scale.x",
    "inner_left_int": "inner.x",
    "inner_right_int": "inner.y",
    "frobenius_norm_int": "frobenius_norm.x",
    "sum_all_int": "sum_all.x",
    "outer_entry_int": "outer.vs",
    "multi_mode_product_int": "multi_mode_product.g",
    "tensor_product_left_int": "tensor_product.a",
    "tensor_product_right_int": "tensor_product.b",
    "tt_pair_product_left_int": "tt_pair_product.x",
    "tt_pair_product_right_int": "tt_pair_product.y",
    "dumps_tensor_int": "dumps_tensor.t",
    "write_tensor_int": "write_tensor.t",
    "cp_model_weights_int": "CPModel.weights",
    "cp_model_factor_int": "CPModel.factors",
    "tucker_model_core_int": "TuckerModel.core",
    "tucker_model_factor_int": "TuckerModel.factors",
    "tt_train_core_int": "TTTrain.cores",
    "tr_ring_core_int": "TRRing.cores",
    "pair_cost_int": "pair_cost.net",
    "plan_int": "plan.net",
    "evaluate_net_int": "evaluate.net",
    "evaluate_plan_int": "evaluate.contraction",
    "format_network_int": "format_network.net",
    "parse_network_int": "parse_network.text",
    "loads_tensor_tensor": "loads_tensor.text",
    "read_tensor_int": "read_tensor.path",
    "write_tensor_path_int": "write_tensor.path",
    "read_model_int": "read_model.dirpath",
    "write_model_int": "write_model.dirpath",
    "parse_network_base_dir_int": "parse_network.base_dir",
}

_V = tk.vec(_X)

_HUGE = "more than numpy can index"
_MAX_ORDER = tk.core._MAX_ORDER
_HALF = tk.DenseTensor((1,) * (_MAX_ORDER // 2 + 8), [1.0])  # one entry, order 40 on numpy 2
_NO_MEMORY = "does not fit in memory"


def _big_vector():
    return tk.zeros((2**23,))


def _evaluate_unbonded():
    """evaluate of two unbonded 2**23-vectors: the plan's one step is their outer product."""
    v = _big_vector()
    net = tk.TensorNetwork([("a", ("i",), v), ("b", ("j",), v)], ("i", "j"))
    return tk.evaluate(net, tk.plan(net))


# Each call passes a tensor of an order its function does not take, or a
# shape with more entries than numpy can index or more modes than numpy
# allows (nothing is allocated), or asks for a result too large to
# allocate: the message and the error class are part of the contract.
ORDER_ERRORS = {
    "fold": (lambda: tk.fold(_X, (24,)), ShapeError, "fold expects an order-1 tensor, got order 3"),
    "qr": (lambda: tk.qr(_X), ShapeError, "qr expects an order-2 tensor, got order 3"),
    "svd": (lambda: tk.svd(_V), ShapeError, "svd expects an order-2 tensor, got order 1"),
    "truncated_svd": (
        lambda: tk.truncated_svd(_X, 1), ShapeError, "truncated_svd expects an order-2 tensor, got order 3"
    ),
    "matmul_left": (lambda: tk.matmul(_X, _M), ShapeError, "matmul expects an order-2 tensor, got order 3"),
    "matmul_right": (lambda: tk.matmul(_M, _V), ShapeError, "matmul expects an order-2 tensor, got order 1"),
    "trace": (lambda: tk.trace(_V), ShapeError, "trace expects an order-2 tensor, got order 1"),
    "kronecker_left": (lambda: tk.kronecker(_V, _M), ShapeError, "kronecker expects an order-2 tensor, got order 1"),
    "kronecker_right": (lambda: tk.kronecker(_M, _X), ShapeError, "kronecker expects an order-2 tensor, got order 3"),
    "khatri_rao_left": (
        lambda: tk.khatri_rao(_X, _M), ShapeError, "khatri_rao expects an order-2 tensor, got order 3"
    ),
    "khatri_rao_right": (
        lambda: tk.khatri_rao(_M, _V), ShapeError, "khatri_rao expects an order-2 tensor, got order 1"
    ),
    "mode_product": (
        lambda: tk.mode_product(_X, _X, 1), ShapeError, "mode_product expects an order-2 tensor, got order 3"
    ),
    "cp_als": (lambda: tk.cp_als(_M, 1), ArgumentError, "cp_als needs an order >= 3 tensor, got order 2"),
    "hosvd": (lambda: tk.hosvd(_V), ArgumentError, "hosvd needs an order >= 2 tensor, got order 1"),
    "truncated_hosvd": (
        lambda: tk.truncated_hosvd(_V, (1,)), ArgumentError, "truncated_hosvd needs an order >= 2 tensor, got order 1"
    ),
    "tt_svd": (lambda: tk.tt_svd(_V), ArgumentError, "tt_svd needs an order >= 2 tensor, got order 1"),
    "pinv": (lambda: tk.pinv(_V), ShapeError, "pinv expects an order-2 tensor, got order 1"),
    "numerical_rank": (
        lambda: tk.numerical_rank(_X), ShapeError, "numerical_rank expects an order-2 tensor, got order 3"
    ),
    "zeros_huge": (
        lambda: tk.zeros((10**10, 10**10)), ShapeError,
        f"shape (10000000000,10000000000) has {10**20} entries, {_HUGE}",
    ),
    "all_ones_huge": (lambda: tk.all_ones((2**32, 2**32)), ShapeError, f"shape ({2**32},{2**32}) has {2**64} entries, {_HUGE}"),
    "one_hot_huge": (lambda: tk.one_hot(1, 10**20), ShapeError, f"shape ({10**20}) has {10**20} entries, {_HUGE}"),
    "identity_huge": (lambda: tk.identity(10**20), ShapeError, f"shape ({10**20},{10**20}) has {10**40} entries, {_HUGE}"),
    "matrix_unit_huge": (
        lambda: tk.matrix_unit(1, 1, 2**31, 2**33), ShapeError, f"shape ({2**31},{2**33}) has {2**64} entries, {_HUGE}"
    ),
    "super_diagonal_huge": (
        lambda: tk.super_diagonal(3, 10**7), ShapeError, f"shape ({10**7},{10**7},{10**7}) has {10**21} entries, {_HUGE}"
    ),
    "folding_operator_huge": (
        lambda: tk.folding_operator((2**32, 2**32)), ShapeError, f"shape ({2**32},{2**32}) has {2**64} entries, {_HUGE}"
    ),
    # 70 modes is past numpy's limit of 64 (32 before numpy 2).
    "tensor_order_cap": (
        lambda: tk.DenseTensor((1,) * 70, [1.0]), ShapeError, f"order 70 is above numpy's limit of {_MAX_ORDER}"
    ),
    "zeros_order_cap": (lambda: tk.zeros((1,) * 70), ShapeError, f"order 70 is above numpy's limit of {_MAX_ORDER}"),
    "fold_order_cap": (
        lambda: tk.fold(tk.one_hot(1, 1), (1,) * 70), ShapeError, f"order 70 is above numpy's limit of {_MAX_ORDER}"
    ),
    # Products whose result order is the sum of their operands' orders are
    # checked before numpy is called.
    "outer_order_cap": (
        lambda: tk.outer([tk.DenseTensor((1,), [1.0])] * 70), ShapeError,
        f"order 70 is above numpy's limit of {_MAX_ORDER}",
    ),
    "tensor_product_order_cap": (
        lambda: tk.tensor_product(_HALF, _HALF, []), ShapeError,
        f"order {2 * _HALF.order} is above numpy's limit of {_MAX_ORDER}",
    ),
    "tt_pair_product_order_cap": (
        lambda: tk.tt_pair_product(_HALF, _HALF), ShapeError,
        f"order {2 * _HALF.order - 2} is above numpy's limit of {_MAX_ORDER}",
    ),
    # The order is checked before the shape tuple (size,) * order is built.
    "super_diagonal_order_huge": (
        lambda: tk.super_diagonal(10**20, 1), ShapeError, f"super_diagonal order must be in 1..{_MAX_ORDER}, got {10**20}"
    ),
    # Results numpy can index but not allocate: 2**45 or more entries, 2**48
    # bytes, above x86-64's 47-bit user address space, so no host's memory or
    # overcommit setting lets them through. Each is the call's first large
    # allocation; the operands hold 2**23 entries.
    "zeros_no_memory": (lambda: tk.zeros((2**23, 2**23)), ShapeError, f"zeros result of {2**46} entries {_NO_MEMORY}"),
    "all_ones_no_memory": (lambda: tk.all_ones((2**45,)), ShapeError, f"all_ones result of {2**45} entries {_NO_MEMORY}"),
    "one_hot_no_memory": (lambda: tk.one_hot(1, 2**45), ShapeError, f"one_hot result of {2**45} entries {_NO_MEMORY}"),
    "identity_no_memory": (lambda: tk.identity(2**23), ShapeError, f"identity result of {2**46} entries {_NO_MEMORY}"),
    "matrix_unit_no_memory": (
        lambda: tk.matrix_unit(1, 1, 2**23, 2**23), ShapeError, f"matrix_unit result of {2**46} entries {_NO_MEMORY}"
    ),
    "super_diagonal_no_memory": (
        lambda: tk.super_diagonal(3, 2**15), ShapeError, f"super_diagonal result of {2**45} entries {_NO_MEMORY}"
    ),
    "folding_operator_no_memory": (
        lambda: tk.folding_operator((2**23,)), ShapeError, f"folding_operator result of {2**46} entries {_NO_MEMORY}"
    ),
    # The public constructors' one copy of a zero-stride array, which itself
    # allocates nothing.
    "DenseTensor_no_memory": (
        lambda: tk.DenseTensor((2**45,), np.broadcast_to(1.0, (2**45,))), ShapeError,
        f"DenseTensor result of {2**45} entries {_NO_MEMORY}",
    ),
    "from_array_no_memory": (
        lambda: tk.DenseTensor.from_array(np.broadcast_to(1.0, (2**23, 2**23))), ShapeError,
        f"from_array result of {2**46} entries {_NO_MEMORY}",
    ),
    "tensor_product_no_memory": (
        lambda: tk.tensor_product(_big_vector(), _big_vector(), []), ShapeError,
        f"tensor_product result of {2**46} entries {_NO_MEMORY}",
    ),
    "outer_no_memory": (
        lambda: tk.outer([_big_vector(), _big_vector()]), ShapeError, f"outer result of {2**46} entries {_NO_MEMORY}"
    ),
    "kronecker_no_memory": (
        lambda: tk.kronecker(tk.zeros((2**12, 2**11)), tk.zeros((2**12, 2**11))), ShapeError,
        f"kronecker result of {2**46} entries {_NO_MEMORY}",
    ),
    "evaluate_no_memory": (_evaluate_unbonded, ShapeError, f"evaluate result of {2**46} entries {_NO_MEMORY}"),
}

_TUCKER = tk.hosvd(_X)

# Each call passes a non-model, or a model of a kind its function does not
# take, and names the expected kinds.
NOT_A_MODEL_ARGS = {
    "tucker_reconstruct": (tk.tucker_reconstruct, _TRAIN, "TuckerModel"),
    "tucker_orthogonalize": (tk.tucker_orthogonalize, _TRAIN, "TuckerModel"),
    "tt_chain": (tk.tt_chain, _TUCKER, "TTTrain or TRRing"),
    "tt_reconstruct": (tk.tt_reconstruct, _TUCKER, "TTTrain"),
    "tt_orthogonalize": (lambda m: tk.tt_orthogonalize(m, 1), _TUCKER, "TTTrain"),
    "tt_split": (lambda m: tk.tt_split(m, 2), _TUCKER, "TTTrain"),
    "tr_reconstruct": (tk.tr_reconstruct, _TRAIN, "TRRing"),
}

_W2 = tk.DenseTensor((2,), [1.0, 2.0])
_F32 = tk.DenseTensor((3, 2), range(6))
_CP = tk.CPModel(_W2, (_F32, _F32, _F32))


def _read_altered(path, model, manifest=None, drop=None):
    """Write a model, then overwrite its manifest or delete one part, and read it back."""
    tk.write_model(path, model)
    if manifest is not None:
        (path / "model.json").write_text(manifest)
    if drop is not None:
        (path / drop).unlink()
    return tk.read_model(path)


# Each call builds an invalid model, reads a damaged model directory (the
# argument is an empty directory to write it in), or asks a tensor for what
# its shape does not have: the error class and the whole message are part
# of the contract.
MODEL_ERRORS = {
    "cp_weights_order": (lambda d: tk.CPModel(_M, (_F32,)), ModelError, "cp weights must be order-1, got order 2"),
    "cp_no_factor": (lambda d: tk.CPModel(_W2, ()), ModelError, "cp model needs at least one factor"),
    "cp_factor_order": (lambda d: tk.CPModel(_W2, (_X,)), ModelError, "cp factor 1 must be order-2, got order 3"),
    "cp_factor_rank": (
        lambda d: tk.CPModel(_W2, (_F32, _M)), ModelError, "cp factor 2 has 12 columns, expected rank 2"
    ),
    "tucker_factor_count": (
        lambda d: tk.TuckerModel(_X, (_F32,)), ModelError, "tucker model has 1 factors for an order-3 core"
    ),
    "tucker_factor_order": (
        lambda d: tk.TuckerModel(_M, (_F32, _X)), ModelError, "tucker factor 2 must be order-2, got order 3"
    ),
    "tucker_factor_columns": (
        lambda d: tk.TuckerModel(_M, (_F32, _F32)), ModelError,
        "tucker factor 2 has 2 columns, core mode has extent 12",
    ),
    "tt_no_core": (lambda d: tk.TTTrain(()), ModelError, "tt train needs at least one core"),
    "tr_no_core": (lambda d: tk.TRRing(()), ModelError, "tr ring needs at least one core"),
    "tt_core_order": (lambda d: tk.TTTrain((_M,)), ModelError, "tt core 1 must be order-3, got order 2"),
    "tt_bond": (
        lambda d: tk.TTTrain((_X, _X)), ModelError, "bond mismatch between cores 1 and 2: 4 vs 2"
    ),
    # An open train is a valid TTTrain; as a ring its last bond must close.
    "tr_closing_bond": (
        lambda d: tk.TRRing(_TRAIN.cores[:2]), ModelError, "bond mismatch between cores 2 and 1: 2 vs 1"
    ),
    # A train's discarded energy is a finite number >= 0, as tt_svd stores it.
    "tt_energy_str": (
        lambda d: tk.TTTrain(_TRAIN.cores, "a"), ArgumentError,
        "TTTrain discarded_energy must be a finite number, got 'a'",
    ),
    "tt_energy_nan": (
        lambda d: tk.TTTrain(_TRAIN.cores, float("nan")), ArgumentError,
        "TTTrain discarded_energy must be a finite number, got nan",
    ),
    "tt_energy_inf": (
        lambda d: tk.TTTrain(_TRAIN.cores, float("inf")), ArgumentError,
        "TTTrain discarded_energy must be a finite number, got inf",
    ),
    "tt_energy_bool": (
        lambda d: tk.TTTrain(_TRAIN.cores, True), ArgumentError,
        "TTTrain discarded_energy must be a finite number, got True",
    ),
    "tt_energy_array": (
        lambda d: tk.TTTrain(_TRAIN.cores, np.arange(3)), ArgumentError,
        "TTTrain discarded_energy must be a finite number, got array([0, 1, 2])",
    ),
    "tt_energy_negative": (
        lambda d: tk.TTTrain(_TRAIN.cores, -5.0), ModelError, "tt discarded_energy must be >= 0, got -5.0"
    ),
    "read_model_line": (
        lambda d: _read_altered(d, _CP, manifest="this is not a manifest\n"), ModelError,
        "manifest line 1 is not key=value: 'this is not a manifest'",
    ),
    # Blank and comment-only lines are skipped but still counted.
    "read_model_line_after_comments": (
        lambda d: _read_altered(d, _CP, manifest="\n# a comment\nkind=cp\nranks 2\n"), ModelError,
        "manifest line 4 is not key=value: 'ranks 2'",
    ),
    "read_model_kind": (
        lambda d: _read_altered(d, _CP, manifest="kind=banana\nranks=2\n"), ModelError,
        "manifest kind must be cp|tucker|tt|tr, got 'banana'",
    ),
    "read_model_ranks_not_integers": (
        lambda d: _read_altered(d, _TUCKER, manifest="kind=tucker\nranks=2 x 4\n"), ModelError,
        "manifest ranks are not integers: '2 x 4'",
    ),
    "read_model_no_core": (
        lambda d: _read_altered(d, _TUCKER, drop="core.ten"), ModelError, "tucker model directory has no core.ten"
    ),
    "read_model_no_weights": (
        lambda d: _read_altered(d, _CP, drop="weights.ten"), ModelError, "cp model directory has no weights.ten"
    ),
    "read_model_no_factor": (
        lambda d: _read_altered(d, _TUCKER, drop="factor_1.ten"), ModelError, "model directory has no factor_1.ten"
    ),
    "read_model_rank_mismatch": (
        lambda d: _read_altered(d, _TUCKER, manifest="kind=tucker\nranks=2 3 5\n"), ModelError,
        "manifest ranks 2 3 5 do not match the stored tensors",
    ),
    "tt_pair_product_order_0": (
        lambda d: tk.tt_pair_product(tk.DenseTensor((), [2.0]), _X), ShapeError,
        "tt_pair_product operands must have order >= 1",
    ),
    "item": (lambda d: _X.item(), ShapeError, "item() needs exactly one entry, shape is (2,3,4)"),
}

BAD_TOL = [float("nan"), -1.0, float("inf"), "a"]

_NAN = tk.DenseTensor((2, 2, 2), [1.0, 2.0, 3.0, float("nan"), 5.0, 6.0, 7.0, 8.0])
_INF = tk.DenseTensor((2, 2, 2), [1.0, 2.0, 3.0, float("inf"), 5.0, 6.0, 7.0, 8.0])
_NAN_TRAIN = tk.TTTrain((
    tk.DenseTensor((1, 2, 2), [1.0, 2.0, 3.0, float("nan")]),
    tk.DenseTensor((2, 2, 1), [1.0, 2.0, 3.0, 4.0]),
))
_EYE2 = tk.identity(2)
_NAN_FACTOR = tk.DenseTensor((2, 2), [1.0, float("nan"), 0.0, 1.0])
# Each call and its full message, which names the function the caller called.
NON_FINITE_CALLS = {
    "tt_svd_nan": (lambda: tk.tt_svd(_NAN), "tt_svd input has non-finite entries (nan or inf)"),
    "hosvd_inf": (lambda: tk.hosvd(_INF), "hosvd input has non-finite entries (nan or inf)"),
    "truncated_hosvd_nan": (lambda: tk.truncated_hosvd(_NAN, (1, 1, 1)), "truncated_hosvd input has non-finite entries (nan or inf)"),
    "svd_nan": (lambda: tk.svd(tk.matricize(_NAN, 1)), "svd input has non-finite entries (nan or inf)"),
    "truncated_svd_nan": (
        lambda: tk.truncated_svd(tk.matricize(_NAN, 2), 1), "truncated_svd input has non-finite entries (nan or inf)"
    ),
    "qr_inf": (lambda: tk.qr(tk.k_unfold(_INF, 2)), "qr input has non-finite entries (nan or inf)"),
    "pinv_inf": (lambda: tk.pinv(tk.matricize(_INF, 1)), "pinv input has non-finite entries (nan or inf)"),
    "numerical_rank_nan": (lambda: tk.numerical_rank(tk.matricize(_NAN, 3)), "numerical_rank input has non-finite entries (nan or inf)"),
    "tt_orthogonalize_nan": (lambda: tk.tt_orthogonalize(_NAN_TRAIN, 2), "tt_orthogonalize input has non-finite entries (nan or inf)"),
    # The NaN is in the pivot core, which no QR sees.
    "tt_orthogonalize_nan_pivot": (
        lambda: tk.tt_orthogonalize(_NAN_TRAIN, 1), "tt_orthogonalize input has non-finite entries (nan or inf)"
    ),
    "tucker_orthogonalize_nan": (
        lambda: tk.tucker_orthogonalize(tk.TuckerModel(tk.all_ones((2, 2, 2)), (_EYE2, _NAN_FACTOR, _EYE2))),
        "tucker_orthogonalize input has non-finite entries (nan or inf)",
    ),
    "cp_als_nan": (lambda: tk.cp_als(_NAN, 1), "cp_als objective became non-finite"),
    # The tensor is checked before the other arguments, so a bad rank, k or
    # tol does not hide the non-finite input.
    "truncated_hosvd_nan_bad_ranks": (
        lambda: tk.truncated_hosvd(_NAN, (9, 9, 9)), "truncated_hosvd input has non-finite entries (nan or inf)"
    ),
    "truncated_svd_nan_bad_k": (
        lambda: tk.truncated_svd(tk.matricize(_NAN, 2), 0), "truncated_svd input has non-finite entries (nan or inf)"
    ),
    "numerical_rank_nan_bad_tol": (
        lambda: tk.numerical_rank(tk.matricize(_NAN, 3), -1.0), "numerical_rank input has non-finite entries (nan or inf)"
    ),
}

# Finite inputs whose true result lies beyond float range: NumericError, and
# no numpy warning (pytest turns RuntimeWarning into an error) before it.
# Each call and the function it calls, which its message names first.
_E308 = tk.DenseTensor((2, 3, 2), [1e308] * 12)
OUT_OF_RANGE_CALLS = {
    "svd_sigma_2e308": ("svd", lambda: tk.svd(tk.DenseTensor((2, 2), [1e308] * 4))),
    "truncated_svd_sigma_2e308": ("truncated_svd", lambda: tk.truncated_svd(tk.DenseTensor((2, 2), [1e308] * 4), 1)),
    "tt_svd_sigma": ("tt_svd", lambda: tk.tt_svd(_E308)),
    "tt_svd_sigma_capped": ("tt_svd", lambda: tk.tt_svd(_E308, [2, 2])),
    "tt_svd_sigma_tol": ("tt_svd", lambda: tk.tt_svd(_E308, tol=1.0)),
    # Every singular value is in range, but the dropped squares sum past it.
    "tt_svd_discarded_energy": ("tt_svd", lambda: tk.tt_svd(
        tk.DenseTensor.from_array(1e300 * np.random.default_rng(0).standard_normal((4, 4, 4))), [2, 2]
    )),
    "qr_r_2e308": ("qr", lambda: tk.qr(tk.DenseTensor((4, 1), [1e308] * 4))),
    # R's first entry is the norm of four entries of 1e308.
    "tt_orthogonalize_r_1e308": ("tt_orthogonalize", lambda: tk.tt_orthogonalize(
        tk.TTTrain((tk.DenseTensor((1, 4, 1), [1e308] * 4), tk.DenseTensor((1, 2, 1), [1, 1]))), 2
    )),
    "tucker_orthogonalize_r_1e308": ("tucker_orthogonalize", lambda: tk.tucker_orthogonalize(
        tk.TuckerModel(tk.all_ones((2, 2)), (tk.DenseTensor((4, 2), [1e308] * 4 + [1] * 4), tk.identity(2)))
    )),
    "pinv_1e320": ("pinv", lambda: tk.pinv(tk.DenseTensor.from_array(np.eye(3) * 1e-320 + 1e-321))),
    "pinv_near_max": ("pinv", lambda: tk.pinv(tk.DenseTensor((1, 1), [2.0**-1024]))),
}


@pytest.mark.parametrize("text", BAD_TN)
def test_malformed_tn_raises_cleanly(text):
    with pytest.raises(TenkitError):
        tk.parse_network(text)


@pytest.mark.parametrize("text", BAD_TEN)
def test_malformed_ten_raises_cleanly(text):
    with pytest.raises(ParseError):
        tk.loads_tensor(text)


def test_scalar_network_evaluates():
    net = tk.parse_network("node S [] = 3.14\noutput []")
    val = tk.evaluate(net, tk.plan(net))
    assert val.order == 0 and val.item() == 3.14


def test_scalar_pair_network_multiplies():
    net = tk.parse_network("node S [] = 3.0; node T [] = 4.0; output []")
    assert tk.evaluate(net, tk.plan(net)).item() == 12.0


def test_zero_tensor_through_every_decomposition():
    z = tk.zeros((3, 3, 3))
    assert tk.frobenius_norm(tk.tucker_reconstruct(tk.hosvd(z))) == 0.0
    assert tk.frobenius_norm(tk.tucker_reconstruct(tk.truncated_hosvd(z, (1, 1, 1)))) == 0.0
    train = tk.tt_svd(z)
    assert train.bond_ranks == (1, 1, 1, 1)
    assert tk.frobenius_norm(tk.tt_reconstruct(train)) == 0.0
    fit = tk.cp_als(z, 1, max_sweeps=3, restarts=1)
    assert fit.trace[-1] == 0.0


def test_order_five_tt_svd_exact():
    rng = np.random.default_rng(0)
    x = rand_tensor(rng, (2, 3, 2, 3, 2))
    train = tk.tt_svd(x)
    rel = tk.frobenius_norm(tk.subtract(x, tk.tt_reconstruct(train))) / tk.frobenius_norm(x)
    assert rel <= 1e-10


def test_super_diagonal_composes_through_tt_product():
    # chaining two order-3 super-diagonals over one bond gives the order-4 one
    i3 = tk.super_diagonal(3, 4)
    assert tk.tensor_product(i3, i3, [(3, 1)]) == tk.super_diagonal(4, 4)


@pytest.mark.parametrize("call", BAD_INT_ARGS.values(), ids=BAD_INT_ARGS.keys())
def test_non_integer_arguments_raise_argument_error(call):
    with pytest.raises(ArgumentError):
        call()


@pytest.mark.parametrize("call", BAD_SEQUENCE_ARGS.values(), ids=BAD_SEQUENCE_ARGS.keys())
def test_non_sequence_arguments_raise_argument_error(call):
    with pytest.raises(ArgumentError):
        call()


@pytest.mark.parametrize("call", NOT_A_TENSOR_ARGS.values(), ids=NOT_A_TENSOR_ARGS.keys())
def test_non_tensor_arguments_raise_argument_error(call):
    with pytest.raises(
        ArgumentError, match=r"^\w+ input must be a (DenseTensor|TensorNetwork|ContractionPlan|str|str or PathLike), got \w+$"
    ):
        call()


def test_every_tensor_parameter_has_a_non_tensor_case():
    assert NOT_A_TENSOR_PARAMS.keys() == NOT_A_TENSOR_ARGS.keys()
    for key, target in NOT_A_TENSOR_PARAMS.items():
        with pytest.raises(ArgumentError, match=f"^{target.split('.')[0]} input "):
            NOT_A_TENSOR_ARGS[key]()
    wanted = set()
    for name in tk.__all__:
        func = getattr(tk, name)
        if inspect.isfunction(func):
            params = inspect.signature(func).parameters.values()
            wanted |= {f"{name}.{p.name}" for p in params if p.annotation in ("DenseTensor", tk.DenseTensor)}
    assert {"svd.m", "divide.y", "write_tensor.t"} <= wanted  # the annotations read as written
    assert wanted <= set(NOT_A_TENSOR_PARAMS.values()), sorted(wanted - set(NOT_A_TENSOR_PARAMS.values()))


@pytest.mark.parametrize("call,error,message", ORDER_ERRORS.values(), ids=ORDER_ERRORS.keys())
def test_order_errors_keep_their_class_and_text(call, error, message):
    with pytest.raises(TenkitError) as info:
        call()
    assert info.type is error and str(info.value) == message


def test_order_cap_is_numpys_limit():
    top = tk.super_diagonal(_MAX_ORDER, 1)
    assert top.to_array().ndim == _MAX_ORDER
    assert tk.add(top, top) == tk.DenseTensor((1,) * _MAX_ORDER, [2.0])
    with pytest.raises(ValueError):
        np.empty((1,) * (_MAX_ORDER + 1))


def test_order_error_templates_live_only_in_core():
    src = Path(tk.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for template in ("expects an order-", "needs an order >="):
            assert path.name == "core.py" or template not in text, (path.name, template)


@pytest.mark.parametrize("name", NOT_A_MODEL_ARGS)
def test_model_arguments_of_the_wrong_kind_raise_argument_error(name):
    call, wrong_kind, wanted = NOT_A_MODEL_ARGS[name]
    for value in (0, wrong_kind):
        with pytest.raises(ArgumentError) as info:
            call(value)
        assert str(info.value) == f"{name} model must be a {wanted}, got {type(value).__name__}"


def test_non_models_raise_argument_error_naming_every_kind(tmp_path):
    for call in (tk.reconstruct, lambda m: tk.write_model(tmp_path / "m", m)):
        with pytest.raises(ArgumentError) as info:
            call(0)
        assert str(info.value) == "int is not a model (cp|tucker|tt|tr)"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("call, error, message", MODEL_ERRORS.values(), ids=MODEL_ERRORS.keys())
def test_model_errors_keep_their_class_and_text(call, error, message, tmp_path):
    with pytest.raises(TenkitError) as info:
        call(tmp_path)
    assert info.type is error and str(info.value) == message


def test_tensors_and_networks_are_unequal_to_other_types_and_have_short_reprs():
    assert (_X == 1) is False and (_NET == 1) is False
    assert repr(tk.DenseTensor((2,), [1, 2])) == "DenseTensor(shape=(2), data=[1.0, 2.0])"
    assert repr(_X) == "DenseTensor(shape=(2,3,4), 24 entries)"
    assert repr(_NET) == "TensorNetwork(2 nodes, output [])"


def test_numpy_integers_are_accepted():
    assert _X.at(np.int64(2), np.int32(1), 1) == 1.0
    assert tk.DenseTensor(np.array([2, 1]), [5.0, 6.0]).shape == (2, 1)


def test_signed_zeros_hash_equal():
    pos = tk.DenseTensor((2,), [0.0, 1.0])
    neg = tk.DenseTensor((2,), [-0.0, 1.0])
    assert pos == neg
    assert hash(pos) == hash(neg)
    assert len({pos, neg}) == 1


@pytest.mark.parametrize("tol", BAD_TOL)
def test_tt_svd_rejects_bad_tol(tol):
    with pytest.raises(ArgumentError, match="tol"):
        tk.tt_svd(_X, tol=tol)


def test_cp_als_rejects_negative_seed():
    with pytest.raises(ArgumentError, match="seed"):
        tk.cp_als(_X, 1, seed=-1, max_sweeps=2, restarts=1)


@pytest.mark.parametrize("tol", BAD_TOL)
def test_cp_als_rejects_bad_tol(tol):
    with pytest.raises(ArgumentError, match="tol"):
        tk.cp_als(_X, 1, tol=tol, max_sweeps=2, restarts=1)


@pytest.mark.parametrize("tol", BAD_TOL)
def test_numerical_rank_rejects_bad_tol(tol):
    with pytest.raises(ArgumentError, match="tol"):
        tk.numerical_rank(_M, tol=tol)


def test_write_model_removes_parts_of_the_previous_model(tmp_path):
    rng = np.random.default_rng(3)
    tk.write_model(tmp_path, tk.hosvd(rand_tensor(rng, (2, 3, 4, 2))))
    lower = tk.hosvd(rand_tensor(rng, (2, 3, 4)))
    tk.write_model(tmp_path, lower)
    assert not (tmp_path / "factor_4.ten").exists()
    back = tk.read_model(tmp_path)
    assert back.core == lower.core and back.factors == lower.factors


def test_write_model_switching_kind_keeps_foreign_files(tmp_path):
    rng = np.random.default_rng(4)
    x = rand_tensor(rng, (2, 3, 4))
    tk.write_model(tmp_path, tk.hosvd(x))
    (tmp_path / "notes.txt").write_text("kept")
    train = tk.tt_svd(x)
    tk.write_model(tmp_path, train)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "core_1.ten", "core_2.ten", "core_3.ten", "model.json", "notes.txt",
    ]
    assert tk.read_model(tmp_path).cores == train.cores


def test_failed_write_model_leaves_no_readable_model(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    tk.write_model(tmp_path, tk.hosvd(rand_tensor(rng, (2, 3, 4))))
    written = []

    def fail_third(path, t):
        written.append(path)
        if len(written) == 3:
            raise OSError("disk full")
        tk.write_tensor(path, t)

    monkeypatch.setattr("tenkit.decomp.write_tensor", fail_third)
    with pytest.raises(OSError):
        tk.write_model(tmp_path, tk.hosvd(rand_tensor(rng, (2, 3, 4))))
    # Two parts of the new model sit beside two of the old one.
    with pytest.raises(ModelError):
        tk.read_model(tmp_path)


@pytest.mark.parametrize("call, message", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_non_finite_input_raises_numeric_error(call, message):
    with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("name, call", OUT_OF_RANGE_CALLS.values(), ids=OUT_OF_RANGE_CALLS.keys())
def test_out_of_range_result_raises_numeric_error(name, call):
    with pytest.raises(NumericError, match=f"^{name} .*beyond float range$"):
        call()


def test_svd_near_overflow_stays_finite():
    a = np.array([[1e300, 3e300], [2e300, 4e300]])
    with np.errstate(all="raise"):
        res = tk.svd(tk.DenseTensor.from_array(a))
    s = res.sigma.data
    assert np.isfinite(s).all() and s[0] >= s[1] > 0.0
    # Compare at unit scale: the Frobenius norm of a itself overflows.
    rec = (res.u.to_array() * (s / 1e300)) @ res.v.to_array().T
    assert np.linalg.norm(rec - a / 1e300) <= 1e-14 * np.linalg.norm(a / 1e300)


def test_hosvd_stays_finite_when_its_unfoldings_sigma_is_not():
    # sigma_1 of every unfolding is beyond float range, but hosvd returns no
    # singular value, and its core and factors are in range.
    x = 2e307 * np.random.default_rng(0).standard_normal((10, 10, 10))
    assert np.linalg.norm(np.ldexp(x.reshape(10, -1), -1000), 2) >= 2.0**24
    model = tk.hosvd(tk.DenseTensor.from_array(x))
    rec = tk.tucker_reconstruct(model).to_array()
    assert np.abs(rec - x).max() <= 1e-13 * np.abs(x).max()


def test_rank_and_pinv_stay_finite_when_sigma_is_not():
    # sigma_1 = 2e308 is beyond float range, but the rank and the
    # pseudo-inverse (every entry 1 / 4e308, a subnormal) are not.
    m = tk.DenseTensor((2, 2), [1e308] * 4)
    assert tk.numerical_rank(m) == 1
    assert tk.numerical_rank(m, tol=1e300) == 1
    got = tk.pinv(m).data
    assert np.abs(got - 0.25e-308).max() <= 1e-12 * 0.25e-308


@pytest.mark.parametrize("scale", [1e200, 1e-310])
def test_qr_far_from_unit_scale_matches_numpy(scale):
    a = scale * np.random.default_rng(10).standard_normal((6, 2))
    res = tk.qr(tk.DenseTensor.from_array(a))
    # numpy's QR of a rescaled by a power of two into [0.5, 1), with the
    # signs fixed so that diag(R) >= 0.
    exp = math.frexp(np.abs(a).max())[1]
    want_q, want_r = np.linalg.qr(np.ldexp(a, -exp))
    signs = np.sign(np.diag(want_r))
    want_q, want_r = want_q * signs, want_r * signs[:, None]
    assert np.abs(res.q.to_array() - want_q).max() <= 1e-14
    assert np.abs(np.ldexp(res.r.to_array(), -exp) - want_r).max() <= 1e-14


def test_tt_orthogonalize_far_above_unit_scale():
    x = rand_tensor(np.random.default_rng(11), (3, 4, 5))
    train = tk.tt_orthogonalize(tk.tt_svd(tk.DenseTensor(x.shape, 1e200 * x.data)), 2)
    first, _, last = (c.to_array() for c in train.cores)
    left = first.reshape(3, -1, order="F")
    right = last.reshape(last.shape[0], -1, order="F")
    assert np.abs(left.T @ left - np.eye(left.shape[1])).max() <= 1e-14
    assert np.abs(right @ right.T - np.eye(right.shape[0])).max() <= 1e-14
    rec = tk.tt_reconstruct(train).data / 1e200
    assert np.abs(rec - x.data).max() <= 1e-13 * np.abs(x.data).max()


# The factorizations work at a power-of-two scale of their input, so f(2**k x)
# is f(x) with its exponents shifted, bit for bit, wherever no subnormal appears.
_SHIFTS = (-1000, -7, 9, 1000)


def _assert_shifted(parts, base, k):
    """parts and base hold the same arrays, each with the power p by which it
    scales: every array of parts is 2**(p * k) times base's, bit for bit,
    and neither has a subnormal entry."""
    assert len(parts) == len(base)
    for (got, p), (want, q) in zip(parts, base):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert p == q and got.shape == want.shape
        for z in (got, want):
            assert (np.abs(z[z != 0.0]) >= np.finfo(np.float64).tiny).all()
        assert got.tobytes() == np.ldexp(want, p * k).tobytes()


def _shifted(a, k):
    """2**k * a as a tensor, checked to be exact: no entry becomes subnormal."""
    scaled = np.ldexp(a, k)
    assert np.array_equal(np.ldexp(scaled, -k), a)
    return tk.DenseTensor.from_array(scaled)


def _svd_parts(res):
    return [(res.u.to_array(), 0), (res.sigma.data, 1), (res.v.to_array(), 0)]


def _qr_parts(res):
    return [(res.q.to_array(), 0), (res.r.to_array(), 1)]


def _tucker_parts(model):
    return [(model.core.to_array(), 1)] + [(f.to_array(), 0) for f in model.factors]


def _tt_parts(train):
    *lead, last = (c.to_array() for c in train.cores)
    return [(c, 0) for c in lead] + [(last, 1), (train.discarded_energy, 2)]


def _orthogonalized_parts(first):
    """The cores of tt_orthogonalize at every pivot, of a 3-core train whose
    first core is `first` and whose other two are fixed: the pivot core takes
    the first core's scale, the orthogonal cores none."""
    rng = np.random.default_rng(10)
    rest = [tk.DenseTensor.from_array(rng.standard_normal(s)) for s in [(3, 5, 2), (2, 3, 1)]]
    train = tk.TTTrain((first, *rest))
    return [
        (core.to_array(), int(k == pivot))
        for pivot in (1, 2, 3)
        for k, core in enumerate(tk.tt_orthogonalize(train, pivot).cores, 1)
    ]


# The 7x40 svd is factored as its transpose with an odd column count, the
# 90x17 one as the 17x17 R of its QR; hosvd of 5x5x5 stacks three unfoldings
# of 5 columns, tt_svd of 5x6x7 splits 5x42 and 30x7. The truncated callers
# get low-rank inputs plus 1e-3 noise, so that their trailing columns come to
# be dominated and the sweeps narrow. pinv_rank2's two zero singular values
# fall below the relative cutoff at every scale; tt_orthogonalize sweeps the
# first core's scale into whichever core is the pivot.
SHIFTED_CALLS = {
    "truncated_svd": (
        lambda rng: rng.standard_normal((30, 3)) @ rng.standard_normal((3, 12)) + 1e-3 * rng.standard_normal((30, 12)),
        lambda x: _svd_parts(tk.truncated_svd(x, 3)),
    ),
    "pinv": (lambda rng: rng.standard_normal((6, 4)), lambda x: [(tk.pinv(x).to_array(), -1)]),
    "hosvd": (lambda rng: rng.standard_normal((5, 5, 5)), lambda x: _tucker_parts(tk.hosvd(x))),
    "truncated_hosvd": (
        lambda rng: np.einsum("abc,ia,jb,kc->ijk", *(rng.standard_normal(s) for s in [(2, 2, 2)] + [(8, 2)] * 3))
        + 1e-3 * rng.standard_normal((8, 8, 8)),
        lambda x: _tucker_parts(tk.truncated_hosvd(x, [2, 2, 2])),
    ),
    "tt_svd": (lambda rng: rng.standard_normal((5, 6, 7)), lambda x: _tt_parts(tk.tt_svd(x))),
    "pinv_rank2": (
        lambda rng: rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4)),
        lambda x: [(tk.pinv(x).to_array(), -1)],
    ),
    "qr": (lambda rng: rng.standard_normal((7, 4)), lambda x: _qr_parts(tk.qr(x))),
    "tt_orthogonalize": (lambda rng: rng.standard_normal((1, 4, 3)), _orthogonalized_parts),
}


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4), (7, 40), (90, 17)])
def test_svd_power_of_two_scaling_is_exact(shape):
    a = np.random.default_rng(9).standard_normal(shape)
    base = _svd_parts(tk.svd(tk.DenseTensor.from_array(a)))
    for k in _SHIFTS:
        _assert_shifted(_svd_parts(tk.svd(_shifted(a, k))), base, k)


@pytest.mark.parametrize("make, call", SHIFTED_CALLS.values(), ids=SHIFTED_CALLS.keys())
def test_factorizations_power_of_two_scaling_is_exact(make, call):
    a = make(np.random.default_rng(9))
    base = call(tk.DenseTensor.from_array(a))
    for k in _SHIFTS:
        _assert_shifted(call(_shifted(a, k)), base, k)


def test_failed_write_tensor_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "x.ten"
    tk.write_tensor(target, _X)
    before = target.read_bytes()
    # A lone surrogate cannot be encoded, so the write fails part-way.
    monkeypatch.setattr("tenkit.io.dumps_tensor", lambda t: "order 0\nshape\ndata\n\ud800\n")
    with pytest.raises(UnicodeEncodeError):
        tk.write_tensor(target, tk.DenseTensor((), [1.0]))
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["x.ten"]


def test_read_tensor_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.ten"
    path.write_bytes(b"order 1\nshape 2\ndata\n1 \xff\n")
    with pytest.raises(ParseError, match="bad.ten"):
        tk.read_tensor(path)


def test_contract_rejects_a_network_file_that_is_not_utf8(tmp_path):
    from tenkit import cli

    path = tmp_path / "bad.tn"
    path.write_bytes(b"node A [i=2] = 1 2 \xff\noutput [i]\n")
    args = cli._build_parser().parse_args(["contract", str(path)])
    with pytest.raises(ParseError, match="bad.tn"):
        args.handler(args)


def test_read_model_rejects_a_manifest_that_is_not_utf8(tmp_path):
    tk.write_model(tmp_path, tk.hosvd(tk.DenseTensor((2, 2), [1, 2, 3, 4])))
    manifest = tmp_path / "model.json"
    manifest.write_bytes(manifest.read_bytes() + b"\xff\n")
    with pytest.raises(ModelError) as err:
        tk.read_model(tmp_path)
    assert str(err.value).startswith(f"cannot read manifest '{manifest}': 'utf-8' codec can't decode byte 0xff")


def test_read_model_missing_manifest_names_it(tmp_path):
    with pytest.raises(ModelError) as err:
        tk.read_model(tmp_path)
    assert str(err.value) == f"cannot read manifest '{tmp_path / 'model.json'}': No such file or directory"
