"""Degenerate inputs: malformed files, scalars, zero tensors, deep orders."""

import math

import numpy as np
import pytest

import tenkit as tk
from tenkit import ArgumentError, ModelError, NumericError, ParseError, TenkitError

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

# Each call passes a bool or a non-integer where an integer is required;
# int() would truncate some of them silently, others would leak a raw
# TypeError or IndexError.
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
}

_NET = tk.parse_network("node A [i=2] = 1 2; node B [i=2] = 3 4; output []")

# Each call passes a scalar, a string or a sequence of the wrong length
# where a sequence is required, or a sequence whose entries are of the
# wrong kind.
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
    "network_list_tensor": lambda: tk.TensorNetwork([("A", ("i",), [1.0, 2.0])], ("i",)),
    "network_int_name": lambda: tk.TensorNetwork([(5, ("i",), tk.zeros((2,)))], ("i",)),
    "network_int_nodes": lambda: tk.TensorNetwork(5, ["i"]),
    "network_no_nodes": lambda: tk.TensorNetwork([], ()),
    "super_diagonal_string_weights": lambda: tk.super_diagonal(2, 2, "ab"),
    "super_diagonal_nan_weight": lambda: tk.super_diagonal(2, 2, [float("nan"), 1.0]),
    "tensor_string_data": lambda: tk.DenseTensor((2,), "ab"),
    "tensor_dict_data": lambda: tk.DenseTensor((2,), {"a": 1}),
    "tensor_none_entry": lambda: tk.DenseTensor((2,), [None, 1]),
}

BAD_TOL = [float("nan"), -1.0, float("inf"), "a"]

_NAN = tk.DenseTensor((2, 2, 2), [1.0, 2.0, 3.0, float("nan"), 5.0, 6.0, 7.0, 8.0])
_INF = tk.DenseTensor((2, 2, 2), [1.0, 2.0, 3.0, float("inf"), 5.0, 6.0, 7.0, 8.0])
_NAN_TRAIN = tk.TTTrain((
    tk.DenseTensor((1, 2, 2), [1.0, 2.0, 3.0, float("nan")]),
    tk.DenseTensor((2, 2, 1), [1.0, 2.0, 3.0, 4.0]),
))
NON_FINITE_CALLS = {
    "tt_svd_nan": lambda: tk.tt_svd(_NAN),
    "hosvd_inf": lambda: tk.hosvd(_INF),
    "truncated_hosvd_nan": lambda: tk.truncated_hosvd(_NAN, (1, 1, 1)),
    "svd_nan": lambda: tk.svd(tk.matricize(_NAN, 1)),
    "qr_inf": lambda: tk.qr(tk.k_unfold(_INF, 2)),
    "pinv_inf": lambda: tk.pinv(tk.matricize(_INF, 1)),
    "numerical_rank_nan": lambda: tk.numerical_rank(tk.matricize(_NAN, 3)),
    "tt_orthogonalize_nan": lambda: tk.tt_orthogonalize(_NAN_TRAIN, 2),
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


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_non_finite_input_raises_numeric_error(call):
    with pytest.raises(NumericError, match="non-finite"):
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


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
def test_svd_power_of_two_scaling_is_exact(shape):
    a = np.random.default_rng(9).standard_normal(shape)
    res = tk.svd(tk.DenseTensor.from_array(a))
    big = tk.svd(tk.DenseTensor.from_array(2.0**40 * a))
    assert np.array_equal(big.sigma.data, 2.0**40 * res.sigma.data)
    assert big.u == res.u and big.v == res.v


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
