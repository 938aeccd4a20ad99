import tracemalloc

import numpy as np
import pytest

import tenkit as tk
from tenkit import ArgumentError, BoundsError, ShapeError

from helpers import enumerate_indices, position_map, rand_shape, rand_tensor

SHAPES = [(2,), (3, 2), (2, 3, 4), (2, 2, 2), (4, 1, 3), (2, 1, 2, 3)]


def test_linear_index_examples():
    assert tk.linear_index((1, 1, 1), (2, 3, 4)) == 1
    assert tk.linear_index((2, 1, 3), (2, 2, 4)) == 10
    assert tk.linear_index((2, 3, 4), (2, 3, 4)) == 24


def test_linear_index_matches_enumeration_oracle():
    for shape in SHAPES:
        for pos, idx in enumerate(enumerate_indices(shape), start=1):
            assert tk.linear_index(idx, shape) == pos


def test_linear_index_bounds_error_names_mode():
    with pytest.raises(BoundsError, match="mode 2"):
        tk.linear_index((1, 4, 1), (2, 3, 4))
    with pytest.raises(BoundsError, match="mode 3"):
        tk.linear_index((1, 1, 0), (2, 3, 4))


def test_multi_index_examples_and_inverse():
    assert tk.multi_index(1, (2, 3, 4)) == (1, 1, 1)
    assert tk.multi_index(10, (2, 2, 4)) == (2, 1, 3)
    assert tk.multi_index(24, (2, 3, 4)) == (2, 3, 4)
    for shape in SHAPES:
        for flat in range(1, tk.element_count(shape) + 1):
            assert tk.linear_index(tk.multi_index(flat, shape), shape) == flat
    with pytest.raises(BoundsError):
        tk.multi_index(25, (2, 3, 4))
    with pytest.raises(BoundsError):
        tk.multi_index(0, (2, 3, 4))


def test_dense_tensor_construction_errors():
    with pytest.raises(ShapeError):
        tk.DenseTensor((2, 0), [])
    with pytest.raises(ShapeError):
        tk.DenseTensor((2, 2), [1.0, 2.0, 3.0])


def test_dense_tensor_scalar():
    s = tk.DenseTensor((), [3.5])
    assert s.order == 0 and s.size == 1 and s.item() == 3.5


def test_data_buffer_is_frozen():
    t = tk.DenseTensor((2, 2), [1, 2, 3, 4])
    with pytest.raises(ValueError):
        t.data[0] = 9.0


def test_permute_matrix_transpose():
    a = tk.DenseTensor((2, 3), [1, 2, 3, 4, 5, 6])
    b = tk.permute(a, [2, 1])
    assert b.shape == (3, 2)
    for i in range(1, 3):
        for j in range(1, 4):
            assert b.at(j, i) == a.at(i, j)


def test_permute_identity_and_inverse():
    rng = np.random.default_rng(0)
    x = rand_tensor(rng, (2, 3, 4))
    assert tk.permute(x, [1, 2, 3]) == x
    assert tk.permute(tk.permute(x, [2, 3, 1]), [3, 1, 2]) == x
    with pytest.raises(ArgumentError):
        tk.permute(x, [1, 1, 2])


def test_permute_entry_rule():
    rng = np.random.default_rng(1)
    x = rand_tensor(rng, (2, 3, 2))
    p = [3, 1, 2]
    y = tk.permute(x, p)
    assert y.shape == (2, 2, 3)
    for idx in enumerate_indices(x.shape):
        permuted = tuple(idx[p[k] - 1] for k in range(3))
        assert y.at(*permuted) == x.at(*idx)


def test_vec_examples():
    s = tk.DenseTensor((), [2.5])
    v = tk.vec(s)
    assert v.shape == (1,) and v.at(1) == 2.5

    m = tk.DenseTensor((2, 2), [1, 2, 3, 4])  # [[a,c],[b,d]] with a,b,c,d = 1,2,3,4
    assert tk.vec(m).data.tolist() == [1, 2, 3, 4]

    t = tk.DenseTensor((2, 2, 2), range(1, 9))
    assert tk.vec(t).at(6) == t.at(2, 1, 2)
    # A zero-copy reinterpretation: the same buffer.
    assert tk.vec(t).data.ctypes.data == t.data.ctypes.data and np.shares_memory(tk.vec(t).data, t.data)


def test_fold_examples():
    v = tk.DenseTensor((4,), [1, 2, 3, 4])
    m = tk.fold(v, (2, 2))
    assert m.at(1, 1) == 1 and m.at(2, 1) == 2 and m.at(1, 2) == 3 and m.at(2, 2) == 4

    rng = np.random.default_rng(2)
    for shape in SHAPES:
        x = rand_tensor(rng, shape)
        assert tk.fold(tk.vec(x), shape) == x

    # ramp 1..24 into (2,3,4): the index formula puts flat position 14 at (2,1,3)
    ramp = tk.DenseTensor((24,), range(1, 25))
    folded = tk.fold(ramp, (2, 3, 4))
    oracle = position_map((2, 3, 4))
    assert folded.at(2, 1, 3) == oracle[(2, 1, 3)] == 14

    with pytest.raises(ShapeError):
        tk.fold(v, (2, 3))
    with pytest.raises(ShapeError):
        tk.fold(m, (2, 2))


def test_matricize_shapes_and_mode1():
    rng = np.random.default_rng(3)
    x = rand_tensor(rng, (2, 3, 4))
    assert tk.matricize(x, 2).shape == (3, 8)
    assert tk.matricize(x, 1) == tk.k_unfold(x, 1)
    with pytest.raises(ArgumentError):
        tk.matricize(x, 4)


def test_matricize_entry_map_vs_oracle():
    x = tk.DenseTensor((2, 3, 4), range(1, 25))
    for n in (1, 2, 3):
        m = tk.matricize(x, n)
        rest_shape = tuple(e for k, e in enumerate(x.shape, 1) if k != n)
        colpos = position_map(rest_shape)
        for idx in enumerate_indices(x.shape):
            rest = tuple(i for k, i in enumerate(idx, 1) if k != n)
            assert m.at(idx[n - 1], colpos[rest]) == x.at(*idx)


def test_k_unfold_shapes_and_buffer():
    rng = np.random.default_rng(4)
    x = rand_tensor(rng, (2, 3, 4, 5))
    u = tk.k_unfold(x, 2)
    assert u.shape == (6, 20)
    assert u.data.ctypes.data == x.data.ctypes.data and np.shares_memory(u.data, x.data)  # pure reinterpretation
    with pytest.raises(ArgumentError):
        tk.k_unfold(x, 4)
    with pytest.raises(ArgumentError):
        tk.k_unfold(x, 0)


def test_k_unfold_last_split_is_matricize_transpose():
    rng = np.random.default_rng(5)
    x = rand_tensor(rng, (2, 3, 4))
    left = tk.k_unfold(x, x.order - 1)
    right = tk.permute(tk.matricize(x, x.order), [2, 1])
    assert left == right


def test_k_unfold_entry_map_vs_oracle():
    x = tk.DenseTensor((2, 2, 2), range(1, 9))
    for k in (1, 2):
        u = tk.k_unfold(x, k)
        rowpos = position_map(x.shape[:k])
        colpos = position_map(x.shape[k:])
        for idx in enumerate_indices(x.shape):
            assert u.at(rowpos[idx[:k]], colpos[idx[k:]]) == x.at(*idx)


def test_subtensor_fiber_and_columns():
    rng = np.random.default_rng(6)
    x = rand_tensor(rng, (3, 4, 2))
    fiber = tk.subtensor(x, [":", 2, 1])
    assert fiber.shape == (3,)
    assert fiber.data.tolist() == [x.at(i, 2, 1) for i in range(1, 4)]

    m = rand_tensor(rng, (4, 5))
    first_cols = tk.subtensor(m, [":", (1, 3)])
    assert first_cols.shape == (4, 3)
    for i in range(1, 5):
        for j in range(1, 4):
            assert first_cols.at(i, j) == m.at(i, j)


def test_subtensor_ranges_vs_loop_oracle():
    rng = np.random.default_rng(7)
    x = rand_tensor(rng, (3, 3, 4))
    sub = tk.subtensor(x, [(1, 2), (2, 2), (3, 4)])
    assert sub.shape == (2, 1, 2)
    for i in range(1, 3):
        for j in range(1, 2):
            for k in range(1, 3):
                assert sub.at(i, j, k) == x.at(i, j + 1, k + 2)


def test_subtensor_errors():
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, (3, 3))
    with pytest.raises(BoundsError):
        tk.subtensor(x, [(2, 4), ":"])
    with pytest.raises(BoundsError):
        tk.subtensor(x, [(3, 2), ":"])
    with pytest.raises(BoundsError):
        tk.subtensor(x, [4, ":"])
    with pytest.raises(ArgumentError):
        tk.subtensor(x, [1])


def test_subtensor_copies():
    x = tk.DenseTensor((2, 2), [1, 2, 3, 4])
    sub = tk.subtensor(x, [":", ":"])
    assert sub == x and sub.data is not x.data


def test_one_hot():
    e2 = tk.one_hot(2, 3)
    assert e2.data.tolist() == [0, 1, 0]
    with pytest.raises(BoundsError):
        tk.one_hot(4, 3)


def test_identity_and_matrix_unit():
    i3 = tk.identity(3)
    assert i3.shape == (3, 3) and tk.trace(i3) == 3.0
    mu = tk.matrix_unit(1, 2, 2, 2)
    assert mu.at(1, 2) == 1.0 and mu.data.sum() == 1.0


def test_super_diagonal():
    sd = tk.super_diagonal(3, 3)
    assert sd.shape == (3, 3, 3)
    assert int((sd.data != 0).sum()) == 3
    for r in range(1, 4):
        assert sd.at(r, r, r) == 1.0
    weighted = tk.super_diagonal(3, 2, weights=[2.0, 5.0])
    assert weighted.at(1, 1, 1) == 2.0 and weighted.at(2, 2, 2) == 5.0


def test_super_diagonal_sum_over_last_mode():
    for order, size in [(3, 3), (4, 2), (2, 4)]:
        sd = tk.super_diagonal(order, size)
        ones_row = tk.all_ones((1, size))
        reduced = tk.subtensor(
            tk.mode_product(sd, ones_row, order), [":"] * (order - 1) + [1]
        )
        assert reduced == tk.super_diagonal(order - 1, size)


def test_folding_operator_reproduces_fold():
    rng = np.random.default_rng(9)
    op = tk.folding_operator((2, 2))
    assert op.shape == (2, 2, 4)
    v = tk.DenseTensor((4,), [1, 2, 3, 4])
    folded = tk.tensor_product(op, v, [(3, 1)])
    assert folded == tk.fold(v, (2, 2))

    for shape in [(2, 3), (2, 2, 2)]:
        x = rand_tensor(rng, shape)
        op = tk.folding_operator(shape)
        assert tk.tensor_product(op, tk.vec(x), [(len(shape) + 1, 1)]) == x


_C_ORDERED = np.arange(128 * 128 * 64, dtype=np.float64).reshape(128, 128, 64)


@pytest.mark.parametrize(
    "build",
    [
        lambda: tk.zeros((2**20,)),
        lambda: tk.all_ones((2**20,)),
        lambda: tk.one_hot(1, 2**20),
        lambda: tk.identity(1024),
        lambda: tk.matrix_unit(1, 1, 1024, 1024),
        lambda: tk.folding_operator((32, 32)),
        lambda: tk.super_diagonal(3, 102),
        lambda: tk.DenseTensor.from_array(_C_ORDERED),
    ],
    ids=["zeros", "all_ones", "one_hot", "identity", "matrix_unit", "folding_operator", "super_diagonal", "from_array"],
)
def test_constructors_allocate_their_result_once(build):
    # Each result is about 8 MiB; a second copy of it would show in the peak.
    tracemalloc.start()
    try:
        t = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= t.data.nbytes + 2**20, (peak, t.data.nbytes)


def test_linearity_is_bit_exact():
    rng = np.random.default_rng(10)
    x = rand_tensor(rng, (3, 2, 2))
    y = rand_tensor(rng, (3, 2, 2))
    alpha = 1.7
    left = tk.vec(tk.add(tk.scale(alpha, x), y))
    right = tk.add(tk.scale(alpha, tk.vec(x)), tk.vec(y))
    assert left == right


def test_reshaping_round_trips_random_shapes():
    rng = np.random.default_rng(11)
    for _ in range(60):
        shape = rand_shape(rng)
        x = rand_tensor(rng, shape)
        assert tk.fold(tk.vec(x), shape) == x
        p = list(rng.permutation(len(shape)) + 1)
        inverse = [0] * len(shape)
        for k, v in enumerate(p, start=1):
            inverse[v - 1] = k
        assert tk.permute(tk.permute(x, p), inverse) == x
