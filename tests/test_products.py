import numpy as np
import pytest

import tenkit as tk
from tenkit import ArgumentError, ShapeError

from helpers import enumerate_indices, rand_shape, rand_tensor, rel_err


def test_matmul_examples():
    rng = np.random.default_rng(0)
    a = rand_tensor(rng, (3, 3))
    assert np.abs(tk.matmul(a, tk.identity(3)).data - a.data).max() == 0.0

    m = tk.DenseTensor((2, 2), [1, 3, 2, 4])  # [[1,2],[3,4]]
    v = tk.DenseTensor((2, 1), [1, 1])
    assert tk.matmul(m, v).data.tolist() == [3.0, 7.0]

    with pytest.raises(ShapeError):
        tk.matmul(m, tk.DenseTensor((3, 1), [1, 1, 1]))


def test_matmul_rank_one():
    rng = np.random.default_rng(1)
    a = rand_tensor(rng, (4,))
    b = rand_tensor(rng, (3,))
    c = rand_tensor(rng, (3, 1))
    left = tk.matmul(tk.outer([a, b]), c)
    want = a.data * tk.inner(b, tk.fold(tk.vec(c), (3,)))
    assert np.abs(left.data - want).max() <= 1e-12 * np.abs(want).max()


def test_matmul_equals_tensor_product():
    rng = np.random.default_rng(2)
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (4, 2))
    assert tk.matmul(a, b) == tk.tensor_product(a, b, [(2, 1)])


def test_trace():
    assert tk.trace(tk.identity(3)) == 3.0
    assert tk.trace(tk.matrix_unit(1, 2, 2, 2)) == 0.0
    rng = np.random.default_rng(3)
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (4, 3))
    ab = tk.trace(tk.matmul(a, b))
    ba = tk.trace(tk.matmul(b, a))
    assert abs(ab - ba) <= 1e-12 * max(1.0, abs(ab))
    with pytest.raises(ShapeError):
        tk.trace(a)
    # trace(S) = inner(S, I)
    s = rand_tensor(rng, (4, 4))
    assert abs(tk.trace(s) - tk.inner(s, tk.identity(4))) <= 1e-12


def test_kronecker_identity_scalar():
    rng = np.random.default_rng(4)
    a = rand_tensor(rng, (2, 3))
    one = tk.DenseTensor((1, 1), [1.0])
    assert tk.kronecker(a, one) == a and tk.kronecker(one, a) == a


def test_kronecker_entry_rule():
    rng = np.random.default_rng(5)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (3, 2))
    k = tk.kronecker(a, b)
    assert k.shape == (6, 6)
    p_ext = b.shape[0]
    q_ext = b.shape[1]
    for i, j in [(i, j) for i in range(1, 3) for j in range(1, 4)]:
        for p, q in [(p, q) for p in range(1, 4) for q in range(1, 3)]:
            assert k.at((i - 1) * p_ext + p, (j - 1) * q_ext + q) == a.at(i, j) * b.at(p, q)


def test_kronecker_mixed_product():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rand_tensor(rng, (3, 2))
        b = rand_tensor(rng, (2, 4))
        c = rand_tensor(rng, (2, 3))
        d = rand_tensor(rng, (4, 2))
        left = tk.matmul(tk.kronecker(a, b), tk.kronecker(c, d))
        right = tk.kronecker(tk.matmul(a, c), tk.matmul(b, d))
        assert np.abs(left.data - right.data).max() <= 1e-12 * max(1.0, np.abs(right.data).max())


def test_kronecker_vec_of_sandwich():
    rng = np.random.default_rng(7)
    a = rand_tensor(rng, (3, 2))
    g = rand_tensor(rng, (2, 4))
    b = rand_tensor(rng, (5, 4))
    left = tk.vec(tk.matmul(tk.matmul(a, g), tk.permute(b, [2, 1])))
    right = tk.matmul(tk.kronecker(b, a), tk.fold(tk.vec(g), (8, 1)))
    assert np.abs(left.data - right.data).max() <= 1e-12 * max(1.0, np.abs(left.data).max())


def test_khatri_rao_single_column_and_shape():
    rng = np.random.default_rng(8)
    a = rand_tensor(rng, (3, 1))
    b = rand_tensor(rng, (4, 1))
    assert tk.khatri_rao(a, b) == tk.kronecker(a, b)
    wide_a = rand_tensor(rng, (3, 5))
    wide_b = rand_tensor(rng, (4, 5))
    assert tk.khatri_rao(wide_a, wide_b).shape == (12, 5)
    with pytest.raises(ShapeError):
        tk.khatri_rao(wide_a, rand_tensor(rng, (4, 3)))


def test_khatri_rao_gram_identity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rand_tensor(rng, (4, 3))
        b = rand_tensor(rng, (5, 3))
        kr = tk.khatri_rao(a, b)
        left = tk.matmul(tk.permute(kr, [2, 1]), kr)
        right = tk.multiply(
            tk.matmul(tk.permute(a, [2, 1]), a), tk.matmul(tk.permute(b, [2, 1]), b)
        )
        assert np.abs(left.data - right.data).max() <= 1e-12 * np.abs(right.data).max()


def test_khatri_rao_column_inner_products():
    rng = np.random.default_rng(10)
    a = rand_tensor(rng, (4, 3))
    b = rand_tensor(rng, (5, 3))
    kr = tk.khatri_rao(a, b)
    for r in range(1, 4):
        for rp in range(1, 4):
            col_r = tk.subtensor(kr, [":", r])
            col_rp = tk.subtensor(kr, [":", rp])
            want = tk.inner(tk.subtensor(a, [":", r]), tk.subtensor(a, [":", rp])) * tk.inner(
                tk.subtensor(b, [":", r]), tk.subtensor(b, [":", rp])
            )
            assert abs(tk.inner(col_r, col_rp) - want) <= 1e-12 * max(1.0, abs(want))


def test_mode_product_identity_and_composition():
    rng = np.random.default_rng(11)
    x = rand_tensor(rng, (3, 4, 2))
    assert tk.mode_product(x, tk.identity(3), 1) == x

    a = rand_tensor(rng, (5, 3))
    a2 = rand_tensor(rng, (2, 5))
    left = tk.mode_product(tk.mode_product(x, a, 1), a2, 1)
    right = tk.mode_product(x, tk.matmul(a2, a), 1)
    assert np.abs(left.data - right.data).max() <= 1e-12 * max(1.0, np.abs(right.data).max())

    b = rand_tensor(rng, (6, 4))
    ab = tk.mode_product(tk.mode_product(x, a, 1), b, 2)
    ba = tk.mode_product(tk.mode_product(x, b, 2), a, 1)
    assert np.abs(ab.data - ba.data).max() <= 1e-12 * max(1.0, np.abs(ab.data).max())

    with pytest.raises(ShapeError, match="mode 2"):
        tk.mode_product(x, a, 2)


def test_mode_product_matricization_rule():
    rng = np.random.default_rng(12)
    x = rand_tensor(rng, (3, 4, 2, 2))
    for n in range(1, 5):
        a = rand_tensor(rng, (5, x.shape[n - 1]))
        y = tk.mode_product(x, a, n)
        left = tk.matricize(y, n)
        right = tk.matmul(a, tk.matricize(x, n))
        assert np.abs(left.data - right.data).max() <= 1e-12 * max(1.0, np.abs(right.data).max())


def test_multi_mode_product_identities():
    rng = np.random.default_rng(13)
    g = rand_tensor(rng, (2, 3, 2))
    eyes = [tk.identity(e) for e in g.shape]
    assert tk.multi_mode_product(g, eyes) == g

    a = rand_tensor(rng, (3, 2))
    b = rand_tensor(rng, (2, 3))
    c = rand_tensor(rng, (4, 2))
    y = tk.multi_mode_product(g, [a, b, c])
    kron = tk.kronecker(tk.kronecker(c, b), a)
    left = tk.vec(y)
    right = tk.matmul(kron, tk.fold(tk.vec(g), (g.size, 1)))
    assert np.abs(left.data - right.data).max() <= 1e-12 * max(1.0, np.abs(left.data).max())


def test_multi_mode_product_skipping_one_mode():
    rng = np.random.default_rng(14)
    g = rand_tensor(rng, (2, 3, 2))
    mats = [rand_tensor(rng, (3, 2)), rand_tensor(rng, (2, 3)), rand_tensor(rng, (4, 2))]
    for n in range(1, 4):
        slots = [m if k != n else None for k, m in enumerate(mats, start=1)]
        x = tk.multi_mode_product(g, slots)
        y = tk.multi_mode_product(g, mats)
        left = tk.matricize(y, n)
        right = tk.matmul(mats[n - 1], tk.matricize(x, n))
        assert np.abs(left.data - right.data).max() <= 1e-12 * max(1.0, np.abs(left.data).max())
    with pytest.raises(ArgumentError):
        tk.multi_mode_product(g, mats[:2])


def test_tensor_product_mode_product_equivalence():
    rng = np.random.default_rng(15)
    a = rand_tensor(rng, (4, 3))
    x = rand_tensor(rng, (3, 2, 5))
    assert tk.tensor_product(a, x, [(2, 1)]) == tk.mode_product(x, a, 1)


def test_tensor_product_two_pairs_vs_loop_oracle():
    rng = np.random.default_rng(16)
    a = rand_tensor(rng, (2, 3, 2))
    b = rand_tensor(rng, (4, 3, 2))
    got = tk.tensor_product(a, b, [(1, 3), (2, 2)])
    assert got.shape == (2, 4)
    for l in range(1, 3):
        for r in range(1, 5):
            want = sum(
                a.at(i, j, l) * b.at(r, j, i) for i in range(1, 3) for j in range(1, 4)
            )
            assert abs(got.at(l, r) - want) <= 1e-12 * max(1.0, abs(want))


def test_tensor_product_free_mode_order():
    rng = np.random.default_rng(17)
    a = rand_tensor(rng, (2, 3, 4))
    b = rand_tensor(rng, (4, 5, 6))
    got = tk.tensor_product(a, b, [(3, 1)])
    assert got.shape == (2, 3, 5, 6)


def test_tensor_product_empty_pairing_is_outer():
    rng = np.random.default_rng(18)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (2, 2, 2))
    got = tk.tensor_product(a, b, [])
    assert got.shape == (2, 3, 2, 2, 2)
    for idx in enumerate_indices(got.shape):
        assert got.at(*idx) == a.at(*idx[:2]) * b.at(*idx[2:])


@pytest.mark.parametrize(
    "shape_a, shape_b, pairing",
    [
        ((2, 3, 4), (4, 5, 3), [(3, 1), (2, 3)]),
        ((3, 2), (2, 4, 3), [(1, 3)]),
        ((2, 3), (4,), []),
        ((2, 3), (2, 3), [(1, 1), (2, 2)]),
        ((), (2, 2), []),
    ],
)
def test_swapped_pair_gemm_puts_free_modes_of_b_first(shape_a, shape_b, pairing):
    from tenkit.products import _pair_gemm

    rng = np.random.default_rng(21)
    a, b = rand_tensor(rng, shape_a), rand_tensor(rng, shape_b)
    ns, ms = [n for n, _ in pairing], [m for _, m in pairing]
    # einsum oracle: mode m of b takes the letter of the mode of a it pairs with.
    sa = "abcde"[: a.order]
    sb = "vwxyz"[: b.order]
    for n, m in pairing:
        sb = sb.replace(sb[m - 1], sa[n - 1])
    free_a = "".join(c for c in sa if c not in sb)
    free_b = "".join(c for c in sb if c not in sa)
    want = np.einsum(f"{sa},{sb}->{free_b}{free_a}", a.to_array(), b.to_array())
    fa = [k for k in range(1, a.order + 1) if k not in ns]
    fb = [k for k in range(1, b.order + 1) if k not in ms]
    got = _pair_gemm("tensor_product", a, b, ns, ms, fa, fb, 0)
    assert got.shape == want.shape
    assert np.abs(got.to_array() - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
    assert _pair_gemm("tensor_product", a, b, ns, ms, fa, fb, len(fa)) == tk.tensor_product(a, b, pairing)
    # Free modes taken in reverse: the same dot products, written in that order.
    for at, spec in ((len(fa), free_a[::-1] + free_b[::-1]), (0, free_b[::-1] + free_a[::-1])):
        want = np.einsum(f"{sa},{sb}->{spec}", a.to_array(), b.to_array())
        got = _pair_gemm("tensor_product", a, b, ns, ms, fa[::-1], fb[::-1], at)
        assert got.shape == want.shape
        assert np.abs(got.to_array() - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize(
    "shape_a, shape_b, pairing",
    [
        ((2, 3, 4), (3, 5), [(2, 1)]),  # a mode product in the middle
        ((3, 1, 2, 4), (2, 1, 3), [(3, 1), (2, 2)]),
        ((4,), (2, 4), [(1, 2)]),  # order 1: no free modes in a
        ((2, 3), (4, 1), []),  # empty pairing: an outer product
        ((1, 3, 1, 2), (3,), [(2, 1)]),  # extent-1 free modes, nothing inserted
        ((2, 1, 3, 2), (2, 2, 1), [(4, 1)]),
    ],
)
def test_pair_gemm_inserts_free_modes_of_b_at_every_position(shape_a, shape_b, pairing):
    from tenkit.products import _pair_gemm

    # Integer entries keep every product and sum exact, so the result must
    # equal the einsum oracle bit for bit.
    rng = np.random.default_rng(22)
    a, b = (tk.DenseTensor.from_array(rng.integers(-4, 5, shape) * 1.0) for shape in (shape_a, shape_b))
    ns, ms = [n for n, _ in pairing], [m for _, m in pairing]
    sa = "abcde"[: a.order]
    sb = "vwxyz"[: b.order]
    for n, m in pairing:
        sb = sb.replace(sb[m - 1], sa[n - 1])
    fb = [k for k in range(1, b.order + 1) if k not in ms]
    free_b = "".join(sb[k - 1] for k in fb)
    ascending = [k for k in range(1, a.order + 1) if k not in ns]
    # Free modes of a in storage order (read in place) and reversed (copied).
    for fa in (ascending, ascending[::-1]):
        free_a = "".join(sa[k - 1] for k in fa)
        for at in range(len(fa) + 1):
            spec = free_a[:at] + free_b + free_a[at:]
            want = np.einsum(f"{sa},{sb}->{spec}", a.to_array(), b.to_array())
            got = _pair_gemm("tensor_product", a, b, ns, ms, fa, fb, at)
            assert got.shape == want.shape and np.array_equal(got.to_array(), want)


def test_tensor_product_power_of_two_scaling_is_exact():
    # Entries of magnitude in [1, 2) are multiples of 2**-52, and so is each
    # entry of one GEMM; sums of at most 4**4 products stay below 2**10. At
    # the scales below no value is subnormal or overflows, so scaling the
    # operands scales the result bit for bit.
    rng = np.random.default_rng(33)
    for _ in range(100):
        shape_a = rand_shape(rng, max_order=4, max_extent=4, min_order=0)
        shape_b = list(rand_shape(rng, max_order=4, max_extent=4, min_order=0))
        count = int(rng.integers(0, min(len(shape_a), len(shape_b)) + 1))
        pairing = list(zip(rng.permutation(len(shape_a))[:count] + 1, rng.permutation(len(shape_b))[:count] + 1))
        for n, m in pairing:
            shape_b[m - 1] = shape_a[n - 1]
        a, b = (
            rng.choice([-1.0, 1.0], shape) * rng.uniform(1.0, 2.0, shape) for shape in (shape_a, tuple(shape_b))
        )
        pairing = [(int(n), int(m)) for n, m in pairing]
        base = tk.tensor_product(tk.DenseTensor.from_array(a), tk.DenseTensor.from_array(b), pairing).data
        for j, k in ((-960, 0), (0, 960), (-500, -460), (480, 480), (-1, 1)):
            got = tk.tensor_product(
                tk.DenseTensor.from_array(np.ldexp(a, j)), tk.DenseTensor.from_array(np.ldexp(b, k)), pairing
            ).data
            assert got.tobytes() == np.ldexp(base, j + k).tobytes()


def test_tensor_product_errors():
    rng = np.random.default_rng(19)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (4, 2))
    with pytest.raises(ShapeError, match=r"\(1,1\)"):
        tk.tensor_product(a, b, [(1, 1)])
    with pytest.raises(ArgumentError):
        tk.tensor_product(a, b, [(1, 2), (1, 1)])
    with pytest.raises(ArgumentError):
        tk.tensor_product(a, b, [(3, 1)])


def test_tt_pair_product_matrices_and_chains():
    rng = np.random.default_rng(20)
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (4, 2))
    assert tk.tt_pair_product(a, b) == tk.matmul(a, b)

    x = rand_tensor(rng, (2, 3, 4))
    y = rand_tensor(rng, (4, 2, 3))
    z = rand_tensor(rng, (3, 2))
    left = tk.tt_pair_product(x, tk.tt_pair_product(y, z))
    right = tk.tt_pair_product(tk.tt_pair_product(x, y), z)
    assert np.abs(left.data - right.data).max() <= 1e-12 * max(1.0, np.abs(left.data).max())

    with pytest.raises(ShapeError):
        tk.tt_pair_product(a, z)


def test_tt_pair_product_chain_vs_loop_oracle():
    rng = np.random.default_rng(21)
    c1 = rand_tensor(rng, (1, 2, 3))
    c2 = rand_tensor(rng, (3, 2, 4))
    c3 = rand_tensor(rng, (4, 2, 1))
    got = tk.tt_pair_product(tk.tt_pair_product(c1, c2), c3)
    assert got.shape == (1, 2, 2, 2, 1)
    for i in range(1, 3):
        for j in range(1, 3):
            for k in range(1, 3):
                want = sum(
                    c1.at(1, i, a) * c2.at(a, j, b) * c3.at(b, k, 1)
                    for a in range(1, 4)
                    for b in range(1, 5)
                )
                assert abs(got.at(1, i, j, k, 1) - want) <= 1e-12 * max(1.0, abs(want))


def test_kronecker_inverse_law():
    rng = np.random.default_rng(22)
    done = 0
    while done < 10:
        a = rand_tensor(rng, (3, 3))
        b = rand_tensor(rng, (3, 3))
        if np.linalg.cond(a.to_array()) > 50 or np.linalg.cond(b.to_array()) > 50:
            continue
        done += 1
        kron = tk.kronecker(a, b)
        inv = tk.kronecker(tk.pinv(a), tk.pinv(b))
        assert np.abs(tk.matmul(kron, inv).data - tk.identity(9).data).max() <= 1e-10


def test_kronecker_pinv_law():
    rng = np.random.default_rng(23)
    a = rand_tensor(rng, (3, 2))
    b = rand_tensor(rng, (2, 2))
    left = tk.pinv(tk.kronecker(a, b))
    right = tk.kronecker(tk.pinv(a), tk.pinv(b))
    assert np.abs(left.data - right.data).max() <= 1e-10


def test_kronecker_fold_permute_outer_coherence():
    # folding a Kronecker product as (P,I,Q,J) and permuting to (I,J,P,Q)
    # gives exactly the folded outer product of the two vectorizations
    rng = np.random.default_rng(25)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (4, 2))
    folded_kron = tk.fold(tk.vec(tk.kronecker(a, b)), (4, 2, 2, 3))
    rearranged = tk.permute(folded_kron, [2, 4, 1, 3])
    folded_outer = tk.fold(tk.vec(tk.outer([tk.vec(a), tk.vec(b)])), (2, 3, 4, 2))
    assert rearranged == folded_outer


def test_entry_as_inner_product_with_one_hot_outer():
    rng = np.random.default_rng(24)
    a = rand_tensor(rng, (2, 3, 2))
    for idx in enumerate_indices(a.shape):
        probe = tk.outer([tk.one_hot(i, e) for i, e in zip(idx, a.shape)])
        assert tk.inner(a, probe) == a.at(*idx)


# --- storage-order products against einsum on reshape(order="F") arrays ------


def _f_array(t):
    return np.asarray(t.data).reshape(t.shape, order="F")


def _check_against(got, want, *inputs):
    assert got.shape == want.shape
    assert rel_err(_f_array(got), want) <= 1e-12
    assert not got.data.flags.writeable and got.data.flags.c_contiguous
    for t in inputs:
        assert not np.shares_memory(got.data, t.data)


def _tensor_product_oracle(a, b, pairing):
    sa = list(range(a.order))
    sb = list(range(a.order, a.order + b.order))
    for n, m in pairing:
        sb[m - 1] = sa[n - 1]
    paired_a = {n for n, _ in pairing}
    paired_b = {m for _, m in pairing}
    out = [s for n, s in enumerate(sa, start=1) if n not in paired_a]
    out += [s for m, s in enumerate(sb, start=1) if m not in paired_b]
    return np.einsum(_f_array(a), sa, _f_array(b), sb, out)


def test_tensor_product_matches_einsum_oracle_on_random_pairings():
    rng = np.random.default_rng(40)
    for _ in range(300):
        a_shape = rand_shape(rng, max_order=5, max_extent=3, min_order=0)
        b_shape = list(rand_shape(rng, max_order=5, max_extent=3, min_order=0))
        k = int(rng.integers(0, min(len(a_shape), len(b_shape)) + 1))
        pairing = list(zip(rng.permutation(len(a_shape))[:k] + 1, rng.permutation(len(b_shape))[:k] + 1))
        pairing = [(int(n), int(m)) for n, m in pairing]
        for n, m in pairing:
            b_shape[m - 1] = a_shape[n - 1]
        a, b = rand_tensor(rng, a_shape), rand_tensor(rng, tuple(b_shape))
        _check_against(tk.tensor_product(a, b, pairing), _tensor_product_oracle(a, b, pairing), a, b)


@pytest.mark.parametrize(
    "a_shape, b_shape, pairing",
    [
        ((2, 3, 4), (4, 2, 3), [(3, 1), (1, 2), (2, 3)]),  # full contraction, pairs out of mode order
        ((3, 1, 2), (2, 1, 3), [(2, 2), (3, 1), (1, 3)]),
        ((2, 1, 4, 3), (3, 5, 1, 4), [(4, 1), (3, 4)]),
        ((1, 3, 1), (1, 3), [(3, 1)]),
        ((3,), (2, 4), []),  # outer products with order-1 operands
        ((2, 4), (3,), []),
        ((3,), (1,), []),
        ((), (2, 3), []),
        ((2, 3), (), []),
        ((4,), (4,), [(1, 1)]),
    ],
)
def test_tensor_product_matches_einsum_oracle_on_edge_cases(a_shape, b_shape, pairing):
    rng = np.random.default_rng(41)
    a, b = rand_tensor(rng, a_shape), rand_tensor(rng, b_shape)
    _check_against(tk.tensor_product(a, b, pairing), _tensor_product_oracle(a, b, pairing), a, b)


@pytest.mark.parametrize("order", range(1, 6))
def test_mode_product_matches_einsum_oracle_on_every_mode(order):
    rng = np.random.default_rng(50 + order)
    shapes = [rand_shape(rng, order, 4, order) for _ in range(4)]
    shapes += [(1,) * order, (1,) * (order - 1) + (3,), (3,) + (1,) * (order - 1)]
    for shape in shapes:
        x = rand_tensor(rng, shape)
        for n in range(1, order + 1):
            for rows in (1, 3):
                a = rand_tensor(rng, (rows, shape[n - 1]))
                out = list(range(order))
                out[n - 1] = order
                want = np.einsum(_f_array(a), [order, n - 1], _f_array(x), list(range(order)), out)
                _check_against(tk.mode_product(x, a, n), want, x, a)


def test_matmul_matches_einsum_oracle():
    rng = np.random.default_rng(42)
    for shape_a, cols in (((3, 4), 2), ((1, 4), 1), ((3, 1), 5), ((1, 1), 1)):
        a, b = rand_tensor(rng, shape_a), rand_tensor(rng, (shape_a[1], cols))
        _check_against(tk.matmul(a, b), np.einsum("ij,jk->ik", _f_array(a), _f_array(b)), a, b)
