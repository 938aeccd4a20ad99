import math

import numpy as np
import pytest

import tenkit as tk
from tenkit import ArgumentError, NumericError, ShapeError
from tenkit import factor

from helpers import narrow_spy, rand_tensor, sym3_eigvals


def test_qr_random_residual_and_invariants():
    rng = np.random.default_rng(0)
    m = rand_tensor(rng, (6, 3))
    res = tk.qr(m)
    q, r = res.q.to_array(), res.r.to_array()
    assert np.abs(q @ r - m.to_array()).max() <= 1e-12 * tk.frobenius_norm(m)
    assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-12 * 6
    assert np.array_equal(np.triu(r), r)
    assert (np.diag(r) >= 0).all()


def test_qr_orthonormal_input():
    rng = np.random.default_rng(1)
    base = tk.qr(rand_tensor(rng, (5, 3))).q
    res = tk.qr(base)
    assert np.abs(res.r.to_array() - np.eye(3)).max() <= 1e-12
    assert np.abs(res.q.to_array() - base.to_array()).max() <= 1e-12


def test_qr_rank_deficient():
    rng = np.random.default_rng(2)
    col = rng.standard_normal(4)
    m = tk.DenseTensor.from_array(np.column_stack([col, col]))
    res = tk.qr(m)
    assert abs(res.r.at(2, 2)) <= 1e-12
    assert np.abs(res.q.to_array() @ res.r.to_array() - m.to_array()).max() <= 1e-12


def test_qr_rejects_wide():
    rng = np.random.default_rng(3)
    with pytest.raises(ShapeError):
        tk.qr(rand_tensor(rng, (2, 4)))


def test_svd_diagonal():
    res = tk.svd(tk.DenseTensor.from_array(np.diag([3.0, 1.0])))
    assert res.sigma.data.tolist() == [3.0, 1.0]


def test_svd_rank_one():
    rng = np.random.default_rng(4)
    a = rand_tensor(rng, (5,))
    b = rand_tensor(rng, (4,))
    res = tk.svd(tk.outer([a, b]))
    want = math.sqrt(tk.inner(a, a)) * math.sqrt(tk.inner(b, b))
    assert abs(res.sigma.at(1) - want) <= 1e-12 * want
    assert res.sigma.data[1:].max() <= 1e-12 * want


def test_svd_singular_values_match_cubic_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rand_tensor(rng, (5, 3))
        gram = m.to_array().T @ m.to_array()
        eigs = sym3_eigvals(gram)
        sigmas = tk.svd(m).sigma.data
        for s, e in zip(sigmas, eigs):
            assert abs(s * s - e) <= 1e-10 * max(1.0, abs(e))


def test_svd_invariants_random():
    rng = np.random.default_rng(6)
    for _ in range(100):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = rand_tensor(rng, (rows, cols))
        res = tk.svd(m)
        u, s, v = res.u.to_array(), res.sigma.data, res.v.to_array()
        k = min(rows, cols)
        assert u.shape == (rows, k) and v.shape == (cols, k) and s.shape == (k,)
        assert (s >= 0).all() and (np.diff(s) <= 0).all()
        dim = max(rows, cols)
        assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12 * dim
        assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-12 * dim
        resid = np.abs(u @ np.diag(s) @ v.T - m.to_array()).max()
        assert resid <= 1e-12 * max(tk.frobenius_norm(m), 1e-300)


def test_svd_sign_convention_is_deterministic():
    rng = np.random.default_rng(7)
    m = rand_tensor(rng, (4, 4))
    res = tk.svd(m)
    u = res.u.to_array()
    for j in range(4):
        assert u[np.argmax(np.abs(u[:, j])), j] > 0


def test_truncated_svd_full_rank_reconstructs():
    rng = np.random.default_rng(8)
    m = rand_tensor(rng, (5, 3))
    res = tk.truncated_svd(m, 3)
    rec = res.u.to_array() @ np.diag(res.sigma.data) @ res.v.to_array().T
    assert np.abs(rec - m.to_array()).max() <= 1e-12 * tk.frobenius_norm(m)


def test_truncated_svd_known_error():
    m = tk.DenseTensor.from_array(np.diag([3.0, 2.0, 1.0]))
    res = tk.truncated_svd(m, 2)
    rec = res.u.to_array() @ np.diag(res.sigma.data) @ res.v.to_array().T
    assert abs(np.linalg.norm(m.to_array() - rec) - 1.0) <= 1e-12
    with pytest.raises(ArgumentError):
        tk.truncated_svd(m, 4)
    with pytest.raises(ArgumentError):
        tk.truncated_svd(m, 0)


def test_truncated_svd_eckart_young_identity():
    rng = np.random.default_rng(9)
    m = rand_tensor(rng, (6, 4))
    full = tk.svd(m)
    for k in range(1, 5):
        res = tk.truncated_svd(m, k)
        rec = res.u.to_array() @ np.diag(res.sigma.data) @ res.v.to_array().T
        err2 = np.linalg.norm(m.to_array() - rec) ** 2
        tail2 = float((full.sigma.data[k:] ** 2).sum())
        assert abs(err2 - tail2) <= 1e-10 * max(1.0, tail2)


def test_truncated_svd_beats_random_competitors():
    rng = np.random.default_rng(10)
    m = rand_tensor(rng, (6, 4))
    k = 2
    res = tk.truncated_svd(m, k)
    rec = res.u.to_array() @ np.diag(res.sigma.data) @ res.v.to_array().T
    best = np.linalg.norm(m.to_array() - rec)
    for _ in range(100):
        u = rng.standard_normal((6, k))
        v = rng.standard_normal((4, k))
        # least-squares-polished competitor: solve for v given u
        coef = np.linalg.lstsq(u, m.to_array(), rcond=None)[0]
        assert best <= np.linalg.norm(m.to_array() - u @ coef) + 1e-12
        assert best <= np.linalg.norm(m.to_array() - u @ v.T) + 1e-12


def test_numerical_rank():
    assert tk.numerical_rank(tk.identity(4)) == 4
    rng = np.random.default_rng(11)
    a = rand_tensor(rng, (5,))
    b = rand_tensor(rng, (4,))
    assert tk.numerical_rank(tk.outer([a, b])) == 1
    near = tk.DenseTensor.from_array(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]]))
    assert tk.numerical_rank(near) == 1
    assert tk.numerical_rank(tk.zeros((3, 3))) == 0
    assert tk.numerical_rank(tk.identity(4), tol=2.0) == 0


def test_pinv():
    assert np.abs(tk.pinv(tk.identity(3)).data - tk.identity(3).data).max() == 0.0
    d = tk.DenseTensor.from_array(np.diag([2.0, 0.0]))
    assert np.allclose(tk.pinv(d).to_array(), np.diag([0.5, 0.0]), atol=1e-15)
    rng = np.random.default_rng(12)
    for shape in [(5, 3), (3, 5), (4, 4)]:
        m = rand_tensor(rng, shape)
        dag = tk.pinv(m)
        back = tk.matmul(tk.matmul(m, dag), m)
        assert np.abs(back.data - m.data).max() <= 1e-10 * tk.frobenius_norm(m)


def test_qr_then_svd_of_r_matches_svd_of_m():
    rng = np.random.default_rng(13)
    m = rand_tensor(rng, (7, 4))
    res = tk.qr(m)
    s_direct = tk.svd(m).sigma.data
    s_via_r = tk.svd(res.r).sigma.data
    assert np.abs(s_direct - s_via_r).max() <= 1e-10 * max(1.0, s_direct[0])


def _planted(rng, m, n, rank):
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


# Shapes on either side of the QR gate: m >= _QR_ASPECT * n rows and
# n >= _QR_MIN_COLS columns, after a wide input is transposed.
_GATE_N = factor._QR_MIN_COLS
_GATE_M = factor._QR_ASPECT * _GATE_N
BELOW_GATE = [(_GATE_M - 1, _GATE_N), (factor._QR_ASPECT * (_GATE_N - 1), _GATE_N - 1)]
AT_GATE = [(_GATE_M, _GATE_N), (_GATE_N, _GATE_M), (576, 24)]

# Odd and even column counts (the round-robin ordering pads odd ones),
# n = 1 and 2, a wide input, the unfolding shapes the decompositions use,
# and tall inputs on both sides of the QR gate, also far from unit scale.
ORACLE_MATRICES = {
    "1x1": lambda rng: rng.standard_normal((1, 1)),
    "5x1": lambda rng: rng.standard_normal((5, 1)),
    "6x2": lambda rng: rng.standard_normal((6, 2)),
    "7x3": lambda rng: rng.standard_normal((7, 3)),
    "9x8": lambda rng: rng.standard_normal((9, 8)),
    "13x13": lambda rng: rng.standard_normal((13, 13)),
    "16x16": lambda rng: rng.standard_normal((16, 16)),
    "wide 5x11": lambda rng: rng.standard_normal((5, 11)),
    "4096x4": lambda rng: rng.standard_normal((4096, 4)),
    "216x36": lambda rng: rng.standard_normal((216, 36)),
    "planted rank 4 576x24": lambda rng: _planted(rng, 576, 24, 4),
    "just below the gate in m": lambda rng: rng.standard_normal(BELOW_GATE[0]),
    "just below the gate in n": lambda rng: rng.standard_normal(BELOW_GATE[1]),
    "at the gate": lambda rng: rng.standard_normal(AT_GATE[0]),
    "wide 24x576": lambda rng: rng.standard_normal((24, 576)),
    "planted rank 2 400x20": lambda rng: _planted(rng, 400, 20, 2),
    "576x24 near 1e300": lambda rng: 1e300 * rng.standard_normal((576, 24)),
    "576x24 near 1e-300": lambda rng: 1e-300 * rng.standard_normal((576, 24)),
}


@pytest.mark.parametrize("make", ORACLE_MATRICES.values(), ids=ORACLE_MATRICES.keys())
def test_svd_matches_numpy_oracle(make):
    a = make(np.random.default_rng(14))
    res = tk.svd(tk.DenseTensor.from_array(a))
    u, s, v = res.u.to_array(), res.sigma.data, res.v.to_array()
    k = min(a.shape)
    # Compare at unit scale, where norms neither overflow nor underflow;
    # dividing by a power of two is exact.
    scale = 2.0 ** math.frexp(np.abs(a).max())[1]
    a, s = a / scale, s / scale
    want = np.linalg.svd(a, compute_uv=False)
    assert np.abs(s - want).max() <= 1e-13 * want[0]
    assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-14
    assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-14
    assert np.linalg.norm(u * s @ v.T - a) <= 1e-13 * np.linalg.norm(a)


def _null_third_step(rng):
    """400x20 whose first three columns are upper triangular, the third zero
    from row 3 down: steps 1 and 2 reflect a multiple of e_k, and step 3 has
    nothing left to reflect."""
    a = rng.standard_normal((400, 20))
    a[1:, 0] = 0.0
    a[2:, 1:3] = 0.0
    return a


# Tall inputs, past the QR gate, whose Householder steps are null (zero
# reflector columns, listed) or reflect rounding noise (the planted rank 4).
NULL_STEP_MATRICES = {
    "zero 64x16": (lambda rng: np.zeros((64, 16)), list(range(16))),
    "400x20 with a null third step": (_null_third_step, [2]),
    "planted rank 4 576x24": (lambda rng: _planted(rng, 576, 24, 4), []),
}


@pytest.mark.parametrize("make, null", NULL_STEP_MATRICES.values(), ids=NULL_STEP_MATRICES.keys())
def test_qr_with_null_reflector_steps_matches_numpy(make, null):
    a = make(np.random.default_rng(21))
    n = a.shape[1]
    assert np.flatnonzero(~factor._reflect(a.copy(order="F")).any(axis=0)).tolist() == null
    res = tk.qr(tk.DenseTensor.from_array(a))
    q, r = res.q.to_array(), res.r.to_array()
    norm = np.linalg.norm(a)
    assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-14
    assert np.linalg.norm(q @ r - a) <= 1e-14 * norm
    assert np.array_equal(np.triu(r), r) and (np.diag(r) >= 0.0).all()
    assert np.abs(np.abs(r) - np.abs(np.linalg.qr(a, mode="r"))).max() <= 1e-14 * norm


@pytest.mark.parametrize("make, null", NULL_STEP_MATRICES.values(), ids=NULL_STEP_MATRICES.keys())
def test_tall_svd_with_null_reflector_steps_matches_numpy(make, null):
    a = make(np.random.default_rng(21))
    res = tk.svd(tk.DenseTensor.from_array(a))
    u, s, v = res.u.to_array(), res.sigma.data, res.v.to_array()
    n = a.shape[1]
    want = np.linalg.svd(a, compute_uv=False)
    assert np.abs(s - want).max() <= 1e-13 * want[0]
    assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-14
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-14
    assert np.linalg.norm(u * s @ v.T - a) <= 1e-13 * np.linalg.norm(a)


@pytest.mark.parametrize("shape", AT_GATE + BELOW_GATE, ids=lambda s: f"{s[0]}x{s[1]}")
def test_svd_rotates_r_only_at_or_past_the_gate(shape, monkeypatch):
    calls = []
    reflect = factor._reflect

    def spy(a):
        calls.append(a.shape)
        return reflect(a)

    monkeypatch.setattr(factor, "_reflect", spy)
    tk.svd(tk.DenseTensor.from_array(np.random.default_rng(17).standard_normal(shape)))
    assert calls == ([(max(shape), min(shape))] if shape in AT_GATE else [])


def test_householder_power_of_two_scaling_is_exact():
    rng = np.random.default_rng(18)
    for _ in range(200):
        a = rng.standard_normal((int(rng.integers(1, 30)), int(rng.integers(1, 30))))
        e = int(rng.integers(-900, 900))
        q, r = factor._householder(a, "qr")
        q_scaled, r_scaled = factor._householder(np.ldexp(a, e), "qr")
        assert np.array_equal(q_scaled, q)
        assert np.array_equal(r_scaled, np.ldexp(r, e))


def test_svd_of_zero_matrix_has_orthonormal_u():
    res = tk.svd(tk.zeros((4, 3)))
    u, s, v = res.u.to_array(), res.sigma.data, res.v.to_array()
    assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-15
    assert np.array_equal(s, np.zeros(3))
    assert np.array_equal(u * s @ v.T, np.zeros((4, 3)))


@pytest.mark.parametrize("shape", [(4, 3), (4096, 4), (576, 24)])
def test_svd_with_a_zero_column_has_orthonormal_u(shape):
    a = np.random.default_rng(15).standard_normal(shape)
    a[:, 1] = 0.0
    res = tk.svd(tk.DenseTensor.from_array(a))
    u, s, v = res.u.to_array(), res.sigma.data, res.v.to_array()
    k = shape[1]
    assert s[-1] == 0.0
    assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-14
    rec = u * s @ v.T
    assert np.array_equal(rec[:, 1], np.zeros(shape[0]))
    assert np.abs(rec - a).max() <= 1e-15 * np.linalg.norm(a)


def test_jacobi_svd_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(factor, "_JACOBI_SWEEPS", 1)
    m = tk.DenseTensor.from_array(np.random.default_rng(16).standard_normal((16, 16)))
    with pytest.raises(NumericError, match="did not converge in 1 sweeps"):
        tk.svd(m)


def test_jacobi_svd_on_r_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(factor, "_JACOBI_SWEEPS", 1)
    m = tk.DenseTensor.from_array(np.random.default_rng(16).standard_normal((400, 20)))
    with pytest.raises(NumericError) as err:
        tk.svd(m)
    assert str(err.value).startswith(
        "jacobi svd did not converge in 1 sweeps (on the 20x20 R of a 400x20 input) "
        "(max off-diagonal gram entry "
    )
    assert "limit" in str(err.value) and "input scaled by 2**" in str(err.value)


def _column_orthogonal(rng, shape):
    """A matrix whose columns (rows, if it is wide) have disjoint supports, so
    Jacobi finds every pair orthogonal and stops after its first sweep."""
    a = np.zeros(shape)
    k = min(shape)
    a[np.arange(k), rng.permutation(k)] = rng.uniform(1.0, 2.0, k) * rng.choice([-1.0, 1.0], k)
    return a


def _at_scale(a, e):
    """a scaled by a power of two so that max|a| lies in [2**(e-1), 2**e)."""
    return np.ldexp(a, e - math.frexp(np.abs(a).max())[1]) if a.any() else a


def _mixed_stack(rng, make):
    """Three slices of one shape: one near 2**500, one that converges in
    sweep 1, and one near 2**-500 with a dead column (a zero row, if wide)."""
    a, dead = make(rng), make(rng)
    if dead.shape[0] >= dead.shape[1]:
        dead[:, -1] = 0.0
    else:
        dead[-1, :] = 0.0
    return [_at_scale(a, 500), _column_orthogonal(rng, a.shape), _at_scale(dead, -500)]


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("make", ORACLE_MATRICES.values(), ids=ORACLE_MATRICES.keys())
def test_stacked_jacobi_slices_match_single_calls_bit_for_bit(make):
    slices = _mixed_stack(np.random.default_rng(19), make)
    u, s, v, exp = factor._jacobi_svd(np.stack(slices))
    for i, a in enumerate(slices):
        one = tk.svd(tk.DenseTensor.from_array(a))
        assert _same_bits(u[i], one.u.to_array())
        assert _same_bits(np.ldexp(s[i], exp[i]), one.sigma.data)
        assert _same_bits(v[i], one.v.to_array())


def test_column_orthogonal_slice_converges_in_one_sweep(monkeypatch):
    monkeypatch.setattr(factor, "_JACOBI_SWEEPS", 1)
    rng = np.random.default_rng(20)
    tk.svd(tk.DenseTensor.from_array(_column_orthogonal(rng, (16, 16))))
    with pytest.raises(NumericError):
        tk.svd(tk.DenseTensor.from_array(rng.standard_normal((16, 16))))


@pytest.mark.parametrize("shape", [(16, 16), (400, 20)], ids=["16x16", "400x20"])
def test_stacked_jacobi_names_the_slice_that_does_not_converge(shape, monkeypatch):
    monkeypatch.setattr(factor, "_JACOBI_SWEEPS", 1)
    rng = np.random.default_rng(20)
    stack = np.stack([_column_orthogonal(rng, shape), rng.standard_normal(shape)])
    with pytest.raises(NumericError) as err:
        factor._jacobi_svd(stack)
    on_r = " (on the 20x20 R of a 400x20 input)" if shape == (400, 20) else ""
    assert str(err.value).startswith(
        f"jacobi svd did not converge in 1 sweeps on slice 2 of 2{on_r} (max off-diagonal gram entry "
    )


@pytest.mark.parametrize("n", range(1, 11))
def test_round_robin_covers_every_pair_once_in_disjoint_rounds(n):
    rounds = factor._round_robin(n)
    assert len(rounds) == n - 1 + n % 2
    k = n // 2
    seen = []
    for order, _ in rounds:
        # Each round orders every column once: its p, its q, then the idle one.
        assert sorted(order.tolist()) == list(range(n))
        seen += list(zip(order[:k].tolist(), order[k : 2 * k].tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_round_robin_of_a_stack_lists_each_columns_rows_together(n):
    # Column j of matrix i of a stack of 3 is row 3 * j + i.
    for (order, _), (rows, _) in zip(factor._round_robin(n), factor._round_robin(n, 3)):
        assert rows.tolist() == [3 * j + i for j in order.tolist() for i in range(3)]


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("n", range(2, 10))
def test_round_robin_steps_carry_the_rows_from_round_to_round(n, b):
    # Rows labelled by their natural index, taken into the first round's
    # order and then at each round's step, as _jacobi_svd moves them.
    rounds = factor._round_robin(n, b)
    k = n // 2 * b
    labels = rounds[0][0].copy()
    seen, idle = [], []
    for order, step in rounds:
        assert labels.tolist() == order.tolist()
        # The first 2k positions hold this round's pairs: pair i is rows i
        # and k + i, the same slice's columns p < q.
        p, q = divmod(labels[:k], b), divmod(labels[k : 2 * k], b)
        assert (p[1] == q[1]).all() and (p[0] < q[0]).all()
        seen += list(zip(p[1].tolist(), p[0].tolist(), q[0].tolist()))
        idle.append(labels[2 * k :].tolist())
        labels = labels[step]
    # One sweep's steps compose to the identity.
    assert labels.tolist() == rounds[0][0].tolist()
    assert sorted(seen) == [(i, p, q) for i in range(b) for p in range(n) for q in range(p + 1, n)]
    # For odd n the idle column takes every position once: each column
    # sits out exactly one round, its rows together.
    if n % 2:
        assert sorted(idle) == [[j * b + i for i in range(b)] for j in range(n)]
    else:
        assert idle == [[]] * len(rounds)


# --- the truncated Jacobi path ---------------------------------------------


def _planted_spectrum(rng, shape, sigmas, noise):
    """A matrix with leading singular values near sigmas plus noise * a
    standard normal matrix; bases from numpy's QR."""
    k = len(sigmas)
    u = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
    return u * np.asarray(sigmas) @ v.T + noise * rng.standard_normal(shape)



def _assert_leading_triplets(u, s, v, a, k, tol=1e-12):
    """u (m, k), s (k,), v (n, k) against numpy's SVD of a: sigma relative
    to sigma_1, the columns up to sign, and orthonormality."""
    nu, ns, nvt = np.linalg.svd(a, full_matrices=False)
    assert np.abs(s[:k] - ns[:k]).max() <= tol * ns[0]
    signs = np.sign((u[:, :k] * nu[:, :k]).sum(axis=0))
    assert np.abs(u[:, :k] - nu[:, :k] * signs).max() <= tol
    assert np.abs(v[:, :k] - nvt[:k].T * signs).max() <= tol
    for f in (u[:, :k], v[:, :k]):
        assert np.abs(f.T @ f - np.eye(k)).max() <= 1e-12


@pytest.mark.parametrize("shape", [(30, 12), (12, 30), (80, 16)], ids=["30x12", "12x30", "80x16_on_r"])
def test_truncated_svd_of_planted_low_rank_matches_numpy(shape, monkeypatch):
    narrow = narrow_spy(monkeypatch)
    a = _planted_spectrum(np.random.default_rng(40), shape, [9.0, 5.0, 3.0], 1e-6)
    res = tk.truncated_svd(tk.DenseTensor.from_array(a), 3)
    assert any(narrow)
    _assert_leading_triplets(res.u.to_array(), res.sigma.data, res.v.to_array(), a, 3)


def test_truncated_jacobi_stops_rotating_the_dominated_block(monkeypatch):
    narrow = narrow_spy(monkeypatch)
    a = _planted_spectrum(np.random.default_rng(41), (24, 24), [8.0, 4.0, 2.0, 1.0], 1e-6)
    full = factor._jacobi_svd(a[None])
    assert narrow == []
    # keep >= n is the plain path, bit for bit, one bound test per sweep.
    assert all(_same_bits(x, y) for x, y in zip(factor._jacobi_svd(a[None], [24]), full))
    sweeps = len(narrow)
    assert not any(narrow)
    del narrow[:]
    u, s, v, exp = factor._jacobi_svd(a[None], [4])
    # Fewer sweeps, the last of them testing only the pairs that touch the
    # four leading columns.
    assert len(narrow) < sweeps and narrow[-1]
    _assert_leading_triplets(u[0], np.ldexp(s[0], exp[0]), v[0], a, 4)
    assert np.abs(u[0, :, :4] - full[0][0, :, :4]).max() <= 1e-12
    # The trailing columns are not rotated to singular vectors, but their
    # squared norms still sum to the trailing squared singular values, to
    # rounding at the scale of sigma_1.
    ns = np.linalg.svd(a, compute_uv=False)
    tail2 = float((ns[4:] ** 2).sum())
    assert abs(float((np.ldexp(s[0, 4:], exp[0]) ** 2).sum()) - tail2) <= 1e-14 * ns[0] * math.sqrt(tail2)


def test_stacked_truncated_jacobi_keeps_each_slices_own_count(monkeypatch):
    rng = np.random.default_rng(42)
    slices = [
        _planted_spectrum(rng, (20, 14), [6.0, 3.0], 1e-7),
        _planted_spectrum(rng, (20, 14), [5.0, 4.0, 2.0, 1.0, 0.5], 1e-7),
        rng.standard_normal((20, 14)),
    ]
    keep = [2, 5, 3]
    narrow = narrow_spy(monkeypatch)
    u, s, v, exp = factor._jacobi_svd(np.stack(slices), keep)
    assert any(narrow)
    for i, (a, p) in enumerate(zip(slices, keep)):
        one = factor._jacobi_svd(a[None], [p])
        assert all(_same_bits(x[i], y[0]) for x, y in zip((u, s, v, exp), one))
        _assert_leading_triplets(u[i], np.ldexp(s[i], exp[i]), v[i], a, p)
    # The random slice's bound never holds: it gets the bits of svd.
    plain = tk.svd(tk.DenseTensor.from_array(slices[2]))
    assert _same_bits(u[2], plain.u.to_array()) and _same_bits(v[2], plain.v.to_array())


@pytest.mark.parametrize("shape", [(7, 40), (90, 17)], ids=["7x40", "90x17_on_r"])
def test_stacked_jacobi_matches_single_calls_at_odd_n(shape, monkeypatch):
    # An odd column count leaves one column idle in every round. 7x40 is
    # factored as its 40x7 transpose on the plain path, 90x17 as the 17x17 R
    # of its QR. The second slice has a dead column (a zero row, if wide),
    # and the third keeps 2 triplets of a planted spectrum, so it narrows.
    rng = np.random.default_rng(44)
    dead = rng.standard_normal(shape)
    if shape[0] >= shape[1]:
        dead[:, 3] = 0.0
    else:
        dead[3, :] = 0.0
    slices = [rng.standard_normal(shape), dead, _planted_spectrum(rng, shape, [6.0, 3.0], 1e-7)]
    n = min(shape)
    keep = [n, n, 2]
    narrow = narrow_spy(monkeypatch)
    u, s, v, exp = factor._jacobi_svd(np.stack(slices), keep)
    assert any(narrow)
    for i, (a, p) in enumerate(zip(slices, keep)):
        one = factor._jacobi_svd(a[None], [p])
        assert all(_same_bits(x[i], y[0]) for x, y in zip((u, s, v, exp), one))
        if p == n:
            plain = tk.svd(tk.DenseTensor.from_array(a))
            assert _same_bits(u[i], plain.u.to_array()) and _same_bits(v[i], plain.v.to_array())
        # The dead slice's last triplet is not unique: leave it out.
        _assert_leading_triplets(u[i], np.ldexp(s[i], exp[i]), v[i], a, p - 1 if i == 1 else p)


def test_truncated_jacobi_resumes_full_sweeps_when_the_bound_breaks(monkeypatch):
    # Columns x and x + 0.01 y lead, two correlated columns of squared norm
    # 0.1 trail, with keep 2: the bound holds for the first sweep (0.2 <= 1),
    # whose rotation of the two leading columns leaves one of squared norm
    # about 5e-5. Then the trailing pair is no longer dominated, and the
    # full sweeps must resume to find the second singular value, 0.1 (1 +
    # cos 1) in square, in that pair.
    a = np.zeros((6, 4))
    a[0, :2] = 1.0
    a[1, 1] = 0.01
    a[2, 2] = math.sqrt(0.1)
    a[2:4, 3] = math.sqrt(0.1) * np.array([math.cos(1.0), math.sin(1.0)])
    narrow = narrow_spy(monkeypatch)
    res = tk.truncated_svd(tk.DenseTensor.from_array(a), 2)
    assert narrow[:2] == [True, False]
    _assert_leading_triplets(res.u.to_array(), res.sigma.data, res.v.to_array(), a, 2)
    assert abs(res.sigma.data[1] ** 2 - 0.1 * (1.0 + math.cos(1.0))) <= 1e-14


@pytest.mark.parametrize(
    "call",
    [
        lambda m: tk.svd(m),
        lambda m: tk.pinv(m),
        lambda m: tk.numerical_rank(m),
        lambda m: tk.truncated_svd(m, min(m.shape)),
    ],
    ids=["svd", "pinv", "numerical_rank", "truncated_svd_full"],
)
def test_full_svd_callers_never_narrow_the_sweeps(call, monkeypatch):
    narrow = narrow_spy(monkeypatch)
    call(tk.DenseTensor.from_array(_planted_spectrum(np.random.default_rng(43), (20, 12), [4.0, 2.0], 1e-9)))
    assert not any(narrow)


def test_truncated_jacobi_verifies_only_the_tested_pairs_when_sweeps_run_out(monkeypatch):
    # The leading column and a column of norm 1e-10 have a Gram entry of
    # 1e-16: below the absolute limit but large for their norms, so that pair
    # still rotates in the one sweep allowed, and the Gram matrix is checked.
    # The three correlated trailing columns are dominated (0.3 <= 1) and are
    # never rotated; only the leading column's pairs are checked.
    monkeypatch.setattr(factor, "_JACOBI_SWEEPS", 1)
    a = np.zeros((8, 5))
    a[0, 0] = 1.0
    a[0, 1] = 1e-16
    a[7, 1] = 1e-10
    t = np.array([[3.0, 1.0, 2.0], [1.0, 2.0, 1.0], [2.0, 1.0, 3.0]])
    a[2:5, 2:5] = math.sqrt(0.1) * t / np.linalg.norm(t, axis=0)
    narrow = narrow_spy(monkeypatch)
    u, s, v, exp = factor._jacobi_svd(a[None], [1])
    assert narrow == [True] and v[0, 1, 0] != 0.0
    _assert_leading_triplets(u[0], np.ldexp(s[0], exp[0]), v[0], a, 1)
    with pytest.raises(NumericError, match="did not converge in 1 sweeps"):
        factor._jacobi_svd(a[None])
