import math

import numpy as np
import pytest

import tenkit as tk
from tenkit import ArgumentError, NumericError, ShapeError
from tenkit import factor

from helpers import rand_tensor, sym3_eigvals


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


@pytest.mark.parametrize("shape", AT_GATE + BELOW_GATE, ids=lambda s: f"{s[0]}x{s[1]}")
def test_svd_rotates_r_only_at_or_past_the_gate(shape, monkeypatch):
    calls = []
    householder = factor._householder

    def spy(a):
        calls.append(a.shape)
        return householder(a)

    monkeypatch.setattr(factor, "_householder", spy)
    tk.svd(tk.DenseTensor.from_array(np.random.default_rng(17).standard_normal(shape)))
    assert calls == ([(max(shape), min(shape))] if shape in AT_GATE else [])


def test_householder_power_of_two_scaling_is_exact():
    rng = np.random.default_rng(18)
    for _ in range(200):
        a = rng.standard_normal((int(rng.integers(1, 30)), int(rng.integers(1, 30))))
        e = int(rng.integers(-900, 900))
        q, r = factor._householder(a)
        q_scaled, r_scaled = factor._householder(np.ldexp(a, e))
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


@pytest.mark.parametrize("n", range(1, 11))
def test_round_robin_covers_every_pair_once_in_disjoint_rounds(n):
    rounds = factor._round_robin(n)
    assert len(rounds) == n - 1 + n % 2
    seen = []
    for pq in rounds:
        k = pq.size // 2
        assert len(set(pq.tolist())) == pq.size
        seen += list(zip(pq[:k].tolist(), pq[k:].tolist()))
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]
