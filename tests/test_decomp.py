import numpy as np
import pytest

import tenkit as tk
from tenkit import decomp, factor
from tenkit import ArgumentError, ModelError, ShapeError

from helpers import (
    narrow_spy,
    numpy_cp_als_trace,
    planted_cp_factors,
    planted_tt_train,
    rand_tensor,
    reconstruct_err,
)


def cp_model(rng, shape, rank, weights=None):
    factors = tuple(rand_tensor(rng, (e, rank)) for e in shape)
    w = tk.DenseTensor((rank,), weights if weights is not None else np.ones(rank))
    return tk.CPModel(w, factors)


# --- CP ----------------------------------------------------------------------


def test_cp_reconstruct_rank_one_one_hots():
    model = tk.CPModel(
        tk.DenseTensor((1,), [1.0]),
        (
            tk.fold(tk.one_hot(1, 2), (2, 1)),
            tk.fold(tk.one_hot(2, 3), (3, 1)),
            tk.fold(tk.one_hot(1, 2), (2, 1)),
        ),
    )
    x = tk.cp_reconstruct(model)
    assert x.shape == (2, 3, 2)
    assert x.at(1, 2, 1) == 1.0 and tk.sum_all(x) == 1.0


def test_cp_reconstruct_vec_identity():
    rng = np.random.default_rng(0)
    m = cp_model(rng, (3, 4, 2), 2, weights=rng.standard_normal(2))
    kr = tk.khatri_rao(tk.khatri_rao(m.factors[2], m.factors[1]), m.factors[0])
    want = kr.to_array() @ m.weights.data
    got = tk.vec(tk.cp_reconstruct(m)).data
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_cp_reconstruct_matricization_identity():
    rng = np.random.default_rng(1)
    m = cp_model(rng, (3, 4, 2), 2, weights=rng.standard_normal(2))
    x1 = tk.matricize(tk.cp_reconstruct(m), 1)
    lam = tk.DenseTensor.from_array(np.diag(m.weights.data))
    kr = tk.khatri_rao(m.factors[2], m.factors[1])
    want = tk.matmul(tk.matmul(m.factors[0], lam), tk.permute(kr, [2, 1]))
    assert np.abs(x1.data - want.data).max() <= 1e-12 * max(1.0, np.abs(want.data).max())


def test_cp_reconstruct_equals_weighted_super_diagonal_product():
    rng = np.random.default_rng(2)
    weights = rng.standard_normal(3)
    m = cp_model(rng, (4, 3, 2), 3, weights=weights)
    core = tk.super_diagonal(3, 3, weights=weights)
    via_tucker = tk.multi_mode_product(core, m.factors)
    assert np.abs(tk.cp_reconstruct(m).data - via_tucker.data).max() <= 1e-12


def test_cp_model_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ModelError):
        tk.CPModel(tk.DenseTensor((2,), [1, 1]), (rand_tensor(rng, (3, 3)),))
    with pytest.raises(ModelError):
        tk.CPModel(rand_tensor(rng, (2, 2)), (rand_tensor(rng, (3, 2)),))


def test_cp_als_recovers_rank_one():
    rng = np.random.default_rng(4)
    vectors = [rng.standard_normal(e) for e in (3, 4, 2)]
    vectors = [v / np.linalg.norm(v) for v in vectors]
    x = tk.scale(5.0, tk.outer([tk.DenseTensor((v.size,), v) for v in vectors]))
    fit = tk.cp_als(x, 1, max_sweeps=5, seed=0)
    assert reconstruct_err(x, tk.cp_reconstruct(fit.model)) <= 1e-8
    assert len(fit.trace) <= 5


def test_cp_als_recovers_planted_rank_three():
    rng = np.random.default_rng(5)
    factors = planted_cp_factors(rng, (4, 4, 4), 3)
    truth = tk.CPModel(
        tk.DenseTensor((3,), np.ones(3)),
        tuple(tk.DenseTensor.from_array(f) for f in factors),
    )
    x = tk.cp_reconstruct(truth)
    fit = tk.cp_als(x, 3, seed=11)
    assert reconstruct_err(x, tk.cp_reconstruct(fit.model)) <= 1e-5


def test_cp_als_objective_monotone_even_with_wrong_rank():
    rng = np.random.default_rng(6)
    x = rand_tensor(rng, (3, 3, 3))
    fit = tk.cp_als(x, 2, max_sweeps=40, tol=0.0, seed=1, restarts=1)
    diffs = np.diff(fit.trace)
    assert (diffs <= 1e-10).all()


def test_cp_als_weights_absorb_column_norms():
    rng = np.random.default_rng(7)
    x = rand_tensor(rng, (3, 3, 3))
    fit = tk.cp_als(x, 2, max_sweeps=10, seed=2, restarts=1)
    for f in fit.model.factors:
        norms = np.sqrt((f.to_array() ** 2).sum(axis=0))
        assert np.abs(norms - 1.0).max() <= 1e-12


def test_cp_als_argument_errors():
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, (2, 2, 2))
    with pytest.raises(ArgumentError):
        tk.cp_als(tk.fold(tk.vec(x), (4, 2)), 1)
    with pytest.raises(ArgumentError):
        tk.cp_als(x, 0)
    with pytest.raises(ArgumentError):
        tk.cp_als(x, 9)


def test_cp_als_nonfinite_objective_is_numeric_error():
    huge = tk.DenseTensor((2, 2, 2), [1e308] * 8)
    with np.errstate(all="ignore"), pytest.raises(tk.NumericError):
        tk.cp_als(huge, 2, max_sweeps=3, restarts=1)


@pytest.mark.parametrize(
    "shape,rank", [((4, 4, 4), 3), ((5, 4, 3), 2), ((3, 4, 2, 3), 2), ((2, 3, 2, 2, 3), 2)]
)
def test_cp_als_matches_numpy_pinv_als(shape, rank):
    rng = np.random.default_rng(12)
    truth = tk.CPModel(
        tk.DenseTensor((rank,), np.ones(rank)),
        tuple(tk.DenseTensor.from_array(f) for f in planted_cp_factors(rng, shape, rank)),
    )
    x = tk.cp_reconstruct(truth)
    fit = tk.cp_als(x, rank, max_sweeps=20, tol=0.0, seed=3, restarts=1)
    want = numpy_cp_als_trace(x.to_array(), rank, 20, seed=3)
    scale = np.linalg.norm(x.to_array())
    assert len(fit.trace) == 20
    assert np.abs(np.array(fit.trace) - want).max() <= 1e-9 * scale


def test_cp_als_stacked_restarts_match_numpy_oracle():
    # Planted instance whose three oracle restarts stop at different sweeps
    # (one runs out of max_sweeps) and whose winner is not restart 0.
    rng = np.random.default_rng(18)
    truth = tk.CPModel(
        tk.DenseTensor((3,), np.ones(3)),
        tuple(tk.DenseTensor.from_array(f) for f in planted_cp_factors(rng, (4, 4, 4), 3)),
    )
    x = tk.cp_reconstruct(truth)
    xa = x.to_array()
    scale = np.linalg.norm(xa)
    tol, max_sweeps = 1e-8, 200
    want = [
        numpy_cp_als_trace(xa, 3, max_sweeps, seed=5, restart=r, tol=tol) for r in range(3)
    ]
    lengths = tuple(len(t) for t in want)
    assert len(set(lengths)) == 3
    fit = tk.cp_als(x, 3, max_sweeps=max_sweeps, tol=tol, seed=5, restarts=3)
    assert fit.restart == int(np.argmin([t[-1] for t in want]))
    assert fit.sweeps == lengths
    assert fit.converged == tuple(abs(t[-2] - t[-1]) / scale < tol for t in want)
    assert False in fit.converged and True in fit.converged
    winner = want[fit.restart]
    assert len(fit.trace) == len(winner)
    assert np.abs(np.array(fit.trace) - winner).max() <= 1e-9 * scale


def test_cp_als_cached_stacks_follow_stopped_restarts():
    # The middle restart stops first (sweep 24), then restart 0 (28); the
    # winner, restart 2, runs on to sweep 42, so every sweep after a stop
    # reads Gram and Khatri-Rao stacks that must have lost the stopped slice.
    rng = np.random.default_rng(19)
    truth = tk.CPModel(
        tk.DenseTensor((3,), np.ones(3)),
        tuple(tk.DenseTensor.from_array(f) for f in planted_cp_factors(rng, (4, 4, 4), 3)),
    )
    x = tk.cp_reconstruct(truth)
    xa = x.to_array()
    scale = np.linalg.norm(xa)
    want = [numpy_cp_als_trace(xa, 3, 200, seed=4, restart=r, tol=1e-8) for r in range(3)]
    assert [len(t) for t in want] == [28, 24, 42]
    fit = tk.cp_als(x, 3, seed=4, restarts=3)
    assert fit.sweeps == (28, 24, 42)
    assert fit.restart == 2
    assert np.abs(np.array(fit.trace) - want[2]).max() <= 1e-9 * scale


def test_cp_als_power_of_two_scaling_is_exact():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4, 5))
    base = tk.cp_als(tk.DenseTensor.from_array(a), 2, seed=1)
    for k in (-900, -500, 500, 900):
        fit = tk.cp_als(tk.DenseTensor.from_array(np.ldexp(a, k)), 2, seed=1)
        assert np.array(fit.trace).tobytes() == np.ldexp(base.trace, k).tobytes()
        assert fit.model.weights.to_array().tobytes() == np.ldexp(base.model.weights.to_array(), k).tobytes()
        for f, g in zip(fit.model.factors, base.model.factors):
            assert f.to_array().tobytes() == g.to_array().tobytes()
        assert (fit.restart, fit.sweeps, fit.converged) == (base.restart, base.sweeps, base.converged)


def test_cp_als_far_from_unit_scale():
    # At 1e-170 the squared residuals and column norms underflow unless the
    # fit is scaled; at 1e154 they overflow.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4, 5))

    def rel_error(s):
        fit = tk.cp_als(tk.DenseTensor.from_array(s * a), 2, seed=1)
        approx = tk.cp_reconstruct(fit.model).to_array() / s
        return np.linalg.norm(a - approx) / np.linalg.norm(a)

    unit = rel_error(1.0)
    assert 0.1 < unit < 1.0
    for s in (1e-170, 1e154):
        assert abs(rel_error(s) - unit) <= 1e-12


def test_cp_als_weights_beyond_float_range_is_numeric_error():
    # A rank-3 tensor of border rank 2 (norm sqrt(3)): the rank-2 fit's two
    # components grow and cancel, so at 2^1022 times x its weights pass
    # 2^1024 while the tensor's norm does not.
    a, b = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 2)))[0].T
    x = sum(np.einsum("i,j,k->ijk", *v) for v in ((a, a, b), (a, b, a), (b, a, a)))
    unit = tk.cp_als(tk.DenseTensor.from_array(x), 2, max_sweeps=500, tol=0.0, restarts=1)
    assert np.abs(unit.model.weights.to_array()).max() > 4.0
    with pytest.raises(tk.NumericError, match="weights"):
        tk.cp_als(tk.DenseTensor.from_array(np.ldexp(x, 1022)), 2, max_sweeps=500, tol=0.0, restarts=1)


# x(i,j,k) = a_i b_j c_k with c = (1, 0, 1): rank 1 with a zero fiber, so
# the Gram of a rank-2 or rank-3 fit can pass Cholesky on a tiny positive
# pivot and still be exactly singular to the LU solve.
_RANK_ONE = tk.outer([tk.DenseTensor((3,), v) for v in ([1, 2, 3], [1, 1, 1], [1, 0, 1])])


def _rank_one_5x5x5(s):
    """outer(a, b, c) of three standard-normal 5-vectors from default_rng([99, s])."""
    rng = np.random.default_rng([99, s])
    return tk.outer([tk.DenseTensor((5,), rng.standard_normal(5)) for _ in range(3)])


# _RANK_ONE at the default tol, and three rank-one 5x5x5 tensors at tol 0
# whose normal matrices pass Cholesky while singular in floating point, so
# that LU solves them into factors that overflow.
_RANK_DEFICIENT_FITS = [
    pytest.param(_RANK_ONE, rank, seed, 1e-8, id=f"{seed}-{rank}") for seed in range(6) for rank in (2, 3)
] + [pytest.param(_rank_one_5x5x5(s), 3, 0, 0.0, id=f"5x5x5-{s}") for s in (4, 15, 54)]


@pytest.mark.parametrize("x, rank, seed, tol", _RANK_DEFICIENT_FITS)
def test_cp_als_fits_a_rank_deficient_tensor(monkeypatch, x, rank, seed, tol):
    # Some normal matrix of the first block is singular, so its stacked rank
    # test, an LU solve or the residual fails and the block is replayed.
    replayed = _spy_solve_pinv(monkeypatch)
    fit = tk.cp_als(x, rank, seed=seed, tol=tol)
    assert replayed
    approx = tk.cp_reconstruct(fit.model)
    assert tk.frobenius_norm(tk.subtract(x, approx)) <= 1e-14 * tk.frobenius_norm(x)
    xa = x.to_array()
    want = numpy_cp_als_trace(xa, rank, 200, seed=seed, restart=fit.restart, tol=tol)
    assert len(fit.trace) == len(want)
    assert np.abs(np.array(fit.trace) - want).max() <= 1e-9 * np.linalg.norm(xa)


def test_cp_als_diverging_fit_raises_before_numpy_warns(monkeypatch):
    # From the first sweep's last mode update on, every solve, LU or pinv,
    # comes out 2**600 times too large: that factor's Gram and the residual's
    # squares overflow within the sweep, while the sweep's normal matrices,
    # formed before it from a well-conditioned fit, stay finite. The LU
    # sweep's residual is non-finite, so the fit is replayed from sweep 1
    # through the pseudo-inverse, which diverges the same way and raises.
    # Under the suite's RuntimeWarning filter a warning would surface before
    # the residual check.
    calls = {"_solve_lu": [], "_solve_pinv": []}

    def diverging(name):
        solve = getattr(decomp, name)

        def spy(gram, rhs):
            calls[name].append(gram.shape)
            out = solve(gram, rhs)
            return out * 2.0**600 if len(calls[name]) >= 3 else out

        monkeypatch.setattr(decomp, name, spy)

    diverging("_solve_lu")
    diverging("_solve_pinv")
    with pytest.raises(tk.NumericError, match="^cp_als objective became non-finite$"):
        tk.cp_als(_well_conditioned_fit_input(), 2, seed=14, tol=0.0)
    assert calls == {"_solve_lu": [(3, 2, 2)] * 3, "_solve_pinv": [(3, 2, 2)] * 3}


def _well_conditioned_fit_input():
    rng = np.random.default_rng(12)
    factors = planted_cp_factors(rng, (4, 4, 4), 3)
    return tk.DenseTensor.from_array(np.einsum("ir,jr,kr->ijk", *factors))


def _fit_bytes(fit):
    return (
        np.array(fit.trace).tobytes(),
        fit.model.weights.to_array().tobytes(),
        tuple(f.to_array().tobytes() for f in fit.model.factors),
        fit.restart,
        fit.sweeps,
        fit.converged,
    )


def _spy_cholesky(monkeypatch, reject=lambda call, a: False):
    """Shapes np.linalg.cholesky is called on; reject(call, a) makes call number
    `call` (from 1) raise, as for a matrix that is not positive definite."""
    calls = []
    cholesky = np.linalg.cholesky

    def spy(a):
        calls.append(a.shape)
        if reject(len(calls), a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return calls


def _spy_solve_pinv(monkeypatch):
    """Shapes of the normal matrices cp_als hands to _solve_pinv."""
    calls = []
    solve_pinv = decomp._solve_pinv

    def spy(gram, rhs):
        calls.append(gram.shape)
        return solve_pinv(gram, rhs)

    monkeypatch.setattr(decomp, "_solve_pinv", spy)
    return calls


def _pinv_from(sweep, x, rank, **kwargs):
    """_fit_bytes of cp_als(x, rank, **kwargs) with every _solve_lu call from
    mode 1 of `sweep` on swapped for _solve_pinv: the fit that a replay from
    that sweep gives."""
    calls = []
    solve_lu = decomp._solve_lu

    def swapped(gram, rhs):
        calls.append(gram.shape)
        solve = solve_lu if len(calls) <= x.order * (sweep - 1) else decomp._solve_pinv
        return solve(gram, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "_solve_lu", swapped)
        fit = tk.cp_als(x, rank, **kwargs)
    assert len(calls) > x.order * (sweep - 1)
    return _fit_bytes(fit)


def test_cp_als_tests_every_normal_matrix_of_a_block_in_one_cholesky(monkeypatch):
    calls = _spy_cholesky(monkeypatch)
    fit = tk.cp_als(_well_conditioned_fit_input(), 3, tol=0.0, max_sweeps=20)
    assert fit.sweeps == (20, 20, 20)
    # A block of 16 sweeps, then the last 4; each sweep holds N = 3 modes
    # times B = 3 restarts of 3x3 normal matrices.
    assert calls == [(144, 3, 3), (36, 3, 3)]


def test_cp_als_replayed_block_gives_the_same_fit(monkeypatch):
    x = _well_conditioned_fit_input()
    want = _pinv_from(17, x, 3, tol=0.0, max_sweeps=20)
    replayed = _spy_solve_pinv(monkeypatch)
    calls = _spy_cholesky(monkeypatch, lambda call, a: call == 2)
    fit = tk.cp_als(x, 3, tol=0.0, max_sweeps=20)
    # The second block failed its test, so sweeps 17-20 are replayed through
    # the pseudo-inverse, with no further test.
    assert calls == [(144, 3, 3), (36, 3, 3)]
    assert replayed == [(3, 3, 3)] * 12
    assert _fit_bytes(fit) == want


@pytest.mark.parametrize("tol", [0.0, 1e-8])
@pytest.mark.parametrize("sweep,block_start", [(1, 1), (5, 1), (17, 17), (20, 17)])
def test_cp_als_failed_lu_solve_replays_its_block_with_the_same_fit(monkeypatch, sweep, block_start, tol):
    # At tol 1e-8 restart 1 stops at sweep 43, which ends the block it is in.
    x = _well_conditioned_fit_input()
    base = tk.cp_als(x, 3, tol=tol, max_sweeps=50)
    assert base.sweeps == ((50, 43, 50) if tol else (50, 50, 50))
    want = _pinv_from(block_start, x, 3, tol=tol, max_sweeps=50)
    calls = []
    solve_lu = decomp._solve_lu

    def flaky(gram, rhs):
        # Mode 1 of `sweep` raises.
        calls.append(gram.shape)
        if len(calls) == 3 * (sweep - 1) + 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve_lu(gram, rhs)

    monkeypatch.setattr(decomp, "_solve_lu", flaky)
    replayed = _spy_solve_pinv(monkeypatch)
    fit = tk.cp_als(x, 3, tol=tol, max_sweeps=50)
    assert len(calls) == 3 * (sweep - 1) + 1
    assert len(replayed) == 3 * (50 - block_start + 1)
    assert _fit_bytes(fit) == want


def test_cp_als_tests_a_block_before_a_restart_stops(monkeypatch):
    x = _well_conditioned_fit_input()
    base = tk.cp_als(x, 3)
    assert base.sweeps == (74, 43, 113)
    calls = _spy_cholesky(monkeypatch)
    tk.cp_als(x, 3)
    # Blocks end at sweeps 16, 32, then 43, where restart 1 stops: its 11
    # sweeps are tested with all three restarts still in the stack.
    assert calls[:3] == [(144, 3, 3), (144, 3, 3), (99, 3, 3)]
    # Failing that test replays sweeps 33-43 before the stop is recorded.
    want = _pinv_from(33, x, 3)
    calls = _spy_cholesky(monkeypatch, lambda call, a: call == 3)
    assert _fit_bytes(tk.cp_als(x, 3)) == want


def test_cp_als_tests_a_block_before_a_non_finite_residual_raises(monkeypatch):
    # Sweep 3's first solve overflows, as an LU solve of a normal matrix that
    # is singular in floating point can. The residual is non-finite, so the
    # fit is replayed from sweep 1 through the pseudo-inverse, with no rank
    # test, instead of raising "objective became non-finite".
    x = _well_conditioned_fit_input()
    want = _pinv_from(1, x, 3, tol=0.0, max_sweeps=20)
    solves = []
    solve_lu = decomp._solve_lu

    def overflowing(gram, rhs):
        solves.append(gram.shape)
        out = solve_lu(gram, rhs)
        return np.full_like(out, np.inf) if len(solves) == 7 else out

    monkeypatch.setattr(decomp, "_solve_lu", overflowing)
    calls = _spy_cholesky(monkeypatch)
    replayed = _spy_solve_pinv(monkeypatch)
    fit = tk.cp_als(x, 3, tol=0.0, max_sweeps=20)
    assert len(solves) == 9 and calls == []
    assert replayed == [(3, 3, 3)] * 60
    assert _fit_bytes(fit) == want


def test_cp_als_block_path_matches_the_per_mode_path(monkeypatch):
    # Planted fits at ranks above and below the true one, the rank-one
    # tensor whose normal matrices are singular, and order-4/5 fits.
    rng = np.random.default_rng(0)
    fits = []
    for k in range(28):
        order = 3 if k < 20 else 4 + k % 2
        shape = rng.integers(2, 6 if order == 3 else 4, size=order)
        true_rank = int(rng.integers(1, 4))
        modes = "ijklm"[:order]
        x = np.einsum(
            ",".join(m + "r" for m in modes) + "->" + modes,
            *(rng.standard_normal((e, true_rank)) for e in shape),
        )
        fits.append((tk.DenseTensor.from_array(x), int(rng.integers(1, 5)), k, (1e-8, 0.0)[k // 2 % 2]))
    fits += [(_RANK_ONE, rank, seed, (1e-8, 0.0)[seed % 2]) for rank in (2, 3) for seed in range(6)]

    # Every fit as plain ALS, through the pseudo-inverse from sweep 1 on.
    plain = [_pinv_from(1, x, r, seed=s, tol=t, max_sweeps=24) for x, r, s, t in fits]
    # Rejecting every stacked test replays each fit from sweep 1.
    _spy_cholesky(monkeypatch, lambda call, a: True)
    replayed = [_fit_bytes(tk.cp_als(x, r, seed=s, tol=t, max_sweeps=24)) for x, r, s, t in fits]
    assert len(fits) == 40
    assert [k for k, (a, b) in enumerate(zip(replayed, plain)) if a != b] == []


def test_cp_als_large_rank_tests_one_sweep_per_cholesky(monkeypatch):
    # 3 modes times 3 restarts of 40x40 normal matrices are 14400 floats,
    # above the 64 KiB bound, so every block is one sweep. (At 6x6x6 each
    # rank-40 normal matrix is singular: a Hadamard product of two rank-6
    # Grams has rank at most 36.)
    x = tk.DenseTensor.from_array(np.random.default_rng(3).standard_normal((8, 8, 8)))
    calls = _spy_cholesky(monkeypatch)
    fit = tk.cp_als(x, 40, max_sweeps=3, tol=0.0)
    assert fit.sweeps == (3, 3, 3)
    assert calls == [(9, 40, 40)] * 3


def test_cp_als_falls_back_to_pinv_when_the_solve_fails(monkeypatch):
    # Whatever the BLAS does with the rank-one case above, a solve that
    # raises must reach the pseudo-inverse, not the caller.
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    calls = []
    real_pinv = np.linalg.pinv

    def counted_pinv(a):
        calls.extend(m.shape for m in a)
        return real_pinv(a)

    rng = np.random.default_rng(4)
    x = tk.DenseTensor.from_array(np.einsum("ir,jr,kr->ijk", *(rng.standard_normal((4, 2)) for _ in range(3))))
    base = tk.cp_als(x, 2, seed=0, tol=1e-12)
    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(np.linalg, "pinv", counted_pinv)
    fit = tk.cp_als(x, 2, seed=0, tol=1e-12)
    assert calls and set(calls) == {(2, 2)}
    assert fit.sweeps == base.sweeps and fit.restart == base.restart
    assert tk.frobenius_norm(tk.subtract(x, tk.cp_reconstruct(fit.model))) <= 1e-10 * tk.frobenius_norm(x)


@pytest.mark.parametrize("rank", [2, 3])
def test_cp_als_replays_singular_normal_matrices_without_the_jacobi_kernel(monkeypatch, rank):
    # The fallback solves through numpy's pseudo-inverse; the in-house
    # Jacobi SVD is left to the SVD family.
    jacobi = []
    real = factor._jacobi_svd

    def spy(a, keep=None):
        jacobi.append(a.shape)
        return real(a, keep)

    monkeypatch.setattr(factor, "_jacobi_svd", spy)
    monkeypatch.setattr(decomp, "_jacobi_svd", spy)
    replayed = _spy_solve_pinv(monkeypatch)
    tk.cp_als(_RANK_ONE, rank, seed=0)
    assert replayed and jacobi == []


def test_cp_als_raises_when_the_pseudo_inverse_fails(monkeypatch):
    # A failure on the plain ALS path has no block left to replay: it raises
    # at once. The spy stops after a few calls, so a fit that replays it
    # again and again fails here instead of running forever.
    calls = []

    def failing(a):
        calls.append(a.shape)
        if len(calls) > 5:
            raise RuntimeError("pinv failure replayed")
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", failing)
    with pytest.raises(tk.NumericError, match="^cp_als pseudo-inverse did not converge$"):
        tk.cp_als(_RANK_ONE, 3, seed=0, tol=0.0, max_sweeps=20)
    assert calls == [(3, 3, 3)]


def test_cp_reconstruct_rejects_non_cp_models():
    rng = np.random.default_rng(9)
    for value in (0, tk.hosvd(rand_tensor(rng, (2, 2, 2)))):
        with pytest.raises(ArgumentError, match=r"^cp_reconstruct model must be a CPModel, got \w+$"):
            tk.cp_reconstruct(value)


def test_cp_fit_constructs_without_restart_fields():
    model = tk.CPModel(tk.DenseTensor((1,), [1.0]), (tk.DenseTensor((2, 1), [1.0, 0.0]),))
    fit = tk.CPFit(model, (0.5,), 0)
    assert fit.sweeps == () and fit.converged == ()


# --- Tucker ------------------------------------------------------------------


def test_tucker_reconstruct_super_diagonal_core_equals_cp():
    rng = np.random.default_rng(9)
    weights = rng.standard_normal(2)
    cp = cp_model(rng, (3, 4, 2), 2, weights=weights)
    tucker = tk.TuckerModel(tk.super_diagonal(3, 2, weights=weights), cp.factors)
    assert np.abs(
        tk.tucker_reconstruct(tucker).data - tk.cp_reconstruct(cp).data
    ).max() <= 1e-12


def test_tucker_reconstruct_identity_factors():
    rng = np.random.default_rng(10)
    core = rand_tensor(rng, (2, 3, 2))
    model = tk.TuckerModel(core, tuple(tk.identity(e) for e in core.shape))
    assert tk.tucker_reconstruct(model) == core


def test_tucker_matricization_identity():
    rng = np.random.default_rng(11)
    core = rand_tensor(rng, (2, 2, 3))
    factors = (rand_tensor(rng, (4, 2)), rand_tensor(rng, (3, 2)), rand_tensor(rng, (5, 3)))
    model = tk.TuckerModel(core, factors)
    x1 = tk.matricize(tk.tucker_reconstruct(model), 1)
    kron = tk.kronecker(factors[2], factors[1])
    want = tk.matmul(
        tk.matmul(factors[0], tk.matricize(core, 1)), tk.permute(kron, [2, 1])
    )
    assert np.abs(x1.data - want.data).max() <= 1e-12 * max(1.0, np.abs(want.data).max())


def test_hosvd_rank_one_core():
    rng = np.random.default_rng(12)
    a = rand_tensor(rng, (3,))
    b = rand_tensor(rng, (4,))
    c = rand_tensor(rng, (2,))
    x = tk.outer([a, b, c])
    model = tk.hosvd(x)
    want = np.prod([np.linalg.norm(v.data) for v in (a, b, c)])
    core = model.core
    assert abs(abs(core.at(1, 1, 1)) - want) <= 1e-10 * want
    assert np.abs(core.data).max() == abs(core.at(1, 1, 1))


def test_hosvd_reconstruction_exact():
    rng = np.random.default_rng(13)
    x = rand_tensor(rng, (3, 4, 5))
    assert reconstruct_err(x, tk.tucker_reconstruct(tk.hosvd(x))) <= 1e-10


def test_hosvd_core_all_orthogonal():
    rng = np.random.default_rng(14)
    x = rand_tensor(rng, (3, 4, 2, 2))
    core = tk.hosvd(x).core
    norm2 = tk.inner(x, x)
    for n in range(1, 5):
        m = tk.matricize(core, n).to_array()
        gram = m @ m.T
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        assert off <= 1e-10 * norm2


def test_hosvd_core_gram_diagonal_matches_singular_values():
    rng = np.random.default_rng(15)
    x = rand_tensor(rng, (3, 4, 2))
    model = tk.hosvd(x)
    m = tk.matricize(model.core, 1).to_array()
    diag = np.sort(np.diag(m @ m.T))[::-1]
    sigma = tk.svd(tk.matricize(x, 1)).sigma.data
    assert np.abs(diag - sigma**2).max() <= 1e-10 * max(1.0, sigma[0] ** 2)


def test_truncated_hosvd_full_ranks_equals_hosvd():
    rng = np.random.default_rng(16)
    x = rand_tensor(rng, (3, 4, 2))
    full = tk.hosvd(x)
    trunc = tk.truncated_hosvd(x, full.ranks)
    assert reconstruct_err(
        tk.tucker_reconstruct(full), tk.tucker_reconstruct(trunc)
    ) <= 1e-12


def test_truncated_hosvd_recovers_planted_model():
    rng = np.random.default_rng(17)
    core = rand_tensor(rng, (2, 2, 2))
    factors = tuple(tk.qr(rand_tensor(rng, (4, 2))).q for _ in range(3))
    x = tk.tucker_reconstruct(tk.TuckerModel(core, factors))
    model = tk.truncated_hosvd(x, (2, 2, 2))
    assert reconstruct_err(x, tk.tucker_reconstruct(model)) <= 1e-10


def test_truncated_hosvd_error_at_least_single_mode_bound():
    rng = np.random.default_rng(18)
    x = rand_tensor(rng, (4, 4, 4))
    ranks = (2, 3, 4)
    model = tk.truncated_hosvd(x, ranks)
    err = tk.frobenius_norm(tk.subtract(x, tk.tucker_reconstruct(model)))
    for n, p in enumerate(ranks, start=1):
        sigma = tk.svd(tk.matricize(x, n)).sigma.data
        matrix_best = np.sqrt(float((sigma[p:] ** 2).sum()))
        assert err >= matrix_best - 1e-10


def test_truncated_hosvd_rank_errors():
    rng = np.random.default_rng(19)
    x = rand_tensor(rng, (3, 3, 3))
    with pytest.raises(ArgumentError):
        tk.truncated_hosvd(x, (0, 1, 1))
    with pytest.raises(ArgumentError):
        tk.truncated_hosvd(x, (4, 1, 1))
    with pytest.raises(ArgumentError):
        tk.truncated_hosvd(x, (1, 1))


# Tensors whose unfoldings share shapes, so hosvd factors them as stacks:
# cubes (all three modes) and order-4 tensors with repeated extents.
GROUPED_UNFOLDING_SHAPES = [(12, 12, 12), (16, 16, 16), (20, 20, 20), (24, 24, 24), (8, 8, 8, 8), (16, 16, 16, 4)]


@pytest.mark.parametrize("shape", GROUPED_UNFOLDING_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_hosvd_factors_are_the_svd_bases_of_the_unfoldings(shape):
    rng = np.random.default_rng(21)
    x = rand_tensor(rng, shape)
    ranks = tuple(max(1, e // 3) for e in shape)
    full = tk.hosvd(x)
    trunc = tk.truncated_hosvd(x, ranks)
    for n, p in enumerate(ranks):
        u = tk.svd(tk.matricize(x, n + 1)).u.to_array()
        assert full.factors[n].to_array().tobytes() == u.tobytes()
        assert trunc.factors[n].to_array().tobytes() == u[:, :p].tobytes()


def test_tucker_orthogonalize_preserves_reconstruction():
    rng = np.random.default_rng(20)
    model = tk.TuckerModel(
        rand_tensor(rng, (2, 2, 2)),
        (rand_tensor(rng, (4, 2)), rand_tensor(rng, (3, 2)), rand_tensor(rng, (5, 2))),
    )
    ortho = tk.tucker_orthogonalize(model)
    assert reconstruct_err(
        tk.tucker_reconstruct(model), tk.tucker_reconstruct(ortho)
    ) <= 1e-12
    for n, f in enumerate(ortho.factors, start=1):
        fn = f.to_array()
        assert np.abs(fn.T @ fn - np.eye(f.shape[1])).max() <= 1e-12 * f.shape[0]


def test_tucker_orthogonalize_norm_moves_to_core():
    rng = np.random.default_rng(21)
    model = tk.TuckerModel(
        rand_tensor(rng, (2, 3, 2)),
        (rand_tensor(rng, (4, 2)), rand_tensor(rng, (3, 3)), rand_tensor(rng, (2, 2))),
    )
    ortho = tk.tucker_orthogonalize(model)
    assert abs(
        tk.frobenius_norm(tk.tucker_reconstruct(ortho)) - tk.frobenius_norm(ortho.core)
    ) <= 1e-10


def test_tucker_orthogonalize_idempotent_on_orthogonal_model():
    rng = np.random.default_rng(22)
    model = tk.tucker_orthogonalize(
        tk.TuckerModel(
            rand_tensor(rng, (2, 2)),
            (rand_tensor(rng, (4, 2)), rand_tensor(rng, (3, 2))),
        )
    )
    again = tk.tucker_orthogonalize(model)
    assert reconstruct_err(tk.tucker_reconstruct(model), tk.tucker_reconstruct(again)) <= 1e-12
    assert np.abs(again.core.data - model.core.data).max() <= 1e-12 * max(
        1.0, np.abs(model.core.data).max()
    )


def test_tucker_orthogonalize_rejects_wide_factor():
    rng = np.random.default_rng(23)
    model = tk.TuckerModel(rand_tensor(rng, (3, 2)), (rand_tensor(rng, (2, 3)), rand_tensor(rng, (4, 2))))
    with pytest.raises(ShapeError, match=r"^tucker_orthogonalize factor 1 has more columns than rows: \(2,3\)$"):
        tk.tucker_orthogonalize(model)


# --- TT ----------------------------------------------------------------------


def test_tt_reconstruct_rank_one_is_outer_product():
    rng = np.random.default_rng(24)
    fibers = [rng.standard_normal(e) for e in (3, 4, 2)]
    cores = tuple(tk.DenseTensor((1, e, 1), f) for e, f in zip((3, 4, 2), fibers))
    x = tk.tt_reconstruct(tk.TTTrain(cores))
    want = tk.outer([tk.DenseTensor((v.size,), v) for v in fibers])
    assert np.abs(x.data - want.data).max() <= 1e-13 * max(1.0, np.abs(want.data).max())


def test_tt_reconstruct_two_cores_is_matmul():
    rng = np.random.default_rng(25)
    g1 = rand_tensor(rng, (1, 3, 2))
    g2 = rand_tensor(rng, (2, 4, 1))
    x = tk.tt_reconstruct(tk.TTTrain((g1, g2)))
    left = tk.fold(tk.vec(g1), (3, 2))
    right = tk.fold(tk.vec(g2), (2, 4))
    assert np.abs(x.data - tk.matmul(left, right).data).max() <= 1e-13


def test_tt_reconstruct_matches_entry_loop_oracle():
    rng = np.random.default_rng(26)
    cores = (
        rand_tensor(rng, (1, 2, 2)),
        rand_tensor(rng, (2, 3, 2)),
        rand_tensor(rng, (2, 2, 1)),
    )
    x = tk.tt_reconstruct(tk.TTTrain(cores))
    for i in range(1, 3):
        for j in range(1, 4):
            for k in range(1, 3):
                want = sum(
                    cores[0].at(1, i, a) * cores[1].at(a, j, b) * cores[2].at(b, k, 1)
                    for a in (1, 2)
                    for b in (1, 2)
                )
                assert abs(x.at(i, j, k) - want) <= 1e-13 * max(1.0, abs(want))


def test_tt_reconstruct_rejects_open_boundary():
    rng = np.random.default_rng(27)
    with pytest.raises(ModelError):
        tk.tt_reconstruct(tk.TTTrain((rand_tensor(rng, (2, 3, 1)),)))


def test_tt_train_bond_mismatch():
    rng = np.random.default_rng(28)
    with pytest.raises(ModelError):
        tk.TTTrain((rand_tensor(rng, (1, 2, 3)), rand_tensor(rng, (2, 2, 1))))


def test_tt_svd_recovers_planted_bonds():
    rng = np.random.default_rng(29)
    train, x = planted_tt_train(rng, (3, 4, 4, 3), (1, 2, 3, 2, 1))
    fitted = tk.tt_svd(x)
    assert fitted.bond_ranks == (1, 2, 3, 2, 1)
    assert reconstruct_err(x, tk.tt_reconstruct(fitted)) <= 1e-10


def test_tt_svd_order_two_is_economy_svd():
    rng = np.random.default_rng(30)
    x = rand_tensor(rng, (4, 3))
    train = tk.tt_svd(x)
    res = tk.svd(x)
    rank = tk.numerical_rank(x)
    assert train.bond_ranks == (1, rank, 1)
    g1 = tk.fold(tk.vec(train.cores[0]), (4, rank))
    assert np.abs(np.abs(g1.to_array()) - np.abs(res.u.to_array()[:, :rank])).max() <= 1e-12
    assert reconstruct_err(x, tk.tt_reconstruct(train)) <= 1e-12


def test_tt_svd_truncation_energy_accounting():
    rng = np.random.default_rng(31)
    x = rand_tensor(rng, (3, 3, 3, 3))
    train = tk.tt_svd(x, max_ranks=[2, 2, 2])
    err = tk.frobenius_norm(tk.subtract(x, tk.tt_reconstruct(train)))
    # two-sided accounting: err <= sqrt(accumulated tails), and each split's
    # tail is bounded by err, so sqrt(accumulated) <= sqrt(N-1) * err
    accumulated = np.sqrt(train.discarded_energy)
    assert err <= accumulated + 1e-12
    assert accumulated <= np.sqrt(3) * err + 1e-12
    assert train.discarded_energy > 0


def test_tt_svd_rank_caps_apply():
    rng = np.random.default_rng(32)
    x = rand_tensor(rng, (3, 3, 3))
    train = tk.tt_svd(x, max_ranks=[1, 1])
    assert train.bond_ranks == (1, 1, 1, 1)
    with pytest.raises(ArgumentError):
        tk.tt_svd(x, max_ranks=[2])
    with pytest.raises(ArgumentError):
        tk.tt_svd(tk.fold(tk.vec(x), (27,)))


def test_tt_svd_sigma_threshold():
    rng = np.random.default_rng(46)
    x = rand_tensor(rng, (3, 3, 3))
    # a threshold above every singular value collapses all bonds to 1
    loose = tk.tt_svd(x, tol=1e9)
    assert loose.bond_ranks == (1, 1, 1, 1)
    assert loose.discarded_energy > 0
    # a tiny threshold keeps the exact ranks
    tight = tk.tt_svd(x, tol=1e-14)
    assert reconstruct_err(x, tk.tt_reconstruct(tight)) <= 1e-10


def test_hosvd_order_two_matches_svd():
    rng = np.random.default_rng(47)
    x = rand_tensor(rng, (5, 3))
    model = tk.hosvd(x)
    assert reconstruct_err(x, tk.tucker_reconstruct(model)) <= 1e-12
    sigma = tk.svd(x).sigma.data
    core_sigma = np.sort(np.abs(tk.svd(model.core).sigma.data))[::-1]
    assert np.abs(core_sigma - sigma).max() <= 1e-10 * max(1.0, sigma[0])


def test_tt_orthogonalize_pivot_last():
    rng = np.random.default_rng(33)
    train, x = planted_tt_train(rng, (3, 3, 3), (1, 2, 2, 1))
    ortho = tk.tt_orthogonalize(train, len(train.cores))
    assert reconstruct_err(x, tk.tt_reconstruct(ortho)) <= 1e-12
    for core in ortho.cores[:-1]:
        r0, i, r1 = core.shape
        m = core.to_array().reshape(r0 * i, r1, order="F")
        assert np.abs(m.T @ m - np.eye(r1)).max() <= 1e-12
    assert abs(tk.frobenius_norm(x) - tk.frobenius_norm(ortho.cores[-1])) <= 1e-10


def test_tt_orthogonalize_pivot_first_mirror():
    rng = np.random.default_rng(34)
    train, x = planted_tt_train(rng, (3, 3, 3), (1, 2, 2, 1))
    ortho = tk.tt_orthogonalize(train, 1)
    assert reconstruct_err(x, tk.tt_reconstruct(ortho)) <= 1e-12
    for core in ortho.cores[1:]:
        r0, i, r1 = core.shape
        m = core.to_array().reshape(r0, i * r1, order="F")
        assert np.abs(m @ m.T - np.eye(r0)).max() <= 1e-12
    assert abs(tk.frobenius_norm(x) - tk.frobenius_norm(ortho.cores[0])) <= 1e-10


def test_tt_orthogonalize_middle_pivot_and_errors():
    rng = np.random.default_rng(35)
    train, x = planted_tt_train(rng, (3, 3, 3), (1, 2, 2, 1))
    ortho = tk.tt_orthogonalize(train, 2)
    assert reconstruct_err(x, tk.tt_reconstruct(ortho)) <= 1e-12
    with pytest.raises(ArgumentError):
        tk.tt_orthogonalize(train, 0)
    with pytest.raises(ArgumentError):
        tk.tt_orthogonalize(train, 4)


def test_tt_split_and_rejoin():
    rng = np.random.default_rng(36)
    train, x = planted_tt_train(rng, (3, 4, 3), (1, 2, 2, 1))
    left, right = tk.tt_split(train, 2)
    assert len(left.cores) == 1 and len(right.cores) == 2
    assert left.cores[0] == train.cores[0]
    joined = tk.tt_pair_product(tk.tt_chain(left), tk.tt_chain(right))
    rejoined = tk.fold(tk.vec(joined), joined.shape[1:-1])
    assert reconstruct_err(x, rejoined) <= 1e-12
    with pytest.raises(ArgumentError):
        tk.tt_split(train, 1)
    with pytest.raises(ArgumentError):
        tk.tt_split(train, 4)


def test_tt_orthogonalize_shrinks_inflated_bond():
    rng = np.random.default_rng(48)
    train, x = planted_tt_train(rng, (3, 3, 3), (1, 2, 2, 1))
    # inflate the first bond 2 -> 4 with a row-orthonormal gauge pair
    gauge = tk.qr(tk.DenseTensor.from_array(rng.standard_normal((4, 2)))).q.to_array()
    c1 = np.tensordot(train.cores[0].to_array(), gauge.T, axes=([2], [0]))
    c2 = np.tensordot(gauge, train.cores[1].to_array(), axes=([1], [0]))
    fat = tk.TTTrain(
        (tk.DenseTensor.from_array(c1), tk.DenseTensor.from_array(c2), train.cores[2])
    )
    assert fat.bond_ranks == (1, 4, 2, 1)
    assert reconstruct_err(x, tk.tt_reconstruct(fat)) <= 1e-12
    ortho = tk.tt_orthogonalize(fat, 3)
    assert reconstruct_err(x, tk.tt_reconstruct(ortho)) <= 1e-12
    assert ortho.bond_ranks[1] == 3  # capped by the 1*3 rows of the first core


def test_tt_split_bond_equals_unfolding_rank():
    rng = np.random.default_rng(37)
    train, x = planted_tt_train(rng, (3, 4, 4, 3), (1, 2, 3, 2, 1))
    for k in range(1, 4):
        assert tk.numerical_rank(tk.k_unfold(x, k)) == train.bond_ranks[k]


# --- TR ----------------------------------------------------------------------


def test_tr_wrap_bond_one_equals_tt():
    rng = np.random.default_rng(38)
    cores = (
        rand_tensor(rng, (1, 3, 2)),
        rand_tensor(rng, (2, 2, 3)),
        rand_tensor(rng, (3, 4, 1)),
    )
    ring = tk.TRRing(cores)
    train = tk.TTTrain(cores)
    assert np.abs(
        tk.tr_reconstruct(ring).data - tk.tt_reconstruct(train).data
    ).max() <= 1e-13


def test_tr_cyclic_shift_rotates_modes():
    rng = np.random.default_rng(39)
    cores = (
        rand_tensor(rng, (2, 3, 3)),
        rand_tensor(rng, (3, 2, 2)),
        rand_tensor(rng, (2, 4, 2)),
    )
    ring = tk.TRRing(cores)
    shifted = tk.TRRing(cores[1:] + cores[:1])
    got = tk.tr_reconstruct(shifted)
    want = tk.permute(tk.tr_reconstruct(ring), [2, 3, 1])
    assert np.abs(got.data - want.data).max() <= 1e-13 * max(1.0, np.abs(want.data).max())


def test_tr_matches_trace_loop_oracle():
    rng = np.random.default_rng(40)
    cores = (
        rand_tensor(rng, (2, 2, 3)),
        rand_tensor(rng, (3, 3, 2)),
        rand_tensor(rng, (2, 2, 2)),
    )
    x = tk.tr_reconstruct(tk.TRRing(cores))
    for i in range(1, 3):
        for j in range(1, 4):
            for k in range(1, 3):
                m = cores[0].to_array()[:, i - 1, :] @ cores[1].to_array()[:, j - 1, :] @ cores[2].to_array()[:, k - 1, :]
                want = float(np.trace(m))
                assert abs(x.at(i, j, k) - want) <= 1e-13 * max(1.0, abs(want))


def test_tr_ring_closure_validation():
    rng = np.random.default_rng(41)
    with pytest.raises(ModelError):
        tk.TRRing((rand_tensor(rng, (2, 3, 3)), rand_tensor(rng, (3, 2, 4))))


# --- gauge freedom -----------------------------------------------------------


def test_tucker_gauge_invariance():
    rng = np.random.default_rng(42)
    core = rand_tensor(rng, (2, 2, 2))
    factors = tuple(rand_tensor(rng, (4, 2)) for _ in range(3))
    model = tk.TuckerModel(core, factors)
    gauges = []
    while len(gauges) < 3:
        g = rng.standard_normal((2, 2))
        if np.linalg.cond(g) < 20:
            gauges.append(g)
    new_core = core
    new_factors = []
    for n, (f, g) in enumerate(zip(factors, gauges), start=1):
        new_core = tk.mode_product(new_core, tk.DenseTensor.from_array(g), n)
        new_factors.append(
            tk.DenseTensor.from_array(f.to_array() @ np.linalg.inv(g))
        )
    gauged = tk.TuckerModel(new_core, tuple(new_factors))
    assert reconstruct_err(
        tk.tucker_reconstruct(model), tk.tucker_reconstruct(gauged)
    ) <= 1e-10


def test_tt_gauge_invariance():
    rng = np.random.default_rng(43)
    train, x = planted_tt_train(rng, (3, 3, 3), (1, 2, 2, 1))
    g = rng.standard_normal((2, 2))
    while np.linalg.cond(g) > 20:
        g = rng.standard_normal((2, 2))
    c1 = np.tensordot(train.cores[0].to_array(), g, axes=([2], [0]))
    c2 = np.tensordot(np.linalg.inv(g), train.cores[1].to_array(), axes=([1], [0]))
    gauged = tk.TTTrain(
        (
            tk.DenseTensor.from_array(c1),
            tk.DenseTensor.from_array(c2),
            train.cores[2],
        )
    )
    assert reconstruct_err(x, tk.tt_reconstruct(gauged)) <= 1e-10


# --- model directories -------------------------------------------------------


def test_model_dir_round_trips(tmp_path):
    rng = np.random.default_rng(44)
    cp = cp_model(rng, (3, 4, 2), 2, weights=rng.standard_normal(2))
    tucker = tk.TuckerModel(
        rand_tensor(rng, (2, 2)), (rand_tensor(rng, (3, 2)), rand_tensor(rng, (4, 2)))
    )
    train, _ = planted_tt_train(rng, (3, 3), (1, 2, 1))
    ring = tk.TRRing((rand_tensor(rng, (2, 3, 2)), rand_tensor(rng, (2, 2, 2))))
    cases = [
        ("cp", cp, tk.cp_reconstruct),
        ("tucker", tucker, tk.tucker_reconstruct),
        ("tt", train, tk.tt_reconstruct),
        ("tr", ring, tk.tr_reconstruct),
    ]
    for name, model, kind_reconstruct in cases:
        path = tmp_path / name
        tk.write_model(path, model)
        back = tk.read_model(path)
        assert type(back) is type(model)
        if name == "cp":
            assert back.weights == model.weights and back.factors == model.factors
        elif name == "tucker":
            assert back.core == model.core and back.factors == model.factors
        else:
            assert back.cores == model.cores
        assert tk.reconstruct(back) == kind_reconstruct(model)
        assert model.shape == kind_reconstruct(model).shape
    with pytest.raises(ArgumentError):
        tk.reconstruct(object())


def test_model_dir_corrupt_manifest(tmp_path):
    rng = np.random.default_rng(45)
    path = tmp_path / "m"
    tk.write_model(path, cp_model(rng, (3, 3, 3), 2))
    (path / "model.json").write_text("kind=banana\nranks=2\n")
    with pytest.raises(ModelError):
        tk.read_model(path)
    (path / "model.json").write_text("this is not a manifest\n")
    with pytest.raises(ModelError):
        tk.read_model(path)
    (path / "model.json").write_text("kind=cp\nranks=5\n")
    with pytest.raises(ModelError):
        tk.read_model(path)
    with pytest.raises(ModelError):
        tk.read_model(tmp_path / "does-not-exist")


# --- truncating decompositions on the truncated Jacobi path -----------------



def _unfold(a, n):
    """Mode-n unfolding of a natural-shape array, up to a column order
    (which changes no left singular vector)."""
    return np.moveaxis(a, n, 0).reshape(a.shape[n], -1)


def _leading_u(a, p):
    return np.linalg.svd(a, full_matrices=False)[0][:, :p]


def _same_up_to_sign(f, u):
    return np.abs(f - u * np.sign((f * u).sum(axis=0))).max()


def test_truncated_hosvd_of_a_planted_tucker_matches_numpy(monkeypatch):
    rng = np.random.default_rng(50)
    # Ranks 3 and 4 planted in modes 1 and 3 of a cube, under noise; mode 2
    # is full (its 12 x 12 core unfolding is random), so its bound never
    # holds. The three unfoldings are one stacked group, kept at 3, 4 and 4.
    core = rng.standard_normal((3, 12, 4))
    factors = [np.linalg.qr(rng.standard_normal((12, r)))[0] for r in core.shape]
    a = np.einsum("abc,ia,jb,kc->ijk", core, *factors) + 1e-7 * rng.standard_normal((12, 12, 12))
    x = tk.DenseTensor.from_array(a)
    narrow = narrow_spy(monkeypatch)
    model = tk.truncated_hosvd(x, (3, 4, 4))
    assert any(narrow)
    for n, p in enumerate((3, 4, 4)):
        f = model.factors[n].to_array()
        assert f.shape == (12, p)
        assert _same_up_to_sign(f, _leading_u(_unfold(a, n), p)) <= 1e-12
        assert np.abs(f.T @ f - np.eye(p)).max() <= 1e-12
    # The full mode takes the plain path: the leading columns of svd's u.
    assert model.factors[1].to_array().tobytes() == tk.svd(tk.matricize(x, 2)).u.to_array()[:, :4].tobytes()
    want_core = np.einsum("ijk,ia,jb,kc->abc", a, *(f.to_array() for f in model.factors))
    assert np.abs(model.core.to_array() - want_core).max() <= 1e-12 * np.abs(want_core).max()


def _numpy_tt_svd(a, caps):
    """TT-SVD of a natural-shape array by numpy's SVD: its cores, in the
    column-major storage order, and its discarded squared singular values."""
    cores, rem, bond, energy = [], a.reshape(-1, order="F"), 1, 0.0
    for k, cap in enumerate(caps):
        u, s, vt = np.linalg.svd(rem.reshape(bond * a.shape[k], -1, order="F"), full_matrices=False)
        energy += float((s[cap:] ** 2).sum())
        cores.append(u[:, :cap].reshape(bond, a.shape[k], cap, order="F"))
        rem, bond = s[:cap, None] * vt[:cap], cap
    cores.append(rem.reshape(bond, a.shape[-1], 1, order="F"))
    return cores, energy


def _chain(cores):
    full = cores[0]
    for c in cores[1:]:
        full = np.tensordot(full, c, axes=(-1, 0))
    return full[0, ..., 0]


def test_capped_tt_svd_of_a_planted_train_matches_numpy(monkeypatch):
    rng = np.random.default_rng(51)
    train, _ = planted_tt_train(rng, (6, 5, 4, 6), (1, 2, 3, 2, 1))
    a = _chain([c.to_array() for c in train.cores])
    a = a + 1e-6 * np.abs(a).max() * rng.standard_normal(a.shape)
    narrow = narrow_spy(monkeypatch)
    got = tk.tt_svd(tk.DenseTensor.from_array(a), max_ranks=[2, 3, 2])
    assert any(narrow)
    assert got.bond_ranks == (1, 2, 3, 2, 1)
    cores, energy = _numpy_tt_svd(a, (2, 3, 2))
    # The first core is the leading left singular basis of the first unfolding.
    g1 = got.cores[0].to_array().reshape(6, 2)
    assert _same_up_to_sign(g1, cores[0].reshape(6, 2)) <= 1e-12
    for c in got.cores[:-1]:
        r0, i, r1 = c.shape
        left = c.to_array().reshape(r0 * i, r1, order="F")
        assert np.abs(left.T @ left - np.eye(r1)).max() <= 1e-12
    # Each split's signs are its own, so the trains are compared whole.
    want = _chain(cores)
    assert np.abs(_chain([c.to_array() for c in got.cores]) - want).max() <= 1e-12 * np.abs(want).max()
    sigma1 = np.linalg.norm(a)
    assert abs(got.discarded_energy - energy) <= 1e-14 * sigma1 * np.sqrt(energy)
    assert energy > 0.0


def test_tt_svd_with_caps_and_tol_runs_full_svds(monkeypatch):
    rng = np.random.default_rng(52)
    _, x = planted_tt_train(rng, (6, 5, 4, 6), (1, 2, 3, 2, 1))
    x = tk.DenseTensor.from_array(x.to_array() + 1e-9 * rng.standard_normal(x.shape))
    narrow = narrow_spy(monkeypatch)
    tk.tt_svd(x, max_ranks=[2, 3, 2])
    assert any(narrow)
    del narrow[:]
    got = tk.tt_svd(x, max_ranks=[2, 3, 2], tol=1e-12)
    assert narrow == []
    # The same split, with every svd the full one.
    monkeypatch.setattr(decomp, "_svd", lambda m, what, keep=None: factor._svd(m, what))
    want = tk.tt_svd(x, max_ranks=[2, 3, 2], tol=1e-12)
    assert got.bond_ranks == want.bond_ranks == (1, 2, 3, 2, 1)
    assert all(g.to_array().tobytes() == w.to_array().tobytes() for g, w in zip(got.cores, want.cores))
    assert got.discarded_energy == want.discarded_energy


@pytest.mark.parametrize(
    "call",
    [
        lambda: tk.hosvd(tk.DenseTensor.from_array(np.arange(1.0, 61.0).reshape(3, 4, 5) ** 0.5)),
        lambda: tk.tt_svd(tk.DenseTensor.from_array(np.arange(1.0, 61.0).reshape(3, 4, 5) ** 0.5)),
        lambda: tk.tt_svd(tk.DenseTensor.from_array(np.arange(1.0, 61.0).reshape(3, 4, 5) ** 0.5), tol=1e-3),
    ],
    ids=["hosvd", "tt_svd_exact", "tt_svd_tol"],
)
def test_full_decompositions_never_narrow_the_sweeps(call, monkeypatch):
    narrow = narrow_spy(monkeypatch)
    calls = []
    real = factor._jacobi_svd

    def spy(a, keep=None):
        calls.append(keep)
        return real(a, keep)

    monkeypatch.setattr(factor, "_jacobi_svd", spy)
    monkeypatch.setattr(decomp, "_jacobi_svd", spy)
    call()
    assert calls and not any(narrow)
