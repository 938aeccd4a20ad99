"""Factored tensor models and the algorithms that fit them.

Models are value types (weights+factors for CP, core+factors for Tucker,
core chains for TT and TR) with reconstruction, fitting, and
orthogonalization. Factors are never unique (gauge freedom), so
correctness is always stated through reconstructions and invariants,
never through factor equality.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import DenseTensor, _as_int, _as_ints, _as_seq, _as_tensor, _as_tol, _from_rev, _rev, fold, k_unfold
from .core import _as_instance, _scale_exponent, matricize, permute, subtensor, vec
from .elementwise import _finite, frobenius_norm
from .errors import ArgumentError, ModelError, NumericError, ParseError
from .factor import _check_finite, _householder, _jacobi_svd, _orthonormal_fill, _svd, default_rank_tol, qr
from .io import _PATH, _read_text, _write_atomic, read_tensor, write_tensor
from .products import _khatri_rao, _mode_product, _multi_mode_product, _tt_chain

__all__ = [
    "CPModel",
    "CPFit",
    "TuckerModel",
    "TTTrain",
    "TRRing",
    "cp_reconstruct",
    "cp_als",
    "tucker_reconstruct",
    "hosvd",
    "truncated_hosvd",
    "tucker_orthogonalize",
    "tt_reconstruct",
    "tt_chain",
    "tt_svd",
    "tt_orthogonalize",
    "tt_split",
    "tr_reconstruct",
    "reconstruct",
    "write_model",
    "read_model",
]


@dataclass(frozen=True)
class CPModel:
    """Weighted sum of rank-1 tensors: weights (R,) and per-mode (I_n, R) factors."""

    weights: DenseTensor
    factors: tuple[DenseTensor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", _as_seq(self.factors, "CPModel factors"))
        if _as_tensor(self.weights, "CPModel").order != 1:
            raise ModelError(f"cp weights must be order-1, got order {self.weights.order}")
        if not self.factors:
            raise ModelError("cp model needs at least one factor")
        r = self.weights.size
        for n, f in enumerate(self.factors, start=1):
            if _as_tensor(f, "CPModel").order != 2:
                raise ModelError(f"cp factor {n} must be order-2, got order {f.order}")
            if f.shape[1] != r:
                raise ModelError(f"cp factor {n} has {f.shape[1]} columns, expected rank {r}")

    @property
    def rank(self) -> int:
        return self.weights.size

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


@dataclass(frozen=True)
class CPFit:
    """cp_als outcome: the best model, its residual-norm trace, winning restart.

    sweeps and converged hold one entry per restart: the sweeps it ran and
    whether it stopped on tol (False when it ran out of max_sweeps).
    """

    model: CPModel
    trace: tuple[float, ...]
    restart: int
    sweeps: tuple[int, ...] = ()
    converged: tuple[bool, ...] = ()


@dataclass(frozen=True)
class TuckerModel:
    """Core tensor (R_1,...,R_N) with per-mode (I_n, R_n) factors."""

    core: DenseTensor
    factors: tuple[DenseTensor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", _as_seq(self.factors, "TuckerModel factors"))
        if len(self.factors) != _as_tensor(self.core, "TuckerModel").order:
            raise ModelError(
                f"tucker model has {len(self.factors)} factors for an order-{self.core.order} core"
            )
        for n, f in enumerate(self.factors, start=1):
            if _as_tensor(f, "TuckerModel").order != 2:
                raise ModelError(f"tucker factor {n} must be order-2, got order {f.order}")
            if f.shape[1] != self.core.shape[n - 1]:
                raise ModelError(
                    f"tucker factor {n} has {f.shape[1]} columns, core mode has extent "
                    f"{self.core.shape[n - 1]}"
                )

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.shape

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


@dataclass(frozen=True)
class _CoreChain:
    """Validation and accessors shared by TTTrain and TRRing; a closed chain
    also checks the bond from the last core back to the first."""

    cores: tuple[DenseTensor, ...]
    _kind, _noun, _closed = "tt", "train", False

    def __post_init__(self):
        object.__setattr__(self, "cores", _as_seq(self.cores, f"{type(self).__name__} cores"))
        if not self.cores:
            raise ModelError(f"{self._kind} {self._noun} needs at least one core")
        for n, c in enumerate(self.cores, start=1):
            if _as_tensor(c, type(self).__name__).order != 3:
                raise ModelError(f"{self._kind} core {n} must be order-3, got order {c.order}")
        n = len(self.cores)
        for k in range(n if self._closed else n - 1):
            right = self.cores[k].shape[2]
            left = self.cores[(k + 1) % n].shape[0]
            if right != left:
                raise ModelError(
                    f"bond mismatch between cores {k + 1} and {(k + 1) % n + 1}: {right} vs {left}"
                )

    @property
    def bond_ranks(self) -> tuple[int, ...]:
        return (self.cores[0].shape[0],) + tuple(c.shape[2] for c in self.cores)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)


@dataclass(frozen=True)
class TTTrain(_CoreChain):
    """Chain of order-3 cores; core n is (R_{n-1}, I_n, R_n).

    Full trains have unit boundary bonds; sub-trains may expose one side.
    discarded_energy records the squared singular mass dropped by a
    truncated fit (0.0 for exact construction).
    """

    discarded_energy: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class TRRing(_CoreChain):
    """Closed loop of order-3 cores; the last bond wraps around to the first."""

    _kind, _noun, _closed = "tr", "ring", True


# --- CP ---------------------------------------------------------------------


def cp_reconstruct(m: CPModel) -> DenseTensor:
    """Dense tensor of a CP model: sum_r weights[r] * outer(columns r)."""
    _as_model(m, "cp_reconstruct", "cp")
    parts = [f.to_array() for f in reversed(m.factors)]
    full = _finite("cp_reconstruct", lambda: _khatri_rao(parts) @ m.weights.data, m.weights.data, *parts)
    return DenseTensor(m.shape, full)


# cp_als tests the rank of the normal matrices of up to _CP_BLOCK_SWEEPS
# sweeps in one stacked Cholesky, fewer where they would take more than
# _CP_BLOCK_FLOATS floats (64 KiB), but always at least one sweep's.
_CP_BLOCK_SWEEPS = 16
_CP_BLOCK_FLOATS = 8192


def _solve_lu(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs @ inv(gram) by one batched LU solve of gram @ F.T = rhs.T, with no
    rank test: gram (..., R, R) and rhs (..., I, R)."""
    return np.linalg.solve(gram, rhs.swapaxes(-1, -2)).swapaxes(-1, -2)


def _solve_pinv(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs @ pinv(gram), the plain ALS update, for a stack: gram (B, R, R) and
    rhs (B, I, R), through numpy's LAPACK pseudo-inverse at its default
    cutoff. A non-finite gram (of a NaN input, or of factors that overflowed)
    gives a NaN update, which cp_als's residual test reports."""
    if np.isfinite(gram).all():
        return rhs @ np.linalg.pinv(gram)
    return np.full(rhs.shape, np.nan)


def cp_als(
    x: DenseTensor,
    rank: int,
    *,
    max_sweeps: int = 200,
    tol: float = 1e-8,
    seed: int = 0,
    restarts: int = 3,
) -> CPFit:
    """Fit a rank-`rank` CP model by alternating least squares.

    Each sweep solves the matricized least-squares subproblem for every
    mode in turn: the normal matrix, the Hadamard product of the other
    factors' Gram matrices, is solved against the matricized tensor times
    their Khatri-Rao product. Each mode's normal matrices are solved by one
    batched LU solve and kept, and one Cholesky factorization of a block's
    normal matrices, stacked, tests their rank. A block ends after 16
    sweeps (fewer when a sweep's normal matrices are large, down to one
    sweep), at a sweep where some restart stops, and at a non-finite
    residual. When the test fails, an LU solve does, or the residual is
    non-finite, the fit goes back to the block's first sweep and runs the
    rest of its sweeps as plain ALS: each update multiplies by numpy's
    pseudo-inverse of its normal matrices, so a fit wastes at most one
    block of sweeps. On that path a residual that turns non-finite, or a
    pseudo-inverse whose SVD does not converge, raises NumericError.
    No product is formed twice: each factor's Gram is formed once, right
    after the factor's update, and the Khatri-Rao of modes N..2 built for
    the residual is the next sweep's mode-1 one.

    Factor columns are normalized into the weights once, at the sweep
    where a restart stops, not every sweep. While the normal matrix is
    nonsingular the iterates do not depend on it: scaling the columns of
    the other factors by a diagonal D scales the matricized tensor times
    their Khatri-Rao product by D and their Hadamard Gram to D G D, so the
    update comes out as F_n D^-1, and every sweep represents the same CP
    model; only the rounding differs.

    x is fitted scaled by the power of two that brings max|x| into
    [0.5, 1), and the weights and trace are scaled back. This is exact,
    so the fit of 2^k * x is that of x with weights and trace times 2^k.
    An x whose norm, or a fit whose weights, lie beyond float range
    raises NumericError, and so does a fit whose iterates overflow, at the
    end of the sweep and with no numpy warning before it.

    Restart r starts from standard-normal factors drawn from
    default_rng([seed, r]). The restarts run as one stacked fit: factors
    are held as (restarts, I_n, R) stacks, so every numpy and LAPACK call
    of a sweep serves all restarts still running. Each restart stops on
    its own once its relative fit change drops below tol, or after
    max_sweeps. The lowest final residual wins (ties go to the lowest
    restart); the fit's trace is the winner's, and its sweeps and
    converged fields report every restart.
    """
    x = _as_tensor(x, "cp_als", min_order=3)
    rank = _as_int(rank, "rank", 1, x.size)
    restarts = _as_int(restarts, "restarts", 1)
    max_sweeps = _as_int(max_sweeps, "max_sweeps", 1)
    seed = _as_int(seed, "seed", 0)
    tol = _as_tol(tol)
    # Every residual of the trace is at most the norm of x.
    if frobenius_norm(x) == math.inf:
        raise NumericError("cp_als input norm is beyond float range")
    # Scaled into [0.5, 1) by a power of two, no square of a residual under-
    # or overflows. Each update gives its factor the column scale the other
    # factors leave it, so the column norms taken when a restart stops
    # multiply to its weights, which are checked for range at the end.
    exp = _scale_exponent(x.data)
    x = DenseTensor(x.shape, np.ldexp(x.data, -exp))
    norm_x = frobenius_norm(x)
    mats = [matricize(x, n).to_array() for n in range(1, x.order + 1)]
    others = [[m for m in range(x.order) if m != n] for n in range(x.order)]
    reversed_others = [o[::-1] for o in others]
    starts = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        starts.append([rng.standard_normal((extent, rank)) for extent in x.shape])
    # Working stacks of the running restarts; ids maps each slice to its restart.
    factors = [np.stack(fs) for fs in zip(*starts)]
    ids = np.arange(restarts)
    # Final state of every restart, filled in as each one stops.
    done_factors = [np.empty_like(f) for f in factors]
    done_weights = np.empty((restarts, rank))
    converged = np.zeros(restarts, dtype=bool)
    history = []  # per sweep, the running restarts' ids and residuals
    prev_rel = [math.inf] * restarts
    # Khatri-Rao of modes N..2, shared by the residual and the next mode-1
    # update, and each factor's Gram stack, formed after the factor's update.
    kr1 = _khatri_rao(factors[:0:-1])
    grams = [f.swapaxes(1, 2) @ f for f in factors]
    # Every normal matrix of a block's sweeps, sweep by sweep and mode by
    # mode, for the stacked rank test; filled sweeps of it are untested.
    block_sweeps = max(1, min(_CP_BLOCK_SWEEPS, _CP_BLOCK_FLOATS // (x.order * restarts * rank * rank)))
    normal = np.empty((block_sweeps, x.order, restarts, rank, rank))
    filled = 0

    def update(solve, slot):
        # One sweep of mode updates, each normal matrix written into slot[n].
        # factors and grams are lists of stacks that each update rebinds,
        # never writes into, so a shallow copy of the lists is a checkpoint.
        for n in range(x.order):
            o = others[n]
            kr = kr1 if n == 0 else _khatri_rao([factors[m] for m in reversed_others[n]])
            gram = np.multiply(grams[o[0]], grams[o[1]], out=slot[n])
            for m in o[2:]:
                gram *= grams[m]
            factors[n] = solve(gram, mats[n] @ kr)
            grams[n] = factors[n].swapaxes(1, 2) @ factors[n]

    stacked = True  # False once the fit has been replayed through _solve_pinv
    sweep = 1
    # A diverging fit overflows long before its residual is checked; the
    # check below raises NumericError in place of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            try:
                if stacked:
                    if not filled:
                        block = sweep, factors[:], grams[:], kr1, len(history), prev_rel
                    update(_solve_lu, normal[filled])
                    filled += 1
                else:
                    update(_solve_pinv, normal[0])
                kr1 = _khatri_rao(factors[:0:-1])
                resid = np.sqrt(((mats[0] - factors[0] @ kr1.swapaxes(1, 2)) ** 2).sum(axis=(1, 2)))
                # Python floats round as numpy's do, at a fraction of the
                # per-call cost for a few restarts.
                values = resid.tolist()
                finite = all(map(math.isfinite, values))
                rel = [v / norm_x for v in values] if norm_x > 0.0 else values
                stop = [abs(p - r) < tol for p, r in zip(prev_rel, rel)]
                stops = any(stop) or sweep == max_sweeps
                if filled and (filled == block_sweeps or stops or not finite):
                    tested, filled = filled, 0
                    # A non-finite residual fails the block like a singular
                    # normal matrix: LU may have solved one into overflow.
                    if not finite:
                        raise np.linalg.LinAlgError("cp_als residual is non-finite")
                    np.linalg.cholesky(normal[:tested].reshape(-1, rank, rank))
            except np.linalg.LinAlgError as err:
                if not stacked:
                    raise NumericError("cp_als pseudo-inverse did not converge") from err
                sweep, factors[:], grams[:], kr1, kept, prev_rel = block
                del history[kept:]
                stacked, filled = False, 0
                continue
            if not finite:
                raise NumericError("cp_als objective became non-finite")
            history.append((ids, resid))
            if stops:
                stop = np.array(stop)
                converged[ids[stop]] = True
                if sweep == max_sweeps:
                    stop[:] = True
                gone = ids[stop]
                weights = np.ones((gone.size, rank))
                for done, f in zip(done_factors, factors):
                    f = f[stop]
                    norms = np.sqrt((f * f).sum(axis=1))
                    done[gone] = f / np.where(norms > 0.0, norms, 1.0)[:, None, :]
                    weights *= norms
                done_weights[gone] = weights
                keep = ~stop
                factors = [f[keep] for f in factors]
                grams = [g[keep] for g in grams]
                normal = normal[:, :, keep]
                kr1 = kr1[keep]
                ids = ids[keep]
                rel = [r for r, k in zip(rel, keep) if k]
                if not ids.size:
                    break
            prev_rel = rel
            sweep += 1
    # Each restart's residuals, NaN once it has stopped; its sweeps are its
    # non-NaN entries, since every running restart's residual is finite.
    resids = np.full((len(history), restarts), np.nan)
    for row, (running, resid) in zip(resids, history):
        row[running] = resid
    sweeps = np.count_nonzero(~np.isnan(resids), axis=0)
    best = int(np.argmin(resids[sweeps - 1, np.arange(restarts)]))
    with np.errstate(over="ignore"):
        weights = np.ldexp(done_weights[best], exp)
    if not np.isfinite(weights).all():
        raise NumericError("cp_als weights are beyond float range")
    model = CPModel(
        DenseTensor((rank,), weights),
        tuple(_from_rev(f[best].T) for f in done_factors),
    )
    return CPFit(
        model=model,
        trace=tuple(np.ldexp(resids[: sweeps[best], best], exp).tolist()),
        restart=best,
        sweeps=tuple(int(s) for s in sweeps),
        converged=tuple(bool(c) for c in converged),
    )


# --- Tucker -----------------------------------------------------------------


def tucker_reconstruct(m: TuckerModel) -> DenseTensor:
    """Dense tensor of a Tucker model: core multiplied by every factor."""
    _as_model(m, "tucker_reconstruct", "tucker")
    return _multi_mode_product("tucker_reconstruct", m.core, m.factors)


def _tucker(x: DenseTensor, ranks: Sequence[int], what: str) -> TuckerModel:
    """Tucker model whose mode-n factor is the leading ranks[n] columns of the
    left singular basis (the svd u) of matricize(x, n), orthonormally filled
    past the basis's width.

    Unfoldings of one shape are factored together, as one stacked Jacobi
    SVD that keeps ranks[n] triplets of each: an unfolding whose trailing
    columns come to be dominated (_jacobi_svd) stops rotating them, and its
    factor equals svd's leading columns to rounding; any other (every one
    of hosvd's full ranks) gets the u that svd alone would give it, bit for
    bit. A NaN or inf entry, or a core beyond float range, raises
    NumericError naming the caller, `what`.
    """
    _check_finite(x.data, what)
    groups: dict[tuple[int, int], list[int]] = {}
    for n, extent in enumerate(x.shape, start=1):
        groups.setdefault((extent, x.size // extent), []).append(n)
    factors = [None] * x.order
    for modes in groups.values():
        u = _jacobi_svd(np.stack([matricize(x, n).to_array() for n in modes]), [ranks[n - 1] for n in modes])[0]
        for n, un in zip(modes, u):
            p = ranks[n - 1]
            factors[n - 1] = _from_rev((un[:, :p] if un.shape[1] >= p else _orthonormal_fill(un, p)).T)
    core = _multi_mode_product(what, x, [permute(u, [2, 1]) for u in factors])
    return TuckerModel(core, tuple(factors))


def hosvd(x: DenseTensor) -> TuckerModel:
    """Tucker model whose mode-n factor is the left singular basis of
    matricize(x, n); the core is all-orthogonal and reconstruction is exact."""
    x = _as_tensor(x, "hosvd", min_order=2)
    return _tucker(x, [min(extent, x.size // extent) for extent in x.shape], "hosvd")


def truncated_hosvd(x: DenseTensor, ranks: Sequence[int]) -> TuckerModel:
    """Tucker model keeping the leading ranks[n] singular vectors per mode."""
    x = _as_tensor(x, "truncated_hosvd", min_order=2)
    return _tucker(x, _as_ints(ranks, "rank for mode", x.order, 1, x.shape), "truncated_hosvd")


def tucker_orthogonalize(m: TuckerModel) -> TuckerModel:
    """QR every factor and fold the triangular parts into the core.

    Reconstruction is unchanged; afterwards the factors are column
    orthonormal, so the reconstruction norm equals the core norm.
    """
    _as_model(m, "tucker_orthogonalize", "tucker")
    core = m.core
    new_factors = []
    for n, f in enumerate(m.factors, start=1):
        res = qr(f)
        new_factors.append(res.q)
        core = _mode_product("tucker_orthogonalize", core, res.r, n)
    return TuckerModel(core, tuple(new_factors))


# --- TT ---------------------------------------------------------------------


def tt_chain(t: TTTrain | TRRing) -> DenseTensor:
    """Contract all cores of a train or a ring, keeping the boundary bond
    modes: (R_0, I_1..I_N, R_N)."""
    _as_model(t, "tt_chain", "tt", "tr")
    return _tt_chain("tt_chain", t.cores)


def tt_reconstruct(t: TTTrain) -> DenseTensor:
    """Dense tensor of a full train (both boundary bonds must be 1)."""
    _as_model(t, "tt_reconstruct", "tt")
    ranks = t.bond_ranks
    if ranks[0] != 1 or ranks[-1] != 1:
        raise ModelError(f"tt_reconstruct needs unit boundary bonds, got {ranks[0]} and {ranks[-1]}")
    full = _tt_chain("tt_reconstruct", t.cores)
    return fold(vec(full), full.shape[1:-1])


def tt_svd(
    x: DenseTensor,
    max_ranks: Sequence[int] | None = None,
    tol: float | None = None,
) -> TTTrain:
    """Sequential SVD factorization of x into a tensor train.

    With neither max_ranks nor tol this is exact: each split keeps the
    numerical rank of the current unfolding. max_ranks caps the N-1
    internal bonds; tol drops singular values below it at every split.
    The squared mass of everything dropped accumulates in the returned
    train's discarded_energy; a sum beyond float range raises NumericError.

    With max_ranks and no tol, each split's Jacobi SVD keeps only its cap's
    worth of triplets: once the trailing columns are dominated it stops
    rotating them (_jacobi_svd), so the cores equal those of full SVDs to
    rounding, and discarded_energy, the trailing columns' squared norms,
    still sums the dropped squared singular values. With tol, or exact,
    every split is a full svd.
    """
    x = _as_tensor(x, "tt_svd", min_order=2)
    _check_finite(x.data, "tt_svd")
    if tol is not None:
        tol = _as_tol(tol)
    n = x.order
    if max_ranks is not None:
        max_ranks = _as_ints(max_ranks, "bond cap", n - 1, 1)
    truncating = max_ranks is not None or tol is not None
    remainder = x
    bond = 1
    cores = []
    discarded = 0.0
    for k in range(n - 1):
        rows = bond * x.shape[k]
        mat = fold(vec(remainder), (rows, remainder.size // rows))
        res = _svd(mat, max_ranks[k] if max_ranks is not None and tol is None else None)
        s = res.sigma.data
        if truncating:
            keep = s.size
            if tol is not None:
                keep = int((s >= tol).sum())
            if max_ranks is not None:
                keep = min(keep, max_ranks[k])
        else:
            keep = int((s > default_rank_tol(s, mat.shape[0], mat.shape[1])).sum())
        keep = max(keep, 1)
        # Squared and summed at a power-of-two scale, which is exact, so
        # that no square overflows.
        e = _scale_exponent(s[keep:])
        with np.errstate(over="ignore"):
            discarded += float(np.ldexp((np.ldexp(s[keep:], -e) ** 2).sum(), 2 * e))
        cores.append(fold(vec(subtensor(res.u, [":", (1, keep)])), (bond, x.shape[k], keep)))
        # diag(s) @ v^T, built as its reversed view: v's rows times s.
        remainder = _from_rev(_rev(res.v)[:keep].T * s[:keep])
        bond = keep
    if discarded == math.inf:
        raise NumericError("tt_svd discarded energy is beyond float range")
    cores.append(fold(vec(remainder), (bond, x.shape[-1], 1)))
    return TTTrain(tuple(cores), discarded_energy=discarded)


def tt_orthogonalize(t: TTTrain, pivot: int) -> TTTrain:
    """Orthogonalize every core except the pivot (1-based core index).

    Cores left of the pivot become left-orthogonal (their (R_{k-1} I_k, R_k)
    reshape has orthonormal columns), cores right of it right-orthogonal;
    triangular factors are swept into the pivot, so the reconstruction is
    unchanged and the full norm concentrates in the pivot core.
    """
    _as_model(t, "tt_orthogonalize", "tt")
    n = len(t.cores)
    pivot = _as_int(pivot, "pivot", 1, n)
    for core in t.cores:
        _check_finite(core.data, "tt_orthogonalize")
    cores = list(t.cores)
    # A numpy matrix m is the tensor _from_rev(m.T).
    for k in range(pivot - 1):
        r0, i, _ = cores[k].shape
        q, r = _householder(k_unfold(cores[k], 2).to_array())
        cores[k] = fold(vec(_from_rev(q.T)), (r0, i, q.shape[1]))
        cores[k + 1] = _mode_product("tt_orthogonalize", cores[k + 1], _from_rev(r.T), 1)
    for k in range(n - 1, pivot - 1, -1):
        _, i, r1 = cores[k].shape
        q, r = _householder(k_unfold(cores[k], 1).to_array().T)
        cores[k] = fold(vec(_from_rev(q)), (q.shape[1], i, r1))
        cores[k - 1] = _mode_product("tt_orthogonalize", cores[k - 1], _from_rev(r.T), 3)
    return TTTrain(tuple(cores))


def tt_split(t: TTTrain, k: int) -> tuple[TTTrain, TTTrain]:
    """Split into sub-trains (cores 1..k-1) and (cores k..N) sharing bond R_{k-1}."""
    _as_model(t, "tt_split", "tt")
    n = len(t.cores)
    k = _as_int(k, "split point", 2, n)
    return TTTrain(t.cores[: k - 1]), TTTrain(t.cores[k - 1 :])


# --- TR ---------------------------------------------------------------------


def tr_reconstruct(r: TRRing) -> DenseTensor:
    """Dense tensor of a ring: per-entry trace of the chained slice matrices."""
    _as_model(r, "tr_reconstruct", "tr")
    acc = _rev(_tt_chain("tr_reconstruct", r.cores))
    return _from_rev(_finite("tr_reconstruct", lambda: np.trace(acc, axis1=0, axis2=acc.ndim - 1), acc))


# --- model kinds and model directories --------------------------------------


@dataclass(frozen=True)
class _Kind:
    """One model kind: its class, part files, manifest ranks and reconstruction.

    A model directory holds <head>.ten (for kinds with a head part) and
    <series>_1.ten, <series>_2.ten, ... for the model's tuple field <series>s.
    """

    name: str
    cls: type
    head: str | None
    series: str
    ranks: Callable[[object], tuple[int, ...]]
    reconstruct: Callable[[object], DenseTensor]


_KINDS = {
    k.name: k
    for k in (
        _Kind("cp", CPModel, "weights", "factor", lambda m: (m.rank,), cp_reconstruct),
        _Kind("tucker", TuckerModel, "core", "factor", lambda m: m.ranks, tucker_reconstruct),
        _Kind("tt", TTTrain, None, "core", lambda m: m.bond_ranks, tt_reconstruct),
        _Kind("tr", TRRing, None, "core", lambda m: m.bond_ranks, tr_reconstruct),
    )
}
# Every part file name of any kind; write_model removes those it does not write.
_PART_RE = re.compile("|".join(sorted(
    {rf"{k.head}\.ten" for k in _KINDS.values() if k.head}
    | {rf"{k.series}_[0-9]+\.ten" for k in _KINDS.values()}
)))


def _as_model(value, what: str, *kinds: str) -> _Kind:
    """The kind of a model argument of the function `what`; a value of none of
    the named kinds (of no kind, when none is named) raises ArgumentError."""
    for name in kinds or _KINDS:
        if isinstance(value, _KINDS[name].cls):
            return _KINDS[name]
    if not kinds:
        raise ArgumentError(f"{type(value).__name__} is not a model ({'|'.join(_KINDS)})")
    wanted = " or ".join(_KINDS[k].cls.__name__ for k in kinds)
    raise ArgumentError(f"{what} model must be a {wanted}, got {type(value).__name__}")


def reconstruct(model) -> DenseTensor:
    """Dense tensor of a CP, Tucker, TT or TR model."""
    return _as_model(model, "reconstruct").reconstruct(model)


_MANIFEST = "model.json"


def write_model(dirpath: str | os.PathLike, model) -> None:
    """Write a model directory: a key-value manifest plus one .ten per part.

    Part files of any kind that this model does not write are removed, so a
    directory never mixes the parts of two models. The old manifest goes
    first and the new one is written last, atomically, so a write that
    fails part-way leaves a directory read_model rejects.
    """
    kind = _as_model(model, "write_model")
    path = os.fspath(_as_instance(dirpath, _PATH, "write_model"))
    manifest = os.path.join(path, _MANIFEST)
    os.makedirs(path, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest)
    parts = {f"{kind.head}.ten": getattr(model, kind.head)} if kind.head else {}
    for n, t in enumerate(getattr(model, kind.series + "s"), start=1):
        parts[f"{kind.series}_{n}.ten"] = t
    for fname, t in parts.items():
        write_tensor(os.path.join(path, fname), t)
    for fname in os.listdir(path):
        if fname not in parts and _PART_RE.fullmatch(fname):
            os.remove(os.path.join(path, fname))
    ranks = " ".join(str(r) for r in kind.ranks(model))
    _write_atomic(manifest, f"kind={kind.name}\nranks={ranks}\n")


def _read_series(path: str, prefix: str) -> list[DenseTensor]:
    out = []
    n = 1
    while True:
        fname = os.path.join(path, f"{prefix}_{n}.ten")
        if not os.path.exists(fname):
            break
        out.append(read_tensor(fname))
        n += 1
    if not out:
        raise ModelError(f"model directory has no {prefix}_1.ten")
    return out


def read_model(dirpath: str | os.PathLike):
    """Load a model directory written by write_model."""
    path = os.fspath(_as_instance(dirpath, _PATH, "read_model"))
    manifest = os.path.join(path, _MANIFEST)
    try:
        text = _read_text(manifest, "manifest")
    except ParseError as exc:
        raise ModelError(str(exc)) from None
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)=(.*)$", body)
        if m is None:
            raise ModelError(f"manifest line {lineno} is not key=value: {body!r}")
        entries[m.group(1)] = m.group(2).strip()
    kind = _KINDS.get(entries.get("kind"))
    if kind is None:
        raise ModelError(f"manifest kind must be {'|'.join(_KINDS)}, got {entries.get('kind')!r}")
    try:
        ranks = tuple(int(v) for v in entries.get("ranks", "").split())
    except ValueError:
        raise ModelError(f"manifest ranks are not integers: {entries.get('ranks')!r}") from None
    head = []
    if kind.head:
        head_path = os.path.join(path, f"{kind.head}.ten")
        if not os.path.exists(head_path):
            raise ModelError(f"{kind.name} model directory has no {kind.head}.ten")
        head.append(read_tensor(head_path))
    model = kind.cls(*head, tuple(_read_series(path, kind.series)))
    if ranks != kind.ranks(model):
        raise ModelError(
            f"manifest ranks {' '.join(map(str, ranks))} do not match the stored tensors"
        )
    return model
