"""Dense QR and SVD kernels, built in-house for small matrices.

QR uses Householder reflections with a post-hoc sign fix so diag(R) >= 0.
SVD uses one-sided Jacobi rotations: cyclic sweeps orthogonalize the
columns of a working copy, accumulating the rotations in V; singular
values are the final column norms. Jacobi is slow for large matrices but
very accurate at the desk scale this library targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DenseTensor, _tensor_from_nd
from .errors import ArgumentError, NumericError, ShapeError

__all__ = ["QRResult", "SVDResult", "qr", "svd", "truncated_svd", "numerical_rank", "pinv"]

_EPS = float(np.finfo(np.float64).eps)

# Jacobi convergence: off-diagonal Gram entries <= _JACOBI_TOL * ||M||_F^2,
# at most _JACOBI_SWEEPS cyclic sweeps. Rotations also continue below that
# absolute level while a pair is large relative to its own column norms;
# otherwise normalizing a near-null column would wreck U's orthogonality.
_JACOBI_TOL = 1e-14
_JACOBI_REL_TOL = 1e-15
_JACOBI_SWEEPS = 60


@dataclass(frozen=True)
class QRResult:
    """q: column-orthogonal (I,J); r: upper triangular (J,J) with diag >= 0."""

    q: DenseTensor
    r: DenseTensor


@dataclass(frozen=True)
class SVDResult:
    """Economy SVD factors: u (I,K), sigma (K,) nonincreasing >= 0, v (J,K)."""

    u: DenseTensor
    sigma: DenseTensor
    v: DenseTensor

    @property
    def rank_width(self) -> int:
        return self.sigma.size


def _householder(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of any (m, n) array: a = q @ r with q (m, t), r (t, n), t = min(m, n)."""
    m, n = a.shape
    t = min(m, n)
    r = a.astype(np.float64, copy=True)
    vs = []
    for k in range(t):
        x = r[k:, k]
        norm = math.sqrt(float(x @ x))
        if norm == 0.0:
            vs.append(None)
            continue
        v = x.copy()
        v[0] += math.copysign(norm, x[0]) if x[0] != 0.0 else norm
        vnorm2 = float(v @ v)
        if vnorm2 == 0.0:
            vs.append(None)
            continue
        v /= math.sqrt(vnorm2)
        vs.append(v)
        r[k:, k:] -= 2.0 * np.outer(v, v @ r[k:, k:])
    q = np.zeros((m, t))
    q[:t, :t] = np.eye(t)
    for k in range(t - 1, -1, -1):
        v = vs[k]
        if v is not None:
            q[k:, :] -= 2.0 * np.outer(v, v @ q[k:, :])
    r = np.triu(r[:t, :])
    # Sign fix: make the diagonal of r nonnegative.
    for j in range(t):
        if r[j, j] < 0.0:
            r[j, j:] = -r[j, j:]
            q[:, j] = -q[:, j]
    return q, r


def _check_finite(m: DenseTensor, what: str) -> None:
    if not np.isfinite(m.data).all():
        raise NumericError(f"{what} input has non-finite entries (nan or inf)")


def qr(m: DenseTensor) -> QRResult:
    """QR of a tall (or square) matrix; wide inputs are rejected."""
    if m.order != 2:
        raise ShapeError(f"qr expects an order-2 tensor, got order {m.order}")
    _check_finite(m, "qr")
    rows, cols = m.shape
    if rows < cols:
        raise ShapeError(f"qr needs a tall matrix, got ({rows},{cols}); transpose first")
    q, r = _householder(m._nd())
    return QRResult(_tensor_from_nd(q), _tensor_from_nd(r))


def _orthonormal_fill(u: np.ndarray, cols: list[int]) -> None:
    """Fill the given u columns with unit vectors orthogonal to all others."""
    m = u.shape[0]
    for j in cols:
        best = None
        for k in range(m):
            cand = np.zeros(m)
            cand[k] = 1.0
            for jj in range(u.shape[1]):
                if jj != j:
                    cand -= (u[:, jj] @ cand) * u[:, jj]
            norm = math.sqrt(float(cand @ cand))
            if best is None or norm > best[0]:
                best = (norm, cand)
        norm, cand = best
        if norm == 0.0:
            raise NumericError("cannot complete an orthonormal basis")
        u[:, j] = cand / norm


def _jacobi_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m, n = a.shape
    if m < n:
        u, s, v = _jacobi_svd(a.T)
        return v, s, u
    # Scale max|a| into [0.5, 1) by a power of two, which is exact, so the
    # Gram sums cannot overflow; sigma is unscaled at the end.
    exp = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    w = np.ldexp(a.astype(np.float64), -exp)
    v = np.eye(n)
    limit = _JACOBI_TOL * float((w * w).sum())
    converged = n < 2
    for _ in range(_JACOBI_SWEEPS):
        if converged:
            break
        converged = True
        for p in range(n - 1):
            for q in range(p + 1, n):
                wp = w[:, p]
                wq = w[:, q]
                apq = float(wp @ wq)
                app = float(wp @ wp)
                aqq = float(wq @ wq)
                if abs(apq) <= limit and apq * apq <= (_JACOBI_REL_TOL**2) * app * aqq:
                    continue
                converged = False
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                new_p = c * wp - s * wq
                new_q = s * wp + c * wq
                w[:, p] = new_p
                w[:, q] = new_q
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
    if not converged:
        # The last sweep still rotated; verify the Gram matrix directly.
        gram = w.T @ w
        off = float(np.max(np.abs(gram - np.diag(np.diag(gram))))) if n > 1 else 0.0
        if off > limit:
            raise NumericError(
                f"jacobi svd did not converge in {_JACOBI_SWEEPS} sweeps "
                f"(max off-diagonal gram entry {off:.3e}, limit {limit:.3e}, "
                f"input scaled by 2**{-exp})"
            )
    norms = np.sqrt((w * w).sum(axis=0))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    w = w[:, order]
    v = v[:, order]
    u = np.zeros((m, n))
    dead = []
    for j in range(n):
        if norms[j] > 0.0:
            u[:, j] = w[:, j] / norms[j]
        else:
            dead.append(j)
    if dead:
        _orthonormal_fill(u, dead)
    norms = np.ldexp(norms, exp)
    # Sign convention: largest-magnitude entry of each u column is positive.
    for j in range(n):
        k = int(np.argmax(np.abs(u[:, j])))
        if u[k, j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, norms, v


def svd(m: DenseTensor) -> SVDResult:
    """Economy SVD of any matrix: m = u @ diag(sigma) @ v.T, K = min(I, J)."""
    if m.order != 2:
        raise ShapeError(f"svd expects an order-2 tensor, got order {m.order}")
    _check_finite(m, "svd")
    u, s, v = _jacobi_svd(m._nd())
    return SVDResult(_tensor_from_nd(u), DenseTensor((s.size,), s), _tensor_from_nd(v))


def truncated_svd(m: DenseTensor, k: int) -> SVDResult:
    """Leading-k SVD triples (the best rank-k approximation)."""
    if m.order != 2:
        raise ShapeError(f"truncated_svd expects an order-2 tensor, got order {m.order}")
    width = min(m.shape)
    if not 1 <= k <= width:
        raise ArgumentError(f"target rank {k} out of range 1..{width} for shape ({m.shape[0]},{m.shape[1]})")
    full = svd(m)
    u = full.u._nd()[:, :k]
    s = full.sigma.data[:k]
    v = full.v._nd()[:, :k]
    return SVDResult(_tensor_from_nd(np.array(u)), DenseTensor((k,), s), _tensor_from_nd(np.array(v)))


def default_rank_tol(sigma: np.ndarray, rows: int, cols: int) -> float:
    """Relative threshold replacing the exact-zero rank test in floating point."""
    if sigma.size == 0:
        return 0.0
    return float(sigma[0]) * max(rows, cols) * _EPS


def numerical_rank(m: DenseTensor, tol: float | None = None) -> int:
    """Count of singular values above tol (default sigma_1 * max(I,J) * eps)."""
    res = svd(m)
    s = res.sigma.data
    if tol is None:
        tol = default_rank_tol(s, m.shape[0], m.shape[1])
    return int((s > tol).sum())


def pinv(m: DenseTensor) -> DenseTensor:
    """Moore-Penrose pseudo-inverse via the SVD, zeroing sub-threshold sigmas."""
    res = svd(m)
    s = res.sigma.data
    tol = default_rank_tol(s, m.shape[0], m.shape[1])
    inv = np.where(s > tol, 1.0 / np.where(s > tol, s, 1.0), 0.0)
    out = res.v._nd() @ (inv[:, None] * res.u._nd().T)
    return _tensor_from_nd(out)
