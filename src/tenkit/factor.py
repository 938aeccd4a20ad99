"""Dense QR and SVD kernels, built in-house for small matrices.

QR uses Householder reflections with a post-hoc sign fix so diag(R) >= 0.
SVD uses one-sided Jacobi rotations: sweeps in the round-robin parallel
ordering (Brent & Luk) orthogonalize the columns of a working copy,
accumulating the rotations in V; singular values are the final column
norms. Each round of a sweep pairs disjoint columns, so one numpy step
rotates the whole round. A tall input (at least _QR_ASPECT times as many
rows as columns, and at least _QR_MIN_COLS columns) is first factored by
QR, and the sweeps rotate its small square R. Jacobi is slow for large
matrices but very accurate at the desk scale this library targets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DenseTensor, _as_int, _as_tol, _tensor_from_nd
from .errors import NumericError, ShapeError

__all__ = ["QRResult", "SVDResult", "qr", "svd", "truncated_svd", "numerical_rank", "pinv"]

_EPS = float(np.finfo(np.float64).eps)

# Jacobi convergence: off-diagonal Gram entries <= _JACOBI_TOL * ||M||_F^2,
# at most _JACOBI_SWEEPS sweeps over all column pairs. Rotations also
# continue below that absolute level while a pair is large relative to its
# own column norms; otherwise normalizing a near-null column would wreck
# U's orthogonality.
_JACOBI_TOL = 1e-14
_JACOBI_REL_TOL = 1e-15
_JACOBI_SWEEPS = 60

# QR preconditioning (Drmac & Veselic 2008): an input with m >= _QR_ASPECT * n
# rows and n >= _QR_MIN_COLS columns (after wide inputs are transposed) is
# factored a = QR first, and the sweeps rotate rows of length 2n of the n x n
# R instead of rows of length m + n. Set from interleaved kernel timings on
# one core: near the gate (64x16 to 128x16, 96x24) both paths take within 6%
# of each other, the saving grows with m (576x24 takes 0.63 of the time),
# and narrower or squarer inputs get slower (256x8: 1.10, 60x20: 1.11).
_QR_ASPECT = 4
_QR_MIN_COLS = 16


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
    # Scale max|a| into [0.5, 1) by a power of two, which is exact, so the
    # column norms can neither overflow nor underflow; r is unscaled at the end.
    exp = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    r = np.ldexp(a, -exp)
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
    r = np.ldexp(np.triu(r[:t, :]), exp)
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


def _orthonormal_fill(u: np.ndarray, width: int) -> np.ndarray:
    """Extend the orthonormal columns of u (m, r) to width <= m columns.

    The Householder Q of [u | leading columns of I] has orthonormal columns
    and its first r span u, so the rest are orthogonal to u (even where an
    identity column lies in the span of u); u itself is kept.
    """
    m, r = u.shape
    q, _ = _householder(np.hstack((u, np.eye(m, width - r))))
    return np.hstack((u, q[:, r:]))


@functools.lru_cache(maxsize=64)
def _round_robin(n: int) -> tuple[np.ndarray, ...]:
    """Brent-Luk parallel ordering of the column pairs of an n-column matrix.

    n is padded to an even count; each of the padded count - 1 rounds pairs
    every column with one other, and pairs touching the pad are dropped.
    Every pair (p, q), p < q, appears in exactly one round. The arrays are
    read-only because the cache hands them to every caller.
    """
    players = list(range(n + n % 2))
    half = len(players) // 2
    rounds = []
    for _ in range(len(players) - 1):
        pairs = sorted(
            (min(a, b), max(a, b))
            for a, b in zip(players[:half], reversed(players[half:]))
            if a < n and b < n
        )
        pq = np.array([p for p, _ in pairs] + [q for _, q in pairs], dtype=np.intp)
        pq.flags.writeable = False
        rounds.append(pq)
        players.insert(1, players.pop())
    return tuple(rounds)


def _jacobi_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m, n = a.shape
    if m < n:
        u, s, v = _jacobi_svd(a.T)
        return v, s, u
    # Scale max|a| into [0.5, 1) by a power of two, which is exact, so the
    # Gram sums cannot overflow; sigma is unscaled at the end.
    exp = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    a = np.ldexp(a, -exp)
    # A tall a = q @ r is rotated as its n x n r, whose Jacobi rotations
    # give the same sigma and V; U is q times the rotated r's columns.
    q = None
    if m >= _QR_ASPECT * n and n >= _QR_MIN_COLS:
        q, a = _householder(a)
    rows_a = a.shape[0]
    # Row j of wv holds column j of W followed by column j of V, so one
    # contiguous row rotation updates both.
    wv = np.hstack((a.T, np.eye(n)))
    w = wv[:, :rows_a]
    limit = _JACOBI_TOL * float((w * w).sum())
    rel2 = _JACOBI_REL_TOL**2
    rounds = _round_robin(n)
    converged = n < 2
    for _ in range(_JACOBI_SWEEPS):
        if converged:
            break
        converged = True
        # The pairs of a round are disjoint, so their rotations commute and
        # one array step applies them all.
        for pq in rounds:
            k = pq.size // 2
            rows = wv[pq]
            wp = rows[:k, :rows_a]
            wq = rows[k:, :rows_a]
            apq = np.einsum("ij,ij->i", wp, wq)
            sq = np.einsum("ij,ij->i", rows[:, :rows_a], rows[:, :rows_a])
            app = sq[:k]
            aqq = sq[k:]
            rotate = (np.abs(apq) > limit) | (apq * apq > rel2 * app * aqq)
            rotating = np.count_nonzero(rotate)
            if rotating < k:
                if not rotating:
                    continue
                keep = np.concatenate((rotate, rotate))
                pq, rows, sq = pq[keep], rows[keep], sq[keep]
                k = rotating
                apq, app, aqq = apq[rotate], sq[:k], sq[k:]
            converged = False
            tau = (aqq - app) / (2.0 * apq)
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            c = (1.0 / np.hypot(1.0, t))[:, None]
            s = t[:, None] * c
            bp = rows[:k]
            bq = rows[k:]
            wv[pq] = np.concatenate((c * bp - s * bq, s * bp + c * bq))
    if not converged:
        # The last sweep still rotated; verify the Gram matrix directly. q has
        # orthonormal columns, so q @ W has the Gram matrix of W.
        gram = w @ w.T
        off = float(np.max(np.abs(gram - np.diag(np.diag(gram))))) if n > 1 else 0.0
        if off > limit:
            on_r = "" if q is None else f" (on the {n}x{n} R of a {m}x{n} input)"
            raise NumericError(
                f"jacobi svd did not converge in {_JACOBI_SWEEPS} sweeps{on_r} "
                f"(max off-diagonal gram entry {off:.3e}, limit {limit:.3e}, "
                f"input scaled by 2**{-exp})"
            )
    norms = np.sqrt((w * w).sum(axis=1))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    w = wv[order, :rows_a].T
    if q is not None:
        w = q @ w
    v = wv[order, rows_a:].T
    # Sorted descending, so the zero-norm (dead) columns come last.
    live = int(np.count_nonzero(norms))
    u = w[:, :live] / norms[:live]
    if live < n:
        u = _orthonormal_fill(u, n)
    norms = np.ldexp(norms, exp)
    # Sign convention: largest-magnitude entry of each u column is positive.
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(n)] < 0.0
    u[:, flip] = -u[:, flip]
    v[:, flip] = -v[:, flip]
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
    k = _as_int(k, f"target rank for shape ({m.shape[0]},{m.shape[1]})", 1, min(m.shape))
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
    if tol is not None:
        tol = _as_tol(tol)
    s = svd(m).sigma.data
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
