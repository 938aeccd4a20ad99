"""Dense QR and SVD kernels, built in-house for small matrices.

QR uses Householder reflections with a post-hoc sign fix so diag(R) >= 0.
The reflectors are kept, and Q is formed from them in the compact-WY form
(its UT-transform variant): two GEMMs and one small triangular solve, not
a second reflector loop. SVD uses one-sided Jacobi rotations: sweeps in the
round-robin parallel ordering (Brent & Luk) orthogonalize the columns of a
working copy, accumulating the rotations in V; singular values are the
final column norms. Each round of a sweep pairs disjoint columns, so one
test marks the pairs that rotate and one stacked matmul of 2 x 2 rotations
rotates the whole round. During a sweep the columns are kept as rows in the
current round's order, in one of two preallocated buffers: a round takes
its Gram entries from two stacked matmuls of row views, rotates its pairs
into the other buffer, and one take moves the rows into the next round's
order; a round with no rotation is that take alone. The rows go back to
their natural order once per sweep. The kernel factors a stack of
same-shape matrices at once (HOSVD passes the unfoldings that share a
shape) and svd is its one-matrix call: each matrix keeps its own scaling,
convergence test and results, bit for bit, and a pair that needs no
rotation, or a matrix that has converged, gets the identity rotation until
the whole stack is done. A tall input (at least _QR_ASPECT times as many
rows as columns, and at least _QR_MIN_COLS columns) is first reduced by
Householder steps, the sweeps rotate its small square R, and U comes from
applying the reflectors to the rotated columns, without forming Q. Both
kernels work at a power-of-two scale; a result beyond float range (a
singular value, an entry of R or of the pseudo-inverse) raises
NumericError. Jacobi is slow for large matrices but very accurate at the
desk scale this library targets.

A caller that uses only the leading p triplets of a slice (truncated_svd,
truncated HOSVD, TT-SVD with bond caps) passes p. A sweep that starts with
the slice's n - p smallest squared column norms summing to at most its p-th
largest tests only the pairs touching its p largest columns; the trailing
block is dominated, so once those pairs are orthogonal the p columns are
the leading triplets, and its own rotations would be thrown away. Where
that bound never holds, the slice gets the bits of the full sweeps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DenseTensor, _as_int, _as_tensor, _as_tol, _fmt_shape, _from_rev, _rev, _scale_exponent, _unscale
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


def _reflect(r: np.ndarray) -> np.ndarray:
    """Householder-reduce a column-major r (m, n) in place; return its reflectors vs (m, t).

    With t = min(m, n), step k maps r to H_k r, H_k = I - 2 v_k v_k^T, so r
    ends as H_{t-1} ... H_0 times the input, its first t rows upper
    triangular up to rounding below the diagonal. Column k of vs holds the
    unit v_k (zero above row k), or zeros where column k of r was already
    zero from its diagonal down.
    """
    m, n = r.shape
    t = min(m, n)
    vs = np.zeros((t, m)).T
    for k in range(t):
        x = r[k:, k]
        norm = math.sqrt(float(x @ x))
        if norm == 0.0:
            continue
        v = vs[k:, k]
        v[:] = x
        v[0] += math.copysign(norm, x[0]) if x[0] != 0.0 else norm
        # norm >= 2**-537 (the root of the least subnormal) and |v[0]| >= norm,
        # so v[0]**2 does not underflow and v @ v > 0.
        v /= math.sqrt(float(v @ v))
        # H_k r = r - 2 v (v^T r), the update built transposed so that it is
        # column-major like r.
        r[k:, k:] -= np.multiply.outer(2.0 * (v @ r[k:, k:]), v).T
    return vs


def _q_times(vs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Q @ [w; 0] for Q = H_0 ... H_{t-1} of _reflect's vs (m, t) and w (t, c).

    The compact-WY form in its UT-transform variant (Schreiber & Van Loan
    1989; Joffrain et al. 2006): Q = I - V S^-1 V^T with S = I/2 plus the
    strictly upper part of V^T V, so Q @ [w; 0] = [w; 0] - V S^-1 V[:t]^T w,
    two GEMMs and a t x t solve. A zero column of V (no reflection) has a
    zero row and column in S off its diagonal, so it drops out.
    """
    m, t = vs.shape
    s = np.triu(vs.T @ vs, 1)
    s.flat[:: t + 1] = 0.5
    out = vs @ np.linalg.solve(s, vs[:t].T @ w)
    np.negative(out, out=out)
    out[:t] += w
    return out


def _householder(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of any (m, n) array: a = q @ r with q (m, t), r (t, n), t = min(m, n),
    and diag(r) >= 0. An R entry beyond float range raises NumericError naming
    the caller, `what`."""
    t = min(a.shape)
    # Scale max|a| into [0.5, 1) by a power of two, which is exact, so the
    # column norms can neither overflow nor underflow; r is unscaled at the end.
    exp = _scale_exponent(a)
    r = np.asfortranarray(np.ldexp(a, -exp))
    vs = _reflect(r)
    r = _unscale(r[:t], exp, f"{what} R entries are")
    # Sign fix: negating row j of r and column j of q makes diag(r) >= 0.
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    return _q_times(vs, np.diag(signs)), np.triu(r * signs[:, None])


def qr(m: DenseTensor) -> QRResult:
    """QR of a tall (or square) matrix; wide inputs are rejected."""
    m = _as_tensor(m, "qr", 2, finite=True)
    if m.shape[0] < m.shape[1]:
        raise ShapeError(f"qr needs a tall matrix, got {_fmt_shape(m.shape)}; transpose first")
    q, r = _householder(m.to_array(), "qr")
    return QRResult(_from_rev(q.T), _from_rev(r.T))


def _orthonormal_fill(u: np.ndarray, width: int) -> np.ndarray:
    """Extend the orthonormal columns of u (m, r) to width <= m columns.

    The Householder Q of [u | leading columns of I] has orthonormal columns
    and its first r span u, so the rest are orthogonal to u (even where an
    identity column lies in the span of u); u itself is kept.
    """
    m, r = u.shape
    # Its entries are at most 1, so R's are at most sqrt(m): the name is never shown.
    q, _ = _householder(np.hstack((u, np.eye(m, width - r))), "svd")
    return np.hstack((u, q[:, r:]))


@functools.lru_cache(maxsize=64)
def _round_robin(n: int, stack: int = 1) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Brent-Luk parallel ordering of the column pairs of an n-column matrix,
    as the row order of each round and the step from one round's order to
    the next.

    n is padded to an even count; each of the padded count - 1 rounds pairs
    every column with one other, and pairs touching the pad are dropped.
    Every pair (p, q), p < q, appears in exactly one round. A round's order
    lists the p of its pairs, then their q, then, when n is odd, the idle
    column that the pad paired. For a stack of matrices kept with column j
    of matrix i at row j * stack + i, the order lists those rows instead,
    each column's rows together. Each round is (order, step): rows in this
    round's order, taken at step, are in the next round's order, and the
    last round's step leads back to the first round's order. The arrays are
    read-only because the cache hands them to every caller.
    """
    players = list(range(n + n % 2))
    half = len(players) // 2
    orders = []
    for _ in range(len(players) - 1):
        pairs = sorted((min(a, b), max(a, b)) for a, b in zip(players[:half], reversed(players[half:])))
        cols = [p for p, q in pairs if q < n] + [q for _, q in pairs if q < n] + [p for p, q in pairs if q == n]
        orders.append((np.array(cols, dtype=np.intp)[:, None] * stack + np.arange(stack)).ravel())
        players.insert(1, players.pop())
    rounds = []
    for order, following in zip(orders, orders[1:] + orders[:1]):
        # where[r] is the position of row r in this round's order.
        where = np.empty_like(order)
        where[order] = np.arange(order.size)
        step = where[following]
        order.flags.writeable = step.flags.writeable = False
        rounds.append((order, step))
    return tuple(rounds)


def _top_columns(w: np.ndarray, keep: Sequence[int], top: np.ndarray) -> bool:
    """Mark in top (n, B) the columns whose pairs a sweep tests; True if some are unmarked.

    w holds the stack's columns as rows, column j of slice i at row j * B + i.
    A slice that keeps p < n triplets and whose n - p smallest squared column
    norms sum to at most its p-th largest has only its p largest marked (the
    first by index among equal norms); every other slice has all n marked.
    """
    n, b = top.shape
    sq = np.einsum("ij,ij->i", w, w).reshape(n, b)
    top[:] = True
    for i, p in enumerate(keep):
        if p < n:
            order = np.argsort(-sq[:, i], kind="stable")
            s = sq[order, i]
            if s[p:].sum() <= s[p - 1]:
                top[order[p:], i] = False
    return not top.all()


def _jacobi_svd(
    a: np.ndarray, keep: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD of every slice of a stack a (B, m, n): u (B, m, k),
    sigma (B, k), v (B, n, k) and exp (B,), k = min(m, n). Slice i's
    singular values are sigma[i] * 2**exp[i]; they are left scaled, because
    they need not lie in float range when u and v are all a caller needs.

    Each slice gets exactly the numbers it would get alone (B = 1): its own
    scaling, QR step, limit, convergence, dead-column fill and signs.

    keep, if given, holds the number p of leading triplets each slice's
    caller uses. A sweep that starts with a slice's n - p smallest squared
    column norms summing to at most its p-th largest tests only the pairs
    of that slice that touch its p largest columns. When such a sweep
    rotates nothing, those p columns are orthogonal to each other and to the
    rest, whose spectral norm is at most their Frobenius norm, so at most
    the least of the p: they are the leading p triplets, to rounding. The
    other k - p are the rest's columns, not its singular triplets, though
    their squared norms still sum to the squared singular values they stand
    for. A slice whose bound never holds (or p >= k) gets every bit it
    gets without keep.
    """
    # A wide stack is factored as its transpose. Each slice is laid out
    # column-major, as _reflect needs, so that its numbers (the BLAS calls
    # of _reflect) do not depend on how the stack was built.
    b, m, n = a.shape
    wide = m < n
    if wide:
        a = a.transpose(0, 2, 1)
        m, n = n, m
    a = np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)
    # Scale max|a| of each slice into [0.5, 1) by a power of two, which is
    # exact, so the Gram sums cannot overflow.
    exp = np.array([_scale_exponent(x) for x in a])
    a = np.ldexp(a, -exp[:, None, None])
    # A tall a = q @ r is rotated as its n x n r, whose Jacobi rotations
    # give the same sigma and V; U is q times the rotated r's columns, formed
    # from the reflectors without forming q. The scaled a is a new array, so
    # each slice is reduced in place. r keeps the signs of its diagonal: its
    # rows' signs change no Gram entry, and U comes out the same.
    refl = None
    if m >= _QR_ASPECT * n and n >= _QR_MIN_COLS:
        refl = [_reflect(x) for x in a]
        a = np.triu(a[:, :n])
    rows_a = a.shape[1]
    cols = rows_a + n
    # wv[j, i] holds column j of slice i's W followed by column j of its V,
    # so one contiguous row rotation updates both; as rows j * b + i of
    # stacked, the whole stack is one matrix of rows in natural order.
    # Adding 0.0 turns -0.0 into +0.0; without -0.0 entries, the identity
    # rotation (c = 1, s = 0) leaves a row bit-identical.
    wv = np.empty((n, b, cols))
    np.add(a.transpose(2, 0, 1), 0.0, out=wv[:, :, :rows_a])
    wv[:, :, rows_a:] = np.eye(n)[:, None, :]
    stacked = wv.reshape(n * b, cols)
    limit = np.array([_JACOBI_TOL * float((w * w).sum()) for w in wv[:, :, :rows_a].transpose(1, 0, 2)])
    rel2 = _JACOBI_REL_TOL**2
    # Every round has n // 2 pairs in each slice, so k rows on either side;
    # the rows of one side cycle through the slices.
    k = n // 2 * b
    row_limit2 = np.tile(limit, n // 2) ** 2
    # During a sweep the rows live in one of two buffers, in the order of the
    # current round: its k p rows, its k q rows, then the idle column's rows
    # when n is odd. For each buffer: its pairs, pair i being rows i and
    # k + i, and the operands of the Gram entries as stacked 1 x m by m x 1
    # matmuls, each a dot product of two rows.
    rounds = _round_robin(n, b)
    bufs = np.empty((2, n * b, cols))
    views = []
    for buf in bufs:
        w = buf[: 2 * k, :rows_a]
        pairs = buf[: 2 * k].reshape(2, k, cols).transpose(1, 0, 2)
        views.append((buf, pairs, w[:, None, :], w[:, :, None], w[:k, None, :], w[k:, :, None]))
    # Each round writes with out= into arrays made here, once: the Gram
    # entries app, aqq and apq of its pairs, the rotate test, and one 2 x 2
    # rotation per pair, applied to the pair's two rows by one stacked matmul.
    entries = np.empty((3, k))
    app, aqq, apq = entries
    sq_out, apq_out = entries[:2].reshape(2 * k, 1, 1), apq.reshape(k, 1, 1)
    rot = np.empty((k, 2, 2))
    bound, tau, hyp = np.empty((3, k))
    rotate, still = np.empty((2, k), dtype=bool)
    # hit marks the pairs that rotated in the current sweep. A slice with no
    # rotation in a sweep has converged: its rows no longer change, so it
    # sees only identity rotations until a sweep rotates no pair at all.
    # top marks the columns whose pairs the sweep tests, as rows of stacked
    # once flattened; a pair that is not tested does not rotate.
    hit = np.zeros(k, dtype=bool)
    top = np.ones((n, b), dtype=bool)
    tested = top.reshape(-1)
    # take writes into out directly, not through a buffer, unless its mode is
    # "raise"; every index is in range.
    stacked.take(rounds[0][0], axis=0, out=bufs[0], mode="clip")
    natural = np.argsort(rounds[0][0])
    cur = 0
    for _ in range(_JACOBI_SWEEPS):
        hit[:] = False
        narrow = keep is not None and _top_columns(stacked[:, :rows_a], keep, top)
        # The pairs of a round are disjoint, so their rotations commute and
        # one array step applies them all, in every slice.
        for order, step in rounds:
            buf, pairs, w_row, w_col, p_row, q_col = views[cur]
            dest, dest_pairs = views[1 - cur][:2]
            np.matmul(w_row, w_col, out=sq_out)
            np.matmul(p_row, q_col, out=apq_out)
            # A pair rotates while |apq| > its slice's limit, or while apq is
            # large relative to the pair's column norms: squared, one test.
            np.multiply(rel2, app, out=bound)
            bound *= aqq
            np.minimum(row_limit2, bound, out=bound)
            np.greater(np.multiply(apq, apq, out=tau), bound, out=rotate)
            if narrow:
                rotate &= tested[order[:k]] | tested[order[k : 2 * k]]
            if not np.count_nonzero(rotate):
                buf.take(step, axis=0, out=dest, mode="clip")
                cur = 1 - cur
                continue
            hit |= rotate
            # A pair that does not rotate gets tau = +-inf, so t = +-0, c = 1
            # and s = +-0 (inf / 0 raises no division-by-zero flag).
            np.subtract(aqq, app, out=tau)
            np.copyto(tau, np.inf, where=np.logical_not(rotate, out=still))
            tau /= np.multiply(2.0, apq, out=hyp)
            # t = 1 / (tau + copysign(hypot(1, tau), tau)), left in hyp.
            np.hypot(1.0, tau, out=hyp)
            np.copysign(hyp, tau, out=hyp)
            hyp += tau
            np.divide(1.0, hyp, out=hyp)
            c = np.divide(1.0, np.hypot(1.0, hyp, out=tau), out=rot[:, 0, 0])
            s = np.multiply(hyp, c, out=rot[:, 1, 0])
            rot[:, 1, 1] = c
            np.negative(s, out=rot[:, 0, 1])
            # Rotate into the other buffer, then take the rows back in the
            # next round's order.
            np.matmul(rot, pairs, out=dest_pairs)
            if n % 2:
                dest[2 * k :] = buf[2 * k :]
            dest.take(step, axis=0, out=buf, mode="clip")
        if not hit.any():
            break
        # A sweep ends in the first round's order; stacked gets the rows back
        # in natural order for the next sweep's _top_columns and the results.
        views[cur][0].take(natural, axis=0, out=stacked, mode="clip")
    # hit is all False unless the sweeps ran out; then moved marks the
    # slices that still rotated in the last one.
    moved = hit.reshape(-1, b).any(axis=0)
    us, sigmas, vs = [], [], []
    for i in range(b):
        w = wv[:, i, :rows_a]
        if moved[i]:
            # The last sweep still rotated; verify the Gram matrix directly,
            # on the rows of the columns that sweep tested. q has orthonormal
            # columns, so q @ W has the Gram matrix of W.
            gram = w @ w.T
            off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))[top[:, i]]))
            if off > limit[i]:
                on_slice = f" on slice {i + 1} of {b}" if b > 1 else ""
                on_r = "" if refl is None else f" (on the {n}x{n} R of a {m}x{n} input)"
                raise NumericError(
                    f"jacobi svd did not converge in {_JACOBI_SWEEPS} sweeps{on_slice}{on_r} "
                    f"(max off-diagonal gram entry {off:.3e}, limit {limit[i]:.3e}, "
                    f"input scaled by 2**{-exp[i]})"
                )
        norms = np.sqrt((w * w).sum(axis=1))
        order = np.argsort(-norms, kind="stable")
        norms = norms[order]
        w = wv[order, i, :rows_a].T
        if refl is not None:
            w = _q_times(refl[i], w)
        v = wv[order, i, rows_a:].T
        # Sorted descending, so the zero-norm (dead) columns come last.
        live = int(np.count_nonzero(norms))
        u = w[:, :live] / norms[:live]
        if live < n:
            u = _orthonormal_fill(u, n)
        # Sign convention: largest-magnitude entry of each u column is positive.
        flip = u[np.argmax(np.abs(u), axis=0), np.arange(n)] < 0.0
        u[:, flip] = -u[:, flip]
        v[:, flip] = -v[:, flip]
        us.append(u)
        sigmas.append(norms)
        vs.append(v)
    u, sigma, v = np.stack(us), np.stack(sigmas), np.stack(vs)
    return (v, sigma, u, exp) if wide else (u, sigma, v, exp)


def _svd_at_scale(m: DenseTensor, keep: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """u (I, K) and v (J, K), column-major as svd returns them, and the
    singular values of a finite matrix m as sigma * 2**e: sigma and e, so
    that a caller can use them where m's own singular values lie beyond
    float range. keep, if given, is the number of leading triplets the
    caller uses (_jacobi_svd)."""
    u, sigma, v, exp = _jacobi_svd(m.to_array()[None], None if keep is None else [keep])
    return np.asfortranarray(u[0]), sigma[0], np.asfortranarray(v[0]), int(exp[0])


def _svd(m: DenseTensor, what: str, keep: int | None = None) -> SVDResult:
    """svd of a checked matrix for the caller `what`, keeping keep triplets if given (_jacobi_svd)."""
    u, s, v, e = _svd_at_scale(m, keep)
    sigma = _unscale(s, e, f"{what} singular values are")
    return SVDResult(_from_rev(u.T), _from_rev(sigma), _from_rev(v.T))


def svd(m: DenseTensor) -> SVDResult:
    """Economy SVD of any matrix: m = u @ diag(sigma) @ v.T, K = min(I, J)."""
    return _svd(_as_tensor(m, "svd", 2, finite=True), "svd")


def truncated_svd(m: DenseTensor, k: int) -> SVDResult:
    """Leading-k SVD triples (the best rank-k approximation).

    The Jacobi sweeps stop rotating the trailing columns once their squared
    norms sum to at most the k-th largest, so the result equals svd's
    leading k triples to rounding, not bit for bit, once that holds."""
    m = _as_tensor(m, "truncated_svd", 2, finite=True)
    k = _as_int(k, f"target rank for shape {_fmt_shape(m.shape)}", 1, min(m.shape))
    full = _svd(m, "truncated_svd", k)
    # The rows of a matrix's reversed view are its columns, so the leading k are contiguous.
    u, v = (_from_rev(_rev(f)[:k]) for f in (full.u, full.v))
    return SVDResult(u, _from_rev(full.sigma.data[:k]), v)


def default_rank_tol(sigma: np.ndarray, rows: int, cols: int) -> float:
    """Relative threshold replacing the exact-zero rank test in floating point,
    for the nonincreasing singular values of a rows x cols matrix."""
    return float(sigma[0]) * max(rows, cols) * _EPS


def numerical_rank(m: DenseTensor, tol: float | None = None) -> int:
    """Count of singular values above tol (default sigma_1 * max(I,J) * eps)."""
    m = _as_tensor(m, "numerical_rank", 2, finite=True)
    if tol is not None:
        tol = _as_tol(tol)
    _, s, _, e = _svd_at_scale(m)
    if tol is None:
        # The default is relative, so it is taken at the svd's own scale.
        return int((s > default_rank_tol(s, m.shape[0], m.shape[1])).sum())
    # A singular value beyond float range becomes inf, which is above any tol.
    with np.errstate(over="ignore"):
        return int((np.ldexp(s, e) > tol).sum())


def pinv(m: DenseTensor) -> DenseTensor:
    """Moore-Penrose pseudo-inverse via the SVD, zeroing sub-threshold sigmas."""
    m = _as_tensor(m, "pinv", 2, finite=True)
    u, s, v, e = _svd_at_scale(m)
    # At the svd's scale max|m| is in [0.5, 1), so no kept 1 / s overflows;
    # the product is scaled back by the svd's power of two.
    keep = s > default_rank_tol(s, *m.shape)
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return _from_rev(_unscale(v @ (inv[:, None] * u.T), -e, "pinv entries are").T)
