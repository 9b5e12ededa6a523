"""Rank-r manifold machinery: truncated SVDs and tangent-space projection.

A rank-r matrix is carried as a compact SVD triple (U, sigma, V),
``LowRankFactors``.  The tangent space of the fixed-rank manifold at such a
point consists of matrices U N^H + M V^H and depends on the point only
through U and V, so the projections take the point's factors themselves.
Projecting onto it and re-truncating is the inner step of the solver.  Every
solver iteration runs it as ``project_tangent_truncate``, which touches the
full matrix only through operator products and ends in the SVD of a
2k-by-2k core, keeping the per-iteration cost at the factor scale.  The
dense ``truncate_rank`` serves the dense initialization and, with the dense
``project_tangent``, the checks and tests, as the oracle of that step; the
diagnostics use ``truncate_rank_operator`` like the fast initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_ORTHO_TOL = 1e-10
_TRIM_REL = 1e-15
# Largest cond(B) at which the tangent completion trusts CholeskyQR2.  With
# unit roundoff u = 2**-53 ~ 1.1e-16, CholeskyQR leaves Q^H Q - I of order
# u cond(B)^2 and its Cholesky factorization can break down once that nears 1;
# the sufficient condition of Yamamoto et al. for CholeskyQR2 to return Q
# orthonormal to O(u), 8 cond(B) sqrt(u (m k + k (k + 1))) <= 1, holds at
# cond(B) = 1e4 for m k up to ~1.4e6 (m = 131072, k = 5 gives 6.6e5), and the
# rounding of B R^-1 leaves components along U of order u cond(B) <= ~1e-12.
# For larger m the condition is pessimistic (the typical loss stays near
# u cond(B)^2 ~ 1e-8), and LowRankFactors re-checks orthonormality anyway.
_CHOLQR_COND_MAX = 1e4
# Randomized subspace iteration: sketch width r + _OVERSAMPLE, sweeps before
# the first convergence test, the relative change of the leading singular
# values that ends it, and the sweeps it may take.
_OVERSAMPLE = 8
_POWER_ITERS = 2
_SVAL_TOL = 1e-12
_MAX_SWEEPS = 256


class RankTruncationError(RuntimeError):
    """Iterative factorization failed to stabilize within its iteration cap.

    Carries the best available residual estimate (last relative change of the
    leading singular values) in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class LowRankFactors:
    """Compact SVD triple: U (m, k) and V (p, k) orthonormal, sigma descending > 0.

    k can fall below the requested rank when trailing singular values vanish;
    reconstructions, not raw factors, are the comparable quantity (factors are
    unique only up to per-column phase).
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        k = self.sigma.shape[0] if self.sigma.ndim == 1 else -1
        if k < 0 or self.U.ndim != 2 or self.V.ndim != 2:
            raise ValueError("factors must be (U: 2-d, sigma: 1-d, V: 2-d)")
        if self.U.shape[1] != k or self.V.shape[1] != k:
            raise ValueError("factor column counts must match len(sigma)")
        if k:
            if np.any(self.sigma <= 0) or np.any(np.diff(self.sigma) > 0):
                raise ValueError("sigma must be positive and non-increasing")
            for Q in (self.U, self.V):
                gram = Q.conj().T @ Q
                if np.max(np.abs(gram - np.eye(k))) > _ORTHO_TOL:
                    raise ValueError("factor columns must be orthonormal")

    @property
    def rank(self) -> int:
        return len(self.sigma)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U.shape[0], self.V.shape[0])

    def reconstruct(self) -> np.ndarray:
        if self.rank == 0:
            return np.zeros(self.shape, dtype=complex)
        return (self.U * self.sigma[None, :]) @ self.V.conj().T



def _trim(U: np.ndarray, sigma: np.ndarray, V: np.ndarray, r: int) -> LowRankFactors:
    """Keep the top r factors, dropping (numerically) zero singular values."""
    r = min(r, len(sigma))
    cutoff = sigma[0] * _TRIM_REL if len(sigma) and sigma[0] > 0 else 0.0
    k = int(np.sum(sigma[:r] > cutoff))
    return LowRankFactors(U=U[:, :k], sigma=sigma[:k].astype(float), V=V[:, :k])


def truncate_rank(W: np.ndarray, r: int) -> LowRankFactors:
    """Best rank-r approximation factors of a dense matrix (truncated SVD)."""
    W = np.asarray(W)
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r > min(W.shape):
        raise ValueError(f"rank {r} exceeds matrix shape {W.shape}")
    if not np.all(np.isfinite(W)):
        # LAPACK may not terminate on non-finite input
        raise np.linalg.LinAlgError("matrix contains non-finite entries")
    U, sigma, Vh = np.linalg.svd(W, full_matrices=False)
    return _trim(U, sigma, Vh.conj().T, r)


def project_tangent(W: np.ndarray, point: LowRankFactors) -> np.ndarray:
    """Projection U U^H W + W V V^H - U U^H W V V^H onto the tangent space at point."""
    W = np.asarray(W)
    if W.shape != point.shape:
        raise ValueError(f"expected shape {point.shape}, got {W.shape}")
    if point.rank == 0:
        return np.zeros_like(W, dtype=np.result_type(W.dtype, np.complex128))
    U, V = point.U, point.V
    A = U.conj().T @ W  # (k, p)
    C = W @ V  # (m, k)
    return U @ A + (C - U @ (A @ V)) @ V.conj().T


def truncate_rank_operator(matvec: Callable[[np.ndarray], np.ndarray],
                           adjoint_matvec: Callable[[np.ndarray], np.ndarray],
                           shape: tuple[int, int], r: int, *, seed: int = 0) -> LowRankFactors:
    """Leading-r SVD factors of a matrix seen only through operator products.

    Runs randomized subspace iteration seeded by ``seed`` (Gaussian sketch of
    width r + _OVERSAMPLE, alternating orthonormalized products) until the
    leading singular values change by at most _SVAL_TOL relative to the
    largest from one sweep to the next; raises ``RankTruncationError`` if
    _MAX_SWEEPS sweeps run first.  matvec and adjoint_matvec must accept
    (dim, k) blocks; products returned column-major, as the hankel FFT
    products are, reach LAPACK's QR without a strided copy.
    """
    m, p = shape
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r > min(m, p):
        raise ValueError(f"rank {r} exceeds operator shape {shape}")
    k = min(r + _OVERSAMPLE, m, p)
    rng = np.random.default_rng(seed)
    Omega = (rng.standard_normal((p, k)) + 1j * rng.standard_normal((p, k))) / np.sqrt(2.0)

    Q, _ = np.linalg.qr(matvec(Omega))
    sig_prev = None
    change = np.inf
    for sweep in range(_MAX_SWEEPS):
        Yh = adjoint_matvec(Q)  # (p, k) = M^H Q
        sig = np.linalg.svd(Yh, compute_uv=False)[:r]
        if sig_prev is not None and sweep >= _POWER_ITERS:
            scale = max(sig[0], np.finfo(float).tiny)
            change = float(np.max(np.abs(sig - sig_prev)) / scale)
            if change <= _SVAL_TOL:
                P, svals, Th = np.linalg.svd(Yh, full_matrices=False)
                # M ~ Q Q^H M = Q Yh^H, so left factors are Q rotated by Th^H.
                return _trim(Q @ Th.conj().T, svals, P, r)
        sig_prev = sig
        Qp, _ = np.linalg.qr(Yh)
        Q, _ = np.linalg.qr(matvec(Qp))
    raise RankTruncationError(
        f"singular values did not stabilize within {_MAX_SWEEPS} sweeps "
        f"(last relative change {change:.3e})", residual=change)


def _householder_completion(U: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Completion by Householder QR of the stacked [U, B]: orthonormal for any B."""
    k = U.shape[1]
    Q1 = np.linalg.qr(np.hstack([U, B]))[0][:, k:]
    return Q1, Q1.conj().T @ B


def _complete(U: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal completion of U along a block B already projected off U.

    Returns Q1 (m, k) with orthonormal columns orthogonal to U, and R1 (k, k)
    with Q1 R1 = (I - U U^H) B.  B is projected against U a second time
    ("twice is enough"), then factorized by CholeskyQR2: B = Q R with R the
    Cholesky factor of B^H B, and once more Q = Q1 R2, so R1 = R2 R.  When
    the Cholesky factorization fails or R does not certify
    cond(B) <= _CHOLQR_COND_MAX, the Householder QR of [U, B] is used instead.
    """
    B = B - U @ (U.conj().T @ B)
    try:
        L = np.linalg.cholesky(B.conj().T @ B)  # B^H B = L L^H, so R = L^H
        Linv = np.linalg.inv(L)
        # ||R||_F ||R^-1||_F bounds cond_2(R) = cond_2(B) from above; NaN fails it.
        if np.linalg.norm(L) * np.linalg.norm(Linv) <= _CHOLQR_COND_MAX:
            Q = B @ Linv.conj().T
            L2 = np.linalg.cholesky(Q.conj().T @ Q)
            return Q @ np.linalg.inv(L2).conj().T, (L @ L2).conj().T
    except np.linalg.LinAlgError:
        pass
    return _householder_completion(U, B)


def project_tangent_truncate(matvec: Callable[[np.ndarray], np.ndarray],
                             adjoint_matvec: Callable[[np.ndarray], np.ndarray],
                             point: LowRankFactors, r: int) -> LowRankFactors:
    """Best rank-r factors of P_T(M) with M touched only via operator products.

    T is the tangent space at ``point`` = (U, sigma, V), and
    P_T(M) = U A + B V^H with A = U^H M and B = (I - U U^H) M V, so it lives
    in the span of [U, Q1] x [V, Q2], where Q1 R1 = B and Q2 R2 = D =
    (I - V V^H) A^H complete U and V orthonormally; an SVD of the small
    2k-by-2k core [[A V, R2^H], [R1, 0]] yields the truncation exactly.  The
    completions run CholeskyQR2 (two Cholesky passes over the m-by-k block,
    after projecting it against U twice) whenever the first Cholesky factor
    certifies the block as well conditioned, and fall back to the Householder
    QR of the stacked [U, B] otherwise, e.g. for a rank-deficient B near a
    fixed point.  Only the r kept columns of [U, Q1] Uc and [V, Q2] Vc are
    formed.  Matches ``truncate_rank(project_tangent(M, point), r)`` up to
    roundoff at a cost of O(k) operator products plus factor-scale dense work.
    """
    U, V = point.U, point.V
    (m, p), k = point.shape, point.rank
    if k == 0:
        return LowRankFactors(U=np.zeros((m, 0), dtype=complex),
                              sigma=np.zeros(0), V=np.zeros((p, 0), dtype=complex))
    if 2 * k > min(m, p):
        raise ValueError(f"tangent rank {k} too large for shape {(m, p)}")
    C = matvec(V)  # (m, k) = M V
    A = adjoint_matvec(U).conj().T  # (k, p) = U^H M
    AV = A @ V  # (k, k)
    Q1, R1 = _complete(U, C - U @ AV)  # B = (I - U U^H) M V
    Q2, R2 = _complete(V, A.conj().T - V @ AV.conj().T)  # D = (I - V V^H) M^H U
    core = np.block([[AV, R2.conj().T],
                     [R1, np.zeros((k, k), dtype=R1.dtype)]])
    if not np.all(np.isfinite(core)):
        raise np.linalg.LinAlgError("projected core contains non-finite entries")
    Uc, sigma, Vch = np.linalg.svd(core)
    Vc = Vch.conj().T
    return _trim(U @ Uc[:k, :r] + Q1 @ Uc[k:, :r], sigma,
                 V @ Vc[:k, :r] + Q2 @ Vc[k:, :r], r)
