"""Rank-r manifold machinery: truncated SVDs and tangent-space projection.

A rank-r matrix is carried as a compact SVD triple (U, sigma, V),
``LowRankFactors``.  The tangent space of the fixed-rank manifold at such a
point consists of matrices U N^H + M V^H and depends on the point only
through U and V, so the projections take the point's factors themselves.
Projecting onto it and re-truncating is the inner step of the solver.  Every
solver iteration runs it as ``project_tangent_truncate``, which reads the
full matrix only through its products with the point's two factors and ends
in the SVD of a 2k-by-2k core, keeping the per-iteration cost at the factor
scale.  The dense ``truncate_rank`` and ``project_tangent`` serve only the
checks and tests, as the oracles of that step and of the initialization;
the solver's initialization and the diagnostics use
``truncate_rank_operator``, a randomized block Krylov SVD that stops on a
residual certificate.  Passes over tall factors run one cache-sized block
of rows at a time: Hermitian products conjugate one block at a time
(``_hermitian``), and ``project_tangent_truncate`` updates its own tall
buffers in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_ORTHO_TOL = 1e-10
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
# Randomized block Krylov: blocks of r columns (block Krylov needs no wider
# block; Musco & Musco, NeurIPS 2015) until the residual of every leading
# Ritz pair is at most a tolerance times the Ritz gap theta_r - theta_{r+1}.
# By the Davis-Kahan sin-theta bound that ratio bounds the angle to the
# leading singular subspace, which sets the error of the truncation.  The
# default tolerance, _CERTIFICATE_TOL, is the accuracy the diagnostics'
# constants need; the solver's start asks for less
# (``solver._INIT_CERTIFICATE_TOL``).  The basis holds at most _MAX_COLUMNS
# columns, as many as blocks of r + 8 = 13 columns were allowed at r=5 (32
# blocks).  At s=4, r=5 and _CERTIFICATE_TOL the lifted back-projection
# certifies after 5 blocks at n=65536, 6-9 at n=4096 and 8-25 at
# n=256-1024 (at most 125 columns); at n=48 its basis spans all n2 = 25 rows
# after 5 blocks.
_CERTIFICATE_TOL = 1.2e-6
_MAX_COLUMNS = 416
# Rows per block of a pass over a tall factor: the conjugate or product of
# one block (8192 rows of k = 5 complex columns take 640 KiB) is still in
# cache when the next operation reads it.  A factor of at most this many
# rows (n <= 4096 at s = 4) is one block, so its passes are single calls.
_BLOCK_ROWS = 8192


class RankTruncationError(RuntimeError):
    """Iterative factorization found no certificate within its column budget.

    Carries the last ratio of the leading Ritz pairs' residual to the Ritz
    gap in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class LowRankFactors:
    """Compact SVD triple: U (m, k) and V (p, k) orthonormal, sigma finite, descending >= 0.

    k >= 1.  A truncation to rank r keeps r triplets, with zero singular values
    where the matrix has lower rank; reconstructions, not raw factors, are the
    comparable quantity (factors are unique only up to per-column phase).
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        k = self.sigma.shape[0] if self.sigma.ndim == 1 else 0
        if k < 1 or self.U.ndim != 2 or self.V.ndim != 2:
            raise ValueError("factors must be (U: 2-d, sigma: 1-d and nonempty, V: 2-d)")
        if self.U.shape[1] != k or self.V.shape[1] != k:
            raise ValueError("factor column counts must match len(sigma)")
        # Each test is written to fail on NaN, which compares False.
        if not (np.all((self.sigma >= 0) & (self.sigma < np.inf))
                and np.all(np.diff(self.sigma) <= 0)):
            raise ValueError("sigma must be finite, non-negative and non-increasing")
        for Q in (self.U, self.V):
            gram = _hermitian(Q, Q)
            if not np.max(np.abs(gram - np.eye(k))) <= _ORTHO_TOL:
                raise ValueError("factor columns must be orthonormal")

    @property
    def rank(self) -> int:
        return len(self.sigma)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U.shape[0], self.V.shape[0])

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.sigma[None, :]) @ self.V.conj().T


def _hermitian(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X^H Y for tall X and Y, without a conjugate copy of the whole of X.

    The product is summed over blocks of _BLOCK_ROWS rows, each conjugated
    just before its product, so an m-row product makes no m-row temporary
    and reads each block's conjugate from cache.
    """
    out = X[:_BLOCK_ROWS].conj().T @ Y[:_BLOCK_ROWS]
    for start in range(_BLOCK_ROWS, X.shape[0], _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        out += X[start:stop].conj().T @ Y[start:stop]
    return out


def _row_blocks(m: int) -> list[slice]:
    """Slices of _BLOCK_ROWS rows covering m rows, the last one taking the remainder.

    Only a whole factor is shorter, so NumPy hands every block to BLAS's
    matrix product (a one-row block would go to its matrix-vector product,
    which rounds otherwise), with the remainder rows of the whole product:
    a row of a block's product with a k-by-k matrix is bitwise that row of
    the whole product.
    """
    last = max(m - _BLOCK_ROWS, 0) // _BLOCK_ROWS * _BLOCK_ROWS
    return [slice(a, a + _BLOCK_ROWS) for a in range(0, last, _BLOCK_ROWS)] + [slice(last, m)]


def _minus_product(A: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """A - X @ Y for a tall X, taken in the buffer of the product X @ Y.

    The same operations as the plain expression, with one tall temporary
    instead of two.
    """
    P = X @ Y
    return np.subtract(A, P, out=P)


def truncate_rank(W: np.ndarray, r: int) -> LowRankFactors:
    """Best rank-r approximation factors of a dense matrix (truncated SVD).

    Returns r triplets; those past the matrix's rank have zero singular values.
    """
    W = np.asarray(W)
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r > min(W.shape):
        raise ValueError(f"rank {r} exceeds matrix shape {W.shape}")
    if not np.all(np.isfinite(W)):
        # LAPACK may not terminate on non-finite input
        raise np.linalg.LinAlgError("matrix contains non-finite entries")
    U, sigma, Vh = np.linalg.svd(W, full_matrices=False)
    return LowRankFactors(U=U[:, :r], sigma=sigma[:r], V=Vh[:r].conj().T)


def project_tangent(W: np.ndarray, point: LowRankFactors) -> np.ndarray:
    """Projection U U^H W + W V V^H - U U^H W V V^H onto the tangent space at point."""
    W = np.asarray(W)
    if W.shape != point.shape:
        raise ValueError(f"expected shape {point.shape}, got {W.shape}")
    U, V = point.U, point.V
    A = U.conj().T @ W  # (k, p)
    C = W @ V  # (m, k)
    return U @ A + (C - U @ (A @ V)) @ V.conj().T


def truncate_rank_operator(matvec: Callable[[np.ndarray], np.ndarray],
                           adjoint_matvec: Callable[[np.ndarray], np.ndarray],
                           shape: tuple[int, int], r: int, *, seed: int = 0,
                           tol: float = _CERTIFICATE_TOL) -> LowRankFactors:
    """Leading-r SVD factors of a matrix M seen only through operator products.

    Runs randomized block Krylov: block Lanczos on M^H M from a Gaussian
    block of width r seeded by ``seed``, with every new block orthogonalized
    twice against the basis held so far and then deflated (directions of
    numerically zero norm are dropped), and Rayleigh-Ritz on the whole basis
    after each block.  It stops once the residual ||M^H M y - theta y|| of
    each of the r leading Ritz pairs is at most ``tol`` times the gap
    theta_r - theta_{r+1} between the r-th and the next Ritz value (and no
    less than ``tol`` times theta_1), which bounds the angle to the leading
    singular subspace by about ``tol``; or once the basis spans the whole
    row space, where Rayleigh-Ritz is exact.  The default, _CERTIFICATE_TOL
    = 1.2e-6, is what the diagnostics' kappa, sigma_r and mu1 use; the
    solver's initialization passes a looser tolerance, since its iteration
    removes the rest of the start's error.  U and sigma then come from one
    product of width r; all r triplets are kept, zero singular values
    included.  Raises ``RankTruncationError`` if the basis reaches
    _MAX_COLUMNS columns first.  Each block costs one matvec and one
    adjoint_matvec, which must accept (dim, k) blocks; the basis lives in one
    column-major array of shape[1] rows, and no shape[0]-row block outlives
    the product that consumes it.
    """
    m, p = shape
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r > min(m, p):
        raise ValueError(f"rank {r} exceeds operator shape {shape}")
    rng = np.random.default_rng(seed)
    Omega = (rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))) / np.sqrt(2.0)
    limit = min(p, _MAX_COLUMNS)

    # The basis vectors are the rows of Kt, so K = Kt.T is column-major.  Kt
    # holds only the blocks built: it is copied once per block, between
    # products, when their large temporaries are gone.
    Kt = np.linalg.qr(Omega)[0].T.copy(order="C")
    T = np.zeros((0, 0), dtype=complex)  # K^H M^H M K
    start, c = 0, r
    while True:
        K = Kt.T
        W = adjoint_matvec(matvec(K[:, start:c]))  # M^H M applied to the newest block
        T = np.pad(T, (0, c - start))
        T[:, start:] = K.conj().T @ W
        T[start:, :start] = T[:start, start:].conj().T
        theta, S = np.linalg.eigh(T)
        lead = S[:, ::-1][:, :r]
        scale = max(theta[-1], 0.0)
        # M^H M K = K T + W E^H once W is projected off the basis, so the
        # residual of the Ritz pair (theta_i, K s_i) is ||W s_i[start:c]||.
        W -= K @ T[:, start:]
        W -= K @ (K.conj().T @ W)
        residual = float(np.max(np.linalg.norm(W @ lead[start:], axis=0)))
        # A gap below tol * theta_1 leaves the leading subspace
        # undetermined at that accuracy, so the certificate asks no more.
        gap = max(theta[-r] - (theta[-r - 1] if c > r else 0.0), tol * scale)
        if residual > tol * gap and c < p:
            if c >= limit:
                raise RankTruncationError(
                    f"no residual certificate within {c} Krylov basis columns "
                    f"(last residual over Ritz gap {residual / gap:.3e})",
                    residual=residual / gap)
            # Deflation: keep the directions of the new block above roundoff,
            # which one more projection makes orthogonal to the basis again.
            # If none is left, the Krylov space is invariant up to roundoff.
            P, sv, _ = np.linalg.svd(W, full_matrices=False)
            P = P[:, sv > p * np.finfo(float).eps * scale][:, :limit - c]
            if P.shape[1]:
                P -= K @ (K.conj().T @ P)
                start, c = c, c + P.shape[1]
                Kt = np.concatenate([Kt, np.linalg.qr(P)[0].T])
                continue
        Y = K @ lead
        P, sigma, Th = np.linalg.svd(matvec(Y), full_matrices=False)
        # M ~ M Y Y^H = P diag(sigma) (Y Th^H)^H
        return LowRankFactors(U=P, sigma=sigma, V=Y @ Th.conj().T)


def _householder_completion(U: np.ndarray, B: np.ndarray,
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Completion by Householder QR of the stacked [U, B], orthonormal for any B,
    in the form of ``_complete``: (Q, I, R), with Q a C-ordered array of its own."""
    k = U.shape[1]
    Q = np.linalg.qr(np.hstack([U, B]))[0][:, k:]
    return np.ascontiguousarray(Q), np.eye(k), _hermitian(Q, B)


def _complete(U: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal completion of U along a block B already projected off U.

    Returns Q (m, k) and F, R (k, k) such that the columns of Q F are
    orthonormal and orthogonal to U, and Q F R = (I - U U^H) B.  B is
    projected against U a second time ("twice is enough"), then factorized
    by CholeskyQR2: B = Q R0 with R0 the Cholesky factor of B^H B, and once
    more Q = (Q F) R2 with R2 that of Q^H Q, so F = R2^-1 and R = R2 R0.  F is returned unapplied:
    a caller that needs Q F X only for a thin X forms Q (F X), which saves
    the tall product Q F.  When the Cholesky factorization fails or R0 does
    not certify cond(B) <= _CHOLQR_COND_MAX, the Householder QR of [U, B]
    is used instead, with F = I.  B is overwritten: the second projection
    and Q are formed in its buffer, one block of rows at a time, so the
    completion makes no tall temporary.
    """
    C = _hermitian(U, B)
    for rows in _row_blocks(B.shape[0]):
        B[rows] -= U[rows] @ C
    try:
        L = np.linalg.cholesky(_hermitian(B, B))  # B^H B = L L^H, so R0 = L^H
        Linv = np.linalg.inv(L)
    except np.linalg.LinAlgError:
        return _householder_completion(U, B)
    # ||R0||_F ||R0^-1||_F bounds cond_2(R0) = cond_2(B) from above; NaN fails it.
    if not np.linalg.norm(L) * np.linalg.norm(Linv) <= _CHOLQR_COND_MAX:
        return _householder_completion(U, B)
    Q, R0inv = B, Linv.conj().T
    for rows in _row_blocks(Q.shape[0]):
        Q[rows] = Q[rows] @ R0inv
    try:
        L2 = np.linalg.cholesky(_hermitian(Q, Q))
        return Q, np.linalg.inv(L2).conj().T, (L @ L2).conj().T
    except np.linalg.LinAlgError:
        return _householder_completion(U, Q @ L.conj().T)  # B = Q R0


def project_tangent_truncate(MV: np.ndarray, MhU: np.ndarray,
                             point: LowRankFactors) -> LowRankFactors:
    """Best rank-k factors of P_T(M), given M only through MV = M V and MhU = M^H U.

    T is the tangent space at the rank-k ``point`` = (U, sigma, V), and
    P_T(M) = U A + B V^H with A = U^H M and B = (I - U U^H) M V, so it lives
    in the span of [U, Q1 F1] x [V, Q2 F2], where Q1 F1 R1 = B and
    Q2 F2 R2 = D = (I - V V^H) A^H complete U and V orthonormally
    (``_complete``); an SVD of the small 2k-by-2k core
    [[A V, R2^H], [R1, 0]] yields the truncation exactly.  The completions run
    CholeskyQR2 (two Cholesky passes over the m-by-k block, after projecting
    it against U twice) whenever the first Cholesky factor certifies the
    block as well conditioned, and fall back to the Householder QR of the
    stacked [U, B] otherwise, e.g. for a rank-deficient B near a fixed point;
    each side chooses on its own block.  The core is filled in place.  Only
    the k kept columns of [U, Q1 F1] Uc and [V, Q2 F2] Vc are formed, as
    U Uc' + Q1 (F1 Uc''), in Q1's buffer (``_rotate_into``), so the k-by-k
    factor F1 is applied to k core columns and each side forms its new
    factor with two tall products: k triplets, whose singular values may be
    zero, so the point keeps its rank.  Matches ``truncate_rank(project_tangent(M, point), k)`` up to
    roundoff; beyond the two products, which the caller takes, all work is
    at the factor scale.
    """
    U, V = point.U, point.V
    (m, p), k = point.shape, point.rank
    if 2 * k > min(m, p):
        raise ValueError(f"tangent rank {k} too large for shape {(m, p)}")
    AV = _hermitian(MhU, V)  # (k, k) = U^H M V
    Q1, F1, R1 = _complete(U, _minus_product(MV, U, AV))  # B = (I - U U^H) M V
    Q2, F2, R2 = _complete(V, _minus_product(MhU, V, AV.conj().T))  # D = (I - V V^H) M^H U
    core = np.zeros((2 * k, 2 * k), dtype=np.result_type(AV, R1, R2))
    core[:k, :k] = AV
    core[:k, k:] = R2.conj().T
    core[k:, :k] = R1
    if not np.all(np.isfinite(core)):
        raise np.linalg.LinAlgError("projected core contains non-finite entries")
    Uc, sigma, Vch = np.linalg.svd(core)
    Vc = Vch[:k].conj().T
    return LowRankFactors(U=_rotate_into(Q1, U, Uc[:k, :k], F1 @ Uc[k:, :k]),
                          sigma=sigma[:k],
                          V=_rotate_into(Q2, V, Vc[:k], F2 @ Vc[k:]))


def _rotate_into(Q: np.ndarray, U: np.ndarray, A: np.ndarray, G: np.ndarray) -> np.ndarray:
    """U A + Q G, formed in Q's buffer one block of rows at a time.

    The same operations as the expression, with no tall temporary and no
    new tall array; Q, a completion of ``_complete``, is overwritten.
    """
    for rows in _row_blocks(Q.shape[0]):
        QG = Q[rows] @ G
        np.matmul(U[rows], A, out=Q[rows])
        Q[rows] += QG
    return Q
