"""Block-Hankel operator calculus.

An s-by-n signal matrix X with columns x_0, ..., x_{n-1} is lifted into the
block-Hankel matrix of shape (s*n1, n2), n1 + n2 = n + 1, whose block (i, j)
of height s equals column x_{i+j}.  Column i of X then occupies w_i positions
of the lifted matrix, where w_i counts the pairs (j, k) with j + k = i.

This module provides the lift, its adjoint, the pseudoinverse de-lift
(weighted anti-diagonal averaging), the isometric variants (the oracle of the
diagnostics' restricted-isometry map), and FFT-based products with the lift
of a ``SignalSpectrum``, so that no iteration or diagnostic materializes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


@dataclass(frozen=True, eq=False)
class HankelDims:
    """Shape bookkeeping for the block-Hankel lift of an s-by-n matrix.

    The split n1 determines n2 = n + 1 - n1.  weights[i] is the number of
    lifted positions fed by column i, equal to min(i+1, n1, n2, n-i); the
    weights sum to n1*n2.
    """

    n: int
    s: int
    n1: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if self.s < 1:
            raise ValueError(f"need s >= 1, got s={self.s}")
        if not 1 <= self.n1 <= self.n:
            raise ValueError(f"n1 must lie in [1, {self.n}], got {self.n1}")

    @property
    def n2(self) -> int:
        return self.n + 1 - self.n1

    @cached_property
    def weights(self) -> np.ndarray:
        return weight_vector(self.n, self.n1, self.n2)

    @property
    def lifted_shape(self) -> tuple[int, int]:
        return (self.s * self.n1, self.n2)

    def check_rank(self, rank: int) -> None:
        """The tangent space at a rank-r point of the lift needs 2r <= min(s*n1, n2)."""
        room = min(self.lifted_shape)
        if 2 * rank > room:
            raise ValueError(f"rank {rank} infeasible for lifted shape "
                             f"{self.lifted_shape}: need 2*rank <= {room}")


def weight_vector(n: int, n1: int, n2: int) -> np.ndarray:
    """Closed-form anti-diagonal weights w_i = min(i+1, n1, n2, n-i)."""
    i = np.arange(n)
    return np.minimum.reduce([i + 1, np.full(n, n1), np.full(n, n2), n - i])


def choose_dims(n: int, s: int, n1: int | None = None) -> HankelDims:
    """Pick the block-Hankel split for an s-by-n signal.

    Defaults to the most-square split n1 = (n+1)//2, n2 = n+1-n1 (so
    n2 >= n1), which maximizes the feasible rank min(s*n1, n2) for s > 1.
    Pass n1 to override.
    """
    return HankelDims(n=n, s=s, n1=(n + 1) // 2 if n1 is None else n1)


def _check_signal(X: np.ndarray, dims: HankelDims) -> np.ndarray:
    X = np.asarray(X)
    if X.shape != (dims.s, dims.n):
        raise ValueError(f"expected signal of shape {(dims.s, dims.n)}, got {X.shape}")
    return X


def _check_lifted(Z: np.ndarray, dims: HankelDims) -> np.ndarray:
    Z = np.asarray(Z)
    if Z.shape != dims.lifted_shape:
        raise ValueError(f"expected lifted matrix of shape {dims.lifted_shape}, got {Z.shape}")
    return Z


def lift(X: np.ndarray, dims: HankelDims) -> np.ndarray:
    """Block-Hankel lift: block (i, j) of the result is column i+j of X."""
    X = _check_signal(X, dims)
    idx = np.add.outer(np.arange(dims.n1), np.arange(dims.n2))
    cols = X[:, idx]  # (s, n1, n2)
    return cols.transpose(1, 0, 2).reshape(dims.s * dims.n1, dims.n2)


def adjoint_lift(Z: np.ndarray, dims: HankelDims) -> np.ndarray:
    """Adjoint of the lift: column i of the result sums blocks with j+k = i."""
    Z = _check_lifted(Z, dims)
    Zb = Z.reshape(dims.n1, dims.s, dims.n2)
    out = np.zeros((dims.s, dims.n), dtype=np.result_type(Z.dtype, np.float64))
    for j in range(dims.n1):
        out[:, j:j + dims.n2] += Zb[j]
    return out


def _weigh(X: np.ndarray, dims: HankelDims, power: int) -> np.ndarray:
    """Scale column i of X by w_i**(power/2): power -2 de-lifts, -1 is isometric."""
    w = dims.weights.astype(np.float64)
    return _check_signal(X, dims) * (w ** (power / 2.0))[None, :]


def pinv_lift(Z: np.ndarray, dims: HankelDims) -> np.ndarray:
    """Pseudoinverse de-lift: weighted average over each anti-diagonal stack.

    Left inverse of ``lift``; equals the minimum-residual signal whose lift is
    closest to Z in Frobenius norm.
    """
    return _weigh(adjoint_lift(Z, dims), dims, -2)


def lift_isometric(X: np.ndarray, dims: HankelDims) -> np.ndarray:
    """Weight-compensated lift; a Frobenius isometry from signals to lifted matrices."""
    return lift(_weigh(X, dims, -1), dims)


def adjoint_lift_isometric(Z: np.ndarray, dims: HankelDims) -> np.ndarray:
    """Adjoint of the isometric lift; inverts it on its range."""
    return _weigh(adjoint_lift(Z, dims), dims, -1)


# ---------------------------------------------------------------------------
# FFT-based matrix-free products with the lifted matrix
# ---------------------------------------------------------------------------
#
# Every batch of transforms below runs along the last, contiguous axis, and
# sums over signal rows or factors are taken on the spectra, before the
# inverse transform: by linearity the sum of inverse transforms is the
# inverse transform of the sum, so one inverse FFT serves the whole sum.
# Products with the same lifted matrix share the spectrum of its signal
# through a SignalSpectrum.


def _fft_last(a: np.ndarray, L: int) -> np.ndarray:
    """Zero-padded length-L FFTs along the last axis of a, on contiguous data.

    np.fft keeps the memory order of its input, so transforms of a strided
    view would come out strided too; a C-ordered copy keeps them contiguous.
    """
    return np.fft.fft(np.ascontiguousarray(a), L, axis=-1)


@dataclass(frozen=True, eq=False)
class SignalSpectrum:
    """A signal X with the zero-padded FFT of its rows, computed on first use.

    ``lift_matvec`` and ``lift_rmatvec`` take one, so that several products
    with lift(X) pay for the s forward transforms of X once.  X must not
    change while the spectrum is in use.
    """

    X: np.ndarray

    @cached_property
    def F(self) -> np.ndarray:
        return _fft_last(self.X, _next_pow2(self.X.shape[-1]))  # (s, L)


def _checked_spectrum(spectrum: SignalSpectrum, block: np.ndarray, rows: int,
                      dims: HankelDims) -> np.ndarray:
    """The cached row spectrum of a signal of shape (s, n), after checking a (rows, k) block."""
    _check_signal(spectrum.X, dims)
    if block.ndim != 2 or block.shape[0] != rows:
        raise ValueError(f"expected a ({rows}, k) block, got shape {block.shape}")
    return spectrum.F


def lift_matvec(spectrum: SignalSpectrum, v: np.ndarray, dims: HankelDims) -> np.ndarray:
    """Compute lift(X) @ v without materializing the lifted matrix.

    Row block i of the product is sum_j x_{i+j} v[j], a cross-correlation of
    each of the s signal rows with each column of the (n2, k) block v,
    evaluated with FFTs of length the next power of two >= n: k forward
    (plus s for the spectrum of X, once per ``SignalSpectrum``) and s*k
    inverse transforms.  The product is returned column-major, the layout
    LAPACK's QR works in.
    """
    Fx = _checked_spectrum(spectrum, v, dims.n2, dims)  # (s, L)
    k = v.shape[1]
    L = Fx.shape[-1]
    Fv = _fft_last(v[::-1].T, L)  # (k, L)
    conv = Fx[:, None, :] * Fv[None, :, :]  # (s, k, L)
    # In place (``out=`` needs NumPy >= 2.0): the (s, k, L) spectra are the
    # largest temporary of a product.
    np.fft.ifft(conv, axis=-1, out=conv)
    blocks = conv[:, :, dims.n2 - 1:dims.n2 - 1 + dims.n1]  # (s, k, n1)
    # Entry (i*s + a, j) is blocks[a, j, i]; laying blocks out as (k, n1, s)
    # makes each column of the product contiguous.
    return np.ascontiguousarray(blocks.transpose(1, 2, 0)).reshape(k, -1).T


def lift_rmatvec(spectrum: SignalSpectrum, u: np.ndarray, dims: HankelDims) -> np.ndarray:
    """Compute lift(X)^H @ u matrix-free; adjoint companion of ``lift_matvec``.

    Column j of the product sums, over the s signal rows, the correlation of
    that row with the matching rows of the j-th column of the (s*n1, k) block
    u.  The sum is taken on the spectra, so k columns cost s*k forward (plus
    s for the spectrum of X, once per ``SignalSpectrum``) and only k inverse
    transforms.  The product is returned column-major.
    """
    Fx = _checked_spectrum(spectrum, u, dims.s * dims.n1, dims)  # (s, L)
    k = u.shape[1]
    # The reversed rows of the blocks of u, conjugated straight into C order;
    # freed before the spectra are summed and inverted in place, which keeps
    # the product's peak memory to its (s, k, L) spectra.
    W = np.conj(u.reshape(dims.n1, dims.s, k).transpose(1, 2, 0)[:, :, ::-1],
                order="C")  # (s, k, n1)
    Fw = _fft_last(W, Fx.shape[-1])  # (s, k, L)
    del W
    Fw *= Fx[:, None, :]
    conv = Fw.sum(axis=0)  # (k, L)
    np.fft.ifft(conv, axis=-1, out=conv)
    return np.conj(conv[:, dims.n1 - 1:dims.n1 - 1 + dims.n2]).T  # (n2, k)


def lift_products(X: np.ndarray, dims: HankelDims) -> tuple[Callable, Callable]:
    """The (matvec, rmatvec) pair of lift(X), sharing one ``SignalSpectrum`` of X."""
    spectrum = SignalSpectrum(X)
    return (lambda v: lift_matvec(spectrum, v, dims),
            lambda u: lift_rmatvec(spectrum, u, dims))


def adjoint_lift_lowrank(U: np.ndarray, sigma: np.ndarray, V: np.ndarray,
                         dims: HankelDims) -> np.ndarray:
    """Adjoint lift of a factored matrix U @ diag(sigma) @ V^H, via FFTs.

    Row a of the result sums, over the k factors, the convolution of the a-th
    rows of the blocks of U with sigma_j conj(V[:, j]).  sigma is folded into
    the spectrum of V and the sum is taken on the spectra, so the cost is
    s*k + k forward and s inverse transforms: O(k s n log n) instead of the
    O(s n1 n2) of a dense lift.
    """
    k = len(sigma)
    if k == 0:
        return np.zeros((dims.s, dims.n), dtype=complex)
    if U.shape != (dims.s * dims.n1, k) or V.shape != (dims.n2, k):
        raise ValueError("factor shapes inconsistent with dims")
    L = _next_pow2(dims.n)
    Fu = _fft_last(U.reshape(dims.n1, dims.s, k).transpose(1, 2, 0), L)  # (s, k, L)
    Fv = _fft_last(np.conj(V).T, L)  # (k, L)
    Fv *= np.asarray(sigma)[:, None]
    Fu *= Fv[None, :, :]
    return np.fft.ifft(Fu.sum(axis=1), axis=-1)[:, :dims.n]  # (s, n)


def pinv_lift_lowrank(U: np.ndarray, sigma: np.ndarray, V: np.ndarray,
                      dims: HankelDims) -> np.ndarray:
    """Pseudoinverse de-lift of a factored matrix, matrix-free."""
    return _weigh(adjoint_lift_lowrank(U, sigma, V, dims), dims, -2)
