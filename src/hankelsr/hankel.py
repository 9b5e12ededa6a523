"""Block-Hankel operator calculus.

An s-by-n signal matrix X with columns x_0, ..., x_{n-1} is lifted into the
block-Hankel matrix of shape (s*n1, n2), n1 + n2 = n + 1, whose block (i, j)
of height s equals column x_{i+j}.  Column i of X then occupies w_i positions
of the lifted matrix, where w_i counts the pairs (j, k) with j + k = i.

This module provides the lift, its adjoint, the pseudoinverse de-lift
(weighted anti-diagonal averaging), the isometric variants (the oracle of the
diagnostics' restricted-isometry map), FFT-based products with the lift of a
``SignalSpectrum`` and ``truncate_lift``, the operator SVD of a lift on them.
A ``FactorSpectrum`` (what ``truncate_lift`` returns) is a rank-k point of
the lift with its dims and the spectra of its factors, which the products
and the FFT de-lifts of the point and of its tangent vectors U N^H + M V^H
read, so that no iteration or diagnostic materializes a lift.
``HankelDims`` owns the shape: each spectrum carries one and is checked
against it once, when built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .lowrank import LowRankFactors, truncate_rank_operator


@dataclass(frozen=True)
class HankelDims:
    """Shape bookkeeping for the block-Hankel lift of an s-by-n matrix.

    The split n1 determines n2 = n + 1 - n1.  weights[i] is the number of
    lifted positions fed by column i, equal to min(i+1, n1, n2, n-i); the
    weights sum to n1*n2.  L, the next power of two >= n, is the FFT length.
    """

    n: int
    s: int
    n1: int

    def __post_init__(self):
        try:
            tuple(map(operator.index, (self.n, self.s, self.n1)))
        except TypeError:
            raise ValueError(f"n, s and n1 must be integers, got {self}") from None
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

    @cached_property
    def inverse_weights(self) -> np.ndarray:
        """weights ** -1.0, the de-lift's scaling, taken once per dims.

        It is taken from weight_vector, not from weights, so that a fast
        solve, which reads only these, caches one n-vector per dims."""
        return weight_vector(self.n, self.n1, self.n2) ** -1.0

    @property
    def L(self) -> int:
        return 1 << (operator.index(self.n) - 1).bit_length()

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

    Defaults to the split n1 = (n+1)//2, n2 = n+1-n1, which makes n1 and n2
    nearly equal (n2 >= n1).  For s > 1 it does not maximize the feasible
    rank min(s*n1, n2), which wants s*n1 close to n2: at n=256, s=4 it gives
    min(512, 129) = 129, where n1=52 gives min(208, 205) = 205.  It is kept
    because at n=256, s=4, r=5 the rank-balanced split takes about as many
    iterations and no less time.  Pass n1 to override.
    """
    return HankelDims(n=n, s=s, n1=(n + 1) // 2 if n1 is None else n1)


def _check_signal(X: np.ndarray, dims: HankelDims) -> np.ndarray:
    X = np.asarray(X)
    if X.shape != (dims.s, dims.n):
        raise ValueError(f"expected signal of shape {(dims.s, dims.n)}, got {X.shape}")
    return X


def lift(X: np.ndarray, dims: HankelDims) -> np.ndarray:
    """Block-Hankel lift: block (i, j) of the result is column i+j of X."""
    X = _check_signal(X, dims)
    idx = np.add.outer(np.arange(dims.n1), np.arange(dims.n2))
    cols = X[:, idx]  # (s, n1, n2)
    return cols.transpose(1, 0, 2).reshape(dims.s * dims.n1, dims.n2)


def adjoint_lift(Z: np.ndarray, dims: HankelDims) -> np.ndarray:
    """Adjoint of the lift: column i of the result sums blocks with j+k = i."""
    Z = np.asarray(Z)
    if Z.shape != dims.lifted_shape:
        raise ValueError(f"expected lifted matrix of shape {dims.lifted_shape}, got {Z.shape}")
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
# Every batch of transforms below runs along the last, contiguous axis and
# has length L, the next power of two >= n.  The products with lift(X) are
# circular cross-correlations of the rows of X with the columns of a factor,
# and the de-lift of U diag(sigma) V^H a circular convolution of U's block
# rows with conj(V); their windows never wrap, since every index they read
# lies below n <= L.  Sums over signal rows or factors are taken on the
# spectra, before the inverse transform: by linearity one inverse FFT serves
# the whole sum.  A SignalSpectrum shares the conjugated spectrum of X
# between the products with lift(X), and a FactorSpectrum those of U and
# conj(V) between their de-lift and the products with the next lift, so the
# solver transforms each truncation's factors once; a tangent vector's
# de-lift transforms only its own N and M.  These cached spectra are only
# read; a call inverts its own temporaries in place.
# ``FactorSpectrum.release`` drops them once their last reader is done.

# Bytes of the spectra that a product takes at once.  When the (s, k, L)
# spectra of a k-column block fit, as at n <= 2048 for k = 5 and at n <= 512
# for k <= 32 at s = 4, a product takes them in one batched transform call,
# since per-call overhead dominates at small n; otherwise it takes them one
# signal row at a time, a (k, L) block, so that at n = 65536 it holds a
# fourth of the batched spectra.
_GROUP_BYTES = 1 << 20


def _row_groups(dims: HankelDims, k: int) -> list[slice]:
    """All s signal rows in one slice if their (s, k, L) spectra fit
    _GROUP_BYTES, else one slice per row."""
    if dims.s * k * dims.L * np.dtype(complex).itemsize <= _GROUP_BYTES:
        return [slice(0, dims.s)]
    return [slice(a, a + 1) for a in range(dims.s)]


def _fft_last(a: np.ndarray, L: int) -> np.ndarray:
    """Zero-padded length-L FFTs along the last axis of a, on contiguous data.

    a, which may be a strided view, is copied into a C-ordered zero-padded
    (..., L) buffer that is then transformed in place, so the spectra come
    out contiguous and no further copy of a is made.
    """
    F = np.zeros(a.shape[:-1] + (L,), dtype=complex)
    F[..., :a.shape[-1]] = a
    return np.fft.fft(F, axis=-1, out=F)


class SignalSpectrum:
    """``Fc``, the conjugate of the zero-padded FFT of the rows of a signal X,
    (s, L), on ``dims``, which both products with lift(X) read.

    ``lift_matvec`` and ``lift_rmatvec`` take one, so that several products
    with lift(X) pay for the s forward transforms of X once.  X's shape is
    checked and X transformed, and its spectrum conjugated in place, when
    the spectrum is built; no reference to X is kept.
    """

    def __init__(self, X: np.ndarray, dims: HankelDims):
        self.dims = dims
        self.Fc = _fft_last(_check_signal(X, dims), dims.L)
        np.conj(self.Fc, out=self.Fc)


def _check_block(block: np.ndarray, rows: int) -> None:
    if block.ndim != 2 or block.shape[0] != rows:
        raise ValueError(f"expected a ({rows}, k) block, got shape {block.shape}")


def _row_spectra(U: np.ndarray, dims: HankelDims, rows: slice = slice(None)) -> np.ndarray:
    """FFTs of the block rows ``rows`` (all s by default) of each column of an
    (s*n1, k) block: shape (len(rows), k, L)."""
    _check_block(U, dims.s * dims.n1)
    return _fft_last(U.reshape(dims.n1, dims.s, -1).transpose(1, 2, 0)[rows], dims.L)


def _conj_spectra(V: np.ndarray, dims: HankelDims) -> np.ndarray:
    """FFTs of the conjugated columns of an (n2, k) block: shape (k, L)."""
    _check_block(V, dims.n2)
    return _fft_last(np.conj(V).T, dims.L)


@dataclass(frozen=True, eq=False)
class FactorSpectrum:
    """A rank-k point U diag(sigma) V^H of the lift, with the spectra of its factors.

    Holds the point's ``LowRankFactors``, U (s*n1, k) and V (n2, k), and,
    computed on first use, ``FU``, the FFTs of U's block rows, (s, k, L), and
    ``FV``, those of conj(V), (k, L).  The de-lifts of the point and of its
    tangent vectors read both, and ``lift_matvec`` and ``lift_rmatvec`` take
    one in place of V or U, so the solver transforms a truncation's factors
    once.  No reader modifies the factors or the spectra.  ``release`` drops
    a cached spectrum once its last reader is done, so that a step need not
    keep the carried point's spectra alive beside its own temporaries; a
    later read takes the spectrum again, bitwise the same.
    """

    factors: LowRankFactors
    dims: HankelDims

    def __post_init__(self):
        if self.factors.shape != self.dims.lifted_shape:
            raise ValueError(f"factor shape {self.factors.shape} inconsistent "
                             f"with lifted shape {self.dims.lifted_shape}")

    @cached_property
    def FU(self) -> np.ndarray:
        return _row_spectra(self.factors.U, self.dims)

    @cached_property
    def FV(self) -> np.ndarray:
        return _conj_spectra(self.factors.V, self.dims)

    def release(self, name: str) -> None:
        """Drop the cached spectrum ``name``, "FU" or "FV"; a later read takes it again."""
        if name not in ("FU", "FV"):
            raise ValueError(f"no cached spectrum {name!r}")
        self.__dict__.pop(name, None)


def _at(point: FactorSpectrum, dims: HankelDims) -> FactorSpectrum:
    """``point``, after checking that it lies on the lift of ``dims``."""
    if point.dims != dims:
        raise ValueError("factor spectrum taken for another lift")
    return point


def lift_matvec(spectrum: SignalSpectrum, v: np.ndarray | FactorSpectrum) -> np.ndarray:
    """Compute lift(X) @ v without materializing the lifted matrix.

    Row block i of the product is sum_j x_{i+j} v[j], the window [0, n1) of
    the circular cross-correlation ifft(F_x conj(DFT(conj v))) of each of the
    s signal rows with each column of the (n2, k) block v.  v is a raw block,
    transformed here (k forward transforms), or a ``FactorSpectrum`` whose V
    is used with its cached spectrum; X's s forward transforms are paid once
    per ``SignalSpectrum``, and the product takes s*k inverse transforms, one
    ``_row_groups`` group of signal rows at a time, each group's spectra
    formed as Fc F_v and conjugated in place, bitwise F_x conj(F_v).  It is
    returned column-major: ``lowrank._hermitian`` and ``_complete`` read it,
    and their BLAS rounding, so the iterates, depends on the layout.
    """
    Fc, dims = spectrum.Fc, spectrum.dims  # (s, L)
    Fv = _at(v, dims).FV if isinstance(v, FactorSpectrum) else _conj_spectra(v, dims)  # (k, L)
    k = Fv.shape[0]
    # Entry (i*s + a, j) is out[j, i, a]; laying the product out as
    # (k, n1, s) makes each of its columns contiguous.
    out = np.empty((k, dims.n1, dims.s), dtype=complex)
    for rows in _row_groups(dims, k):
        conv = Fc[rows, None, :] * Fv[None, :, :]  # (rows, k, L)
        # In place (``out=`` needs NumPy >= 2.0): the spectra are the
        # largest temporary of a product.
        np.conj(conv, out=conv)
        np.fft.ifft(conv, axis=-1, out=conv)
        out[:, :, rows] = conv[:, :, :dims.n1].transpose(1, 2, 0)
        del conv  # before the next group's spectra are taken
    return out.reshape(k, dims.s * dims.n1).T


def lift_rmatvec(spectrum: SignalSpectrum, u: np.ndarray | FactorSpectrum) -> np.ndarray:
    """Compute lift(X)^H @ u matrix-free; adjoint companion of ``lift_matvec``.

    Entry l of column j of the product is conj(sum_a sum_i x_a[i+l] conj(u_a[i]))
    over the s signal rows a and the rows u_a of the blocks of the j-th column
    of the (s*n1, k) block u: the window [0, n2) of the conjugated circular
    cross-correlation conj(ifft(sum_a F_x[a] conj(F_u[a]))).  Its conjugate
    sum_a Fc[a] F_u[a] is one einsum for a ``FactorSpectrum`` u, whose U is
    used with its cached spectrum, and for a raw block u, transformed here
    (s*k forward transforms), one einsum per ``_row_groups`` group of signal
    rows added to a zero start: an einsum adds its products to zero one row
    at a time, so any grouping gives the same bits (a ufunc multiply-sum
    would not).  So k columns cost only k inverse transforms, plus s
    forward ones once per ``SignalSpectrum``.  It is returned column-major.
    """
    Fc, dims = spectrum.Fc, spectrum.dims  # (s, L)
    if isinstance(u, FactorSpectrum):
        conv = np.einsum("al,akl->kl", Fc, _at(u, dims).FU)  # (k, L)
    else:
        _check_block(u, dims.s * dims.n1)
        conv = np.zeros((u.shape[1], dims.L), dtype=complex)
        for rows in _row_groups(dims, u.shape[1]):
            conv += np.einsum("al,akl->kl", Fc[rows], _row_spectra(u, dims, rows))
    np.conj(conv, out=conv)
    np.fft.ifft(conv, axis=-1, out=conv)
    return np.conj(conv[:, :dims.n2]).T  # (n2, k)


def _ldexp(a: np.ndarray, e: int) -> np.ndarray:
    """a * 2**e, exact wherever the result is a normal number; np.ldexp takes no
    complex input, so a complex array is scaled part by part."""
    if not np.iscomplexobj(a):
        return np.ldexp(a, e)
    out = np.empty_like(a)
    np.ldexp(a.real, e, out=out.real)
    np.ldexp(a.imag, e, out=out.imag)
    return out


def _unit_exponent(y: np.ndarray) -> int:
    """The e for which the largest modulus of y / 2**e lies in [1/2, 1) (0 for zero y).

    A power-of-two scaling is exact and commutes bit for bit with the solver
    and ``truncate_lift``, at whose unit scale no product under- or
    overflows.  The modulus of a complex entry is a hypot, which stays
    accurate where the norm of small enough data underflows.
    """
    return int(np.frexp(np.max(np.abs(y), initial=0.0))[1])


def truncate_lift(X: np.ndarray, dims: HankelDims, r: int, **kwargs) -> FactorSpectrum:
    """The rank-r point of lift(X): ``truncate_rank_operator``'s factors (it gets
    ``kwargs``: ``seed``, ``tol``) on FFT products sharing one ``SignalSpectrum``
    of X / 2**e at unit scale (``_unit_exponent``), where no product of a finite
    X over- or underflows; sigma is scaled back by 2**e, which commutes with the
    SVD bit for bit.  Raises ``ValueError`` on a non-finite X, whose spectrum no
    SVD converges on."""
    X = _check_signal(X, dims)
    if not np.all(np.isfinite(X)):
        raise ValueError("signal to truncate must be finite")
    e = _unit_exponent(X)
    spectrum = SignalSpectrum(_ldexp(X, -e), dims)
    del X  # the products read only its spectrum
    products = partial(lift_matvec, spectrum), partial(lift_rmatvec, spectrum)
    factors = truncate_rank_operator(*products, dims.lifted_shape, r, **kwargs)
    return FactorSpectrum(replace(factors, sigma=_ldexp(factors.sigma, e)), dims)


def adjoint_lift_lowrank(point: FactorSpectrum) -> np.ndarray:
    """Adjoint lift of the point U @ diag(sigma) @ V^H, via FFTs.

    Row a of the result sums, over the k factors, the convolution of the a-th
    rows of the blocks of U with sigma_j conj(V[:, j]).  The sum is taken on
    the spectra of the point, which are read but not scaled, so the cost is
    s*k + k forward transforms, once per ``FactorSpectrum``, and s inverse
    ones: O(k s n log n) instead of the O(s n1 n2) of a dense lift.
    """
    conv = np.einsum("akl,kl->al", point.FU, point.FV * point.factors.sigma[:, None])  # (s, L)
    np.fft.ifft(conv, axis=-1, out=conv)
    return conv[:, :point.dims.n]


def pinv_lift_lowrank(point: FactorSpectrum) -> np.ndarray:
    """Pseudoinverse de-lift of the point, matrix-free.

    The adjoint lift is scaled by w**-1 (``HankelDims.inverse_weights``) in
    place, which saves an (s, n) temporary; like it, the result is a view of
    the first n columns of the (s, L) inverse transform.
    """
    X = adjoint_lift_lowrank(point)
    X *= point.dims.inverse_weights
    return X


def adjoint_lift_tangent(point: FactorSpectrum, N: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Adjoint lift of the tangent vector U N^H + M V^H at the point, via FFTs.

    N is (n2, k) and M (s*n1, k).  U's and V's spectra are read from the
    point, so only N and M are transformed (s*k + k forward transforms,
    M's one ``_row_groups`` group of signal rows at a time).  The reductions
    of the pairs (U, N) and (M, V) are summed on the (s, L) spectra and
    inverted once (s inverse transforms), so the point's spectra are neither
    copied nor stacked with N's and M's.
    """
    dims = point.dims
    conv = np.einsum("akl,kl->al", point.FU, _conj_spectra(N, dims))  # (s, L)
    for rows in _row_groups(dims, point.factors.rank):
        conv[rows] += np.einsum("akl,kl->al", _row_spectra(M, dims, rows), point.FV)
    np.fft.ifft(conv, axis=-1, out=conv)
    return conv[:, :dims.n]
