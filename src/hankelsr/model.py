"""Point-source signal model and the coded measurement operator.

The ground truth is an s-by-n matrix built from r point sources: each source
contributes an amplitude, a unit-norm coefficient vector in C^s and a location
tau in [0, 1) whose steering vector samples a complex exponential over n
points.  Measurements pair each signal column with its own sensing vector
(one scalar observation per column).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hankel import HankelDims, choose_dims
from .lowrank import crandn

_TAU_COLLISION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PointSourceModel:
    """Ground-truth parameters of an r-source signal.

    coeffs holds the unit-norm coefficient vectors as columns of an (s, r)
    matrix; taus are pairwise distinct so the lifted signal has rank exactly r.
    """

    s: int
    n: int
    r: int
    taus: np.ndarray
    amps: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        if self.s < 1 or self.n < 1 or self.r < 1:
            raise ValueError("dimensions must be positive")
        if self.taus.shape != (self.r,) or self.amps.shape != (self.r,):
            raise ValueError("taus and amps must have length r")
        if self.coeffs.shape != (self.s, self.r):
            raise ValueError(f"coeffs must have shape {(self.s, self.r)}")
        norms = np.linalg.norm(self.coeffs, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("coefficient vectors must have unit norm")
        if self.r > 1 and _min_pairwise_gap(self.taus) <= _TAU_COLLISION_TOL:
            raise ValueError("locations must be pairwise distinct")


def _min_pairwise_gap(taus: np.ndarray) -> float:
    t = np.sort(taus)
    return float(np.min(np.diff(t))) if len(t) > 1 else np.inf


def steering_matrix(taus, j: np.ndarray) -> np.ndarray:
    """exp(-2*pi*i*tau_k*j) for each j (rows) and tau_k (columns), the phase
    rounded as ((-2*pi*i)*tau_k)*j: the one formula of the model's exponentials,
    which the synthesizer and the fit of ``sources`` share."""
    phase = np.multiply.outer(j, (-2j * np.pi) * np.asarray(taus, dtype=float))
    return np.exp(phase, out=phase)


def steering_vector(tau: float, n: int) -> np.ndarray:
    """Complex exponential [1, e^{-2*pi*i*tau}, ..., e^{-2*pi*i*tau*(n-1)}].

    tau is taken modulo 1 if it falls outside [0, 1).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return steering_matrix(float(tau) % 1.0, np.arange(n))


def synth_model(s: int, n: int, r: int,
                rng: int | np.random.Generator) -> PointSourceModel:
    """Draw a random point-source model.

    Locations are i.i.d. uniform on [0, 1); amplitudes are (1 + 10**c) *
    exp(-i*psi) with c uniform on [0, 1) and psi uniform on [0, 2*pi);
    coefficient vectors are standard complex Gaussian draws normalized to unit
    norm.  Draw order is taus, c, psi, coefficients, so results are
    reproducible for a given seed.  A draw of colliding locations (probability
    about r**2 * 1e-12) is rejected by ``PointSourceModel``.
    """
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    if n < 2 * r:
        raise ValueError(f"need n >= 2r for a feasible rank-{r} split, got n={n}")
    rng = np.random.default_rng(rng)

    taus = rng.uniform(size=r)
    c = rng.uniform(size=r)
    psi = rng.uniform(0.0, 2.0 * np.pi, size=r)
    amps = (1.0 + 10.0 ** c) * np.exp(-1j * psi)

    H = crandn(rng, s, r)
    H = H / np.linalg.norm(H, axis=0, keepdims=True)
    return PointSourceModel(s=s, n=n, r=r, taus=taus, amps=amps, coeffs=H)


def build_signal(model: PointSourceModel) -> np.ndarray:
    """Assemble the s-by-n signal sum_k amps[k] * coeffs[:, k] * steering_k^T."""
    return (model.coeffs * model.amps[None, :]) @ steering_matrix(model.taus, np.arange(model.n)).T


def sample_subspace(s: int, n: int, rng: int | np.random.Generator,
                    complex_entries: bool = False) -> np.ndarray:
    """Draw the s-by-n sensing matrix with i.i.d. standard normal entries.

    With complex_entries=True the entries are standard complex Gaussian
    (isotropic with unit second moment) instead of real.
    """
    if s < 1 or n < 1:
        raise ValueError("need s >= 1 and n >= 1")
    rng = np.random.default_rng(rng)
    if complex_entries:
        return crandn(rng, s, n)
    return rng.standard_normal((s, n))


def measure(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Coded observations y[j] = b_j^H x_j, one per signal column."""
    X = np.asarray(X)
    B = np.asarray(B)
    if X.shape != B.shape or X.ndim != 2:
        raise ValueError(f"X and B must share shape (s, n); got {X.shape} vs {B.shape}")
    return np.einsum("ij,ij->j", B.conj(), X)


def adjoint_measure(y: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Adjoint of ``measure``: column j of the result is y[j] * b_j."""
    y = np.asarray(y)
    B = np.asarray(B)
    if y.shape != (B.shape[1],):
        raise ValueError(f"y must have length {B.shape[1]}, got {y.shape}")
    return B * y[None, :]


def synth_instance(n: int, s: int, r: int, seed: int, n1: int | None = None,
                   complex_subspace: bool = False):
    """Instance recipe shared by the commands and the checks: model, split,
    sensing matrix, data; ``solve``'s rank rule refuses r before any draw."""
    dims = choose_dims(n, s, n1)
    dims.check_rank(r)
    rng = np.random.default_rng(seed)
    mdl = synth_model(s, n, r, rng)
    B = sample_subspace(s, n, rng, complex_entries=complex_subspace)
    X_true = build_signal(mdl)
    y = measure(X_true, B)
    return mdl, dims, B, X_true, y


def hankel_factorization(model: PointSourceModel, dims: HankelDims | None = None) -> np.ndarray:
    """Structural factorization of the lifted signal.

    Builds Vandermonde factors with nodes exp(-2*pi*i*tau_k) on both sides and
    the coefficient matrix in between; equals lift(build_signal(model)) and is
    a rank-r product by construction, certifying the lifted signal's rank.
    """
    if dims is None:
        dims = choose_dims(model.n, model.s)
    if dims.n != model.n or dims.s != model.s:
        raise ValueError("dims inconsistent with the model")
    if model.r > min(dims.s * dims.n1, dims.n2):
        raise ValueError(f"rank {model.r} exceeds lifted shape {dims.lifted_shape}")
    EL = np.exp(-2j * np.pi * np.outer(np.arange(dims.n1), model.taus))  # (n1, r)
    ER = np.exp(-2j * np.pi * np.outer(np.arange(dims.n2), model.taus))  # (n2, r)
    KR = (EL[:, None, :] * model.coeffs[None, :, :]).reshape(dims.n1 * dims.s, model.r)
    return (KR * model.amps[None, :]) @ ER.T
