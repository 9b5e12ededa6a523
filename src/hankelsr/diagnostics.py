"""Measurable proxies for the recovery conditions.

These estimators quantify, on a concrete instance, the constants the solver's
convergence behavior depends on: boundedness of the sensing vectors (mu0),
spread of the lifted signal's singular subspaces over block rows and columns
(mu1), conditioning of the lifted signal (kappa), a power-iteration estimate
of how far the tangent-restricted measurement map is from an isometry, and
the spectral distance of the initialization from the lifted truth.  They are
advisory: the solver never gates on them.  The report obeys the solver's rank
rule (``HankelDims.check_rank``), so it rejects exactly the ranks ``solve``
rejects, and takes the subspace constants and the tangent space from the
rank-r truncation of the lifted truth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import hankel
from .hankel import HankelDims
from .lowrank import LowRankFactors, project_tangent, truncate_rank
from .model import PointSourceModel, adjoint_measure, build_signal, measure
from .solver import initialize


@dataclass(frozen=True)
class AssumptionReport:
    """Instance-level constants; all non-negative, kappa >= 1."""

    mu0: float
    mu1: float
    kappa: float
    sigma_r: float
    rip_norm_estimate: float
    init_spectral_distance: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def measure_mu0(B: np.ndarray) -> float:
    """Largest squared entry magnitude over all sensing vectors."""
    B = np.asarray(B)
    if B.size == 0:
        raise ValueError("B must be nonempty")
    return float(np.max(np.abs(B) ** 2))


def measure_mu1(factors: LowRankFactors, dims: HankelDims) -> float:
    """Incoherence of the lifted signal's singular subspaces.

    Scales the worst block-row energy of U (blocks of height s) and the worst
    row energy of V by n/r.
    """
    r = factors.rank
    if r == 0:
        raise ValueError("factors must have positive rank")
    Ub = factors.U.reshape(dims.n1, dims.s, r)
    u_max = float(np.max(np.sum(np.abs(Ub) ** 2, axis=(1, 2))))
    v_max = float(np.max(np.sum(np.abs(factors.V) ** 2, axis=1)))
    return dims.n / r * max(u_max, v_max)


def estimate_rip_norm(B: np.ndarray, dims: HankelDims, point: LowRankFactors,
                      iters: int = 100) -> float:
    """Operator norm of the tangent-restricted measurement-isometry defect.

    Power iteration, from a fixed seeded start, on the Hermitian map
    Z -> P_T (G (I - A*A) G*) P_T (Z), where T is the tangent space at
    ``point``, G the isometric lift and A*A the back-projected measurement
    map.  Values well below 1 indicate the measurements act nearly
    isometrically on the tangent space.
    """
    if iters < 1:
        raise ValueError(f"need iters >= 1, got {iters}")

    # Every power iterate is already in T (the seeded start and each apply
    # output are projected), so the map's leading P_T is the identity here.
    def apply(Z):
        Xg = hankel.adjoint_lift_isometric(Z, dims)
        diff = Xg - adjoint_measure(measure(Xg, B), B)
        return project_tangent(hankel.lift_isometric(diff, dims), point)

    rng = np.random.default_rng(7)
    m, p = dims.lifted_shape
    Z = (rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))) / np.sqrt(2.0)
    Z = project_tangent(Z, point)
    nz = np.linalg.norm(Z)
    if nz == 0:
        return 0.0
    Z /= nz
    est = 0.0
    for _ in range(iters):
        AZ = apply(Z)
        est = float(np.linalg.norm(AZ))
        if est < 1e-300:
            return 0.0
        Z = AZ / est
    return est


def spectral_distance(Z_a: np.ndarray, Z_b: np.ndarray) -> float:
    """Largest singular value of Z_a - Z_b."""
    Z_a = np.asarray(Z_a)
    Z_b = np.asarray(Z_b)
    if Z_a.shape != Z_b.shape:
        raise ValueError(f"shape mismatch: {Z_a.shape} vs {Z_b.shape}")
    return float(np.linalg.norm(Z_a - Z_b, 2))


def assumption_report(model: PointSourceModel, B: np.ndarray,
                      dims: HankelDims) -> AssumptionReport:
    """Aggregate all instance constants for a desk-scale ground-truth model.

    Rejects a rank the solver rejects, with ``solve``'s ``ValueError``.  Uses
    the dense rank-r truncation of the lifted signal for kappa, sigma_r, mu1
    and the tangent space of the isometry defect, and runs the initialization
    on the exact measurements to report its spectral distance from the
    lifted truth.
    """
    dims.check_rank(model.r)
    X_true = build_signal(model)
    Z_true = hankel.lift(X_true, dims)
    factors = truncate_rank(Z_true, model.r)
    if factors.rank < model.r:
        raise ValueError(f"lifted signal has numerical rank {factors.rank} < {model.r}")
    sigma_r = float(factors.sigma[-1])
    kappa = float(factors.sigma[0] / sigma_r)
    mu1 = measure_mu1(factors, dims)
    rip = estimate_rip_norm(B, dims, factors)
    X0 = initialize(measure(X_true, B), B, dims, model.r)
    dist = spectral_distance(hankel.lift(X0, dims), Z_true)
    return AssumptionReport(mu0=measure_mu0(B), mu1=mu1, kappa=kappa,
                            sigma_r=sigma_r, rip_norm_estimate=rip,
                            init_spectral_distance=dist)
