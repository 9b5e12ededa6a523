"""Measurable proxies for the recovery conditions.

These estimators quantify, on a concrete instance, the constants the solver's
convergence behavior depends on: boundedness of the sensing vectors (mu0),
spread of the lifted signal's singular subspaces over block rows and columns
(mu1), conditioning of the lifted signal (kappa), a Lanczos estimate of how
far the tangent-restricted measurement map is from an isometry, and the
spectral distance of the initialization from the lifted truth.  They are
advisory: the solver never gates on them.  The report obeys the solver's rank
rule (``HankelDims.check_rank``), so it rejects exactly the ranks ``solve``
rejects.  Like a solver iteration, it touches the lift only through FFT
products, FFT de-lifts and ``hankel.truncate_lift``, the certified operator
SVD of a lift, which gives the point of the lifted truth (a
``hankel.FactorSpectrum``), the spectral distance and, through
``solver.initialize``, the initialization; it forms no lifted matrix and
takes no dense SVD, so it runs at any n that ``solve`` does.  ``measure_mu1``
and the isometry estimate read that point, so each application of the
estimate's map transforms only its own signal and tangent vector.  Both
iterative estimates stop on a residual certificate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import hankel, lowrank
from .hankel import FactorSpectrum, HankelDims
from .model import PointSourceModel, adjoint_measure, build_signal, measure
from .solver import initialize

# The Lanczos of ``estimate_rip_norm`` stops once the residual bound of its
# extreme Ritz value is at most _LANCZOS_TOL times that value, whose own
# error is then of order the squared residual over the spectral gap, or after
# _MAX_APPLICATIONS applications of its map.
_LANCZOS_TOL = 1e-10
_MAX_APPLICATIONS = 100
_RANK_TOL = 1e-15  # sigma_r <= _RANK_TOL sigma_1 leaves kappa undefined


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


def measure_mu1(point: FactorSpectrum) -> float:
    """Incoherence of the singular subspaces of a rank-r point of the lift.

    Scales the worst block-row energy of U (blocks of height s) and the worst
    row energy of V by n/r.
    """
    factors, dims, r = point.factors, point.dims, point.factors.rank
    Ub = factors.U.reshape(dims.n1, dims.s, r)
    u_max = float(np.max(np.sum(np.abs(Ub) ** 2, axis=(1, 2))))
    v_max = float(np.max(np.sum(np.abs(factors.V) ** 2, axis=1)))
    return dims.n / r * max(u_max, v_max)


def estimate_rip_norm(B: np.ndarray, point: FactorSpectrum) -> float:
    """Operator norm of the tangent-restricted measurement-isometry defect.

    Lanczos on the Hermitian map Z -> P_T (G (I - A*A) G*) P_T (Z), where T
    is the tangent space at ``point``, G the isometric lift and A*A the
    back-projected measurement map, from P_T G x0 for a seeded complex
    Gaussian signal x0.  Tangent vectors are kept as U N^H + M V^H with
    U^H M = 0, so <Z, Z'> = <N', N> + <M, M'>.  Applying the map takes two
    FFT products and the FFT de-lift ``hankel.adjoint_lift_tangent``, which
    all read U's and V's spectra from the ``hankel.FactorSpectrum`` point,
    taken once per point, so they transform only the signal, N and M.  The
    three-term recurrence holds three tangent vectors and no basis.  It
    stops once the residual bound beta |s_last| of the Ritz value of largest
    magnitude is at most _LANCZOS_TOL times that value, or after
    _MAX_APPLICATIONS applications, and returns that Ritz value's magnitude.
    Values well below 1 indicate the measurements act nearly isometrically
    on T.
    """
    dims, U = point.dims, point.factors.U
    w_isqrt = dims.weights ** -0.5

    def project_lift(X):
        """N and M of P_T G(X) = U N^H + M V^H."""
        lifted = hankel.SignalSpectrum(w_isqrt * X, dims)
        C = hankel.lift_matvec(lifted, point)
        return hankel.lift_rmatvec(lifted, point), C - U @ lowrank._hermitian(U, C)

    def apply(N, M):
        Xg = w_isqrt * hankel.adjoint_lift_tangent(point, N, M)
        return project_lift(Xg - adjoint_measure(measure(Xg, B), B))

    rng = np.random.default_rng(7)
    shape = (dims.s, dims.n)
    x0 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    N, M = project_lift(x0)
    beta = float(np.hypot(np.linalg.norm(N), np.linalg.norm(M)))
    N_prev = M_prev = 0.0
    alphas, betas = [], []
    for _ in range(_MAX_APPLICATIONS):
        N, M = N / beta, M / beta
        N_w, M_w = apply(N, M)
        alpha = float(np.real(np.vdot(N, N_w) + np.vdot(M, M_w)))
        N_w -= alpha * N + beta * N_prev
        M_w -= alpha * M + beta * M_prev
        alphas.append(alpha)
        theta, S = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        top = int(np.argmax(np.abs(theta)))
        beta = float(np.hypot(np.linalg.norm(N_w), np.linalg.norm(M_w)))
        if beta * abs(S[-1, top]) <= _LANCZOS_TOL * abs(theta[top]):
            break
        betas.append(beta)
        N_prev, M_prev, N, M = N, M, N_w, M_w
    return float(abs(theta[top]))


def spectral_distance(X_a: np.ndarray, X_b: np.ndarray, dims: HankelDims) -> float:
    """Largest singular value of lift(X_a - X_b), by a rank-1 operator SVD on FFT products."""
    X_a = np.asarray(X_a)
    X_b = np.asarray(X_b)
    if X_a.shape != X_b.shape:
        raise ValueError(f"shape mismatch: {X_a.shape} vs {X_b.shape}")
    return float(hankel.truncate_lift(X_a - X_b, dims, 1).factors.sigma[0])


def assumption_report(model: PointSourceModel, B: np.ndarray,
                      dims: HankelDims) -> AssumptionReport:
    """Aggregate all instance constants for a desk-scale ground-truth model.

    Rejects a rank the solver rejects, with ``solve``'s ``ValueError``, and a
    lifted signal of numerical rank below r (sigma_r <= _RANK_TOL sigma_1),
    whose kappa is undefined, with a ``ValueError`` of its own.  Reads kappa,
    sigma_r, mu1 and the isometry defect's tangent space from the point of
    the lifted signal (exact rank r), the operator SVD certified to 1.2e-6,
    and runs ``solver.initialize`` (the start ``solve`` uses, certified only
    to ``solver._INIT_CERTIFICATE_TOL``) on the exact measurements to report
    its spectral distance from the lifted truth.
    """
    dims.check_rank(model.r)
    X_true = build_signal(model)
    truth = hankel.truncate_lift(X_true, dims, model.r)
    sigma = truth.factors.sigma
    sigma_r = float(sigma[-1])
    if sigma_r <= _RANK_TOL * sigma[0]:
        raise ValueError(f"lifted signal has numerical rank below {model.r}")
    X0 = initialize(measure(X_true, B), B, dims, model.r)
    return AssumptionReport(mu0=measure_mu0(B), mu1=measure_mu1(truth),
                            kappa=float(sigma[0] / sigma_r), sigma_r=sigma_r,
                            rip_norm_estimate=estimate_rip_norm(B, truth),
                            init_spectral_distance=spectral_distance(X0, X_true, dims))
