"""Self-contained invariant suite run by the ``check`` subcommand.

Each check builds its own small random instances, compares against an
independent oracle (brute-force enumeration, full SVD, the textbook solver
step with a dense tangent projection and a full SVD) and reports pass/fail
with a worst-case figure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hankel, lowrank, model, solver

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def brute_force_weights(n: int, n1: int) -> np.ndarray:
    """Count anti-diagonal index pairs directly: w_i = #{(j,k): j+k=i}."""
    n2 = n + 1 - n1
    w = np.zeros(n, dtype=int)
    for j in range(n1):
        for k in range(n2):
            w[j + k] += 1
    return w


def check_weights() -> CheckResult:
    worst = 0
    for n in range(2, 25):
        for n1 in range(1, n + 1):
            closed = hankel.weight_vector(n, n1, n + 1 - n1)
            worst = max(worst, int(np.max(np.abs(closed - brute_force_weights(n, n1)))))
    return CheckResult("weights_closed_form", worst == 0,
                       f"max deviation {worst} over n<=24, all splits")


def check_measure_adjoint() -> CheckResult:
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(25):
        s, n = int(rng.integers(1, 5)), int(rng.integers(4, 24))
        X = _crandn(rng, s, n)
        B = rng.standard_normal((s, n))
        y = _crandn(rng, n)
        lhs = np.vdot(model.measure(X, B), y)
        rhs = np.vdot(X, model.adjoint_measure(y, B))
        scale = np.linalg.norm(X) * np.linalg.norm(y) + 1e-300
        worst = max(worst, abs(lhs - rhs) / scale)
    return CheckResult("measurement_adjoint", worst < 1e-10, f"worst rel defect {worst:.2e}")


def check_lift_adjoint() -> CheckResult:
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(25):
        s, n = int(rng.integers(1, 5)), int(rng.integers(4, 24))
        dims = hankel.choose_dims(n, s)
        X = _crandn(rng, s, n)
        Z = _crandn(rng, *dims.lifted_shape)
        lhs = np.vdot(hankel.lift(X, dims), Z)
        rhs = np.vdot(X, hankel.adjoint_lift(Z, dims))
        scale = np.linalg.norm(X) * np.linalg.norm(Z) + 1e-300
        worst = max(worst, abs(lhs - rhs) / scale)
    return CheckResult("lift_adjoint", worst < 1e-10, f"worst rel defect {worst:.2e}")


def check_pinv_identity() -> CheckResult:
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(25):
        s, n = int(rng.integers(1, 5)), int(rng.integers(4, 24))
        dims = hankel.choose_dims(n, s)
        X = _crandn(rng, s, n)
        back = hankel.pinv_lift(hankel.lift(X, dims), dims)
        worst = max(worst, np.linalg.norm(back - X) / np.linalg.norm(X))
    return CheckResult("pinv_lift_identity", worst < 1e-13, f"worst rel error {worst:.2e}")


def check_isometric_identity() -> CheckResult:
    rng = np.random.default_rng(3)
    worst_id = worst_iso = 0.0
    for _ in range(25):
        s, n = int(rng.integers(1, 5)), int(rng.integers(4, 24))
        dims = hankel.choose_dims(n, s)
        X = _crandn(rng, s, n)
        Z = hankel.lift_isometric(X, dims)
        back = hankel.adjoint_lift_isometric(Z, dims)
        worst_id = max(worst_id, np.linalg.norm(back - X) / np.linalg.norm(X))
        worst_iso = max(worst_iso, abs(np.linalg.norm(Z) - np.linalg.norm(X)) / np.linalg.norm(X))
    ok = worst_id < 1e-13 and worst_iso < 1e-12
    return CheckResult("isometric_lift_identity", ok,
                       f"worst inverse {worst_id:.2e}, isometry defect {worst_iso:.2e}")


def check_eckart_young() -> CheckResult:
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        m, p = int(rng.integers(4, 12)), int(rng.integers(4, 12))
        r = int(rng.integers(1, min(m, p) + 1))
        W = _crandn(rng, m, p)
        f = lowrank.truncate_rank(W, r)
        resid = np.linalg.norm(W - f.reconstruct())
        svals = np.linalg.svd(W, compute_uv=False)
        tail = np.sqrt(np.sum(svals[r:] ** 2))
        worst = max(worst, abs(resid - tail) / max(svals[0], 1e-300))
    return CheckResult("eckart_young", worst < 1e-10, f"worst residual defect {worst:.2e}")


def check_tangent_projection() -> CheckResult:
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        m, p = int(rng.integers(5, 12)), int(rng.integers(5, 12))
        r = int(rng.integers(1, min(m, p) // 2 + 1))
        point = lowrank.truncate_rank(_crandn(rng, m, p), r)
        W1, W2 = _crandn(rng, m, p), _crandn(rng, m, p)
        P1 = lowrank.project_tangent(W1, point)
        idem = (np.linalg.norm(lowrank.project_tangent(P1, point) - P1)
                / max(np.linalg.norm(P1), 1e-300))
        lhs = np.vdot(P1, W2)
        rhs = np.vdot(W1, lowrank.project_tangent(W2, point))
        sa = abs(lhs - rhs) / (np.linalg.norm(W1) * np.linalg.norm(W2))
        worst = max(worst, idem, sa)
    return CheckResult("tangent_projection", worst < 1e-10,
                       f"worst idempotence/self-adjoint defect {worst:.2e}")


def check_fixed_point() -> CheckResult:
    m, dims, B, X_true, y = model.synth_instance(32, 2, 2, seed=6)
    truth = hankel.FactorSpectrum(lowrank.truncate_rank(hankel.lift(X_true, dims), m.r), dims)
    nxt = solver.iterate_once(solver.Iterate.at(X_true, truth, y, B), y, B,
                              solver.SolverConfig(rank=m.r))
    movement = solver.relative_error(nxt.X, X_true)
    return CheckResult("solver_fixed_point", movement < 1e-10,
                       f"one-step movement {movement:.2e}")


def reference_step(X: np.ndarray, y: np.ndarray, B: np.ndarray,
                   dims: hankel.HankelDims, config: solver.SolverConfig,
                   factors: lowrank.LowRankFactors,
                   ) -> tuple[np.ndarray, lowrank.LowRankFactors]:
    """The solver step as written: gradient step, lift, project, full SVD, de-lift.

    Shares no code with ``project_tangent_truncate`` or the FFT products and
    de-lift that every solver iteration runs.
    """
    Xt = X - config.step_size * model.adjoint_measure(model.measure(X, B) - y, B)
    W = lowrank.project_tangent(hankel.lift(Xt, dims), factors)
    new = lowrank.truncate_rank(W, config.rank)
    return hankel.pinv_lift(new.reconstruct(), dims), new


def check_fast_dense_equivalence() -> CheckResult:
    """The solver's iterates against the reference step, and its initialization
    against the exact one.

    The solver iteration and ``reference_step`` start from the exact
    initialization (the full SVD of the materialized lifted back-projection),
    so their gap is roundoff.  The solver's operator initialization is
    compared with the exact one on its own, to 1e-6: its block Krylov SVD
    stops on a residual certificate well inside that bound, and at this size
    before its basis spans the whole row space, so the gap is the
    certificate's, not roundoff (about 5e-8).
    """
    m, dims, B, X_true, y = model.synth_instance(48, 2, 2, seed=8)
    exact = hankel.FactorSpectrum(
        lowrank.truncate_rank(hankel.lift(model.adjoint_measure(y, B), dims), m.r), dims)
    it = solver.Iterate.at(hankel.pinv_lift_lowrank(exact), exact, y, B)
    cfg = solver.SolverConfig(rank=m.r)
    init_gap = solver.relative_error(solver._initialize_factors(y, B, dims, cfg).X, it.X)
    worst = 0.0
    X_ref, ref_factors = it.X, exact.factors
    for _ in range(12):
        it = solver.iterate_once(it, y, B, cfg)
        X_ref, ref_factors = reference_step(X_ref, y, B, dims, cfg, ref_factors)
        worst = max(worst, solver.relative_error(it.X, X_ref))
    return CheckResult("fast_dense_equivalence", worst < 1e-8 and init_gap < 1e-6,
                       f"worst per-iterate gap to the reference step {worst:.2e} "
                       f"from a shared start, operator vs exact initialization "
                       f"{init_gap:.2e}")


def run_all() -> list[CheckResult]:
    return [
        check_weights(),
        check_measure_adjoint(),
        check_lift_adjoint(),
        check_pinv_identity(),
        check_isometric_identity(),
        check_eckart_young(),
        check_tangent_projection(),
        check_fixed_point(),
        check_fast_dense_equivalence(),
    ]
