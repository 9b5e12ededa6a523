"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single summary line (visible with ``pytest -s``); the
pass/fail status is the pytest outcome itself.  Run with::

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hankelsr.checks import brute_force_weights, reference_step
from hankelsr.cli import seed_derivation
from hankelsr.diagnostics import estimate_rip_norm, spectral_distance
from hankelsr.hankel import (FactorSpectrum, adjoint_lift, adjoint_lift_isometric,
                             choose_dims, lift, lift_isometric, pinv_lift,
                             weight_vector)
from hankelsr.lowrank import crandn, project_tangent, truncate_rank
from hankelsr.model import (adjoint_measure, build_signal, hankel_factorization,
                            measure, synth_instance, synth_model)
from hankelsr.solver import Iterate, SolverConfig, fiht, initialize, iterate_once, solve
from hankelsr.solver import _initialize_factors


def test_criterion_1_operator_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = {"adj_A": 0.0, "adj_H": 0.0, "pinv": 0.0, "iso": 0.0}
    for s, n in [(1, 8), (2, 16), (4, 32)]:
        dims = choose_dims(n, s)
        for _ in range(100):
            X = crandn(rng, s, n)
            B = rng.standard_normal((s, n))
            y = crandn(rng, n)
            Z = crandn(rng, *dims.lifted_shape)
            lhs = np.vdot(measure(X, B), y)
            rhs = np.vdot(X, adjoint_measure(y, B))
            worst["adj_A"] = max(worst["adj_A"], abs(lhs - rhs)
                                 / (np.linalg.norm(X) * np.linalg.norm(y)))
            lhs = np.vdot(lift(X, dims), Z)
            rhs = np.vdot(X, adjoint_lift(Z, dims))
            worst["adj_H"] = max(worst["adj_H"], abs(lhs - rhs)
                                 / (np.linalg.norm(X) * np.linalg.norm(Z)))
            worst["pinv"] = max(worst["pinv"],
                                np.linalg.norm(pinv_lift(lift(X, dims), dims) - X)
                                / np.linalg.norm(X))
            back = adjoint_lift_isometric(lift_isometric(X, dims), dims)
            worst["iso"] = max(worst["iso"],
                               np.linalg.norm(back - X) / np.linalg.norm(X))
    assert worst["adj_A"] < 1e-10
    assert worst["adj_H"] < 1e-10
    assert worst["pinv"] < 1e-13
    assert worst["iso"] < 1e-13

    for n in range(2, 65):
        for n1 in range(1, n + 1):
            np.testing.assert_array_equal(weight_vector(n, n1, n + 1 - n1),
                                          brute_force_weights(n, n1))

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS operator identities: worst defects {worst},"
          f" weights exact for n<=64, {elapsed:.1f}s")


def test_criterion_2_rank_certificate():
    rng = np.random.default_rng(202)
    worst_ratio = 0.0
    worst_fact = 0.0
    for trial in range(50):
        s = int(rng.choice([1, 2, 4]))
        r = int(rng.integers(1, 6))
        mdl = synth_model(s, 64, r, rng)
        dims = choose_dims(64, s)
        Z = lift(build_signal(mdl), dims)
        svals = np.linalg.svd(Z, compute_uv=False)
        worst_ratio = max(worst_ratio, svals[r] / svals[0])
        F = hankel_factorization(mdl, dims)
        worst_fact = max(worst_fact, np.max(np.abs(F - Z)) / np.max(np.abs(Z)))
    assert worst_ratio < 1e-8
    assert worst_fact < 1e-12
    print(f"\n[criterion 2] PASS rank certificate: worst sigma_(r+1)/sigma_1 "
          f"{worst_ratio:.2e}, worst factorization gap {worst_fact:.2e}")


def test_criterion_3_truncation_and_tangent_properties():
    rng = np.random.default_rng(303)
    worst_ey = worst_idem = worst_sa = 0.0
    for _ in range(100):
        m, p = int(rng.integers(5, 14)), int(rng.integers(5, 14))
        r = int(rng.integers(1, min(m, p) // 2 + 1))
        W = crandn(rng, m, p)
        f = truncate_rank(W, r)
        svals = np.linalg.svd(W, compute_uv=False)
        resid = np.linalg.norm(W - f.reconstruct())
        tail = np.sqrt(np.sum(svals[r:] ** 2))
        worst_ey = max(worst_ey, abs(resid - tail) / svals[0])

        T = truncate_rank(crandn(rng, m, p), r)
        W1, W2 = crandn(rng, m, p), crandn(rng, m, p)
        P1 = project_tangent(W1, T)
        worst_idem = max(worst_idem,
                         np.linalg.norm(project_tangent(P1, T) - P1)
                         / max(np.linalg.norm(P1), 1e-300))
        lhs = np.vdot(P1, W2)
        rhs = np.vdot(W1, project_tangent(W2, T))
        worst_sa = max(worst_sa, abs(lhs - rhs)
                       / (np.linalg.norm(W1) * np.linalg.norm(W2)))
    assert worst_ey < 1e-10
    assert worst_idem < 1e-10
    assert worst_sa < 1e-10
    print(f"\n[criterion 3] PASS truncation/tangent: eckart-young {worst_ey:.2e}, "
          f"idempotence {worst_idem:.2e}, self-adjointness {worst_sa:.2e}")


def _geometric_phase_r2(errs):
    """Linear fit of log10(err) on the geometric phase of a converged trace.

    The phase starts once the error has dropped an order of magnitude below
    its initial value (past the transient) and ends an order of magnitude
    above the floor.
    """
    errs = np.asarray(errs)
    floor = max(10.0 * errs.min(), 1e-11)
    start_candidates = np.nonzero(errs <= errs[0] / 10.0)[0]
    start = int(start_candidates[0]) if len(start_candidates) else 5
    end_candidates = np.nonzero(errs <= floor)[0]
    end = int(end_candidates[0]) if len(end_candidates) else len(errs)
    window = errs[start:end]
    if len(window) < 6:
        window = errs[5:end]
    le = np.log10(window)
    t = np.arange(len(le), dtype=float)
    A = np.vstack([t, np.ones_like(t)]).T
    coef, res, *_ = np.linalg.lstsq(A, le, rcond=None)
    ss_tot = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 - float(res[0]) / ss_tot if len(res) and ss_tot > 0 else 1.0
    return r2, float(coef[0])


def test_criterion_4_fixed_point_and_linear_convergence():
    start = time.perf_counter()
    # (a) the exact solution moves less than 1e-10 in one iteration
    _, dims, B, X_true, y = synth_instance(256, 4, 5, seed_derivation(1, 0))
    truth = FactorSpectrum(truncate_rank(lift(X_true, dims), 5), dims)
    X_next = iterate_once(Iterate.at(truth, y, B), y, B,
                          SolverConfig(rank=5, step_size=0.5)).X
    move = np.linalg.norm(X_next - X_true) / np.linalg.norm(X_true)
    assert move < 1e-10, f"fixed point moved {move:.2e} in one iteration"

    # (b) and (c): 20 seeded trials at the experiment scale
    successes = 0
    ratio_medians = []
    r2_values = []
    slopes = []
    for trial in range(20):
        _, dims, B, X_true, y = synth_instance(256, 4, 5, seed_derivation(1, trial))
        cfg = SolverConfig(rank=5, max_iters=200, step_size=0.5)
        _, trace = fiht(y, B, dims, cfg, ground_truth=X_true)
        errs = trace.rel_errors
        if not np.any(errs < 1e-6):
            continue
        successes += 1
        hi = min(40, len(errs) - 1)
        window = errs[5:hi + 1]
        window = window[window > 1e-13]
        ratio_medians.append(np.median(window[1:] / window[:-1]))
        r2, slope = _geometric_phase_r2(errs)
        r2_values.append(r2)
        slopes.append(slope)
    elapsed = time.perf_counter() - start
    assert successes >= 18, f"only {successes}/20 trials reached 1e-6"
    assert np.median(ratio_medians) < 0.95
    assert min(r2_values) > 0.98
    assert max(slopes) < 0.0
    assert elapsed < 300.0
    print(f"\n[criterion 4] PASS linear convergence: {successes}/20 trials, "
          f"median ratio {np.median(ratio_medians):.3f}, min R^2 "
          f"{min(r2_values):.4f}, median slope {np.median(slopes):.3f} "
          f"decades/iter, {elapsed:.0f}s")


def test_criterion_5_fast_path_equivalence_and_speed():
    # per-iterate agreement with the textbook step (dense projection, full
    # SVD, dense de-lift) on 10 instances, each carrying its own iterate
    worst = 0.0
    for trial in range(10):
        _, dims, B, X_true, y = synth_instance(256, 4, 5, seed_derivation(55, trial))
        cfg = SolverConfig(rank=5, step_size=0.5)
        it = _initialize_factors(y, B, dims, cfg)
        X_ref, f_ref = it.X, it.point.factors
        for t in range(12):
            it = iterate_once(it, y, B, cfg)
            X_ref, f_ref = reference_step(X_ref, y, B, dims, cfg, f_ref)
            worst = max(worst, np.linalg.norm(it.X - X_ref) / np.linalg.norm(X_ref))
    assert worst < 1e-8, f"fast step diverged from the reference step by {worst:.2e}"

    # coarse per-iteration cost comparison at a larger size
    _, dims, B, X_true, y = synth_instance(1024, 2, 3, seed_derivation(56, 0))
    cfg = SolverConfig(rank=3, step_size=0.5)
    it0 = _initialize_factors(y, B, dims, cfg)
    per_iter = {}
    # Each step maps its carried state to the next: the reference step an
    # (X, factors) pair, the solver step an Iterate.
    for name, step, start, iters in (
            ("reference", lambda st: reference_step(st[0], y, B, dims, cfg, st[1]),
             (it0.X, it0.point.factors), 3),
            ("fast", lambda it: iterate_once(it, y, B, cfg), it0, 30)):
        state = step(start)  # warm-up
        t0 = time.perf_counter()
        for _ in range(iters):
            state = step(state)
        per_iter[name] = (time.perf_counter() - t0) / iters
    speedup = per_iter["reference"] / per_iter["fast"]
    assert speedup >= 5.0, f"fast step only {speedup:.1f}x faster"
    print(f"\n[criterion 5] PASS fast path: worst per-iterate gap to the reference "
          f"step {worst:.2e}, speedup {speedup:.0f}x (reference "
          f"{per_iter['reference']*1e3:.0f} ms/iter, fast {per_iter['fast']*1e3:.1f} ms/iter)")


def test_criterion_6_initialization_quality_trend():
    medians = []
    for n in (64, 128, 256, 512):
        vals = []
        for trial in range(20):
            _, dims, B, X_true, y = synth_instance(n, 2, 2, seed_derivation(6, trial))
            Z_true = lift(X_true, dims)
            sigma_r = np.linalg.svd(Z_true, compute_uv=False)[1]
            X0 = initialize(y, B, dims, 2)
            vals.append(spectral_distance(X0, X_true, dims) / sigma_r)
        medians.append(float(np.median(vals)))
    assert all(b <= a for a, b in zip(medians, medians[1:])), medians
    print(f"\n[criterion 6] PASS initialization trend: medians "
          f"{[f'{v:.3f}' for v in medians]} over n in (64, 128, 256, 512)")


def test_criterion_7_tangent_restricted_isometry_trend():
    medians = {}
    below_one = {}
    for n in (128, 512):
        vals = []
        for trial in range(20):
            _, dims, B, X_true, y = synth_instance(n, 2, 2, seed_derivation(7, trial))
            truth = FactorSpectrum(truncate_rank(lift(X_true, dims), 2), dims)
            vals.append(estimate_rip_norm(B, truth))
        vals = np.array(vals)
        medians[n] = float(np.median(vals))
        below_one[n] = float(np.mean(vals < 1.0))
    assert below_one[512] >= 0.9
    assert medians[512] < medians[128]
    print(f"\n[criterion 7] PASS restricted isometry: {below_one[512]:.0%} of "
          f"trials below 1 at n=512; medians {medians[128]:.3f} (n=128) -> "
          f"{medians[512]:.3f} (n=512)")


def test_criterion_8_determinism_and_check_suite(tmp_path):
    # The child processes import the package from src/, as pytest does.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-m", "hankelsr.cli", "run", "--n", "64", "--s", "2",
            "--r", "2", "--seed", "9", "--max-iters", "80"]
    for name in ("a.csv", "b.csv"):
        proc = subprocess.run(args + ["--out", str(tmp_path / name)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hankelsr.cli", "check"],
                          capture_output=True, text=True, env=env)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[FAIL]" not in proc.stdout
    assert elapsed < 60.0
    print(f"\n[criterion 8] PASS determinism: byte-identical traces; "
          f"check suite green in {elapsed:.1f}s")
