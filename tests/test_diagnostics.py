"""Instance-constant estimator tests against exhaustive-scan oracles."""

import dataclasses
import math
import sys
import time

import numpy as np
import pytest

from hankelsr import hankel
from hankelsr.cli import seed_derivation
from hankelsr.diagnostics import (assumption_report, estimate_rip_norm,
                                  measure_mu0, measure_mu1, spectral_distance)
from hankelsr.hankel import (FactorSpectrum, SignalSpectrum, adjoint_lift_isometric,
                             choose_dims, lift, lift_isometric, lift_matvec,
                             lift_rmatvec)
from hankelsr.lowrank import (LowRankFactors, crandn, project_tangent,
                              truncate_rank, truncate_rank_operator)
from hankelsr.model import (PointSourceModel, adjoint_measure, build_signal,
                            measure, sample_subspace, synth_instance, synth_model)
from hankelsr.solver import SolverConfig, initialize, solve


def dense_rip_norm(B, dims, f):
    """Exact norm of P_T G (I - A*A) G* P_T, written out with both projections
    and the dense isometric lifts: the largest |eigvalsh| of its matrix in the
    orthonormal tangent basis u_a e_j^T, w_i v_a^H (u_a, v_a the columns of
    U, V and w_i those of an orthonormal complement of U)."""
    def apply(Z):
        Xg = adjoint_lift_isometric(project_tangent(Z, f), dims)
        diff = Xg - adjoint_measure(measure(Xg, B), B)
        return project_tangent(lift_isometric(diff, dims), f)

    (m, p), k = f.shape, f.rank
    W = np.linalg.svd(f.U)[0][:, k:]
    basis = [np.outer(f.U[:, a], np.eye(p)[j]) for a in range(k) for j in range(p)]
    basis += [np.outer(W[:, i], f.V[:, a].conj()) for a in range(k) for i in range(m - k)]
    Z = np.array(basis).reshape(len(basis), -1)
    HZ = np.array([apply(z) for z in basis]).reshape(len(basis), -1)
    return float(np.max(np.abs(np.linalg.eigvalsh(Z.conj() @ HZ.T))))


class TestMu0:
    def test_unit_entries(self):
        assert measure_mu0(np.ones((2, 3))) == 1.0

    def test_scaling(self):
        assert measure_mu0(2.0 * np.ones((2, 3))) == 4.0

    def test_matches_elementwise_scan(self):
        B = sample_subspace(2, 256, 0)
        scan = max(abs(B[i, j]) ** 2 for i in range(2) for j in range(256))
        assert measure_mu0(B) == scan

    def test_empty(self):
        with pytest.raises(ValueError):
            measure_mu0(np.zeros((0, 0)))


class TestMu1:
    def test_hand_enumeration_constant_signal(self):
        # single source at location zero: lifted matrix is constant, so the
        # singular vectors are flat and the column side dominates
        mdl = PointSourceModel(s=1, n=4, r=1, taus=np.array([0.0]),
                               amps=np.array([2.0 + 0j]),
                               coeffs=np.array([[1.0 + 0j]]))
        dims = choose_dims(4, 1)
        f = truncate_rank(lift(build_signal(mdl), dims), 1)
        assert abs(measure_mu1(FactorSpectrum(f, dims)) - 2.0) < 1e-12

    def test_amplitude_scale_invariance(self):
        base = synth_model(2, 24, 2, 3)
        scaled = PointSourceModel(s=2, n=24, r=2, taus=base.taus,
                                  amps=10.0 * base.amps, coeffs=base.coeffs)
        dims = choose_dims(24, 2)
        f1 = truncate_rank(lift(build_signal(base), dims), 2)
        f2 = truncate_rank(lift(build_signal(scaled), dims), 2)
        assert abs(measure_mu1(FactorSpectrum(f1, dims))
                   - measure_mu1(FactorSpectrum(f2, dims))) < 1e-10

    def test_matches_exhaustive_scan(self):
        mdl = synth_model(2, 64, 3, 8)
        dims = choose_dims(64, 2)
        f = truncate_rank(lift(build_signal(mdl), dims), 3)
        u_best = max(np.sum(np.abs(f.U[i * 2:(i + 1) * 2, :]) ** 2)
                     for i in range(dims.n1))
        v_best = max(np.sum(np.abs(f.V[j, :]) ** 2) for j in range(dims.n2))
        want = 64 / 3 * max(u_best, v_best)
        assert abs(measure_mu1(FactorSpectrum(f, dims)) - want) < 1e-12


class TestRipNorm:
    def _tangent(self, n, s, r, seed):
        mdl = synth_model(s, n, r, seed)
        dims = choose_dims(n, s)
        f = truncate_rank(lift(build_signal(mdl), dims), r)
        B = sample_subspace(s, n, seed + 1)
        return B, dims, f

    def test_unit_scalar_sensing_gives_zero(self):
        # s = 1 with all-ones sensing vectors re-measures each column exactly
        mdl = synth_model(1, 32, 2, 1)
        dims = choose_dims(32, 1)
        f = truncate_rank(lift(build_signal(mdl), dims), 2)
        B = np.ones((1, 32))
        est = estimate_rip_norm(B, FactorSpectrum(f, dims))
        assert est <= 1e-8

    def test_matches_two_projection_reference(self):
        B, dims, f = self._tangent(48, 2, 2, 3)
        ref = dense_rip_norm(B, dims, f)
        est = estimate_rip_norm(B, FactorSpectrum(f, dims))
        assert abs(est - ref) <= 1e-12 * ref

    def test_unit_phase_invariance(self):
        B, dims, f = self._tangent(48, 2, 2, 3)
        est1 = estimate_rip_norm(B, FactorSpectrum(f, dims))
        phases = np.exp(1j * np.array([0.4, -1.3]))
        f2 = LowRankFactors(U=f.U * phases[None, :], sigma=f.sigma,
                            V=f.V * phases[None, :])
        est2 = estimate_rip_norm(B, FactorSpectrum(f2, dims))
        assert abs(est1 - est2) < 1e-10

    def test_certifies_within_sixty_applications(self, monkeypatch):
        # criterion 7's n=512 instances: the Lanczos certificate holds long
        # before the cap of 100, where the power iteration it replaced ran
        # all 100; each application de-lifts one tangent vector
        calls = []
        original = hankel.adjoint_lift_tangent

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(hankel, "adjoint_lift_tangent", counted)
        for trial in range(20):
            _, dims, B, X_true, _ = synth_instance(512, 2, 2, seed_derivation(7, trial))
            calls.clear()
            estimate_rip_norm(B, FactorSpectrum(truncate_rank(lift(X_true, dims), 2), dims))
            assert len(calls) <= 60, f"trial {trial}: {len(calls)} applications"

    def test_reasonable_magnitude(self):
        B, dims, f = self._tangent(256, 2, 2, 4)
        est = estimate_rip_norm(B, FactorSpectrum(f, dims))
        assert 0.0 < est < 2.0


class TestSpectralDistance:
    def test_identical_matrices(self):
        X = crandn(np.random.default_rng(4), 2, 12)
        assert spectral_distance(X, X, choose_dims(12, 2)) == 0.0

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(5)
        for n, s, n1 in [(40, 2, None), (33, 3, 5), (16, 1, 16)]:
            dims = choose_dims(n, s, n1)
            X_a, X_b = crandn(rng, s, n), crandn(rng, s, n)
            want = np.linalg.norm(lift(X_a, dims) - lift(X_b, dims), 2)
            got = spectral_distance(X_a, X_b, dims)
            assert abs(got - want) <= 1e-8 * want

    def test_rank_one_difference(self):
        # a single exponential c z^j lifts to the rank-one (z^i c)(z^j), whose
        # norm is |c| sqrt(n1 n2) for |z| = 1
        rng = np.random.default_rng(6)
        dims = choose_dims(21, 3)
        c = crandn(rng, 3)
        X = np.outer(c, np.exp(2j * np.pi * 0.3 * np.arange(21)))
        got = spectral_distance(X, np.zeros_like(X), dims)
        want = np.linalg.norm(c) * np.sqrt(dims.n1 * dims.n2)
        assert abs(got - want) <= 1e-10 * want

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spectral_distance(np.zeros((2, 8)), np.zeros((2, 9)), choose_dims(8, 2))

    @pytest.mark.parametrize("e", [700, -700])
    def test_power_of_two_scale_is_exact(self, e):
        # At 2**700 the Krylov products of the lift overflow and at 2**-700
        # they underflow; truncate_lift takes them at unit scale.
        _, dims, _, X, _ = synth_instance(64, 2, 2, 3)
        Z = np.zeros_like(X)
        want = math.ldexp(spectral_distance(X, Z, dims), e)
        assert spectral_distance(X * 2.0 ** e, Z, dims) == want

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e306, 1e307])
    def test_distance_past_the_float_range(self, scale):
        # the distance itself exceeds the largest float
        _, dims, _, X, _ = synth_instance(64, 2, 2, 3)
        with pytest.raises(ValueError, match="^the norm of the lift overflows$"):
            spectral_distance(X * scale, np.zeros_like(X), dims)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_signal_rejected(self, bad):
        X = crandn(np.random.default_rng(7), 2, 12)
        Y = X.copy()
        Y[1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            spectral_distance(Y, X, choose_dims(12, 2))


class TestAssumptionReport:
    def test_single_source_condition_number_one(self):
        mdl = synth_model(2, 32, 1, 7)
        dims = choose_dims(32, 2)
        B = sample_subspace(2, 32, 8)
        rep = assumption_report(mdl, B, dims)
        assert abs(rep.kappa - 1.0) < 1e-10
        assert rep.mu0 > 0 and rep.mu1 > 0 and rep.sigma_r > 0

    def test_amplitude_homogeneity(self):
        base = synth_model(2, 32, 2, 9)
        scaled = PointSourceModel(s=2, n=32, r=2, taus=base.taus,
                                  amps=10.0 * base.amps, coeffs=base.coeffs)
        dims = choose_dims(32, 2)
        B = sample_subspace(2, 32, 10)
        rep1 = assumption_report(base, B, dims)
        rep2 = assumption_report(scaled, B, dims)
        assert abs(rep2.sigma_r - 10.0 * rep1.sigma_r) < 1e-10 * rep2.sigma_r
        assert abs(rep2.kappa - rep1.kappa) < 1e-10 * rep1.kappa

    def test_power_of_two_amplitudes_scale_exactly(self):
        # Every field but sigma_r and the initialization distance is
        # scale-free, and those two scale by 2**600 exactly.
        mdl, dims, B, _, _ = synth_instance(64, 2, 2, 3)
        base = assumption_report(mdl, B, dims).as_dict()
        scaled = assumption_report(dataclasses.replace(mdl, amps=mdl.amps * 2.0 ** 600),
                                   B, dims).as_dict()
        for key, value in base.items():
            homogeneous = key in ("sigma_r", "init_spectral_distance")
            assert scaled[key] == (math.ldexp(value, 600) if homogeneous else value), key

    def test_huge_amplitudes(self):
        mdl, dims, B, _, _ = synth_instance(64, 2, 2, 3)
        base = assumption_report(mdl, B, dims).as_dict()
        scaled = assumption_report(dataclasses.replace(mdl, amps=mdl.amps * 1e200),
                                   B, dims).as_dict()
        for key, value in base.items():
            want = 1e200 * value if key in ("sigma_r", "init_spectral_distance") else value
            assert abs(scaled[key] - want) <= 1e-12 * want, key

    @pytest.mark.parametrize("n, s, n1", [(10, 4, None), (8, 1, 1)])
    def test_infeasible_rank_rejected_as_in_solve(self, n, s, n1):
        # lifted shapes (20, 6) and (1, 8): rank 4 would need 8 columns and 8 rows
        dims = choose_dims(n, s, n1)
        mdl = synth_model(s, n, 4, 13)
        B = sample_subspace(s, n, 14)
        with pytest.raises(ValueError) as reported:
            assumption_report(mdl, B, dims)
        with pytest.raises(ValueError) as solved:
            solve(measure(build_signal(mdl), B), B, dims, SolverConfig(rank=4))
        assert str(reported.value) == str(solved.value)
        assert str(reported.value).startswith("rank 4 infeasible")

    def test_rank_deficient_truth_rejected(self):
        # sources of zero amplitude lift to the zero matrix: no sigma_r, no kappa
        base = synth_model(2, 32, 2, 9)
        mdl = PointSourceModel(s=2, n=32, r=2, taus=base.taus,
                               amps=np.zeros(2, dtype=complex), coeffs=base.coeffs)
        with pytest.raises(ValueError, match="numerical rank below 2"):
            assumption_report(mdl, sample_subspace(2, 32, 15), choose_dims(32, 2))

    @pytest.mark.parametrize("n, s, r, n1", [(64, 1, 2, None), (7, 1, 2, None),
                                             (32, 4, 2, 1), (32, 4, 2, 29)])
    def test_edge_shapes_match_dense_oracles(self, n, s, r, n1):
        # s = 1, the smallest feasible n for s = 1 and r = 2 (lift (4, 4)),
        # and the extreme splits n1 = 1 (lift (4, 32)) and n1 = n - 3
        # (lift (116, 4))
        for trial in range(3):
            mdl, dims, B, X_true, y = synth_instance(n, s, r, seed_derivation(11, trial), n1=n1)
            rep = assumption_report(mdl, B, dims)
            assert np.isfinite(list(rep.as_dict().values())).all()
            assert rep.kappa >= 1.0
            f = truncate_rank(lift(X_true, dims), r)
            X0 = initialize(y, B, dims, r)
            want = {"mu0": measure_mu0(B), "mu1": measure_mu1(FactorSpectrum(f, dims)),
                    "kappa": f.sigma[0] / f.sigma[-1], "sigma_r": f.sigma[-1],
                    "init_spectral_distance": np.linalg.norm(lift(X0, dims) - lift(X_true, dims), 2),
                    "rip_norm_estimate": dense_rip_norm(B, dims, f)}
            for key, value in want.items():
                assert abs(getattr(rep, key) - value) <= 1e-10 * value, key

    def test_constants_read_from_the_truth_point(self):
        # The report's mu1 and isometry estimate read the point truncate_lift
        # returns; they equal, bit for bit, the estimators on a fresh point
        # wrapping the bare factors of the same operator SVD.
        for n, s, r, seed in [(48, 2, 2, 0), (64, 1, 2, 1), (96, 4, 3, 2)]:
            mdl, dims, B, X_true, _ = synth_instance(n, s, r, seed_derivation(5, seed))
            rep = assumption_report(mdl, B, dims)
            spectrum = SignalSpectrum(X_true, dims)
            bare = truncate_rank_operator(lambda v: lift_matvec(spectrum, v),
                                          lambda u: lift_rmatvec(spectrum, u),
                                          dims.lifted_shape, r)
            assert rep.mu1 == measure_mu1(FactorSpectrum(bare, dims))
            assert rep.rip_norm_estimate == estimate_rip_norm(B, FactorSpectrum(bare, dims))

    def test_report_forms_no_lift_of_its_own(self, monkeypatch):
        # Every field, the initialization included, runs on FFT products and
        # the operator SVD.
        counted = [("hankel", "lift"), ("lowrank", "truncate_rank"),
                   ("lowrank", "project_tangent"), ("hankel", "lift_isometric"),
                   ("hankel", "adjoint_lift_isometric"), ("solver", "initialize")]
        calls, open_spans = [], []
        package = [mod for name, mod in sys.modules.items() if name.startswith("hankelsr")]
        for module, name in counted:
            original = getattr(sys.modules[f"hankelsr.{module}"], name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls.append((_name, "initialize" in open_spans))
                open_spans.append(_name)
                try:
                    return _original(*args, **kwargs)
                finally:
                    open_spans.pop()

            for mod in package:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, wrapper)
        mdl, dims, B, _, _ = synth_instance(48, 2, 2, seed_derivation(3, 0))
        assumption_report(mdl, B, dims)
        assert sorted(calls) == [("initialize", False)]

    def test_desk_scale_runtime(self):
        mdl = synth_model(4, 256, 5, 11)
        dims = choose_dims(256, 4)
        B = sample_subspace(4, 256, 12)
        start = time.perf_counter()
        rep = assumption_report(mdl, B, dims)
        assert time.perf_counter() - start < 10.0
        assert np.isfinite(list(rep.as_dict().values())).all()
