"""Solver tests: initialization, single steps, full runs, stopping rules.

``SolverConfig.mode`` is read by nothing but its own validation; the tests
parametrized over its two values pin, each in its own regime, that the
field changes nothing, and ``test_modes_agree_per_seed`` pins it bit for bit.
"""

import dataclasses
import inspect
import re
import tracemalloc

import numpy as np
import pytest

from hankelsr import diagnostics, hankel, lowrank, solver
from hankelsr.checks import reference_step
from hankelsr.cli import seed_derivation
from hankelsr.diagnostics import estimate_rip_norm, spectral_distance
from hankelsr.hankel import FactorSpectrum, choose_dims, lift, pinv_lift
from hankelsr.lowrank import crandn
from hankelsr.model import (adjoint_measure, build_signal, measure,
                            sample_subspace, synth_instance, synth_model)
from hankelsr.solver import (ConvergenceTrace, DivergenceError, Iterate, SolverConfig,
                             _initialize_factors, initialize, iterate_once,
                             relative_error, solve)


def make_instance(n, s, r, seed):
    _, dims, B, X_true, y = synth_instance(n, s, r, seed)
    return dims, B, X_true, y


class TestRelativeError:
    def test_identical(self):
        X = np.ones((2, 3))
        assert relative_error(X, X) == 0.0

    def test_zero_estimate(self):
        X = np.ones((2, 3))
        assert relative_error(np.zeros_like(X), X) == 1.0

    def test_double(self):
        X = np.ones((2, 3))
        assert abs(relative_error(2 * X, X) - 1.0) < 1e-15

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            relative_error(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            relative_error(np.ones((2, 3)), np.ones((3, 2)))

    @pytest.mark.parametrize("k", [-1070, -600, 1020])
    def test_any_finite_reference_scale(self, k):
        # the norms of the scaled reference would under- or overflow
        X_ref = np.array([[1.0, -0.75], [0.5, 0.625]])
        X = X_ref + np.array([[0.0, 0.25], [0.0, 0.0]])
        assert relative_error(X * 2.0 ** k, X_ref * 2.0 ** k) == relative_error(X, X_ref)


class TestInitialize:
    def test_zero_data(self):
        dims = choose_dims(12, 2)
        B = sample_subspace(2, 12, 0)
        X0 = initialize(np.zeros(12, dtype=complex), B, dims, 2)
        np.testing.assert_array_equal(X0, np.zeros((2, 12)))

    def test_identity_sensing_recovers_truth(self):
        # with one-dimensional coefficients and unit sensing vectors the
        # back-projection equals the signal, so the spectral step is exact
        dims = choose_dims(16, 1)
        mdl = synth_model(1, 16, 2, 5)
        X_true = build_signal(mdl)
        B = np.ones((1, 16))
        X0 = initialize(measure(X_true, B), B, dims, 2)
        assert relative_error(X0, X_true) < 1e-12

    @pytest.mark.parametrize("k", [-600, 502])
    def test_scales_bit_for_bit_with_the_data(self, k):
        dims, B, X_true, y = make_instance(64, 2, 2, 5)
        np.testing.assert_array_equal(initialize(y * 2.0 ** k, B, dims, 2) * 2.0 ** -k,
                                      initialize(y, B, dims, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_rejected_as_in_solve(self, bad, monkeypatch):
        dims, B, _, y = make_instance(32, 2, 2, 16)

        def no_work(*args, **kwargs):
            raise AssertionError("initialize started work on non-finite input")

        monkeypatch.setattr(solver, "_initialize_factors", no_work)
        y_bad = y.copy()
        y_bad[3] = bad
        with pytest.raises(ValueError, match="y and B must be finite"):
            initialize(y_bad, B, dims, 2)
        B_bad = B.copy()
        B_bad[1, 5] = bad
        with pytest.raises(ValueError, match="y and B must be finite"):
            initialize(y, B_bad, dims, 2)

    @pytest.mark.parametrize("rank", [17, 40])
    def test_infeasible_rank_rejected_as_in_solve(self, rank):
        # lifted shape (64, 33): rank 17 would need a tangent space of 34
        # columns, and rank 40 exceeds the lift itself
        dims, B, _, y = make_instance(64, 2, 2, 5)
        assert dims.lifted_shape == (64, 33)
        with pytest.raises(ValueError, match=r"need 2\*rank <= 33"):
            solve(y, B, dims, SolverConfig(rank=rank))
        with pytest.raises(ValueError, match=r"need 2\*rank <= 33"):
            initialize(y, B, dims, rank)

    def test_shape_and_overflow_rejected_as_in_solve(self):
        dims, B, _, y = make_instance(32, 2, 2, 16)
        with pytest.raises(ValueError, match="shapes inconsistent"):
            initialize(y[:-1], B, dims, 2)
        with pytest.raises(ValueError, match="norm of y"):
            initialize(np.full_like(y, 1e308), B, dims, 2)

    def test_distance_shrinks_with_length(self):
        meds = []
        for n in (32, 64, 128):
            vals = []
            for trial in range(12):
                dims, B, X_true, y = make_instance(n, 2, 2, 1000 + 7 * trial)
                Z_true = lift(X_true, dims)
                sigma_r = np.linalg.svd(Z_true, compute_uv=False)[1]
                X0 = initialize(y, B, dims, 2)
                vals.append(spectral_distance(X0, X_true, dims) / sigma_r)
            meds.append(np.median(vals))
        assert meds[2] < meds[1] < meds[0]

    def test_fast_initialization_product_count(self, monkeypatch):
        # Each product column costs s+1 length-L transforms in either
        # product, so the columns the initialization's products take, not
        # their calls, are its cost.
        # The block Krylov SVD at block width r certifies the n=256
        # initialization within 205 columns on these instances; at width
        # r + 8 it took 263, its basis then spanning all 129 rows.
        columns = []
        for name in ("lift_matvec", "lift_rmatvec"):
            original = getattr(hankel, name)

            def counted(spectrum, block, _original=original):
                columns.append(block.shape[1])
                return _original(spectrum, block)

            monkeypatch.setattr(hankel, name, counted)
        for trial in range(5):
            dims, B, X_true, y = make_instance(256, 4, 5, seed_derivation(3, trial))
            columns.clear()
            _initialize_factors(y, B, dims, SolverConfig(rank=5))
            assert sum(columns) <= 220, f"trial {trial}: {sum(columns)} product columns"


class TestIterateOnce:
    @pytest.mark.parametrize("truth_svd", ["dense", "fast"])
    def test_truth_is_fixed_point(self, truth_svd):
        # At the truth the off-tangent blocks are roundoff, and the step
        # still matches the full-SVD reference step, whether the truth's
        # factors come from the dense SVD or, as the initialization's do,
        # from the operator SVD on FFT products.
        dims, B, X_true, y = make_instance(32, 2, 2, 3)
        cfg = SolverConfig(rank=2)
        if truth_svd == "fast":
            truth = hankel.truncate_lift(X_true, dims, 2, seed=cfg.seed)
        else:
            truth = FactorSpectrum(lowrank.truncate_rank(lift(X_true, dims), 2), dims)
        it = Iterate.at(truth, y, B)
        nxt = iterate_once(it, y, B, cfg)
        X_next, point = nxt.X, nxt.point
        assert relative_error(X_next, X_true) < 1e-10
        assert point.factors.rank == 2
        assert nxt.iteration == 1
        X_ref, _ = reference_step(it.X, y, B, dims, cfg, truth.factors)
        assert relative_error(X_next, X_ref) < 1e-10

    def test_iterate_is_the_delift_of_its_point(self):
        # X is the point's de-lift, bit for bit, and the residual is X's
        dims, B, X_true, y = make_instance(32, 2, 2, 3)
        point = hankel.truncate_lift(X_true, dims, 2)
        it = Iterate.at(point, y, B, iteration=4)
        np.testing.assert_array_equal(it.X, hankel.pinv_lift_lowrank(point))
        np.testing.assert_array_equal(it.residual, measure(it.X, B) - y)
        assert it.residual_norm == np.linalg.norm(it.residual)
        assert (it.point, it.iteration) == (point, 4)

    @pytest.mark.parametrize("rank", [1, 3])
    def test_rank_other_than_the_points_refused(self, rank):
        # a rank-2 point stepped at another rank would silently become a
        # rank-1 point (dropping a source) or a rank-3 one (a zero triplet)
        dims, B, X_true, y = make_instance(32, 2, 2, 3)
        it = Iterate.at(hankel.truncate_lift(X_true, dims, 2), y, B)
        with pytest.raises(ValueError, match=f"^config rank {rank} differs from "
                                             "the iterate's rank 2$"):
            iterate_once(it, y, B, SolverConfig(rank=rank))

    def test_dense_mode_matches_reference_step(self):
        # The 2r-by-2r core truncation against the full SVD of the projected
        # lift, each carrying its own iterate from the solver's initialization.
        dims, B, X_true, y = make_instance(256, 4, 5, 20)
        cfg = SolverConfig(rank=5, step_size=0.5)
        it = _initialize_factors(y, B, dims, cfg)
        X_ref, ref_factors = it.X, it.point.factors
        for _ in range(12):
            it = iterate_once(it, y, B, cfg)
            X_ref, ref_factors = reference_step(X_ref, y, B, dims, cfg, ref_factors)
            assert relative_error(it.X, X_ref) < 1e-10

    @pytest.mark.parametrize("mode", ["dense", "fast"])
    def test_infeasible_rank_rejected_as_in_solve(self, mode):
        # lifted shape (20, 6): the tangent space at rank 4 would need 8
        # columns; the step's message is the one solve gives
        dims, B, X_true, y = make_instance(10, 4, 2, 18)
        cfg = SolverConfig(rank=4, mode=mode)
        point = FactorSpectrum(lowrank.truncate_rank(lift(X_true, dims), 4), dims)
        with pytest.raises(ValueError) as stepped:
            iterate_once(Iterate.at(point, y, B), y, B, cfg)
        with pytest.raises(ValueError) as solved:
            solve(y, B, dims, cfg)
        assert str(stepped.value) == str(solved.value)
        assert "rank 4 infeasible for lifted shape (20, 6)" in str(stepped.value)

    def test_zero_step_is_identity_on_model_signals(self):
        dims, B, X_true, y = make_instance(24, 2, 2, 4)
        cfg = SolverConfig(rank=2, step_size=0.0)
        point = FactorSpectrum(lowrank.truncate_rank(lift(X_true, dims), 2), dims)
        nxt = iterate_once(Iterate.at(point, y, B), y, B, cfg)
        assert relative_error(nxt.X, X_true) < 1e-12

    @pytest.mark.parametrize("mode", ["dense", "fast"])
    def test_zero_data_stays_at_zero(self, mode):
        # rank-0 factors: the tangent step and the truncation both yield zero
        dims = choose_dims(12, 2)
        B = sample_subspace(2, 12, 0)
        X_hat, trace = solve(np.zeros(12), B, dims, SolverConfig(rank=2, mode=mode))
        np.testing.assert_array_equal(X_hat, np.zeros((2, 12)))
        assert trace.termination == "converged"
        assert trace.records[-1].iteration == 1

    def test_nonfinite_raises_naming_iteration(self, monkeypatch):
        # an Iterate with a non-finite X cannot be built, so a step never
        # starts from one; solve names the iteration of the step that tried
        dims, B, X_true, y = make_instance(16, 2, 2, 6)
        bad = X_true.copy()
        bad[0, 0] = np.inf
        cfg = SolverConfig(rank=2)
        point = FactorSpectrum(lowrank.truncate_rank(lift(X_true, dims), 2), dims)
        with pytest.raises(DivergenceError, match="^iterate is not finite$"):
            iterate_once(dataclasses.replace(Iterate.at(point, y, B), X=bad), y, B, cfg)
        # solve calls _truncated_step itself; the poisoned copy raises there
        step, calls = solver._truncated_step, []

        def poisoned(it, *args, **kwargs):
            calls.append(1)
            return step(dataclasses.replace(it, X=bad) if len(calls) == 7 else it, *args, **kwargs)

        monkeypatch.setattr(solver, "_truncated_step", poisoned)
        _, trace = solve(y, B, dims, cfg)
        assert trace.termination == "diverged: iterate is not finite at iteration 7"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_iterate_refused_when_built(self, bad):
        dims, B, X_true, y = make_instance(16, 2, 2, 6)
        point = FactorSpectrum(lowrank.truncate_rank(lift(X_true, dims), 2), dims)
        it = Iterate.at(point, y, B)
        X = it.X.copy()
        X[1, 3] = bad
        with pytest.raises(DivergenceError, match="^iterate is not finite$"):
            dataclasses.replace(it, X=X)

    def test_nonfinite_gradient_update_raises(self):
        dims, B, X_true, y = make_instance(16, 2, 2, 6)
        point = FactorSpectrum(lowrank.truncate_rank(lift(X_true, dims), 2), dims)
        X = X_true + 0.1
        huge = dataclasses.replace(Iterate.at(point, y, B), X=X,
                                   residual=(measure(X, B) - y) * 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="^gradient update is not finite$"):
                iterate_once(huge, y, B, SolverConfig(rank=2, step_size=1e10))

    def test_nonfinite_delift_raises(self, monkeypatch):
        dims, B, X_true, y = make_instance(16, 2, 2, 6)
        point = FactorSpectrum(lowrank.truncate_rank(lift(X_true, dims), 2), dims)
        it = Iterate.at(point, y, B)
        monkeypatch.setattr(hankel, "pinv_lift_lowrank",
                            lambda point: np.full((dims.s, dims.n), np.nan, dtype=complex))
        with pytest.raises(DivergenceError, match="^iterate is not finite$"):
            iterate_once(it, y, B, SolverConfig(rank=2))


class TestOneInitialization:
    """There is one initialization, the operator SVD on FFT products seeded by
    the config; ``SolverConfig.mode`` selects nothing."""

    @pytest.mark.parametrize("n,s,r", [(32, 2, 2), (64, 4, 5), (256, 4, 5)])
    def test_modes_agree_per_seed(self, n, s, r):
        for trial in range(5):
            seed = seed_derivation(1, trial)
            dims, B, _, y = make_instance(n, s, r, seed)
            (X_ref, ref), *others = [solve(y, B, dims, SolverConfig(rank=r, mode=mode, seed=seed))
                                     for mode in solver.MODES]
            for X, trace in others:
                np.testing.assert_array_equal(X, X_ref)
                np.testing.assert_array_equal(trace.residuals, ref.residuals)
                assert ((trace.termination, trace.returned_iteration)
                        == (ref.termination, ref.returned_iteration)), trial


class TestInitializationCertificate:
    """The start is certified to ``_INIT_CERTIFICATE_TOL``; the diagnostics'
    constants keep the operator SVD's default certificate."""

    def test_each_caller_passes_its_certificate(self, monkeypatch):
        operator_svd = lowrank.truncate_rank_operator
        signature = inspect.signature(operator_svd)
        tols = []

        def recorded(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tols.append(bound.arguments["tol"])
            return operator_svd(*args, **kwargs)

        monkeypatch.setattr(hankel, "truncate_rank_operator", recorded)
        start, exact = solver._INIT_CERTIFICATE_TOL, lowrank._CERTIFICATE_TOL
        assert exact == 1.2e-6 < start
        model, dims, B, X_true, y = synth_instance(64, 2, 2, 14)
        solve(y, B, dims, SolverConfig(rank=2, max_iters=3))
        assert tols == [start]
        tols.clear()
        initialize(y, B, dims, 2)
        assert tols == [start]
        tols.clear()
        diagnostics.assumption_report(model, B, dims)
        assert tols == [exact, start, exact]  # truth, initialize, spectral_distance

    @pytest.mark.parametrize("master,trial", [(1, 0), (1, 7), (6, 93), (7, 2)])
    def test_looser_start_costs_no_iterations(self, master, trial, monkeypatch):
        # Benchmark instances at n=256: the start certified to
        # _INIT_CERTIFICATE_TOL takes no more iterations than one certified
        # to 1.2e-6, and ends the same way.
        seed = seed_derivation(master, trial)
        dims, B, _, y = make_instance(256, 4, 5, seed)
        cfg = SolverConfig(rank=5, seed=seed)
        _, loose = solve(y, B, dims, cfg)
        monkeypatch.setattr(solver, "_INIT_CERTIFICATE_TOL", lowrank._CERTIFICATE_TOL)
        _, tight = solve(y, B, dims, cfg)
        assert loose.termination == tight.termination == "converged"
        assert loose.returned_iteration <= tight.returned_iteration


class TestTransformCount:
    """Length-L FFTs, counted as the benchmark's tracer counts them: out.size // out.shape[-1]."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"fft": 0, "ifft": 0}
        for name in counts:
            def counted(*args, _original=getattr(np.fft, name), _name=name, **kwargs):
                out = _original(*args, **kwargs)
                counts[_name] += out.size // out.shape[-1]
                return out

            monkeypatch.setattr(np.fft, name, counted)
        return counts

    def test_step_runs_58_transforms(self, counts):
        # s=4, r=5.  Forward: 4 of the gradient step, 20 of the new U's block
        # rows and 5 of its conj(V); inverse: 20 in lift_matvec, 5 in
        # lift_rmatvec and 4 in the de-lift.  The carried point's spectra
        # were taken by the initialization's de-lift.
        dims, B, X_true, y = make_instance(256, 4, 5, seed_derivation(1, 0))
        cfg = SolverConfig(rank=5, step_size=0.5)
        it = _initialize_factors(y, B, dims, cfg)
        counts.update(fft=0, ifft=0)
        iterate_once(it, y, B, cfg)
        assert counts == {"fft": 29, "ifft": 29}

    def test_second_step_retakes_the_released_spectra(self, counts):
        # A step releases the carried point's spectra once it has read them,
        # so a second step from the same iterate takes them again: 20 of U's
        # block rows and 5 of conj(V), forward.  Release drops only a cache:
        # both steps give the same iterate, bit for bit.
        dims, B, X_true, y = make_instance(256, 4, 5, seed_derivation(1, 0))
        cfg = SolverConfig(rank=5, step_size=0.5)
        it = _initialize_factors(y, B, dims, cfg)
        counts.update(fft=0, ifft=0)
        first = iterate_once(it, y, B, cfg)
        second = iterate_once(it, y, B, cfg)
        assert counts == {"fft": 2 * 29 + 25, "ifft": 2 * 29}
        np.testing.assert_array_equal(second.X, first.X)
        np.testing.assert_array_equal(second.residual, first.residual)
        for name in ("U", "sigma", "V"):
            np.testing.assert_array_equal(getattr(second.point.factors, name),
                                          getattr(first.point.factors, name))

    def test_solve_transforms_each_truncation_once(self, counts):
        # Beyond its initialization, every iteration of solve runs the 58
        # transforms of a step handed its spectrum.
        dims, B, X_true, y = make_instance(256, 4, 5, seed_derivation(1, 1))
        cfg = SolverConfig(rank=5, max_iters=4, step_size=0.5)
        _initialize_factors(y, B, dims, cfg)
        init = dict(counts)
        counts.update(fft=0, ifft=0)
        _, trace = solve(y, B, dims, cfg)
        assert trace.termination == "max_iters"
        assert counts == {"fft": init["fft"] + 4 * 29, "ifft": init["ifft"] + 4 * 29}

    def test_rip_map_application_runs_29_forward_transforms(self, counts, monkeypatch):
        # s=4, r=5.  An application of the map forward-transforms the signal
        # (4), N (5) and M (20), and inverts 20 + 5 in its products and 4 in
        # the de-lift; the point's 25 spectra are taken once, by the first
        # projection, which also transforms x0 (4) and inverts 25.
        applications = []
        delift = hankel.adjoint_lift_tangent

        def counted(*args):
            applications.append(1)
            return delift(*args)

        monkeypatch.setattr(hankel, "adjoint_lift_tangent", counted)
        dims, B, X_true, _ = make_instance(256, 4, 5, seed_derivation(1, 0))
        point = FactorSpectrum(lowrank.truncate_rank(lift(X_true, dims), 5), dims)
        counts.update(fft=0, ifft=0)
        estimate_rip_norm(B, point)
        a = len(applications)
        assert a > 0
        assert counts == {"fft": 29 + 29 * a, "ifft": 25 + 29 * a}


class TestStepMemory:
    """Traced peaks above their start, in units of one point's spectra,
    (s+1) k L complex entries: its FU and FV."""

    @staticmethod
    def traced_peak(run, dims):
        """The traced peak of run() above its start, in units of one point's spectra."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - start) / ((dims.s + 1) * 5 * dims.L * np.dtype(complex).itemsize)

    def test_solve_peaks_below_two_and_two_fifths_spectra(self):
        # A few iterations, traced from before the initialization.  A solve
        # holds one point at a time: it drops the old iterate before the new
        # point's spectra are taken.  Keeping the old iterate and the best
        # one whole, as solve once did, reads 2.62 units here; this reads
        # 2.26.
        dims, B, X_true, y = make_instance(16384, 4, 5, seed_derivation(3, 0))
        cfg = SolverConfig(rank=5, max_iters=4)
        assert self.traced_peak(lambda: solve(y, B, dims, cfg), dims) <= 2.4

    def test_initialization_peaks_below_two_and_a_tenth_spectra(self):
        # Products that take one signal row's spectra at a time at this L
        # read 1.86 units, or 1.97 where the interpreter keeps the
        # back-projection alive through the truncation (CPython 3.10 holds
        # a call's arguments on the caller's stack); batched (s, k, L)
        # products read 2.58.
        dims, B, X_true, y = make_instance(16384, 4, 5, seed_derivation(3, 0))
        cfg = SolverConfig(rank=5)
        assert self.traced_peak(lambda: _initialize_factors(y, B, dims, cfg), dims) <= 2.1

    @pytest.mark.parametrize("n", [4096, 16384])
    def test_step_peaks_below_one_and_a_quarter_spectra(self, n):
        # Tracing starts before the initialization, so the carried point's
        # spectra are traced and releasing them lowers the traced memory.
        # Keeping them alive through the step, beside its gradient step and
        # the two products, reads about 2.2 units.
        dims, B, X_true, y = make_instance(n, 4, 5, seed_derivation(3, 0))
        cfg = SolverConfig(rank=5)
        tracemalloc.start()
        try:
            it = _initialize_factors(y, B, dims, cfg)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            iterate_once(it, y, B, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = (dims.s + 1) * 5 * dims.L * np.dtype(complex).itemsize
        assert (peak - start) / unit <= 1.25


class TestSolve:
    def test_converges_on_desk_instance(self):
        dims, B, X_true, y = make_instance(96, 2, 2, 7)
        cfg = SolverConfig(rank=2, max_iters=200, step_size=0.5)
        X_hat, trace = solve(y, B, dims, cfg, ground_truth=X_true)
        assert trace.termination == "converged"
        assert relative_error(X_hat, X_true) < 1e-8
        assert trace.records[0].iteration == 0
        assert [rec.iteration for rec in trace.records] == list(range(len(trace.records)))
        assert trace.returned_iteration == trace.records[-1].iteration

    def test_eventually_geometric(self):
        dims, B, X_true, y = make_instance(128, 2, 2, 8)
        cfg = SolverConfig(rank=2, max_iters=200, step_size=0.5)
        _, trace = solve(y, B, dims, cfg, ground_truth=X_true)
        errs = trace.rel_errors
        hi = min(40, len(errs) - 1)
        e = errs[5:hi + 1]
        e = e[e > 1e-13]
        ratios = e[1:] / e[:-1]
        assert np.median(ratios) < 0.95

    def test_rank_overshoot_leaves_trailing_sigma_small(self):
        dims, B, X_true, y = make_instance(64, 2, 1, 9)
        cfg = SolverConfig(rank=3, max_iters=300, step_size=0.5)
        X_hat, trace = solve(y, B, dims, cfg, ground_truth=X_true)
        assert relative_error(X_hat, X_true) < 1e-4
        svals = np.linalg.svd(lift(X_hat, dims), compute_uv=False)
        assert svals[1] / svals[0] < 1e-4

    def test_rank_overshoot_keeps_r_triplets_with_small_trailing_sigma(self):
        # Iterating at r=3 on a rank-1 truth keeps 3 triplets; the trailing
        # sigma_3 / sigma_1 falls to near zero, which flags the overshoot
        # without ground truth.
        dims, B, _, y = make_instance(64, 2, 1, 9)
        cfg = SolverConfig(rank=3, step_size=0.5)
        it = _initialize_factors(y, B, dims, cfg)
        sigma = it.point.factors.sigma
        assert sigma[2] / sigma[0] > 0.1
        for _ in range(50):
            it = iterate_once(it, y, B, cfg)
            assert it.point.factors.rank == 3
        sigma = it.point.factors.sigma
        assert sigma[2] / sigma[0] < 1e-4

    def test_zero_iterations_returns_initialization(self):
        dims, B, X_true, y = make_instance(32, 2, 2, 10)
        cfg = SolverConfig(rank=2, max_iters=0)
        X_hat, trace = solve(y, B, dims, cfg, ground_truth=X_true)
        assert len(trace.records) == 1
        assert trace.records[0].iteration == 0
        np.testing.assert_array_equal(X_hat, initialize(y, B, dims, 2))

    def test_dense_mode_bitwise_deterministic(self):
        dims, B, X_true, y = make_instance(48, 2, 2, 11)
        cfg = SolverConfig(rank=2, max_iters=40, step_size=0.5)
        X1, t1 = solve(y, B, dims, cfg, ground_truth=X_true)
        X2, t2 = solve(y, B, dims, cfg, ground_truth=X_true)
        np.testing.assert_array_equal(X1, X2)
        assert [r.residual for r in t1.records] == [r.residual for r in t2.records]
        assert [r.rel_error for r in t1.records] == [r.rel_error for r in t2.records]

    def test_divergence_guard_returns_best_iterate(self):
        dims, B, X_true, y = make_instance(48, 4, 2, 12)
        cfg = SolverConfig(rank=2, max_iters=200, step_size=30.0)
        X_hat, trace = solve(y, B, dims, cfg, ground_truth=X_true)
        assert trace.termination.startswith("diverged")
        returned_resid = np.linalg.norm(measure(X_hat, B) - y)
        assert returned_resid <= np.min(trace.residuals) * (1 + 1e-12)
        # the trace names the returned iterate, not the last one run
        assert trace.records[trace.returned_iteration].residual == returned_resid
        assert trace.returned_iteration < trace.records[-1].iteration

    @pytest.mark.parametrize("mode", solver.MODES)
    def test_noisy_data_stagnates(self, mode):
        # off-model data: the iterates settle at a residual above the tolerance
        derived = seed_derivation(1, 0)
        _, dims, B, _, y = synth_instance(64, 2, 2, derived)
        noise = np.random.default_rng(0).standard_normal(64)
        y = y + 1e-3 * np.linalg.norm(y) / np.sqrt(64) * noise
        cfg = SolverConfig(rank=2, mode=mode, seed=derived)
        _, trace = solve(y, B, dims, cfg)
        assert trace.termination == "stagnated"
        assert trace.returned_iteration == trace.records[-1].iteration == 109
        assert trace.residuals[-1] > cfg.residual_tol * np.linalg.norm(y)

    @pytest.mark.parametrize("t", [0, 2])
    def test_error_scales_with_noise(self, t):
        # off-model data: the returned error follows the noise level
        derived = seed_derivation(1, t)
        _, dims, B, X_true, y = synth_instance(64, 2, 2, derived)
        noise = np.random.default_rng(0).standard_normal(64)
        errors = []
        for level in (1e-5, 1e-3, 1e-1):
            y_noisy = y + level * np.linalg.norm(y) / np.sqrt(64) * noise
            X_hat, trace = solve(y_noisy, B, dims, SolverConfig(rank=2, seed=derived))
            assert trace.termination == "stagnated"
            errors.append(relative_error(X_hat, X_true))
            assert 0.1 * level <= errors[-1] <= level
        assert errors[0] < errors[1] < errors[2]

    @pytest.mark.parametrize("mode", solver.MODES)
    @pytest.mark.parametrize("n, s, r, n1", [(64, 1, 2, None), (7, 1, 2, None),
                                             (32, 4, 2, 1), (32, 4, 2, 29)])
    def test_edge_shapes_report_their_outcome(self, n, s, r, n1, mode):
        # s = 1, the smallest feasible n for s = 1 and r = 2 (lift (4, 4)),
        # and the extreme splits n1 = 1 (lift (4, 32)) and n1 = n - 3
        # (lift (116, 4)), at which every trial diverges: the outcome must
        # be reported honestly, and the best estimate returned.
        for trial in range(3):
            derived = seed_derivation(11, trial)
            _, dims, B, X_true, y = synth_instance(n, s, r, derived, n1=n1)
            X_hat, trace = solve(y, B, dims, SolverConfig(rank=r, mode=mode, seed=derived))
            assert (trace.termination in ("converged", "stagnated", "max_iters")
                    or re.fullmatch(r"diverged: .+ at iteration \d+", trace.termination))
            assert np.all(np.isfinite(X_hat))
            returned = trace.records[trace.returned_iteration].residual
            assert returned == np.linalg.norm(measure(X_hat, B) - y)
            if trace.termination.startswith("diverged"):
                assert returned == np.min(trace.residuals)

    def test_core_failure_names_its_iteration(self, monkeypatch):
        # a LinAlgError from the step ends the run as a DivergenceError does
        dims, B, _, y = make_instance(32, 2, 2, 10)
        truncate, calls = solver.project_tangent_truncate, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("projected core contains non-finite entries")
            return truncate(*args)

        monkeypatch.setattr(solver, "project_tangent_truncate", failing)
        X_hat, trace = solve(y, B, dims, SolverConfig(rank=2))
        assert "at iteration 3" in trace.termination
        assert trace.termination.startswith("diverged: projected core")
        assert trace.returned_iteration <= 2
        # the residuals of iterations 0-2 fall, so the best iterate is the last one run
        assert trace.returned_iteration == 2
        assert (trace.records[2].residual == min(trace.residuals)
                == np.linalg.norm(measure(X_hat, B) - y))

    def test_operator_init_matches_dense_init(self, monkeypatch):
        # The seeded operator SVD on FFT products against the de-lift of the
        # full SVD of the materialized lift: certified to 1.2e-6 it agrees to
        # 1e-6, and the solver's own start, certified to
        # _INIT_CERTIFICATE_TOL, agrees to that tolerance.
        dims, B, X_true, y = make_instance(64, 2, 2, 14)
        exact = FactorSpectrum(lowrank.truncate_rank(lift(adjoint_measure(y, B), dims), 2), dims)
        start_tol = solver._INIT_CERTIFICATE_TOL
        X_start, _ = solve(y, B, dims, SolverConfig(rank=2, max_iters=0, seed=3))
        monkeypatch.setattr(solver, "_INIT_CERTIFICATE_TOL", lowrank._CERTIFICATE_TOL)
        X_op, _ = solve(y, B, dims, SolverConfig(rank=2, max_iters=0, seed=3))
        assert relative_error(X_op, hankel.pinv_lift_lowrank(exact)) < 1e-6
        assert relative_error(X_start, hankel.pinv_lift_lowrank(exact)) < start_tol

    def test_delift_nonexpansive(self):
        rng = np.random.default_rng(15)
        dims = choose_dims(20, 2)
        for _ in range(25):
            Za = crandn(rng, *dims.lifted_shape)
            Zb = crandn(rng, *dims.lifted_shape)
            lhs = np.linalg.norm(pinv_lift(Za, dims) - pinv_lift(Zb, dims))
            assert lhs <= np.linalg.norm(Za - Zb) * (1 + 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(rank=0)
        with pytest.raises(ValueError):
            SolverConfig(rank=1, mode="turbo")
        with pytest.raises(ValueError):
            SolverConfig(rank=1, residual_tol=0.0)
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(rank=1, max_iters=-1)
        for field, value in [("residual_tol", np.nan), ("residual_tol", np.inf),
                             ("step_size", np.nan), ("step_size", np.inf), ("step_size", -1.0),
                             ("rank", 2.5), ("max_iters", 2.5), ("seed", 2.5), ("seed", -1)]:
            with pytest.raises(ValueError, match=field):
                SolverConfig(**{"rank": 1, field: value})

    def test_shape_validation(self):
        dims = choose_dims(16, 2)
        with pytest.raises(ValueError):
            solve(np.zeros(8), np.zeros((2, 16)), dims, SolverConfig(rank=1))

    @pytest.mark.parametrize("mode", ["dense", "fast"])
    def test_infeasible_rank_rejected_up_front_in_both_modes(self, mode, monkeypatch):
        # lifted shape (20, 6): the tangent space at rank 5 would need 10 columns
        dims, B, _, y = make_instance(10, 4, 2, 18)

        def no_work(*args, **kwargs):
            raise AssertionError("solve started work on an infeasible rank")

        monkeypatch.setattr(solver, "_initialize_factors", no_work)
        with pytest.raises(ValueError, match=r"\(20, 6\)"):
            solve(y, B, dims, SolverConfig(rank=5, mode=mode))
        with pytest.raises(ValueError, match=r"\(20, 6\)"):
            solve(y, B, dims, SolverConfig(rank=4, mode=mode))

    def test_fast_mode_transforms_each_signal_once(self, monkeypatch):
        # The operator initialization and each iteration's pair of products
        # with the lifted matrix share one spectrum of their signal.  Every
        # forward transform pads its input in hankel._fft_last, so the spy
        # sees the signal's own (s, n) shape there.
        dims, B, _, y = make_instance(48, 2, 2, 19)
        shapes = []
        fft_last = hankel._fft_last

        def recorded(a, L):
            shapes.append(np.shape(a))
            return fft_last(a, L)

        monkeypatch.setattr(hankel, "_fft_last", recorded)
        _, trace = solve(y, B, dims, SolverConfig(rank=2, max_iters=5, step_size=0.5))
        assert len(trace.records) == 6
        assert shapes.count((dims.s, dims.n)) == len(trace.records)

    def test_initialization_honours_the_seed(self, monkeypatch):
        dims, B, _, y = make_instance(48, 2, 2, 17)
        seeds = []
        operator_svd = hankel.truncate_rank_operator

        def recorded(*args, seed, tol):
            seeds.append(seed)
            return operator_svd(*args, seed=seed, tol=tol)

        monkeypatch.setattr(hankel, "truncate_rank_operator", recorded)
        solve(y, B, dims, SolverConfig(rank=2, max_iters=0, seed=7))
        assert seeds == [7]

    @pytest.mark.parametrize("mode", ["dense", "fast"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_rejected_up_front(self, mode, bad, monkeypatch):
        dims, B, _, y = make_instance(32, 2, 2, 16)
        cfg = SolverConfig(rank=2, mode=mode)

        def no_work(*args, **kwargs):
            raise AssertionError("solve started work on non-finite input")

        monkeypatch.setattr(solver, "_initialize_factors", no_work)
        y_bad = y.copy()
        y_bad[3] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(y_bad, B, dims, cfg)
        B_bad = B.copy()
        B_bad[1, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(y, B_bad, dims, cfg)

    @pytest.mark.parametrize("mode", ["dense", "fast"])
    def test_overflowing_data_norm_rejected_up_front(self, mode, monkeypatch):
        # every entry is finite, but ||y|| = 1e308 sqrt(n) exceeds the
        # largest float, so no residual could be recorded
        _, dims, B, _, y = synth_instance(256, 4, 5, 1)

        def no_work(*args, **kwargs):
            raise AssertionError("solve started work on data whose norm overflows")

        monkeypatch.setattr(solver, "_initialize_factors", no_work)
        with pytest.raises(ValueError, match="norm of y"):
            solve(np.full_like(y, 1e308), B, dims, SolverConfig(rank=5, mode=mode))

    @pytest.mark.parametrize("mode", ["dense", "fast"])
    @pytest.mark.parametrize("scale", [2.0 ** -600, 1e151, 1e152],
                             ids=["2**-600", "1e151", "1e152"])
    def test_extreme_data_scales_recover_the_signal(self, mode, scale):
        # At 2**-600 the squares of y's entries underflow, so its norm reads
        # 0; at 1e151 its norm is finite but the initialization's products
        # overflow; at 1e152 the sum of squares in its norm overflows too.
        # The solver works on y scaled to unit size instead.
        _, dims, B, X_true, y = synth_instance(256, 4, 5, 1)
        with np.errstate(over="raise", invalid="raise"):
            X_hat, trace = solve(y * scale, B, dims, SolverConfig(rank=5, mode=mode))
        assert trace.termination == "converged"
        assert len(trace.records) > 50
        assert relative_error(X_hat / scale, X_true) < 1e-8

    @pytest.mark.parametrize("mode", ["dense", "fast"])
    def test_output_scales_bit_for_bit_with_the_data(self, mode):
        dims, B, X_true, y = make_instance(64, 2, 2, 5)
        cfg = SolverConfig(rank=2, mode=mode)
        X_ref, ref = solve(y, B, dims, cfg, ground_truth=X_true)
        assert ref.termination == "converged"
        for k in (-600, -9, 13, 502):
            # the norm of the truth at 2**-600 underflows; relative_error
            # takes it at unit scale
            X_hat, trace = solve(y * 2.0 ** k, B, dims, cfg, ground_truth=X_true * 2.0 ** k)
            np.testing.assert_array_equal(X_hat * 2.0 ** -k, X_ref)
            assert (trace.termination, trace.returned_iteration) == (ref.termination,
                                                                     ref.returned_iteration)
            np.testing.assert_array_equal(trace.residuals * 2.0 ** -k, ref.residuals)
            np.testing.assert_array_equal(trace.rel_errors, ref.rel_errors)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e150, 1e200])
    def test_huge_sensing_vectors_diverge_at_the_first_step(self, scale):
        # The back-projection of unit-scale y on B at 1e200 is ~1e200, whose
        # Krylov products overflow unless truncate_lift takes them at unit
        # scale.  At either scale the start's data misfit, of order scale**2,
        # or its norm then overflows, so the first step would diverge: the
        # start is refused instead, as the data's fault.  solve scales y but
        # not B, because the fixed step is absolute in B's units: scaling B
        # by 2**-b keeps the iterates (up to scale) only if the step becomes
        # step_size * 4**b.
        _, dims, B, _, y = synth_instance(64, 2, 2, 3)
        with pytest.raises(ValueError, match="^the data misfit of the initialization overflows$"):
            solve(y, scale * B, dims, SolverConfig(rank=2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", ["solve", "initialize"])
    def test_overflowing_start_rejected(self, entry):
        # At 1e305 the lift of the back-projection and its de-lift fit the
        # float range, but the start's data misfit does not (a product in
        # the de-lift's spectra may overflow first).  No step has run, so
        # that is the data's fault: a ValueError, with no RuntimeWarning
        # before it, not a divergence with a non-finite estimate.
        _, dims, B, _, y = synth_instance(4096, 4, 5, 3)
        run = {"solve": lambda: solve(y, 1e305 * B, dims, SolverConfig(rank=5)),
               "initialize": lambda: initialize(y, 1e305 * B, dims, 5)}[entry]
        with pytest.raises(ValueError, match="^the data misfit of the initialization overflows$"):
            run()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("j", [-600, 0, 600])
    def test_start_within_the_float_range_or_refused(self, j):
        # B * 2**k from the subnormal range up to the largest finite B, y *
        # 2**j: each call returns a start with a finite t=0 residual and
        # estimate, or refuses it with a ValueError naming what overflows,
        # and no RuntimeWarning comes first.  k = 230 with j = 600 is a
        # start whose residual overflows only when scaled back by 2**e.
        _, dims, B, _, y = synth_instance(64, 2, 2, 3)
        y = y * 2.0 ** j
        outcomes = set()
        for k in range(-1070, 1024, 13):
            with np.errstate(over="ignore"):
                B_k = hankel._ldexp(B, k)
            if not np.all(np.isfinite(B_k)):
                continue
            for entry in ("solve", "initialize"):
                try:
                    if entry == "solve":
                        X, trace = solve(y, B_k, dims, SolverConfig(rank=2, max_iters=0))
                        assert np.isfinite(trace.residuals[0]), k
                    else:
                        X = initialize(y, B_k, dims, 2)
                except ValueError as exc:
                    assert str(exc).endswith(" overflows"), (k, entry, exc)
                    outcomes.add("refused")
                    continue
                assert np.all(np.isfinite(X)), (k, entry)
                outcomes.add("returned")
        assert outcomes == {"returned", "refused"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_residual_past_the_float_range_is_a_divergence(self):
        # y at 2**1000 and a step far past the contraction region: the
        # residuals grow until one scaled back by 2**e overflows, which
        # ends the solve like any divergence, returning the best iterate.
        _, dims, B, _, y = synth_instance(64, 2, 2, 3)
        X_hat, trace = solve(y * 2.0 ** 1000, B, dims, SolverConfig(rank=2, step_size=100.0))
        assert trace.termination == "diverged: the residual overflows at iteration 3"
        assert trace.returned_iteration == 0
        assert np.all(np.isfinite(trace.residuals))
        np.testing.assert_array_equal(X_hat, initialize(y * 2.0 ** 1000, B, dims, 2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", ["solve", "initialize"])
    @pytest.mark.parametrize("scale", [1e306, 1e307])
    def test_sensing_vectors_past_the_float_range(self, scale, entry):
        # here the lift of the back-projection overflows itself, and
        # truncate_lift refuses it before anything overflows
        _, dims, B, _, y = synth_instance(4096, 4, 5, 3)
        run = {"solve": lambda: solve(y, scale * B, dims, SolverConfig(rank=5)),
               "initialize": lambda: initialize(y, scale * B, dims, 5)}[entry]
        with pytest.raises(ValueError, match="^the norm of the lift overflows$"):
            run()

    @pytest.mark.parametrize("truth", ["zero", "wrong_shape", "nan"])
    def test_bad_ground_truth_rejected_up_front(self, truth, monkeypatch):
        dims, B, X_true, y = make_instance(32, 2, 2, 16)

        def no_work(*args, **kwargs):
            raise AssertionError("solve started work on a bad ground truth")

        monkeypatch.setattr(solver, "_initialize_factors", no_work)
        bad = {"zero": np.zeros_like(X_true), "wrong_shape": np.ones((3, 3)),
               "nan": np.full_like(X_true, np.nan)}[truth]
        with pytest.raises(ValueError, match="ground_truth"):
            solve(y, B, dims, SolverConfig(rank=2), ground_truth=bad)

    @pytest.mark.parametrize("mode", ["dense", "fast"])
    def test_residual_evaluated_once_per_iteration(self, mode, monkeypatch):
        dims, B, X_true, y = make_instance(48, 2, 2, 17)
        cfg = SolverConfig(rank=2, max_iters=6, mode=mode, step_size=0.5)
        # Reference: the same iterates, each residual evaluated afresh.
        it = _initialize_factors(y, B, dims, cfg)
        expected = [float(np.linalg.norm(measure(it.X, B) - y))]
        for t in range(1, 7):
            it = iterate_once(it, y, B, cfg)
            expected.append(float(np.linalg.norm(measure(it.X, B) - y)))

        calls = []

        def counted(X, B):
            calls.append(1)
            return measure(X, B)

        monkeypatch.setattr(solver, "measure", counted)
        _, trace = solve(y, B, dims, cfg)
        assert trace.termination == "max_iters"
        assert len(calls) == len(trace.records)  # the initialization plus one per iteration
        assert [rec.residual for rec in trace.records] == expected
