"""The parametric fit and its place in ``solve``: the greedy start, Gauss-Newton
on (tau, h), acceptance by the residual alone, and the fallback to FIHT."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelsr import solver, sources
from hankelsr.cli import seed_derivation
from hankelsr.model import PointSourceModel, build_signal, measure, sample_subspace, synth_instance
from hankelsr.hankel import choose_dims
from hankelsr.solver import SolverConfig, fiht, initialize, relative_error, solve


def fitted(y, B, r, max_steps=60, tol=1e-10):
    """The last (taus, h, relative residual) of the fit from the greedy start,
    stopped once the residual reaches ``tol``."""
    for t, step in enumerate(sources.fit(y, B, sources.greedy_start(y, B, r))):
        if step[2] <= tol or t == max_steps:
            break
    return step


def test_recovers_the_cell_fiht_cannot_start():
    # (64, 4, 5) at master seed 1: FIHT converges on none of these 20 trials,
    # for lack of a start inside its basin; the fit recovers every one.
    for trial in range(20):
        mdl, dims, B, X_true, y = synth_instance(64, 4, 5, seed_derivation(1, trial))
        taus, h, residual = fitted(y, B, 5)
        assert residual <= 1e-10, trial
        assert relative_error(sources.signal(taus, h, 64), X_true) <= 1e-8, trial
        # each true location has a fitted one within 1e-8, on the circle
        gaps = np.abs((taus[:, None] - mdl.taus[None, :] + 0.5) % 1.0 - 0.5)
        assert np.all(gaps.min(axis=0) < 1e-8), trial


def test_fit_yields_the_refit_then_each_step_lowering_the_residual():
    _, dims, B, X_true, y = synth_instance(256, 4, 5, seed_derivation(1, 0))
    steps = list(sources.fit(y, B, sources.greedy_start(y, B, 5)))
    residuals = [rel for _, _, rel in steps]
    assert len(steps) >= 2
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] <= 1e-10
    taus, h, rel = steps[-1]
    assert taus.shape == (5,) and h.shape == (5, 4)
    X = sources.signal(taus, h, dims.n)
    assert np.linalg.norm(measure(X, B) - y) / np.linalg.norm(y) == pytest.approx(rel, abs=1e-13)


def test_split_spreads_the_closest_pair_about_its_midpoint():
    n = 64
    taus = np.array([0.3, 0.999, 0.7, 0.0005])  # closest pair across 0
    out = sources.split(taus, n)
    np.testing.assert_array_equal(out[[0, 2]], taus[[0, 2]])
    assert sorted(out[[1, 3]]) == pytest.approx(sorted([(0.99975 - 0.25 / n) % 1.0,
                                                        (0.99975 + 0.25 / n) % 1.0]))
    np.testing.assert_array_equal(taus, [0.3, 0.999, 0.7, 0.0005])


def test_restart_from_the_split_separates_a_merged_pair():
    # Two sources 0.04/n apart: the descent from the greedy start merges them
    # and stalls; from the split it converges.
    derived = seed_derivation(8, 138)
    _, dims, B, X_true, y = synth_instance(256, 4, 5, derived)
    steps = list(sources.fit(y, B, sources.greedy_start(y, B, 5)))
    assert steps[-1][2] > 1e-10
    X_hat, trace = solve(y, B, dims, SolverConfig(rank=5, seed=derived), ground_truth=X_true)
    assert (trace.method, trace.termination) == ("fit", "converged")
    restart = len(steps)
    assert trace.records[restart].residual > trace.records[restart - 1].residual
    assert relative_error(X_hat, X_true) <= 1e-8


def test_fit_returns_after_two_steps_though_one_meets_the_tolerance():
    derived = seed_derivation(1, 40)
    _, dims, B, X_true, y = synth_instance(256, 4, 5, derived)
    X_hat, trace = solve(y, B, dims, SolverConfig(rank=5, seed=derived))
    assert trace.residuals[1] <= 1e-10 * np.linalg.norm(y)
    assert (trace.method, trace.returned_iteration, len(trace.records)) == ("fit", 2, 3)
    X_one, one = solve(y, B, dims, SolverConfig(rank=5, seed=derived, max_iters=1))
    assert (one.method, one.returned_iteration) == ("fit", 1)
    assert relative_error(X_hat, X_true) <= relative_error(X_one, X_true) <= 1e-8


@pytest.mark.parametrize("tol, tries", [(1e-10, 1), (0.0, 2)])
def test_failed_step_at_the_tolerance_is_not_halved(monkeypatch, tol, tries):
    # The descent ends at the rounding floor on a step that fails: tried once
    # from an estimate within tol, then at its half from any other.
    _, _, B, _, y = synth_instance(256, 4, 5, seed_derivation(1, 0))
    taus = sources.greedy_start(y, B, 5)
    calls = []
    linearize = sources._linearize
    monkeypatch.setattr(sources, "_linearize", lambda *a: calls.append(a) or linearize(*a))
    steps = list(sources.fit(y, B, taus, tol))
    assert [rel for _, _, rel in steps] == pytest.approx([2.3e-4, 1.9e-8, 3.3e-14], rel=0.1)
    assert len(calls) == len(steps) + tries


def test_repeated_location_is_a_singular_gram():
    _, _, B, _, y = synth_instance(64, 2, 2, 3)
    with pytest.raises(np.linalg.LinAlgError, match="(?i)singular"):
        next(sources.fit(y, B, [0.25, 0.25]))


@st.composite
def instances(draw):
    """An instance drawn as ``synth_model`` draws one, sometimes with two sources
    closer than 1/n, and sometimes with noise: data on which an accepted fit
    has to be right, or the fit has to be declined."""
    n = draw(st.sampled_from([24, 32, 48, 64, 96, 128, 256]))
    s = draw(st.integers(1, 4))
    r = draw(st.integers(1, min(5, n // 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taus = rng.uniform(size=r)
    if r > 1 and draw(st.booleans()):
        taus[1] = (taus[0] + draw(st.sampled_from([0.03, 0.1, 0.3, 0.7])) / n) % 1.0
    amps = (1.0 + 10.0 ** rng.uniform(size=r)) * np.exp(-2j * np.pi * rng.uniform(size=r))
    H = rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r))
    mdl = PointSourceModel(s=s, n=n, r=r, taus=taus, amps=amps,
                           coeffs=H / np.linalg.norm(H, axis=0))
    X_true = build_signal(mdl)
    B = sample_subspace(s, n, rng)
    y = measure(X_true, B)
    noise = draw(st.sampled_from([0.0, 0.0, 1e-9, 1e-6]))
    y = y + noise * np.linalg.norm(y) / np.sqrt(n) * rng.standard_normal(n)
    return choose_dims(n, s), B, X_true, y, r


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instances())
def test_residual_acceptance_claims_no_wrong_fit(case):
    dims, B, X_true, y, r = case
    X_hat, trace = solve(y, B, dims, SolverConfig(rank=r, max_iters=20))
    if trace.method == "fit":
        assert trace.termination == "converged"
        assert relative_error(X_hat, X_true) <= 1e-8


def test_solve_falls_back_to_fiht_where_the_fit_stops_short():
    # Two sources 0.01/n apart: the fit stops short of the tolerance from the
    # greedy start and from its split, and FIHT converges from its own start
    # in 85 iterations.
    derived = seed_derivation(134, 104)
    _, dims, B, X_true, y = synth_instance(256, 4, 5, derived)
    cfg = SolverConfig(rank=5, seed=derived)
    X_hat, trace = solve(y, B, dims, cfg, ground_truth=X_true)
    assert trace.method == "fiht"
    assert trace.termination == "converged"
    assert relative_error(X_hat, X_true) <= 1e-8
    X_fiht, own = fiht(y, B, dims, cfg, ground_truth=X_true)
    np.testing.assert_array_equal(X_hat, X_fiht)
    np.testing.assert_array_equal(trace.residuals, own.residuals)
    np.testing.assert_array_equal(trace.rel_errors, own.rel_errors)
    assert trace.returned_iteration == own.returned_iteration == 85


def test_accepted_fit_reads_as_the_benchmark_reads_it():
    # bench/run.py compares the whole termination to "converged" and reads
    # the last iteration as an int.
    derived = seed_derivation(1, 0)
    _, dims, B, X_true, y = synth_instance(256, 4, 5, derived)
    X_hat, trace = solve(y, B, dims, SolverConfig(rank=5, seed=derived), ground_truth=X_true)
    assert trace.method == "fit"
    assert trace.termination == "converged"
    assert np.issubdtype(trace.iterations.dtype, np.integer)
    assert isinstance(int(trace.iterations[-1]), int)
    assert [rec.iteration for rec in trace.records] == list(range(len(trace.records)))
    assert trace.returned_iteration == trace.records[-1].iteration
    assert trace.records[-1].residual == np.linalg.norm(measure(X_hat, B) - y)
    assert trace.records[-1].rel_error == relative_error(X_hat, X_true) <= 1e-8


def test_max_iters_caps_the_fit_then_fiht():
    # No Gauss-Newton step is allowed, and the greedy start's refit is short
    # of the tolerance, so solve returns FIHT's, capped too: its start.
    _, dims, B, X_true, y = synth_instance(32, 2, 2, 10)
    X_hat, trace = solve(y, B, dims, SolverConfig(rank=2, max_iters=0))
    assert (trace.method, len(trace.records)) == ("fiht", 1)
    np.testing.assert_array_equal(X_hat, initialize(y, B, dims, 2))


def test_zero_data_goes_to_fiht():
    dims = choose_dims(12, 2)
    X_hat, trace = solve(np.zeros(12), sample_subspace(2, 12, 0), dims, SolverConfig(rank=2))
    assert trace.method == "fiht" and not np.any(X_hat)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("data,sensing", [(2.0 ** -600, 1.0), (1e151, 1.0), (1e152, 1.0),
                                          (1.0, 1e150), (1.0, 1e200)],
                         ids=["y*2**-600", "y*1e151", "y*1e152", "B*1e150", "B*1e200"])
def test_extreme_scales_recover_the_signal(data, sensing):
    # FIHT recovers the scaled data too, but refuses the scaled sensing
    # vectors, whose start's data misfit overflows; the fit works on both at
    # unit scale, and h absorbs the powers of two.
    _, dims, B, X_true, y = synth_instance(64, 2, 2, 3)
    X_hat, trace = solve(y * data, B * sensing, dims, SolverConfig(rank=2))
    assert (trace.method, trace.termination) == ("fit", "converged")
    assert relative_error(X_hat * sensing / data, X_true) < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e306, 1e307])
def test_sensing_vectors_past_the_float_range_refused_by_the_fit(scale):
    # h would be ~1e-306: scaling it back from unit scale would round its
    # smaller entries into the subnormal range, so the fit refuses it, with no
    # RuntimeWarning first; solve then gives FIHT's refusal.
    _, dims, B, _, y = synth_instance(4096, 4, 5, 3)
    with pytest.raises(ValueError, match="^the estimate underflows$"):
        next(sources.fit(y, scale * B, sources.greedy_start(y, scale * B, 5)))
    with pytest.raises(ValueError, match="^the norm of the lift overflows$"):
        solve(y, scale * B, dims, SolverConfig(rank=5))


def test_fit_peaks_below_fihts_start():
    # n=65536: the fit's passes hold blocks of lowrank._BLOCK_ROWS rows, the
    # greedy one length-4L spectrum at a time; FIHT's start alone holds the
    # lift's Krylov basis and spectra.  Read 22 MiB against 47.5 MiB.
    derived = seed_derivation(3, 0)
    _, dims, B, _, y = synth_instance(65536, 4, 5, derived)
    cfg = SolverConfig(rank=5, seed=derived)

    def traced_peak(run):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = run()
            return tracemalloc.get_traced_memory()[1] - start, result
        finally:
            tracemalloc.stop()

    fit_peak, (_, trace) = traced_peak(lambda: solve(y, B, dims, cfg))
    start_peak, _ = traced_peak(lambda: solver._initialize_factors(y, B, dims, cfg))
    assert trace.method == "fit"
    assert fit_peak < 0.6 * start_peak
