"""Signal-model and measurement-operator tests."""

import numpy as np
import pytest

from hankelsr.hankel import choose_dims, lift
from hankelsr.lowrank import crandn
from hankelsr.model import (PointSourceModel, adjoint_measure, build_signal,
                            hankel_factorization, measure, sample_subspace,
                            steering_vector, synth_instance, synth_model)


class TestSteeringVector:
    def test_zero_location_is_all_ones(self):
        np.testing.assert_array_equal(steering_vector(0.0, 4), np.ones(4))

    def test_half_alternates_sign(self):
        np.testing.assert_allclose(steering_vector(0.5, 4), [1, -1, 1, -1], atol=1e-14)

    def test_quarter_cycles_through_quadrants(self):
        np.testing.assert_allclose(steering_vector(0.25, 4), [1, -1j, -1, 1j], atol=1e-14)

    def test_first_entry_exactly_one(self):
        assert steering_vector(0.731, 8)[0] == 1.0

    def test_location_taken_modulo_one(self):
        np.testing.assert_allclose(steering_vector(1.25, 6), steering_vector(0.25, 6),
                                   atol=1e-14)

    def test_needs_positive_length(self):
        with pytest.raises(ValueError):
            steering_vector(0.1, 0)


class TestSynthModel:
    def test_amplitude_range_and_unit_coeffs(self):
        m = synth_model(2, 16, 1, 42)
        assert 2.0 <= abs(m.amps[0]) <= 11.0
        assert abs(np.linalg.norm(m.coeffs[:, 0]) - 1.0) < 1e-12

    def test_seed_determinism(self):
        a = synth_model(3, 24, 2, 11)
        b = synth_model(3, 24, 2, 11)
        np.testing.assert_array_equal(a.taus, b.taus)
        np.testing.assert_array_equal(a.amps, b.amps)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_complex_draws_are_crandn(self):
        # synth_instance draws the model (r uniforms each for taus, c and
        # psi, then the coefficients) and the complex sensing matrix from one
        # generator: both complex draws are lowrank.crandn's, bit for bit
        mdl, _, B, _, _ = synth_instance(16, 3, 2, 9, complex_subspace=True)
        rng = np.random.default_rng(9)
        rng.uniform(size=3 * 2)
        H = crandn(rng, 3, 2)
        np.testing.assert_array_equal(mdl.coeffs, H / np.linalg.norm(H, axis=0, keepdims=True))
        np.testing.assert_array_equal(B, crandn(rng, 3, 16))

    def test_locations_pairwise_distinct(self):
        m = synth_model(2, 16, 3, 7)
        gaps = np.diff(np.sort(m.taus))
        assert np.all(gaps > 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            synth_model(2, 5, 3, 0)  # n < 2r
        with pytest.raises(ValueError):
            synth_model(0, 16, 1, 0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            PointSourceModel(s=1, n=8, r=1, taus=np.array([0.1]),
                             amps=np.array([1.0 + 0j]),
                             coeffs=np.array([[2.0 + 0j]]))  # not unit norm
        with pytest.raises(ValueError):
            PointSourceModel(s=1, n=8, r=2, taus=np.array([0.3, 0.3]),
                             amps=np.ones(2, dtype=complex),
                             coeffs=np.ones((1, 2), dtype=complex))

    @pytest.mark.parametrize("field, message", [("s", "dimensions must be positive"),
                                                ("taus", "taus and amps"),
                                                ("amps", "taus and amps"),
                                                ("coeffs", "coeffs must have shape")])
    def test_model_shape_checks(self, field, message):
        good = dict(s=2, n=8, r=2, taus=np.array([0.1, 0.6]), amps=np.ones(2, dtype=complex),
                    coeffs=np.full((2, 2), np.sqrt(0.5), dtype=complex))
        PointSourceModel(**good)
        bad = {"s": 0, "taus": np.array([0.1]), "amps": np.ones(3, dtype=complex),
               "coeffs": np.ones((1, 2), dtype=complex)}[field]
        with pytest.raises(ValueError, match=message):
            PointSourceModel(**{**good, field: bad})


class TestBuildSignal:
    def test_single_source_constant_row(self):
        m = PointSourceModel(s=1, n=3, r=1, taus=np.array([0.0]),
                             amps=np.array([1.0 + 0j]),
                             coeffs=np.array([[1.0 + 0j]]))
        np.testing.assert_allclose(build_signal(m), [[1, 1, 1]], atol=1e-14)

    def test_scaled_alternating_row(self):
        m = PointSourceModel(s=2, n=2, r=1, taus=np.array([0.5]),
                             amps=np.array([2.0 + 0j]),
                             coeffs=np.array([[0.0 + 0j], [1.0 + 0j]]))
        np.testing.assert_allclose(build_signal(m), [[0, 0], [2, -2]], atol=1e-13)

    def test_superposition(self):
        rng = np.random.default_rng(21)
        full = synth_model(2, 12, 2, 21)
        parts = []
        for k in range(2):
            part = PointSourceModel(s=2, n=12, r=1, taus=full.taus[k:k + 1],
                                    amps=full.amps[k:k + 1],
                                    coeffs=full.coeffs[:, k:k + 1])
            parts.append(build_signal(part))
        np.testing.assert_allclose(build_signal(full), parts[0] + parts[1], atol=1e-12)


class TestSampleSubspace:
    @pytest.mark.parametrize("s, n", [(0, 8), (2, 0)])
    def test_needs_positive_shape(self, s, n):
        with pytest.raises(ValueError, match="s >= 1 and n >= 1"):
            sample_subspace(s, n, 0)

    def test_determinism(self):
        np.testing.assert_array_equal(sample_subspace(1, 4, 5), sample_subspace(1, 4, 5))

    def test_real_standard_normal_moments(self):
        B = sample_subspace(10, 10_000, 123)
        assert abs(B.mean()) < 3e-2
        assert abs(B.var() - 1.0) < 3e-2
        assert not np.iscomplexobj(B)

    def test_complex_option_isotropic(self):
        B = sample_subspace(10, 10_000, 123, complex_entries=True)
        assert np.iscomplexobj(B)
        assert abs(B.mean()) < 3e-2
        assert abs(np.mean(np.abs(B) ** 2) - 1.0) < 3e-2


class TestMeasure:
    def test_basis_columns_pick_entries(self):
        B = np.eye(2)
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(measure(X, B), [1.0, 4.0])

    def test_zero_signal(self):
        B = np.ones((2, 3))
        np.testing.assert_array_equal(measure(np.zeros((2, 3)), B), np.zeros(3))

    def test_linearity(self):
        rng = np.random.default_rng(31)
        X1, X2 = crandn(rng, 2, 9), crandn(rng, 2, 9)
        B = rng.standard_normal((2, 9))
        a, b = 1.7 - 0.3j, -0.4 + 2j
        np.testing.assert_allclose(measure(a * X1 + b * X2, B),
                                   a * measure(X1, B) + b * measure(X2, B), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            measure(np.zeros((2, 3)), np.zeros((2, 4)))


class TestAdjointMeasure:
    def test_basis_columns(self):
        B = np.eye(2)
        out = adjoint_measure(np.array([1.0, 1.0j]), B)
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0j]])

    def test_zero(self):
        B = np.ones((2, 3))
        np.testing.assert_array_equal(adjoint_measure(np.zeros(3), B), np.zeros((2, 3)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adjoint_measure(np.zeros(4), np.zeros((2, 3)))

    def test_adjoint_identity_randomized(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            s = int(rng.integers(1, 5))
            n = int(rng.integers(2, 40))
            X = crandn(rng, s, n)
            B = rng.standard_normal((s, n))
            y = crandn(rng, n)
            lhs = np.vdot(measure(X, B), y)
            rhs = np.vdot(X, adjoint_measure(y, B))
            assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(X) * np.linalg.norm(y))


class TestHankelFactorization:
    def test_all_ones_case(self):
        m = PointSourceModel(s=1, n=3, r=1, taus=np.array([0.0]),
                             amps=np.array([1.0 + 0j]),
                             coeffs=np.array([[1.0 + 0j]]))
        np.testing.assert_allclose(hankel_factorization(m), np.ones((2, 2)), atol=1e-14)

    def test_matches_lifted_signal(self):
        for seed in range(5):
            m = synth_model(2, 20, 3, seed)
            dims = choose_dims(m.n, m.s)
            F = hankel_factorization(m, dims)
            Z = lift(build_signal(m), dims)
            assert np.max(np.abs(F - Z)) <= 1e-12 * np.max(np.abs(Z))

    def test_rank_certificate(self):
        m = synth_model(2, 24, 2, 9)
        sv = np.linalg.svd(hankel_factorization(m), compute_uv=False)
        assert sv[2] / sv[0] < 1e-10

    def test_rank_exactly_r_for_random_models(self):
        for seed in range(8):
            r = seed % 4 + 1
            m = synth_model(2, 32, r, seed + 100)
            sv = np.linalg.svd(lift(build_signal(m), choose_dims(32, 2)),
                               compute_uv=False)
            assert sv[r] / sv[0] < 1e-8

    def test_dims_of_another_signal_rejected(self):
        m = synth_model(2, 8, 2, 3)
        for dims in (choose_dims(9, 2), choose_dims(8, 1)):
            with pytest.raises(ValueError, match="inconsistent with the model"):
                hankel_factorization(m, dims)

    def test_infeasible_rank(self):
        m = synth_model(1, 8, 4, 3)
        bad = choose_dims(8, 1, n1=2)  # lifted shape (2, 7) cannot carry rank 4
        with pytest.raises(ValueError, match=r"rank 4 exceeds lifted shape \(2, 7\)"):
            hankel_factorization(m, bad)
