"""Operator-calculus tests against independent oracles."""

import tracemalloc

import numpy as np
import pytest

from hankelsr import hankel
from hankelsr.checks import brute_force_weights
from hankelsr.hankel import (FactorSpectrum, HankelDims, SignalSpectrum, _weigh,
                             adjoint_lift, adjoint_lift_isometric, adjoint_lift_lowrank,
                             choose_dims, lift, lift_isometric, lift_matvec,
                             lift_rmatvec, pinv_lift, pinv_lift_lowrank)
from hankelsr.lowrank import LowRankFactors, crandn, truncate_rank
from hankelsr.model import synth_instance
from hankelsr.solver import SolverConfig, fiht, solve


class TestChooseDims:
    @pytest.mark.parametrize("n,n1,n2,weights", [
        (6, 3, 4, [1, 2, 3, 3, 2, 1]),
        (3, 2, 2, [1, 2, 1]),
        (2, 1, 2, [1, 1]),
    ])
    def test_default_split_and_weights(self, n, n1, n2, weights):
        dims = choose_dims(n, 1)
        assert (dims.n1, dims.n2) == (n1, n2)
        np.testing.assert_array_equal(dims.weights, weights)

    def test_weight_sum_is_lifted_area(self):
        for n in (5, 16, 33):
            dims = choose_dims(n, 2)
            assert dims.weights.sum() == dims.n1 * dims.n2

    def test_split_override(self):
        dims = choose_dims(10, 2, n1=3)
        assert (dims.n1, dims.n2) == (3, 8)
        np.testing.assert_array_equal(dims.weights, brute_force_weights(10, 3))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            choose_dims(1, 1)
        with pytest.raises(ValueError):
            choose_dims(8, 1, n1=0)
        with pytest.raises(ValueError):
            choose_dims(8, 1, n1=9)
        with pytest.raises(ValueError, match="s >= 1"):
            choose_dims(8, 0)

    @pytest.mark.parametrize("n,s,n1", [
        (256.0, 4, None),
        (256, 4.5, 128),
        (256, 4, 128.0),
        (np.float64(256), 4, 128),
        ("256", 4, 128),
    ])
    def test_non_integral_sizes_rejected(self, n, s, n1):
        with pytest.raises(ValueError, match="must be integers"):
            choose_dims(n, s, n1)

    def test_numpy_integer_sizes_solve(self):
        _, dims, B, _, y = synth_instance(32, 2, 2, seed=3)
        np_dims = HankelDims(np.int64(dims.n), np.int32(dims.s), np.int64(dims.n1))
        assert np_dims == dims and np_dims.L == dims.L == 32
        X_hat, trace = solve(y, B, np_dims, SolverConfig(rank=2, max_iters=3))
        X_ref, ref = solve(y, B, dims, SolverConfig(rank=2, max_iters=3))
        np.testing.assert_array_equal(X_hat, X_ref)
        np.testing.assert_array_equal(trace.residuals, ref.residuals)

    @pytest.mark.parametrize("n,L", [(2, 2), (3, 4), (4, 4), (5, 8), (256, 256), (257, 512)])
    def test_fft_length_is_next_power_of_two(self, n, L):
        assert choose_dims(n, 1).L == L


class TestLift:
    def test_scalar_rows(self):
        dims = choose_dims(3, 1)
        Z = lift(np.array([[1.0, 2.0, 3.0]]), dims)
        np.testing.assert_array_equal(Z, [[1, 2], [2, 3]])

    def test_block_rows(self):
        dims = choose_dims(3, 2)
        X = np.arange(6.0).reshape(2, 3)
        Z = lift(X, dims)
        assert Z.shape == (4, 2)
        np.testing.assert_array_equal(Z[:, 0], np.concatenate([X[:, 0], X[:, 1]]))
        np.testing.assert_array_equal(Z[:, 1], np.concatenate([X[:, 1], X[:, 2]]))

    def test_frobenius_weight_identity(self):
        rng = np.random.default_rng(3)
        for s, n in [(1, 9), (2, 14), (4, 21)]:
            dims = choose_dims(n, s)
            X = crandn(rng, s, n)
            lhs = np.linalg.norm(lift(X, dims)) ** 2
            rhs = float(np.sum(dims.weights * np.sum(np.abs(X) ** 2, axis=0)))
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_shape_mismatch(self):
        dims = choose_dims(4, 2)
        with pytest.raises(ValueError):
            lift(np.zeros((1, 4)), dims)


class TestAdjointLift:
    def test_shape_mismatch(self):
        dims = choose_dims(4, 2)  # lifted shape (4, 3)
        with pytest.raises(ValueError, match="lifted matrix of shape"):
            adjoint_lift(np.zeros((3, 4)), dims)

    def test_antidiagonal_sums(self):
        dims = choose_dims(3, 1)
        out = adjoint_lift(np.array([[1.0, 2.0], [3.0, 4.0]]), dims)
        np.testing.assert_array_equal(out, [[1, 5, 4]])

    def test_lift_columns_scaled_by_weights(self):
        rng = np.random.default_rng(4)
        dims = choose_dims(11, 2)
        X = crandn(rng, 2, 11)
        out = adjoint_lift(lift(X, dims), dims)
        np.testing.assert_allclose(out, X * dims.weights[None, :], rtol=0, atol=1e-12)

    def test_adjoint_identity_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = int(rng.integers(1, 5))
            n = int(rng.integers(2, 30))
            dims = choose_dims(n, s)
            X = crandn(rng, s, n)
            Z = crandn(rng, *dims.lifted_shape)
            lhs = np.vdot(lift(X, dims), Z)
            rhs = np.vdot(X, adjoint_lift(Z, dims))
            assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(X) * np.linalg.norm(Z))


class TestWeights:
    def test_power_inverse_pair(self):
        # power -1 undoes a scaling of each column by the root of its weight
        rng = np.random.default_rng(6)
        dims = choose_dims(9, 2)
        X = crandn(rng, 2, 9)
        back = _weigh(X * np.sqrt(brute_force_weights(9, dims.n1))[None, :], dims, -1)
        np.testing.assert_allclose(back, X, atol=1e-14)

    def test_square_power_matches_counts(self):
        # power -2 divides each column by its count, as the de-lift averages
        dims = choose_dims(3, 1)
        out = _weigh(np.ones((1, 3)), dims, -2)
        np.testing.assert_array_equal(out, [1.0 / brute_force_weights(3, dims.n1)])

    @pytest.mark.parametrize("n,n1", [(2, 1), (9, 5), (257, 3), (4096, 2048), (65536, 32768)])
    def test_cached_powers_are_the_computed_ones(self, n, n1):
        # Each power is taken once per dims, bitwise the power of the float
        # weights that each call once took; NumPy takes w ** -1.0 as a
        # reciprocal, which is why both powers are pinned.
        dims = HankelDims(n, 2, n1)
        X = crandn(np.random.default_rng(n), 2, n)
        w = dims.weights.astype(np.float64)
        for power in (-2, -1):
            np.testing.assert_array_equal(_weigh(X, dims, power),
                                          X * (w ** (power / 2.0))[None, :])
        assert dims.inverse_root_weights is dims.inverse_root_weights
        assert dims.inverse_weights is dims.inverse_weights


class TestPinvLift:
    def test_weighted_average(self):
        dims = choose_dims(3, 1)
        out = pinv_lift(np.array([[1.0, 2.0], [4.0, 8.0]]), dims)
        np.testing.assert_allclose(out, [[1.0, 3.0, 8.0]])

    def test_left_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = int(rng.integers(1, 5))
            n = int(rng.integers(2, 30))
            dims = choose_dims(n, s)
            X = crandn(rng, s, n)
            back = pinv_lift(lift(X, dims), dims)
            assert np.linalg.norm(back - X) <= 1e-13 * np.linalg.norm(X)

    def test_minimum_residual_delift(self):
        # lift(pinv_lift(Z)) is the closest lift-structured matrix to Z
        rng = np.random.default_rng(8)
        dims = choose_dims(8, 2)
        Z = crandn(rng, *dims.lifted_shape)
        best = np.linalg.norm(lift(pinv_lift(Z, dims), dims) - Z)
        for _ in range(25):
            X = crandn(rng, 2, 8)
            assert best <= np.linalg.norm(lift(X, dims) - Z) + 1e-12


class TestIsometricLift:
    def test_inverse_pair(self):
        rng = np.random.default_rng(9)
        for s, n in [(1, 8), (3, 13)]:
            dims = choose_dims(n, s)
            X = crandn(rng, s, n)
            back = adjoint_lift_isometric(lift_isometric(X, dims), dims)
            assert np.linalg.norm(back - X) <= 1e-13 * np.linalg.norm(X)

    def test_isometry(self):
        rng = np.random.default_rng(10)
        dims = choose_dims(17, 2)
        X = crandn(rng, 2, 17)
        assert abs(np.linalg.norm(lift_isometric(X, dims)) - np.linalg.norm(X)) \
            <= 1e-12 * np.linalg.norm(X)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dims = choose_dims(int(rng.integers(2, 24)), int(rng.integers(1, 4)))
            X = crandn(rng, dims.s, dims.n)
            Z = crandn(rng, *dims.lifted_shape)
            lhs = np.vdot(lift_isometric(X, dims), Z)
            rhs = np.vdot(X, adjoint_lift_isometric(Z, dims))
            assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(X) * np.linalg.norm(Z))


class TestRowGroups:
    """A product too large for hankel._GROUP_BYTES takes its spectra one signal
    row at a time, with results bitwise those of one batched call."""

    @staticmethod
    def products(dims, seed):
        rng = np.random.default_rng(seed)
        lifted = SignalSpectrum(crandn(rng, dims.s, dims.n), dims)
        point = FactorSpectrum(truncate_rank(crandn(rng, *dims.lifted_shape), 3), dims)
        U, V = crandn(rng, dims.s * dims.n1, 3), crandn(rng, dims.n2, 3)
        return (lift_matvec(lifted, V), lift_matvec(lifted, point),
                lift_rmatvec(lifted, U), lift_rmatvec(lifted, point),
                hankel.adjoint_lift_tangent(point, V, U))

    @staticmethod
    def batched_rmatvec(lifted, Fu, dims):
        """lift_rmatvec as one batched einsum over the signal rows: the reference."""
        conv = np.conj(np.einsum("al,akl->kl", lifted.Fc, Fu))
        return np.conj(np.fft.ifft(conv, axis=-1)[:, :dims.n2]).T

    def test_grouped_products_match_one_group(self, monkeypatch):
        dims = choose_dims(64, 4)
        assert hankel._row_groups(dims, 3) == [slice(0, 4)]
        whole = self.products(dims, 20)
        # 1 KiB: one row's (3, 64) spectra take 3 KiB
        monkeypatch.setattr(hankel, "_GROUP_BYTES", 1024)
        assert len(hankel._row_groups(dims, 3)) == dims.s
        for got, want in zip(self.products(dims, 20), whole):
            np.testing.assert_array_equal(got, want)
            assert got.flags.f_contiguous == want.flags.f_contiguous

    def test_grouped_reduction_is_the_batched_einsum(self, monkeypatch):
        rng = np.random.default_rng(22)
        dims = choose_dims(64, 4)
        lifted = SignalSpectrum(crandn(rng, dims.s, dims.n), dims)
        point = FactorSpectrum(truncate_rank(crandn(rng, *dims.lifted_shape), 3), dims)
        U = crandn(rng, dims.s * dims.n1, 3)
        monkeypatch.setattr(hankel, "_GROUP_BYTES", 1024)
        np.testing.assert_array_equal(lift_rmatvec(lifted, U),
                                      self.batched_rmatvec(lifted, hankel._row_spectra(U, dims),
                                                           dims))
        np.testing.assert_array_equal(lift_rmatvec(lifted, point),
                                      self.batched_rmatvec(lifted, point.FU, dims))

    def test_grouped_solve_matches_one_group(self, monkeypatch):
        _, dims, B, X_true, y = synth_instance(64, 4, 2, 21)
        cfg = SolverConfig(rank=2, max_iters=30)
        X_whole, whole = fiht(y, B, dims, cfg)
        monkeypatch.setattr(hankel, "_GROUP_BYTES", 1024)
        assert len(hankel._row_groups(dims, 2)) == dims.s
        X_grouped, grouped = fiht(y, B, dims, cfg)
        np.testing.assert_array_equal(X_grouped, X_whole)
        np.testing.assert_array_equal(grouped.residuals, whole.residuals)


class TestProductMemory:
    """Traced peaks of one product with the lift at n=16384, s=4, on a rank-5
    point, where each takes its spectra one signal row at a time."""

    @pytest.fixture(scope="class")
    def operands(self):
        _, dims, _, X_true, _ = synth_instance(16384, 4, 5, 3)
        point = hankel.truncate_lift(X_true, dims, 5)
        point.FU, point.FV  # cached before tracing, as a step finds them
        return SignalSpectrum(X_true, dims), point

    @staticmethod
    def traced_entries(run):
        """The traced peak of run() above its start, in complex entries."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - start) / np.dtype(complex).itemsize

    def test_rmatvec_holds_its_sum_and_its_result(self, operands):
        # One (k, L) sum on the spectra and the (n2, k) result; a conjugate
        # of the signal's spectra or a second (k, L) block reads 1.2.
        lifted, point = operands
        dims, k = lifted.dims, point.factors.rank
        peak = self.traced_entries(lambda: lift_rmatvec(lifted, point))
        assert peak <= 1.05 * (k * dims.L + dims.n2 * k)

    def test_matvec_holds_its_result_and_one_rows_spectra(self, operands):
        # The (s*n1, k) result is twice one row's (k, L) spectra here; a
        # (k, L) conjugate of the point's FV beside them reads 2.0.
        lifted, point = operands
        dims, k = lifted.dims, point.factors.rank
        assert len(hankel._row_groups(dims, k)) == dims.s
        peak = self.traced_entries(lambda: lift_matvec(lifted, point))
        assert peak <= 1.6 * dims.s * dims.n1 * k


class TestFastProducts:
    def test_unit_vector_selects_first_block_column(self):
        rng = np.random.default_rng(12)
        dims = choose_dims(10, 2)
        X = crandn(rng, 2, 10)
        e0 = np.zeros((dims.n2, 1))
        e0[0] = 1.0
        out = lift_matvec(SignalSpectrum(X, dims), e0)
        expected = X[:, :dims.n1].T.reshape(-1)  # columns x_0..x_{n1-1} stacked
        np.testing.assert_allclose(out[:, 0], expected, atol=1e-12)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(13)
        for s, n, n1 in [(2, 32, None), (1, 17, None), (3, 20, 5), (2, 16, 11)]:
            dims = choose_dims(n, s, n1)
            X = crandn(rng, s, n)
            Z = lift(X, dims)
            v = crandn(rng, dims.n2, 1)
            got = lift_matvec(SignalSpectrum(X, dims), v)
            want = Z @ v
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_rmatvec_unit_vector_is_conjugate_first_row(self):
        rng = np.random.default_rng(14)
        dims = choose_dims(9, 2)
        X = crandn(rng, 2, 9)
        e0 = np.zeros((dims.s * dims.n1, 1))
        e0[0] = 1.0
        got = lift_rmatvec(SignalSpectrum(X, dims), e0)
        np.testing.assert_allclose(got[:, 0], np.conj(X[0, :dims.n2]), atol=1e-12)

    def test_rmatvec_matches_dense(self):
        rng = np.random.default_rng(15)
        for s, n, n1 in [(2, 32, None), (1, 17, None), (3, 20, 5)]:
            dims = choose_dims(n, s, n1)
            X = crandn(rng, s, n)
            Z = lift(X, dims)
            u = crandn(rng, dims.s * dims.n1, 1)
            got = lift_rmatvec(SignalSpectrum(X, dims), u)
            want = Z.conj().T @ u
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_block_inputs(self):
        rng = np.random.default_rng(16)
        dims = choose_dims(12, 2)
        X = crandn(rng, 2, 12)
        Z = lift(X, dims)
        V = crandn(rng, dims.n2, 3)
        U = crandn(rng, dims.s * dims.n1, 3)
        spectrum = SignalSpectrum(X, dims)
        np.testing.assert_allclose(lift_matvec(spectrum, V), Z @ V, atol=1e-10)
        np.testing.assert_allclose(lift_rmatvec(spectrum, U), Z.conj().T @ U,
                                   atol=1e-10)

    def test_vector_input_rejected(self):
        dims = choose_dims(12, 2)
        spectrum = SignalSpectrum(np.ones((2, 12)), dims)
        with pytest.raises(ValueError, match="block"):
            lift_matvec(spectrum, np.ones(dims.n2))
        with pytest.raises(ValueError, match="block"):
            lift_rmatvec(spectrum, np.ones(dims.s * dims.n1))

    @pytest.mark.parametrize("shape", [(2, 11), (3, 12), (12,), (1, 2, 12)])
    def test_signal_spectrum_of_wrong_shape_refused(self, shape):
        # The shape is checked once, when the spectrum is built, not by each product.
        with pytest.raises(ValueError, match=r"signal of shape \(2, 12\)"):
            SignalSpectrum(np.ones(shape), choose_dims(12, 2))

    def test_lowrank_delift_matches_dense(self):
        rng = np.random.default_rng(17)
        dims = choose_dims(18, 2)
        W = crandn(rng, *dims.lifted_shape)
        f = truncate_rank(W, 3)
        dense = adjoint_lift(f.reconstruct(), dims)
        point = FactorSpectrum(f, dims)
        fast = adjoint_lift_lowrank(point)
        np.testing.assert_allclose(fast, dense, atol=1e-10 * np.linalg.norm(dense))
        dense_p = pinv_lift(f.reconstruct(), dims)
        fast_p = pinv_lift_lowrank(point)
        np.testing.assert_allclose(fast_p, dense_p, atol=1e-10 * np.linalg.norm(dense_p))

    def test_factor_spectrum_checks_its_lift(self):
        def point(m, p, dims):
            return FactorSpectrum(LowRankFactors(np.eye(m, 2), np.ones(2), np.eye(p, 2)), dims)

        dims = choose_dims(12, 2)
        with pytest.raises(ValueError, match="inconsistent"):
            point(dims.s * dims.n1, dims.n2 + 1, dims)
        # Another split of the same n shares the FFT length, so its point's
        # spectra have the shapes the products expect: only its dims tell.
        other = choose_dims(12, 2, n1=4)
        assert other.L == dims.L and other != dims
        spectrum = point(other.s * other.n1, other.n2, other)
        with pytest.raises(ValueError, match="another lift"):
            lift_matvec(SignalSpectrum(np.ones((2, 12)), dims), spectrum)
        with pytest.raises(ValueError, match="another lift"):
            lift_rmatvec(SignalSpectrum(np.ones((2, 12)), dims), spectrum)

    def test_point_on_equal_dims_accepted(self):
        # A point and a signal on separately built dims of the same split lie
        # on the same lift: the products compare dims by value.
        rng = np.random.default_rng(18)
        dims, twin = choose_dims(12, 2), HankelDims(n=12, s=2, n1=6)
        assert twin is not dims and twin == dims
        point = FactorSpectrum(truncate_rank(crandn(rng, *dims.lifted_shape), 2), twin)
        X = crandn(rng, 2, 12)
        Z = lift(X, dims)
        U, V = point.factors.U, point.factors.V
        np.testing.assert_allclose(lift_matvec(SignalSpectrum(X, dims), point), Z @ V,
                                   atol=1e-10)
        np.testing.assert_allclose(lift_rmatvec(SignalSpectrum(X, dims), point),
                                   Z.conj().T @ U, atol=1e-10)

    def test_release_drops_only_the_cache(self):
        # A released spectrum is taken again on the next read, bitwise the
        # same, and a product reading it is unchanged.
        rng = np.random.default_rng(19)
        dims = choose_dims(20, 3)
        point = FactorSpectrum(truncate_rank(crandn(rng, *dims.lifted_shape), 2), dims)
        lifted = SignalSpectrum(crandn(rng, 3, 20), dims)
        FU, FV = point.FU, point.FV
        before = lift_matvec(lifted, point), lift_rmatvec(lifted, point)
        point.release("FU")
        point.release("FV")
        assert point.FU is not FU and point.FV is not FV
        np.testing.assert_array_equal(point.FU, FU)
        np.testing.assert_array_equal(point.FV, FV)
        point.release("FV")
        point.release("FV")  # releasing an untaken spectrum is a no-op
        np.testing.assert_array_equal(lift_matvec(lifted, point), before[0])
        np.testing.assert_array_equal(lift_rmatvec(lifted, point), before[1])
        with pytest.raises(ValueError, match="no cached spectrum"):
            point.release("factors")
