"""Truncated-SVD and tangent-space machinery tests."""

from unittest import mock

import numpy as np
import pytest

from hankelsr import lowrank
from hankelsr.hankel import (FactorSpectrum, SignalSpectrum, choose_dims, lift,
                             lift_matvec, lift_rmatvec, truncate_lift)
from hankelsr.lowrank import (LowRankFactors, RankTruncationError,
                              project_tangent, project_tangent_truncate,
                              truncate_rank, truncate_rank_operator)
from hankelsr.model import build_signal, synth_instance, synth_model


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestTruncateRank:
    def test_diagonal(self):
        f = truncate_rank(np.diag([3.0, 1.0]), 1)
        np.testing.assert_allclose(f.sigma, [3.0])
        np.testing.assert_allclose(f.reconstruct(), np.diag([3.0, 0.0]), atol=1e-14)

    def test_idempotent_on_exact_rank(self):
        rng = np.random.default_rng(0)
        W = crandn(rng, 7, 5)
        low = truncate_rank(W, 2).reconstruct()
        again = truncate_rank(low, 2).reconstruct()
        assert np.linalg.norm(again - low) <= 1e-12 * np.linalg.norm(low)

    def test_eckart_young_residual(self):
        rng = np.random.default_rng(1)
        W = crandn(rng, 8, 6)
        f = truncate_rank(W, 2)
        resid = np.linalg.norm(W - f.reconstruct())
        svals = np.linalg.svd(W, compute_uv=False)
        tail = np.sqrt(np.sum(svals[2:] ** 2))
        assert abs(resid - tail) <= 1e-10 * svals[0]

    def test_rank_bound(self):
        with pytest.raises(ValueError):
            truncate_rank(np.zeros((3, 4)), 4)
        with pytest.raises(ValueError):
            truncate_rank(np.zeros((3, 4)), 0)

    def test_zero_matrix_gives_zero_triplets(self):
        f = truncate_rank(np.zeros((4, 3)), 2)
        assert f.rank == 2
        np.testing.assert_array_equal(f.sigma, np.zeros(2))
        np.testing.assert_array_equal(f.reconstruct(), np.zeros((4, 3)))

    def test_effective_rank_drop(self):
        # a rank-1 matrix truncated to rank 3 keeps 3 triplets, two of them ~0
        rng = np.random.default_rng(2)
        u, v = crandn(rng, 6), crandn(rng, 5)
        f = truncate_rank(np.outer(u, v.conj()), 3)
        assert f.rank == 3
        assert np.all(f.sigma[1:] <= 1e-15 * f.sigma[0])

    def test_nonfinite_input_raises(self):
        W = np.ones((4, 3))
        W[2, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            truncate_rank(W, 1)


class TestLowRankFactors:
    def test_validation_rejects_nonorthonormal(self):
        with pytest.raises(ValueError):
            LowRankFactors(U=np.ones((3, 2)), sigma=np.array([2.0, 1.0]),
                           V=np.eye(3)[:, :2])

    def test_validation_rejects_unsorted_sigma(self):
        with pytest.raises(ValueError):
            LowRankFactors(U=np.eye(3)[:, :2], sigma=np.array([1.0, 2.0]),
                           V=np.eye(3)[:, :2])

    @pytest.mark.parametrize("U, sigma, V", [
        (np.zeros((3, 0)), np.zeros(0), np.zeros((4, 0))),  # k = 0
        (np.eye(3)[:, 0], np.ones(1), np.eye(3)[:, :1]),  # 1-d U
        (np.eye(3)[:, :1], np.ones((1, 1)), np.eye(3)[:, :1]),  # 2-d sigma
        (np.eye(3)[:, :2], np.ones(1), np.eye(3)[:, :1]),  # column counts differ
    ], ids=["empty", "1d_U", "2d_sigma", "column_counts"])
    def test_validation_rejects_malformed_factors(self, U, sigma, V):
        with pytest.raises(ValueError, match="factor"):
            LowRankFactors(U=U, sigma=sigma, V=V)

    def test_validation_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="non-negative"):
            LowRankFactors(U=np.eye(3)[:, :2], sigma=np.array([1.0, -1e-300]),
                           V=np.eye(3)[:, :2])

    def test_zero_sigma_accepted(self):
        f = LowRankFactors(U=np.eye(3)[:, :2], sigma=np.array([1.0, 0.0]), V=np.eye(4)[:, :2])
        expected = np.zeros((3, 4))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(f.reconstruct(), expected)

    @pytest.mark.parametrize("bad", ["nan_U", "nan_sigma", "nan_V", "inf_sigma"])
    def test_validation_rejects_nonfinite(self, bad):
        # each check must fail on NaN, which compares False both ways
        Q = np.eye(3)[:, :2]
        U, sigma, V = Q.copy(), np.array([2.0, 1.0]), Q.copy()
        if bad == "nan_U":
            U[0, 0] = np.nan
        elif bad == "nan_sigma":
            sigma[1] = np.nan
        elif bad == "nan_V":
            V[:] = np.nan
        else:
            U, sigma, V = Q[:, :1], np.array([np.inf]), Q[:, :1]
        with pytest.raises(ValueError):
            LowRankFactors(U=U, sigma=sigma, V=V)


class TestProjectTangent:
    def _axis_tangent(self):
        U = np.array([[1.0], [0.0]], dtype=complex)
        return LowRankFactors(U=U, sigma=np.ones(1), V=U.copy())

    def test_orthogonal_complement_maps_to_zero(self):
        T = self._axis_tangent()
        W = np.array([[0.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(project_tangent(W, T), np.zeros((2, 2)), atol=1e-14)

    def test_hand_expanded_case(self):
        T = self._axis_tangent()
        W = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(project_tangent(W, T),
                                   [[1.0, 2.0], [3.0, 0.0]], atol=1e-14)

    def test_fixes_its_range(self):
        rng = np.random.default_rng(3)
        f = truncate_rank(crandn(rng, 8, 6), 2)
        N, M = crandn(rng, 6, 2), crandn(rng, 8, 2)
        W = f.U @ N.conj().T + M @ f.V.conj().T
        out = project_tangent(W, f)
        assert np.linalg.norm(out - W) <= 1e-12 * np.linalg.norm(W)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        f = truncate_rank(crandn(rng, 9, 7), 3)
        W = crandn(rng, 9, 7)
        P1 = project_tangent(W, f)
        P2 = project_tangent(P1, f)
        assert np.linalg.norm(P2 - P1) <= 1e-12 * max(np.linalg.norm(P1), 1.0)

    def test_self_adjoint_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m, p = int(rng.integers(4, 10)), int(rng.integers(4, 10))
            r = int(rng.integers(1, min(m, p) // 2 + 1))
            T = truncate_rank(crandn(rng, m, p), r)
            W1, W2 = crandn(rng, m, p), crandn(rng, m, p)
            lhs = np.vdot(project_tangent(W1, T), W2)
            rhs = np.vdot(W1, project_tangent(W2, T))
            assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(W1) * np.linalg.norm(W2))

    def test_shape_mismatch(self):
        T = self._axis_tangent()
        with pytest.raises(ValueError):
            project_tangent(np.zeros((3, 2)), T)


class TestTruncateRankOperator:
    def test_matches_dense_singular_values(self):
        rng = np.random.default_rng(6)
        M = crandn(rng, 20, 14)
        f_op = truncate_rank_operator(lambda v: M @ v, lambda u: M.conj().T @ u,
                                      M.shape, 3)
        f_dense = truncate_rank(M, 3)
        np.testing.assert_allclose(f_op.sigma, f_dense.sigma, rtol=1e-8)

    def test_matches_dense_reconstruction_with_gap(self):
        rng = np.random.default_rng(6)
        Q1 = np.linalg.qr(crandn(rng, 20, 20))[0]
        Q2 = np.linalg.qr(crandn(rng, 14, 14))[0]
        svals = np.array([5.0, 3.0, 2.0] + [1e-3] * 11)
        M = (Q1[:, :14] * svals[None, :]) @ Q2.conj().T
        f_op = truncate_rank_operator(lambda v: M @ v, lambda u: M.conj().T @ u,
                                      M.shape, 3)
        f_dense = truncate_rank(M, 3)
        np.testing.assert_allclose(f_op.sigma, f_dense.sigma, rtol=1e-8)
        assert np.linalg.norm(f_op.reconstruct() - f_dense.reconstruct()) \
            <= 1e-8 * f_dense.sigma[0]

    def test_rank_one_operator(self):
        rng = np.random.default_rng(7)
        u, v = crandn(rng, 12), crandn(rng, 9)
        M = np.outer(u, v.conj())
        f = truncate_rank_operator(lambda x: M @ x, lambda x: M.conj().T @ x,
                                   M.shape, 1)
        assert f.rank == 1
        assert abs(f.sigma[0] - np.linalg.norm(u) * np.linalg.norm(v)) \
            <= 1e-10 * f.sigma[0]
        # factors align with u, v up to a unit phase
        phase = np.vdot(f.U[:, 0], u / np.linalg.norm(u))
        assert abs(abs(phase) - 1.0) < 1e-8

    def test_lifted_model_singular_values(self):
        m = synth_model(2, 32, 3, 17)
        dims = choose_dims(32, 2)
        X = build_signal(m)
        f = truncate_lift(X, dims, 3).factors
        dense = np.linalg.svd(lift(X, dims), compute_uv=False)[:3]
        np.testing.assert_allclose(f.sigma, dense, rtol=1e-8)

    def test_truncate_lift_is_the_point_of_the_operator_svd(self):
        # the point on dims whose factors are, bit for bit, those of the
        # operator SVD on the same FFT products
        m = synth_model(2, 32, 3, 17)
        dims = choose_dims(32, 2)
        X = build_signal(m)
        point = truncate_lift(X, dims, 3, seed=4)
        assert isinstance(point, FactorSpectrum) and point.dims == dims
        spectrum = SignalSpectrum(X, dims)
        want = truncate_rank_operator(lambda v: lift_matvec(spectrum, v),
                                      lambda u: lift_rmatvec(spectrum, u),
                                      dims.lifted_shape, 3, seed=4)
        for name in ("U", "sigma", "V"):
            np.testing.assert_array_equal(getattr(point.factors, name), getattr(want, name))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_truncate_lift_rejects_a_nonfinite_signal(self, bad):
        dims = choose_dims(32, 2)
        X = build_signal(synth_model(2, 32, 3, 17))
        X[0, 9] = bad
        with pytest.raises(ValueError, match="finite"):
            truncate_lift(X, dims, 3)

    @pytest.mark.parametrize("e", [600, -600])
    def test_truncate_lift_scales_with_its_signal_bit_for_bit(self, e):
        # At 2**600 the Krylov products of the lift overflow and at 2**-600
        # they underflow; truncate_lift takes them at unit scale, so the
        # factors are the unscaled signal's and sigma scales exactly.
        dims = choose_dims(32, 2)
        X = build_signal(synth_model(2, 32, 3, 17))
        want = truncate_lift(X, dims, 3).factors
        got = truncate_lift(X * 2.0 ** e, dims, 3).factors
        np.testing.assert_array_equal(got.U, want.U)
        np.testing.assert_array_equal(got.V, want.V)
        np.testing.assert_array_equal(got.sigma, np.ldexp(want.sigma, e))

    def test_truncate_lift_of_a_huge_signal(self):
        dims = choose_dims(32, 2)
        X = build_signal(synth_model(2, 32, 3, 17))
        want = truncate_lift(X, dims, 3).factors
        got = truncate_lift(X * 1e200, dims, 3).factors
        np.testing.assert_allclose(got.sigma, 1e200 * want.sigma, rtol=1e-12)
        np.testing.assert_allclose(got.reconstruct() / 1e200, want.reconstruct(),
                                   rtol=0, atol=1e-10 * want.sigma[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e306, 1e307])
    def test_truncate_lift_past_the_float_range(self, scale):
        # X's entries are finite but its lift's norm is not; that is refused
        # before sigma is scaled back, so nothing overflows on the way
        _, dims, _, X, _ = synth_instance(64, 2, 2, 3)
        with pytest.raises(ValueError, match="^the norm of the lift overflows$"):
            truncate_lift(X * scale, dims, 2)

    def test_truncate_lift_at_the_edge_of_the_float_range(self):
        # sigma_1 = m 2**k with m < 1 scales to m 2**1024 at 2**(1024 - k),
        # which is still a float; one power of two more is not
        _, dims, _, X, _ = synth_instance(64, 2, 2, 3)
        sigma = truncate_lift(X, dims, 2).factors.sigma
        j = 1024 - int(np.frexp(sigma[0])[1])
        got = truncate_lift(X * 2.0 ** j, dims, 2).factors.sigma
        np.testing.assert_array_equal(got, np.ldexp(sigma, j))
        with pytest.raises(ValueError, match="^the norm of the lift overflows$"):
            truncate_lift(X * 2.0 ** (j + 1), dims, 2)

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        # 30 columns, so a budget of 10 basis columns (five blocks of 2)
        # leaves the basis short of the full row space, where Rayleigh-Ritz
        # would be exact
        rng = np.random.default_rng(8)
        M = crandn(rng, 40, 30)
        monkeypatch.setattr(lowrank, "_MAX_COLUMNS", 10)
        with pytest.raises(RankTruncationError, match="within 10 Krylov basis columns") as excinfo:
            truncate_rank_operator(lambda v: M @ v, lambda u: M.conj().T @ u,
                                   M.shape, 2, tol=1e-30)
        assert excinfo.value.residual >= 0.0

    @pytest.mark.parametrize("r", [0, 12])
    def test_rank_out_of_range_raises(self, r):
        M = np.ones((15, 11))
        with pytest.raises(ValueError, match="r >= 1|exceeds operator shape"):
            truncate_rank_operator(lambda v: M @ v, lambda u: M.T @ u, M.shape, r)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(9)
        M = crandn(rng, 15, 11)
        args = (lambda v: M @ v, lambda u: M.conj().T @ u, M.shape, 2)
        f1 = truncate_rank_operator(*args)
        f2 = truncate_rank_operator(*args)
        np.testing.assert_array_equal(f1.U, f2.U)
        np.testing.assert_array_equal(f1.sigma, f2.sigma)


class TestProjectTangentTruncate:
    def test_matches_dense_composition(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m, p = int(rng.integers(8, 16)), int(rng.integers(8, 16))
            r = int(rng.integers(1, 4))
            T = truncate_rank(crandn(rng, m, p), r)
            M = crandn(rng, m, p)
            fast = project_tangent_truncate(M @ T.V, M.conj().T @ T.U, T)
            dense = truncate_rank(project_tangent(M, T), r)
            scale = max(dense.sigma[0], 1.0)
            assert np.linalg.norm(fast.reconstruct() - dense.reconstruct()) \
                <= 1e-10 * scale

    def test_degenerate_input_already_in_tangent(self):
        # at a fixed point the off-space blocks vanish; the stacked QR must
        # still produce orthonormal factors
        rng = np.random.default_rng(11)
        f = truncate_rank(crandn(rng, 12, 9), 2)
        M = f.reconstruct()
        out = project_tangent_truncate(M @ f.V, M.conj().T @ f.U, f)
        assert np.linalg.norm(out.reconstruct() - M) <= 1e-10 * f.sigma[0]

    def test_zero_input_gives_zero_triplets(self):
        # the Householder completion fills in the zero off-space blocks
        rng = np.random.default_rng(13)
        f = truncate_rank(crandn(rng, 9, 8), 2)
        out = project_tangent_truncate(np.zeros((9, 2)), np.zeros((8, 2)), f)
        assert out.rank == 2
        np.testing.assert_array_equal(out.sigma, np.zeros(2))

    @pytest.mark.parametrize("deficient", ["U", "V"])
    def test_one_side_falls_back(self, deficient, monkeypatch):
        # Only one off-tangent block is rank-deficient, so only its side
        # takes the Householder completion, and the other keeps CholeskyQR2.
        rng = np.random.default_rng(15)
        m, p, k = 13, 10, 2
        U = np.linalg.qr(crandn(rng, m, k))[0]
        V = np.linalg.qr(crandn(rng, p, k))[0]
        Pu, Pv = np.eye(m) - U @ U.conj().T, np.eye(p) - V @ V.conj().T
        B, D = Pu @ crandn(rng, m, k), Pv @ crandn(rng, p, k)
        if deficient == "U":
            B = np.outer(Pu @ crandn(rng, m), crandn(rng, k))
        else:
            D = np.outer(Pv @ crandn(rng, p), crandn(rng, k))
        # M V - U U^H M V = B and (I - V V^H) M^H U = D
        M = (U @ (crandn(rng, k, k) @ V.conj().T + D.conj().T) + B @ V.conj().T
             + Pu @ crandn(rng, m, p) @ Pv)
        point = LowRankFactors(U=U, sigma=np.ones(k), V=V)
        fallen = []
        householder = lowrank._householder_completion

        def recorded(basis, block):
            fallen.append("U" if basis is U else "V" if basis is V else "?")
            return householder(basis, block)

        monkeypatch.setattr(lowrank, "_householder_completion", recorded)
        got = project_tangent_truncate(M @ V, M.conj().T @ U, point)
        assert fallen == [deficient]
        want = truncate_rank(project_tangent(M, point), k)
        assert np.linalg.norm(got.reconstruct() - want.reconstruct()) <= 1e-12 * want.sigma[0]

    def test_tangent_rank_too_large_raises(self):
        rng = np.random.default_rng(14)
        f = truncate_rank(crandn(rng, 9, 5), 3)  # 2k = 6 > 5 columns
        M = crandn(rng, 9, 5)
        with pytest.raises(ValueError, match="tangent rank 3 too large"):
            project_tangent_truncate(M @ f.V, M.conj().T @ f.U, f)

    def test_nonfinite_core_raises(self):
        rng = np.random.default_rng(12)
        f = truncate_rank(crandn(rng, 12, 9), 2)
        M = crandn(rng, 12, 9)
        MV = M @ f.V
        MV[3, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="projected core"):
            project_tangent_truncate(MV, M.conj().T @ f.U, f)


class TestRowBlocks:
    def test_blocks_cover_the_rows_with_no_short_block(self, monkeypatch):
        monkeypatch.setattr(lowrank, "_BLOCK_ROWS", 8)
        assert lowrank._row_blocks(5) == [slice(0, 5)]
        assert lowrank._row_blocks(16) == [slice(0, 8), slice(8, 16)]
        assert lowrank._row_blocks(29) == [slice(0, 8), slice(8, 16), slice(16, 29)]

    @pytest.mark.parametrize("deficient", [False, True])
    def test_blocked_truncation_matches_one_block(self, deficient, monkeypatch):
        # The in-place updates of project_tangent_truncate, on blocks of 8
        # rows, give the factors of whole-factor updates bit for bit, on the
        # CholeskyQR2 path and on the Householder fallback.  _hermitian sums
        # over blocks of 8 rows in both runs.
        rng = np.random.default_rng(16)
        m, p, k = 3 * 8 + 5, 2 * 8 + 3, 2
        U = np.linalg.qr(crandn(rng, m, k))[0]
        V = np.linalg.qr(crandn(rng, p, k))[0]
        MV, MhU = crandn(rng, m, k), crandn(rng, p, k)
        if deficient:
            MV = U @ crandn(rng, k, k) + np.outer(crandn(rng, m), crandn(rng, k))
        point = LowRankFactors(U=U, sigma=np.ones(k), V=V)
        monkeypatch.setattr(lowrank, "_BLOCK_ROWS", 8)
        blocked = project_tangent_truncate(MV, MhU, point)
        monkeypatch.setattr(lowrank, "_row_blocks", lambda rows: [slice(0, rows)])
        whole = project_tangent_truncate(MV, MhU, point)
        for name in ("U", "sigma", "V"):
            np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name))


class TestComplete:
    @pytest.mark.parametrize("deficient", [False, True])
    def test_both_projections_match_a_preprojected_block(self, deficient):
        # _complete(U, MU, A) forms B = MU - U A itself; with A = 0 it takes
        # B = MU - 0 = MU bit for bit, so the right-hand side below completes
        # the block projected once outside, MU - U A, with the same
        # operations.  The block is taller than _BLOCK_ROWS, so its second
        # projection and Q are formed block by block, on the CholeskyQR2
        # path and on the Householder fallback.
        rng = np.random.default_rng(17)
        m, k = 2 * lowrank._BLOCK_ROWS + 5, 3
        U = np.linalg.qr(crandn(rng, m, k))[0]
        MU = crandn(rng, m, k)
        if deficient:
            MU = U @ crandn(rng, k, k) + np.outer(crandn(rng, m), crandn(rng, k))
        A = U.conj().T @ MU
        with mock.patch.object(lowrank, "_householder_completion",
                               wraps=lowrank._householder_completion) as fallback:
            got = lowrank._complete(U, MU, A)
            assert fallback.called == deficient
            want = lowrank._complete(U, MU - U @ A, np.zeros((k, k), dtype=complex))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestHermitian:
    def test_blocked_product_matches_plain(self):
        # more rows than one block, and a partial last block
        rng = np.random.default_rng(13)
        m = 2 * lowrank._BLOCK_ROWS + 3
        X, Y = crandn(rng, m, 3), crandn(rng, m, 2)
        np.testing.assert_allclose(lowrank._hermitian(X, Y), X.conj().T @ Y,
                                   rtol=0, atol=1e-12 * m)
