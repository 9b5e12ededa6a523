"""Property tests: the dense lift's identities, and the FFT products and the
tangent truncation against dense oracles."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hankelsr import lowrank
from hankelsr.checks import reference_step
from hankelsr.hankel import (FactorSpectrum, SignalSpectrum, adjoint_lift,
                             adjoint_lift_isometric, adjoint_lift_lowrank,
                             adjoint_lift_tangent, choose_dims, lift,
                             lift_isometric, lift_matvec, lift_rmatvec,
                             pinv_lift, pinv_lift_lowrank)
from hankelsr.lowrank import (LowRankFactors, crandn, project_tangent,
                              project_tangent_truncate, truncate_rank,
                              truncate_rank_operator)
from hankelsr.model import adjoint_measure, measure
from hankelsr.solver import Iterate, SolverConfig, iterate_once, relative_error

# Few, reproducible examples: each draws a fresh shape, so a handful covers
# the edge splits without slowing the suite.
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def lifts(draw):
    """A random signal and split: s=1, n1 in {1, n}, odd and non-power-of-two n."""
    n = draw(st.integers(2, 40))
    s = draw(st.integers(1, 4))
    n1 = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = choose_dims(n, s, n1)
    return dims, crandn(rng, s, n), k, rng


def random_point(dims, k, rng):
    """A FactorSpectrum of random orthonormal factors, k capped by the lifted shape."""
    k = min(k, *dims.lifted_shape)
    U = np.linalg.qr(crandn(rng, dims.s * dims.n1, k))[0]
    V = np.linalg.qr(crandn(rng, dims.n2, k))[0]
    sigma = np.sort(rng.uniform(0.1, 2.0, k))[::-1]
    return FactorSpectrum(LowRankFactors(U=U, sigma=sigma, V=V), dims)


def assert_close(actual, expected):
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12 * scale)


@PROPERTY
@given(lifts())
def test_lift_adjoint_identity(case):
    dims, X, _, rng = case
    Z = crandn(rng, *dims.lifted_shape)
    lifted = lift(X, dims)
    defect = abs(np.vdot(lifted, Z) - np.vdot(X, adjoint_lift(Z, dims)))
    assert defect <= 1e-12 * np.linalg.norm(lifted) * np.linalg.norm(Z)


@PROPERTY
@given(lifts())
def test_pinv_lift_inverts_lift(case):
    dims, X, _, _ = case
    assert_close(pinv_lift(lift(X, dims), dims), X)


@PROPERTY
@given(lifts())
def test_isometric_lift_inverse_and_isometry(case):
    dims, X, _, _ = case
    Z = lift_isometric(X, dims)
    assert_close(adjoint_lift_isometric(Z, dims), X)
    assert abs(np.linalg.norm(Z) - np.linalg.norm(X)) <= 1e-12 * np.linalg.norm(X)


@PROPERTY
@given(lifts())
def test_lift_matvec_matches_dense(case):
    dims, X, k, rng = case
    v = crandn(rng, dims.n2, k)
    out = lift_matvec(SignalSpectrum(X, dims), v)
    assert out.shape == (dims.s * dims.n1, k)
    assert out.flags.f_contiguous  # column-major, the layout lowrank's products read
    assert_close(out, lift(X, dims) @ v)


@PROPERTY
@given(lifts())
def test_lift_rmatvec_matches_dense(case):
    dims, X, k, rng = case
    u = crandn(rng, dims.s * dims.n1, k)
    out = lift_rmatvec(SignalSpectrum(X, dims), u)
    assert out.shape == (dims.n2, k)
    assert out.flags.f_contiguous
    assert_close(out, lift(X, dims).conj().T @ u)


@PROPERTY
@given(lifts())
def test_adjoint_lift_lowrank_matches_dense(case):
    dims, _, k, rng = case
    point = random_point(dims, k, rng)
    assert_close(adjoint_lift_lowrank(point), adjoint_lift(point.factors.reconstruct(), dims))


@PROPERTY
@given(lifts())
def test_adjoint_lift_tangent_matches_dense(case):
    """The tangent de-lift against the dense adjoint lift of U N^H + M V^H.

    It reads the point's spectra and leaves them as computed.
    """
    dims, _, k, rng = case
    point = random_point(dims, k, rng)
    U, V = point.factors.U, point.factors.V
    N = crandn(rng, dims.n2, U.shape[1])
    M = crandn(rng, dims.s * dims.n1, U.shape[1])
    FU, FV = point.FU.copy(), point.FV.copy()
    assert_close(adjoint_lift_tangent(point, N, M),
                 adjoint_lift(U @ N.conj().T + M @ V.conj().T, dims))
    np.testing.assert_array_equal(point.FU, FU)
    np.testing.assert_array_equal(point.FV, FV)


@PROPERTY
@given(lifts())
def test_factor_spectrum_matches_raw_blocks_and_dense(case):
    """Products and de-lift read from a FactorSpectrum, against raw blocks and the dense lift.

    The products take raw blocks through the same kernel after their own
    transforms, so the two agree bitwise; reading the spectra leaves them
    as computed.
    """
    dims, X, k, rng = case
    point = random_point(dims, k, rng)
    U, V = point.factors.U, point.factors.V
    lifted = SignalSpectrum(X, dims)
    Z = lift(X, dims)
    for got, raw, dense in ((lift_matvec(lifted, point), lift_matvec(lifted, V), Z @ V),
                            (lift_rmatvec(lifted, point), lift_rmatvec(lifted, U),
                             Z.conj().T @ U)):
        np.testing.assert_array_equal(got, raw)
        assert got.flags.f_contiguous
        assert_close(got, dense)
    assert_close(pinv_lift_lowrank(point), pinv_lift(point.factors.reconstruct(), dims))
    fresh = FactorSpectrum(point.factors, dims)
    np.testing.assert_array_equal(point.FU, fresh.FU)
    np.testing.assert_array_equal(point.FV, fresh.FV)


# Off-tangent blocks: random ones are well conditioned; zero, rank-one and
# ill-conditioned (by their condition number) ones are not.
BLOCK_KINDS = ["zero", "rank_one", "random", 1e6, 1e9, 1e13]


def off_tangent(rng, kind, U, k):
    """An (m, k) block orthogonal to the orthonormal columns of U."""
    m = U.shape[0]
    P = np.eye(m) - U @ U.conj().T
    if kind == "zero":
        return np.zeros((m, k), dtype=complex)
    if kind == "rank_one":
        return np.outer(P @ crandn(rng, m), crandn(rng, k))
    if kind == "random":
        return P @ crandn(rng, m, k)
    left = np.linalg.qr(P @ crandn(rng, m, k))[0]
    right = np.linalg.qr(crandn(rng, k, k))[0]
    return (left * np.geomspace(1.0, 1.0 / kind, k)) @ right.conj().T


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 3 * 5),
       st.sampled_from(BLOCK_KINDS))
def test_complete_cholesky_qr2_or_householder_fallback(seed, k, extra_rows, kind):
    """Well-conditioned blocks take CholeskyQR2, the rest the stacked Householder QR."""
    rng = np.random.default_rng(seed)
    m = 3 * k + extra_rows
    U = np.linalg.qr(crandn(rng, m, k))[0]
    B = off_tangent(rng, kind, U, k)
    A = crandn(rng, k, k)
    MU = B + U @ A  # unprojected; _complete takes both projections
    with mock.patch.object(lowrank, "_householder_completion",
                           wraps=lowrank._householder_completion) as fallback:
        Q, F, R1 = lowrank._complete(U, MU, A)
    assert fallback.called == (kind != "random")
    assert Q.shape == (m, k) and F.shape == R1.shape == (k, k)
    Q1 = Q @ F
    UQ = np.hstack([U, Q1])
    assert np.max(np.abs(UQ.conj().T @ UQ - np.eye(2 * k))) <= 1e-12
    assert np.linalg.norm(Q1 @ R1 - B) <= 1e-12 * np.linalg.norm(B)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 3),
       st.sampled_from(BLOCK_KINDS), st.sampled_from(BLOCK_KINDS))
def test_project_tangent_truncate_degenerate_off_tangent_blocks(seed, k, b_kind, d_kind):
    """P_T(M) = U A + B V^H with B or D zero, rank-deficient or ill-conditioned still truncates exactly."""
    rng = np.random.default_rng(seed)
    m, p = 5 * k + 3, 4 * k + 2
    U = np.linalg.qr(crandn(rng, m, k))[0]
    V = np.linalg.qr(crandn(rng, p, k))[0]
    Pu, Pv = np.eye(m) - U @ U.conj().T, np.eye(p) - V @ V.conj().T

    # M = U (core V^H + D^H) + B V^H + (a part the tangent projection removes),
    # so that M V - U U^H M V = B and (I - V V^H) M^H U = D.
    B = off_tangent(rng, b_kind, U, k)
    D = off_tangent(rng, d_kind, V, k)
    core = crandn(rng, k, k)
    M = U @ (core @ V.conj().T + D.conj().T) + B @ V.conj().T + Pu @ crandn(rng, m, p) @ Pv
    point = LowRankFactors(U=U, sigma=np.ones(k), V=V)
    svals = np.linalg.svd(project_tangent(M, point), compute_uv=False)
    assume(svals[k - 1] - svals[k] > 1e-6 * svals[0])  # a well-defined rank-k truncation

    got = project_tangent_truncate(M @ point.V, M.conj().T @ point.U, point)
    # Re-validating the factors re-runs LowRankFactors' orthonormality check.
    LowRankFactors(U=got.U, sigma=got.sigma, V=got.V)
    want = truncate_rank(project_tangent(M, point), k).reconstruct()
    np.testing.assert_allclose(got.reconstruct(), want, rtol=0, atol=1e-10 * svals[0])


@PROPERTY
@given(lifts())
def test_dense_step_matches_reference_step(case):
    """iterate_once against the full-SVD step on every feasible split, up to 2r = min(s*n1, n2)."""
    dims, X, k, rng = case
    r = min(k, min(dims.lifted_shape) // 2)
    assume(r >= 1)
    B = rng.standard_normal((dims.s, dims.n))
    y = crandn(rng, dims.n)
    cfg = SolverConfig(rank=r, step_size=0.5)
    factors = truncate_rank(lift(X, dims), r)
    # Both steps start from the de-lift of the rank-r point.
    it = Iterate.at(FactorSpectrum(factors, dims), y, B)
    Xt = it.X - cfg.step_size * adjoint_measure(measure(it.X, B) - y, B)
    svals = np.linalg.svd(project_tangent(lift(Xt, dims), factors), compute_uv=False)
    assume(svals[r - 1] - svals[r] > 1e-3 * svals[0])  # a well-defined rank-r truncation

    X_new = iterate_once(it, y, B, cfg).X
    X_ref, _ = reference_step(it.X, y, B, dims, cfg, factors)
    assert relative_error(X_new, X_ref) < 1e-10


@st.composite
def hard_spectra(draw):
    """A matrix, a rank r and the kind of its spectrum, one of the operator SVD's hard kinds.

    The operator SVD runs blocks of width r.  ``flat_tail``: sigma_{r+1}/sigma_r
    in [0.9, 0.99], the tail decaying as slowly; ``low_rank``: exact rank
    below 2r, so the second Krylov block (rank below r) or the third (rank
    between r and 2r) is rank-deficient, and at rank r the second block
    completes the row space; ``zero``: the zero operator; ``one_block``: r
    columns, so the first block fills the row space.
    """
    kind = draw(st.sampled_from(["flat_tail", "low_rank", "zero", "one_block"]))
    r = draw(st.integers(1, 4))
    m = draw(st.integers(r, 48))
    p = r if kind == "one_block" else draw(st.integers(r + 1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = min(m, p)
    sigma = np.sort(rng.uniform(0.2, 1.0, d))[::-1]
    if kind == "flat_tail":
        ratio = draw(st.floats(0.9, 0.99))
        sigma[r:] = sigma[r - 1] * ratio ** np.arange(1, d - r + 1)
    elif kind == "low_rank":
        sigma[draw(st.integers(1, 2 * r - 1)):] = 0.0
    elif kind == "zero":
        sigma[:] = 0.0
    Q1 = np.linalg.qr(crandn(rng, m, d))[0]
    Q2 = np.linalg.qr(crandn(rng, p, d))[0]
    return (Q1 * sigma) @ Q2.conj().T, r, kind


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hard_spectra())
def test_operator_svd_matches_dense_on_hard_spectra(case):
    # Singular values are second order in the subspace error, so they match
    # to 1e-8 sigma_1 on every kind.  So do the reconstructions where the
    # Krylov space is exact (deflation, zero operator, one block).  On a flat
    # tail the reconstruction is first order in the subspace angle, which
    # the certificate bounds by about _CERTIFICATE_TOL (residual over Ritz
    # gap), so its error by about _CERTIFICATE_TOL sigma_r.
    M, r, kind = case
    f = truncate_rank_operator(lambda v: M @ v, lambda u: M.conj().T @ u, M.shape, r)
    ref = truncate_rank(M, r)
    assert f.rank == ref.rank == r
    for Q in (f.U, f.V):
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(r))) <= 1e-10
    sv = np.linalg.svd(M, compute_uv=False)
    assert np.max(np.abs(f.sigma - ref.sigma)) <= 1e-8 * sv[0]
    bound = 1e-8 * sv[0]
    if kind == "flat_tail" and len(sv) > r:
        bound = lowrank._CERTIFICATE_TOL * sv[r - 1]
    assert np.linalg.norm(f.reconstruct() - ref.reconstruct()) <= bound
