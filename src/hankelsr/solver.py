"""Rank-constrained iterative hard thresholding for coded point-source data.

The solver recovers an s-by-n signal matrix whose block-Hankel lift has rank
r from one coded scalar observation per column.  It starts from a spectral
initialization (back-project the data, lift, hard-threshold to rank r,
de-lift) and then repeats: gradient step on the data misfit, lift, project
onto the current fixed-rank tangent space, hard-threshold to rank r, de-lift.

An iteration never forms the lifted matrix: it takes the products of the
lift of the gradient step with the current factors by FFTs, projects and
truncates in one step through the SVD of a 2r-by-2r core
(``lowrank.project_tangent_truncate``) and de-lifts the rank-r factors by
FFTs, at O(r^2 s n + r s n log n) per iteration.  Each iteration maps one
``Iterate`` to the next.  ``Iterate.at`` builds one from a rank-r point of
the lift (a ``hankel.FactorSpectrum``, which holds the rank): it de-lifts
the point to X and takes X's residual, both finite; the next step's
products read the point's spectra, so each factor is transformed once, and
then release them.  The start is the point ``hankel.truncate_lift`` gives
for the lifted back-projection, seeded by ``config.seed`` and certified to
_INIT_CERTIFICATE_TOL.

``SolverConfig`` owns the solver's defaults, which the command line reads
from it, and rejects invalid ones when built; ``HankelDims.check_rank`` owns
the one rank rule, 2r <= min(s*n1, n2), that ``solve``, ``initialize`` and
``iterate_once`` enforce.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from . import hankel
from .hankel import FactorSpectrum, HankelDims, _ldexp, _unit_exponent
from .lowrank import LowRankFactors, project_tangent_truncate
from .model import adjoint_measure, measure

MODES = ("dense", "fast")

# Stopping rules of ``solve``: stagnation after _STAGNATION_WINDOW steps in a
# row shorter than _STAGNATION_TOL times the iterate's norm; divergence after
# _DIVERGENCE_WINDOW residuals in a row above _DIVERGENCE_FACTOR times the
# running minimum.
_STAGNATION_TOL = 1e-14
_STAGNATION_WINDOW = 5
_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_WINDOW = 10
# Certificate of the initialization's operator SVD (residual over Ritz gap).
# The start only has to lie inside the basin of the iteration, which removes
# the rest of its error, so it needs less than the diagnostics' 1.2e-6: at
# s=4, r=5, 7-14 blocks at n=256 instead of 10-19, 4 at n=65536 instead of
# 5, with the same terminations and iteration counts on every instance
# measured.  1e-2 saves one or two blocks more, but moves the report's
# initialization distance by up to 8e-5 relative (1e-3: under 5e-6).
_INIT_CERTIFICATE_TOL = 1e-3


class DivergenceError(RuntimeError):
    """Raised when a gradient update or an iterate (its X or residual norm) is not finite."""


@dataclass(frozen=True)
class SolverConfig:
    rank: int
    max_iters: int = 300
    residual_tol: float = 1e-10
    # Inert: nothing reads it but the check below.  It stays only while the
    # benchmark script, bench/run.py, builds SolverConfig(mode=...), and goes
    # with that argument (ROADMAP direction 1, the benchmark PR).
    mode: str = "fast"
    # Half the verbatim gradient step: at the default experiment scale
    # (n=256, s=4, r=5) the unit step routinely leaves the contraction region.
    step_size: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("rank", "max_iters", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, "
                                 f"got {getattr(self, name)!r}") from None
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0):
            raise ValueError(f"residual_tol must be finite and positive, "
                             f"got {self.residual_tol}")
        if not (math.isfinite(self.step_size) and self.step_size >= 0):
            raise ValueError(f"step_size must be finite and >= 0, got {self.step_size}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    residual: float
    rel_error: float | None
    elapsed_s: float


@dataclass
class ConvergenceTrace:
    """One record per completed iteration, plus the t=0 initialization record.

    ``returned_iteration`` is the iteration of the estimate ``solve``
    returned: the last one run, or after a divergence the best by residual.
    """

    records: list[TraceRecord] = field(default_factory=list)
    termination: str = ""
    returned_iteration: int = 0

    @property
    def iterations(self) -> np.ndarray:
        return np.array([rec.iteration for rec in self.records])

    @property
    def residuals(self) -> np.ndarray:
        return np.array([rec.residual for rec in self.records])

    @property
    def rel_errors(self) -> np.ndarray:
        return np.array([np.nan if rec.rel_error is None else rec.rel_error
                         for rec in self.records])


@dataclass(frozen=True)
class Iterate:
    """One iterate of ``solve``: X, the de-lift of its ``FactorSpectrum`` point,
    X's data residual measure(X, B) - y and that residual's norm, and its
    iteration, all built from the point by ``Iterate.at``.  An iterate is finite:
    one with a non-finite X or residual norm raises ``DivergenceError``."""

    X: np.ndarray
    point: FactorSpectrum
    residual: np.ndarray
    residual_norm: float
    iteration: int

    def __post_init__(self):
        if not (math.isfinite(self.residual_norm) and np.all(np.isfinite(self.X))):
            raise DivergenceError("iterate is not finite")

    @classmethod
    def at(cls, point: FactorSpectrum, y: np.ndarray, B: np.ndarray,
           iteration: int = 0) -> Iterate:
        X = hankel.pinv_lift_lowrank(point)
        residual = measure(X, B) - y
        return cls(X, point, residual, float(np.linalg.norm(residual)), iteration)


def relative_error(X: np.ndarray, X_ref: np.ndarray) -> float:
    """Frobenius-norm error of X relative to a nonzero reference, both norms taken
    at the reference's unit scale (``_unit_exponent``), so any finite scale works."""
    X, X_ref = np.asarray(X), np.asarray(X_ref)
    if X.shape != X_ref.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {X_ref.shape}")
    e = _unit_exponent(X_ref)
    X, X_ref = _ldexp(X, -e), _ldexp(X_ref, -e)
    denom = np.linalg.norm(X_ref)
    if denom == 0:
        raise ValueError("reference matrix must be nonzero")
    return float(np.linalg.norm(X - X_ref) / denom)


def _unit_data(y: np.ndarray, B: np.ndarray, dims: HankelDims, rank: int,
               ) -> tuple[np.ndarray, np.ndarray, int, float]:
    """y / 2**e at unit scale (``_unit_exponent``), B, e and the norm of y / 2**e, after the
    checks that ``solve`` and ``initialize`` make first: data, rank, that norm by ``_ldexp``."""
    y, B = np.asarray(y), np.asarray(B)
    if B.shape != (dims.s, dims.n) or y.shape != (dims.n,):
        raise ValueError("y/B shapes inconsistent with dims")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(B))):
        raise ValueError("y and B must be finite")
    e = _unit_exponent(y)
    y = _ldexp(y, -e)
    norm = float(np.linalg.norm(y))
    _ldexp(norm, e, "the norm of y")
    dims.check_rank(rank)
    return y, B, e, norm


@np.errstate(over="raise", invalid="raise")
def _initialize_factors(y: np.ndarray, B: np.ndarray, dims: HankelDims, config: SolverConfig,
                        ) -> Iterate:
    """Iteration 0: the de-lift of the rank-r truncation of the lifted back-projection.

    The truncation is the operator SVD seeded by ``config.seed`` and
    certified to _INIT_CERTIFICATE_TOL, the accuracy the iteration needs of
    its start, not the diagnostics' 1.2e-6; it takes its products with the
    lift by FFTs and never forms it.  It runs under ``np.errstate`` raising: a start whose
    de-lift or data misfit overflows has nothing to descend, so it gets one ``ValueError``.
    """
    try:
        return Iterate.at(hankel.truncate_lift(adjoint_measure(y, B), dims, config.rank,
                                               seed=config.seed, tol=_INIT_CERTIFICATE_TOL), y, B)
    except (FloatingPointError, DivergenceError):
        raise ValueError("the data misfit of the initialization overflows") from None


def initialize(y: np.ndarray, B: np.ndarray, dims: HankelDims, r: int) -> np.ndarray:
    """Spectral initialization of ``solve`` with seed 0.

    It is the start ``solve`` uses: the operator SVD on FFT products,
    certified to _INIT_CERTIFICATE_TOL, and the FFT de-lift.  It forms no
    lifted matrix, so it runs at any n that ``solve`` does.  Like ``solve``,
    it works on y scaled to unit size, so its estimate scales with y bit for
    bit, and it rejects the data, ranks, starts and estimates ``solve`` rejects.
    """
    config = SolverConfig(rank=r)
    y, B, e, _ = _unit_data(y, B, dims, config.rank)
    return _ldexp(_initialize_factors(y, B, dims, config).X, e, "the estimate")


def iterate_once(it: Iterate, y: np.ndarray, B: np.ndarray, config: SolverConfig) -> Iterate:
    """One solver iteration: the ``Iterate`` that follows ``it``.

    Takes a gradient step from ``it.residual``, lifts it, projects the lift
    onto the tangent space at ``it.point``, truncates to the point's rank and
    de-lifts; the new iterate carries the new point and its residual, the
    step's one ``measure``.  To start elsewhere than ``solve``'s
    initialization, take ``Iterate.at(hankel.truncate_lift(X, dims, r), y, B)``.
    Products and de-lift run by FFTs and the truncation through the 2r-by-2r
    core of ``project_tangent_truncate``, so no iteration forms the lift.
    It is ``Iterate.at`` of the point whose factors ``_truncated_step`` gives;
    ``solve`` makes the two calls itself and drops ``it`` between them.  A
    stage keeps alive only what a later one reads: the point's ``FU`` is
    released once ``lift_rmatvec`` has read it, before ``lift_matvec`` takes
    its spectra, and its ``FV`` after that; the gradient step dies once
    transformed, the two products before the new point's spectra are taken.
    So a step peaks near one point's spectra above its start; stepping from
    ``it`` again re-takes them and gives the same iterate.  Raises
    ``ValueError`` on an infeasible rank, as ``solve`` does, or on a
    ``config.rank`` other than the point's, and ``DivergenceError`` if the
    gradient update or the new iterate (X or its residual norm) is not finite.
    """
    return Iterate.at(FactorSpectrum(_truncated_step(it, y, B, config), it.point.dims), y, B,
                      it.iteration + 1)


def _truncated_step(it: Iterate, y: np.ndarray, B: np.ndarray, config: SolverConfig,
                    ) -> LowRankFactors:
    """``iterate_once`` short of its de-lift: the rank-r factors of the truncated
    tangent projection of the lifted gradient step from ``it``."""
    point, rank = it.point, it.point.factors.rank
    point.dims.check_rank(config.rank)
    if config.rank != rank:
        raise ValueError(f"config rank {config.rank} differs from the iterate's rank {rank}")
    Xt = it.X - config.step_size * adjoint_measure(it.residual, B)
    if not np.all(np.isfinite(Xt)):
        raise DivergenceError("gradient update is not finite")
    lifted = hankel.SignalSpectrum(Xt, point.dims)
    del Xt
    MhU = hankel.lift_rmatvec(lifted, point)
    point.release("FU")
    MV = hankel.lift_matvec(lifted, point)
    point.release("FV")
    del lifted
    return project_tangent_truncate(MV, MhU, point.factors)


def solve(y: np.ndarray, B: np.ndarray, dims: HankelDims, config: SolverConfig,
          ground_truth: np.ndarray | None = None,
          ) -> tuple[np.ndarray, ConvergenceTrace]:
    """Run the full solver: spectral initialization then hard-thresholded iterations.

    Starts from ``_initialize_factors``, then ``iterate_once`` maps one
    ``Iterate`` to the next.  Stops on a small relative data residual, on
    stagnation, at max_iters, or on divergence (residual growing well past its
    running minimum, or a step that fails, as
    ``diverged: <reason> at iteration t``), which returns the best iterate by
    residual.  The trace carries the residual, the relative error against
    ``ground_truth`` when supplied, wall-clock timestamps and the iteration of
    the returned estimate.  Raises ``ValueError`` before any work when y, B or
    ``ground_truth`` has the wrong shape or a non-finite entry, the norm of y
    exceeds the largest float, ``ground_truth`` is zero, or the rank is
    infeasible for the lift (``HankelDims.check_rank``), and when the start's lift
    or data misfit, its residual or the estimate overflows; ``RankTruncationError``
    if the start's operator SVD finds no certificate.  It solves for y / 2**e, whose
    largest entry lies in [1/2, 1), takes all norms at that scale and scales the
    estimate and residuals back by ``_ldexp``, whose refusal of a later one diverges.
    """
    y, B, e, y_norm = _unit_data(y, B, dims, config.rank)
    if ground_truth is not None and (np.shape(ground_truth) != (dims.s, dims.n)
                                     or not np.all(np.isfinite(ground_truth))
                                     or not np.any(ground_truth)):
        raise ValueError(f"ground_truth must be a finite nonzero {dims.s}x{dims.n} matrix")

    denom = y_norm or 1.0
    t_start = time.perf_counter()
    trace = ConvergenceTrace()

    def record(it):
        residual = float(_ldexp(it.residual_norm, e, "the residual"))
        rel_error = (relative_error(_ldexp(it.X, e), ground_truth)
                     if ground_truth is not None else None)
        trace.records.append(TraceRecord(it.iteration, residual, rel_error,
                                         time.perf_counter() - t_start))

    it = _initialize_factors(y, B, dims, config)
    record(it)
    # The best iterate by residual keeps only what a divergence returns, not
    # its point, and the old iterate is dropped before the new point's
    # spectra are taken: a solve holds one point at a time.
    best_norm, best = it.residual_norm, (it.X, it.iteration)
    returned = None
    stagnant = grown = 0
    termination = "max_iters"
    for t in range(1, config.max_iters + 1):
        X_prev = it.X
        try:
            new = _truncated_step(it, y, B, config)
            del it
            it = Iterate.at(FactorSpectrum(new, dims), y, B, t)
            record(it)
        except (DivergenceError, ValueError, np.linalg.LinAlgError) as exc:
            termination = f"diverged: {exc} at iteration {t}"
            returned = best
            break
        if it.residual_norm < best_norm:
            best_norm, best = it.residual_norm, (it.X, it.iteration)
        if it.residual_norm / denom <= config.residual_tol:
            termination = "converged"
            break
        step_norm, X_scale = np.linalg.norm(it.X - X_prev), np.linalg.norm(X_prev)
        stagnant = stagnant + 1 if step_norm < _STAGNATION_TOL * max(X_scale, 1e-300) else 0
        if stagnant >= _STAGNATION_WINDOW:
            termination = "stagnated"
            break
        grown = grown + 1 if it.residual_norm > _DIVERGENCE_FACTOR * best_norm else 0
        if grown >= _DIVERGENCE_WINDOW:
            termination = f"diverged: residual grew past its running minimum at iteration {t}"
            returned = best
            break

    X, trace.returned_iteration = returned or (it.X, it.iteration)
    trace.termination = termination
    return _ldexp(X, e, "the estimate"), trace
