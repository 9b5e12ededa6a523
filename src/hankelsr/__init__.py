"""Blind super-resolution of point sources via low-rank block-Hankel recovery."""

__version__ = "0.1.0"

from .hankel import (FactorSpectrum, HankelDims, SignalSpectrum, adjoint_lift,
                     adjoint_lift_isometric, adjoint_lift_lowrank, choose_dims,
                     lift, lift_isometric, lift_matvec, lift_rmatvec, pinv_lift,
                     pinv_lift_lowrank, truncate_lift)
from .lowrank import (LowRankFactors, RankTruncationError, project_tangent,
                      project_tangent_truncate, truncate_rank,
                      truncate_rank_operator)
from .model import (PointSourceModel, adjoint_measure, build_signal,
                    hankel_factorization, measure, sample_subspace,
                    steering_vector, synth_instance, synth_model)
from .solver import (ConvergenceTrace, DivergenceError, Iterate, SolverConfig,
                     TraceRecord, fiht, initialize, iterate_once, relative_error,
                     solve)
from .diagnostics import (AssumptionReport, assumption_report, estimate_rip_norm,
                          measure_mu0, measure_mu1, spectral_distance)
