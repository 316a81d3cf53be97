"""Recovery of planted shallow neural networks from black-box queries.

Three-stage pipeline: weight directions from the principal subspace of
finite-difference Hessians (collected by projected gradient ascent on the
sphere), signs and initial shifts from low-order directional derivatives at
the origin, and least-squares shift refinement by Gauss-Newton (the paper's
gradient descent stays available as ``RefineConfig(method="gd")``).
"""

from .activations import Activation, invert_g2, make_activation, slope_sign_certificate
from .baseline import run_baseline_sgd
from .diagnostics import (IncoherenceReport, Metrics, check_incoherence,
                          estimate_alpha, hermite_coeffs, init_shift_error_bound,
                          kernel_floor_omega, match_and_score, match_weights)
from .exceptions import (ConfigError, DivergenceError, FDEvaluationError,
                         IllConditionedError, IncompleteRecoveryError,
                         RecoveryError, StageError, SubspaceDeficientError)
from .fileio import load_teacher, save_teacher
from .numdiff import at_stencil_points, fd_directional, fd_hessian
from .pipeline import (ExperimentResult, PipelineConfig, child_seed,
                       default_n_hessians, neuron_count, run_pipeline,
                       run_scaling_study)
from .refine import RefineConfig, RefineResult, loss, refine
from .shift_init import InitResult, directional_derivs_at_zero, gram_power, init_signs_shifts
from .spm import SpmConfig, SpmStats, collect_weights, default_restarts, spm_ascend
from .subspace import (SubspaceProjector, build_hessian_matrix, exact_projector,
                       half_dim, hvec, projector_distance, top_m_projector, unhvec)
from .teacher import (FixedShifts, GaussianShifts, StudentNetwork,
                      TeacherNetwork, UniformShifts, sample_teacher)

__version__ = "0.1.0"
