"""Recovery of planted shallow neural networks from black-box queries.

Stages, as ``pipeline.STAGES`` names them: teacher, hessians (finite-difference
Hessians at Gaussian anchors), projector (their top-m subspace), spm (weight
directions by ascent on the sphere), init (signs and shifts from derivatives at
the origin), refine (Gauss-Newton; the paper's gradient descent is
``RefineConfig(method="gd")``) and score.  Test oracles are in ``tests/conftest.py``.
"""

from .activations import Activation, invert_g2, make_activation
from .baseline import run_baseline_sgd
from .diagnostics import (IncoherenceReport, Metrics, check_incoherence,
                          estimate_alpha, hermite_coeffs, init_shift_error_bound,
                          kernel_floor_omega, match_and_score, match_weights,
                          slope_sign_certificate)
from .exceptions import (ConfigError, DivergenceError, FDEvaluationError,
                         IllConditionedError, IncompleteRecoveryError,
                         RecoveryError, StageError, SubspaceDeficientError)
from .fileio import load_teacher, save_teacher
from .numdiff import fd_directional, fd_hessian
from .pipeline import (ExperimentResult, PipelineConfig, child_seed,
                       default_n_hessians, neuron_count, run_pipeline,
                       run_scaling_study)
from .refine import RefineConfig, RefineResult, loss, refine
from .shift_init import InitResult, directional_derivs_at_zero, gram_power, init_signs_shifts
from .spm import SpmConfig, SpmStats, collect_weights, default_restarts
from .subspace import (SubspaceProjector, build_hessian_matrix, half_dim, hvec,
                       top_m_projector, unhvec)
from .teacher import (FixedShifts, GaussianShifts, StudentNetwork,
                      TeacherNetwork, UniformShifts, sample_teacher)

__version__ = "0.1.0"
