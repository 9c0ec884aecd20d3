"""Desk-scale numerical laboratory for the twisted parabolic complex
Monge-Ampere flow on flat periodic bicomplex tori."""

from .errors import (BarrierViolation, ConcavityViolated, ConfigError,
                     DegenerateFit, IncompatibleData, NonzeroMeanObstruction,
                     NotAdmissible, NotReducible, PreconditionFailed,
                     TwistedMAError, WindowTooSmall)
from .grid import (BicomplexGrid, HermitianMatrixField, ScalarField,
                   det_plus, export_csv, hermitian_hessian, load_field,
                   min_eigenvalue, save_field)
from .forms import (BackgroundData, CohomologyClassRep, background_at,
                    chi_from_weights, flat_background, gauge_shift_weights,
                    max_existence_time, positivity_check)
from .potential import (SquareDecomposition, compatibility_residual,
                        fgk_residual, solve_square, square_operator)
from .flow import (BarrierPair, FlowState, Trajectory, admissibility,
                   barriers, run, stable_dt, step, twisted_rhs)
from .viscosity import (ComparisonVerdict, Jet, ViolationReport,
                        comparison_test, delta_lift, subsolution_check,
                        sup_patch, supersolution_check, touching_jet,
                        trajectory_checks)
from .legendre import (ReducedField, inverse_partial_legendre, legendre_roundtrip_error,
                       lift_field, partial_legendre, reduce_field,
                       transformed_residual, untransformed_residual)
from .localization import ProbeResult, localization_gap_probe

__version__ = "0.1.0"
