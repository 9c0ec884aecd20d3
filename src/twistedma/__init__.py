"""Desk-scale numerical laboratory for the twisted parabolic complex
Monge-Ampere flow on flat periodic bicomplex tori."""

import ctypes

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


def _keep_freed_arrays_mapped():
    """Let malloc reuse freed arrays of up to 32 MiB from its heap rather
    than unmap them and fault zeroed pages in at their next allocation
    (mallopt(3): glibc's thresholds otherwise follow the largest array
    freed so far, and the heap's free top is trimmed past twice that).
    Both thresholds or neither: fixing one alone turns glibc's dynamic
    rule off for the other.  Nothing happens where the C library has no
    mallopt (macOS; Windows, whose CDLL takes no None) or refuses the mmap
    threshold (musl)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD, glibc's 64-bit maximum
        mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


_keep_freed_arrays_mapped()
