"""Background geometry: the characteristic representative chi, the
formally-generalized-Kahler residual, the positive cone, the background
family omega_hat(t) = omega_0 - t*chi, and the maximal time tau_star.

Sign conventions.  Forms are stored by their matrix blocks in the split
coordinate frame; the minus block of a *metric* form is positive definite
as stored.  The potential operator square(f) = i(d+ dbar+ - d- dbar-) f
therefore has blocks (hess_plus f, -hess_minus f).  The chi representative
built from determinant-bundle weights phi_pm follows the block pattern

    chi_plus  = -hess_plus(phi_plus)  + hess_plus(phi_minus)
    chi_minus =  hess_minus(phi_plus) - hess_minus(phi_minus)

The minus-block sign is fixed by requiring stationary consistency of the
scalar flow with the class ODE [omega_t] = [omega_0] - t chi; the audit is
enforced numerically in the test suite rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotAdmissible
from .grid import (BicomplexGrid, HermitianMatrixField, ScalarField,
                   hermitian_hessian, hessian_block_values, min_eig_values)

__all__ = [
    "BackgroundData",
    "CohomologyClassRep",
    "chi_from_weights",
    "fgk_residual",
    "positivity_check",
    "max_existence_time",
    "background_at",
    "gauge_shift_weights",
    "flat_background",
]


@dataclass(frozen=True)
class CohomologyClassRep:
    """Block means of a form: the computable shadow of its class.

    Adding square(f) never moves block means on the torus (discrete
    derivatives of periodic data average to zero), so means are class
    invariants in this flat model.
    """

    mean_plus: np.ndarray
    mean_minus: np.ndarray

    def __post_init__(self):
        for m in (self.mean_plus, self.mean_minus):
            arr = np.asarray(m)
            if not np.all(np.isfinite(arr)):
                raise ValueError("class representative has non-finite entries")
            if np.abs(arr - arr.conj().T).max() > 1e-12 * (1.0 + np.abs(arr).max()):
                raise ValueError("class representative blocks must be Hermitian")

    @classmethod
    def of(cls, omega_plus, omega_minus):
        ax = tuple(range(omega_plus.grid.real_dim))
        return cls(omega_plus.values.mean(axis=ax), omega_minus.values.mean(axis=ax))


def chi_from_weights(phi_plus, phi_minus):
    """Representative of the characteristic class from determinant-bundle
    log-weights; see the module docstring for the block sign pattern."""
    hp_p = hermitian_hessian(phi_plus, "plus").values
    hp_m = hermitian_hessian(phi_minus, "plus").values
    hm_p = hermitian_hessian(phi_plus, "minus").values
    hm_m = hermitian_hessian(phi_minus, "minus").values
    grid = phi_plus.grid
    chi_plus = HermitianMatrixField(grid, "plus", -hp_p + hp_m, check=False)
    chi_minus = HermitianMatrixField(grid, "minus", hm_p - hm_m, check=False)
    return chi_plus, chi_minus


def cross_residual_values(omega_plus, omega_minus):
    """Entrywise discrete cross (pluriclosedness) condition.

    R[a, b, c, d] = hess_minus(omega_plus[a,b])[c,d]
                  + hess_plus(omega_minus[c,d])[a,b],
    returned as an array of shape grid.shape + (k, k, l, l).  Zero means
    formally generalized Kahler to discretization accuracy.
    """
    grid = omega_plus.grid
    k, l = grid.k, grid.l
    out = np.empty(grid.shape + (k, k, l, l), dtype=np.complex128)
    for a in range(k):
        for b in range(k):
            hm = hessian_block_values(omega_plus.values[..., a, b], grid, "minus")
            out[..., a, b, :, :] = hm
    for c in range(l):
        for d in range(l):
            hp = hessian_block_values(omega_minus.values[..., c, d], grid, "plus")
            out[..., :, :, c, d] += hp
    return out


def fgk_residual(omega_plus, omega_minus):
    """Max norm of the discrete formally-generalized-Kahler residual."""
    return float(np.abs(cross_residual_values(omega_plus, omega_minus)).max())


def positivity_check(omega_plus, omega_minus):
    """True iff both blocks are positive definite everywhere."""
    return bool(min_eig_values(omega_plus.values).min() > 0.0
                and min_eig_values(omega_minus.values).min() > 0.0)


def _block_tau(omega0, chi):
    omega0 = np.atleast_2d(np.asarray(omega0, dtype=np.complex128))
    chi = np.atleast_2d(np.asarray(chi, dtype=np.complex128))
    evals = np.linalg.eigvalsh(omega0)
    if evals.min() <= 0.0:
        raise NotAdmissible("omega_0 class block is not positive definite",
                            eigenvalue=float(evals.min()))
    # whitened spectrum: eigenvalues of L^{-1} chi L^{-H}, omega0 = L L^H
    l_inv = np.linalg.inv(np.linalg.cholesky(omega0))
    lam = np.linalg.eigvalsh(l_inv @ chi @ l_inv.conj().T)
    lam_max = lam.max()
    if lam_max <= 0.0:
        return math.inf
    return 1.0 / float(lam_max)


def max_existence_time(omega0, chi):
    """sup { t >= 0 : omega_0 - t chi stays positive, blockwise }.

    Computed from the whitened generalized eigenvalues; +inf when neither
    whitened chi block has a positive eigenvalue.
    """
    return min(_block_tau(omega0.mean_plus, chi.mean_plus),
               _block_tau(omega0.mean_minus, chi.mean_minus))


@dataclass
class BackgroundSlice:
    """omega_hat blocks at a fixed time, with a positivity flag.

    Positivity is flagged rather than enforced: callers may probe beyond
    the maximal time on purpose.  The flag is computed on first access and
    cached; the blocks are treated as immutable once the slice exists.
    """

    omega_hat_plus: HermitianMatrixField
    omega_hat_minus: HermitianMatrixField
    # the flow's constant-coefficient linearization at this slice, built by
    # the flow layer on first use
    _linear: object = field(default=None, repr=False, compare=False)

    @cached_property
    def positive(self):
        return positivity_check(self.omega_hat_plus, self.omega_hat_minus)


@dataclass
class BackgroundData:
    """The background tuple (omega_0, chi, log-densities zeta_pm, F).

    F is stored at time knots with linear interpolation (constant
    extrapolation outside the knot range).
    """

    omega0_plus: HermitianMatrixField
    omega0_minus: HermitianMatrixField
    chi_plus: HermitianMatrixField
    chi_minus: HermitianMatrixField
    zeta_plus: ScalarField
    zeta_minus: ScalarField
    f_times: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    f_fields: list = None

    def __post_init__(self):
        self.f_times = np.asarray(self.f_times, dtype=np.float64)
        if self.f_fields is None:
            self.f_fields = [ScalarField.zeros(self.grid) for _ in self.f_times]
        if len(self.f_fields) != len(self.f_times):
            raise ValueError("one F field required per time knot")
        if np.any(np.diff(self.f_times) <= 0) and len(self.f_times) > 1:
            raise ValueError("F time knots must be strictly increasing")
        fields = [self.omega0_plus, self.omega0_minus, self.chi_plus, self.chi_minus,
                  self.zeta_plus, self.zeta_minus, *self.f_fields]
        if any(f.grid != self.grid for f in fields):
            raise ValueError("all background fields must share one grid")
        if min_eig_values(self.omega0_plus.values).min() <= 0.0:
            raise NotAdmissible("omega_0 plus block is not positive definite")
        if min_eig_values(self.omega0_minus.values).min() <= 0.0:
            raise NotAdmissible("omega_0 minus block is not positive definite")
        self._chi_norms = tuple(
            float(np.sqrt(np.square(np.abs(chi.values)).sum(axis=(-2, -1)).max()))
            for chi in (self.chi_plus, self.chi_minus))
        self._chi_zero = self._chi_norms == (0.0, 0.0)
        # omega_hat(t) = omega_0 for every t when chi = 0: one slice serves all
        self._static_slice = (BackgroundSlice(self.omega0_plus, self.omega0_minus)
                              if self._chi_zero else None)
        # with a single F knot the source term does not depend on t
        self._static_source = None
        if len(self.f_times) == 1:
            self._static_source = self.source_at(0.0)

    @property
    def grid(self):
        return self.omega0_plus.grid

    @property
    def chi_is_zero(self):
        return self._chi_zero

    @property
    def chi_norms(self):
        """(plus, minus): max over the lattice of ||chi||_F, which bounds
        how fast the eigenvalues of omega_hat(t) move."""
        return self._chi_norms

    def F_at(self, t):
        """F(., t) values by linear interpolation between knots."""
        times = self.f_times
        if len(times) == 1 or t <= times[0]:
            return self.f_fields[0].values
        if t >= times[-1]:
            return self.f_fields[-1].values
        j = int(np.searchsorted(times, t, side="right")) - 1
        w = (t - times[j]) / (times[j + 1] - times[j])
        return (1.0 - w) * self.f_fields[j].values + w * self.f_fields[j + 1].values

    def source_at(self, t):
        """zeta_minus - zeta_plus - F(., t), the u-independent term of the
        flow's right-hand side; computed once when F has a single knot."""
        if self._static_source is not None:
            return self._static_source
        return self.zeta_minus.values - self.zeta_plus.values - self.F_at(t)

    def class_rep(self):
        return CohomologyClassRep.of(self.omega0_plus, self.omega0_minus)

    def chi_rep(self):
        return CohomologyClassRep.of(self.chi_plus, self.chi_minus)

    def tau_star(self):
        return max_existence_time(self.class_rep(), self.chi_rep())


def background_at(data, t):
    """Pointwise omega_hat(t) = omega_0 - t chi per block.

    With chi = 0 every t gets the same slice, built once with the data.
    """
    if t < 0:
        raise ValueError("background family is defined for t >= 0")
    if data.chi_is_zero:
        return data._static_slice
    grid = data.grid
    plus = HermitianMatrixField(grid, "plus", data.omega0_plus.values
                                - t * data.chi_plus.values, check=False)
    minus = HermitianMatrixField(grid, "minus", data.omega0_minus.values
                                 - t * data.chi_minus.values, check=False)
    return BackgroundSlice(plus, minus)


def gauge_shift_weights(a, tau, phi_plus, phi_minus):
    """Regauged weights phi_pm' = phi_pm +- a/(2 tau)."""
    if tau <= 0:
        raise ValueError("gauge shift needs tau > 0")
    shift = a.values / (2.0 * tau)
    return (ScalarField(a.grid, phi_plus.values + shift),
            ScalarField(a.grid, phi_minus.values - shift))


def flat_background(grid, f_times=None, f_fields=None, zeta_plus=None,
                    zeta_minus=None, omega0_plus=None, omega0_minus=None,
                    chi_plus=None, chi_minus=None):
    """Identity omega_0, zero chi/densities unless overridden."""
    zero = lambda: ScalarField.zeros(grid)
    return BackgroundData(
        omega0_plus=omega0_plus or HermitianMatrixField.constant(grid, "plus", np.eye(grid.k)),
        omega0_minus=omega0_minus or HermitianMatrixField.constant(grid, "minus", np.eye(grid.l)),
        chi_plus=chi_plus or HermitianMatrixField.zeros(grid, "plus"),
        chi_minus=chi_minus or HermitianMatrixField.zeros(grid, "minus"),
        zeta_plus=zeta_plus or zero(),
        zeta_minus=zeta_minus or zero(),
        f_times=f_times if f_times is not None else np.array([0.0]),
        f_fields=f_fields,
    )
