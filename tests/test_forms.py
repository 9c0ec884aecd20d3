import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistedma import (BicomplexGrid, HermitianMatrixField, ScalarField,
                       background_at, chi_from_weights, fgk_residual,
                       flat_background, gauge_shift_weights,
                       max_existence_time, positivity_check, square_operator)
from twistedma.errors import NotAdmissible
from twistedma.forms import CohomologyClassRep
from twistedma.grid import min_eig_values

from conftest import bandlimited_field, cos_axis_field


def bisect_tau_star(rep0, chi, hi_cap=1e7, tol=1e-12):
    """Independent oracle: positivity scan in t by bisection."""
    def positive(t):
        for w0, c in ((rep0.mean_plus, chi.mean_plus),
                      (rep0.mean_minus, chi.mean_minus)):
            m = np.atleast_2d(w0) - t * np.atleast_2d(c)
            if np.linalg.eigvalsh(m).min() <= 0.0:
                return False
        return True

    hi = 1.0
    while positive(hi):
        hi *= 2.0
        if hi > hi_cap:
            return math.inf
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestChiFromWeights:
    def test_zero_weights(self, small_grid):
        cp, cm = chi_from_weights(ScalarField.zeros(small_grid),
                                  ScalarField.zeros(small_grid))
        assert np.abs(cp.values).max() == 0.0
        assert np.abs(cm.values).max() == 0.0

    def test_plus_weight_cosine(self):
        g = BicomplexGrid.regular(1, 1, 64)
        cp, cm = chi_from_weights(cos_axis_field(g, 0), ScalarField.zeros(g))
        # oracle: -i del delbar of cos(x+) has (1,1) entry -cos(x+)/4
        exact = 0.25 * np.cos(g.axis_coords(0))
        got = cp.values[..., 0, 0].real[:, 0, 0, 0]
        h = g.spacing[0]
        assert np.abs(got - exact).max() <= h * h
        assert np.abs(cm.values).max() < 1e-14

    def test_minus_weight_cosine_sign(self):
        g = BicomplexGrid.regular(1, 1, 64)
        cp, cm = chi_from_weights(ScalarField.zeros(g), cos_axis_field(g, 2))
        # minus block carries -hess_minus(phi_minus): entry +cos(x-)/4
        exact = 0.25 * np.cos(g.axis_coords(2))
        got = cm.values[..., 0, 0].real[0, 0, :, 0]
        h = g.spacing[2]
        assert np.abs(got - exact).max() <= h * h
        assert np.abs(cp.values).max() < 1e-14

    @given(cp=st.floats(-5, 5), cm=st.floats(-5, 5))
    @settings(max_examples=15, deadline=None)
    def test_constant_shift_invariance(self, cp, cm):
        g = BicomplexGrid.regular(1, 1, 8)
        rng = np.random.default_rng(3)
        pp = bandlimited_field(g, rng)
        pm = bandlimited_field(g, rng)
        a = chi_from_weights(pp, pm)
        b = chi_from_weights(ScalarField(g, pp.values + cp),
                             ScalarField(g, pm.values + cm))
        for x, y in zip(a, b):
            assert np.abs(x.values - y.values).max() <= 1e-12

    def test_block_means_vanish(self, rng):
        g = BicomplexGrid.regular(1, 1, 8)
        cp, cm = chi_from_weights(bandlimited_field(g, rng),
                                  bandlimited_field(g, rng))
        ax = tuple(range(g.real_dim))
        assert np.abs(cp.values.mean(axis=ax)).max() < 1e-12
        assert np.abs(cm.values.mean(axis=ax)).max() < 1e-12


class TestFgkResidual:
    def test_constant_blocks(self, small_grid):
        op = HermitianMatrixField.constant(small_grid, "plus", np.eye(1))
        om = HermitianMatrixField.constant(small_grid, "minus", np.eye(1))
        assert fgk_residual(op, om) == 0.0

    def test_square_operator_output_is_fgk(self, rng):
        g = BicomplexGrid.regular(1, 1, 16)
        op, om = square_operator(bandlimited_field(g, rng))
        assert fgk_residual(op, om) <= 1e-10

    def test_square_operator_output_is_fgk_two_by_two(self, rng):
        # complex off-diagonal entries: the cross stencil must act linearly
        g = BicomplexGrid.regular(2, 2, 4)
        op, om = square_operator(bandlimited_field(g, rng))
        assert fgk_residual(op, om) <= 1e-10

    def test_non_gk_data_flagged(self):
        g = BicomplexGrid.regular(1, 1, 16)
        vals = 0.25 * cos_axis_field(g, 2).values[..., None, None].astype(complex)
        op = HermitianMatrixField(g, "plus", vals, check=False)
        om = HermitianMatrixField.zeros(g, "minus")
        assert fgk_residual(op, om) > 1e-3


class TestPositivityAndTauStar:
    def test_identity_positive(self, small_grid):
        op = HermitianMatrixField.constant(small_grid, "plus", np.eye(1))
        om = HermitianMatrixField.constant(small_grid, "minus", np.eye(1))
        assert positivity_check(op, om)

    def test_indefinite_plus_block(self):
        g = BicomplexGrid.regular(2, 1, 8)
        op = HermitianMatrixField.constant(g, "plus", np.diag([1.0, -1.0]))
        om = HermitianMatrixField.constant(g, "minus", np.eye(1))
        assert not positivity_check(op, om)

    def test_zero_chi_infinite(self):
        rep0 = CohomologyClassRep(np.eye(1), np.eye(1))
        chi = CohomologyClassRep(np.zeros((1, 1)), np.zeros((1, 1)))
        assert max_existence_time(rep0, chi) == math.inf

    @pytest.mark.parametrize("plus,minus,block", [
        ([[np.nan]], [[1.0]], "plus"), (np.eye(2), [[1.0, 0.0], [0.0, np.inf]], "minus")])
    def test_non_finite_representative_named(self, plus, minus, block):
        with pytest.raises(ValueError, match=rf"^{block} block is not finite"):
            CohomologyClassRep(np.array(plus), np.array(minus))

    def test_closed_form_half(self):
        rep0 = CohomologyClassRep(np.array([[1.0]]), np.array([[1.0]]))
        chi = CohomologyClassRep(np.array([[2.0]]), np.array([[-1.0]]))
        assert max_existence_time(rep0, chi) == 0.5

    def test_homogeneity(self, rng):
        A = rng.standard_normal((2, 2))
        rep0 = CohomologyClassRep(A @ A.T + 0.5 * np.eye(2), np.eye(2))
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H = B + B.conj().T
        chi = CohomologyClassRep(H, np.eye(2))
        tau = max_existence_time(rep0, chi)
        tau3 = max_existence_time(rep0, CohomologyClassRep(3 * H, 3 * np.eye(2)))
        assert tau3 == pytest.approx(tau / 3.0, rel=1e-12)

    def test_against_bisection_oracle(self, rng):
        for _ in range(10):
            mats = []
            for _ in range(2):
                A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                mats.append(A @ A.conj().T + 0.1 * np.eye(2))
            rep0 = CohomologyClassRep(*mats)
            chis = []
            for _ in range(2):
                B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                chis.append(B + B.conj().T)
            chi = CohomologyClassRep(*chis)
            tau = max_existence_time(rep0, chi)
            oracle = bisect_tau_star(rep0, chi)
            if math.isinf(tau):
                assert math.isinf(oracle)
            else:
                assert tau == pytest.approx(oracle, abs=1e-9 * max(1.0, tau))

    def test_constant_blocks_give_exact_class_and_tau_star(self, rng):
        # a mean over 6 * 4^7 per-point copies of M is off by ~2e-12; a
        # constant block is one matrix, so its class is M itself
        g = BicomplexGrid(2, 2, (6,) + (4,) * 7, (1.0,) * 8)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        M = A @ A.conj().T + 0.3 * np.eye(2)
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C = B + B.conj().T
        const = HermitianMatrixField.constant
        bg = flat_background(g, omega0_plus=const(g, "plus", M),
                             omega0_minus=const(g, "minus", M),
                             chi_plus=const(g, "plus", C), chi_minus=const(g, "minus", C))
        rep = CohomologyClassRep.of(bg.omega0_plus, bg.omega0_minus)
        assert np.array_equal(rep.mean_plus, M) and np.array_equal(rep.mean_minus, M)
        assert bg.tau_star() == max_existence_time(CohomologyClassRep(M, M),
                                                   CohomologyClassRep(C, C))

    def test_class_rep_hermitian_rule_is_the_grid_rule(self):
        # a 1e-1 asymmetry is named by block, entry and deviation
        with pytest.raises(ValueError, match=r"^minus block is not Hermitian at entry "
                                             r"\(0, 1\) \(deviation 1\.000e-01\)$"):
            CohomologyClassRep(np.eye(2), np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(ValueError, match=r"^plus block is not Hermitian at entry \(0, 0\)"):
            CohomologyClassRep(np.array([[1.0 + 1e-6j]]), np.eye(1))
        # the tolerance is 1e-12 (1 + max |v|): max |v| = 3 allows 4e-12
        inside = np.array([[3.0, 1.0], [1.0 + 3.9e-12, 3.0]])
        CohomologyClassRep(inside, np.eye(1))
        with pytest.raises(ValueError, match=r"^plus block .* entry \(0, 1\)"):
            CohomologyClassRep(inside + np.array([[0.0, 0.0], [2e-12, 0.0]]), np.eye(1))

    @pytest.mark.parametrize("w,c", [(1e-310, 2.0), (3e-320, 1e-3), (5e-324, 0.5),
                                     (1.7e308, 1.0), (1e300, 1e-300)])
    def test_extreme_omega0_matches_closed_form(self, w, c):
        # omega_0 / 4^c keeps the Cholesky factor exact and its inverse in
        # range; 1x1 blocks give w / c to within the last subnormal unit
        rep0 = CohomologyClassRep(np.array([[w]]), np.array([[1.0]]))
        chi = CohomologyClassRep(np.array([[c]]), np.array([[-1.0]]))
        assert max_existence_time(rep0, chi) == pytest.approx(w / c, rel=1e-12, abs=5e-324)

    def test_subnormal_diagonal_omega0(self):
        rep0 = CohomologyClassRep(np.diag([1e-310, 3e-310]), np.diag([1e-310, 1.0]))
        chi = CohomologyClassRep(np.diag([2.0, 1.0]), np.diag([-1.0, 4.0]))
        assert max_existence_time(rep0, chi) == pytest.approx(5e-311, rel=1e-12)

    def test_rejects_non_positive_omega0(self):
        rep0 = CohomologyClassRep(np.array([[-1.0]]), np.array([[1.0]]))
        chi = CohomologyClassRep(np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(NotAdmissible):
            max_existence_time(rep0, chi)


@pytest.mark.parametrize("bad,block", [(("plus",), "plus"), (("minus",), "minus"),
                                       (("plus", "minus"), "plus")],
                         ids=["plus", "minus", "both"])
def test_indefinite_omega0_names_block_point_and_eigenvalue(bad, block):
    # the plus block is checked first; the error carries the worst lattice
    # point of the block and its eigenvalue, and names both
    g = BicomplexGrid.regular(2, 1, 4)
    point = (1, 2, 3, 0, 2, 1)
    blocks = {}
    for name, m, wrong in (("plus", 2, [[1.0, 2.0], [2.0, 1.0]]), ("minus", 1, [[-0.5]])):
        values = np.broadcast_to(np.eye(m), g.shape + (m, m)).copy()
        if name in bad:
            values[point] = wrong
        blocks[name] = HermitianMatrixField(g, name, values)
    with pytest.raises(NotAdmissible) as exc:
        flat_background(g, omega0_plus=blocks["plus"], omega0_minus=blocks["minus"])
    err = exc.value
    assert err.block == block
    assert tuple(int(i) for i in err.point) == point
    assert err.eigenvalue == (-1.0 if block == "plus" else -0.5)
    assert str(err) == (f"omega_0 {block} block is not positive definite at point "
                        f"{point} (eigenvalue {err.eigenvalue:.3e})")


def test_nan_omega0_is_not_positive_definite():
    g = BicomplexGrid.regular(1, 1, 8)
    values = np.ones(g.shape + (1, 1))
    values[1, 2, 3, 4] = np.nan
    omega0 = HermitianMatrixField(g, "plus", values, check=False)
    assert not positivity_check(omega0, HermitianMatrixField.constant(g, "minus", np.eye(1)))
    with pytest.raises(NotAdmissible) as exc:
        flat_background(g, omega0_plus=omega0)
    assert str(exc.value) == ("omega_0 plus block is not positive definite at point "
                              "(1, 2, 3, 4) (eigenvalue nan)")
    assert exc.value.block == "plus"


@pytest.mark.parametrize("extra,message", [
    (lambda g: dict(f_times=np.array([0.0, 1.0]), f_fields=[ScalarField.zeros(g)]),
     "one F field required per time knot"),
    (lambda g: dict(zeta_plus=ScalarField.zeros(BicomplexGrid.regular(1, 1, 4))),
     "all background fields must share one grid")], ids=["two_knots_one_field", "two_grids"])
def test_background_fields_fail_typed(small_grid, extra, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        flat_background(small_grid, **extra(small_grid))


class TestBackgroundAt:
    def _finite_model(self, grid):
        return flat_background(
            grid,
            chi_plus=HermitianMatrixField.constant(grid, "plus", 2 * np.eye(1)),
            chi_minus=HermitianMatrixField.constant(grid, "minus", -np.eye(1)))

    def test_t_zero_bit_exact(self, small_grid):
        bg = self._finite_model(small_grid)
        sl = background_at(bg, 0.0)
        assert np.array_equal(sl.omega_hat_plus.values, bg.omega0_plus.values)
        assert np.array_equal(sl.omega_hat_minus.values, bg.omega0_minus.values)

    def test_positive_below_tau_star(self, small_grid):
        bg = self._finite_model(small_grid)
        tau = bg.tau_star()
        assert tau == 0.5
        for t, expected in ((tau / 2, True), (2 * tau, False)):
            sl = background_at(bg, t)
            assert positivity_check(sl.omega_hat_plus, sl.omega_hat_minus) == expected

    def test_chi_zero_slice_built_once(self, small_grid):
        bg = flat_background(small_grid)
        sl = background_at(bg, 0.0)
        assert all(background_at(bg, t) is sl for t in (0.0, 0.3, 7.0))
        assert np.array_equal(sl.omega_hat_plus.values, bg.omega0_plus.values)
        assert np.array_equal(sl.omega_hat_minus.values, bg.omega0_minus.values)
        assert positivity_check(sl.omega_hat_plus, sl.omega_hat_minus)

    def test_drifting_positive_matches_eigenvalues(self, small_grid):
        bg = self._finite_model(small_grid)
        for t in (0.0, 0.1, 0.49, 0.5, 0.7, 3.0):
            sl = background_at(bg, t)
            expected = bool(min_eig_values(sl.omega_hat_plus.values).min() > 0.0
                            and min_eig_values(sl.omega_hat_minus.values).min() > 0.0)
            assert positivity_check(sl.omega_hat_plus, sl.omega_hat_minus) == expected

    def test_f_interpolation(self, small_grid):
        f0 = ScalarField.zeros(small_grid)
        f1 = ScalarField(small_grid, np.ones(small_grid.shape))
        bg = flat_background(small_grid, f_times=np.array([0.0, 1.0]),
                             f_fields=[f0, f1])
        assert np.allclose(bg.F_at(0.25), 0.25)
        assert np.allclose(bg.F_at(5.0), 1.0)  # constant extrapolation


class TestGaugeShift:
    def test_zero_shift(self, small_grid, rng):
        pp = bandlimited_field(small_grid, rng)
        pm = bandlimited_field(small_grid, rng)
        qp, qm = gauge_shift_weights(ScalarField.zeros(small_grid), 1.0, pp, pm)
        assert np.array_equal(qp.values, pp.values)
        assert np.array_equal(qm.values, pm.values)

    def test_nan_tau_rejected(self, small_grid):
        zero = ScalarField.zeros(small_grid)
        with pytest.raises(ValueError, match="^gauge shift needs tau > 0$"):
            gauge_shift_weights(zero, float("nan"), zero, zero)

    def test_constant_shift(self, small_grid):
        a = ScalarField(small_grid, np.full(small_grid.shape, 2.0))
        pp = ScalarField.zeros(small_grid)
        pm = ScalarField.zeros(small_grid)
        qp, qm = gauge_shift_weights(a, 1.0, pp, pm)
        assert np.allclose(qp.values, 1.0)
        assert np.allclose(qm.values, -1.0)

    def test_chi_changes_by_square_of_a_over_tau(self, small_grid, rng):
        pp = bandlimited_field(small_grid, rng)
        pm = bandlimited_field(small_grid, rng)
        a = bandlimited_field(small_grid, rng)
        tau = 0.7
        cp0, cm0 = chi_from_weights(pp, pm)
        qp, qm = gauge_shift_weights(a, tau, pp, pm)
        cp1, cm1 = chi_from_weights(qp, qm)
        sq_p, sq_m = square_operator(ScalarField(small_grid, a.values / tau))
        assert np.abs((cp0.values - cp1.values) - sq_p.values).max() < 1e-11
        assert np.abs((cm0.values - cm1.values) - sq_m.values).max() < 1e-11
