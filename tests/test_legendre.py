import numpy as np
import pytest

from twistedma import (BicomplexGrid, ScalarField, inverse_partial_legendre,
                       legendre_roundtrip_error, lift_field, partial_legendre,
                       reduce_field, transformed_residual,
                       untransformed_residual)
from twistedma.errors import ConcavityViolated, NotReducible
from twistedma.legendre import ReducedField, conjugate_slice_bruteforce

from conftest import cos_axis_field


def concave_reduced(n_minus=64, n_plus=8, amp_plus=0.2, wiggle=0.3):
    xp = np.arange(n_plus) * 2 * np.pi / n_plus
    xm = np.arange(n_minus) * 2 * np.pi / n_minus
    vals = (amp_plus * np.cos(xp)[:, None]
            - 0.5 * (xm[None, :] - np.pi) ** 2
            - wiggle * np.cos(xm)[None, :])
    return ReducedField(xp, xm, vals)


class TestReduceLift:
    def test_roundtrip(self):
        g = BicomplexGrid.regular(1, 1, 8)
        u = ScalarField(g, cos_axis_field(g, 0).values * cos_axis_field(g, 2).values)
        rf = reduce_field(u)
        back = lift_field(rf, g)
        assert np.array_equal(back.values, u.values)

    def test_y_dependent_rejected(self):
        g = BicomplexGrid.regular(1, 1, 8)
        with pytest.raises(NotReducible):
            reduce_field(cos_axis_field(g, 1))

    def test_wrong_split_rejected(self):
        g = BicomplexGrid.regular(2, 1, 6)
        with pytest.raises(NotReducible):
            reduce_field(ScalarField.zeros(g))

    def test_nan_tolerance_rejects(self):
        # a span is accepted only when it is shown to be within tol
        g = BicomplexGrid.regular(1, 1, 8)
        with pytest.raises(NotReducible, match="varies along imaginary axes"):
            reduce_field(cos_axis_field(g, 1), tol=float("nan"))

    def test_lift_onto_k2_rejected(self):
        rf = reduce_field(ScalarField.zeros(BicomplexGrid.regular(1, 1, 8)))
        with pytest.raises(NotReducible, match="^lift targets k = l = 1 grids$"):
            lift_field(rf, BicomplexGrid.regular(2, 1, 8))


class TestPartialLegendre:
    def test_quadratic_conjugate(self):
        n = 64
        xm = np.arange(n) * 2 * np.pi / n
        vals = np.broadcast_to(-0.5 * (xm - np.pi) ** 2, (4, n)).copy()
        rf = ReducedField(np.arange(4.0), xm, vals)
        v = partial_legendre(rf)
        # conjugate of -(x - pi)^2/2 is p^2/2 - pi*p, exact on this grid
        exact = 0.5 * v.second ** 2 - np.pi * v.second
        assert np.abs(v.values - exact[None, :]).max() < 1e-12
        assert v.conjugate and not v.range_clipped

    def test_matches_bruteforce_oracle(self, rng):
        n = 48
        xm = np.arange(n) * 2 * np.pi / n
        for _ in range(10):
            a = rng.uniform(0.3, 1.5)
            w = rng.uniform(0.0, 0.25 * a)
            vals = (-0.5 * a * (xm - np.pi) ** 2
                    - w * np.cos(xm + rng.uniform(0, 2 * np.pi)))[None, :]
            rf = ReducedField(np.array([0.0]), xm, vals.copy())
            v = partial_legendre(rf)
            oracle = conjugate_slice_bruteforce(xm, vals[0], v.second)
            assert np.abs(v.values[0] - oracle).max() < 1e-12

    def test_linear_slope_sharp_minimum(self):
        # linear data is outside the strict-concavity domain of the
        # transform; the raw conjugate still localizes at the slope
        n = 32
        xm = np.arange(n) * 2 * np.pi / n
        s = 0.7
        ps = np.linspace(0.0, 1.5, 61)
        v = conjugate_slice_bruteforce(xm, s * xm, ps)
        assert ps[np.argmin(v)] == pytest.approx(s, abs=np.diff(ps)[0])

    def test_concavity_required(self):
        n = 32
        xm = np.arange(n) * 2 * np.pi / n
        rf = ReducedField(np.array([0.0]), xm, (0.7 * xm)[None, :].copy())
        with pytest.raises(ConcavityViolated):
            partial_legendre(rf)

    def test_convex_output(self, rng):
        rf = concave_reduced()
        v = partial_legendre(rf)
        hp = v.second_spacing()
        d2 = (v.values[:, 2:] - 2 * v.values[:, 1:-1] + v.values[:, :-2]) / hp ** 2
        assert d2.min() >= -1e-12

    def test_monotonicity(self):
        rf = concave_reduced()
        shifted = ReducedField(rf.x_plus, rf.second, rf.values + 0.3)
        p = np.linspace(-3.0, 3.0, 41)
        v1 = partial_legendre(rf, p_grid=p)
        v2 = partial_legendre(shifted, p_grid=p)
        assert np.all(v2.values >= v1.values - 1e-12)

    def test_range_clipped_flag(self):
        rf = concave_reduced()
        v = partial_legendre(rf, p_grid=np.linspace(-0.5, 0.5, 11))
        assert v.range_clipped

    def test_inverse_recovers(self):
        rf = concave_reduced()
        v = partial_legendre(rf)
        back = inverse_partial_legendre(v, x_grid=rf.second)
        inner = slice(4, -4)
        assert np.abs(back.values[:, inner] - rf.values[:, inner]).max() < 1e-2


class TestRoundtripError:
    def test_quadratic_exact(self):
        n = 64
        xm = np.arange(n) * 2 * np.pi / n
        vals = np.broadcast_to(-0.5 * (xm - np.pi) ** 2, (4, n)).copy()
        rf = ReducedField(np.arange(4.0), xm, vals)
        assert legendre_roundtrip_error(rf) < 1e-12

    def test_second_order_under_refinement(self):
        errs = [legendre_roundtrip_error(concave_reduced(n)) for n in (32, 128)]
        order = np.log2(errs[0] / errs[1]) / 2.0
        assert order >= 1.5

    def test_error_scales_inversely_with_margin(self):
        soft = concave_reduced(64, wiggle=0.45)   # margin 0.55
        hard = concave_reduced(64, wiggle=0.0)    # margin 1.0
        assert legendre_roundtrip_error(soft) >= legendre_roundtrip_error(hard)


class ManufacturedSolution:
    """u = a(t) + b(x_plus) - c (x_minus - pi)^2 with F absorbing the source."""

    def __init__(self, n=64, n_plus=16, c=0.5, b_amp=0.05, a_rate=0.1):
        self.c, self.b_amp, self.a_rate = c, b_amp, a_rate
        self.xp = np.arange(n_plus) * 2 * np.pi / n_plus
        self.xm = np.arange(n) * 2 * np.pi / n

    def slices(self, times):
        out = []
        for t in times:
            vals = (self.a_rate * t + self.b_amp * np.cos(self.xp)[:, None]
                    - self.c * (self.xm[None, :] - np.pi) ** 2)
            out.append(ReducedField(self.xp, self.xm, vals))
        return out

    def F(self, xplus, t):
        return (np.log1p(-0.25 * self.b_amp * np.cos(xplus))
                - np.log1p(0.5 * self.c) - self.a_rate)


class TestResiduals:
    def test_stationary_flat_zero(self):
        times = np.linspace(0.0, 0.03, 4)
        n = 32
        xm = np.arange(n) * 2 * np.pi / n
        xp = np.arange(8) * 2 * np.pi / 8
        vals = np.broadcast_to(-0.5 * (xm - np.pi) ** 2, (8, n)).copy()
        slices = [ReducedField(xp, xm, vals.copy()) for _ in times]
        F = lambda x, t: -np.log1p(0.25) + 0.0 * x
        r_u, _ = untransformed_residual(slices, times, F=F)
        r_v, _ = transformed_residual(slices, times, F=F)
        assert r_u < 1e-12
        assert r_v < 1e-12

    def test_manufactured_transformed_close_to_untransformed(self):
        ms = ManufacturedSolution()
        times = np.linspace(0.0, 0.03, 5)
        slices = ms.slices(times)
        r_u, _ = untransformed_residual(slices, times, F=ms.F)
        r_v, _ = transformed_residual(slices, times, F=ms.F)
        assert r_u > 0
        assert r_v <= 10.0 * r_u

    def test_perturbed_non_solution_stands_out(self, rng):
        ms = ManufacturedSolution()
        times = np.linspace(0.0, 0.03, 5)
        slices = ms.slices(times)
        r_u, _ = untransformed_residual(slices, times, F=ms.F)
        bad = []
        for i, s in enumerate(slices):
            vals = s.values + 0.05 * np.sin(3 * s.x_plus)[:, None] * (i % 2)
            bad.append(ReducedField(s.x_plus, s.second, vals))
        r_bad, _ = untransformed_residual(bad, times, F=ms.F)
        assert r_bad >= 10.0 * r_u

    def test_conjugate_losing_convexity_typed(self):
        # a p_grid far beyond the gradient range of 8 minus samples: the
        # conjugate is affine there, so its momentum curvature vanishes
        xp = np.arange(4) * 2 * np.pi / 4
        xm = np.arange(8) * 2 * np.pi / 8
        times = np.array([0.0, 0.1, 0.2])
        slices = [ReducedField(xp, xm, np.broadcast_to(0.1 * t - 0.5 * (xm - np.pi) ** 2,
                                                       (4, 8)).copy())
                  for t in times]
        with pytest.raises(ConcavityViolated,
                           match="^conjugate lost convexity in momentum$"):
            transformed_residual(slices, times, p_grid=np.linspace(-2.0, 2.0, 64))


def roll_untransformed(u_slices, times):
    """untransformed_residual (F = None) in its np.roll and slice form."""
    dt = float(np.diff(times)[0])
    hx = float(u_slices[0].x_plus[1] - u_slices[0].x_plus[0])
    hm = u_slices[0].second_spacing()
    res = []
    for n in range(1, len(times) - 1):
        u = u_slices[n].values
        u_t = (u_slices[n + 1].values - u_slices[n - 1].values) / (2.0 * dt)
        u_xx = (np.roll(u, -1, 0) - 2.0 * u + np.roll(u, 1, 0)) / (hx * hx)
        u_mm = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / (hm * hm)
        rhs = np.log1p(0.25 * u_xx[:, 1:-1]) - np.log1p(-0.25 * u_mm)
        res.append(u_t[:, 1:-1] - rhs)
    return np.stack(res)


def roll_transformed(u_slices, times, p_grid):
    """transformed_residual (F = None) in its np.roll and slice form."""
    dt = float(np.diff(times)[0])
    v_slices = [partial_legendre(s, p_grid=p_grid) for s in u_slices]
    hx = float(u_slices[0].x_plus[1] - u_slices[0].x_plus[0])
    hp = float(p_grid[1] - p_grid[0])
    res = []
    for n in range(1, len(times) - 1):
        v = v_slices[n].values
        v_t = (v_slices[n + 1].values - v_slices[n - 1].values) / (2.0 * dt)
        v_xx = (np.roll(v, -1, 0) - 2.0 * v + np.roll(v, 1, 0)) / (hx * hx)
        d_p = (v[:, 2:] - v[:, :-2]) / (2.0 * hp)
        v_xp = (np.roll(d_p, -1, 0) - np.roll(d_p, 1, 0)) / (2.0 * hx)
        v_pp = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / (hp * hp)
        arg = v_xx[:, 1:-1] - v_xp ** 2 / v_pp
        res.append(v_t[:, 1:-1] - (np.log1p(0.25 * arg) - np.log1p(0.25 / v_pp)))
    return np.stack(res)


class TestGridStencils:
    """The residuals and the concavity margin use grid's periodic stencils;
    they match the np.roll and slice formulas to roundoff."""

    @staticmethod
    def wobbling_slices(rng):
        # a plus-only wobble that alternates in time keeps every slice
        # concave in x_minus and the residual far from zero
        ms = ManufacturedSolution(n=48, n_plus=12)
        times = np.linspace(0.0, 0.03, 6)
        slices = []
        for i, s in enumerate(ms.slices(times)):
            wobble = 0.05 * rng.standard_normal() * np.sin(3 * s.x_plus)[:, None]
            slices.append(ReducedField(s.x_plus, s.second, s.values + wobble * (i % 2)))
        return slices, times

    def test_concavity_margin(self, rng):
        for _ in range(8):
            rf = seeded_concave(rng)
            v, h = rf.values, rf.second_spacing()
            ref = -((v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / (h * h)).max()
            assert abs(rf.concavity_margin() - ref) <= 1e-12 * abs(ref)

    def test_untransformed_residual(self, rng):
        slices, times = self.wobbling_slices(rng)
        r, got = untransformed_residual(slices, times)
        ref = roll_untransformed(slices, times)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert r == float(np.abs(got).max()) > 1.0

    def test_transformed_residual(self, rng):
        slices, times = self.wobbling_slices(rng)
        p_grid = np.linspace(-2.0, 2.0, 40)
        r, got = transformed_residual(slices, times, p_grid=p_grid)
        ref = roll_transformed(slices, times, p_grid)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert r == float(np.abs(got).max()) > 1.0


def walk_envelope(xs, fs, qs):
    """Per-row reference: the lower hull by a stack scan, then a pointer
    walk over the sorted queries (the transform's former per-row loop)."""
    hull = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            if ((fs[i1] - fs[i0]) * (xs[i] - xs[i1])
                    >= (fs[i] - fs[i1]) * (xs[i1] - xs[i0])):
                hull.pop()
            else:
                break
        hull.append(i)
    hx, hf = xs[hull], fs[hull]
    slopes = np.diff(hf) / np.diff(hx)
    out = np.empty(len(qs))
    j = len(hull) - 1
    for m, q in enumerate(qs):
        while j > 0 and -q < slopes[j - 1]:
            j -= 1
        out[m] = q * hx[j] + hf[j]
    return out, len(hull)


def seeded_concave(rng):
    n_plus, n_minus = rng.integers(3, 12), rng.integers(16, 300)
    xp = np.arange(n_plus) * 2 * np.pi / n_plus
    xm = rng.uniform(-1, 1) + np.arange(n_minus) * 2 * np.pi / n_minus
    a = rng.uniform(0.3, 1.5, n_plus)[:, None]
    w = rng.uniform(0.0, 0.25, n_plus)[:, None] * a
    vals = (-0.5 * a * (xm[None, :] - xm.mean()) ** 2
            - w * np.cos(xm[None, :] + rng.uniform(0, 2 * np.pi))
            + rng.uniform(-1, 1, n_plus)[:, None])
    return ReducedField(xp, xm, vals)


class TestBatchedEnvelope:
    def test_forward_and_inverse_equal_per_row_walk(self, rng):
        for _ in range(12):
            rf = seeded_concave(rng)
            v = partial_legendre(rf)
            ref = [walk_envelope(rf.second, -row, v.second) for row in rf.values]
            assert np.array_equal(v.values, -np.array([r[0] for r in ref]))
            # strictly concave rows keep every sample as a hull vertex
            assert all(n_hull == len(rf.second) for _, n_hull in ref)
            back = inverse_partial_legendre(v)
            ref = [walk_envelope(v.second, row, back.second) for row in v.values]
            assert np.array_equal(back.values, np.array([r[0] for r in ref]))
            back = inverse_partial_legendre(v, x_grid=rf.second)
            ref = [walk_envelope(v.second, row, rf.second) for row in v.values]
            assert np.array_equal(back.values, np.array([r[0] for r in ref]))

    def test_general_hull_rows(self):
        # piecewise-linear convex conjugates and a collinear run inside a
        # convex row: each drops samples from its hull, unlike the smooth row
        p = np.linspace(-2.0, 2.0, 41)
        rows = np.vstack([np.abs(p - 0.3),
                          np.maximum.reduce([-p, 0.5 * p, 2.0 * p - 1.0]),
                          np.where(np.abs(p) < 0.5, 0.5 * p + 0.25,
                                   0.5 * p ** 2 + 0.5 * p + 0.125),
                          0.5 * p ** 2])
        vf = ReducedField(np.arange(4.0), p, rows, conjugate=True)
        xs = np.linspace(-1.5, 1.5, 29)
        back = inverse_partial_legendre(vf, x_grid=xs)
        for row, got in zip(rows, back.values):
            ref, n_hull = walk_envelope(p, row, xs)
            assert np.array_equal(got, ref)
            # min_p (v + p x) = -max_p (-v - p x)
            oracle = -conjugate_slice_bruteforce(p, -row, xs)
            assert np.abs(got - oracle).max() <= 1e-12
        assert [walk_envelope(p, r, xs)[1] < len(p) for r in rows] == [
            True, True, True, False]


class TestGridValidation:
    @pytest.mark.parametrize("grid", [
        np.linspace(-1, 1, 12).reshape(3, 4), np.linspace(1, -1, 11),
        np.array([-1.0, np.nan, 1.0]), np.array([-1.0, 0.0, np.inf]),
        np.array([0.5]), np.array([0.0, 0.0, 1.0])],
        ids=["2d", "descending", "nan", "inf", "single", "repeated"])
    def test_bad_grids_named(self, grid):
        rf = concave_reduced(32)
        with pytest.raises(ValueError, match="p_grid"):
            partial_legendre(rf, p_grid=grid)
        with pytest.raises(ValueError, match="x_grid"):
            inverse_partial_legendre(partial_legendre(rf), x_grid=grid)

    def test_too_few_minus_samples(self):
        rf = ReducedField(np.arange(2.0), np.array([0.0, 1.0]),
                          -np.ones((2, 2)))
        with pytest.raises(ConcavityViolated, match="3 samples"):
            partial_legendre(rf)

    @pytest.mark.parametrize("trim", [16, 40, -1])
    def test_trim_leaving_no_interior(self, trim):
        with pytest.raises(ValueError, match="trim"):
            legendre_roundtrip_error(concave_reduced(32), trim=trim)


def _slices(n_times=3, second=None):
    xp = np.arange(4) * 2 * np.pi / 4
    xm = np.arange(8) * 2 * np.pi / 8 if second is None else second
    return [ReducedField(xp, xm, np.broadcast_to(-0.5 * (xm - np.pi) ** 2, (4, 8)).copy())
            for _ in range(n_times)]


@pytest.mark.parametrize("call,message", [
    (lambda: ReducedField(np.arange(4.0), np.arange(8.0), np.zeros((4, 7))),
     r"^values must be \(len\(x_plus\), len\(second\)\)$"),
    (lambda: ReducedField(np.arange(2.0), np.arange(3.0), np.full((2, 3), np.nan)),
     r"^reduced field contains non-finite values$"),
    (lambda: lift_field(concave_reduced(32), BicomplexGrid.regular(1, 1, 8)),
     r"^reduced shape does not match the grid$"),
    (lambda: partial_legendre(partial_legendre(concave_reduced(32))),
     r"^input is already a conjugate field$"),
    (lambda: inverse_partial_legendre(concave_reduced(32)),
     r"^input is not a conjugate field$"),
    (lambda: untransformed_residual(_slices(2), np.array([0.0, 0.1])),
     r"^need one slice per time and at least three times$"),
    (lambda: transformed_residual(_slices(), np.array([0.0, 0.1, 0.3])),
     r"^uniform time spacing required$"),
    (lambda: untransformed_residual(_slices(2) + _slices(1, np.arange(8) * 0.5),
                                    np.array([0.0, 0.1, 0.2])),
     r"^slices must share coordinates$"),
], ids=["field_shape", "field_nan", "lift_shape", "conjugate_twice", "inverse_of_primal",
        "two_slices", "non_uniform_times", "different_coordinates"])
def test_inputs_fail_typed(call, message):
    with pytest.raises(ValueError, match=message):
        call()
