import numpy as np
import pytest

from twistedma import localization_gap_probe


@pytest.fixture(scope="module")
def default_probe():
    return localization_gap_probe()


class TestDefaultProbe:
    def test_exponent_collapses_below_reference(self, default_probe):
        # the published comparison argument needs decay at the reference
        # rate 2n = 2; the shipped construction measures far less
        assert default_probe.reference_exponent == 2.0
        assert not default_probe.vacuous
        assert abs(default_probe.fitted_exponent) < 1.0

    def test_distances_decrease_with_alpha(self, default_probe):
        assert np.all(np.diff(default_probe.distances) <= 0)
        assert default_probe.distances[-1] < 0.01 * default_probe.distances[0]

    def test_hessian_norms_stay_order_one(self, default_probe):
        # decay at the reference rate would drive these to ~0 with distance
        assert default_probe.hessian_norms.min() > 1.0

    def test_maximizers_returned(self, default_probe):
        assert len(default_probe.maximizers) == len(default_probe.alphas)
        x, y = default_probe.maximizers[-1]
        assert x.shape == (2,) and y.shape == (2,)

    def test_csv_output(self, default_probe, tmp_path):
        path = tmp_path / "probe.csv"
        default_probe.write_csv(path, comment="stamp")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# stamp"
        assert lines[1] == "alpha,distance,hessian_norm"
        assert len(lines) == 3 + len(default_probe.alphas)
        assert lines[-1].startswith("# fitted_exponent=")
        assert "np.float64" not in path.read_text()


class TestEdgeCases:
    def test_vacuous_at_zero_scale(self):
        res = localization_gap_probe(alphas=(1e1, 1e2), phi3_scale=0.0,
                                     search_levels=6)
        assert res.vacuous
        assert np.isnan(res.fitted_exponent)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            localization_gap_probe(n=0)

    def test_rejects_single_alpha(self):
        with pytest.raises(ValueError):
            localization_gap_probe(alphas=(10.0,))


def test_zero_set_radius_solves_the_ramp():
    # closed-form root of 3s^2 - 2s^3 = (2 - eta) / 26 on [0, 1]
    from twistedma.localization import _ETA, _zero_set_radius
    s = _zero_set_radius() - 1.0
    assert 0.0 < s < 1.0
    assert abs(3 * s * s - 2 * s ** 3 - (2.0 - _ETA) / 26.0) <= 1e-15
