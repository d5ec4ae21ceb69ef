import numpy as np
import pytest

from prodgeo import Geometry, geodesic_point
from prodgeo.verification import SUITES, _random_params, _random_points, run_all, run_suite


class TestSuites:
    @pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
    def test_all_suites_pass(self, kind):
        for result in run_all(kind, trials=50, seed=42):
            assert result.passed, f"{result.name}: {result.failures[:3]}"

    def test_deterministic_in_seed(self):
        a = run_suite("trichotomy", Geometry.S2R, 20, seed=5)
        b = run_suite("trichotomy", Geometry.S2R, 20, seed=5)
        assert a.failures == b.failures
        assert a.trials == b.trials

    @pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
    def test_batched_draws_keep_the_single_draw_stream(self, kind):
        """Points drawn as one batch are those of successive single draws
        from the same seed, so printed seeds keep replaying."""
        batch = _random_points(kind, np.random.default_rng(11), 25)
        rng = np.random.default_rng(11)
        singles = [geodesic_point(kind, _random_params(kind, rng, 3.0)) for _ in range(25)]
        assert np.array_equal(batch, singles)

    def test_suite_names(self):
        assert set(SUITES) == {"roundtrip", "isometry-invariance", "ode-equivalence",
                               "trichotomy", "antipodality"}


class TestFailureDetection:
    """A deliberately broken pipeline must be caught and reported with a
    reproducing input, not silently absorbed."""

    def test_perturbed_inverse_breaks_roundtrip(self, monkeypatch):
        import prodgeo.verification as verification
        true_inverse = verification.geodesic_params

        def skewed(kind, p):
            g = true_inverse(kind, p)
            return type(g)(g.u, g.v, g.tau * (1 + 1e-7))

        monkeypatch.setattr(verification, "geodesic_params", skewed)
        result = run_suite("roundtrip", Geometry.S2R, 20, seed=1)
        assert not result.passed
        assert "params" in result.failures[0]

    def test_perturbed_transform_breaks_isometry_suite(self, monkeypatch):
        import prodgeo.verification as verification
        true_to_origin = verification.to_origin

        def skewed(kind, a):
            m = true_to_origin(kind, a).copy()
            m[1, 1] *= 1 + 1e-6
            return m

        monkeypatch.setattr(verification, "to_origin", skewed)
        result = run_suite("isometry-invariance", Geometry.H2R, 20, seed=1)
        assert not result.passed
