import types

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

    @pytest.mark.parametrize("name", list(SUITES))
    def test_a_suite_yields_the_failures_run_suite_collects(self, name):
        failures = SUITES[name](Geometry.H2R, 3, np.random.default_rng(4))
        assert isinstance(failures, types.GeneratorType)
        assert list(failures) == run_suite(name, Geometry.H2R, 3, seed=4).failures

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

    @pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
    def test_frame_error_on_a_coplanar_triangle_is_a_failure(self, kind, monkeypatch):
        """Only a coincident draw is skipped: a ``tangent_endpoints`` that
        raises on the coplanar triangles shows as failures naming them."""
        import prodgeo.verification as verification
        from prodgeo import ConsistencyError, coplanar_with_center
        true_frame = verification.tangent_endpoints

        def broken(tri):
            if coplanar_with_center(tri):
                raise ConsistencyError("tangents (2, 0) and (1, 2) are not antipodal")
            return true_frame(tri)

        monkeypatch.setattr(verification, "tangent_endpoints", broken)
        result = run_suite("antipodality", kind, 20, seed=1)
        assert len(result.failures) == 10
        assert all(f.startswith("vertices ") and "not antipodal" in f for f in result.failures)

    def test_coincident_coplanar_draw_is_skipped(self, monkeypatch):
        import prodgeo.verification as verification
        monkeypatch.setattr(verification, "_random_coplanar_vertices",
                            lambda kind, rng: (np.array([2.0, 0.5, 0.0]),) * 2)
        for name in ("trichotomy", "antipodality"):
            assert run_suite(name, Geometry.S2R, 10, seed=1).passed
