import itertools
import types

import numpy as np
import pytest

import prodgeo.verification as verification
from prodgeo import DEFAULT, DomainError, Geometry, geodesic_point
from prodgeo.verification import SUITES, _random_params, _random_points, run_all, run_suite


class TestSuites:
    @pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
    def test_all_suites_pass(self, kind):
        for result in run_all(kind, trials=50, seed=42):
            assert result.passed, f"{result.name}: {result.failures[:3]}"

    @pytest.mark.parametrize("name, bound, message", [
        ("isometry-invariance", "suite_anchor", "misses the base point"),
        ("ode-equivalence", "suite_ode", "endpoint mismatch"),
    ])
    def test_suite_bounds_are_named_tolerances(self, name, bound, message, monkeypatch):
        """The anchor-image and ODE-endpoint bounds are ``DEFAULT.suite_anchor``
        (1e-10) and ``DEFAULT.suite_ode`` (1e-6), which the suites read: a
        negative bound fails every trial."""
        assert (DEFAULT.suite_anchor, DEFAULT.suite_ode) == (1e-10, 1e-6)
        monkeypatch.setattr(verification, "DEFAULT", DEFAULT._replace(**{bound: -1.0}))
        failures = run_suite(name, Geometry.S2R, 3, seed=8).failures
        assert len(failures) == 3 and all(message in f for f in failures)

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


class TestArguments:
    """``run_suite`` and ``run_all`` read every argument before the first draw."""

    @pytest.mark.parametrize("trials, seed, message", [
        (0, 0, "need an integer number of trials >= 1, got 0"),
        (-3, 0, "need an integer number of trials >= 1, got -3"),
        (2.5, 0, "need an integer number of trials >= 1, got 2.5"),
        (1, -1, "need a non-negative integer seed, got -1"),
        (1, None, "need a non-negative integer seed, got None"),
        (1, "x", "need a non-negative integer seed, got 'x'"),
        (1, 1.0, "need a non-negative integer seed, got 1.0")])
    @pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
    def test_counts_and_seeds_are_typed_errors(self, kind, trials, seed, message, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # no draw is made
        with pytest.raises(DomainError, match=f"^{message}$"):
            run_all(kind, trials, seed)
        with pytest.raises(DomainError, match=f"^{message}$"):
            run_suite("roundtrip", kind, trials, seed)

    @pytest.mark.parametrize("name", ["nope", None, ["roundtrip"]])
    def test_unknown_suite_names_the_five(self, name):
        with pytest.raises(DomainError, match="^unknown suite .*; expected one of roundtrip, "
                           "isometry-invariance, ode-equivalence, trichotomy, antipodality$"):
            run_suite(name, Geometry.S2R, 1, 0)

    def test_geometry_is_a_geometry(self):
        for call in (lambda: run_all("s2r", 1, 0), lambda: run_suite("roundtrip", "s2r", 1, 0)):
            with pytest.raises(DomainError, match="^unknown geometry 's2r'"):
                call()

    def test_integers_of_any_kind_and_size(self):
        """numpy integers read as the ints they hold, and a seed of any size is a seed."""
        assert (run_suite("trichotomy", Geometry.S2R, np.int64(4), np.uint8(5))
                == run_suite("trichotomy", Geometry.S2R, 4, 5))
        result = run_suite("roundtrip", Geometry.H2R, 3, 10**30)
        assert (type(result.trials), result.passed) == (int, True)


def _forced(name: str, kind: Geometry, trials: int) -> list[str]:
    """The failures of suite ``name`` under the caller's breakage: each names plain
    floats, as its reproducer is printed, with no numpy scalar repr."""
    failures = run_suite(name, kind, trials, seed=3).failures
    assert not [f for f in failures if "np." in f]
    return failures


class TestEveryFailureMessage:
    """Each suite's failure messages, forced one per draw."""

    @pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
    def test_roundtrip(self, kind, monkeypatch):
        monkeypatch.setattr(verification, "DEFAULT", DEFAULT._replace(roundtrip=-1.0))
        failures = _forced("roundtrip", kind, 6)
        assert len(failures) == 6
        assert all(f.startswith("params (") and " -> (" in f for f in failures)

    @pytest.mark.parametrize("part, prefix", [
        ("tolerance", "metric form broken at a=["),
        ("normaliser", "normaliser of ["),
        ("distance", "distance broken: a=[")])
    @pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
    def test_isometry_invariance(self, kind, part, prefix, monkeypatch):
        if part == "tolerance":
            monkeypatch.setattr(verification, "DEFAULT", DEFAULT._replace(isometry=-1.0))
        elif part == "normaliser":
            monkeypatch.setattr(verification, "to_origin", lambda kind, a: np.eye(4))
        else:
            counter = itertools.count()
            monkeypatch.setattr(verification, "distance", lambda kind, p, q: float(next(counter)))
        failures = _forced("isometry-invariance", kind, 6)
        assert len(failures) == 6
        assert all(f.startswith(prefix) for f in failures)

    @pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
    def test_ode_equivalence(self, kind, monkeypatch):
        """An integrator whose endpoint is shifted by 1e-5 off the closed form."""
        shifted = lambda kind, g, steps=None: (geodesic_point(kind, g) + 1e-5)[None]
        monkeypatch.setattr(verification, "integrate_geodesic", shifted)
        monkeypatch.setattr(verification, "integrate_geodesic_cartesian",
                            lambda kind, g: shifted(kind, g)[0])
        failures = _forced("ode-equivalence", kind, 5)
        assert len(failures) == 5
        assert all(f.startswith("endpoint mismatch at params (") for f in failures)

    @pytest.mark.parametrize("name, broken, messages", [
        ("trichotomy", {"suite_side": -10.0, "suite_pair": -1.0},
         ("sum ", "coplanar sum ")),
        ("antipodality", {"suite_pair": -1.0},
         ("frame and product angles differ by ", "coplanar pair (3,2)/(2,3) at vertices "))])
    @pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
    def test_triangle_suites(self, kind, name, broken, messages, monkeypatch):
        """Every random triangle, then every coplanar one, fails its side test."""
        monkeypatch.setattr(verification, "DEFAULT", DEFAULT._replace(**broken))
        failures = _forced(name, kind, 6)
        assert len(failures) == 6 + 3
        assert all(f.startswith(messages[0]) for f in failures[:6])
        assert all(f.startswith(messages[1]) for f in failures[6:])

    @pytest.mark.parametrize("name", ["trichotomy", "antipodality"])
    def test_coplanar_construction_error(self, name, monkeypatch):
        """A coplanar draw that is no triangle (here a vertex outside the H2xR
        cone) is a failure naming both vertices as plain floats."""
        vertices = np.array([1.0, 2.0, 0.0]), np.array([2.0, 0.5, 0.0])
        monkeypatch.setattr(verification, "_random_coplanar_vertices", lambda kind, rng: vertices)
        failures = _forced(name, Geometry.H2R, 6)
        assert failures == ["vertices [1.0, 2.0, 0.0], [2.0, 0.5, 0.0]: "
                            "point (1.0, 2.0, 0.0) is not in the h2r model"] * 3
