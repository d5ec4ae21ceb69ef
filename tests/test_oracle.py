import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prodgeo import (
    DomainError,
    GeodesicParams,
    Geometry,
    PrecondError,
    arc_length_quadrature,
    geodesic_point,
    integrate_geodesic,
    integrate_geodesic_cartesian,
    sample_curve,
)
from prodgeo.oracle import _initial_state, unit_speed_drift
from conftest import BOTH, random_params

PI = math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_scipy_integrate_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, prodgeo; assert 'scipy.integrate' not in sys.modules, 'loaded'"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


class TestIntrinsicIntegration:
    def test_pure_fibre_is_exact_exponential(self):
        for kind in Geometry:
            pts = integrate_geodesic(kind, (0, PI / 2, 1.0), steps=100)
            taus = np.linspace(0, 1, 100)
            for p, tau in zip(pts, taus):
                assert np.allclose(p, [math.exp(tau), 0, 0], atol=1e-12)

    def test_h2r_base_plane_hyperbola(self):
        end = integrate_geodesic(Geometry.H2R, (0, 0, 1.0), steps=100)[-1]
        assert np.abs(end - [math.cosh(1), math.sinh(1), 0]).max() < 1e-6

    def test_s2r_tilted_great_circle(self):
        g = GeodesicParams(PI / 4, 0.3, 1.7)
        end = integrate_geodesic(Geometry.S2R, g, steps=100)[-1]
        assert np.abs(end - geodesic_point(Geometry.S2R, g)).max() < 1e-6

    @BOTH
    def test_endpoints_match_closed_form(self, kind, rng):
        for _ in range(100):
            g = random_params(kind, rng, tau_max=2.0)
            end = integrate_geodesic(kind, g, steps=100)[-1]
            closed = geodesic_point(kind, g)
            assert np.abs(end - closed).max() < 1e-6

    @BOTH
    def test_unit_speed_initial_data(self, kind, rng):
        for _ in range(100):
            g = random_params(kind, rng, tau_max=2.0)
            assert unit_speed_drift(kind, _initial_state(kind, g.u, g.v)) < 1e-15

    def test_step_minimum_enforced(self):
        with pytest.raises(PrecondError):
            integrate_geodesic(Geometry.S2R, (0, 0, 1), steps=10)

    def test_tau_cap_enforced(self):
        with pytest.raises(PrecondError):
            integrate_geodesic(Geometry.H2R, (0, 0, 11.0))


class TestUnitSpeedDrift:
    @BOTH
    def test_drift_below_budget_along_solutions(self, kind, rng):
        """Integrate once more and inspect the raw states: the unit-speed
        first integral must persist to 1e-8 over tau <= 2."""
        from scipy.integrate import solve_ivp
        from prodgeo.oracle import _rhs_h2r, _rhs_s2r
        rhs = _rhs_s2r if kind is Geometry.S2R else _rhs_h2r
        for _ in range(25):
            g = random_params(kind, rng, tau_max=2.0)
            sol = solve_ivp(rhs, (0, g.tau), _initial_state(kind, g.u, g.v),
                            method="DOP853", rtol=1e-10, atol=1e-12,
                            t_eval=np.linspace(0, g.tau, 50))
            drifts = [unit_speed_drift(kind, sol.y[:, i]) for i in range(50)]
            assert max(drifts) <= 1e-8


class TestCartesianIntegration:
    """Chart-free second route: finite-difference Christoffel symbols of the
    raw metric tensor, no intrinsic coordinates anywhere."""

    @BOTH
    def test_endpoints_match_closed_form(self, kind, rng):
        for _ in range(10):
            g = random_params(kind, rng, tau_max=2.0)
            end = integrate_geodesic_cartesian(kind, g)
            assert np.abs(end - geodesic_point(kind, g)).max() < 1e-6


class TestQuadrature:
    def test_fibre_segment(self):
        pts = sample_curve(Geometry.S2R, (0, PI / 2, 1.0), 1000)
        assert abs(arc_length_quadrature(Geometry.S2R, pts) - 1.0) < 1e-6

    def test_s2r_quarter_arc(self):
        pts = sample_curve(Geometry.S2R, (PI / 2, 0, PI / 2), 1000)
        assert abs(arc_length_quadrature(Geometry.S2R, pts) - PI / 2) < 1e-6

    def test_second_order_convergence(self):
        g = GeodesicParams(0.3, 0.4, 1.0)
        errors = []
        for n in (250, 500, 1000):
            pts = sample_curve(Geometry.S2R, g, n)
            errors.append(abs(arc_length_quadrature(Geometry.S2R, pts) - 1.0))
        assert errors[0] / errors[1] >= 3.5
        assert errors[1] / errors[2] >= 3.5

    def test_rejects_short_input(self):
        with pytest.raises(DomainError):
            arc_length_quadrature(Geometry.S2R, [np.array([1.0, 0, 0])])

    def test_rejects_invalid_points(self):
        bad = [np.array([1.0, 1.0, 0.0]), np.array([1.0, 3.0, 0.0])]
        with pytest.raises(DomainError):
            arc_length_quadrature(Geometry.H2R, bad)

    @BOTH
    def test_converges_to_tau(self, kind, rng):
        for _ in range(5):
            g = random_params(kind, rng, tau_max=2.0)
            pts = sample_curve(kind, g, 4001)
            assert abs(arc_length_quadrature(kind, pts) - g.tau) < 1e-7
