import json
import math
import os
import subprocess
import sys
import tracemalloc
from bisect import bisect_left, bisect_right
from pathlib import Path

import mpmath
import numpy as np
import pytest

from prodgeo import (
    ConsistencyError,
    DomainError,
    GeodesicParams,
    Geometry,
    PrecondError,
    SingularityError,
    arc_length_quadrature,
    geodesic_point,
    integrate_geodesic,
    integrate_geodesic_cartesian,
    metric_at,
    oracle,
    sample_curve,
    tangent_of,
    to_model,
)
from prodgeo import _dop853
from prodgeo.core import _chart_points, _metric, _metric_entries
from prodgeo.oracle import (_acceleration, _drift, _initial_state, _rhs_h2r, _rhs_s2r,
                            unit_speed_drift)
from conftest import BOTH, random_params, random_point
from mp_oracle import acceleration as mp_acceleration
from mp_oracle import closed_form_point, midpoint_length

PI = math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)


def test_import_leaves_scipy_integrate_unloaded():
    done = _run_python(
        "import sys, prodgeo; assert 'scipy.integrate' not in sys.modules, 'loaded'")
    assert done.returncode == 0, done.stderr


_SCIPY_BLOCKED = """
import json, runpy, sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
import numpy as np
from prodgeo import Geometry, geodesic_point, integrate_geodesic, integrate_geodesic_cartesian
for kind in Geometry:
    closed = geodesic_point(kind, (0.4, 0.3, 1.5))
    assert np.abs(integrate_geodesic(kind, (0.4, 0.3, 1.5))[-1] - closed).max() < 1e-6
    assert np.abs(integrate_geodesic_cartesian(kind, (0.4, 0.3, 1.5)) - closed).max() < 1e-6
sys.argv = ["prodgeo", "verify", "--trials", "3", "--format", "json"]
runpy.run_module("prodgeo.cli", run_name="__main__")
"""


def test_runtime_needs_no_scipy():
    """numpy is the only runtime dependency: both integrators and a full
    ``verify`` run with scipy unimportable."""
    done = _run_python(_SCIPY_BLOCKED)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["ok"] is True


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
            assert unit_speed_drift(kind, _initial_state(kind, g)) < 1e-15

    @BOTH
    def test_samples_are_an_array_of_the_mapped_states(self, kind, monkeypatch):
        """The (steps, 3) result is ``to_model``'s chart (``core._chart_points``)
        of every sampled state, as per-sample scalar calls would give it."""
        states = []

        def recorded(*args):
            states.append(args[1:])
            return _chart_points(*args)

        monkeypatch.setattr(oracle, "_chart_points", recorded)
        pts = integrate_geodesic(kind, (0.4, 0.3, 1.5), steps=120)
        assert isinstance(pts, np.ndarray) and pts.shape == (120, 3)
        assert len(states) == 1
        assert pts.tobytes() == to_model(kind, *states[0]).tobytes()
        for p, coords in zip(pts, zip(*states[0])):
            single = to_model(kind, *coords)
            assert np.abs(p - single).max() <= 1e-15 * np.abs(single).max()

    def test_drift_beyond_budget_retries_tighter(self, monkeypatch):
        """rtol 1e-4 drifts by about 1e-4 on this S2xR geodesic, rtol 1e-6
        by about 1e-7: a budget of 1e-6 fails the first attempt only."""
        drifts = []

        def recorded(kind, state):
            drifts.append(_drift(kind, state).max())
            return _drift(kind, state)

        monkeypatch.setattr(oracle, "_drift", recorded)
        monkeypatch.setattr(oracle, "DEFAULT", oracle.DEFAULT._replace(
            ode_rtol=1e-4, ode_atol=1e-6, unit_speed_drift=1e-6))
        g = GeodesicParams(0.4, 0.3, 2.0)
        end = integrate_geodesic(Geometry.S2R, g)[-1]
        assert len(drifts) == 2
        assert drifts[0] > 1e-6 >= drifts[1]
        assert np.abs(end - geodesic_point(Geometry.S2R, g)).max() < 1e-5

    def test_persistent_drift_raises_consistency_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT",
                            oracle.DEFAULT._replace(unit_speed_drift=1e-30))
        with pytest.raises(ConsistencyError, match="persists after tightening"):
            integrate_geodesic(Geometry.S2R, (0.4, 0.3, 2.0))

    def test_zero_length_geodesic_stays_at_the_base_point(self):
        for kind in Geometry:
            assert np.array_equal(integrate_geodesic(kind, (0.3, 0.2, 0.0), steps=100),
                                  np.tile([1.0, 0.0, 0.0], (100, 1)))
            assert np.array_equal(integrate_geodesic_cartesian(kind, (0.3, 0.2, 0.0)),
                                  [1.0, 0.0, 0.0])

    def test_step_minimum_enforced(self):
        with pytest.raises(PrecondError):
            integrate_geodesic(Geometry.S2R, (0, 0, 1), steps=10)

    @pytest.mark.parametrize("steps", [150.5, 150.0, "150", 2**62, 2**63, 10**400])
    def test_step_count_that_is_not_an_integer(self, steps):
        with pytest.raises(PrecondError, match="integer number of steps"):
            integrate_geodesic(Geometry.S2R, (0, 0, 1), steps=steps)

    @pytest.mark.parametrize("steps", [10**15, 10**17])
    def test_step_count_beyond_memory(self, steps):
        """A count whose grid no address space holds: numpy's MemoryError was raw.
        Only counts whose allocation cannot succeed are tried."""
        with pytest.raises(PrecondError, match=f"not enough memory for {steps} steps"):
            integrate_geodesic(Geometry.S2R, (0, 0, 1), steps=steps)

    @pytest.mark.parametrize("kind, multiple", [(Geometry.S2R, 5.01), (Geometry.H2R, 5.34)],
                             ids=["s2r", "h2r"])
    def test_peak_memory_of_a_large_step_count(self, kind, multiple):
        """The tracemalloc peak of 2e5 steps stays within the multiple of the
        output's nbytes measured when each step evaluated its own samples:
        5.001 on S2xR and 5.334 on H2xR (4.8 MB of output, numpy 2.4).  The
        interpolation pass works in blocks of samples: in one block, with the
        coefficient rows of all samples gathered at once, it measured 21.7."""
        integrate_geodesic(kind, (0.3, 0.2, 1.5))
        tracemalloc.start()
        try:
            samples = integrate_geodesic(kind, (0.3, 0.2, 1.5), steps=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= multiple * samples.nbytes, peak / samples.nbytes

    @pytest.mark.parametrize("g", [(0.0, 0.5, 10**400), (0.0, "a", 1.0), (0.0, 0.5), None])
    def test_params_that_are_not_three_doubles(self, g):
        """A raw OverflowError, TypeError or ValueError once escaped both routes."""
        for integrate in (integrate_geodesic, integrate_geodesic_cartesian):
            with pytest.raises(DomainError):
                integrate(Geometry.S2R, g)

    def test_tau_cap_enforced(self):
        with pytest.raises(PrecondError):
            integrate_geodesic(Geometry.H2R, (0, 0, 11.0))


class TestH2rCoth:
    """The coth term of the H2xR intrinsic ODE, 1 / tanh(r): only a state
    with alpha' != 0 reaches it, and no geodesic from the base point does,
    as alpha'' is proportional to alpha' and alpha'(0) = 0."""

    @pytest.mark.parametrize("r", [1e-12, 1e-7, 1e-6, 1e-3, 1.0])
    def test_coth_to_a_few_ulps(self, r):
        """With r' = 1 and alpha' = 1/2, alpha'' is -coth(r) exactly: within
        2 ulps of 1/r + r/3 up to r = 1e-6 (the next term, r^3/45, is below
        an ulp there), of cosh/sinh above, and of the 50-digit coth.
        Measured: 1 ulp at most against each."""
        coth = -_rhs_h2r(0.0, np.array([0.0, r, 0.0, 0.3, 1.0, 0.5]))[5]
        ref = 1.0 / r + r / 3.0 if r <= 1e-6 else math.cosh(r) / math.sinh(r)
        assert abs(coth - ref) <= 2.0 * math.ulp(ref)
        with mpmath.workdps(50):
            exact = float(mpmath.coth(mpmath.mpf(r)))
        assert abs(coth - exact) <= 2.0 * math.ulp(ref)

    def test_r_zero_with_angular_speed_raises(self):
        with pytest.raises(SingularityError, match="r = 0"):
            _rhs_h2r(0.0, np.array([0.0, 0.0, 0.0, 0.3, 1.0, 0.5]))
        assert _rhs_h2r(0.0, np.array([0.0, 0.0, 0.0, 0.3, 1.0, 0.0]))[5] == 0.0

    def test_base_point_geodesics_keep_alpha_prime_zero(self, rng, monkeypatch):
        """alpha' is 0.0 at every right-hand side call of seeded runs, so
        r'' = t'' = 0: the geodesics are straight lines in (t, r)."""
        speeds = []

        def recorded(tau, state):
            speeds.append(state[5])
            return _rhs_h2r(tau, state)

        monkeypatch.setattr(oracle, "_rhs_h2r", recorded)
        for _ in range(20):
            integrate_geodesic(Geometry.H2R, random_params(Geometry.H2R, rng, tau_max=3.0),
                               steps=100)
        assert len(speeds) > 20 and all(s == 0.0 for s in speeds)


class TestUnitSpeedDrift:
    @BOTH
    def test_drift_below_budget_along_solutions(self, kind, rng):
        """Integrate once more and inspect the raw states: the unit-speed
        first integral must persist to 1e-8 over tau <= 2."""
        from scipy.integrate import solve_ivp
        rhs = _rhs_s2r if kind is Geometry.S2R else _rhs_h2r
        for _ in range(25):
            g = random_params(kind, rng, tau_max=2.0)
            sol = solve_ivp(rhs, (0, g.tau), _initial_state(kind, g),
                            method="DOP853", rtol=1e-10, atol=1e-12,
                            t_eval=np.linspace(0, g.tau, 50))
            drifts = [unit_speed_drift(kind, sol.y[:, i]) for i in range(50)]
            assert max(drifts) <= 1e-8

    @BOTH
    def test_columns_of_states_give_the_scalar_drifts(self, kind, rng):
        states = rng.uniform(-1.2, 1.2, size=(6, 40))
        drifts = unit_speed_drift(kind, states)
        assert drifts.shape == (40,)
        for drift, state in zip(drifts, states.T):
            assert abs(drift - unit_speed_drift(kind, state)) <= 1e-15


class TestCartesianIntegration:
    """Chart-free second route: the geodesic acceleration -Gamma(p', p'),
    contracted from complex-step derivatives of the raw metric tensor, no
    intrinsic coordinates anywhere."""

    @BOTH
    def test_endpoints_match_closed_form(self, kind, rng):
        for _ in range(10):
            g = random_params(kind, rng, tau_max=2.0)
            end = integrate_geodesic_cartesian(kind, g)
            assert np.abs(end - geodesic_point(kind, g)).max() < 1e-6

    def test_s2r_christoffel_match_conformal_closed_form(self, rng):
        """g = e^(2 sigma) I with sigma = -log|p|, so Gamma^k_ij =
        delta_ki d_j sigma + delta_kj d_i sigma - delta_ij d_k sigma.  Six
        random velocities per point: their products v^i v^j span the
        symmetric forms, so every component of Gamma is seen."""
        eye = np.eye(3)
        for _ in range(200):
            p = random_point(Geometry.S2R, rng, tau_max=6.0)
            dsigma = -p / (p @ p)
            gamma = (np.einsum("ki,j->kij", eye, dsigma) + np.einsum("kj,i->kij", eye, dsigma)
                     - np.einsum("ij,k->kij", eye, dsigma))
            for dp in rng.normal(size=(6, 3)):
                expected = -np.einsum("kij,i,j->k", gamma, dp, dp)
                got = _acceleration(Geometry.S2R, p.tolist(), dp.tolist())
                assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_h2r_christoffel_match_central_differences(self, rng):
        """Gamma from central differences of the metric, contracted with six
        random velocities per point.  This chart's metric is a Hessian,
        g = 1/2 d d(-log Q), so d_k g_ij is symmetric in all three indices
        and the order of the contraction's indices shows only in S2xR."""
        h = 1e-6
        for _ in range(200):
            p = random_point(Geometry.H2R, rng, tau_max=2.0)
            step = h * np.eye(3)
            dg = (_metric(Geometry.H2R, *(p + step).T)
                  - _metric(Geometry.H2R, *(p - step).T)) / (2.0 * h)  # dg[i, l, j] = d_i g_lj
            lowered = 0.5 * (np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg)
            gamma = np.einsum("kl,lij->kij", np.linalg.inv(_metric(Geometry.H2R, *p)), lowered)
            for dp in rng.normal(size=(6, 3)):
                expected = -np.einsum("kij,i,j->k", gamma, dp, dp)
                got = _acceleration(Geometry.H2R, p.tolist(), dp.tolist())
                assert np.abs(got - expected).max() <= 1e-6 * np.abs(expected).max()

    def test_one_metric_evaluation_per_right_hand_side(self, monkeypatch):
        """Every right-hand side checks its point once and evaluates the
        metric entries three times, once per complex step p + ih e_k."""
        guards, entries = [], []
        true_guard = oracle._guard_member

        def guard(*args):
            guards.append(1)
            return true_guard(*args)

        def counted(*args):
            entries.append(1)
            return _metric_entries(*args)

        monkeypatch.setattr(oracle, "_guard_member", guard)
        monkeypatch.setattr(oracle, "_metric_entries", counted)
        for kind in Geometry:
            guards.clear()
            entries.clear()
            integrate_geodesic_cartesian(kind, (0.4, 0.3, 1.5))
            assert len(guards) > 0
            assert len(entries) == 3 * len(guards)

    def test_h2r_long_surface_arcs_are_cheap_and_exact(self, monkeypatch, rng):
        """Surface arcs w = tau cos v in [1.6, 2], where central differences
        of the metric let the step control run to thousands of evaluations:
        endpoints within 1e-8 in at most 300 right-hand sides, which are
        900 evaluations of the metric entries."""
        evaluations = []

        def counted(*args):
            evaluations.append(1)
            return _metric_entries(*args)

        monkeypatch.setattr(oracle, "_metric_entries", counted)
        draws = [GeodesicParams(0.3, 0.0, 2.0)] + [
            GeodesicParams(rng.uniform(-PI, PI), sign * math.acos(w / 2.0), 2.0)
            for w, sign in zip(np.linspace(1.6, 2.0, 6), [1, -1, 1, -1, 1, -1])]
        for g in draws:
            evaluations.clear()
            end = integrate_geodesic_cartesian(Geometry.H2R, g)
            assert np.abs(end - geodesic_point(Geometry.H2R, g)).max() <= 1e-8, g
            assert 0 < len(evaluations) <= 3 * 300, g

    @pytest.mark.parametrize("kind, bound", [(Geometry.S2R, 1e-14), (Geometry.H2R, 1e-11)],
                             ids=["s2r", "h2r"])
    def test_acceleration_against_a_50_digit_oracle(self, kind, bound):
        """On exactly rounded points with surface arc w <= 2 and fibre height
        in [-2, 2], and random velocities: the float kernel against the
        acceleration that ``mp_oracle`` computes in 50 digits from the
        metric's derivatives written out by hand, relative to its largest
        component.  The H2xR floor is the rounding of Q = x^2 - y^2 - z^2,
        eps cosh(2w)-conditioned, in the metric formula: over 3,000 points
        the worst was 5.1e-12 here and 2.8e-12 with the LU solve it
        replaced, the same in distribution; S2xR stays within 1e-15."""
        rng = np.random.default_rng(9)
        for _ in range(200):
            t, w, u = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2.0), rng.uniform(-PI, PI)
            p = np.array(closed_form_point(kind, u, math.atan2(t, w), math.hypot(t, w)))
            dp = rng.normal(size=3)
            exact = np.array(mp_acceleration(kind, p, dp))
            got = np.array(_acceleration(kind, p.tolist(), dp.tolist()))
            assert np.abs(got - exact).max() <= bound * np.abs(exact).max(), (p, dp)

    @pytest.mark.parametrize("kind, p, dp, message", [
        # cosh 10 and sinh 10 agree to 9 digits: Re g has a negative pivot
        (Geometry.H2R, (math.cosh(10.0), math.sinh(10.0), 0.0), (0.3, -0.2, 0.9),
         "not positive definite"),
        # (0 + ih)^2 + (1e-20)^2 is exactly 0: Python complex divides by zero
        (Geometry.S2R, (0.0, 1e-20, 0.0), (1.0, 0.0, 0.0), "is singular"),
        (Geometry.H2R, (1.0, 0.2, 0.0), (1e160, 0.0, 0.0), "is not finite")],
        ids=["pivot", "denominator", "overflow"])
    def test_singular_metric_is_a_singularity_error(self, kind, p, dp, message):
        with pytest.raises(SingularityError, match=message):
            _acceleration(kind, p, dp)

    def test_h2r_far_from_the_axis_is_finite_or_a_singularity_error(self):
        """Members at surface arcs w in [8, 10], where the metric's
        conditioning reaches e^20: every acceleration is finite or a
        SingularityError, never a bare math or linear-algebra error."""
        rng = np.random.default_rng(11)
        singular = 0
        for _ in range(300):
            w, u = rng.uniform(8.0, 10.0), rng.uniform(-PI, PI)
            p = math.exp(rng.uniform(-2.0, 2.0)) * np.array(
                [math.cosh(w), math.sinh(w) * math.cos(u), math.sinh(w) * math.sin(u)])
            try:
                assert np.isfinite(_acceleration(Geometry.H2R, p.tolist(),
                                                 rng.normal(size=3).tolist())).all()
            except SingularityError:
                singular += 1
        assert singular > 0

    def test_h2r_surface_arc_limit(self):
        """H2xR surface arcs tau |cos v| above 3.5 are a PrecondError before
        any step: w = 4 took seconds and w = 5 did not finish.  Up to the
        limit, endpoints are within 1e-6 relative; S2xR has no limit."""
        limit = 3.5
        for g in [(0.3, 0.0, 4.0), (0.3, 0.0, 5.0), (-1.0, 0.7, limit / math.cos(0.7) * 1.001)]:
            with pytest.raises(PrecondError, match="surface arcs"):
                integrate_geodesic_cartesian(Geometry.H2R, g)
        below = limit * (1.0 - 1e-12)
        for g in [(0.3, 0.0, limit), (-1.0, 0.7, below / math.cos(0.7)),
                  (2.0, -1.2, below / math.cos(1.2))]:
            end = integrate_geodesic_cartesian(Geometry.H2R, g)
            closed = geodesic_point(Geometry.H2R, g)
            assert np.abs(end - closed).max() <= 1e-6 * np.abs(closed).max(), g
        end = integrate_geodesic_cartesian(Geometry.S2R, (0.3, 0.0, 5.0))
        assert np.abs(end - geodesic_point(Geometry.S2R, (0.3, 0.0, 5.0))).max() <= 1e-6

    @BOTH
    def test_tau_limit_shared_with_the_intrinsic_route(self, kind):
        """Both routes stop at tau = 10.  Beyond it the absolute tolerance
        lost fibre descents with no error: S2xR (0.3, -1.5, 30) ended 1.1e-3
        off, (0.3, -1.5, 40) 88 times off, and H2xR (0.3, -1.5, 40) left the
        model.  At the limit the descent ends within 1e-6 relative (measured
        1.5e-9 on S2xR and 8.8e-10 on H2xR)."""
        for tau in (10.0 * (1.0 + 1e-12), 30.0, 40.0):
            for integrate in (integrate_geodesic, integrate_geodesic_cartesian):
                with pytest.raises(PrecondError, match="tau <= 10"):
                    integrate(kind, (0.3, -1.5, tau))
        g = (0.3, -1.5, 10.0)
        closed = geodesic_point(kind, g)
        end = integrate_geodesic_cartesian(kind, g)
        assert np.abs(end - closed).max() <= 1e-6 * np.abs(closed).max()

    def test_leaving_the_model_raises_domain_error(self, monkeypatch):
        """The state point is checked on every evaluation: a step that leaves
        the cone is a DomainError, not a NaN carried to the endpoint."""
        # y'' = 10 |p'|^2 drives y past x = 1
        monkeypatch.setattr(oracle, "_acceleration",
                            lambda kind, p, dp: [0.0, 10.0 * np.dot(dp, dp), 0.0])
        with pytest.raises(DomainError, match="is not in the h2r model"):
            integrate_geodesic_cartesian(Geometry.H2R, (0.0, 0.0, 2.0))


#: fixed draws and their exact rhs call counts on the intrinsic and Cartesian
#: routes, which SciPy's step control gives
SAME_STEPS = [
    (Geometry.S2R, (-1.4844638820273632, -0.7598524616203689, 0.011270059458203186), 17, 14),
    # the costliest draw of the oracle workload (seed 21): near the pole of
    # the geographic chart, where the median draw takes 62
    (Geometry.S2R, (1.4524836882590835, -0.04859611564938726, 1.871041643484289), 797, 98),
    # a rejected step, after which the next may not grow
    (Geometry.S2R, (2.701962839584681, -0.3182069571970343, 1.992926865228162), 164, 110),
    (Geometry.H2R, (-0.7289150785145293, 1.499295042387366, 0.003967720277008627), 17, 14),
    (Geometry.H2R, (0.562233730072752, -1.4931203823774568, 1.3438056606498268), 62, 86),
    (Geometry.H2R, (2.4649672202857387, -0.9713436030300396, 1.9044829531057947), 62, 134),
]
SAME_STEPS_IDS = ["s2r-short", "s2r-pole", "s2r-rejection", "h2r-short", "h2r-steep", "h2r-long"]


def _numpy_initial_step(fun, t, y, f, span, rtol, atol):
    """``_dop853._initial_step`` as it was computed on numpy arrays, the
    reference of the float one: y / scale and its RMS by ``x @ x``, whose last
    bit depends on the BLAS build (one with FMA rounds each product less)."""
    def rms(x):
        return math.sqrt(x @ x) / math.sqrt(x.size)

    y, f = np.array(y, dtype=float), np.array(f, dtype=float)
    scale = atol + rtol * np.abs(y)
    d0, d1 = rms(y / scale), rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, span)


def _cartesian_rhs(kind):
    def rhs(_t, state):
        p, dp = state[:3], state[3:]
        return np.concatenate([dp, _acceleration(kind, p.tolist(), dp.tolist())])
    return rhs


def _routes(kind, g):
    """The right-hand side and the initial state of each route."""
    return [(_rhs_s2r if kind is Geometry.S2R else _rhs_h2r, _initial_state(kind, g)),
            (_cartesian_rhs(kind), [1.0, 0.0, 0.0, *tangent_of(g).tolist()])]


def _seven_rows(h, y, y_new, K):
    """The Horner rows of a step's interpolant formed row by row from dy = y_new - y,
    as ``_dop853._horner_rows`` formed them before its one product: the reference
    that product is held to."""
    dy = y_new - y
    out = np.empty((8, y.size))
    out[3::-1] = h * (_dop853.D @ K)
    out[4] = 2.0 * dy - h * (K[12] + K[0])
    out[5] = h * K[0] - dy
    out[6], out[7] = dy, y
    return out


def _stepwise_solve(fun, y0, times, rtol, atol):
    """``_dop853.solve`` as it was before its interpolation pass, the reference
    of that pass: each step that holds samples evaluates its interpolant at
    once, by ``_dense``.  Its stages are ``solve``'s, by the same folded rows
    (1, h A[s, :s]) and ``_stages``, and so are its Horner coefficients, by the
    same product of ``_HORNER`` folded for h with (y, K), so only the
    interpolation differs.  Returns the states and the accepted steps' ends (t, y)."""

    def _dense(t, h, times):
        _dop853._stages(fun, t, h, K, rows, blocks, (13, 14, 15))
        folded = h * _dop853._HORNER
        folded[7, 0] = 1.0
        *coeffs, y = folded.dot(YK)
        x = ((times - t) / h)[:, None]
        out, factors = np.zeros((len(times), len(y))), (x, 1.0 - x)
        for i, c in enumerate(coeffs):
            out += c
            out *= factors[i % 2]
        return (out + y).T

    times = np.asarray(times, dtype=float)
    grid = memoryview(times)
    t, t_end = grid[0], grid[-1]
    y = np.array(y0, dtype=float)
    YK, H = np.empty((17, y.size)), np.empty((16, 17))
    YK[0], YK[1] = y, fun(t, y)
    K = YK[1:]
    rows, blocks = [H[s, :s + 1] for s in range(16)], [YK[:s + 1] for s in range(16)]
    out, ends = np.empty((y.size, times.size)), []
    done = bisect_right(grid, t)
    out[:, :done] = y[:, None]
    h = (_dop853._initial_step(fun, t, y.tolist(), K[0].tolist(), t_end - t, rtol, atol)
         if t < t_end else 0.0)
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h, rejected = max(h, min_step), False
        while True:
            if h < min_step:
                raise SingularityError(f"integration failed: step size underflow at t = {t}")
            t_new = min(t + h, t_end)
            h = t_new - t
            np.multiply(h, _dop853._ROWS, out=H)
            H[:, 0] = 1.0
            _dop853._stages(fun, t, h, K, rows, blocks, range(1, 12))
            y_new = rows[12].dot(blocks[12])
            K[12] = fun(t_new, y_new)
            norm = _dop853._error_norm(K[:12], h, YK[0].tolist(), y_new.tolist(), rtol, atol)
            if norm < 1.0:
                factor = 10.0 if norm == 0.0 else min(10.0, 0.9 * norm ** (-1 / 8))
                h *= min(1.0, factor) if rejected else factor
                break
            h *= max(0.2, 0.9 * norm ** (-1 / 8))
            rejected = True
        inner = bisect_left(grid, t_new)
        if inner > done:
            out[:, done:inner] = _dense(t, t_new - t, times[done:inner])
        done = bisect_right(grid, t_new)
        out[:, inner:done] = y_new[:, None]
        ends.append((t_new, y_new))
        t, YK[0], K[0] = t_new, y_new, K[12]
    return out, ends


class TestDop853:
    """The in-repo DOP853 against scipy's, which stays the independent
    reference: the same coefficients and step control, so the same steps."""

    @staticmethod
    def _same_as_stepwise(fun, y0, times):
        """The interpolation pass gives the bits of the stepwise interpolant, also
        on a grid that holds every step's end, where each sample is that step's state."""
        rtol, atol = oracle.DEFAULT.ode_rtol, oracle.DEFAULT.ode_atol
        ref, ends = _stepwise_solve(fun, y0, times, rtol, atol)
        assert _dop853.solve(fun, y0, times, rtol, atol).tobytes() == ref.tobytes()
        with_ends = np.union1d(times, [t for t, _ in ends])
        states = _dop853.solve(fun, y0, with_ends, rtol, atol)
        assert states.tobytes() == _stepwise_solve(fun, y0, with_ends, rtol, atol)[0].tobytes()
        at_ends = states[:, np.searchsorted(with_ends, [t for t, _ in ends])]
        assert at_ends.tobytes() == np.array([y for _, y in ends]).T.tobytes()
        return len(ends)

    def test_interpolation_pass_on_the_harmonic_oscillator(self):
        steps = self._same_as_stepwise(lambda _t, y: np.array([y[1], -y[0]]), [0.0, 1.0],
                                       np.linspace(0.0, 2.0 * PI, 1001))
        assert steps > 10  # many steps, each holding many samples

    @BOTH
    def test_interpolation_pass_on_draws(self, kind, rng):
        rhs = _rhs_s2r if kind is Geometry.S2R else _rhs_h2r
        for _ in range(50):
            g = random_params(kind, rng, tau_max=2.0)
            self._same_as_stepwise(rhs, _initial_state(kind, g), np.linspace(0.0, g.tau, 200))

    @BOTH
    def test_intrinsic_samples_match_scipy(self, kind, rng):
        from scipy.integrate import solve_ivp
        rhs = _rhs_s2r if kind is Geometry.S2R else _rhs_h2r
        rtol, atol = oracle.DEFAULT.ode_rtol, oracle.DEFAULT.ode_atol
        for _ in range(50):
            g = random_params(kind, rng, tau_max=2.0)
            grid = np.linspace(0.0, g.tau, 200)
            state0 = _initial_state(kind, g)
            calls = []

            def counted(t, y):
                calls.append(t)
                return rhs(t, y)

            states = _dop853.solve(counted, state0, grid, rtol, atol)
            ref = solve_ivp(rhs, (0.0, g.tau), state0, method="DOP853",
                            t_eval=grid, rtol=rtol, atol=atol)
            assert np.abs(states - ref.y).max() <= 1e-13, g
            assert abs(len(calls) - ref.nfev) <= 12, g  # one rejected step

    @BOTH
    def test_cartesian_endpoints_match_scipy(self, kind, rng, monkeypatch):
        from scipy.integrate import solve_ivp
        rhs, calls = _cartesian_rhs(kind), []

        def counted(*args):
            calls.append(1)
            return _acceleration(*args)

        monkeypatch.setattr(oracle, "_acceleration", counted)
        for _ in range(50):
            g = random_params(kind, rng, tau_max=2.0)
            calls.clear()
            end = integrate_geodesic_cartesian(kind, g)
            state0 = np.concatenate([[1.0, 0.0, 0.0], tangent_of(g)])
            ref = solve_ivp(rhs, (0.0, g.tau), state0, method="DOP853",
                            rtol=oracle.DEFAULT.ode_rtol, atol=oracle.DEFAULT.ode_atol)
            assert np.abs(end - ref.y[:3, -1]).max() <= 1e-10, g
            assert abs(len(calls) - ref.nfev) <= 12, g

    def test_h2r_intrinsic_rhs_counts_are_scipys(self, rng):
        """On H2xR the intrinsic route is a straight line in (t, r), so every stage is
        the same vector and the 5th-order error estimate is rounding noise, whose
        summation decides the steps: the rhs count is SciPy's nfev exactly, with the
        route's 200 samples at tau <= 2 and for the endpoint alone at tau <= 10."""
        from scipy.integrate import solve_ivp
        rtol, atol = oracle.DEFAULT.ode_rtol, oracle.DEFAULT.ode_atol
        for tau_max in (2.0, 10.0):
            for _ in range(50):
                g = random_params(Geometry.H2R, rng, tau_max=tau_max)
                grid = np.linspace(0.0, g.tau, 200) if tau_max == 2.0 else [0.0, g.tau]
                state0, calls = _initial_state(Geometry.H2R, g), []

                def counted(t, y):
                    calls.append(t)
                    return _rhs_h2r(t, y)

                _dop853.solve(counted, state0, grid, rtol, atol)
                ref = solve_ivp(_rhs_h2r, (0.0, g.tau), state0, method="DOP853",
                                t_eval=grid if tau_max == 2.0 else None, rtol=rtol, atol=atol)
                assert len(calls) == ref.nfev, g

    @BOTH
    def test_horner_rows_are_the_seven_row_formation(self, kind, rng, monkeypatch):
        """``_horner_rows``' one product of ``_HORNER`` folded for h with (y, K) is the
        row-by-row formation from dy = y_new - y (``_seven_rows``) to a few ulps of the
        rows' magnitude |h _HORNER| . |(y, K)| + |y|, on every step of the intrinsic
        route that holds samples, over seeded draws with tau <= 2: at most 3.4 eps
        measured, against a 17-term product on one side and dy's roundings on the other."""
        horner, worst, bound = _dop853._horner_rows, [0.0], 8.0 * np.finfo(float).eps

        def compared(fun, t, h, YK, rows, blocks):
            got = horner(fun, t, h, YK, rows, blocks)
            y_new = rows[12].dot(blocks[12])  # solve's y_new, by its own row
            magnitude = np.abs(h * _dop853._HORNER)
            magnitude[7, 0] = 1.0
            size = magnitude.dot(np.abs(YK)) + np.abs(YK[0])
            error = np.abs(got - _seven_rows(h, YK[0], y_new, YK[1:]))
            assert (error <= bound * size).all()
            worst[0] = max(worst[0], float((error[size > 0.0] / size[size > 0.0]).max()))
            return got

        monkeypatch.setattr(_dop853, "_horner_rows", compared)
        rhs = _rhs_s2r if kind is Geometry.S2R else _rhs_h2r
        rtol, atol = oracle.DEFAULT.ode_rtol, oracle.DEFAULT.ode_atol
        for _ in range(50):
            g = random_params(kind, rng, tau_max=2.0)
            _dop853.solve(rhs, _initial_state(kind, g), np.linspace(0.0, g.tau, 200), rtol, atol)
        assert 0.0 < worst[0] <= bound

    @pytest.mark.parametrize("kind, g, intrinsic, cartesian", SAME_STEPS, ids=SAME_STEPS_IDS)
    def test_the_same_steps(self, kind, g, intrinsic, cartesian, monkeypatch):
        """The exact rhs call counts of fixed draws on both routes: the step
        sequence of the starting step, the safety factor and the growth
        limits.  No bits are pinned, as BLAS builds differ in the last ulp."""
        solve, calls = _dop853.solve, []

        def counted(fun, *args):
            def rhs(t, y):
                calls.append(t)
                return fun(t, y)
            return solve(rhs, *args)

        monkeypatch.setattr(_dop853, "solve", counted)
        integrate_geodesic(kind, g)
        on_the_chart = len(calls)
        calls.clear()
        integrate_geodesic_cartesian(kind, g)
        assert (on_the_chart, len(calls)) == (intrinsic, cartesian)

    def test_folded_rows_reproduce_the_stage_update(self):
        """Row s of the buffer ``solve`` folds for a step of size h, (1, h A[s, :s]),
        dotted with (y, K[:s]) is SciPy's update y + h (A[s, :s] . K[:s]) to a few
        ulps of its terms' magnitude |y| + h |A[s, :s]| . |K[:s]|: every stage, y_new
        (row 12, the weights B) and K13-K15, on seeded random K, y and h."""
        rng, A = np.random.default_rng(853), _dop853.A
        H, worst = np.empty((16, 17)), 0.0
        for _ in range(300):
            n, h = int(rng.integers(1, 7)), 10.0 ** rng.uniform(-8.0, 0.5)
            YK = rng.normal(size=(17, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(17, 1))
            np.multiply(h, _dop853._ROWS, out=H)
            H[:, 0] = 1.0
            for s in range(1, 16):
                ref = YK[0] + h * A[s, :s].dot(YK[1:s + 1])
                size = np.abs(YK[0]) + h * np.abs(A[s, :s]).dot(np.abs(YK[1:s + 1]))
                worst = max(worst, float((np.abs(H[s, :s + 1].dot(YK[:s + 1]) - ref) / size).max()))
        assert worst <= 4.0 * np.finfo(float).eps

    @BOTH
    def test_float_starting_step_is_the_numpy_formula(self, kind, rng):
        """``_initial_step`` in floats is the numpy formula to rounding, on both
        routes' right-hand sides over seeded draws: its sums run in order where
        BLAS may fuse each product into the sum."""
        rtol, atol = oracle.DEFAULT.ode_rtol, oracle.DEFAULT.ode_atol
        worst = 0.0
        for _ in range(200):
            g = random_params(kind, rng, tau_max=2.0)
            for rhs, y in _routes(kind, g):
                f = np.array(rhs(0.0, np.array(y)), dtype=float).tolist()
                ref = _numpy_initial_step(rhs, 0.0, y, f, g.tau, rtol, atol)
                h = _dop853._initial_step(rhs, 0.0, [float(a) for a in y], f, g.tau, rtol, atol)
                worst = max(worst, abs(h - ref) / ref)
        # each side's sum of six squares is within 5 u of the exact sum, and
        # h0 = 0.01 d0 / d1 takes the square roots of two of them: 8 eps is rounding
        assert worst <= 8.0 * np.finfo(float).eps

    @pytest.mark.parametrize("kind, g", [draw[:2] for draw in SAME_STEPS], ids=SAME_STEPS_IDS)
    def test_float_starting_step_on_the_same_steps_draws(self, kind, g):
        """On the draws of ``test_the_same_steps`` the float starting step is the
        numpy formula's to the bit, on both routes."""
        g = GeodesicParams.normalized(*g)
        rtol, atol = oracle.DEFAULT.ode_rtol, oracle.DEFAULT.ode_atol
        for rhs, y in _routes(kind, g):
            f = np.array(rhs(0.0, np.array(y)), dtype=float).tolist()
            h = _dop853._initial_step(rhs, 0.0, [float(a) for a in y], f, g.tau, rtol, atol)
            assert h == _numpy_initial_step(rhs, 0.0, y, f, g.tau, rtol, atol)

    def test_dense_output_of_the_harmonic_oscillator(self):
        """y'' = -y over one period: samples strictly inside the steps come
        from the 7th-order interpolant, and match sin to 1e-9."""
        calls = []

        def oscillator(_t, y):
            calls.append(1)
            return np.array([y[1], -y[0]])

        times = np.linspace(0.0, 2.0 * PI, 1001)
        states = _dop853.solve(oscillator, [0.0, 1.0], times, 1e-10, 1e-12)
        assert states.shape == (2, 1001)
        assert states[0, 0] == 0.0 and states[1, 0] == 1.0
        assert np.abs(states[0] - np.sin(times)).max() <= 1e-9
        assert np.abs(states[1] - np.cos(times)).max() <= 1e-9
        assert len(calls) < 1001 // 2  # far fewer evaluations than samples

    def test_blow_up_is_a_singularity_error(self):
        """y' = y^2, y(0) = 1, blows up at t = 1: the steps shrink until they
        underflow, well inside a budget of evaluations that stands in for a
        hang."""
        calls = []

        def blowing_up(_t, y):
            calls.append(1)
            if len(calls) > 100_000:
                raise AssertionError("integration did not stop")
            return y * y

        with pytest.raises(SingularityError, match="step size underflow at t = 1.0"):
            _dop853.solve(blowing_up, [1.0], np.linspace(0.0, 2.0, 5), 1e-10, 1e-12)


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

    @pytest.mark.filterwarnings("error")
    def test_metric_beyond_double_range_at_a_midpoint(self):
        """The midpoint (1e-300, 5e-301, 0) is a member whose S2xR metric, 1/|p|^2,
        overflows: a typed error, not an inf length."""
        with pytest.raises(DomainError,
                           match="^the s2r metric at a midpoint is beyond double range$"):
            arc_length_quadrature(Geometry.S2R, [(1e-300, 0, 0), (1e-300, 1e-300, 0), (1, 0, 0)])

    def test_rejects_short_input(self):
        with pytest.raises(DomainError):
            arc_length_quadrature(Geometry.S2R, [np.array([1.0, 0, 0])])
        with pytest.raises(DomainError, match="at least two"):
            arc_length_quadrature(Geometry.S2R, np.array([[1.0, 0, 0]]))

    def test_rejects_invalid_points(self):
        bad = [np.array([1.0, 1.0, 0.0]), np.array([1.0, 3.0, 0.0])]
        with pytest.raises(DomainError):
            arc_length_quadrature(Geometry.H2R, bad)

    def test_accepts_any_iterable_of_points(self):
        pts = sample_curve(Geometry.H2R, (0.3, 0.2, 1.5), 50)
        expected = arc_length_quadrature(Geometry.H2R, pts)
        assert arc_length_quadrature(Geometry.H2R, (p for p in pts)) == expected
        assert arc_length_quadrature(Geometry.H2R, [tuple(p) for p in pts]) == expected

    def test_array_and_generator_give_the_same_length(self):
        """An array is read as it is, whatever its dtype or memory layout;
        a generator of its rows gives the same sum."""
        pts = sample_curve(Geometry.S2R, (0.3, 0.2, 1.5), 60)
        for curve in (pts, np.asfortranarray(pts), np.repeat(pts, 2, axis=0)[::2]):
            assert arc_length_quadrature(Geometry.S2R, curve) == \
                arc_length_quadrature(Geometry.S2R, (p for p in curve))
        lattice = np.array([[1, 0, 0], [2, 1, 0], [3, 1, 1], [3, 2, 2]])
        assert arc_length_quadrature(Geometry.S2R, lattice) == \
            arc_length_quadrature(Geometry.S2R, (p for p in lattice))

    @pytest.mark.parametrize("curve", [[(1.0, 0.0), (2.0, 0.0)],
                                       [(1.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0)],
                                       np.array([(1.0, 0.0), (2.0, 0.0)]),
                                       np.array([1.0, 0.0, 0.0])],
                             ids=["two", "four", "two-array", "flat-array"])
    def test_rejects_points_without_three_coordinates(self, curve):
        with pytest.raises(DomainError, match="3 coordinates"):
            arc_length_quadrature(Geometry.H2R, curve)

    def test_first_midpoint_outside_is_named(self):
        curve = [(2.0, 0.0, 0.0), (2.0, 0.5, 0.0), (1.0, 3.0, 0.0), (1.0, 4.0, 0.0)]
        with pytest.raises(DomainError) as caught:
            arc_length_quadrature(Geometry.H2R, curve)
        assert str(caught.value) == "point (1.5, 1.75, 0.0) is not in the h2r model"

    @BOTH
    def test_batch_equals_sequential_sum(self, kind, rng):
        """The batch quadrature, the expanded quadratic form of the metric entries, is the
        ``metric_at`` sum segment by segment, also on the curve scaled by 1e-150 and 1e150:
        the metrics are homogeneous of degree -2, so the scaled curves keep the length,
        where ``metric_at`` itself is beyond double range on H2xR."""
        for _ in range(20):
            g = random_params(kind, rng, tau_max=2.0)
            pts = sample_curve(kind, g, 200)
            sequential = 0.0
            for a, b in zip(pts[:-1], pts[1:]):
                delta = b - a
                sequential += math.sqrt(delta @ metric_at(kind, 0.5 * (a + b)) @ delta)
            for scale in (1.0, 1e-150, 1e150):
                assert arc_length_quadrature(kind, scale * pts) == pytest.approx(sequential,
                                                                                 rel=1e-13)

    def test_rounding_up_to_the_cartesian_surface_arc(self, rng):
        """On H2xR curves of surface arc w up to the Cartesian route's limit 3.5 the terms
        of the quadratic form reach cosh^2(2 w) times the form, 3e5 at w = 3.5, so any
        evaluation of it in floats can round the length by more than 1e-13 there (on one
        draw, 3.4e-13 the batch, 3.3e-13 the ``metric_at`` sum, 4.6e-13 an einsum).
        Both stay within eps of the terms' magnitude, sum_i T_i / (2 sqrt Q_i) with
        T_i = sum_jk |g_jk d_j d_k|, and of sqrt(n) times the length, the rounding of the
        sum of n segments, from the 50-digit midpoint rule: also the curve scaled by
        1e-150 and 1e150, whose form stays positive (a form that is not raises
        DomainError).  The batch measured at most 0.18 eps of the terms' magnitude."""
        for arc in np.linspace(0.5, oracle._H2R_SURFACE_ARC, 7):
            tau = rng.uniform(arc, 10.0)
            g = (rng.uniform(-PI, PI), rng.choice([-1.0, 1.0]) * math.acos(arc / tau), tau)
            pts = sample_curve(Geometry.H2R, g, 200)
            exact, sequential, magnitude = midpoint_length(Geometry.H2R, pts), 0.0, 0.0
            for a, b in zip(pts[:-1], pts[1:]):
                delta, metric = b - a, metric_at(Geometry.H2R, 0.5 * (a + b))
                length = math.sqrt(delta @ metric @ delta)
                sequential += length
                magnitude += np.abs(delta) @ np.abs(metric) @ np.abs(delta) / (2.0 * length)
            bound = np.finfo(float).eps * (magnitude + math.sqrt(len(pts)) * exact)
            assert abs(sequential - exact) <= bound, g
            for scale in (1.0, 1e-150, 1e150):
                assert abs(arc_length_quadrature(Geometry.H2R, scale * pts) - exact) <= bound, g

    @BOTH
    def test_converges_to_tau(self, kind, rng):
        for _ in range(5):
            g = random_params(kind, rng, tau_max=2.0)
            pts = sample_curve(kind, g, 4001)
            assert abs(arc_length_quadrature(kind, pts) - g.tau) < 1e-7
