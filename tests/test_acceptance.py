"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 6 carries one strictly-expected failure: the H2xR
inverse cannot hit 1e-9 per component over the *whole* tau <= 10 box in
double precision, because points with surface arc w = tau cos v >~ 7.5
store the fibre split only to about eps * cosh(2w) in their rounded
coordinates.  That corner is asserted at its representation floor instead,
and the companion test pins the strict tolerance on the well-posed domain.
"""

import math
import time

import numpy as np
import pytest

from prodgeo import (
    BASE_POINT,
    GeodesicParams,
    Geometry,
    SweepSpec,
    angle_sum,
    angle_sum_at,
    apply_isometry,
    distance,
    evaluate,
    geodesic_params,
    geodesic_point,
    geodesic_triangle,
    integrate_geodesic,
    reference_image_base,
    reference_image_third,
    reference_images_plane_mover,
    to_origin,
)
from prodgeo.isometries import transcribed_normalizer_s2r
from prodgeo.oracle import _initial_state, _rhs_h2r, _rhs_s2r, unit_speed_drift
from prodgeo.reference import SWEEP_FAMILIES, TABLE_ROWS
from conftest import random_params, random_point

PI = math.pi
EPS = np.finfo(float).eps


def report(criterion, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {label}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def _table_deviation(kind):
    a2, rows = TABLE_ROWS[kind]
    worst = 0.0
    for a3, expected in rows:
        tri = geodesic_triangle(kind, BASE_POINT, a2, a3)
        got = angle_sum(tri)
        worst = max(worst, max(abs(g - r) for g, r in zip(got, expected)))
    return worst


class TestCriterion1Table1:
    def test_all_rows_within_1e4(self):
        start = time.perf_counter()
        worst = _table_deviation(Geometry.S2R)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-4 and elapsed < 1.0
        assert report(1, "table 1 reproduction (5 rows, 1e-4 abs, < 1 s)", ok,
                      f"max |delta| {worst:.2e}, {elapsed:.2f} s")


class TestCriterion2Table2:
    def test_all_rows_within_1e4(self):
        start = time.perf_counter()
        worst = _table_deviation(Geometry.H2R)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-4 and elapsed < 1.0
        assert report(2, "table 2 reproduction (5 rows, 1e-4 abs, < 1 s)", ok,
                      f"max |delta| {worst:.2e}, {elapsed:.2f} s")


class TestCriterion3SweepS2R:
    def test_extremum(self):
        a2, ray, t_ref, s_ref = SWEEP_FAMILIES[Geometry.S2R]
        start = time.perf_counter()
        result = evaluate(SweepSpec(Geometry.S2R, a2, ray, 1e-3, 5.0, 512))
        elapsed = time.perf_counter() - start
        ok = (abs(result.t_extremum - t_ref) <= 1e-3
              and abs(result.s_extremum - s_ref) <= 1e-3
              and elapsed < 10.0)
        assert report(3, "S2xR sweep maximum (t0, S(t0) to 1e-3, < 10 s)", ok,
                      f"t0 {result.t_extremum:.6f}, S {result.s_extremum:.6f}, {elapsed:.1f} s")


class TestCriterion4SweepH2R:
    def test_extremum(self):
        a2, ray, t_ref, s_ref = SWEEP_FAMILIES[Geometry.H2R]
        start = time.perf_counter()
        result = evaluate(SweepSpec(Geometry.H2R, a2, ray, 1e-3, 5.0, 512))
        elapsed = time.perf_counter() - start
        ok = (abs(result.t_extremum - t_ref) <= 1e-3
              and abs(result.s_extremum - s_ref) <= 1e-3
              and elapsed < 10.0)
        assert report(4, "H2xR sweep minimum (t0, S(t0) to 1e-3, < 10 s)", ok,
                      f"t0 {result.t_extremum:.6f}, S {result.s_extremum:.6f}, {elapsed:.1f} s")


class TestCriterion5Trichotomy:
    def test_random_and_coplanar_families(self):
        rng = np.random.default_rng(5)
        margins = {}
        for kind in Geometry:
            worst_side = 0.0
            for _ in range(500):
                tri = geodesic_triangle(kind, BASE_POINT,
                                        random_point(kind, rng), random_point(kind, rng))
                total = angle_sum(tri).total
                side = PI - total if kind is Geometry.S2R else total - PI
                worst_side = max(worst_side, side)
            worst_flat = 0.0
            count = 0
            while count < 200:
                psi = rng.uniform(-PI, PI)
                side_vec = np.array([0.0, math.cos(psi), math.sin(psi)])
                c = rng.uniform(0.1, 2.0, size=2)
                d = rng.uniform(-0.95, 0.95, size=2) * (c if kind is Geometry.H2R else 2.0)
                try:
                    tri = geodesic_triangle(kind, BASE_POINT,
                                            c[0] * BASE_POINT + d[0] * side_vec,
                                            c[1] * BASE_POINT + d[1] * side_vec)
                except Exception:
                    continue
                count += 1
                worst_flat = max(worst_flat, abs(angle_sum(tri).total - PI))
            margins[kind] = (worst_side, worst_flat)
        ok = all(side <= 1e-9 and flat <= 1e-8 for side, flat in margins.values())
        detail = ", ".join(
            f"{k.value}: worst side excess {s:.1e}, coplanar {f:.1e}"
            for k, (s, f) in margins.items()
        )
        assert report(5, "trichotomy (500 random + 200 coplanar per geometry)", ok, detail)


class TestCriterion6Roundtrip:
    def test_s2r_identity_domain(self):
        """tau <= 4, restricted to arcs below pi where a unique shortest
        geodesic exists (the stated intent of the tau bound)."""
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            g = random_params(Geometry.S2R, rng, tau_max=4.0)
            h = geodesic_params(Geometry.S2R, geodesic_point(Geometry.S2R, g))
            worst = max(worst, abs(math.remainder(g.u - h.u, 2 * PI)),
                        abs(g.v - h.v), abs(g.tau - h.tau))
        assert report(6, "roundtrip S2xR (1000 draws, 1e-9/component)",
                      worst <= 1e-9, f"worst {worst:.2e}")

    def test_h2r_well_posed_domain_and_floor(self):
        """tau <= 10 with the ill-conditioned corner held to its float64
        representation floor; strict 1e-9 on surface arcs w <= 7.5."""
        rng = np.random.default_rng(6)
        worst_strict = 0.0
        floor_ok = True
        for _ in range(1000):
            u = rng.uniform(-PI, PI)
            v = rng.uniform(-PI / 2, PI / 2)
            tau = rng.uniform(1e-3, 10.0)
            g = GeodesicParams(u, v, tau)
            h = geodesic_params(Geometry.H2R, geodesic_point(Geometry.H2R, g))
            err = max(abs(math.remainder(g.u - h.u, 2 * PI)),
                      abs(g.v - h.v), abs(g.tau - h.tau))
            w = tau * math.cos(v)
            floor_ok &= err <= 8.0 * EPS * math.cosh(2.0 * w) + 1e-9
            if w <= 7.5:
                worst_strict = max(worst_strict, err)
        ok = worst_strict <= 1e-9 and floor_ok
        assert report(6, "roundtrip H2xR (1000 draws; strict on w<=7.5, "
                         "corner at representation floor)", ok,
                      f"worst strict {worst_strict:.2e}")

    @pytest.mark.xfail(strict=True, reason=(
        "unattainable in float64: against a 50-digit mpmath oracle "
        "(tests/mp_oracle.py, fitted on surface arcs w = tau cos v in [0, 10]), "
        "the exactly rounded point carries the fibre split only to "
        "0.6*eps*cosh(2w) for w >= 2, and the algorithm adds at most "
        "eps*(0.4*cosh(2w) + 2*max(1, tau) + 1/tau); near w = 10 the first "
        "alone is 3e-8, which no algorithm can undo, and the second 2e-8"))
    def test_h2r_strict_as_stated(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            g = GeodesicParams(rng.uniform(-PI, PI), rng.uniform(-PI / 2, PI / 2),
                               rng.uniform(1e-3, 10.0))
            h = geodesic_params(Geometry.H2R, geodesic_point(Geometry.H2R, g))
            worst = max(worst, abs(math.remainder(g.u - h.u, 2 * PI)),
                        abs(g.v - h.v), abs(g.tau - h.tau))
        report(6, "roundtrip H2xR strict over full tau <= 10 box", worst <= 1e-9,
               f"worst {worst:.2e}; expected failure, see module docstring")
        assert worst <= 1e-9


class TestCriterion7OracleEquivalence:
    def test_ode_endpoints_and_drift(self):
        from scipy.integrate import solve_ivp
        rng = np.random.default_rng(7)
        worst_end, worst_drift = 0.0, 0.0
        for kind in Geometry:
            rhs = _rhs_s2r if kind is Geometry.S2R else _rhs_h2r
            for _ in range(100):
                g = random_params(kind, rng, tau_max=2.0)
                end = integrate_geodesic(kind, g, steps=100)[-1]
                worst_end = max(worst_end,
                                float(np.abs(end - geodesic_point(kind, g)).max()))
                sol = solve_ivp(rhs, (0, g.tau), _initial_state(kind, g.u, g.v),
                                method="DOP853", rtol=1e-10, atol=1e-12,
                                t_eval=np.linspace(0, g.tau, 25))
                worst_drift = max(worst_drift,
                                  max(unit_speed_drift(kind, sol.y[:, i]) for i in range(25)))
        ok = worst_end <= 1e-6 and worst_drift <= 1e-8
        assert report(7, "oracle equivalence (100 ODE endpoints/geometry, drift)", ok,
                      f"worst endpoint {worst_end:.2e}, worst drift {worst_drift:.2e}")


class TestCriterion8IsometryContract:
    def test_distance_invariance(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for kind in Geometry:
            for _ in range(200):
                a, p, q = (random_point(kind, rng) for _ in range(3))
                m = to_origin(kind, a)
                d0 = distance(kind, p, q)
                d1 = distance(kind, apply_isometry(m, p), apply_isometry(m, q))
                worst = max(worst, abs(d0 - d1))
        assert report(8, "distance invariance (200 pairs per geometry, 1e-8)",
                      worst <= 1e-8, f"worst {worst:.2e}")

    def test_transcribed_matrix_with_discrepancy_report(self):
        """Entrywise agreement with the transcribed closed-form normaliser;
        the (3, 2) sign slip in the transcription is reported, not patched."""
        rng = np.random.default_rng(88)
        worst_clean = 0.0
        slip_confirmed = True
        for _ in range(200):
            a = random_point(Geometry.S2R, rng)
            if math.hypot(a[1], a[2]) < 1e-6:
                continue
            composed = to_origin(Geometry.S2R, a)
            printed = transcribed_normalizer_s2r(a)
            mask = np.ones((4, 4), dtype=bool)
            mask[3, 2] = False
            worst_clean = max(worst_clean, float(np.abs((composed - printed)[mask]).max()))
            if abs(a[1] * a[2]) > 1e-9:
                slip_confirmed &= abs(printed[3, 2] + composed[3, 2]) < 1e-12
        ok = worst_clean <= 1e-9 and slip_confirmed
        assert report(
            8, "normaliser matrix vs transcription", ok,
            f"15 of 16 entries agree to {worst_clean:.1e}; DISCREPANCY REPORT: "
            "the transcribed (3,2) entry is the negative of the composed one "
            "(the composite is symmetric in (2,3)/(3,2); the transcription, "
            "taken literally, fails to be an isometry)")

    def test_closed_form_images(self):
        rng = np.random.default_rng(888)
        worst = 0.0
        for kind in Geometry:
            for _ in range(100):
                mover = random_point(kind, rng)
                if math.hypot(mover[1], mover[2]) < 1e-6:
                    continue
                other = random_point(kind, rng)
                other[2] = 0.0
                if kind is Geometry.H2R and other[0] ** 2 - other[1] ** 2 <= 1e-9:
                    continue
                m = to_origin(kind, mover)
                worst = max(worst, float(np.abs(
                    apply_isometry(m, BASE_POINT) - reference_image_base(kind, mover)).max()))
                closed = reference_image_third(kind, mover, other)
                scale = max(1.0, float(np.abs(closed).max()))
                worst = max(worst, float(np.abs(
                    apply_isometry(m, other) - closed).max()) / scale)
                plane_mover, general = other, mover
                if np.abs(plane_mover - BASE_POINT).max() < 1e-6:
                    continue
                m2 = to_origin(kind, plane_mover)
                base_c, other_c = reference_images_plane_mover(kind, plane_mover, general)
                worst = max(worst, float(np.abs(
                    apply_isometry(m2, BASE_POINT) - base_c).max()))
                scale = max(1.0, float(np.abs(other_c).max()))
                worst = max(worst, float(np.abs(
                    apply_isometry(m2, general) - other_c).max()) / scale)
        assert report(8, "closed-form vertex images (1e-9)", worst <= 1e-9,
                      f"worst {worst:.2e}")


class TestCriterion9Limits:
    def test_small_t_and_monotone_tail(self):
        ok = True
        details = []
        for kind in Geometry:
            a2, ray, _, _ = SWEEP_FAMILIES[kind]
            spec = SweepSpec(kind, a2, ray, 1e-3, 5.0, 16)
            near = angle_sum_at(spec, 1e-3)
            ok &= abs(near - PI) <= 0.05
            tail = np.array([angle_sum_at(spec, t) for t in np.geomspace(100.0, 1000.0, 9)])
            gaps = np.abs(tail - PI)
            monotone = bool(np.all(np.diff(gaps) < 0))
            side = bool(np.all(tail >= PI - 1e-12)) if kind is Geometry.S2R \
                else bool(np.all(tail <= PI + 1e-12))
            ok &= monotone and side
            details.append(f"{kind.value}: |S(1e-3)-pi| {abs(near - PI):.2e}, "
                           f"tail monotone {monotone}")
        assert report(9, "limit behaviour (t=1e-3 within 0.05; monotone tail)",
                      ok, "; ".join(details))
