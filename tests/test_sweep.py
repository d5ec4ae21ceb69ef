import math

import numpy as np
import pytest

from prodgeo import (
    DEFAULT,
    DegenerateError,
    DomainError,
    ExtremumKind,
    Geometry,
    SweepSpec,
    angle_sum_at,
    evaluate,
    limits_check,
)
from prodgeo import core
from prodgeo import sweep as sweep_mod
from prodgeo.core import BASE_POINT
from prodgeo.reference import SWEEP_FAMILIES
from prodgeo.triangles import _angle_sums
from conftest import BOTH

PI = math.pi


def family_spec(kind, samples=512):
    a2, ray, _, _ = SWEEP_FAMILIES[kind]
    return SweepSpec(kind, a2, ray, t_min=1e-3, t_max=5.0, samples=samples)


class TestSpecValidation:
    def test_ray_outside_cone_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec(Geometry.H2R, (2, 1.5, 1), (1, 3, 0))

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), t_min=2.0, t_max=1.0)

    def test_zero_t_min_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), t_min=0.0)

    @pytest.mark.parametrize("t_min, t_max", [(1e-3, math.inf), (1e-3, math.nan),
                                              (math.nan, 5.0), (-math.inf, 5.0)])
    def test_non_finite_range_rejected(self, t_min, t_max):
        with pytest.raises(DomainError, match="finite"):
            SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), t_min=t_min, t_max=t_max)


class TestValidateOnce:
    @BOTH
    def test_angle_sum_at_checks_only_the_three_vertices(self, kind, member_checks):
        spec = family_spec(kind, samples=8)
        member_checks.clear()
        angle_sum_at(spec, 0.3)
        assert len(member_checks) == 1

    @BOTH
    def test_overflowing_third_vertex_still_rejected(self, kind):
        # 1e308 * ray overflows to x = inf, outside both models
        with pytest.raises(DomainError, match="is not in the"):
            angle_sum_at(family_spec(kind, samples=8), 1e308)

    @BOTH
    def test_tiny_third_vertex_is_a_member(self, kind):
        """1e-200 * ray is finite and nonzero, so a member of both models:
        membership squares no coordinate, so nothing underflows to zero."""
        total = angle_sum_at(family_spec(kind, samples=8), 1e-200)
        assert (total > math.pi) if kind is Geometry.S2R else (total < math.pi)

    @BOTH
    def test_evaluate_checks_every_grid_vertex(self, kind):
        # the last grid vertex, 1e308 * ray, overflows out of the model
        a2, ray, _, _ = SWEEP_FAMILIES[kind]
        with pytest.raises(DomainError, match="is not in the"):
            evaluate(SweepSpec(kind, a2, ray, t_min=1.0, t_max=1e308, samples=8))

    def test_evaluate_rejects_a_grid_vertex_on_a2(self):
        a2 = np.array([3.0, -2.0, 1.0])
        grid = np.geomspace(1e-3, 5.0, 8)
        with pytest.raises(DegenerateError):
            evaluate(SweepSpec(Geometry.S2R, a2, a2 / grid[3], samples=8))


class TestFixedSide:
    """A family keeps a1 and a2, so the side between them is built once and
    every kernel batch computes only the moving third vertex."""

    @staticmethod
    def _same(r, q):
        return (np.array_equal(r.series, q.series) and r.t_extremum == q.t_extremum
                and r.s_extremum == q.s_extremum and r.extremum_kind is q.extremum_kind
                and r.interior == q.interior)

    @BOTH
    def test_one_fixed_side_and_one_guard_per_batch(self, kind, monkeypatch):
        """One evaluate: one fixed side (whose two splits guard a1 and a2),
        one membership guard per batch (so the grid is guarded once), and
        batches of the grid, one per zoom round and the final midpoint."""
        fixed, batches, guards, brackets = [], [], [], []
        true_fixed, true_third = sweep_mod._fixed_side, sweep_mod._third_vertex
        true_guard, true_bracket = core._guard_member, sweep_mod._bracket

        def build(*args):
            fixed.append(1)
            return true_fixed(*args)

        def third(kind, side, f3, s3):
            batches.append(s3.shape)
            return true_third(kind, side, f3, s3)

        def guard(*args):
            guards.append(1)
            return true_guard(*args)

        def bracket(*args):
            brackets.append(1)
            return true_bracket(*args)

        monkeypatch.setattr(sweep_mod, "_fixed_side", build)
        monkeypatch.setattr(sweep_mod, "_third_vertex", third)
        monkeypatch.setattr(sweep_mod, "_bracket", bracket)
        for module in (core, sweep_mod):
            monkeypatch.setattr(module, "_guard_member", guard, raising=False)
        spec = family_spec(kind)
        evaluate(spec)
        rounds = len(brackets) - 1
        assert len(fixed) == 1
        assert rounds > 0
        assert batches == [(3, spec.samples)] + [(3, sweep_mod._ZOOM_POINTS)] * rounds + [(3,)]
        assert len(guards) == len(batches) + 2

    @BOTH
    def test_results_do_not_depend_on_the_cache(self, kind):
        """A second evaluate of one spec, and a spec that differs only in
        a2, give the bits of a fresh spec, and the grid sums are those of
        the one-shot kernel on the whole triangles."""
        a2, ray, _, _ = SWEEP_FAMILIES[kind]
        other = np.array(a2, dtype=float) * 1.5 + np.array([0.2, 0.0, 0.0])
        spec = family_spec(kind)
        first = evaluate(spec)
        assert self._same(evaluate(spec), first)
        moved = evaluate(SweepSpec(kind, other, ray))
        assert self._same(moved, evaluate(SweepSpec(kind, other, ray)))
        assert self._same(evaluate(spec), first)
        for result, vertex in ((first, a2), (moved, other)):
            points = result.series[:, :1] * np.asarray(ray, dtype=float)
            kernel = _angle_sums(kind, BASE_POINT, np.array(vertex, dtype=float), points)
            assert np.array_equal(result.series[:, 1], kernel.total)


class TestExtremum:
    def test_s2r_maximum(self):
        result = evaluate(family_spec(Geometry.S2R))
        assert result.extremum_kind is ExtremumKind.MAXIMUM
        assert result.t_extremum == pytest.approx(0.19316, abs=1e-4)
        assert result.s_extremum == pytest.approx(3.17450, abs=1e-4)

    def test_h2r_minimum(self):
        result = evaluate(family_spec(Geometry.H2R))
        assert result.extremum_kind is ExtremumKind.MINIMUM
        assert result.t_extremum == pytest.approx(0.36392, abs=1e-4)
        assert result.s_extremum == pytest.approx(3.03236, abs=1e-4)

    def test_extremum_is_locally_extreme(self):
        for kind in Geometry:
            spec = family_spec(kind, samples=64)
            result = evaluate(spec)
            t0, s0 = result.t_extremum, result.s_extremum
            nearby = [angle_sum_at(spec, t0 - 1e-4), angle_sum_at(spec, t0 + 1e-4)]
            if kind is Geometry.S2R:
                assert all(s <= s0 + 1e-12 for s in nearby)
            else:
                assert all(s >= s0 - 1e-12 for s in nearby)

    def test_series_shape_and_grid(self):
        spec = family_spec(Geometry.S2R, samples=32)
        result = evaluate(spec)
        assert result.series.shape == (32, 2)
        ts = result.series[:, 0]
        assert ts[0] == pytest.approx(spec.t_min)
        assert ts[-1] == pytest.approx(spec.t_max)
        assert np.all(np.diff(ts) > 0)

    def test_flat_family(self):
        spec = SweepSpec(Geometry.S2R, (2, 1, 0), (5, -1, 0), samples=16)
        result = evaluate(spec)
        assert result.extremum_kind is ExtremumKind.FLAT
        assert np.abs(result.series[:, 1] - PI).max() < 1e-9
        assert result.s_extremum == PI

    def test_near_axis_flat_family(self):
        # a2 and the ray lie within 7e-7 of the fibre axis, in one plane
        # with it: every triangle of the family is coplanar with the centre
        spec = SweepSpec(Geometry.H2R,
                         (0.8334162199204505, -2.9155678947315096e-07, -5.797355314690917e-07),
                         (0.9058440885955671, -1.8685401196875375e-07, -3.715430881633201e-07))
        result = evaluate(spec)
        assert result.extremum_kind is ExtremumKind.FLAT
        assert np.abs(result.series[:, 1] - PI).max() <= DEFAULT.flat_band

    def test_near_pi_family_off_the_plane_is_not_flat(self):
        # a2 is 1.5e-3 from the fibre axis and the ray 1.6e-5 (relative
        # triple product) off the plane of the base point, a2 and the
        # centre: every grid sum lies within 9e-10 of pi, below it
        spec = SweepSpec(Geometry.H2R,
                         (2.5625014134049335, -0.0014051628653388457, -0.0003990605362192628),
                         (1.0093309399551296, -0.13544319447740702, -0.06744705404147841))
        result = evaluate(spec)
        assert result.extremum_kind is ExtremumKind.MINIMUM
        assert np.all(result.series[:, 1] < PI)
        assert result.s_extremum <= result.series[:, 1].min()

    @BOTH
    def test_reference_extremum_is_interior(self, kind):
        assert evaluate(family_spec(kind)).interior is True

    @BOTH
    def test_extremum_at_the_range_edge_is_not_interior(self, kind):
        # both reference extrema lie below t = 1: on [1, 5] the best value
        # sits at t_min
        a2, ray, _, _ = SWEEP_FAMILIES[kind]
        result = evaluate(SweepSpec(kind, a2, ray, t_min=1.0, t_max=5.0))
        assert result.interior is False
        assert result.t_extremum == pytest.approx(1.0, abs=1e-6)

    def test_near_pi_family_decreasing_to_t_max_is_not_interior(self):
        # S falls toward t_max by about one ulp per zoom sample, so rounding
        # noise pulls the bracket off t_max; S there is no better than S(t_max)
        spec = SweepSpec(Geometry.H2R,
                         (2.5625014134049335, -0.0014051628653388457, -0.0003990605362192628),
                         (1.0093309399551296, -0.13544319447740702, -0.06744705404147841))
        result = evaluate(spec)
        assert np.argmin(result.series[:, 1]) == spec.samples - 1
        assert result.interior is False

    def test_edge_extremum_is_reported_at_the_range_end(self):
        # the near-pi family above: the best grid value is S(t_max), and the
        # zoom's rounding noise does not move the reported extremum off it
        spec = SweepSpec(Geometry.H2R,
                         (2.5625014134049335, -0.0014051628653388457, -0.0003990605362192628),
                         (1.0093309399551296, -0.13544319447740702, -0.06744705404147841))
        result = evaluate(spec)
        assert result.t_extremum == 5.0
        assert result.s_extremum == result.series[-1, 1]

    @pytest.mark.parametrize("kind, ray", [(Geometry.S2R, (1.2, 0.8, -0.5)),
                                           (Geometry.H2R, (1.5, 0.6, -0.4))],
                             ids=["s2r", "h2r"])
    def test_needle_family_interior_only_around_its_extremum(self, kind, ray):
        # a2 is 1.1e-7 from the base point, so every triangle has a short
        # side and S(t) - pi is about 1e-8: the ill-conditioned end of the
        # kernel; the extremum sits near t = 0.7
        a2 = (1.0, 1e-7, 5e-8)
        assert evaluate(SweepSpec(kind, a2, ray)).interior is True
        assert evaluate(SweepSpec(kind, a2, ray, t_max=0.2)).interior is False
        assert evaluate(SweepSpec(kind, a2, ray, t_min=2.0)).interior is False

    def test_flat_family_is_not_interior(self):
        assert evaluate(SweepSpec(Geometry.S2R, (2, 1, 0), (5, -1, 0), samples=16)).interior is False

    @BOTH
    def test_series_agrees_with_angle_sum_at(self, kind):
        spec = family_spec(kind, samples=16)
        for t, s in evaluate(spec).series[::5]:
            assert angle_sum_at(spec, t) == pytest.approx(s, abs=1e-14)


class TestUnimodality:
    @pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
    def test_single_sign_change_of_discrete_derivative(self, kind):
        result = evaluate(family_spec(kind))
        diffs = np.diff(result.series[:, 1])
        signs = np.sign(diffs[diffs != 0])
        changes = int(np.sum(signs[1:] != signs[:-1]))
        assert changes == 1

    @pytest.mark.parametrize("kind", list(Geometry), ids=lambda k: k.value)
    def test_series_respects_trichotomy(self, kind):
        result = evaluate(family_spec(kind, samples=64))
        sums = result.series[:, 1]
        if kind is Geometry.S2R:
            assert np.all(sums >= PI - 1e-9)
        else:
            assert np.all(sums <= PI + 1e-9)


class TestLimits:
    def test_both_families_near_pi_at_small_t(self):
        for kind in Geometry:
            near, far = limits_check(family_spec(kind))
            assert abs(near - PI) <= 0.05
            assert abs(far - PI) <= 0.05

    def test_s2r_tail_value_matches_reference_row(self):
        # at t = 1000 the third vertex is (2000, 1000, 0), the last table row
        spec = family_spec(Geometry.S2R)
        assert angle_sum_at(spec, 1000.0) == pytest.approx(3.14355, abs=1e-4)

    def test_monotone_tails(self):
        for kind in Geometry:
            spec = family_spec(kind)
            tail = [angle_sum_at(spec, t) for t in np.geomspace(100, 1000, 7)]
            gaps = np.abs(np.array(tail) - PI)
            assert np.all(np.diff(gaps) < 0)

    def test_flat_family_limits(self):
        spec = SweepSpec(Geometry.H2R, (2, 1.5, 0), (3, -1, 0), samples=16)
        near, far = limits_check(spec)
        assert near == pytest.approx(PI, abs=1e-8)
        assert far == pytest.approx(PI, abs=1e-8)

    def test_wrong_side_sums_raise(self, monkeypatch):
        import prodgeo.sweep as sweep_mod
        from prodgeo import ConsistencyError

        monkeypatch.setattr(sweep_mod, "angle_sum_at", lambda spec, t: PI - 0.1)
        with pytest.raises(ConsistencyError):
            limits_check(family_spec(Geometry.S2R))
