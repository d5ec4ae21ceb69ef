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
from prodgeo import triangles
from prodgeo.triangles import angle_sum, geodesic_triangle
import mp_oracle
from conftest import BOTH, random_point

PI = math.pi


def _triangle_sum(kind, a2, a3):
    """The angle sum of the triangle (base point, a2, a3) itself: its own
    closed form at u = 0, with a3's fibre height in the offsets."""
    return angle_sum(geodesic_triangle(kind, BASE_POINT, a2, a3)).total


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


    @pytest.mark.parametrize("bounds", [{"t_min": "0.1"}, {"t_max": None},
                                        {"t_min": np.array([1e-3, 1e-2])}],
                             ids=["text", "none", "array"])
    def test_non_number_range_rejected(self, bounds):
        with pytest.raises(DomainError, match="need a number for t_m"):
            SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), **bounds)

    def test_range_is_read_as_float(self):
        spec = SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), t_min=np.float32(0.5), t_max=2)
        assert (spec.t_min, spec.t_max) == (0.5, 2.0)
        assert type(spec.t_min) is float and type(spec.t_max) is float

    @pytest.mark.parametrize("samples", [8.5, 512.0, "512", None])
    def test_non_integer_samples_rejected(self, samples):
        with pytest.raises(DomainError, match="integer number of samples"):
            SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), samples=samples)

    @pytest.mark.parametrize("samples", [7, 0, -1, True])
    def test_too_few_samples_rejected(self, samples):
        with pytest.raises(DomainError, match="samples >= 8"):
            SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), samples=samples)

    def test_integer_like_samples_are_read_as_int(self):
        spec = SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), samples=np.int64(16))
        assert type(spec.samples) is int
        assert evaluate(spec).series.shape == (16, 2)

    def test_homogeneous_ray_is_normalised(self):
        """A ray given as (x0 : x1 : x2 : x3), like a2, is read as its
        Cartesian point, so the family is the same."""
        spec = SweepSpec(Geometry.S2R, (3, -2, 1), (2.0, 4.0, 2.0, 0.0), samples=16)
        assert np.array_equal(spec.ray, [2.0, 1.0, 0.0])
        same = evaluate(SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), samples=16))
        assert np.array_equal(evaluate(spec).series, same.series)

    @pytest.mark.parametrize("ray", [(1.0, 2.0), (0.0, 2.0, 1.0, 0.0)])
    def test_malformed_ray_rejected(self, ray):
        with pytest.raises(DomainError):
            SweepSpec(Geometry.S2R, (3, -2, 1), ray)


class TestParameter:
    """S(t) is defined for finite t > 0: u = log t is the family's fibre
    height, and t*ray for t <= 0 is off the family's half line."""

    @BOTH
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0, -math.inf],
                             ids=["inf", "nan", "zero", "negative", "-inf"])
    def test_parameter_outside_the_half_line_is_domain_error(self, kind, t):
        with pytest.raises(DomainError, match="finite parameter t > 0"):
            angle_sum_at(family_spec(kind, samples=8), t)


class TestValidateOnce:
    @BOTH
    def test_angle_sum_at_checks_only_the_three_vertices(self, kind, member_checks,
                                                          monkeypatch):
        """a1 and a2 are guarded once, by the family's ray part; each S(t)
        then guards only t*ray, once, before its closed form is read."""
        spec = family_spec(kind, samples=8)
        angle_sum_at(spec, 0.2)  # builds the ray part
        guards = []
        true_guard = core._guard_member

        def guard(*args):
            guards.append(1)
            return true_guard(*args)

        for module in (core, sweep_mod):
            monkeypatch.setattr(module, "_guard_member", guard)
        member_checks.clear()
        angle_sum_at(spec, 0.3)
        angle_sum_at(spec, 0.7)
        assert len(guards) == 2
        assert member_checks == []

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

    @pytest.mark.filterwarnings("error")
    def test_vertices_near_the_largest_double_raise_without_warning(self):
        """a2 and the ray near +-1e308 differ by more than the largest
        double: the gap overflows to inf, which is apart, and the antipodal
        side ends the sum."""
        spec = SweepSpec(Geometry.S2R, (-1e308, 1, 0), (1e308, 0, 1), t_max=1.5)
        with pytest.raises(DegenerateError, match="antipodal"):
            evaluate(spec)
        with pytest.raises(DegenerateError, match="antipodal"):
            angle_sum_at(spec, 1.0)

    def test_evaluate_rejects_a_grid_vertex_on_a2(self):
        a2 = np.array([3.0, -2.0, 1.0])
        grid = np.geomspace(1e-3, 5.0, 8)
        with pytest.raises(DegenerateError):
            evaluate(SweepSpec(Geometry.S2R, a2, a2 / grid[3], samples=8))


class TestCutLocus:
    """An S2xR ray whose surface point is antipodal to that of a1 or a2
    leaves side 1-3 or 2-3 without a unique geodesic at every t: the
    family's ray part raises, for ``evaluate`` and S(t) alike."""

    #: the unit surface point of a2 = (3, -2, 1) and a unit normal to it
    A2 = np.array([3.0, -2.0, 1.0]) / math.sqrt(14.0)
    NORMAL = np.array([1.0, 2.0, 1.0]) / math.sqrt(6.0)

    @pytest.mark.parametrize("ray", [
        (-1.0, 0.0, 0.0),
        (-3.0, 2.0, -1.0),
        (-math.cos(1e-13), math.sin(1e-13), 0.0),
        tuple(-math.cos(1e-13) * A2 + math.sin(1e-13) * NORMAL),
    ], ids=["antipodal-a1", "antipodal-a2", "1e-13-from-antipodal-a1",
            "1e-13-from-antipodal-a2"])
    def test_ray_on_the_cut_locus_is_degenerate(self, ray):
        spec = SweepSpec(Geometry.S2R, (3, -2, 1), ray)
        with pytest.raises(DegenerateError, match="antipodal"):
            evaluate(spec)
        with pytest.raises(DegenerateError, match="antipodal"):
            angle_sum_at(spec, 0.5)


class TestFixedSide:
    """A family keeps a1 and a2, so the side between them is built once, in
    its ray part; S(t) is read from the family's closed form, with no
    triangle built."""

    @staticmethod
    def _same(r, q):
        return (np.array_equal(r.series, q.series) and r.t_extremum == q.t_extremum
                and r.s_extremum == q.s_extremum and r.extremum_kind is q.extremum_kind
                and r.interior == q.interior)

    @BOTH
    def test_one_fixed_side_and_one_guard_per_batch(self, kind, monkeypatch):
        """A spec splits its ray once, as its membership check.  One
        evaluate: one ray part, whose three surface arcs include side 1-2
        and whose splits of a1 and a2 guard them, and one membership guard
        on the grid's batch of third vertices; the grid sums and the
        refinement run on the family's closed form and make no further
        guard."""
        arcs, guards, brackets = [], [], []
        true_arc, true_guard, true_bracket = triangles._arc, core._guard_member, sweep_mod._bracket

        def arc(*args):
            arcs.append(1)
            return true_arc(*args)

        def guard(*args):
            guards.append(1)
            return true_guard(*args)

        def bracket(*args):
            brackets.append(1)
            return true_bracket(*args)

        monkeypatch.setattr(triangles, "_arc", arc)
        monkeypatch.setattr(sweep_mod, "_bracket", bracket)
        for module in (core, sweep_mod):
            monkeypatch.setattr(module, "_guard_member", guard)
        spec = family_spec(kind)
        assert len(guards) == 1
        guards.clear()
        result = evaluate(spec)
        assert result.interior
        assert len(arcs) == 3  # sides 1-3, 2-3 and 1-2 of one ray part
        assert len(brackets) == 1
        assert len(guards) == 1 + 2

    @BOTH
    def test_results_do_not_depend_on_the_cache(self, kind):
        """A second evaluate of one spec, and a spec that differs only in
        a2, give the bits of a fresh spec, and the grid sums are the angle
        sums of the triangles themselves to 1e-14, the gate of
        ``TestClosedForm`` (measured worst 8.9e-16 on both): the family's
        closed form at u = log t against each triangle's at u = 0 checks
        the shift of the fibre offsets."""
        a2, ray, _, _ = SWEEP_FAMILIES[kind]
        other = np.array(a2, dtype=float) * 1.5 + np.array([0.2, 0.0, 0.0])
        spec = family_spec(kind)
        first = evaluate(spec)
        assert self._same(evaluate(spec), first)
        moved = evaluate(SweepSpec(kind, other, ray))
        assert self._same(moved, evaluate(SweepSpec(kind, other, ray)))
        assert self._same(evaluate(spec), first)
        for result, vertex in ((first, a2), (moved, other)):
            for t, total in result.series.tolist():
                a3 = t * np.asarray(ray, dtype=float)
                assert abs(total - _triangle_sum(kind, vertex, a3)) <= 1e-14


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
        # S falls all the way to t_max, by about 6e-14 per grid cell, and
        # dS/du (about -3.5e-12 there) keeps its sign across the last cells
        spec = SweepSpec(Geometry.H2R,
                         (2.5625014134049335, -0.0014051628653388457, -0.0003990605362192628),
                         (1.0093309399551296, -0.13544319447740702, -0.06744705404147841))
        result = evaluate(spec)
        assert np.argmin(result.series[:, 1]) == spec.samples - 1
        assert result.interior is False

    def test_edge_extremum_is_reported_at_the_range_end(self):
        # the near-pi family above: the best grid value is S(t_max), and
        # with no sign change of dS/du the reported extremum is that sample
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
        # closed form; the extremum sits near t = 0.7
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


class TestClosedForm:
    """The grid sums and the refinement's S and dS/du at u = log t, from
    the family's ray part (``SweepSpec._ray``), on both reference families
    and seeded random ones."""

    @staticmethod
    def _specs(kind, rng, count=20):
        families = [SWEEP_FAMILIES[kind][:2]]
        families += [(random_point(kind, rng), random_point(kind, rng)) for _ in range(count)]
        return [SweepSpec(kind, a2, ray) for a2, ray in families]

    @staticmethod
    def _sum(spec, u):
        return sweep_mod._sum_and_slope(spec._ray, u)[0]

    @BOTH
    def test_sum_matches_the_kernel_on_the_grid(self, kind, rng):
        """Measured worst: 2.7e-15 (s2r) and 4.0e-15 (h2r)."""
        worst = 0.0
        for spec in self._specs(kind, rng):
            ts = evaluate(spec).series[:, 0]
            kernel = [_triangle_sum(kind, spec.a2, t * spec.ray) for t in ts.tolist()]
            closed = [self._sum(spec, u) for u in np.log(ts).tolist()]
            worst = max(worst, float(np.abs(np.array(closed) - kernel).max()))
        assert worst <= 1e-14

    @BOTH
    def test_grid_sums_against_fifty_digits(self, kind, rng):
        """Every 8th grid sum against the 50-digit sum of its triangle
        (``mp_oracle.angle_sum``): measured worst 1.8e-15 on both
        geometries."""
        worst = 0.0
        for spec in self._specs(kind, rng):
            for t, s in evaluate(spec).series[::8].tolist():
                worst = max(worst, abs(s - mp_oracle.angle_sum(kind, BASE_POINT, spec.a2,
                                                                 t * spec.ray)))
        assert worst <= 4e-15

    @BOTH
    def test_angle_sum_at_against_fifty_digits_off_the_grid(self, kind, rng):
        """``angle_sum_at`` is the closed form at any finite t > 0, far
        outside the grid's [1e-3, 5] too: against the 50-digit sum of the
        triangle with third vertex t*ray, measured worst 4.4e-16 (s2r) and
        8.9e-16 (h2r) on the reference family and 10 random ones, and
        within 1e-14 of ``angle_sum`` of each triangle."""
        worst = 0.0
        for spec in self._specs(kind, rng, count=10):
            for t in (1e-200, 1e-30, 1e-8, 1e-3, 1e3, 1e8, 1e30, 1e200):
                total, a3 = angle_sum_at(spec, t), t * spec.ray
                assert abs(total - _triangle_sum(kind, spec.a2, a3)) <= 1e-14
                worst = max(worst, abs(total - mp_oracle.angle_sum(kind, BASE_POINT, spec.a2, a3)))
        assert worst <= 4e-15

    @BOTH
    def test_slope_matches_central_differences(self, kind, rng):
        """Fourth-order central differences with step 1e-4 agree to 9.3e-9
        (s2r) and 1.3e-8 (h2r) relative, against |dS/du| or 1e-3 where it
        is smaller: their own truncation error, which falls as the step to
        the fourth power."""
        step, worst = 1e-4, 0.0
        for spec in self._specs(kind, rng):
            for u in np.linspace(math.log(spec.t_min), math.log(spec.t_max), 33).tolist():
                near = [self._sum(spec, u + k * step) for k in (-2, -1, 1, 2)]
                central = (near[0] - 8.0 * near[1] + 8.0 * near[2] - near[3]) / (12.0 * step)
                slope = sweep_mod._sum_and_slope(spec._ray, u)[1]
                worst = max(worst, abs(central - slope) / max(abs(slope), 1e-3))
        assert worst <= 3e-8

    @BOTH
    def test_reference_extremum_against_fifty_digits(self, kind):
        """t0 is the root of dS/du to 2.0e-15 relative (s2r) and 1.5e-16
        (h2r), and S there the 50-digit value to an ulp."""
        a2, ray, t_ref, _ = SWEEP_FAMILIES[kind]
        result = evaluate(family_spec(kind))
        t_exact, s_exact = mp_oracle.sweep_extremum(kind, a2, ray, t_ref)
        assert result.interior
        assert abs(result.t_extremum - t_exact) <= 1e-14 * t_exact
        assert abs(result.s_extremum - s_exact) <= 1e-15

    @pytest.mark.parametrize("kind, ray", [(Geometry.S2R, (1.2, 0.8, -0.5)),
                                           (Geometry.H2R, (1.5, 0.6, -0.4))],
                             ids=["s2r", "h2r"])
    def test_needle_extremum_against_fifty_digits(self, kind, ray):
        """The needle families of ``TestExtremum``: the ray part's surface
        arcs from a2, 1.1e-7 from the base point, cancel as a needle
        triangle's do, and t0 is the root of dS/du to 2.3e-9 (s2r) and 1.7e-9 (h2r)."""
        a2 = (1.0, 1e-7, 5e-8)
        result = evaluate(SweepSpec(kind, a2, ray))
        t_exact, s_exact = mp_oracle.sweep_extremum(kind, a2, ray, result.t_extremum)
        assert abs(result.t_extremum - t_exact) <= 1e-8 * t_exact
        assert abs(result.s_extremum - s_exact) <= 1e-15


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
