import bisect
import json
import math
import sys
import tracemalloc

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
from prodgeo.cli import main
from prodgeo.triangles import angle_sum, geodesic_triangle
import mp_oracle
from conftest import BEYOND_DOUBLE, BOTH, random_point

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
                                        {"t_min": np.array([1e-3, 1e-2])}, {"t_max": 5j},
                                        {"t_max": np.complex128(5.0)}, {"t_min": b"0.1"}],
                             ids=["text", "none", "array", "complex", "np-complex", "bytes"])
    def test_non_number_range_rejected(self, bounds):
        with pytest.raises(DomainError, match="need a number for t_m"):
            SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), **bounds)

    @pytest.mark.parametrize("bounds", [{"t_min": 10**400}, {"t_max": 10**400},
                                        {"t_min": -10**400}])
    def test_range_beyond_double_range_rejected(self, bounds):
        """float() of such an int raised a raw OverflowError."""
        with pytest.raises(DomainError, match="t_m.. must be within double range"):
            SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), **bounds)

    @pytest.mark.parametrize("bound", ["t_min", "t_max"])
    @pytest.mark.parametrize("value", BEYOND_DOUBLE)
    def test_range_of_other_numbers_beyond_double_range_rejected(self, bound, value):
        """A fraction or long double beyond double range is a number, not "need a number"."""
        with pytest.raises(DomainError, match=f"^{bound} must be within double range$"):
            SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), **{bound: value})

    def test_range_is_read_as_float(self):
        spec = SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), t_min=np.float32(0.5), t_max=2)
        assert (spec.t_min, spec.t_max) == (0.5, 2.0)
        assert type(spec.t_min) is float and type(spec.t_max) is float

    @pytest.mark.parametrize("samples", [8.5, 512.0, "512", None, 2**62, 2**63, 10**400])
    def test_non_integer_samples_rejected(self, samples):
        with pytest.raises(DomainError, match="integer number of samples"):
            SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), samples=samples)

    @pytest.mark.parametrize("samples", [10**15, 10**17])
    def test_samples_beyond_memory(self, samples):
        """The spec holds the count; the grid no address space holds is
        ``evaluate``'s DomainError, where numpy's MemoryError was raw.  Only
        counts whose allocation cannot succeed are tried."""
        spec = SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), samples=samples)
        with pytest.raises(DomainError, match=f"not enough memory for {samples} samples"):
            evaluate(spec)

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

    @BOTH
    @pytest.mark.parametrize("t, message", [
        ("1", "need a number for t"), (1j, "need a number for t"),
        (None, "need a number for t"), (np.array([1.0, 2.0]), "need a number for t"),
        (10**400, "t must be within double range")],
        ids=["text", "complex", "none", "array", "huge-int"])
    def test_parameter_that_is_not_a_double_is_domain_error(self, kind, t, message):
        """Raw TypeError, ValueError and OverflowError once escaped here."""
        spec = family_spec(kind, samples=8)
        with pytest.raises(DomainError, match=message):
            angle_sum_at(spec, t)
        with pytest.raises(DomainError, match=message):
            limits_check(spec, t)

    @BOTH
    @pytest.mark.parametrize("t", BEYOND_DOUBLE)
    def test_other_numbers_beyond_double_range_are_domain_errors(self, kind, t):
        with pytest.raises(DomainError, match="^t must be within double range$"):
            angle_sum_at(family_spec(kind, samples=8), t)

    @pytest.mark.parametrize("t", [np.float32(0.5), np.array(0.5), np.int64(2), True],
                             ids=["float32", "0-d", "int64", "bool"])
    def test_numpy_scalars_read_as_float(self, t):
        spec = family_spec(Geometry.S2R, samples=8)
        assert angle_sum_at(spec, t) == angle_sum_at(spec, float(t))


class TestValidateOnce:
    @BOTH
    def test_angle_sum_at_checks_only_the_three_vertices(self, kind, member_checks,
                                                          monkeypatch):
        """a1 and a2 are guarded once, when the spec builds its ray part;
        each S(t) then checks only t*ray, once, before its closed form is
        read: its double range, as t*ray is a member wherever it is
        representable, with no membership guard."""
        spec = family_spec(kind, samples=8)
        guards, ranges = [], []
        true_guard, true_range = core._guard_member, sweep_mod._guard_in_range

        def guard(*args):
            guards.append(1)
            return true_guard(*args)

        def in_range(*args):
            ranges.append(1)
            return true_range(*args)

        monkeypatch.setattr(core, "_guard_member", guard)
        monkeypatch.setattr(sweep_mod, "_guard_in_range", in_range)
        member_checks.clear()
        angle_sum_at(spec, 0.3)
        angle_sum_at(spec, 0.7)
        assert (len(ranges), len(guards)) == (2, 0)
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
        """a2 and the ray near +-1e308 have antipodal surface points: the
        spec's ray part raises as it is built, with no overflow warning."""
        with pytest.raises(DegenerateError, match="antipodal"):
            SweepSpec(Geometry.S2R, (-1e308, 1, 0), (1e308, 0, 1), t_max=1.5)

    @pytest.mark.filterwarnings("error")
    def test_vertex_gaps_beyond_the_largest_double_are_apart(self):
        """a2 and the ray near +-1e308, off the cut locus: from t = 0.8 on,
        the gap between a2 and t*ray overflows to inf, which is apart, in
        the grid and at one t alike."""
        spec = SweepSpec(Geometry.S2R, (-1e308, 1e307, 0), (1e308, 0, 1e307), t_max=1.5)
        series = evaluate(spec).series
        assert series[-1, 0] == 1.5
        assert series[-1, 1] > math.pi
        assert abs(angle_sum_at(spec, 1.5) - series[-1, 1]) <= 1e-14

    def test_evaluate_rejects_a_grid_vertex_on_a2(self):
        a2 = np.array([3.0, -2.0, 1.0])
        grid = np.geomspace(1e-3, 5.0, 8)
        with pytest.raises(DegenerateError):
            evaluate(SweepSpec(Geometry.S2R, a2, a2 / grid[3], samples=8))


class TestNearTheCone:
    """H2xR rays a few ulps inside the cone: t * ray is a member wherever it
    is representable, as the model set is a cone, though it may round onto
    the cone, and the family evaluates."""

    #: an H2xR ray one ulp inside the cone
    RAY = (0.891338772597356, 0.345584192064786, 0.8216181435011584)

    def test_near_cone_family_evaluates(self):
        """The ray is a member, and so is t * ray at both ends of the grid,
        where S(t) answers below pi; 68 interior t * ray round onto the cone,
        and S(t) there is the grid sum.  S at t0 (here the end t_max) is the
        50-digit sum of the family's triangle within the near-cone gate of
        ``test_triangles.py::test_h2r_first_vertex_near_the_cone``, 1e-6:
        measured 4.0e-15, as sqrt(Q) of the ray is taken from exact squares there."""
        spec = SweepSpec(Geometry.H2R, (2, 1.5, 1), self.RAY)
        assert angle_sum_at(spec, spec.t_min) < math.pi
        assert angle_sum_at(spec, spec.t_max) < math.pi
        result = evaluate(spec)
        assert result.extremum_kind is ExtremumKind.MINIMUM
        on_cone = [(t, total) for t, total in result.series.tolist()
                   if not core.contains(Geometry.H2R, tuple(t * c for c in self.RAY))]
        assert len(on_cone) == 68
        for t, total in on_cone:
            assert abs(angle_sum_at(spec, t) - total) <= 1e-14
        exact = mp_oracle.sweep_sum(Geometry.H2R, (2, 1.5, 1), self.RAY, result.t_extremum)
        assert abs(result.s_extremum - exact) <= 1e-6

    def test_rays_a_few_ulps_inside_the_cone_evaluate(self):
        """2,000 seeded rays 1 to 5 ulps inside the cone, by the model's own
        spread r (``core._hypot``), with a2 = (2, 1.5, 1): every family
        evaluates, where a membership guard on every grid vertex rejected
        554 of them, at interior t * ray rounded onto the cone."""
        rng = np.random.default_rng(0)
        for _ in range(2000):
            phi, spread = rng.uniform(-PI, PI), rng.uniform(0.1, 2.0)
            y, z = spread * math.cos(phi), spread * math.sin(phi)
            x = core._hypot(y, z)
            for _ in range(int(rng.integers(1, 6))):
                x = math.nextafter(x, math.inf)
            assert evaluate(SweepSpec(Geometry.H2R, (2, 1.5, 1), (x, y, z))).series.shape == (512, 2)


def _max_abs(a):
    """max |coordinate| of points by columns, as ``_batch_coincide`` reads it."""
    a = np.abs(a)
    return np.maximum(np.maximum(a[..., 0], a[..., 1]), a[..., 2])


def _batch_coincide(vertices, new=1) -> bool:
    """The numpy rule that ``triangles._require_distinct`` had for S(t)
    batches: whether two of ``vertices``, (3,) or (N, 3) arrays, the first
    ``new`` known apart, differ by at most ``vertex_gap`` max(|p|, |q|) in
    each coordinate, where a gap that overflows is inf and so apart."""
    floors = [DEFAULT.vertex_gap * _max_abs(a) for a in vertices]
    with np.errstate(over="ignore"):
        return any((_max_abs(vertices[i] - vertices[j]) <= np.maximum(floors[i], floors[j])).any()
                   for j in range(new, len(vertices)) for i in range(j))


def _batch_check(spec, ts):
    """The numpy check that ``sweep._check_third_vertices`` replaced, on an
    array of parameters ``ts``: every t * ray guarded as a model point,
    naming the first outside, then DegenerateError where one is on a1 or a2
    (``_batch_coincide``)."""
    with np.errstate(over="ignore"):
        a3 = np.multiply.outer(ts, spec.ray)
    core._guard_member(spec.kind, a3)
    if _batch_coincide((BASE_POINT, spec.a2, a3), new=2):
        raise DegenerateError("two triangle vertices coincide")


def _outcome(check, *args):
    """The type and message of the check's DomainError or DegenerateError, or None."""
    try:
        check(*args)
    except (DomainError, DegenerateError) as error:
        return type(error).__name__, str(error)
    return None


class TestThirdVertexCheck:
    """The third vertex t * ray is checked in floats: at one t by
    ``angle_sum_at``, and by ``evaluate`` at the grid's two ends and at the
    t near p_k / ray_k, p = a1 or a2 and k the index of the ray's largest
    |coordinate|.  Its decisions and messages are those of the numpy rule
    on every grid vertex (``_batch_check``), on families whose ray is a1 or
    a2 over a grid t, each coordinate moved by up to twice ``vertex_gap``."""

    #: log10 of a2's largest |coordinate|; "tiny" grids underflow to zero
    #: at t_min and "huge" ones overflow at t_max
    SIZES = {"a1": (-300, 300), "a2": (-300, 300), "fine": (-300, 300),
             "subnormal": (-319, -309), "tiny": (-322, -316), "huge": (303, 307)}

    @classmethod
    def _family(cls, kind, group, rng):
        """A spec whose ray is a1 (group "a1") or a2 over a grid t, nearly;
        on "fine" grids t_max / t_min - 1 is at most 3 ``vertex_gap``.  A
        family the spec itself rejects is drawn again."""
        while True:
            q = random_point(kind, rng)
            a2 = q / np.abs(q).max() * 10.0 ** rng.uniform(*cls.SIZES[group])
            t_min = 10.0 ** (rng.uniform(-6, -4) if group == "tiny" else rng.uniform(0, 2))
            t_max = t_min * (1.0 + DEFAULT.vertex_gap * rng.uniform(0.01, 3.0) if group == "fine"
                             else 10.0 ** rng.uniform(0.1, 4.0))
            samples = int(rng.integers(8, 64))
            grid = np.geomspace(t_min, t_max, samples)
            p = BASE_POINT if group == "a1" else a2
            ray = p / grid[rng.integers(samples)]
            ray = ray * (1.0 + DEFAULT.vertex_gap * rng.uniform(-2.0, 2.0, size=3))
            try:
                return SweepSpec(kind, a2, ray, t_min=t_min, t_max=t_max, samples=samples), grid
            except (DomainError, DegenerateError):
                continue

    @pytest.mark.parametrize("kind, group", [
        *((kind, group) for kind in Geometry for group in ("a1", "a2", "fine", "subnormal", "huge")),
        (Geometry.S2R, "tiny"),
    ], ids=lambda v: getattr(v, "value", v))
    def test_decides_as_the_batch_rule(self, kind, group):
        """300 seeded families per case, with a2 of size 1e-300 to 1e300,
        subnormal, or near the largest double, and grids finer than
        ``vertex_gap``: ``evaluate`` on the grid, and ``angle_sum_at`` at
        one grid t, raise what the batch rule raises, with its message.
        H2xR "tiny" grids are left out: there the batch rule also rejects
        subnormal t * ray that round onto the cone."""
        rng = np.random.default_rng([23, list(Geometry).index(kind), list(self.SIZES).index(group)])
        outcomes = set()
        for _ in range(300):
            spec, grid = self._family(kind, group, rng)
            expected = _outcome(_batch_check, spec, grid)
            assert _outcome(evaluate, spec) == expected, (spec, expected)
            t = grid[rng.integers(len(grid))]
            assert _outcome(angle_sum_at, spec, t) == _outcome(_batch_check, spec, np.array([t]))
            outcomes.add(expected and expected[0])
        assert "DegenerateError" in outcomes and (None in outcomes or group == "tiny")
        assert ("DomainError" in outcomes) is (group in ("tiny", "huge"))


class TestCutLocus:
    """An S2xR ray whose surface point is antipodal to that of a1 or a2
    leaves side 1-3 or 2-3 without a unique geodesic at every t: the
    family's ray part raises as the spec is built, and the CLI exits 3."""

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
    def test_ray_on_the_cut_locus_is_degenerate(self, ray, capsys):
        with pytest.raises(DegenerateError, match="antipodal"):
            SweepSpec(Geometry.S2R, (3, -2, 1), ray)
        code = main(["sweep", "--geometry", "s2r", "--a2", "3,-2,1",
                     "--ray=" + ",".join(repr(float(c)) for c in ray)])
        assert (code, capsys.readouterr().out) == (3, "")

    @BOTH
    def test_a2_on_a1_is_degenerate(self, kind, capsys):
        """a2 = a1, as given or within ``vertex_gap``: DegenerateError as the
        spec is built, before any t, and exit 3 from the CLI."""
        for a2 in ((1.0, 0.0, 0.0), (2.0, 2.0, 0.0, 0.0), (1.0, 1e-13, 0.0)):
            with pytest.raises(DegenerateError, match="coincide"):
                SweepSpec(kind, a2, (2.0, 1.0, 0.0))
        code = main(["sweep", "--geometry", kind.value, "--a2", "1,0,0", "--ray", "2,1,0"])
        assert (code, capsys.readouterr().out) == (3, "")


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
        """A spec splits a2, its ray and a1 once each, as their membership
        checks, and builds its one ray part on them, whose three surface
        arcs include side 1-2.  One evaluate: a range check of the third
        vertex at the grid's two ends, none at the t of a reference family,
        which lie nowhere near a1 or a2, and no membership guard or arc; the
        grid sums and the refinement run on the family's closed form."""
        arcs, guards, brackets, ranges = [], [], [], []
        true_arc, true_guard, true_bracket = triangles._arc, core._guard_member, sweep_mod._bracket
        true_range = sweep_mod._guard_in_range

        def arc(*args):
            arcs.append(1)
            return true_arc(*args)

        def guard(*args):
            guards.append(1)
            return true_guard(*args)

        def bracket(*args):
            brackets.append(1)
            return true_bracket(*args)

        def in_range(*args):
            ranges.append(1)
            return true_range(*args)

        monkeypatch.setattr(triangles, "_arc", arc)
        monkeypatch.setattr(sweep_mod, "_bracket", bracket)
        monkeypatch.setattr(core, "_guard_member", guard)
        monkeypatch.setattr(sweep_mod, "_guard_in_range", in_range)
        spec = family_spec(kind)
        assert len(guards) == 3  # the splits of a2, the ray and a1
        assert len(arcs) == 3  # sides 1-3, 2-3 and 1-2 of one ray part
        guards.clear()
        arcs.clear()
        result = evaluate(spec)
        assert result.interior
        assert len(arcs) == 0
        assert len(brackets) == 1
        assert (len(guards), len(ranges)) == (0, 2)  # the grid's two ends

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

    @pytest.mark.parametrize("t_min, t_max", [(1e200, 1e250), (1e-200, 1e-150)])
    def test_flat_extremum_stays_in_a_far_range(self, t_min, t_max):
        """A flat family's t0 is the geometric mean of the range ends, whose
        product leaves double range here: it overflowed to inf and
        underflowed to 0."""
        spec = SweepSpec(Geometry.S2R, (3, -2, 1), (3, -2, 1), t_min, t_max, samples=8)
        result = evaluate(spec)
        assert result.extremum_kind is ExtremumKind.FLAT
        assert t_min <= result.t_extremum <= t_max
        assert result.t_extremum == pytest.approx(math.sqrt(t_min) * math.sqrt(t_max), rel=1e-15)

    @pytest.mark.parametrize("kind, a2, ray, t_min, t_max, samples", [
        (Geometry.S2R, (1.1875, 0.556640625, 0.0), (1.1875, 0.556640625, 0.0),
         1.0000000003217997, 10.0, 8),
        (Geometry.H2R, (1.0625, 1.0624999841675162, 0.0),
         (513.6606546368425, 513.6606469827024, 0.0), 1.0, 10.0, 8),
        (Geometry.H2R, (10.427508642579134, -2.879760022418061, -10.021971797223596),
         (10.427508642579134, -2.879760022418061, -10.021971797223596), 0.0141, 2.68e10, 8),
        pytest.param(
            Geometry.H2R, (298.953125, 262.35604932263277, 143.3257629705346),
            (224.21484375, 196.76703699197458, 107.49432222790097), 1e-3, 5.0, 16,
            marks=pytest.mark.xfail(strict=True, reason=(
                "within 2^-52 of the H2xR cone a surface point's float coordinates "
                "(about 5e7) do not resolve its Minkowski products: d23 is 0.314 where "
                "the 50-digit arc is 0.0400, so one sum is pi + 1.3e-2 (CHANGES.md, FOUND)"))),
    ], ids=["s2r-short-rise", "h2r-near-cone", "h2r-deeper-cone", "h2r-deep-cone"])
    def test_coplanar_family_is_flat(self, kind, a2, ray, t_min, t_max, samples):
        """Coplanar families with a short rise or near the H2xR cone: the
        arc between equal surface points is exactly 0, and each side's two
        ends read one normal, so every grid sum is pi within ``flat_band``
        (measured 8.9e-16 on the deeper cone family, whose sums reached
        pi + 1.02 when each end of a side had its own tangent)."""
        result = evaluate(SweepSpec(kind, a2, ray, t_min, t_max, samples))
        assert result.extremum_kind is ExtremumKind.FLAT
        assert np.abs(result.series[:, 1] - PI).max() <= DEFAULT.flat_band

    def test_flat_extremum_of_a_far_range_is_strict_json(self, capsys):
        """The CLI prints that t0 as a number: no Infinity that strict JSON
        parsers reject."""
        code = main(["sweep", "--geometry", "s2r", "--a2", "3,-2,1", "--ray", "3,-2,1",
                     "--t-min", "1e200", "--t-max", "1e250", "--samples", "8", "--format", "json"])

        def reject(name):
            raise ValueError(f"{name} is not strict JSON")

        assert code == 0
        assert json.loads(capsys.readouterr().out, parse_constant=reject)["t0"] == 1e225

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
        return triangles._angles_at(spec._ray, u).total

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
                slope = triangles._slope_at(spec._ray, u)
                worst = max(worst, abs(central - slope) / max(abs(slope), 1e-3))
        assert worst <= 3e-8

    def test_only_the_refinement_forms_a_slope(self, monkeypatch):
        """Triangles, S at one t and the grid of a flat family form no dS/du:
        the angles' partial derivatives are ``_slope_at``'s alone, which only
        Brent's refinement calls."""

        def partial(*args):
            raise AssertionError("a partial derivative was formed")

        monkeypatch.setattr(triangles, "_partial", partial)
        for kind in Geometry:
            tri = geodesic_triangle(kind, BASE_POINT, (2.0, 1.5, 1.0), (3.0, -1.0, 0.0))
            assert kind.curvature * (angle_sum(tri).total - PI) > 0.0
            assert triangles.classify(tri) is not triangles.TriangleClass.SUM_EQUALS_PI
            assert kind.curvature * (angle_sum_at(family_spec(kind, samples=8), 0.5) - PI) > 0.0
        flat = evaluate(SweepSpec(Geometry.S2R, (2, 1, 0), (5, -1, 0), samples=16))
        assert flat.extremum_kind is ExtremumKind.FLAT
        with pytest.raises(AssertionError, match="partial derivative"):
            evaluate(family_spec(Geometry.S2R, samples=16))

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


def _reference_chords(xp, a, b, cross, half):
    """``triangles._chords``, kept here with the references below."""
    half_sin, half_cos = half
    return (xp.sqrt(xp.sin(0.5 * (a - b)) ** 2 + cross * half_sin),
            xp.sqrt(xp.cos(0.5 * (a + b)) ** 2 + cross * half_cos))


def _reference_angles(part, u):
    """The numpy evaluation that the row pass of ``triangles._angles_at``
    replaced: b13, b23 and their sines, then the three angles one after
    another, each over (n,) arrays, and (w1 + w2) + w3."""
    off13, off23, d13, d23, at1, at2, half1, half2, half3 = part
    b13, b23 = np.arctan2(d13, u + off13), np.arctan2(d23, u + off23)
    s13, s23 = np.sin(b13), np.sin(b23)
    w1, w2, w3 = (2.0 * np.arctan2(*_reference_chords(np, a, b, cross, half))
                  for a, b, cross, half in ((at1, b13, math.sin(at1) * s13, half1),
                                            (at2, b23, math.sin(at2) * s23, half2),
                                            (b13, b23, s13 * s23, half3)))
    return w1, w2, w3, w1 + w2 + w3


def _reference_partial(a, b, half):
    """The partial derivative of an angle w in b as it was formed alone, with
    its own sines, cosine and chords."""
    sin_a = math.sin(a)
    h, k = _reference_chords(math, a, b, sin_a * math.sin(b), half)
    by_sin = 0.5 / (h * k + sys.float_info.min)
    return (math.sin(b - a) + 2.0 * sin_a * math.cos(b) * half[0]) * by_sin


def _reference_slope(part, u):
    """dS/du by four ``_reference_partial`` calls: what ``triangles._slope_at``,
    which shares the sines, cosines and w3's chords, replaced."""
    off13, off23, d13, d23, at1, at2, half1, half2, half3 = part
    r13, r23 = u + off13, u + off23
    b13, b23 = math.atan2(d13, r13), math.atan2(d23, r23)
    w1_b13, w2_b23 = _reference_partial(at1, b13, half1), _reference_partial(at2, b23, half2)
    w3_b13, w3_b23 = _reference_partial(b23, b13, half3), _reference_partial(b13, b23, half3)
    return (-(w1_b13 + w3_b13) * d13 / (r13 * r13 + d13 * d13)
            - (w2_b23 + w3_b23) * d23 / (r23 * r23 + d23 * d23))


def _flat_ray(a2, rng):
    """A ray in the cone of the base point and a2: coplanar with them and the centre."""
    a2 = np.asarray(a2, dtype=float)
    return rng.uniform(0.2, 1.0) * BASE_POINT + rng.uniform(0.2, 1.0) * a2 / np.linalg.norm(a2)


def _near_cone_ray(rng):
    """An H2xR ray 1 to 5 ulps inside the cone, as ``TestNearTheCone`` draws them."""
    phi, spread = rng.uniform(-PI, PI), rng.uniform(0.1, 2.0)
    y, z = spread * math.cos(phi), spread * math.sin(phi)
    x = core._hypot(y, z)
    for _ in range(int(rng.integers(1, 6))):
        x = math.nextafter(x, math.inf)
    return x, y, z


class TestKernelBits:
    """The grid's row pass (``triangles._angles_at`` over an array of u) and
    the refinement's dS/du (``triangles._slope_at``, with shared sines and
    chords) give the bits of the evaluations they replaced
    (``_reference_angles``, ``_reference_slope``): seeded families of both
    geometries, flat ones, H2xR rays a few ulps inside the cone, over the
    ranges [1e-3, 5], [1e200, 1e250] and [1e-320, 1e-300] at 8 and 4,096
    samples."""

    RANGES = ((1e-3, 5.0), (1e200, 1e250), (1e-320, 1e-300))

    @staticmethod
    def _families(kind, group, rng, count=8):
        for _ in range(count):
            if group == "near-cone":
                yield SweepSpec(kind, (2.0, 1.5, 1.0), _near_cone_ray(rng))
                continue
            a2 = random_point(kind, rng)
            yield SweepSpec(kind, a2, random_point(kind, rng) if group == "random"
                            else _flat_ray(a2, rng))

    @pytest.mark.parametrize("kind, group", [
        (Geometry.S2R, "random"), (Geometry.S2R, "flat"), (Geometry.H2R, "random"),
        (Geometry.H2R, "flat"), (Geometry.H2R, "near-cone")],
        ids=lambda v: getattr(v, "value", v))
    def test_the_bits_of_the_replaced_evaluations(self, kind, group):
        rng = np.random.default_rng([31, list(Geometry).index(kind), len(group)])
        slopes = 0
        for spec in self._families(kind, group, rng):
            part = spec._ray
            for t_min, t_max in self.RANGES:
                for samples in (8, 4096):
                    u = np.log(np.geomspace(t_min, t_max, samples))
                    angles = triangles._angles_at(part, u)
                    for got, expected in zip(angles, _reference_angles(part, u)):
                        assert got.tobytes() == expected.tobytes()
                for x in u[::64].tolist():
                    got, expected = triangles._slope_at(part, x), _reference_slope(part, x)
                    assert got.hex() == expected.hex(), (x, got, expected)
                    slopes += 1
        assert slopes == 8 * 3 * 64


def _windows(spec):
    """The windows (rho - width, rho + width) of ``sweep._near_a1_a2`` around
    p_k / ray_k, p = a1 and a2."""
    a1, a2, ray = spec._triples
    k = max(range(3), key=lambda i: abs(ray[i]))
    for p in (a1, a2):
        rho = min(p[k] / ray[k], math.nextafter(math.inf, 0.0))
        width = 4.0 * DEFAULT.vertex_gap * abs(rho) + 2.0 ** -1070 + 2.0 ** -1070 / abs(ray[k])
        yield rho - width, rho + width


def _bisect_near(spec, ts):
    """``sweep._near_a1_a2`` as it bisected the grid's list ``ts``."""
    for lo, hi in _windows(spec):
        yield from ts[bisect.bisect_left(ts, lo):bisect.bisect_right(ts, hi)]


class TestGrid:
    """``evaluate`` builds ``np.geomspace``'s grid without its argument
    handling, to the bit, and finds the grid t near a1 and a2 as the
    bisection of the grid's list found them."""

    @staticmethod
    def _ranges(rng):
        """(t_min, t_max, samples), 8 to 4,096 samples: seeded ranges within
        1e-300 to 1e300, fine ranges (t_max / t_min - 1 at most 3 ``vertex_gap``),
        ranges from the smallest subnormal, the widest range, and a grid of
        three ``sweep._BLOCK`` blocks."""
        def samples():
            return int(rng.integers(8, 4097))
        for _ in range(40):
            lo = rng.uniform(-300.0, 300.0)
            yield 10.0 ** lo, 10.0 ** rng.uniform(lo + 1e-3, 300.0), samples()
        for _ in range(40):
            t_min = 10.0 ** rng.uniform(-300.0, 300.0)
            yield t_min, t_min * (1.0 + DEFAULT.vertex_gap * rng.uniform(0.01, 3.0)), samples()
        for _ in range(10):
            yield 5e-324, 10.0 ** rng.uniform(-320.0, 0.0), samples()
        yield 1e-300, 1e300, 4096
        yield 5e-324, 1e300, 8
        yield 1e-3, 5.0, 2 * sweep_mod._BLOCK + 1808

    def test_grid_is_geomspace_to_the_bit(self):
        """The series' t column is ``np.geomspace`` bytewise, and its sums are
        the replaced per-angle pass over its log (``_reference_angles``)."""
        rng = np.random.default_rng(37)
        for t_min, t_max, samples in self._ranges(rng):
            spec = SweepSpec(Geometry.S2R, (3, -2, 1), (2, 1, 0), t_min=t_min, t_max=t_max,
                             samples=samples)
            series = evaluate(spec).series
            grid = np.geomspace(t_min, t_max, samples)
            assert series[:, 0].tobytes() == grid.tobytes(), (t_min, t_max, samples)
            sums = _reference_angles(spec._ray, np.log(grid))[3]
            assert series[:, 1].tobytes() == sums.tobytes(), (t_min, t_max, samples)

    @pytest.mark.parametrize("kind, group", [(kind, group) for kind in Geometry
                                             for group in ("a1", "a2", "fine")],
                             ids=lambda v: getattr(v, "value", v))
    def test_near_a1_a2_as_bisection(self, kind, group):
        """300 families of ``TestThirdVertexCheck``, whose rays are a1 or a2
        over a grid t: the same t, in order, as ``_bisect_near``."""
        rng = np.random.default_rng([41, list(Geometry).index(kind), len(group)])
        found = 0
        for _ in range(300):
            spec, grid = TestThirdVertexCheck._family(kind, group, rng)
            near = list(sweep_mod._near_a1_a2(spec, grid))
            assert near == list(_bisect_near(spec, grid.tolist()))
            found += len(near)
            # a grid t on a window's end is in the window
            ends = {e for window in _windows(spec) for t in window if 0.0 < t < math.inf
                    for e in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf))}
            ends = sorted(ends)
            near = list(sweep_mod._near_a1_a2(spec, np.array(ends)))
            assert near == list(_bisect_near(spec, ends))
        assert found >= 300


class TestRefinementWork:
    @pytest.mark.parametrize("spec, calls", [
        (lambda: family_spec(Geometry.S2R), 9), (lambda: family_spec(Geometry.H2R), 7),
        (lambda: SweepSpec(Geometry.S2R, (2, 1, 0), (5, -1, 0)), 0)],
        ids=["s2r", "h2r", "flat"])
    def test_slopes_per_evaluate(self, spec, calls, monkeypatch):
        """Brent's method forms dS/du 9 times on the S2xR reference family and
        7 times on the H2xR one; a flat family is not refined."""
        counted, true_slope = [], sweep_mod._slope_at

        def slope(*args):
            counted.append(1)
            return true_slope(*args)

        monkeypatch.setattr(sweep_mod, "_slope_at", slope)
        evaluate(spec())
        assert len(counted) == calls

    def test_peak_memory_of_a_large_grid(self):
        """The tracemalloc peak of ``evaluate`` at 2e5 S2xR samples, over the
        series' nbytes, measured 2.00: the grid, its sums and the series, with
        the kernel's buffers bounded by ``sweep._BLOCK`` samples.  The bracket's
        signed copy of the sums measured 2.50, the per-angle pass with the grid's
        list 8.0, and one row pass over the whole grid 9.5."""
        spec = family_spec(Geometry.S2R, samples=200_000)
        tracemalloc.start()
        try:
            series = evaluate(spec).series
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * series.nbytes, peak / series.nbytes


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
