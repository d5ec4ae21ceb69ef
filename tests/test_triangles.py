import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prodgeo import (
    BASE_POINT,
    DEFAULT,
    DegenerateError,
    DomainError,
    GeodesicTriangle,
    Geometry,
    PrecondError,
    TriangleClass,
    angle_sum,
    apply_isometry,
    classify,
    coplanar_with_center,
    encloses_center,
    geodesic_point,
    geodesic_triangle,
    tangent_endpoints,
    to_origin,
    vertex_angle,
)
from prodgeo import core, isometries, triangles
from prodgeo.isometries import _frame_angles
from conftest import BOTH, random_point
import mp_oracle
from test_sweep import _batch_coincide

PI = math.pi

TABLE1_ROW2 = ((3, -2, 1), (2, 1, 0), (0.94654, 0.68775, 1.51707, 3.15135))
TABLE2_ROW2 = ((2, 1.5, 1), (3, -1, 0), (1.93230, 0.49280, 0.69816, 3.12325))


def tri_s2r(a2, a3):
    return geodesic_triangle(Geometry.S2R, BASE_POINT, a2, a3)


def tri_h2r(a2, a3):
    return geodesic_triangle(Geometry.H2R, BASE_POINT, a2, a3)


class TestVertexAngles:
    def test_s2r_reference_row(self):
        a2, a3, expected = TABLE1_ROW2
        tri = tri_s2r(a2, a3)
        for i, ref in enumerate(expected[:3], start=1):
            assert vertex_angle(tri, i) == pytest.approx(ref, abs=1e-4)

    def test_h2r_reference_row(self):
        a2, a3, expected = TABLE2_ROW2
        tri = tri_h2r(a2, a3)
        for i, ref in enumerate(expected[:3], start=1):
            assert vertex_angle(tri, i) == pytest.approx(ref, abs=1e-4)

    def test_isoceles_mirror_symmetry(self):
        # base-plane triangle symmetric under y -> -y
        tri = tri_s2r((2, 1, 0), (2, -1, 0))
        assert vertex_angle(tri, 2) == pytest.approx(vertex_angle(tri, 3), abs=1e-12)

    def test_bad_vertex_index(self):
        tri = tri_s2r((2, 1, 0), (3, -2, 1))
        for index in (4, 0, True, False):  # a bool is not an index, though True == 1
            with pytest.raises(PrecondError, match="vertex index"):
                vertex_angle(tri, index)

    @BOTH
    def test_angles_in_open_interval(self, kind, rng):
        for _ in range(100):
            tri = geodesic_triangle(kind, BASE_POINT,
                                    random_point(kind, rng), random_point(kind, rng))
            angles = angle_sum(tri)
            for w in angles[:3]:
                assert 0.0 < w < PI


class TestValidateOnce:
    @pytest.mark.parametrize("kind, a2, a3", [
        (Geometry.S2R, *TABLE1_ROW2[:2]),
        (Geometry.H2R, *TABLE2_ROW2[:2]),
    ], ids=["s2r", "h2r"])
    def test_built_triangle_is_not_revalidated(self, kind, a2, a3, member_checks):
        tri = geodesic_triangle(kind, BASE_POINT, a2, a3)
        assert len(member_checks) == 3
        member_checks.clear()
        angle_sum(tri)
        for i in (1, 2, 3):
            vertex_angle(tri, i)
        classify(tri)
        assert member_checks == []

    def test_vertex_image_outside_model_is_domain_error(self):
        # deep in the H2xR cone the image of a2 under the normaliser of a1
        # rounds out of the model, so the paper's angles at a2 and a3, which
        # move it, report that; the product-split kernel moves no vertex and
        # is within 1e-6 of the 50-digit sum (measured 3.5e-7; one ulp of
        # a1's y moves the exact sum by 7.8e-6)
        vertices = ((500278259.46310556, 500278259.46279806, 0.0),
                    (0.6341076333898924, 0.09732170038306573, 0.6265947473106492),
                    (4702721.363152762, 428647.37680925534, 4683145.272763584))
        tri = geodesic_triangle(Geometry.H2R, *vertices)
        for i in (2, 3):
            with pytest.raises(DomainError):
                vertex_angle(tri, i)
        exact = mp_oracle.angle_sum(Geometry.H2R, *vertices)
        assert abs(angle_sum(tri).total - exact) <= 1e-6


class TestConstruction:
    def test_keeps_the_callers_vertices(self):
        tri = geodesic_triangle(Geometry.S2R, (2, 6, -4, 2), (1, 2, 1, 0), (1, 1, 1, 1))
        for vertex, given in zip(tri.vertices, ((3, -2, 1), (2, 1, 0), (1, 1, 1))):
            assert np.array_equal(vertex, given)

    def test_coincident_vertices_rejected(self):
        with pytest.raises(DegenerateError):
            tri_s2r((2, 1, 0), (2, 1, 0))

    def test_vertex_coinciding_with_base_rejected(self):
        with pytest.raises(DegenerateError):
            tri_s2r((1, 0, 0), (2, 1, 0))

    def test_each_pair_judged_by_its_own_size(self):
        """a2 and a3 lie 3 apart, distinct however large a1 is: the sum
        beside a1 of size 1e20 is the 50-digit one, and two vertices 1e-13
        apart are still refused beside it."""
        vertices = ((1e20, 0, 0), (3, -2, 1), (2, 1, 0))
        tri = geodesic_triangle(Geometry.S2R, *vertices)
        exact = mp_oracle.angle_sum(Geometry.S2R, *vertices)
        assert abs(angle_sum(tri).total - exact) <= 1e-9
        with pytest.raises(DegenerateError):
            geodesic_triangle(Geometry.S2R, (1e20, 0, 0), (3, -2, 1), (3, -2, 1 + 1e-13))

    @BOTH
    def test_relabeling_permutes_angles(self, kind, rng):
        """Moving a different vertex into first position permutes the
        interior angles accordingly."""
        for _ in range(20):
            a2, a3 = random_point(kind, rng), random_point(kind, rng)
            try:
                t123 = geodesic_triangle(kind, BASE_POINT, a2, a3)
                t231 = geodesic_triangle(kind, a2, a3, BASE_POINT)
            except DegenerateError:
                continue
            w123 = angle_sum(t123)
            w231 = angle_sum(t231)
            assert w231.w1 == pytest.approx(w123.w2, abs=1e-8)
            assert w231.w2 == pytest.approx(w123.w3, abs=1e-8)
            assert w231.w3 == pytest.approx(w123.w1, abs=1e-8)


class TestDirectConstruction:
    """``GeodesicTriangle`` checks its own vertices, and ``geodesic_triangle``
    is that constructor: both raise the same errors, in the same order."""

    BUILDERS = pytest.mark.parametrize("build", [GeodesicTriangle, geodesic_triangle],
                                       ids=["class", "function"])

    @BUILDERS
    @BOTH
    def test_coincident_vertices(self, build, kind):
        with pytest.raises(DegenerateError, match="coincide"):
            build(kind, (1, 0, 0), (1, 0, 0), (2, 1, 0))
        with pytest.raises(DegenerateError, match="coincide"):
            build(kind, (2, 1.5, 1), (3, -1, 0), (3, -1, 1e-14))

    @BUILDERS
    @pytest.mark.parametrize("kind, outside", [(Geometry.S2R, (0.0, 0.0, 0.0)),
                                               (Geometry.H2R, (0.5, 2.0, 0.0))],
                             ids=["s2r", "h2r"])
    def test_first_non_member_is_named(self, build, kind, outside):
        """Membership of a1, a2, a3 in order, then distinctness: a point
        outside the model is named before two coincident vertices."""
        named = f"point {outside} is not in the {kind.value} model"
        with pytest.raises(DomainError, match=re.escape(named)):
            build(kind, (2, 1, 0), outside, (-3, -1, 0, 0))
        with pytest.raises(DomainError, match=re.escape(named)):
            build(kind, (2, 1, 0), (2, 1, 0), outside)
        with pytest.raises(DomainError, match="homogeneous coordinate x0"):
            build(kind, (-1, 2, 1, 0), outside, (3, -1, 0))

    @BOTH
    def test_homogeneous_vertices(self, kind):
        tri = GeodesicTriangle(kind, (1, 1, 0, 0), (2, 4, 3, 2), (0.5, 1.5, -0.5, 0))
        for vertex, given in zip(tri.vertices, ((1, 0, 0), (2, 1.5, 1), (3, -1, 0))):
            assert np.array_equal(vertex, given)
        assert angle_sum(tri) == angle_sum(geodesic_triangle(kind, BASE_POINT, (2, 1.5, 1),
                                                             (3, -1, 0)))

    @BOTH
    def test_vertices_read_only_and_apart_from_the_callers(self, kind):
        given = [np.array([1.0, 0.0, 0.0]), np.array([2.0, 1.5, 1.0]), np.array([3.0, -1.0, 0.0])]
        tri = GeodesicTriangle(kind, *given)
        total = angle_sum(tri).total
        for vertex, mine in zip(tri.vertices, given):
            assert vertex is not mine
            with pytest.raises(TypeError):
                vertex[0] = 5.0
            mine[1] = 0.25
        assert tri.vertices == ((1, 0, 0), (2, 1.5, 1), (3, -1, 0))
        assert angle_sum(tri).total == total


class _NoNumpy:
    """Stands in for numpy in a module: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used on the scalar triangle path")


class TestFloatTriples:
    """A triangle reads each vertex once into a tuple of three floats and
    computes everything from those: no numpy, whatever the input type."""

    #: float 3- and 4-tuples: generic, coplanar and enclosing (S2xR) triangles
    CASES = [
        (Geometry.S2R, (1.0, 0.0, 0.0), (3.0, -2.0, 1.0), (2.0, 4.0, 2.0, 0.0)),
        (Geometry.S2R, (2.0, 2.0, 0.0, 0.0), (2.0, 1.0, 0.0), (5.0, -1.0, 0.0)),
        (Geometry.S2R, (1.0, 0.0, 0.0), (0.5, -0.5, 0.5, 0.0), (-1.0, -1.0, 0.0)),
        (Geometry.H2R, (1.0, 0.0, 0.0), (2.0, 1.5, 1.0), (2.0, 6.0, -2.0, 0.0)),
        (Geometry.H2R, (4.0, 4.0, 0.0, 0.0), (2.0, 1.5, 0.0), (3.0, -1.0, 0.0)),
    ]
    #: the same triangles with each whole coordinate an int: int tuples, and
    #: ints among floats where a coordinate is not whole
    INT_CASES = [(kind, *(tuple(int(c) if c.is_integer() else c for c in v) for v in vertices))
                 for kind, *vertices in CASES]

    @staticmethod
    def _measure(kind, *vertices):
        tri = geodesic_triangle(kind, *vertices)
        return (tri.vertices, angle_sum(tri), classify(tri), coplanar_with_center(tri),
                encloses_center(tri))

    def test_scalar_path_needs_no_numpy(self, monkeypatch):
        expected = [self._measure(*case) for case in self.CASES]
        assert [m[2:] for m in expected] == [
            (TriangleClass.SUM_ABOVE_PI, False, False), (TriangleClass.SUM_EQUALS_PI, True, False),
            (TriangleClass.SUM_ABOVE_PI, True, True), (TriangleClass.SUM_BELOW_PI, False, False),
            (TriangleClass.SUM_EQUALS_PI, True, False)]
        for module in (core, triangles):
            monkeypatch.setattr(module, "np", _NoNumpy())
        assert [self._measure(*case) for case in self.CASES] == expected
        assert {type(c) for case in self.INT_CASES for v in case[1:] for c in v} == {int, float}
        assert [self._measure(*case) for case in self.INT_CASES] == expected

    @BOTH
    def test_the_input_type_does_not_matter(self, kind):
        """One triangle given as arrays of floats, ints and float32, lists,
        tuples, ints, numpy scalars and homogeneous 4-tuples: the same float
        tuples, the same angles to the bit and the same class."""
        floats = ((1.0, 0.0, 0.0), (4.0, 3.0, 2.0), (3.0, -1.0, 0.0))
        given = [
            floats,
            [np.array(v) for v in floats],
            [np.array(v, dtype=np.int64) for v in floats],
            [np.array(v, dtype=np.float32) for v in floats],
            [list(v) for v in floats],
            [[np.float64(c) for c in v] for v in floats],
            ((1, 0, 0), (4, 3, 2), (3, -1, 0)),
            ((2.0, 2.0, 0.0, 0.0), (0.5, 2.0, 1.5, 1.0), (2, 6, -2, 0)),
        ]
        expected = self._measure(kind, *floats)
        for vertices in given:
            measured = self._measure(kind, *vertices)
            assert measured == expected, vertices
            assert all(type(v) is tuple and list(map(type, v)) == [float] * 3 for v in measured[0])

    def test_tiny_is_the_smallest_normal_double(self):
        assert triangles._TINY == np.finfo(float).tiny


class TestAngleSum:
    def test_s2r_table_row4(self):
        tri = tri_s2r((3, -2, 1), (12, 6, 0))
        assert angle_sum(tri).total == pytest.approx(3.14643, abs=1e-4)

    def test_h2r_table_row5(self):
        tri = tri_h2r((2, 1.5, 1), (3000, -1000, 0))
        assert angle_sum(tri).total == pytest.approx(3.13922, abs=1e-4)

    @BOTH
    @pytest.mark.parametrize("offset", [1e-160, 2e-170, 1e-250, 1e-310, 5e-324])
    def test_tiny_surface_arc_in_a_coplanar_triangle(self, kind, offset):
        """A side whose surface arc is below 1e-162 keeps unit directions:
        at 2e-170 the sum was 3.94 (s2r) and 4.07 (h2r), a ConsistencyError
        in ``classify``, when the arc's length was the root of its square."""
        tri = geodesic_triangle(kind, (1, 0, 0), (2, offset, 0), (1, 0.5, 0.3))
        assert classify(tri) is TriangleClass.SUM_EQUALS_PI
        assert abs(angle_sum(tri).total - PI) <= 4.5e-16

    @BOTH
    def test_equal_surface_points_have_no_arc(self, kind, rng):
        """The arc between a split surface point and itself is exactly 0,
        with a zero normal: the cross product of equal floats cancels
        exactly, where q - <p, q> p left rounding noise (2.5e-16 for the
        split of (1.1875, 0.556640625, 0))."""
        for p in [(1.1875, 0.556640625, 0.0)] + [random_point(kind, rng) for _ in range(200)]:
            s = core._split(kind, p)[1]
            assert triangles._arc(kind, s, s) == (0.0, [0.0, 0.0, 0.0]), p

    def test_coplanar_gives_pi(self):
        tri = tri_s2r((2, 1, 0), (1, -3, 0))
        assert angle_sum(tri).total == pytest.approx(PI, abs=1e-10)

    def test_total_is_exact_sum(self):
        angles = angle_sum(tri_s2r((3, -2, 1), (2, 1, 0)))
        assert angles.total == angles.w1 + angles.w2 + angles.w3


class TestAntipodality:
    @BOTH
    def test_outgoing_pairs_any_triangle(self, kind, rng):
        for _ in range(100):
            tri = geodesic_triangle(kind, BASE_POINT,
                                    random_point(kind, rng), random_point(kind, rng))
            frame = tangent_endpoints(tri)
            assert np.abs(frame[(2, 0)] + frame[(1, 2)]).max() < 1e-8
            assert np.abs(frame[(3, 0)] + frame[(1, 3)]).max() < 1e-8

    @BOTH
    def test_frame_of_a_triangle_off_the_base_point(self, kind, rng):
        """The frame first moves a1 to the base point: its pairs stay
        antipodal and its angles are the product-split angles."""
        for _ in range(50):
            tri = geodesic_triangle(kind, *(random_point(kind, rng) for _ in range(3)))
            frame = tangent_endpoints(tri)
            assert np.abs(frame[(2, 0)] + frame[(1, 2)]).max() < 1e-8
            assert np.abs(np.array(_frame_angles(frame)) - angle_sum(tri)).max() < 1e-8

    def test_cross_pair_on_coplanar_triangle(self):
        for tri in (tri_s2r((3, -2, 0), (2, 1, 0)), tri_h2r((2, 1.5, 0), (3, -1, 0))):
            frame = tangent_endpoints(tri)
            assert np.abs(frame[(3, 2)] + frame[(2, 3)]).max() < 1e-8

    def test_cross_pair_fails_off_plane(self):
        """The third antipodal pair is a coplanar-case identity; a generic
        triangle violates it, which is why the angle sum can exceed pi."""
        frame = tangent_endpoints(tri_s2r((3, -2, 1), (2, 1, 0)))
        assert np.abs(frame[(3, 2)] + frame[(2, 3)]).max() > 1e-3


class TestCoplanarity:
    def test_all_in_base_plane(self):
        assert coplanar_with_center(tri_s2r((2, 1, 0), (5, -1, 0)))

    def test_reference_triangle_not_coplanar(self):
        assert not coplanar_with_center(tri_s2r((3, -2, 1), (2, 1, 0)))

    def test_scaling_third_vertex_preserves_predicate(self):
        for t in (0.01, 0.5, 3.0, 1000.0):
            tri = tri_s2r((3, -2, 1), (2 * t, 1 * t, 0))
            assert not coplanar_with_center(tri)
            flat = tri_s2r((3, -2, 0), (2 * t, 1 * t, 0))
            assert coplanar_with_center(flat)

    def test_enclosing_configuration(self):
        # directions 0, 135 and -135 degrees wind around the centre
        tri = tri_s2r((-1, 1, 0), (-1, -1, 0))
        assert coplanar_with_center(tri)
        assert encloses_center(tri)

    def test_non_enclosing_coplanar(self):
        tri = tri_s2r((2, 1, 0), (2, -1, 0))
        assert coplanar_with_center(tri)
        assert not encloses_center(tri)

    def test_non_coplanar_never_encloses(self):
        assert not encloses_center(tri_s2r((3, -2, 1), (2, 1, 0)))


class TestClassify:
    def test_s2r_generic_above(self):
        tri = tri_s2r((3, -2, 1), (2, 1, 0))
        assert classify(tri) is TriangleClass.SUM_ABOVE_PI
        assert angle_sum(tri).total > PI

    def test_h2r_generic_below(self):
        tri = tri_h2r((2, 1.5, 1), (3, -1, 0))
        assert classify(tri) is TriangleClass.SUM_BELOW_PI

    def test_coplanar_equal(self):
        assert classify(tri_s2r((2, 1, 0), (5, -1, 0))) is TriangleClass.SUM_EQUALS_PI
        assert classify(tri_h2r((2, 1.5, 0), (3, -1, 0))) is TriangleClass.SUM_EQUALS_PI

    def test_enclosing_coplanar_is_above(self):
        """A coplanar S2xR triangle winding around the centre lives on the
        flat cylinder leaf; its angle sum exceeds pi and classification
        follows the sum, not the naive coplanarity rule."""
        tri = tri_s2r((-1, 1, 0), (-1, -1, 0))
        assert classify(tri) is TriangleClass.SUM_ABOVE_PI
        assert angle_sum(tri).total > PI + 0.1

    def test_short_vertical_side_is_equal(self):
        """a3 is a2 moved 1e-11 up its fibre: the side 2-3 has no surface
        arc, and the coplanar triangle's sum is pi.  Its surface arc of
        2.5e-16 made that side's fibre angle 2.5e-5, the sum pi - 2.6e-7,
        and ``classify`` raised ConsistencyError."""
        a2 = (1.1875, 0.556640625, 0.0)
        tri = tri_s2r(a2, tuple(1.00000000001 * c for c in a2))
        assert classify(tri) is TriangleClass.SUM_EQUALS_PI
        assert abs(angle_sum(tri).total - PI) <= 4.5e-16

    def test_coplanar_side_near_the_cut_locus_is_equal(self):
        """Side 1-3 joins surface points 1.7e-12 rad from antipodal: the
        sum is pi + 4.6e-9 (50-digit: pi + 6.1e-8), where it was
        pi + 1.06e-6 and ``classify`` raised ConsistencyError.  Near the cut
        locus the error still grows as eps over the sine of the side."""
        tri = geodesic_triangle(Geometry.S2R,
                                (-0.8549055335823857, -0.031294058191028706, -1.097121708181615),
                                (-0.22873578004225215, -0.7907952797449083, -0.7573236999428055),
                                (0.31891717930515695, 0.011674053301234178, 0.4092744131168768))
        assert classify(tri) is TriangleClass.SUM_EQUALS_PI

    def test_consistency_guard_fires_on_broken_sums(self, monkeypatch):
        """A pipeline returning wrong-side sums must raise, not classify."""
        import prodgeo.triangles as triangles
        from prodgeo import ConsistencyError, TriangleAngles

        def broken(tri):
            return TriangleAngles(1.0, 1.0, 1.0, 3.0)  # below pi

        monkeypatch.setattr(triangles, "angle_sum", broken)
        with pytest.raises(ConsistencyError):
            triangles.classify(tri_s2r((3, -2, 1), (2, 1, 0)))

    @BOTH
    def test_classification_matches_sum(self, kind, rng):
        for _ in range(100):
            tri = geodesic_triangle(kind, BASE_POINT,
                                    random_point(kind, rng), random_point(kind, rng))
            klass = classify(tri)
            total = angle_sum(tri).total
            if klass is TriangleClass.SUM_EQUALS_PI:
                assert abs(total - PI) < 1e-7
            elif klass is TriangleClass.SUM_ABOVE_PI:
                assert total > PI - 1e-7
            else:
                assert total < PI + 1e-7


class TestTrichotomy:
    @BOTH
    def test_random_triangles_respect_bound(self, kind, rng):
        for _ in range(500):
            tri = geodesic_triangle(kind, BASE_POINT,
                                    random_point(kind, rng), random_point(kind, rng))
            total = angle_sum(tri).total
            if kind is Geometry.S2R:
                assert total >= PI - 1e-9
            else:
                assert total <= PI + 1e-9

    @BOTH
    def test_coplanar_triangles_give_pi(self, kind, rng):
        count = 0
        while count < 200:
            psi = rng.uniform(-PI, PI)
            side = np.array([0.0, math.cos(psi), math.sin(psi)])
            c = rng.uniform(0.1, 2.0, size=2)
            d = rng.uniform(-0.95, 0.95, size=2) * (c if kind is Geometry.H2R else 2.0)
            a2 = c[0] * BASE_POINT + d[0] * side
            a3 = c[1] * BASE_POINT + d[1] * side
            try:
                tri = geodesic_triangle(kind, BASE_POINT, a2, a3)
            except DegenerateError:
                continue
            count += 1
            assert abs(angle_sum(tri).total - PI) <= 1e-8


class TestCutLocus:
    @pytest.mark.parametrize("a2, a3", [
        ((-1, 0, 0), (0, 1, 0)),     # a2 antipodal to the base point
        ((0, -2, 0), (0, 3, 0)),     # a2 and a3 antipodal to each other
        ((1, 2, 3), (-3, -6, -9)),   # the same, equal only up to rounding
    ])
    def test_antipodal_surface_points_are_degenerate(self, a2, a3):
        tri = tri_s2r(a2, a3)
        for call in (angle_sum, classify):
            with pytest.raises(DegenerateError, match="antipodal"):
                call(tri)

    def test_near_antipodal_side_is_computed(self):
        tri = tri_s2r((-1, 1e-9, 0), (0, 1, 0))
        angles = angle_sum(tri)
        assert angles.w1 == pytest.approx(vertex_angle(tri, 1), abs=1e-12)


class TestProductKernel:
    """The product-split closed form against the paper's normaliser method."""

    @BOTH
    def test_matches_vertex_angle(self, kind, rng):
        for _ in range(200):
            tri = geodesic_triangle(kind, BASE_POINT, random_point(kind, rng),
                                    random_point(kind, rng))
            angles = angle_sum(tri)
            for i in (1, 2, 3):
                assert abs(angles[i - 1] - vertex_angle(tri, i)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(Geometry)),
           params=st.tuples(*[st.tuples(st.floats(-PI, PI), st.floats(-PI / 2, PI / 2),
                                        st.floats(1e-3, 3.0))] * 3))
    def test_isometry_invariant(self, kind, params):
        a = [geodesic_point(kind, g) for g in params]
        for p, q in ((a[0], a[1]), (a[0], a[2]), (a[1], a[2])):
            assume(np.linalg.norm(p - q) > 1e-2 * max(1.0, np.abs(p).max(), np.abs(q).max()))
            if kind is Geometry.S2R:  # stay clear of the cut locus
                assume(np.linalg.norm(p / np.linalg.norm(p) + q / np.linalg.norm(q)) > 1e-2)
        single = np.array(angle_sum(geodesic_triangle(kind, *a)))
        # to_origin moves the triangle by an isometry: the angles stay, up
        # to the rounding of the images (about eps cosh^2 of the surface
        # arcs, which stay below 6 here)
        move = to_origin(kind, a[0])
        moved = geodesic_triangle(kind, *(apply_isometry(move, p) for p in a))
        assert np.abs(np.array(angle_sum(moved)) - single).max() <= 1e-10


class TestAgainstFiftyDigits:
    """Angle sums of the caller's vertices against the 50-digit product split."""

    @pytest.mark.parametrize("kind, gate", [(Geometry.S2R, 1e-14), (Geometry.H2R, 4e-14)],
                             ids=["s2r", "h2r"])
    def test_random_triangles(self, kind, gate):
        """300 seeded triangles with vertices drawn as ``verify`` draws them
        (tau <= 3), a1 the base point in every other one and drawn too in
        the rest.  Measured worst on this seed: 8.9e-16 (s2r) and 5.3e-15
        (h2r); over seeds 0 to 39, 2.2e-15 and 1.2e-14."""
        rng = np.random.default_rng(0)
        worst = 0.0
        for n in range(300):
            a1 = BASE_POINT if n % 2 == 0 else random_point(kind, rng)
            vertices = (a1, random_point(kind, rng), random_point(kind, rng))
            total = angle_sum(geodesic_triangle(kind, *vertices)).total
            worst = max(worst, abs(total - mp_oracle.angle_sum(kind, *vertices)))
        assert worst <= gate

    @pytest.mark.parametrize("kind", [Geometry.S2R, Geometry.H2R], ids=["s2r", "h2r"])
    def test_needle_triangles(self, kind):
        """300 seeded needles: a2 is a1 moved 1e-8 to 1e-5 of its size, a3
        drawn as ``verify`` draws.  Both ends of the short side read one
        normal, so their rounding cancels in the sum: measured 8.9e-16 on
        each geometry, where a tangent at each end gave 2.5e-9 (s2r) and
        9.0e-9 (h2r)."""
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(300):
            a1 = random_point(kind, rng)
            a2 = a1 + 10.0 ** rng.uniform(-8, -5) * float(np.abs(a1).max()) * rng.normal(size=3)
            vertices = (a1, a2, random_point(kind, rng))
            total = angle_sum(geodesic_triangle(kind, *vertices)).total
            worst = max(worst, abs(total - mp_oracle.angle_sum(kind, *vertices)))
        assert worst <= 1e-14

    def test_h2r_first_vertex_near_the_cone(self):
        """400 seeded triangles whose a1 is 1e-12 to 1e-11 (relative) inside
        the cone, with spread up to 100: at most 2.3e-13 measured, as sqrt(Q)
        is taken from exact squares there (``core._fibre_norm``; 4.8e-7 from the
        float product (x - r)(x + r), whose x - r is mostly the rounding of
        r).  Measured after moving a1 to the base point, with that product,
        the same sums were off by up to 3.3e-3."""
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(400):
            spread, phi = rng.uniform(0.5, 100.0), rng.uniform(-PI, PI)
            gap = rng.uniform(1e-12, 1e-11)
            a1 = np.array([spread * (1.0 + gap), spread * math.cos(phi), spread * math.sin(phi)])
            vertices = (a1, random_point(Geometry.H2R, rng), random_point(Geometry.H2R, rng))
            total = angle_sum(geodesic_triangle(Geometry.H2R, *vertices)).total
            worst = max(worst, abs(total - mp_oracle.angle_sum(Geometry.H2R, *vertices)))
        assert worst <= 1e-6

    def test_h2r_vertex_near_the_largest_double(self):
        """a3 = (1.5e308, 1e308, 0) is a member whose x + r overflows; its
        angles are finite and the sum is the 50-digit one."""
        vertices = ((2, 1.5, 1), (3, -1, 0), (1.5e308, 1e308, 0))
        total = angle_sum(geodesic_triangle(Geometry.H2R, *vertices)).total
        assert abs(total - mp_oracle.angle_sum(Geometry.H2R, *vertices)) <= 1e-15
        assert total == pytest.approx(3.14123710575091, abs=1e-14)


class TestClosedFormNormaliser:
    """Construction moves no vertex: scale invariance of the raw vertices,
    and no matrix of the paper's method."""

    @pytest.mark.parametrize("scale", [1e200, 1e-150])
    def test_s2r_angle_sum_is_scale_invariant(self, scale):
        a1, a2, a3 = (np.array(v, dtype=float) for v in ((3, -2, 1), (2, 1, 0), (1, 1, 1)))
        unit = angle_sum(geodesic_triangle(Geometry.S2R, a1, a2, a3)).total
        scaled = geodesic_triangle(Geometry.S2R, scale * a1, scale * a2, scale * a3)
        assert angle_sum(scaled).total == pytest.approx(unit, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-150])
    @pytest.mark.parametrize("a2, a3", [
        ((3, -2, 1), (2, 1, 0)),      # off the plane of E0
        ((-1, 1, 0), (-1, -1, 0)),    # coplanar, winding around E0
        ((2, 1, 0), (5, -1, 0)),      # coplanar, not enclosing E0
    ], ids=["generic", "enclosing", "coplanar"])
    def test_s2r_classification_is_scale_invariant(self, scale, a2, a3):
        """Coplanarity with E0 and enclosure of E0 are read off the vertices
        as given, and stay decided at sizes whose products leave double
        range."""
        unit = geodesic_triangle(Geometry.S2R, BASE_POINT, a2, a3)
        scaled = geodesic_triangle(Geometry.S2R, *(scale * np.array(v, dtype=float)
                                                   for v in (BASE_POINT, a2, a3)))
        for predicate in (coplanar_with_center, encloses_center, classify):
            assert predicate(scaled) == predicate(unit)

    @settings(max_examples=100, deadline=None)
    @given(params=st.tuples(*[st.tuples(st.floats(-PI, PI), st.floats(-PI / 2, PI / 2),
                                        st.floats(0.1, 3.0))] * 3),
           log_scale=st.sampled_from([-300.0, 300.0]))
    def test_s2r_angle_sum_invariant_under_far_scaling(self, params, log_scale):
        """p -> e^(+-300) p is a fibre translation of S2xR, so the angle sum
        stays, with a1 off the base point and the vertices measured as given."""
        verts = [geodesic_point(Geometry.S2R, g) for g in params]
        for p, q in ((verts[0], verts[1]), (verts[0], verts[2]), (verts[1], verts[2])):
            assume(np.linalg.norm(p - q) > 1e-2 * max(1.0, np.abs(p).max(), np.abs(q).max()))
            assume(np.linalg.norm(p / np.linalg.norm(p) + q / np.linalg.norm(q)) > 1e-2)
        unit = angle_sum(geodesic_triangle(Geometry.S2R, *verts)).total
        scale = math.exp(log_scale)
        scaled = geodesic_triangle(Geometry.S2R, *(scale * p for p in verts))
        assert abs(angle_sum(scaled).total - unit) <= 1e-12

    @BOTH
    def test_construction_uses_no_matrix(self, kind, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("matrix normaliser called")

        monkeypatch.setattr(isometries, "_to_origin", refuse)
        monkeypatch.setattr(isometries, "apply_isometry", refuse)
        for _ in range(20):
            tri = geodesic_triangle(kind, *(random_point(kind, rng) for _ in range(3)))
            angle_sum(tri)


class TestComputedOnce:
    """A triangle's angles and coplanarity are computed once, on first use."""

    def test_angle_sum_then_classify_runs_the_kernel_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        kernel = triangles._closed_form
        monkeypatch.setattr(triangles, "_closed_form", counted)
        tri = tri_s2r((3, -2, 1), (2, 1, 0))
        total = angle_sum(tri).total
        assert classify(tri) is TriangleClass.SUM_ABOVE_PI
        assert angle_sum(tri).total == total
        assert len(calls) == 1

    def test_classify_of_a_coplanar_triangle_tests_coplanarity_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return test(*args)

        test = triangles._coplanar
        monkeypatch.setattr(triangles, "_coplanar", counted)
        tri = tri_s2r((2, 1, 0), (1, -3, 0))
        assert classify(tri) is TriangleClass.SUM_EQUALS_PI
        assert coplanar_with_center(tri) and not encloses_center(tri)
        assert len(calls) == 1

    def test_vertices_are_read_only(self):
        a2 = np.array([3.0, -2.0, 1.0])
        tri = tri_s2r(a2, (2, 1, 0))
        for vertex in tri.vertices:
            with pytest.raises(TypeError):
                vertex[0] = 5.0
        a2[0] = 5.0  # the caller's array stays writable and apart
        assert tri.a2[0] != 5.0


def _det_coplanar(a1, a2, a3):
    """The numpy rule that ``triangles._coplanar`` replaced: the determinant
    of the rows over their largest |coordinate|, against their norms."""
    rows = np.array([a1, a2, a3])
    rows = rows / np.abs(rows).max(axis=1, keepdims=True)
    det = float(np.linalg.det(rows))
    return abs(det) <= DEFAULT.coplanar * float(np.linalg.norm(rows, axis=1).prod())


def _coincide(vertices):
    """``triangles._require_distinct`` of the vertices read as float triples."""
    try:
        triangles._require_distinct([tuple(map(float, v)) for v in vertices])
    except DegenerateError:
        return True
    return False


def _lstsq_encloses(a1, a2, a3):
    """The numpy rule that ``triangles._encloses`` replaced: the least-squares
    barycentric solve of 0 = l1 r1 + l2 r2 + l3 r3, l1 + l2 + l3 = 1, for the
    rows r over their largest |coordinate|, with a residual of at most 1e-8
    and no weight below -``enclosure_weight``."""
    m = np.array([*zip(*map(triangles._unit_row, (a1, a2, a3))), (1.0, 1.0, 1.0)])
    rhs = np.array([0.0, 0.0, 0.0, 1.0])
    lam, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    if float(np.abs(m @ lam - rhs).max()) > 1e-8:
        return False
    return bool(np.all(lam >= -DEFAULT.enclosure_weight))


def _sum_normal_encloses(a1, a2, a3):
    """``triangles._encloses`` with the normal taken as the sum of the cross
    products c_i, not the largest: the sum cancels when the rows lie on one
    line."""
    rows = np.array([triangles._unit_row(np.asarray(a)) for a in (a1, a2, a3)])
    crosses = np.cross(np.roll(rows, -1, axis=0), np.roll(rows, -2, axis=0))
    weights = crosses @ crosses.sum(axis=0)
    total = weights.sum()
    return bool(total > 0.0 and weights.min() >= -DEFAULT.enclosure_weight * total)


def _coplanar_draw(rng, group):
    """Three S2xR vertices in a plane through E0, of sizes 1e-3 to 1e3.

    ``random``: any plane and directions.  ``near-edge``: the third vertex
    within 1e-14 to 1e-2 rad of the first one's antipode, so E0 is that near
    side 1-3.  ``near-collinear``: a plane through the x axis, |x| dominant
    at every vertex, two vertices within 1e-10 to 1e-2 rad of one ray and
    the third on their side or near their antipode; the rows over their
    largest |coordinate| then lie on x = +-1, all three on one line when
    the vertices share the sign of x.
    """
    if group == "near-collinear":
        psi = rng.uniform(-PI, PI)
        e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, math.cos(psi), math.sin(psi)])
        t1 = rng.uniform(-0.7, 0.7)
        gap = 10.0 ** rng.uniform(-10, -2) * rng.choice([-1.0, 1.0])
        t3 = rng.uniform(-0.7, 0.7) if rng.integers(2) else t1 + PI + gap * rng.uniform(-1.0, 2.0)
        angles = rng.permutation([t1, t1 + gap, t3])
    else:
        e1, e2 = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
        angles = rng.uniform(-PI, PI, size=3)
        if group == "near-edge":
            angles[2] = angles[0] + PI + 10.0 ** rng.uniform(-14, -2) * rng.choice([-1.0, 1.0])
    sizes = 10.0 ** rng.uniform(-3, 3, size=3)
    return [r * (math.cos(t) * e1 + math.sin(t) * e2) for r, t in zip(sizes, angles)]


class TestFloatDecisions:
    """One triangle's coplanarity, enclosure of the centre and distinctness
    are decided in Python floats; the decisions are those of the numpy
    rules."""

    DRAWS = 2000  # per group: six groups

    @pytest.mark.parametrize("scaled", [False, True], ids=["unit", "scaled"])
    @pytest.mark.parametrize("group", ["random", "coplanar", "near-plane"])
    def test_coplanar_decides_as_the_determinant(self, group, scaled):
        rng = np.random.default_rng({"random": 1, "coplanar": 2, "near-plane": 3}[group])
        decisions = []
        for _ in range(self.DRAWS):
            a1, a2 = rng.normal(size=(2, 3))
            if group == "random":
                a3 = rng.normal(size=3)
            else:
                a3 = rng.normal() * a1 + rng.normal() * a2
                if group == "near-plane":
                    normal = np.cross(a1, a2)
                    off = 10.0 ** rng.uniform(-13, -7) * rng.choice([-1.0, 1.0])
                    a3 = a3 + off * np.linalg.norm(a3) * normal / np.linalg.norm(normal)
            rows = [a1, a2, a3]
            if scaled:
                rows = [r * 10.0 ** (200 * rng.choice([-1, 1])) for r in rows]
            decision = triangles._coplanar(*rows)
            assert decision == _det_coplanar(*rows), rows
            decisions.append(decision)
        expected = {"random": {False}, "coplanar": {True}, "near-plane": {False, True}}
        assert set(decisions) == expected[group]

    @pytest.mark.parametrize("group", ["random", "near-edge", "near-collinear"])
    def test_encloses_decides_as_the_barycentric_solve(self, group):
        """4,000 coplanar draws per group, each also with every vertex
        scaled by 1e200 or 1e-200 (enclosure is scale-invariant per
        vertex): ``encloses_center`` decides as the least-squares rule, and
        on the random group ``classify`` follows it.  The sum of the cross
        products as the normal misses on the near-collinear group."""
        rng = np.random.default_rng({"random": 5, "near-edge": 6, "near-collinear": 7}[group])
        decisions, sum_misses = set(), 0
        for _ in range(4000):
            rows = _coplanar_draw(rng, group)
            for vertices in (rows, [r * 10.0 ** (200 * rng.choice([-1, 1])) for r in rows]):
                tri = geodesic_triangle(Geometry.S2R, *vertices)
                assert coplanar_with_center(tri), vertices
                expected = _lstsq_encloses(*vertices)
                assert encloses_center(tri) is expected, vertices
                if group == "random":
                    assert classify(tri) is (TriangleClass.SUM_ABOVE_PI if expected
                                             else TriangleClass.SUM_EQUALS_PI), vertices
                if group == "near-collinear":
                    sum_misses += _sum_normal_encloses(*vertices) is not expected
                decisions.add(expected)
        assert decisions == {False, True}
        assert (sum_misses > 0) is (group == "near-collinear")

    @pytest.mark.parametrize("a1, scale", [((0.0, 0.0, 3.0), 1.0), ((1e20, 0.0, 0.0), 3.0)],
                             ids=["unit", "mixed-scale"])
    def test_gap_at_the_threshold_and_one_ulp_either_side(self, a1, scale):
        """a2 and a3 differ in y by exactly ``vertex_gap`` of their size,
        which coincides, or by one ulp more (apart) or less (coincides)."""
        gap = DEFAULT.vertex_gap * scale
        for step, coincides in ((gap, True), (np.nextafter(gap, 1.0), False),
                                (np.nextafter(gap, 0.0), True)):
            a2 = np.array([scale, 0.0, 0.0])
            a3 = np.array([scale, step, 0.0])
            assert a3[1] - a2[1] == step
            one = [np.array(a1), a2, a3]
            assert _coincide(one) is coincides
            assert _batch_coincide([v[None, :] for v in one]) is coincides
            assert _batch_coincide([one[0], one[1], one[2][None, :]], new=2) is coincides

    def test_one_triangle_decides_as_a_batch_of_one(self):
        rng = np.random.default_rng(4)
        decisions = set()
        for _ in range(2000):
            a1, a2 = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-20, 20, size=(2, 1))
            a3 = a2 * (1.0 + DEFAULT.vertex_gap * rng.uniform(0.0, 2.0, size=3))
            one = [a1, a2, a3]
            decision = _coincide(one)
            assert decision == _batch_coincide([v[None, :] for v in one])
            decisions.add(decision)
        assert decisions == {False, True}

    @pytest.mark.filterwarnings("error")
    def test_vertices_near_the_largest_double_raise_without_warning(self):
        """a1 and a2 near +-1e308 differ by more than the largest double:
        the gap is inf, which is apart, and the antipodal side ends the sum;
        a batch of one decides the same with no warning."""
        vertices = ((1e308, 0, 0), (-1e308, 1, 0), (1, 1, 1))
        tri = geodesic_triangle(Geometry.S2R, *vertices)
        with pytest.raises(DegenerateError, match="antipodal"):
            angle_sum(tri)
        assert not _coincide(vertices)
        assert not _batch_coincide([np.array([v], dtype=float) for v in vertices])
