import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prodgeo import (
    BASE_POINT,
    DEFAULT,
    DegenerateError,
    DomainError,
    Geometry,
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
from prodgeo.reference import TABLE_ROWS
from prodgeo import isometries, triangles
from prodgeo.isometries import _frame_angles
from prodgeo.triangles import _angle_sums
from conftest import BOTH, random_point
import mp_oracle

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
        with pytest.raises(ValueError):
            vertex_angle(tri, 4)

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


class TestAngleSum:
    def test_s2r_table_row4(self):
        tri = tri_s2r((3, -2, 1), (12, 6, 0))
        assert angle_sum(tri).total == pytest.approx(3.14643, abs=1e-4)

    def test_h2r_table_row5(self):
        tri = tri_h2r((2, 1.5, 1), (3000, -1000, 0))
        assert angle_sum(tri).total == pytest.approx(3.13922, abs=1e-4)

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
    """The product-split kernel against the paper's normaliser method."""

    @BOTH
    def test_matches_vertex_angle(self, kind, rng):
        tris = [geodesic_triangle(kind, BASE_POINT, random_point(kind, rng),
                                  random_point(kind, rng)) for _ in range(200)]
        batch = _angle_sums(kind, *(np.array(v) for v in zip(*(t.vertices for t in tris))))
        for n, tri in enumerate(tris):
            for i in (1, 2, 3):
                assert abs(batch[i - 1][n] - vertex_angle(tri, i)) <= 1e-12

    @BOTH
    def test_reference_table_in_one_batch(self, kind):
        a2, rows = TABLE_ROWS[kind]
        a3 = np.array([row[0] for row in rows], dtype=float)
        got = np.array(_angle_sums(kind, BASE_POINT, np.array(a2, dtype=float), a3)).T
        assert np.abs(got - np.array([row[1] for row in rows])).max() <= DEFAULT.table_gate

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(Geometry)),
           params=st.lists(st.tuples(*[st.tuples(st.floats(-PI, PI),
                                                 st.floats(-PI / 2, PI / 2),
                                                 st.floats(1e-3, 3.0))] * 3),
                           min_size=1, max_size=6))
    def test_batch_equals_singles_and_isometry_invariant(self, kind, params):
        verts = [[geodesic_point(kind, g) for g in tri] for tri in params]
        for a in verts:
            for p, q in ((a[0], a[1]), (a[0], a[2]), (a[1], a[2])):
                assume(np.linalg.norm(p - q) > 1e-2 * max(1.0, np.abs(p).max(), np.abs(q).max()))
                if kind is Geometry.S2R:  # stay clear of the cut locus
                    assume(np.linalg.norm(p / np.linalg.norm(p) + q / np.linalg.norm(q)) > 1e-2)
        batch = np.array(_angle_sums(kind, *[np.array(v) for v in zip(*verts)]))
        for n, a in enumerate(verts):
            single = np.array(_angle_sums(kind, *a))
            assert np.abs(batch[:, n] - single).max() <= 1e-14
            # to_origin moves the triangle by an isometry: the angles stay,
            # up to the rounding of the images (about eps cosh^2 of the
            # surface arcs, which stay below 6 here)
            move = to_origin(kind, a[0])
            moved = np.array(_angle_sums(kind, *(apply_isometry(move, p) for p in a)))
            assert np.abs(moved - single).max() <= 1e-10


class TestAgainstFiftyDigits:
    """Angle sums of the caller's vertices against the 50-digit product split."""

    def test_h2r_first_vertex_near_the_cone(self):
        """400 seeded triangles whose a1 is 1e-12 to 1e-11 (relative) inside
        the cone, with spread up to 100.  The kernel's error is the rounding
        of Q = (x - r)(x + r), which cancels there: at most 4.8e-7 measured.
        Measured after moving a1 to the base point, the same sums are off by
        up to 3.3e-3."""
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

        kernel = triangles._angle_sums
        monkeypatch.setattr(triangles, "_angle_sums", counted)
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
            with pytest.raises(ValueError):
                vertex[0] = 5.0
        a2[0] = 5.0  # the caller's array stays writable and apart
        assert tri.a2[0] != 5.0
