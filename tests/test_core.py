import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodgeo
from prodgeo import DomainError, Geometry, contains, metric_at, model_point, to_model
from prodgeo.core import (
    BASE_POINT,
    _fibre_norm,
    _guard_member,
    _metric,
    _scaled_norm,
    _split,
    fibre_norm_sq,
    require_member,
)
from conftest import BOTH, random_point


#: every public entry point that takes a geometry, with other arguments
#: valid in both, so only the geometry can fail
TAKES_A_GEOMETRY = {
    "contains": lambda kind: contains(kind, (2.0, 1.0, 0.0)),
    "fibre_norm_sq": lambda kind: fibre_norm_sq(kind, (2.0, 1.0, 0.0)),
    "metric_at": lambda kind: metric_at(kind, (2.0, 1.0, 0.0)),
    "to_model": lambda kind: to_model(kind, 0.5, 0.3, 0.2),
    "geodesic_point": lambda kind: prodgeo.geodesic_point(kind, (0.3, 0.2, 1.0)),
    "geodesic_params": lambda kind: prodgeo.geodesic_params(kind, (2.0, 1.0, 0.0)),
    "distance": lambda kind: prodgeo.distance(kind, (2.0, 1.0, 0.0), (3.0, -1.0, 0.0)),
    "sample_curve": lambda kind: prodgeo.sample_curve(kind, (0.3, 0.2, 1.0), 4),
    "fibre_translation": lambda kind: prodgeo.fibre_translation(kind, (2.0, 1.0, 0.5)),
    "rotation_x": lambda kind: prodgeo.rotation_x(kind, (2.0, 1.0, 0.5)),
    "rotation_z": lambda kind: prodgeo.rotation_z(kind, (2.0, 1.0, 0.0)),
    "to_origin": lambda kind: prodgeo.to_origin(kind, (2.0, 1.0, 0.5)),
    "reference_image_base": lambda kind: prodgeo.reference_image_base(kind, (2.0, 1.0, 0.5)),
    "reference_image_third": lambda kind: prodgeo.reference_image_third(
        kind, (2.0, 1.0, 0.5), (3.0, -1.0, 0.0)),
    "reference_images_plane_mover": lambda kind: prodgeo.reference_images_plane_mover(
        kind, (3.0, -1.0, 0.0), (2.0, 1.0, 0.5)),
    "geodesic_triangle": lambda kind: prodgeo.geodesic_triangle(
        kind, BASE_POINT, (2.0, 1.0, 0.0), (3.0, -1.0, 0.0)),
    "GeodesicTriangle": lambda kind: prodgeo.angle_sum(prodgeo.GeodesicTriangle(
        kind, BASE_POINT, (2.0, 1.0, 0.0), (3.0, -1.0, 0.0))),
    "SweepSpec": lambda kind: prodgeo.SweepSpec(kind, (2.0, 1.5, 1.0), (3.0, -1.0, 0.0)),
    "integrate_geodesic": lambda kind: prodgeo.integrate_geodesic(kind, (0.3, 0.2, 1.0)),
    "integrate_geodesic_cartesian": lambda kind: prodgeo.integrate_geodesic_cartesian(
        kind, (0.3, 0.2, 1.0)),
    "unit_speed_drift": lambda kind: prodgeo.unit_speed_drift(
        kind, np.array([0.0, 0.1, 0.2, 0.6, 0.8, 0.0])),
    "arc_length_quadrature": lambda kind: prodgeo.arc_length_quadrature(
        kind, [(2.0, 1.0, 0.0), (3.0, -1.0, 0.0)]),
}


class TestGeometryTag:
    """An operation chooses its branch by ``Geometry`` member; anything else,
    a name such as 's2r' included, is DomainError before any branch runs."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["s2r", None], ids=["name", "none"])
    @pytest.mark.parametrize("entry", sorted(TAKES_A_GEOMETRY))
    def test_not_a_geometry_is_domain_error(self, entry, kind):
        with pytest.raises(DomainError, match="unknown geometry"):
            TAKES_A_GEOMETRY[entry](kind)

    @pytest.mark.parametrize("name", ["S2R", "h2r"])
    def test_from_name_reads_either_case(self, name):
        assert Geometry.from_name(name).value == name.lower()

    @pytest.mark.parametrize("name", [None, 3, "s3r", "", b"s2r", Geometry.S2R],
                             ids=["none", "int", "unknown", "empty", "bytes", "member"])
    def test_from_name_of_anything_else_is_domain_error(self, name):
        with pytest.raises(DomainError, match="unknown geometry"):
            Geometry.from_name(name)


class TestMembership:
    def test_h2r_cone_axis(self):
        assert contains(Geometry.H2R, (1, 1, 0, 0))

    def test_h2r_outside_cone(self):
        assert not contains(Geometry.H2R, (1, 1, 2, 0))

    def test_s2r_excludes_centre(self):
        assert not contains(Geometry.S2R, (1, 0, 0, 0))

    def test_s2r_negative_x_is_member(self):
        assert contains(Geometry.S2R, (1, -1, 0, 0))

    def test_nonpositive_weight_is_not_member(self):
        assert not contains(Geometry.S2R, (0, 1, 0, 0))
        assert not contains(Geometry.S2R, (-1, 1, 0, 0))

    def test_boundary_cone_excluded(self):
        assert not contains(Geometry.H2R, (1, 1, 1, 0))

    def test_homogeneous_normalisation(self):
        p = model_point((2, 4, -2, 6))
        assert np.allclose(p, [2, -1, 3])

    def test_bad_weight_raises(self):
        with pytest.raises(DomainError):
            model_point((0, 1, 0, 0))

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    def test_h2r_membership_iff_cone_inequalities(self, x, y, z):
        # in exact rationals: x^2 - y^2 - z^2 in floats underflows below 1e-154
        fx, fy, fz = Fraction(x), Fraction(y), Fraction(z)
        expected = (fx * fx - fy * fy - fz * fz > 0) and x > 0
        assert contains(Geometry.H2R, (x, y, z)) == expected


class TestMembershipScale:
    """Membership squares no coordinate: hypot-scaled norms decide it, as in
    ``core._split``, with no overflow warning and no underflow to zero."""

    @pytest.mark.parametrize("kind, p", [
        (Geometry.S2R, (1e200, 1.0, 0.0)), (Geometry.S2R, (1e-170, 1e-170, 0.0)),
        (Geometry.S2R, (-1e-300, 0.0, 5e-324)), (Geometry.H2R, (1e200, 1e199, -1e199)),
        (Geometry.H2R, (2e-170, 1e-170, 0.0)), (Geometry.H2R, (1e-300, 0.0, 0.0)),
        (Geometry.S2R, (1.5e308, 5e307, 0.0)), (Geometry.H2R, (1.5e308, 1e308, 1e308))])
    def test_extreme_scales_are_members(self, kind, p):
        assert contains(kind, p)
        require_member(kind, p)
        _guard_member(kind, np.array([BASE_POINT, p]))

    @pytest.mark.parametrize("kind, p", [
        (Geometry.S2R, (0.0, 0.0, 0.0)), (Geometry.S2R, (np.inf, 1.0, 0.0)),
        (Geometry.S2R, (np.nan, 1.0, 0.0)), (Geometry.S2R, (1.0, np.nan, 0.0)),
        (Geometry.H2R, (0.0, 0.0, 0.0)), (Geometry.H2R, (np.inf, 1.0, 0.0)),
        (Geometry.H2R, (1.0, np.nan, 0.0)), (Geometry.H2R, (1e200, 1e200, 0.0)),
        (Geometry.H2R, (-1e-170, 0.0, 0.0)),
        # finite points whose hypot overflows: inf, with no overflow warning
        (Geometry.S2R, (1.5e308, 1.5e308, 0.0)), (Geometry.H2R, (1.5e308, 1.5e308, 0.0)),
        (Geometry.H2R, (1.5e308, 1.5e308, 1.5e308))])
    def test_non_members_at_every_scale(self, kind, p):
        assert not contains(kind, p)
        with pytest.raises(DomainError, match="is not in the"):
            require_member(kind, p)
        with pytest.raises(DomainError, match="is not in the"):
            _guard_member(kind, np.array([BASE_POINT, p]))

    @BOTH
    def test_one_point_norm_is_the_array_norm_bit_for_bit(self, kind, rng):
        """One point is decided in floats with C's hypot, arrays by numpy's:
        the same function, so the same norm, NaN and inf included."""
        with np.errstate(over="ignore"):  # some coordinates overflow to inf
            points = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-320, 308.3, size=(2000, 3))
            points[::5, 0] = np.hypot(points[::5, 1], points[::5, 2]) * (1 + 1e-15)
        points[1::7, 1], points[2::11, 2] = np.nan, np.inf
        norms, inside = _scaled_norm(kind, points)
        for p, norm, member in zip(points, norms, inside):
            one_norm, one_inside = _scaled_norm(kind, p)
            assert one_norm == norm or (math.isnan(one_norm) and math.isnan(norm))
            assert one_inside == member

    @BOTH
    def test_rows_decided_like_single_points(self, kind, rng):
        """``_guard_member`` and ``contains`` apply one rule: every row of a
        batch spanning 600 orders of magnitude, near the cone too, is
        decided as the single point is."""
        points = rng.normal(size=(400, 3)) * 10.0 ** rng.uniform(-300, 300, size=(400, 1))
        points[::4, 0] = np.hypot(points[::4, 1], points[::4, 2]) * (1 + 1e-15)
        for p in points:
            inside = contains(kind, p)
            if inside:
                _guard_member(kind, p[None])
            else:
                with pytest.raises(DomainError):
                    _guard_member(kind, p[None])


class TestFibreNorm:
    """sqrt(Q) on H2xR is sqrt(x - r) sqrt(x + r), with x + r taken in
    quarters where it could overflow, so nothing leaves double range."""

    def test_h2r_bits_of_the_plain_product_wherever_it_is_finite(self, rng):
        x = 10.0 ** rng.uniform(-323, 308, size=4000)
        x[::50] = rng.uniform(0, 1.79e308, size=80)  # near the largest double
        r = x * rng.uniform(0, 1, size=4000) ** rng.choice([1, 100], size=4000)
        phi = rng.uniform(-math.pi, math.pi, size=4000)
        points = np.column_stack([x, r * np.cos(phi), r * np.sin(phi)])
        points = points[_scaled_norm(Geometry.H2R, points)[1]]
        spread = np.hypot(points[:, 1], points[:, 2])
        with np.errstate(over="ignore"):
            plain = np.sqrt(points[:, 0] - spread) * np.sqrt(points[:, 0] + spread)
        finite = np.isfinite(plain)
        assert 0 < (~finite).sum() and finite.sum() > 3000
        for p, plain_norm, plain_finite in zip(points, plain.tolist(), finite):
            norm = _fibre_norm(Geometry.H2R, p)
            assert 0.0 < norm < math.inf
            if plain_finite:
                assert norm == plain_norm

    @BOTH
    def test_split_is_one_point_in_floats(self, kind):
        """(f, [sx, sy, sz]): the fibre height log sqrt(Q) and p / sqrt(Q),
        from sqrt(Q) as a float."""
        p = np.array([2.0, 1.5, 1.0])
        f, s = _split(kind, p)
        assert type(_fibre_norm(kind, p)) is float and type(f) is float
        assert type(s) is list and [type(c) for c in s] == [float] * 3
        norm = math.sqrt(fibre_norm_sq(kind, p))
        assert f == pytest.approx(math.log(norm), rel=1e-15)
        assert s == pytest.approx((p / norm).tolist(), rel=1e-15)

    def test_h2r_member_near_the_largest_double(self):
        """x + r = 2.5e308 overflows; Q = 1.25e616 has the finite root
        1.118e308, fibre height 709.3 (50 digits: tau 709.308236899768)."""
        norm = _fibre_norm(Geometry.H2R, np.array([1.5e308, 1e308, 0.0]))
        assert norm == pytest.approx(math.sqrt(1.25) * 1e308, rel=1e-15)


class TestMetric:
    def test_s2r_identity_at_base(self):
        assert np.allclose(metric_at(Geometry.S2R, (1, 1, 0, 0)), np.eye(3))

    def test_h2r_identity_at_base(self):
        assert np.allclose(metric_at(Geometry.H2R, (1, 1, 0, 0)), np.eye(3))

    def test_s2r_scaling(self):
        # at (2, 0, 0) the denominator is 4
        assert np.allclose(metric_at(Geometry.S2R, (1, 2, 0, 0)), np.eye(3) / 4)

    def test_rejects_non_member(self):
        with pytest.raises(DomainError):
            metric_at(Geometry.H2R, (1, 1, 2, 0))

    @pytest.mark.parametrize("kind, p", [
        (Geometry.S2R, (1e-170, 1e-170, 0.0)), (Geometry.S2R, (1e200, 1.0, 0.0)),
        (Geometry.H2R, (2e-170, 1e-170, 0.0)), (Geometry.H2R, (1e200, 1e199, 0.0))])
    def test_members_whose_metric_leaves_double_range(self, kind, p):
        """The entries scale as 1/|p|^2: beyond about 1e+-154 they overflow
        or vanish, where a member's metric is positive definite."""
        with pytest.raises(DomainError, match="not representable in double precision"):
            metric_at(kind, p)

    @BOTH
    def test_symmetric_positive_definite(self, kind, rng):
        for _ in range(200):
            p = random_point(kind, rng)
            g = metric_at(kind, p)
            assert np.allclose(g, g.T, rtol=1e-12)
            eigs = np.linalg.eigvalsh(g)
            assert np.all(eigs > 0)
            assert eigs.min() / eigs.max() > 1e-12

    @BOTH
    def test_matches_the_scalar_formula_bit_for_bit(self, kind, rng):
        """``metric_at`` runs the array kernel ``core._metric``; its values are
        those of the scalar formula the kernel replaced."""
        def scalar_formula(p):
            x, y, z = p
            if kind is Geometry.S2R:
                return np.eye(3) / (x * x + y * y + z * z)
            q = x * x - y * y - z * z
            g = np.array([
                [x * x + y * y + z * z, -2.0 * x * y, -2.0 * x * z],
                [-2.0 * x * y, x * x + y * y - z * z, 2.0 * y * z],
                [-2.0 * x * z, 2.0 * y * z, x * x - y * y + z * z],
            ])
            return g / (q * q)

        points = [random_point(kind, rng, tau_max=6.0) for _ in range(500)]
        for p in points:
            assert np.array_equal(metric_at(kind, p), scalar_formula(p))
        batch = _metric(kind, *np.array(points).T)
        assert batch.shape == (500, 3, 3)
        assert np.array_equal(batch, [scalar_formula(p) for p in points])
        # a grid of points, and the complex batch of the complex step
        for grid in (np.array(points).reshape(20, 25, 3), points[0] + 1j * 1e-20 * np.eye(3)):
            batch = _metric(kind, *np.moveaxis(grid, -1, 0))
            assert batch.shape == grid.shape + (3,)
            assert np.array_equal(batch.reshape(-1, 3, 3),
                                  [scalar_formula(p) for p in grid.reshape(-1, 3)])


class TestIntrinsicChart:
    def test_s2r_base(self):
        assert np.allclose(to_model(Geometry.S2R, 0, 0, 0), [1, 0, 0])

    def test_h2r_fibre(self):
        assert np.allclose(to_model(Geometry.H2R, 1, 0, 0), [math.e, 0, 0])

    def test_s2r_quarter_turn(self):
        assert np.allclose(to_model(Geometry.S2R, 0, math.pi / 2, 0), [0, 1, 0], atol=1e-15)

    @BOTH
    def test_images_are_members(self, kind, rng):
        for _ in range(200):
            t = rng.uniform(-2, 2)
            c1 = rng.uniform(-math.pi, math.pi) if kind is Geometry.S2R else rng.uniform(0, 3)
            c2 = rng.uniform(-math.pi / 2, math.pi / 2) if kind is Geometry.S2R \
                else rng.uniform(-math.pi, math.pi)
            assert contains(kind, to_model(kind, t, c1, c2))

    @BOTH
    def test_arrays_map_each_column_like_a_scalar_call(self, kind, rng):
        t = rng.uniform(-2, 2, size=50)
        c1 = rng.uniform(-math.pi, math.pi, size=50) if kind is Geometry.S2R \
            else rng.uniform(0, 3, size=50)
        c2 = rng.uniform(-math.pi / 2, math.pi / 2, size=50)
        points = to_model(kind, t, c1, c2)
        assert points.shape == (50, 3)
        for p, coords in zip(points, zip(t, c1, c2)):
            single = to_model(kind, *coords)
            assert single.shape == (3,)
            assert np.abs(p - single).max() <= 1e-15 * np.abs(single).max()
        assert to_model(kind, t.reshape(5, 10), c1.reshape(5, 10), 0.0).shape == (5, 10, 3)

    @pytest.mark.parametrize("kind, coords", [
        (Geometry.S2R, (800.0, 0.0, 0.0)),      # e^t overflows: [inf, nan, nan]
        (Geometry.S2R, (-800.0, 0.3, 0.2)),     # e^t underflows to the centre
        (Geometry.H2R, (0.0, 800.0, 0.3)),      # cosh and sinh overflow
        (Geometry.H2R, (0.0, 40.0, 0.0))])      # cosh r and sinh r round equal: the cone
    def test_unrepresentable_images_are_domain_errors(self, kind, coords):
        with pytest.raises(DomainError, match="not representable in double precision"):
            to_model(kind, *coords)

    @BOTH
    def test_first_unrepresentable_column_is_named(self, kind):
        t = np.array([0.0, 0.5, 900.0, 1000.0])
        with pytest.raises(DomainError, match=r"\(900.0, 0.2, 0.1\)"):
            to_model(kind, t, np.full(4, 0.2), np.full(4, 0.1))

    @BOTH
    def test_pullback_matches_intrinsic_form(self, kind, rng):
        """J^T g J along the intrinsic chart equals the product form:
        diag(1, cos^2 theta, 1) for S2xR, diag(1, 1, sinh^2 r) for H2xR."""
        h = 1e-6
        for _ in range(100):
            t = rng.uniform(-1.5, 1.5)
            if kind is Geometry.S2R:
                c1 = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
                c2 = rng.uniform(-math.pi / 2 + 0.1, math.pi / 2 - 0.1)
                expected = np.diag([1.0, math.cos(c2) ** 2, 1.0])
            else:
                c1 = rng.uniform(0.05, 2.5)
                c2 = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
                expected = np.diag([1.0, 1.0, math.sinh(c1) ** 2])
            coords = np.array([t, c1, c2])
            jac = np.empty((3, 3))
            for k in range(3):
                step = np.zeros(3)
                step[k] = h
                jac[:, k] = (to_model(kind, *(coords + step))
                             - to_model(kind, *(coords - step))) / (2 * h)
            g = metric_at(kind, to_model(kind, *coords))
            pulled = jac.T @ g @ jac
            assert np.abs(pulled - expected).max() < 1e-6
