import inspect
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    _hypot,
    _metric,
    _point,
    _scaled_norm,
    _split,
    require_member,
)
from prodgeo.verification import SuiteResult
from conftest import BOTH, random_point


#: every public entry point that takes a geometry, with other arguments
#: valid in both, so only the geometry can fail
TAKES_A_GEOMETRY = {
    "contains": lambda kind: contains(kind, (2.0, 1.0, 0.0)),
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

    @pytest.mark.parametrize("coords", [[1j, 0, 0], np.array([2 + 5j, 1, 0]),
                                        [np.complex128(2 + 5j), 1, 0], {1, 2, 3}, [1, 2, "x"],
                                        [1, 2, "3"], np.array(["1", "2", "3"]), [b"1", 2, 3],
                                        [Fraction(1), 2, "3"]],
                             ids=["complex", "complex-array", "complex-scalar", "set", "text",
                                  "numeric-text", "text-array", "bytes", "text-among-objects"])
    def test_non_numeric_coordinates_are_domain_error(self, coords):
        message = re.escape(f"coordinates must be real numbers, got {coords!r}")
        with pytest.raises(DomainError, match=message):
            model_point(coords)
        for build in (prodgeo.geodesic_triangle, prodgeo.GeodesicTriangle):
            with pytest.raises(DomainError, match=message):
                build(Geometry.S2R, BASE_POINT, coords, (3.0, -1.0, 0.0))
        assert not contains(Geometry.S2R, coords)

    @pytest.mark.parametrize("coords", [[Fraction(1, 2), 1, 0],
                                        np.array([Fraction(1, 2), 1, 0], dtype=object)],
                             ids=["list", "object-array"])
    def test_object_arrays_of_real_numbers_are_read(self, coords):
        assert model_point(coords).tolist() == [0.5, 1.0, 0.0]
        assert contains(Geometry.S2R, coords)

    @pytest.mark.parametrize("coords", [[math.nan, 1, 0, 0], (math.nan, 1.0, 0.0, 0.0),
                                        np.array([math.nan, 1.0, 0.0, 0.0])],
                             ids=["list", "floats", "array"])
    def test_nan_weight_is_domain_error(self, coords):
        with pytest.raises(DomainError, match="x0 must be positive, got nan"):
            model_point(coords)
        with pytest.raises(DomainError, match="x0 must be positive, got nan"):
            prodgeo.geodesic_triangle(Geometry.H2R, BASE_POINT, coords, (3.0, -1.0, 0.0))
        assert not contains(Geometry.H2R, coords)

    @pytest.mark.parametrize("coords, message", [
        ((0, 1, 0, 0), "homogeneous coordinate x0 must be positive, got 0.0"),
        ((-1.0, 1.0, 0.0, 0.0), "homogeneous coordinate x0 must be positive, got -1.0"),
        ((1.0, 2.0), "expected 3 or 4 coordinates, got shape (2,)"),
        ([1.0, 2.0, 3.0, 4.0, 5.0], "expected 3 or 4 coordinates, got shape (5,)"),
        (np.ones((1, 3)), "expected 3 or 4 coordinates, got shape (1, 3)"),
        (2.0, "expected 3 or 4 coordinates, got shape ()"),
        ((10**400, 0, 0), "coordinates must be within double range")])
    def test_rejected_alike_whatever_the_type(self, coords, message):
        """Floats, ints, lists and arrays of one bad point give one message."""
        for form in (coords, np.asarray(coords), np.asarray(coords).tolist()):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                model_point(form)

    @pytest.mark.parametrize("coords", [(10**400, 0, 0), (1.0, -10**400, 0.0), (2, 10**400, 0, 0),
                                        (2**1024 - 2**970, 0, 0), [Fraction(10**400), 1, 0]],
                             ids=["int", "among-floats", "homogeneous", "rounds-up", "fraction"])
    def test_numbers_beyond_double_range_are_domain_error(self, coords):
        """An int or a fraction that no double holds is a DomainError, not
        the OverflowError of its conversion, and not a member."""
        with pytest.raises(DomainError, match="^coordinates must be within double range$"):
            model_point(coords)
        with pytest.raises(DomainError, match="^coordinates must be within double range$"):
            prodgeo.geodesic_triangle(Geometry.S2R, (1.0, 0.0, 0.0), coords, (0.0, 1.0, 0.0))
        assert not contains(Geometry.S2R, coords)

    def test_ints_are_read_as_numpy_reads_them(self):
        """Ints, alone or among floats, in 3- and 4-tuples, are read with no
        numpy into the doubles that ``np.asarray(...).astype(float)`` gives,
        to the bit (numpy's int64 and object arrays, and float arrays of ints
        among floats), or rejected alike (x0 not > 0)."""
        def read(coords):
            try:
                return [c.hex() for c in _point(coords)]
            except DomainError as error:
                return str(error)

        rng = random.Random(25)
        whole = [0, 1, -7, 2**53 + 1, 2**53 + 3, 2**63 - 1, 2**63, -(2**63), 2**64 - 1, 2**64 + 1,
                 3**45, -(10**30) - 1, 2**1023 + 2**970]
        for _ in range(400):
            coords = tuple(rng.choice([rng.choice(whole), rng.getrandbits(80) - 2**79,
                                       rng.randint(-10**6, 10**6), rng.uniform(-1e3, 1e3)])
                           for _ in range(rng.choice((3, 4))))
            assert read(coords) == read(np.asarray(coords).astype(float).tolist()), coords

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
            one_norm, one_inside = _scaled_norm(kind, tuple(p.tolist()))
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
    quarters where it could overflow, so nothing leaves double range, and
    within 2^-20 (relative) of the cone Q rounded once from exact squares;
    none of the random draws below lies there."""

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
            norm = _fibre_norm(Geometry.H2R, tuple(p.tolist()))
            assert 0.0 < norm < math.inf
            if plain_finite:
                assert norm == plain_norm

    @BOTH
    @pytest.mark.filterwarnings("error")
    def test_fibre_norm_keeps_the_size_where_q_leaves_double_range(self, kind):
        """Q squared in floats is 0 at |p| = 1e-200 and inf at 1e200, with no
        warning, where the split's sqrt(Q) (``_fibre_norm``) keeps the point's size."""
        for x, q in ((1e-200, 0.0), (1e200, math.inf)):
            assert contains(kind, (x, 0.0, 0.0))
            assert x * x == q
            assert _fibre_norm(kind, (x, 0.0, 0.0)) == x

    @BOTH
    def test_split_is_one_point_in_floats(self, kind):
        """(f, [sx, sy, sz]) of a float triple: the fibre height log sqrt(Q)
        and p / sqrt(Q), from sqrt(Q) as a float."""
        p = (2.0, 1.5, 1.0)
        f, s = _split(kind, p)
        assert type(_fibre_norm(kind, p)) is float and type(f) is float
        assert type(s) is list and [type(c) for c in s] == [float] * 3
        norm = math.sqrt(p[0] * p[0] + kind.curvature * (p[1] * p[1] + p[2] * p[2]))
        assert f == pytest.approx(math.log(norm), rel=1e-15)
        assert s == pytest.approx([c / norm for c in p], rel=1e-15)

    def test_h2r_near_the_cone_against_fifty_digits(self):
        """2,000 seeded points 1 to 5 ulps inside the cone, by the model's
        own spread r (``_hypot``), of sizes 1e-300 to 1e300: sqrt(Q)
        within 1.6e-16 (relative) of its 50-digit value, measured, where
        the float product, whose x - r is mostly the rounding of r, is off
        by up to 43%."""
        import mpmath

        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(2000):
            phi, spread = rng.uniform(-math.pi, math.pi), 10.0 ** rng.uniform(-300, 300)
            y, z = spread * math.cos(phi), spread * math.sin(phi)
            x = _hypot(y, z)
            for _ in range(int(rng.integers(1, 6))):
                x = math.nextafter(x, math.inf)
            with mpmath.workdps(50):
                exact = mpmath.sqrt(mpmath.mpf(x) ** 2 - mpmath.mpf(y) ** 2 - mpmath.mpf(z) ** 2)
                worst = max(worst, float(abs(_fibre_norm(Geometry.H2R, (x, y, z)) - exact) / exact))
        assert worst <= 2.5e-16

    def test_h2r_member_near_the_largest_double(self):
        """x + r = 2.5e308 overflows; Q = 1.25e616 has the finite root
        1.118e308, fibre height 709.3 (50 digits: tau 709.308236899768)."""
        norm = _fibre_norm(Geometry.H2R, (1.5e308, 1e308, 0.0))
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
    @pytest.mark.parametrize("coords, message", [
        ((1j, 0.0, 0.0), "intrinsic coordinates must be real numbers, got 1j"),
        ((0.0, "0.5", 0.0), "intrinsic coordinates must be real numbers, got '0.5'"),
        ((0.0, 0.5, None), "intrinsic coordinates must be real numbers, got None"),
        ((10**400, 0.0, 0.0), "intrinsic coordinates must be within double range"),
        ((np.zeros(2), np.zeros(3), 0.0), "of one broadcast shape"),
        ((np.array([1j]), 0.0, 0.0), "intrinsic coordinates must be real numbers, got array"),
        ((np.array(["1"]), 0.0, 0.0), "intrinsic coordinates must be real numbers, got array"),
        (([2**70, None], 0.0, 0.0),
         "intrinsic coordinates must be real numbers, got [1180591620717411303424, None]"),
        (([2**70, 1j], 0.0, 0.0),
         "intrinsic coordinates must be real numbers, got [1180591620717411303424, 1j]"),
        (([2**70, "1"], 0.0, 0.0),
         "intrinsic coordinates must be real numbers, got [1180591620717411303424, '1']"),
        (([2**70, 10**400], 0.0, 0.0), "intrinsic coordinates must be within double range"),
        (([[0.0, 1.0], [2.0]], 0.0, 0.0), "intrinsic coordinates must be real numbers, got [[")])
    def test_coordinates_are_read_at_the_boundary(self, kind, coords, message):
        """A complex number was once mapped to a complex point, and text,
        None, 10**400 and shapes that do not broadcast raised raw errors.
        Each coordinate is read by ``core._reals``, as every caller array is."""
        with pytest.raises(DomainError, match=re.escape(message)):
            to_model(kind, *coords)

    @BOTH
    def test_coordinates_broadcast_and_read_as_floats(self, kind):
        """A number beside arrays broadcasts (an H2xR number r once failed to
        stack); ints and bools read as floats do, and 2**70 is a real number, also
        in an array, which numpy holds as objects (such an array was once rejected)."""
        alpha = np.array([0.0, 0.5, 1.0, 2.0])
        points = to_model(kind, 0.25, 0.5, alpha)
        assert points.shape == (4, 3)
        for p, a in zip(points, alpha):
            assert np.array_equal(p, to_model(kind, 0.25, 0.5, float(a)))
        assert np.array_equal(to_model(kind, True, np.int8(1), [0]), to_model(kind, 1.0, 1.0, [0.0]))
        assert to_model(kind, 0.0, 0.5, 2**70).dtype == np.float64
        for column in ([2**70], [1, 2**70], np.array([[2**70], [3]], dtype=object)):
            assert np.array_equal(to_model(kind, 0.0, 0.5, column),
                                  to_model(kind, 0.0, 0.5, np.array(column, dtype=float)))

    def test_float_arrays_are_not_copied(self, monkeypatch):
        """``integrate_geodesic`` passes its float64 state rows: they are read as they are."""
        seen, broadcast = [], np.broadcast_arrays
        monkeypatch.setattr(np, "broadcast_arrays", lambda *a: seen.extend(a) or broadcast(*a))
        coords = tuple(np.linspace(0.1, 0.5, 12).reshape(3, 4))
        to_model(Geometry.H2R, *coords)
        assert len(seen) == 3 and all(a is b for a, b in zip(seen, coords))

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


def _fresh(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter on this source tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestNumpyOnFirstUse:
    """``core.np`` is the package's numpy handle; numpy loads on first array use."""

    def test_triangle_and_tables_never_load_numpy(self):
        out = _fresh("""
import contextlib, io, sys
from prodgeo.cli import main
runs = [["triangle", "--geometry", "s2r", "--a2", "3,-2,1", "--a3", "2,1,0"],
        ["triangle", "--geometry", "h2r", "--a1", "2,2,0,0", "--a2", "2,1.5,1", "--a3", "3,-1,0"],
        ["tables", "--format", "json"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes, "numpy._core" in sys.modules, [m for m in sys.modules if m.startswith("numpy.")])
""")
        assert out == "[0, 0, 0] False []"

    def test_a_loaded_numpy_is_the_handle(self):
        assert _fresh("import numpy, prodgeo.core; print(prodgeo.core.np is numpy)") == "True"

    def test_the_first_array_use_loads_numpy(self):
        out = _fresh("""
import contextlib, io, sys
from prodgeo import core
from prodgeo.cli import main
def loaded():
    return any(m.startswith("numpy.") for m in sys.modules)
before = loaded()
with contextlib.redirect_stdout(io.StringIO()) as shown:
    code = main(["geodesic", "--geometry", "h2r", "--to", "2,1,0", "--format", "json"])
import numpy
print(before, code, loaded(), core.np is numpy, len(shown.getvalue().splitlines()))
""")
        assert out == "False 0 True True 1"

    def test_base_point_is_built_once_on_first_access(self):
        out = _fresh("""
import numpy, prodgeo
from prodgeo import core
before = "BASE_POINT" in vars(prodgeo) or "BASE_POINT" in vars(core)
base = prodgeo.BASE_POINT
print(before, type(base) is numpy.ndarray, base.tolist(), base is core.BASE_POINT,
      vars(prodgeo)["BASE_POINT"] is vars(core)["BASE_POINT"] is base)
""")
        assert out == "False True [1.0, 0.0, 0.0] True True"


class TestModulesOnFirstUse:
    """``isometries``, ``oracle``, ``sweep`` and ``verification`` are registered
    lazily by the package; a module whose import has run is a plain module, and
    reading its type (unlike any attribute access or ``isinstance``) runs nothing."""

    LAZY = ("isometries", "oracle", "sweep", "verification")

    def test_triangle_and_tables_run_none_of_them(self):
        out = _fresh(f"""
import contextlib, io, sys, types
from prodgeo.cli import main
runs = [["triangle", "--geometry", "s2r", "--a2", "3,-2,1", "--a3", "2,1,0"],
        ["triangle", "--geometry", "h2r", "--a1", "2,2,0,0", "--a2", "2,1.5,1", "--a3", "3,-1,0"],
        ["tables", "--format", "json"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes, [m for m in {self.LAZY} if type(sys.modules["prodgeo." + m]) is types.ModuleType],
      "prodgeo._dop853" in sys.modules)
""")
        assert out == "[0, 0, 0] [] False"

    @pytest.mark.parametrize("argv, needed", [
        (["geodesic", "--geometry", "h2r", "--to", "2,1,0"], []),
        (["sweep", "--geometry", "s2r", "--a2", "3,-2,1", "--ray", "2,1,0", "--samples", "8"],
         ["sweep"]),
        (["verify", "--trials", "2"], ["isometries", "oracle", "verification", "_dop853"])])
    def test_a_command_runs_the_modules_it_needs(self, argv, needed):
        out = _fresh(f"""
import contextlib, io, sys, types
from prodgeo.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(code, [m for m in {(*self.LAZY, "_dop853")}
             if type(sys.modules.get("prodgeo." + m)) is types.ModuleType])
""")
        assert out == f"0 {needed}"

    def test_every_public_name_is_its_defining_module_object(self):
        out = _fresh("""
import importlib, prodgeo
namespace = {}
exec("from prodgeo import *", namespace)
wrong = []
for name in prodgeo.__all__:
    value = getattr(prodgeo, name)
    owner = importlib.import_module(
        {"BASE_POINT": "prodgeo.core", "DEFAULT": "prodgeo.tolerances"}.get(name) or value.__module__)
    if not (getattr(owner, name) is value is namespace[name] is vars(prodgeo)[name]):
        wrong.append(name)
print(wrong, set(prodgeo.__all__) <= set(dir(prodgeo)))
""")
        assert out == "[] True"

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'to_orgin'"):
            prodgeo.to_orgin


class TestNoDataclassesAtStartUp:
    """The package's records are plain classes and a named tuple, so a
    process loads neither ``dataclasses`` nor the ``inspect`` it imports."""

    def test_triangle_and_tables_load_neither(self):
        out = _fresh("""
import contextlib, io, sys
from prodgeo.cli import main
runs = [["triangle", "--geometry", "s2r", "--a2", "3,-2,1", "--a3", "2,1,0"],
        ["triangle", "--geometry", "h2r", "--a1", "2,2,0,0", "--a2", "2,1.5,1", "--a3", "3,-1,0"],
        ["tables", "--format", "json"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes, [name for name in ("dataclasses", "inspect") if name in sys.modules])
""")
        assert out == "[0, 0, 0] []"


class TestRecords:
    """``GeodesicTriangle``, ``SweepSpec`` and ``SweepResult`` are read-only
    and equal only to themselves, ``Tolerances`` a named tuple and a
    ``SuiteResult`` a mutable record equal field by field."""

    @staticmethod
    def _records():
        tri = prodgeo.geodesic_triangle(Geometry.S2R, (1.0, 0.0, 0.0), (2.0, 1.0, 0.0),
                                        (3.0, -1.0, 0.5))
        spec = prodgeo.SweepSpec(Geometry.H2R, (2.0, 1.5, 1.0), (3.0, -1.0, 0.0), samples=16)
        return tri, spec, prodgeo.evaluate(spec)

    def test_assigning_or_deleting_an_attribute_is_attribute_error(self):
        tri, spec, result = self._records()
        total = prodgeo.angle_sum(tri).total  # a cached_property still caches
        assert "_angles" in vars(tri)
        for record, name in ((prodgeo.DEFAULT, "angle_sum"), (tri, "a1"), (tri, "_angles"),
                             (spec, "t_min"), (spec, "_ray"), (result, "t_extremum")):
            before = getattr(record, name)
            for attempt in (lambda: setattr(record, name, 0.0), lambda: delattr(record, name),
                            lambda: setattr(record, "extra", 0.0)):
                with pytest.raises(AttributeError):
                    attempt()
            assert getattr(record, name) is before
            assert not hasattr(record, "extra")
        assert prodgeo.angle_sum(tri).total == total

    def test_triangles_sweeps_and_results_compare_by_identity(self):
        first, second = self._records(), self._records()
        for one, other in zip(first, second):
            assert one == one and one != other
            assert hash(one) == object.__hash__(one)

    def test_tolerances_are_a_named_tuple(self):
        assert prodgeo.Tolerances() == prodgeo.DEFAULT
        varied = prodgeo.Tolerances(angle_sum=1e-6, ode_atol=1e-10)
        assert (varied.angle_sum, varied.ode_atol, varied.roundtrip) == (1e-6, 1e-10, 1e-9)
        assert prodgeo.DEFAULT._replace(angle_sum=1e-6, ode_atol=1e-10) == varied != prodgeo.DEFAULT
        assert prodgeo.Tolerances(*prodgeo.DEFAULT) == prodgeo.DEFAULT

    def test_suite_results_compare_field_by_field(self):
        one, other = (SuiteResult("roundtrip", Geometry.S2R, 3) for _ in range(2))
        assert one == other and one.failures == [] and one.passed
        one.failures.append("seed 1: off by 1e-3")
        assert other.failures == [] and one != other and not one.passed
        assert SuiteResult("roundtrip", Geometry.S2R, 3, ["seed 1: off by 1e-3"]) == one
        assert one != SuiteResult("roundtrip", Geometry.H2R, 3, one.failures)
        assert one != ("roundtrip", Geometry.S2R, 3, one.failures)
        with pytest.raises(TypeError):
            hash(one)

    def test_repr_names_the_fields(self):
        tri, spec, result = self._records()
        assert repr(tri) == ("GeodesicTriangle(kind=<Geometry.S2R: 's2r'>, a1=(1.0, 0.0, 0.0), "
                             "a2=(2.0, 1.0, 0.0), a3=(3.0, -1.0, 0.5))")
        assert repr(spec) == ("SweepSpec(kind=<Geometry.H2R: 'h2r'>, a2=array([2. , 1.5, 1. ]), "
                              "ray=array([ 3., -1.,  0.]), t_min=0.001, t_max=5.0, samples=16)")
        assert repr(result).startswith("SweepResult(series=array(")
        assert "interior=True)" in repr(result) and "spec" not in repr(result)
        assert repr(SuiteResult("trichotomy", Geometry.H2R, 5)) == (
            "SuiteResult(name='trichotomy', kind=<Geometry.H2R: 'h2r'>, trials=5, failures=[])")

    @pytest.mark.parametrize("record, parameters", [
        (prodgeo.GeodesicTriangle, [("kind", None), ("a1", None), ("a2", None), ("a3", None)]),
        (prodgeo.SweepSpec, [("kind", None), ("a2", None), ("ray", None), ("t_min", 1e-3),
                             ("t_max", 5.0), ("samples", 512)]),
        (prodgeo.SweepResult, [("series", None), ("t_extremum", None), ("s_extremum", None),
                               ("extremum_kind", None), ("interior", None), ("spec", None)]),
        (SuiteResult, [("name", None), ("kind", None), ("trials", None), ("failures", None)])])
    def test_constructor_parameters(self, record, parameters):
        signature = inspect.signature(record).parameters.values()
        assert [(p.name, None if p.default is p.empty else p.default)
                for p in signature] == parameters
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature)
