import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeo import DomainError, Geometry, contains, metric_at, model_point, to_model
from prodgeo.core import _metric
from conftest import BOTH, random_point


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
        expected = (x * x - y * y - z * z > 0) and x > 0
        assert contains(Geometry.H2R, (x, y, z)) == expected


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
