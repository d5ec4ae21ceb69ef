import math
import warnings
from re import escape as re_escape

import numpy as np
import pytest

import mp_oracle
from prodgeo import (
    BASE_POINT,
    DegenerateError,
    DomainError,
    Geometry,
    GeometryError,
    PrecondError,
    angle_sum,
    apply_isometry,
    distance,
    fibre_translation,
    geodesic_triangle,
    metric_at,
    reference_image_base,
    reference_image_third,
    reference_images_plane_mover,
    rotation_x,
    rotation_z,
    to_model,
    to_origin,
    vertex_angle,
)
from prodgeo.isometries import transcribed_normalizer_s2r
from prodgeo.tolerances import DEFAULT
from conftest import BOTH, random_point

S14 = math.sqrt(14.0)


class TestFibreTranslation:
    def test_s2r_axis_point(self):
        m = fibre_translation(Geometry.S2R, (1, 2, 0, 0))
        assert np.allclose(apply_isometry(m, (2, 0, 0)), BASE_POINT)

    def test_s2r_general_point(self):
        m = fibre_translation(Geometry.S2R, (1, 3, -2, 1))
        img = apply_isometry(m, (3, -2, 1))
        assert np.allclose(img, np.array([3, -2, 1]) / S14)

    def test_h2r_general_point(self):
        # fibre quadratic form 4 - 9/4 - 1 = 3/4
        m = fibre_translation(Geometry.H2R, (1, 2, 1.5, 1))
        img = apply_isometry(m, (2, 1.5, 1))
        assert np.allclose(img, np.array([2, 1.5, 1]) / math.sqrt(0.75))

    @pytest.mark.filterwarnings("error")
    def test_member_below_the_double_range_is_domain_error(self):
        # |p| = 5e-324 is a member, but 1/|p| overflows
        with pytest.raises(DomainError, match="not representable in double precision"):
            fibre_translation(Geometry.S2R, (5e-324, 0.0, 0.0))

    @BOTH
    def test_zeroes_the_fibre(self, kind, rng):
        from prodgeo.core import fibre_norm_sq
        for _ in range(50):
            a = random_point(kind, rng)
            img = apply_isometry(fibre_translation(kind, a), a)
            assert fibre_norm_sq(kind, img) == pytest.approx(1.0, abs=1e-12)


class TestRotationX:
    def test_identity_on_axis(self):
        assert np.array_equal(rotation_x(Geometry.S2R, (1, 2, 0, 0)), np.eye(4))

    def test_quarter_rotation(self):
        img = apply_isometry(rotation_x(Geometry.S2R, (1, 0.5, 0, 0.7)), (0.5, 0, 0.7))
        assert np.allclose(img, [0.5, 0.7, 0])

    def test_matches_stated_image(self):
        p = np.array([3, -2, 1]) / S14
        img = apply_isometry(rotation_x(Geometry.S2R, p), p)
        assert np.allclose(img, [3 / S14, math.sqrt(5) / S14, 0])

    @BOTH
    def test_subnormal_spread_is_a_rotation(self, kind):
        """y and z one and two steps of the subnormal grid: the block is
        orthogonal, with cos and sin in the ratio 1 : 2.  hypot rounded their
        spread to 1e-323, and the block (0.5, 1) scaled every other point, so
        ``vertex_angle`` at such an a2 was 2.3666 where ``angle_sum`` gives
        2.4106 (base point, (2, 5e-324, 1e-323), (3, 1.5, 0))."""
        block = rotation_x(kind, (2.0, 5e-324, 1e-323))[2:, 2:]
        assert np.abs(block.T @ block - np.eye(2)).max() <= 2.3e-16
        assert block[1, 0] == pytest.approx(2.0 * block[0, 0], rel=1e-15)
        tri = geodesic_triangle(kind, BASE_POINT, (2.0, 5e-324, 1e-323), (3.0, 1.5, 0.0))
        assert vertex_angle(tri, 2) == pytest.approx(angle_sum(tri).w2, abs=1e-12)


class TestRotationZ:
    def test_identity_at_base(self):
        m = rotation_z(Geometry.S2R, BASE_POINT)
        assert np.allclose(m, np.eye(4))

    def test_s2r_quarter(self):
        m = rotation_z(Geometry.S2R, (1, 0, 1, 0))
        assert np.allclose(apply_isometry(m, (0, 1, 0)), BASE_POINT)

    def test_h2r_boost(self):
        p = (math.cosh(1), math.sinh(1), 0)
        m = rotation_z(Geometry.H2R, p)
        assert np.allclose(apply_isometry(m, p), BASE_POINT)
        # Lorentz block with boost parameter -1
        expected = np.array([[math.cosh(1), -math.sinh(1)],
                             [-math.sinh(1), math.cosh(1)]])
        assert np.allclose(m[1:3, 1:3], expected)

    def test_rejects_off_plane(self):
        with pytest.raises(PrecondError):
            rotation_z(Geometry.S2R, (1, 1, 0, 0.5))

    def test_plane_image_at_the_centre_is_typed(self):
        # z is within the plane tolerance, but (x, y, 0) is the centre E0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError):
                rotation_z(Geometry.S2R, (0, 0, 1e-13))


@pytest.mark.parametrize("a", [(1e-170, 1e-170, 0.0), (1e200, 1.0, 0.0)], ids=["tiny", "huge"])
class TestFactorsAtScale:
    """S2xR members far from unit size: no factor squares a coordinate, so
    none overflows or underflows, and each still does its job."""

    @staticmethod
    def _quietly(factor, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return factor(Geometry.S2R, a)

    def test_to_origin(self, a):
        img = apply_isometry(self._quietly(to_origin, a), a)
        assert np.abs(img - BASE_POINT).max() < 1e-15

    def test_fibre_translation(self, a):
        img = apply_isometry(self._quietly(fibre_translation, a), a)
        assert np.allclose(img, np.array(a) / np.hypot(a[0], a[1]), rtol=1e-15, atol=0)

    def test_rotation_z(self, a):
        img = apply_isometry(self._quietly(rotation_z, a), a)
        assert img[0] == pytest.approx(np.hypot(a[0], a[1]), rel=1e-15)
        assert abs(img[1]) <= 1e-15 * img[0] and img[2] == 0.0


class TestValidateOnce:
    """``distance``, ``to_origin`` and ``fibre_translation`` check a point
    by the guard of its split or fibre norm alone: one guard per point and
    no ``require_member``, with that guard's errors, messages and order."""

    OUTSIDE = {Geometry.S2R: (0.0, 0.0, 0.0), Geometry.H2R: (1.0, 5.0, 0.0)}

    @BOTH
    def test_one_guard_per_point(self, kind, member_checks, monkeypatch):
        from prodgeo import core
        guards = []
        true_guard = core._guard_member

        def guard(*args):
            guards.append(1)
            return true_guard(*args)

        monkeypatch.setattr(core, "_guard_member", guard)
        p, q = (2.0, 1.0, 0.5), (3.0, -1.0, 0.2)
        for call, count in ((lambda: distance(kind, p, q), 2), (lambda: distance(kind, p, p), 1),
                            (lambda: to_origin(kind, p), 1),
                            (lambda: fibre_translation(kind, p), 1)):
            guards.clear()
            call()
            assert len(guards) == count
        assert member_checks == []

    @BOTH
    def test_errors_keep_their_type_message_and_order(self, kind):
        outside = self.OUTSIDE[kind]
        named = re_escape(f"point {outside} is not in the {kind.value} model")
        for call in (lambda: to_origin(kind, outside), lambda: fibre_translation(kind, outside),
                     lambda: distance(kind, outside, (1.0, 2.0)),  # p1 before p2 is read
                     lambda: distance(kind, BASE_POINT, outside)):
            with pytest.raises(DomainError, match=f"^{named}$"):
                call()
        with pytest.raises(DomainError, match="expected 3 or 4 coordinates"):
            distance(kind, BASE_POINT, (1.0, 2.0))
        for call in (lambda: to_origin(kind, (0.0, 1.0, 0.0, 0.0)),
                     lambda: fibre_translation(kind, (-1.0, 1.0, 0.0, 0.0)),
                     lambda: distance(kind, (0.0, 1.0, 0.0, 0.0), outside)):
            with pytest.raises(DomainError, match="x0 must be positive"):
                call()
        for call in (lambda: to_origin(kind.value, BASE_POINT),
                     lambda: fibre_translation(kind.value, BASE_POINT),
                     lambda: distance(kind.value, BASE_POINT, (1.0, 2.0))):
            with pytest.raises(DomainError, match="unknown geometry"):
                call()


class TestToOrigin:
    @pytest.mark.parametrize("a", [
        (239011734.47833204, 224043511.42754248, 83253313.48094998),
        (1.9488705132247364, -1.2680891067860605, 1.4798805000970106),
    ], ids=["planar-image", "fibre-image"])
    def test_deep_cone_image_leaving_model_is_domain_error(self, a):
        # a is a member, but Q is not resolved in double precision this deep
        # in the cone (the composition's intermediate images, which the ids
        # name, would round out of it): the normaliser misses the base point
        with pytest.raises(DomainError):
            to_origin(Geometry.H2R, a)

    def test_overflowing_factor_is_domain_error_without_warning(self):
        # a member of size 1e-300 one ulp inside the cone: 1/sqrt(Q) times
        # the boost overflows, so no double matrix is its normaliser
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not representable"):
                to_origin(Geometry.H2R, (1e-300, 1e-300 * (1 - 2 ** -52), 0.0))

    @pytest.mark.parametrize("w", [1, 5, 9, 10, 11, 12, 13, 14, 15, 16])
    def test_contract_deep_in_the_h2r_cone(self, w):
        """Seeded H2xR anchors at surface arc w: ``to_origin`` returns a
        normaliser within 1e-7 of the 50-digit one, whose image of the anchor
        is the base point to ``DEFAULT.isometry``, or raises DomainError; no
        other error, and no warning."""
        rng = np.random.default_rng(1000 + w)
        returned = 0
        for _ in range(40):
            a = to_model(Geometry.H2R, rng.uniform(-3.0, 3.0), w, rng.uniform(-math.pi, math.pi))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    m = to_origin(Geometry.H2R, a)
                except DomainError:
                    continue
            returned += 1
            assert np.abs(apply_isometry(m, a) - BASE_POINT).max() <= DEFAULT.isometry
            exact = np.array(mp_oracle.normaliser(Geometry.H2R, a))
            assert np.abs(m - exact).max() <= 1e-7 * np.abs(exact).max()
        if w <= 5:  # far from the cone every normaliser is representable
            assert returned == 40

    @BOTH
    def test_defining_property(self, kind, rng):
        for _ in range(1000):
            a = random_point(kind, rng)
            img = apply_isometry(to_origin(kind, a), a)
            assert np.abs(img - BASE_POINT).max() < 1e-10

    def test_identity_at_base(self):
        for kind in Geometry:
            assert np.allclose(to_origin(kind, BASE_POINT), np.eye(4))

    def test_first_row_and_column(self):
        m = to_origin(Geometry.S2R, (1, 3, -2, 1))
        assert np.allclose(m[0], [1, 0, 0, 0])
        assert np.allclose(m[:, 0], [1, 0, 0, 0])

    @BOTH
    def test_positive_spatial_determinant(self, kind, rng):
        for _ in range(50):
            m = to_origin(kind, random_point(kind, rng))
            assert np.linalg.det(m[1:, 1:]) > 0

    def test_s2r_base_image_example(self):
        m = to_origin(Geometry.S2R, (1, 3, -2, 1))
        img = apply_isometry(m, BASE_POINT)
        assert np.allclose(img, [3 / 14, 2 / 14, -1 / 14], atol=1e-15)

    def test_h2r_third_image_example(self):
        m = to_origin(Geometry.H2R, (1, 2, 1.5, 1))
        img = apply_isometry(m, (3, -1, 0))
        assert np.allclose(img, [10.0, -8.20144632, -4.69783052], atol=1e-8)

    @BOTH
    def test_metric_form_preserved(self, kind, rng):
        """The executable meaning of 'isometry': quadratic-form pullback."""
        for _ in range(200):
            a, p = random_point(kind, rng), random_point(kind, rng)
            m = to_origin(kind, a)
            h = rng.normal(size=3)
            form = h @ metric_at(kind, p) @ h
            h_img = h @ m[1:, 1:]
            form_img = h_img @ metric_at(kind, apply_isometry(m, p)) @ h_img
            assert abs(form - form_img) <= 1e-8 * max(abs(form), 1.0)

    @BOTH
    def test_distance_invariance(self, kind, rng):
        for _ in range(200):
            a, p, q = (random_point(kind, rng) for _ in range(3))
            m = to_origin(kind, a)
            d0 = distance(kind, p, q)
            d1 = distance(kind, apply_isometry(m, p), apply_isometry(m, q))
            assert abs(d0 - d1) < 1e-8


class TestApply:
    def test_identity(self, rng):
        p = random_point(Geometry.S2R, rng)
        assert np.array_equal(apply_isometry(np.eye(4), p), p)

    def test_renormalises_weight(self):
        m = np.diag([2.0, 1.0, 1.0, 1.0])
        assert np.allclose(apply_isometry(m, (4, 2, 0)), [2, 1, 0])

    def test_nonpositive_weight_raises(self):
        m = np.diag([-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DegenerateError):
            apply_isometry(m, (1, 0, 0))


class TestClosedFormImages:
    """The hand-derived vertex images agree with the composed matrices."""

    @BOTH
    def test_base_image(self, kind, rng):
        for _ in range(100):
            a = random_point(kind, rng)
            composed = apply_isometry(to_origin(kind, a), BASE_POINT)
            assert np.abs(composed - reference_image_base(kind, a)).max() < 1e-9

    @BOTH
    def test_third_image_plane_vertex(self, kind, rng):
        for _ in range(100):
            mover = random_point(kind, rng)
            if math.hypot(mover[1], mover[2]) < 1e-6:
                continue
            other = random_point(kind, rng)
            other[2] = 0.0  # closed form assumes the moved vertex in [x, y]
            if kind is Geometry.H2R and other[0] ** 2 - other[1] ** 2 <= 1e-9:
                continue
            composed = apply_isometry(to_origin(kind, mover), other)
            closed = reference_image_third(kind, mover, other)
            scale = max(1.0, np.abs(closed).max())
            assert np.abs(composed - closed).max() < 1e-9 * scale

    @BOTH
    def test_plane_mover_images(self, kind, rng):
        for _ in range(100):
            mover = random_point(kind, rng)
            mover[2] = 0.0
            if kind is Geometry.H2R and mover[0] ** 2 - mover[1] ** 2 <= 1e-9:
                continue
            if np.abs(mover - BASE_POINT).max() < 1e-6:
                continue
            other = random_point(kind, rng)
            move = to_origin(kind, mover)
            base_closed, other_closed = reference_images_plane_mover(kind, mover, other)
            assert np.abs(apply_isometry(move, BASE_POINT) - base_closed).max() < 1e-9
            scale = max(1.0, np.abs(other_closed).max())
            assert np.abs(apply_isometry(move, other) - other_closed).max() < 1e-9 * scale

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("image, args", [
        (reference_image_base, ((1e200, 1.0, 0.0),)),
        (reference_image_third, ((1e200, 1.0, 0.0), (2.0, 1.0, 0.0))),
        (reference_image_third, ((1e150, 1e149, 5e148), (2.0, 1.0, 0.0))),
        (reference_images_plane_mover, ((1e200, 1.0, 0.0), (2.0, 1.0, 3.0))),
        (reference_image_base, ((1e-200, 1e-201, 0.0),)),
        (reference_image_third, ((1e-200, 1e-201, 0.0), (2.0, 1.0, 0.0))),
        (reference_images_plane_mover, ((1e-200, 1e-201, 0.0), (2.0, 1.0, 3.0))),
    ], ids=["base-over", "third-over", "third-cubed-over", "plane-mover-over",
            "base-under", "third-under", "plane-mover-under"])
    def test_squared_forms_out_of_range_are_domain_errors(self, image, args):
        """S2xR members whose squared forms overflow or underflow: the closed
        forms, which square coordinates, raise rather than warn or return
        zeros."""
        with pytest.raises(DomainError, match="not representable in double precision"):
            image(Geometry.S2R, *args)

    def test_reference_image_third_requires_plane(self):
        with pytest.raises(PrecondError):
            reference_image_third(Geometry.S2R, (1, 3, -2, 1), (1, 2, 1, 1))


class TestTranscribedMatrix:
    """The transcribed closed-form normaliser agrees with the composition
    except for the known sign slip in its (3, 2) entry."""

    def test_agreement_outside_slip(self, rng):
        for _ in range(100):
            a = random_point(Geometry.S2R, rng)
            if math.hypot(a[1], a[2]) < 1e-6:
                continue
            composed = to_origin(Geometry.S2R, a)
            printed = transcribed_normalizer_s2r(a)
            mask = np.ones((4, 4), dtype=bool)
            mask[3, 2] = False
            assert np.abs((composed - printed)[mask]).max() < 1e-12

    def test_slip_is_a_sign_flip(self, rng):
        for _ in range(100):
            a = random_point(Geometry.S2R, rng)
            if abs(a[1] * a[2]) < 1e-9:
                continue  # the entry vanishes, nothing to compare
            composed = to_origin(Geometry.S2R, a)
            printed = transcribed_normalizer_s2r(a)
            assert printed[3, 2] == pytest.approx(-composed[3, 2], rel=1e-12)
            # composition is symmetric in the lower-right pair; the
            # transcription is not, and is not an isometry there
            assert composed[2, 3] == pytest.approx(composed[3, 2], rel=1e-12)

    def test_transcription_is_not_orthogonal_under_slip(self):
        a = np.array([3.0, -2.0, 1.0])
        printed = transcribed_normalizer_s2r(a)[1:, 1:]
        gram = printed @ printed.T
        assert abs(gram[1, 2]) > 1e-3  # a real isometry would give 0
