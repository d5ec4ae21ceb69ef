"""Seeded property suites: the machine-checkable invariants of the engine.

Each suite draws deterministic random configurations, checks one family of
invariants, and yields one message per failure with a minimal reproducing
input, which ``run_suite`` collects into a ``SuiteResult``; a run replays
from the printed seed alone.
"""

from __future__ import annotations

import contextlib
import math
import operator

from .core import _BASE, Geometry, _count, _Record, _require_geometry, metric_at, np
from .exceptions import DegenerateError, DomainError
from .geodesics import GeodesicParams, _endpoints, distance, geodesic_params
from .isometries import _frame_angles, apply_isometry, tangent_endpoints, to_origin
from .oracle import integrate_geodesic, integrate_geodesic_cartesian
from .triangles import angle_sum, coplanar_with_center, geodesic_triangle
from .tolerances import DEFAULT

__all__ = ["SuiteResult", "SUITES", "run_suite", "run_all"]

#: sphere-factor arcs this close to the wrap a round are excluded from the
#: roundtrip draw: beyond pi the inverse returns the shorter geodesic
_S2R_WRAP_MARGIN = 1e-3
#: H2xR surface arcs above this value lose the fibre split below 1e-9 in
#: double precision (see geodesic_params); the strict roundtrip draws stay
#: inside the well-conditioned region
_H2R_COND_BOUND = 7.5
_ODE_TRIAL_CAP = 100  #: trials of the ODE suite in ``run_all``; integration is slow


class SuiteResult:
    """One suite's run, equal to another field by field; its ``failures``,
    a new list unless given, are the messages the suite yielded, in order."""

    _fields = ("name", "kind", "trials", "failures")
    __repr__ = _Record.__repr__

    def __init__(self, name: str, kind: Geometry, trials: int, failures: list[str] | None = None):
        self.name, self.kind, self.trials = name, kind, trials
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is SuiteResult else NotImplemented

    @property
    def passed(self) -> bool:
        return not self.failures


def _random_params(kind: Geometry, rng, tau_max: float) -> GeodesicParams:
    while True:
        u = rng.uniform(-math.pi, math.pi)
        v = rng.uniform(-math.pi / 2, math.pi / 2)
        tau = rng.uniform(1e-3, tau_max)
        w = tau * math.cos(v)
        if not (kind is Geometry.S2R and w >= math.pi - _S2R_WRAP_MARGIN
                or kind is Geometry.H2R and w > _H2R_COND_BOUND):
            return GeodesicParams(u, v, tau)


def _random_points(kind: Geometry, rng, n: int, tau_max: float = 3.0) -> np.ndarray:
    """``n`` random geodesic endpoints, (n, 3), from the stream of ``n``
    single draws."""
    return _endpoints(kind, [_random_params(kind, rng, tau_max) for _ in range(n)])


def _random_coplanar_vertices(kind: Geometry, rng):
    """Two extra vertices coplanar with the base point and E0, chosen in
    the half-plane x > 0 so the triangle cannot enclose the centre."""
    psi = rng.uniform(-math.pi, math.pi)
    base, side = np.array(_BASE), np.array([0.0, math.cos(psi), math.sin(psi)])

    def draw():
        while True:
            c1 = rng.uniform(0.1, 2.0)
            c2 = rng.uniform(-0.95, 0.95) * (c1 if kind is Geometry.H2R else 2.0)
            p = c1 * base + c2 * side
            if np.linalg.norm(p - _BASE) > 1e-2:
                return p

    return draw(), draw()


def _triangle_failures(kind: Geometry, trials: int, rng, check):
    """The failures ``check(tri, coplanar)`` yields on ``trials`` random
    triangles, then on ``max(trials // 2, 1)`` coplanar draws, skipping one
    whose vertices coincide; another error building one is a failure."""
    for _ in range(trials):
        a2, a3 = _random_points(kind, rng, 2)
        while not np.linalg.norm(a2 - a3) > 1e-2:
            a2, a3 = _random_points(kind, rng, 2)
        yield from check(geodesic_triangle(kind, _BASE, a2, a3), False)
    for _ in range(max(trials // 2, 1)):
        a2, a3 = _random_coplanar_vertices(kind, rng)
        try:
            tri = geodesic_triangle(kind, _BASE, a2, a3)
        except DegenerateError:  # the draw's vertices are members, so they coincide
            continue
        except Exception as exc:
            yield f"vertices {a2.tolist()}, {a3.tolist()}: {exc}"
            continue
        yield from check(tri, True)


def roundtrip_suite(kind: Geometry, trials: int, rng):
    """geodesic_params inverts geodesic_point to 1e-9 per component."""
    tau_max = 4.0 if kind is Geometry.S2R else 10.0
    params = [_random_params(kind, rng, tau_max) for _ in range(trials)]
    for g, p in zip(params, _endpoints(kind, params)):
        h = geodesic_params(kind, p)
        du = abs(math.remainder(g.u - h.u, 2.0 * math.pi))
        err = max(du, abs(g.v - h.v), abs(g.tau - h.tau))
        if err > DEFAULT.roundtrip:
            yield f"params {tuple(g)} -> {tuple(h)} (err {err:.2e})"


def isometry_suite(kind: Geometry, trials: int, rng):
    """to_origin maps its anchor to the base point, preserves the metric
    form, and leaves pairwise distances unchanged."""
    for _ in range(trials):
        a, p, q = _random_points(kind, rng, 3)
        move = to_origin(kind, a)
        if np.abs(apply_isometry(move, a) - _BASE).max() > DEFAULT.suite_anchor:
            yield f"normaliser of {a.tolist()} misses the base point"
            continue
        h = rng.normal(size=3)
        form = h @ metric_at(kind, p) @ h
        h_img = h @ move[1:, 1:]
        form_img = h_img @ metric_at(kind, apply_isometry(move, p)) @ h_img
        if abs(form - form_img) > DEFAULT.isometry * max(abs(form), 1.0):
            yield f"metric form broken at a={a.tolist()} p={p.tolist()}"
            continue
        if np.linalg.norm(p - q) < 1e-3:
            continue
        d0 = distance(kind, p, q)
        d1 = distance(kind, apply_isometry(move, p), apply_isometry(move, q))
        if abs(d0 - d1) > DEFAULT.isometry:
            yield f"distance broken: a={a.tolist()} p={p.tolist()} q={q.tolist()} ({d0} vs {d1})"


def ode_suite(kind: Geometry, trials: int, rng):
    """ODE-integrated endpoints match the closed form to ``DEFAULT.suite_ode``:
    intrinsic on S2xR, Cartesian on H2xR, whose intrinsic geodesics are straight lines."""
    params = [_random_params(kind, rng, tau_max=2.0) for _ in range(trials)]
    for g, closed in zip(params, _endpoints(kind, params)):
        endpoint = (integrate_geodesic(kind, g, steps=100)[-1] if kind is Geometry.S2R
                    else integrate_geodesic_cartesian(kind, g))
        if np.abs(endpoint - closed).max() > DEFAULT.suite_ode:
            yield f"endpoint mismatch at params {tuple(g)}"


def trichotomy_suite(kind: Geometry, trials: int, rng):
    """Angle sums lie on the curvature's side of pi; coplanar families
    (not enclosing the centre) give exactly pi."""
    def check(tri, coplanar):
        if not coplanar:
            total = angle_sum(tri).total
            if kind.curvature * (total - math.pi) < -DEFAULT.suite_side:
                yield f"sum {total} on the wrong side of pi at {tri.vertices}"
        elif not coplanar_with_center(tri):
            yield f"coplanar construction failed for {tri.a2}, {tri.a3}"
        elif abs((total := angle_sum(tri).total) - math.pi) > DEFAULT.suite_pair:
            yield f"coplanar sum {total} != pi for vertices {tri.a2}, {tri.a3}"

    return _triangle_failures(kind, trials, rng, check)


def antipodality_suite(kind: Geometry, trials: int, rng):
    """The outgoing tangent toward a vertex and the tangent toward the image
    of the base point under that vertex's normaliser are antipodal; for
    coplanar triangles the two images of the opposite side are antipodal
    as well.  The angles read off this frame (the paper's method) agree
    with the product-split angles of ``angle_sum``."""
    def check(tri, coplanar):
        try:
            frame = tangent_endpoints(tri)  # raises on pair residuals above DEFAULT.isometry
        except Exception as exc:
            yield f"vertices {tri.vertices}: {exc}"
            return
        if not coplanar:
            gap = max(abs(a - b) for a, b in zip(_frame_angles(frame), angle_sum(tri)))
            if gap > DEFAULT.suite_pair:
                yield f"frame and product angles differ by {gap:.2e} at vertices {tri.vertices}"
        elif np.abs(frame[(3, 2)] + frame[(2, 3)]).max() > DEFAULT.suite_pair:
            yield f"coplanar pair (3,2)/(2,3) at vertices {tri.a2}, {tri.a3}"

    return _triangle_failures(kind, trials, rng, check)


SUITES = {
    "roundtrip": roundtrip_suite,
    "isometry-invariance": isometry_suite,
    "ode-equivalence": ode_suite,
    "trichotomy": trichotomy_suite,
    "antipodality": antipodality_suite,
}


def _read(kind: Geometry, trials: int, seed: int) -> tuple[int, int]:
    """The trial count (``core._count``, at least 1) and the seed (a non-negative integer
    of any size, by ``operator.index``) of a run in ``kind``; DomainError otherwise."""
    _require_geometry(kind)
    trials = _count(trials, 1, "trials", DomainError)
    with contextlib.suppress(TypeError):
        if (index := operator.index(seed)) >= 0:
            return trials, index
    raise DomainError(f"need a non-negative integer seed, got {seed!r}")


def run_suite(name: str, kind: Geometry, trials: int, seed: int) -> SuiteResult:
    """Suite ``name``'s failures from a generator seeded with ``seed``; every argument
    is read before the first draw (``_read``), DomainError for a name not in ``SUITES``."""
    if not (isinstance(name, str) and name in SUITES):
        raise DomainError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    trials, seed = _read(kind, trials, seed)
    failures = list(SUITES[name](kind, trials, np.random.default_rng(seed)))
    return SuiteResult(name, kind, trials, failures)


def run_all(kind: Geometry, trials: int, seed: int) -> list[SuiteResult]:
    """Run every suite, its arguments read first (``_read``), with per-suite derived seeds."""
    trials, seed = _read(kind, trials, seed)
    return [
        run_suite(name, kind, min(trials, _ODE_TRIAL_CAP) if name == "ode-equivalence"
                  else trials, seed + i)
        for i, name in enumerate(SUITES)
    ]
