"""Inputs, timed operations and output checks of the four workloads.

Every input is drawn from ``numpy.random.default_rng(seed)`` by the
benchmark itself, with its own closed form for geodesic points, so the
program under test only ever receives the generated inputs.  Draws are
never filtered by the outcome of an operation.

An in-process workload is a ``Workload``: an endless, seeded ``stream`` of
items, the ``op`` that is timed (library calls only) and the ``check`` that
returns an error message for a wrong result, or None.  The library is
called through the ``prodgeo`` package namespace so that the tracer's
wrappers are seen.

The ``cli`` workload starts ``python -m prodgeo.cli`` processes instead;
``run_cli`` runs and checks one command line.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

import prodgeo as pg
from prodgeo.reference import SWEEP_FAMILIES, TABLE_ROWS

S2R, H2R = pg.Geometry.S2R, pg.Geometry.H2R
GEOMETRIES = (S2R, H2R)
PI = math.pi
ROOT = Path(__file__).resolve().parent.parent

#: the trichotomy side band and the coplanar band of the verification suites
SIDE_BAND = 1e-9
COPLANAR_BAND = 1e-8
#: reference tables and sweep extrema, as in the acceptance gate
TABLE_GATE = 1e-4
SWEEP_GATE = 1e-3
#: oracle endpoints against the closed form
ENDPOINT_GATE = 1e-6
ARC_GATE = 1e-7
ORACLE_STEPS = 200
QUADRATURE_POINTS = 200
#: oracle draws per geometry in one Latin-hypercube round
ORACLE_STRATA = 8


# --- inputs ------------------------------------------------------------------

def closed_form_point(kind, u: float, v: float, tau: float) -> np.ndarray:
    """Point at arc length ``tau`` on the geodesic from the base point with
    direction angles (u, v)."""
    w = tau * math.cos(v)
    scale = math.exp(tau * math.sin(v))
    if kind is S2R:
        along, across = math.cos(w), math.sin(w)
    else:
        along, across = math.cosh(w), math.sinh(w)
    return scale * np.array([along, across * math.cos(u), across * math.sin(u)])


def random_params(rng, tau_max: float) -> tuple[float, float, float]:
    """Direction angles and arc length, distributed as in the verification
    suites.  With tau <= 3 the surface arc stays below pi - 1e-3 (S2xR) and
    7.5 (H2xR), so the suites' rejection rule never applies."""
    return (rng.uniform(-PI, PI), rng.uniform(-PI / 2, PI / 2), rng.uniform(1e-3, tau_max))


def random_vertex(kind, rng) -> np.ndarray:
    return closed_form_point(kind, *random_params(rng, 3.0))


def random_pair(kind, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two vertices at least 1e-2 apart, as the verification suites draw them."""
    while True:
        a2, a3 = random_vertex(kind, rng), random_vertex(kind, rng)
        if np.linalg.norm(a2 - a3) > 1e-2:
            return a2, a3


def coplanar_pair(kind, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two vertices coplanar with the base point and the centre, in the
    half-plane x > 0 so the triangle cannot enclose the centre."""
    psi = rng.uniform(-PI, PI)
    side = np.array([0.0, math.cos(psi), math.sin(psi)])
    base = np.array([1.0, 0.0, 0.0])

    def draw():
        while True:
            c1 = rng.uniform(0.1, 2.0)
            c2 = rng.uniform(-0.95, 0.95) * (c1 if kind is H2R else 2.0)
            p = c1 * base + c2 * side
            if np.linalg.norm(p - base) > 1e-2:
                return p

    return draw(), draw()


# --- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    stream: Callable[[int], Iterator]
    op: Callable
    check: Callable
    #: items per timed operation of the end-to-end run, so that one
    #: operation takes tens of milliseconds or more
    batch: int
    #: items per traced chunk; the traced run alternates untraced and
    #: traced chunks over the same items
    trace_chunk: int
    #: items in the traced run (fixed, so counts repeat exactly)
    trace_items: int


def _side_error(kind, total: float) -> str | None:
    if kind is S2R and total < PI - SIDE_BAND:
        return f"S2xR sum {total!r} below pi"
    if kind is H2R and total > PI + SIDE_BAND:
        return f"H2xR sum {total!r} above pi"
    return None


def triangle_stream(seed: int):
    """The 10 reference table rows, then per geometry in turn three random
    triangles and one coplanar-with-centre triangle.  Vertices never repeat
    after the table rows."""
    rng = np.random.default_rng(seed)
    for kind in GEOMETRIES:
        a2, rows = TABLE_ROWS[kind]
        for a3, expected in rows:
            yield ("table", kind, np.array(a2), np.array(a3), expected)
    while True:
        for kind in GEOMETRIES:
            for _ in range(3):
                yield ("random", kind, *random_pair(kind, rng), None)
            yield ("coplanar", kind, *coplanar_pair(kind, rng), None)


def triangle_op(item):
    _family, kind, a2, a3, _expected = item
    tri = pg.geodesic_triangle(kind, pg.BASE_POINT, a2, a3)
    return pg.angle_sum(tri), pg.classify(tri)


def triangle_check(item, result) -> str | None:
    family, kind, _a2, _a3, expected = item
    angles, klass = result
    if family == "table":
        delta = max(abs(got - ref) for got, ref in zip(angles, expected))
        if delta > TABLE_GATE:
            return f"table row off by {delta:.2e}"
    if family == "coplanar":
        if abs(angles.total - PI) > COPLANAR_BAND:
            return f"coplanar sum {angles.total!r} is not pi"
        if klass is not pg.TriangleClass.SUM_EQUALS_PI:
            return f"coplanar triangle classified {klass.value}"
        return None
    expected_class = (pg.TriangleClass.SUM_ABOVE_PI if kind is S2R
                      else pg.TriangleClass.SUM_BELOW_PI)
    if klass is not expected_class:
        return f"{kind.value} triangle classified {klass.value}"
    return _side_error(kind, angles.total)


def sweep_stream(seed: int):
    """Cycles of six families: the two reference families, one flat
    (coplanar-ray) family per geometry and one random family per geometry."""
    rng = np.random.default_rng(seed)
    while True:
        for kind in GEOMETRIES:
            a2, ray, t_ref, s_ref = SWEEP_FAMILIES[kind]
            yield ("reference", kind, np.array(a2), np.array(ray), (t_ref, s_ref))
        for kind in GEOMETRIES:
            # a ray inside the cone spanned by the base point and a2 keeps
            # every triangle of the family coplanar with the centre and
            # off it
            a2 = random_vertex(kind, rng)
            ray = rng.uniform(0.2, 1.0) * np.array([1.0, 0.0, 0.0]) \
                + rng.uniform(0.2, 1.0) * a2 / np.linalg.norm(a2)
            yield ("flat", kind, a2, ray, None)
        for kind in GEOMETRIES:
            yield ("random", kind, random_vertex(kind, rng), random_vertex(kind, rng), None)


def sweep_op(item):
    _family, kind, a2, ray, _expected = item
    return pg.evaluate(pg.SweepSpec(kind, a2, ray))


def sweep_check(item, result) -> str | None:
    family, kind, _a2, _ray, expected = item
    sums = result.series[:, 1]
    if family == "flat":
        worst = float(np.abs(sums - PI).max())
        if worst > COPLANAR_BAND:
            return f"flat family strays {worst:.2e} from pi"
        if result.extremum_kind is not pg.ExtremumKind.FLAT:
            return f"flat family reported as {result.extremum_kind.value}"
        return None
    expected_kind = pg.ExtremumKind.MAXIMUM if kind is S2R else pg.ExtremumKind.MINIMUM
    if result.extremum_kind is not expected_kind:
        return f"{kind.value} family reported as {result.extremum_kind.value}"
    sign = 1.0 if kind is S2R else -1.0
    worst = float((sign * (PI - sums)).max())
    if worst > SIDE_BAND:
        return f"{kind.value} grid sum {worst:.2e} on the wrong side of pi"
    if family == "reference":
        t_ref, s_ref = expected
        if abs(result.t_extremum - t_ref) > SWEEP_GATE or abs(result.s_extremum - s_ref) > SWEEP_GATE:
            return f"extremum ({result.t_extremum}, {result.s_extremum}) misses the reference"
    return None


def _strata(rng, low: float, high: float) -> np.ndarray:
    """One uniform draw in each of ``ORACLE_STRATA`` equal strata of
    [low, high], in random order."""
    k = ORACLE_STRATA
    return low + (high - low) * (rng.permutation(k) + rng.uniform(size=k)) / k


def oracle_stream(seed: int):
    """Geodesics with tau <= 2 (the ode_suite domain), alternating geometry.

    Draws come in Latin-hypercube rounds of ``ORACLE_STRATA`` per geometry:
    every round has one draw in each stratum of tau and one in each stratum
    of v.  The ODEs' cost grows with the surface arc tau cos v, so this
    keeps the mix of cheap and costly geodesics alike from seed to seed."""
    rng = np.random.default_rng(seed)
    while True:
        rounds = {kind: list(zip(rng.uniform(-PI, PI, size=ORACLE_STRATA),
                                 _strata(rng, -PI / 2, PI / 2), _strata(rng, 1e-3, 2.0)))
                  for kind in GEOMETRIES}
        for i in range(ORACLE_STRATA):
            for kind in GEOMETRIES:
                yield kind, tuple(float(x) for x in rounds[kind][i])


def oracle_op(item):
    kind, g = item
    ode_end = pg.integrate_geodesic(kind, g, steps=ORACLE_STEPS)[-1]
    chart_free_end = pg.integrate_geodesic_cartesian(kind, g)
    length = pg.arc_length_quadrature(kind, pg.sample_curve(kind, g, QUADRATURE_POINTS))
    return ode_end, chart_free_end, length


def oracle_check(item, result) -> str | None:
    kind, g = item
    ode_end, chart_free_end, length = result
    closed = closed_form_point(kind, *g)
    for label, end in (("intrinsic", ode_end), ("cartesian", chart_free_end)):
        err = float(np.abs(end - closed).max())
        if err > ENDPOINT_GATE:
            return f"{label} ODE endpoint off by {err:.2e} at {g}"
    # the midpoint polyline rule is second order: with step h = tau / (n - 1)
    # its error is at most tau * h^2 / 6 (measured: 1/12 of that in S2xR,
    # 1/6 in H2xR), about 2e-5 at tau = 2 and n = 200
    tau = g[2]
    gate = ARC_GATE + tau * (tau / (QUADRATURE_POINTS - 1)) ** 2 / 6.0
    if abs(length - tau) > gate:
        return f"quadrature {length!r} misses tau {tau!r} by more than {gate:.2e}"
    return None


IN_PROCESS = {
    "triangles": Workload(triangle_stream, triangle_op, triangle_check, batch=40,
                          trace_chunk=20, trace_items=600),
    "sweeps": Workload(sweep_stream, sweep_op, sweep_check, batch=1,
                       trace_chunk=1, trace_items=6),
    "oracle": Workload(oracle_stream, oracle_op, oracle_check, batch=1,
                       trace_chunk=2, trace_items=30),
}


# --- cli ---------------------------------------------------------------------

def child_env() -> dict:
    """Environment for every process the benchmark starts: ``src`` on the
    path, and the one-thread BLAS/OpenMP settings that ``run.py`` put into
    its own environment."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _point_arg(p) -> str:
    return ",".join(repr(float(c)) for c in p)


def cli_triangle(kind, a2, a3) -> tuple[list[str], Callable]:
    argv = ["triangle", "--geometry", kind.value, f"--a2={_point_arg(a2)}",
            f"--a3={_point_arg(a3)}", "--format", "json"]

    def check(payload) -> str | None:
        # the payload rounds to 6 decimals
        parts = payload["w1"] + payload["w2"] + payload["w3"]
        if abs(parts - payload["sum"]) > 2e-6:
            return f"angles {parts} do not add up to the sum {payload['sum']}"
        expected = "above" if kind is S2R else "below"
        if payload["class"] != expected:
            return f"{kind.value} triangle classified {payload['class']}"
        return _side_error(kind, payload["sum"] + (5e-7 if kind is S2R else -5e-7))

    return argv, check


def cli_session() -> list[tuple[str, list[str], Callable]]:
    """The five commands of one CLI session: a reference triangle, the
    tables, both reference sweeps and ``verify --trials 200``."""
    a2, rows = TABLE_ROWS[S2R]
    a3, expected = rows[1]
    triangle_argv, triangle_check_fn = cli_triangle(S2R, np.array(a2), np.array(a3))

    def check_triangle(payload):
        err = triangle_check_fn(payload)
        if err is None and abs(payload["sum"] - expected[3]) > TABLE_GATE:
            err = f"reference triangle sum {payload['sum']} misses {expected[3]}"
        return err

    def check_ok(payload):
        return None if payload.get("ok") is True else "payload reports ok = false"

    def check_sweep(kind):
        _a2, _ray, t_ref, s_ref = SWEEP_FAMILIES[kind]

        def check(payload):
            if abs(payload["t0"] - t_ref) > SWEEP_GATE or abs(payload["s0"] - s_ref) > SWEEP_GATE:
                return f"{kind.value} extremum ({payload['t0']}, {payload['s0']}) misses the reference"
            return None
        return check

    session = [("triangle", triangle_argv, check_triangle),
               ("tables", ["tables", "--format", "json"], check_ok)]
    for kind in GEOMETRIES:
        a2, ray, _t, _s = SWEEP_FAMILIES[kind]
        session.append((f"sweep_{kind.value}",
                        ["sweep", "--geometry", kind.value, f"--a2={_point_arg(a2)}",
                         f"--ray={_point_arg(ray)}", "--format", "json"],
                        check_sweep(kind)))
    session.append(("verify", ["verify", "--trials", "200", "--format", "json"], check_ok))
    return session


def cli_triangle_stream(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        for kind in GEOMETRIES:
            yield cli_triangle(kind, *random_pair(kind, rng))


def run_process(args: list[str], timeout: float = 60.0) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child process to completion; return its wall time."""
    start = perf_counter()
    done = subprocess.run(args, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    return perf_counter() - start, done


def run_cli(argv: list[str], check: Callable) -> tuple[float, str | None]:
    """One ``python -m prodgeo.cli`` process: wall time and check result."""
    seconds, done = run_process([sys.executable, "-m", "prodgeo.cli", *argv])
    if done.returncode != 0:
        return seconds, f"exit code {done.returncode}: {done.stderr.strip()[-200:]}"
    try:
        payload = json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return seconds, f"unparsable output {done.stdout[-200:]!r}"
    return seconds, check(payload)
