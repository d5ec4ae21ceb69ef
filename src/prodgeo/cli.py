"""Command-line front end.

Usage:
    prodgeo triangle --geometry s2r --a2 3,-2,1 --a3 2,1,0
    prodgeo tables --format csv
    prodgeo sweep --geometry s2r --a2 3,-2,1 --ray 2,1,0 --t-min 1e-3 --t-max 5
    prodgeo geodesic --geometry h2r --to 2,1,0 --samples 64
    prodgeo verify --geometry h2r --trials 500 --seed 42

Points are entered as the spatial triple "x,y,z" (homogeneous weight 1
implied; "--a2=-1,0,0" for a leading minus) or a 4-tuple "x0,x1,x2,x3" with
x0 > 0, and are validated once, by the library's public entry points.
Output format is table (aligned, human oriented), json (schema v1) or csv.
Float display precision defaults to 6 decimals, overridable with
--precision or the THURSTON_PRECISION environment variable.

Exit codes: 0 success, 1 check failure (table regression or verify suite),
2 domain or usage error, 3 degenerate configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import reference
from .core import BASE_POINT, Geometry, model_point
from .exceptions import DegenerateError, DomainError, GeometryError
from .geodesics import GeodesicParams, geodesic_params, geodesic_point, sample_curve
from .sweep import ExtremumKind, SweepSpec, evaluate
from .triangles import angle_sum, classify, coplanar_with_center, geodesic_triangle
from .verification import run_all

SCHEMA = "v1"
TABLE_GATE = 1e-4


def _parse_point(text: str) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise DomainError(f"cannot parse point {text!r}") from None
    return model_point(values)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports unparsable text as "invalid int value"
    return parse


def _precision(args) -> int:
    if args.precision is not None:
        return args.precision
    try:
        return _int_at_least(0)(os.environ.get("THURSTON_PRECISION", ""))
    except (ValueError, argparse.ArgumentTypeError):
        return 6


def _fmt(x: float, prec: int) -> str:
    return f"{x:.{prec}f}"


def _round(x: float, prec: int) -> float:
    return round(float(x), prec)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def cmd_triangle(args) -> int:
    prec = _precision(args)
    kind = Geometry.from_name(args.geometry)
    tri = geodesic_triangle(kind, _parse_point(args.a1), _parse_point(args.a2),
                            _parse_point(args.a3))
    angles = angle_sum(tri)
    klass = classify(tri)
    coplanar = coplanar_with_center(tri)
    if args.format == "json":
        _emit_json({
            "schema": SCHEMA,
            "kind": kind.value,
            "w1": _round(angles.w1, prec),
            "w2": _round(angles.w2, prec),
            "w3": _round(angles.w3, prec),
            "sum": _round(angles.total, prec),
            "class": klass.value,
            "coplanar_with_center": coplanar,
        })
    elif args.format == "csv":
        print("w1,w2,w3,sum,class,coplanar")
        print(",".join([_fmt(angles.w1, prec), _fmt(angles.w2, prec),
                        _fmt(angles.w3, prec), _fmt(angles.total, prec),
                        klass.value, str(coplanar).lower()]))
    else:
        for name, val in zip(("w1", "w2", "w3", "sum"), angles):
            print(f"{name:>9}  {_fmt(val, prec)}")
        print(f"{'class':>9}  {klass.value}")
        print(f"{'coplanar':>9}  {str(coplanar).lower()}")
    return 0


def cmd_tables(args) -> int:
    prec = _precision(args)
    rows_out = []
    worst = 0.0
    for kind in (Geometry.S2R, Geometry.H2R):
        a2, rows = reference.TABLE_ROWS[kind]
        for index, (a3, expected) in enumerate(rows, start=1):
            tri = geodesic_triangle(kind, BASE_POINT, a2, a3)
            angles = angle_sum(tri)
            delta = max(abs(got - ref) for got, ref in zip(angles, expected))
            worst = max(worst, delta)
            rows_out.append((kind.value, index, angles, expected, delta))
    ok = worst <= TABLE_GATE
    if args.format == "json":
        _emit_json({
            "schema": SCHEMA,
            "rows": [
                {
                    "table": kind, "row": idx,
                    "w1": _round(a.w1, prec), "w2": _round(a.w2, prec),
                    "w3": _round(a.w3, prec), "sum": _round(a.total, prec),
                    "ref_sum": ref[3], "delta": _round(d, 12),
                }
                for kind, idx, a, ref, d in rows_out
            ],
            "max_delta": _round(worst, 12),
            "ok": ok,
        })
    elif args.format == "csv":
        print("table,row,w1,w2,w3,sum,ref_sum,delta")
        for kind, idx, a, ref, d in rows_out:
            print(",".join([kind, str(idx), _fmt(a.w1, prec), _fmt(a.w2, prec),
                            _fmt(a.w3, prec), _fmt(a.total, prec),
                            _fmt(ref[3], 5), f"{d:.2e}"]))
    else:
        print(f"{'table':>6} {'row':>3} {'w1':>10} {'w2':>10} {'w3':>10} "
              f"{'sum':>10} {'ref_sum':>9} {'delta':>9}")
        for kind, idx, a, ref, d in rows_out:
            print(f"{kind:>6} {idx:>3} {_fmt(a.w1, prec):>10} {_fmt(a.w2, prec):>10} "
                  f"{_fmt(a.w3, prec):>10} {_fmt(a.total, prec):>10} "
                  f"{ref[3]:>9.5f} {d:>9.2e}")
        print(f"max |delta| = {worst:.2e} ({'ok' if ok else 'FAIL'}, gate {TABLE_GATE:g})")
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    prec = _precision(args)
    kind = Geometry.from_name(args.geometry)
    spec = SweepSpec(kind, _parse_point(args.a2), _parse_point(args.ray),
                     t_min=args.t_min, t_max=args.t_max, samples=args.samples)
    result = evaluate(spec)
    if args.format == "json":
        _emit_json({
            "schema": SCHEMA,
            "kind": kind.value,
            "a2": [_round(c, 12) for c in spec.a2],
            "ray": [_round(c, 12) for c in spec.ray],
            "series": [[_round(t, 12), _round(s, prec)] for t, s in result.series],
            "t0": _round(result.t_extremum, 12),
            "s0": _round(result.s_extremum, prec),
            "extremum_kind": result.extremum_kind.value,
        })
    elif args.format == "csv":
        print("t,S_t")
        for t, s in result.series:
            print(f"{t:.12g},{_fmt(s, prec)}")
        print(f"extremum: {result.extremum_kind.value} at t0={result.t_extremum:.12g} "
              f"S={_fmt(result.s_extremum, prec)}", file=sys.stderr)
    else:
        print(f"samples   {len(result.series)} on [{spec.t_min:g}, {spec.t_max:g}]")
        print(f"extremum  {result.extremum_kind.value}")
        print(f"t0        {result.t_extremum:.12g}")
        print(f"S(t0)     {_fmt(result.s_extremum, prec)}")
    return 0


def cmd_geodesic(args) -> int:
    prec = _precision(args)
    kind = Geometry.from_name(args.geometry)
    if (args.to is None) == (args.params is None):
        print("exactly one of --to or --params is required", file=sys.stderr)
        return 2
    if args.to is not None:
        params = geodesic_params(kind, _parse_point(args.to))
    else:
        try:
            u, v, tau = (float(part) for part in args.params.split(","))
        except ValueError:
            raise DomainError(f"cannot parse parameters {args.params!r}") from None
        params = GeodesicParams.normalized(u, v, tau)
    curve = sample_curve(kind, params, args.samples)
    if args.format == "json":
        _emit_json({
            "schema": SCHEMA,
            "kind": kind.value,
            "u": _round(params.u, 12),
            "v": _round(params.v, 12),
            "tau": _round(params.tau, 12),
            "points": [[_round(c, prec) for c in p] for p in curve],
        })
    elif args.format == "csv":
        print("x,y,z")
        for p in curve:
            print(",".join(_fmt(c, prec) for c in p))
        print(f"u={params.u:.12g} v={params.v:.12g} tau={params.tau:.12g}",
              file=sys.stderr)
    else:
        print(f"u    {params.u:.12g}")
        print(f"v    {params.v:.12g}")
        print(f"tau  {params.tau:.12g}")
        for p in curve:
            print("  " + "  ".join(_fmt(c, prec) for c in p))
    return 0


def cmd_verify(args) -> int:
    kinds = list(Geometry) if args.geometry == "both" else [Geometry.from_name(args.geometry)]
    reports = [r for kind in kinds for r in run_all(kind, args.trials, args.seed)]
    all_ok = all(r.passed for r in reports)
    if args.format == "json":
        _emit_json({
            "schema": SCHEMA,
            "seed": args.seed,
            "suites": [
                {"name": r.name, "kind": r.kind.value, "trials": r.trials,
                 "failures": len(r.failures), "passed": r.passed}
                for r in reports
            ],
            "ok": all_ok,
        })
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.kind.value:>4} {r.name:<20} trials={r.trials:<5} {status}")
            for failure in r.failures[:3]:
                print(f"       reproduce: {failure}")
        print("all suites passed" if all_ok else "verification FAILED")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodgeo",
        description="Geodesic triangles and angle sums in the S2xR and H2xR geometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, geometry=True):
        if geometry:
            p.add_argument("--geometry", required=True, choices=["s2r", "h2r"])
        p.add_argument("--format", default="table", choices=["table", "json", "csv"])
        p.add_argument("--precision", type=_int_at_least(0), default=None,
                       help="display decimals (default 6; env THURSTON_PRECISION)")

    p = sub.add_parser("triangle", help="interior angles of one geodesic triangle")
    common(p)
    p.add_argument("--a1", default="1,0,0", help="first vertex (default: base point)")
    p.add_argument("--a2", required=True)
    p.add_argument("--a3", required=True)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("tables", help="recompute the reference angle tables")
    common(p, geometry=False)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("sweep", help="angle-sum family S(t) along a ray")
    common(p)
    p.add_argument("--a2", required=True)
    p.add_argument("--ray", required=True, help="direction of the third vertex")
    p.add_argument("--t-min", type=float, default=1e-3)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--samples", type=int, default=512)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("geodesic", help="sample a geodesic from the base point")
    common(p)
    p.add_argument("--to", help="target point; parameters solved for")
    p.add_argument("--params", help="explicit u,v,tau")
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("verify", help="run the seeded property suites")
    p.add_argument("--geometry", default="both", choices=["s2r", "h2r", "both"])
    p.add_argument("--format", default="table", choices=["table", "json"])
    p.add_argument("--trials", type=_int_at_least(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", type=_int_at_least(0), default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateError as exc:
        print(f"DegenerateError: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"DomainError: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
