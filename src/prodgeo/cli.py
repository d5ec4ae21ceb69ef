"""Command-line front end.

Usage:
    prodgeo triangle --geometry s2r --a2 3,-2,1 --a3 2,1,0
    prodgeo tables --format csv
    prodgeo sweep --geometry s2r --a2 3,-2,1 --ray 2,1,0 --t-min 1e-3 --t-max 5
    prodgeo geodesic --geometry h2r --to 2,1,0 --samples 64
    prodgeo verify --geometry h2r --trials 500 --seed 42

The command line turns text into Python values; the library reads each one
once, so every invalid value is the library's typed error.  Points are the
spatial triple "x,y,z" (weight 1 implied; "--a2=-1,0,0" for a leading minus)
or a 4-tuple "x0,x1,x2,x3" with x0 > 0, and --params "u,v,tau", all read by
one comma reader; --geometry is s2r or h2r in any case (``Geometry.from_name``),
and for verify also both, in any case.

Each command computes its result once, as a json payload (schema v1) and a
display record: a grid of columns and rows plus named summary fields.
--format json prints the payload; csv prints the grid on stdout and the
summary on stderr as name=value lines; table (the default) prints the grid
with aligned columns, its header marked "#", then the summary.  Float display
precision is --precision (default 6 decimals); verify takes no --precision.

Exit codes: 0 success, 1 check failure (table regression or verify suite),
2 domain or usage error, 3 degenerate configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import reference, sweep, verification
from .core import _BASE, Geometry
from .exceptions import DegenerateError, DomainError, GeometryError
from .geodesics import GeodesicParams, _triple, geodesic_params, sample_curve
from .tolerances import DEFAULT
from .triangles import angle_sum, classify, coplanar_with_center, geodesic_triangle

SCHEMA = "v1"
_ANGLES = ("w1", "w2", "w3", "sum")


def _numbers(text: str, what: str = "point") -> list[float]:
    """The comma-separated numbers of a point or of --params, for the library to read."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise DomainError(f"cannot parse {what} {text!r}") from None


def _int_at_least(low: int):
    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports unparsable text as "invalid int value"
    return parse


def _fmt(x: float, prec: int) -> str:
    return f"{x:.{prec}f}"


def _round(x: float, prec: int) -> float:
    return round(float(x), prec)


def _render(args, payload: dict, columns, rows, summary=()) -> None:
    """Print one result in ``args.format``: json prints ``payload``; csv and
    table print the display record, string ``rows`` under ``columns`` and
    ``summary`` (name, value) string pairs, as set out in the module docstring."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        for line in (columns, *rows):
            print(",".join(line))
        for name, value in summary:
            print(f"{name}={value}", file=sys.stderr)
    else:
        grid = [columns, *rows]
        widths = [max(map(len, cells)) for cells in zip(*grid)]
        for lead, line in zip(["# "] + ["  "] * len(rows), grid):
            print(lead + "  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
        pad = max((len(name) for name, _ in summary), default=0)
        for name, value in summary:
            print(f"{name:<{pad}}  {value}")


def _angle_fields(angles, prec: int) -> tuple[dict, list[str]]:
    """Payload fields and display cells of the three angles and their sum."""
    return ({name: _round(a, prec) for name, a in zip(_ANGLES, angles)},
            [_fmt(a, prec) for a in angles])


def cmd_triangle(args) -> int:
    kind = Geometry.from_name(args.geometry)
    tri = geodesic_triangle(kind, _numbers(args.a1), _numbers(args.a2), _numbers(args.a3))
    angles = angle_sum(tri)
    fields, cells = _angle_fields(angles, args.precision)
    klass = classify(tri).value
    coplanar = coplanar_with_center(tri)
    _render(args, {"schema": SCHEMA, "kind": kind.value, **fields, "class": klass,
                   "coplanar_with_center": coplanar},
            [*_ANGLES, "class", "coplanar"], [[*cells, klass, str(coplanar).lower()]])
    return 0


def cmd_tables(args) -> int:
    records, rows = [], []
    worst = 0.0
    for kind in (Geometry.S2R, Geometry.H2R):
        a2, table = reference.TABLE_ROWS[kind]
        for index, (a3, expected) in enumerate(table, start=1):
            angles = angle_sum(geodesic_triangle(kind, _BASE, a2, a3))
            delta = max(abs(got - ref) for got, ref in zip(angles, expected))
            worst = max(worst, delta)
            fields, cells = _angle_fields(angles, args.precision)
            records.append({"table": kind.value, "row": index, **fields,
                            "ref_sum": expected[3], "delta": _round(delta, 12)})
            rows.append([kind.value, str(index), *cells, _fmt(expected[3], 5),
                         f"{delta:.2e}"])
    ok = worst <= DEFAULT.table_gate
    _render(args, {"schema": SCHEMA, "rows": records, "max_delta": _round(worst, 12), "ok": ok},
            ["table", "row", *_ANGLES, "ref_sum", "delta"], rows,
            [("max |delta|", f"{worst:.2e}"), ("gate", f"{DEFAULT.table_gate:g}"),
             ("status", "ok" if ok else "FAIL")])
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    prec = args.precision
    kind = Geometry.from_name(args.geometry)
    spec = sweep.SweepSpec(kind, _numbers(args.a2), _numbers(args.ray),
                           t_min=args.t_min, t_max=args.t_max, samples=args.samples)
    result = sweep.evaluate(spec)
    extremum = result.extremum_kind.value
    _render(args, {
        "schema": SCHEMA,
        "kind": kind.value,
        "a2": [_round(c, 12) for c in spec.a2],
        "ray": [_round(c, 12) for c in spec.ray],
        "series": [[_round(t, 12), _round(s, prec)] for t, s in result.series],
        "t0": _round(result.t_extremum, 12),
        "s0": _round(result.s_extremum, prec),
        "extremum_kind": extremum,
        "interior": result.interior,
    }, ["t", "S_t"], [[f"{t:.12g}", _fmt(s, prec)] for t, s in result.series],
        [("extremum", extremum), ("t0", f"{result.t_extremum:.12g}"),
         ("S(t0)", _fmt(result.s_extremum, prec)), ("interior", str(result.interior).lower())])
    return 0


def cmd_geodesic(args) -> int:
    kind = Geometry.from_name(args.geometry)
    params = (geodesic_params(kind, _numbers(args.to)) if args.params is None
              else GeodesicParams.normalized(*_triple(_numbers(args.params, "parameters"))))
    curve = sample_curve(kind, params, args.samples)
    _render(args, {
        "schema": SCHEMA,
        "kind": kind.value,
        **{name: _round(value, 12) for name, value in params._asdict().items()},
        "points": [[_round(c, args.precision) for c in p] for p in curve],
    }, ["x", "y", "z"], [[_fmt(c, args.precision) for c in p] for p in curve],
        [(name, f"{value:.12g}") for name, value in params._asdict().items()])
    return 0


def cmd_verify(args) -> int:
    if args.geometry.lower() == "both":
        kinds = list(Geometry)
    else:
        try:
            kinds = [Geometry.from_name(args.geometry)]
        except DomainError:
            raise DomainError(f"unknown geometry {args.geometry!r}; "
                              "expected 's2r', 'h2r' or 'both'") from None
    reports = [r for kind in kinds for r in verification.run_all(kind, args.trials, args.seed)]
    all_ok = all(r.passed for r in reports)
    _render(args, {
        "schema": SCHEMA,
        "seed": args.seed,
        "suites": [{"name": r.name, "kind": r.kind.value, "trials": r.trials,
                    "failures": len(r.failures), "passed": r.passed} for r in reports],
        "ok": all_ok,
    }, ["kind", "suite", "trials", "status"],
        [[r.kind.value, r.name, str(r.trials), "pass" if r.passed else "FAIL"] for r in reports],
        [(f"reproduce {r.kind.value} {r.name}", failure)
         for r in reports for failure in r.failures[:3]]
        + [("result", "all suites passed" if all_ok else "verification FAILED")])
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodgeo",
        description="Geodesic triangles and angle sums in the S2xR and H2xR geometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, geometry=True):
        if geometry:
            p.add_argument("--geometry", required=True, metavar="{s2r,h2r}")
        p.add_argument("--format", default="table", choices=["table", "json", "csv"])
        p.add_argument("--precision", type=_int_at_least(0), default=6,
                       help="display decimals (default 6)")

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
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--to", help="target point; parameters solved for")
    target.add_argument("--params", help="explicit u,v,tau")
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("verify", help="run the seeded property suites")
    p.add_argument("--geometry", default="both", metavar="{s2r,h2r,both}")
    p.add_argument("--format", default="table", choices=["table", "json"])
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DegenerateError) else 2


if __name__ == "__main__":
    sys.exit(main())
