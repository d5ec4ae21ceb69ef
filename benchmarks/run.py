"""prodgeo benchmark: one workload, one seed, timed or traced.

Run from the repository root:

    python3 benchmarks/run.py --workload triangles --seed 1 --seconds 10 --trace 0

Workloads: triangles, sweeps, oracle (prodgeo's API, in this process) and
cli (fresh ``python -m prodgeo.cli`` processes); see benchmarks/README.md.

``--trace 0`` measures set-up and then runs the workload for ``--seconds``,
checking every result; it reports the end-to-end metrics.  ``--trace 1``
runs a fixed, seeded set of operations twice, alternating untraced and
traced chunks, and reports the per-layer metrics: calls and self time of
each wrapped prodgeo function, the benchmark loop's own time, the tracing
overhead and the share of traced wall time the spans account for.

Human-readable report lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread here and, through the environment, in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("triangles", "sweeps", "oracle", "cli")
#: fresh-interpreter set-ups per timed run; the metric is their median
SETUP_REPEATS = 5
#: spans kept in memory and written to the spans file
SPAN_KEEP = 20000

END_TO_END = {
    "setup_s": "s",
    "op_ref_ratio": "ratio",
}

PER_LAYER = {}
for _name in ("core.contains", "core.require_member", "core.metric_at",
              "geodesics.geodesic_params", "geodesics.geodesic_point",
              "geodesics.tangent_of", "isometries.to_origin",
              "isometries.apply_isometry", "sweep.angle_sum_at"):
    PER_LAYER[f"{_name}.calls"] = "count"
for _name in ("core.contains", "core.metric_at", "geodesics.geodesic_params",
              "geodesics.geodesic_point", "isometries.to_origin",
              "isometries.apply_isometry", "triangles.geodesic_triangle",
              "triangles.angle_sum", "triangles.tangent_endpoints", "triangles.classify",
              "sweep.evaluate", "sweep.angle_sum_at", "oracle.integrate_geodesic",
              "oracle.integrate_geodesic_cartesian", "oracle.arc_length_quadrature",
              "core", "geodesics", "isometries", "triangles", "sweep", "oracle",
              "verification", "cli", "bench"):
    PER_LAYER[f"{_name}.self_ms"] = "ms"
PER_LAYER.update({
    "sweep.angle_sum_at.calls_per_sweep": "count",
    "oracle.integrate_geodesic.attempts_ratio": "ratio",
    "cli.python_floor_s": "s",
    "cli.import_s": "s",
    "cli.triangle_s": "s",
    "cli.tables_s": "s",
    "cli.sweep_s2r_s": "s",
    "cli.sweep_h2r_s": "s",
    "cli.verify_s": "s",
    "cli.session_s": "s",
    "trace.spans": "count",
    "trace.exceptions": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_share": "ratio",
})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: one fresh set-up (import, inputs, one checked "
                             "operation), then print 'ready' and exit")
    return parser.parse_args(argv)


# --- statistics ----------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """The highest of p99, p95, p90, p75 with at least ten samples beyond it."""
    for q in (99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


# --- machine -------------------------------------------------------------------

def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a gauge of machine speed,
    reported beside the metrics and never used to rescale them."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def machine() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# --- set-up ----------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> int:
    """Body of one fresh set-up: import, inputs, one checked operation."""
    import workloads as wl
    spec = wl.IN_PROCESS[workload]
    item = next(spec.stream(seed))
    error = spec.check(item, spec.op(item))
    print("ready" if error is None else f"error: {error}", flush=True)
    return 0 if error is None else 1


def setup_once(workload: str, seed: int, wl) -> tuple[float, str | None]:
    """Wall time from starting a fresh interpreter to its first checked
    result, and the error if the result is wrong."""
    if workload == "cli":
        argv, check = next(wl.cli_triangle_stream(seed))
        return wl.run_cli(argv, check)
    args = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(args, env=wl.child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        seconds = perf_counter() - start
        try:
            _out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            _out, err = proc.communicate()
    return seconds, None if line == "ready" else f"set-up probe: {line or err.strip()[-200:]}"


# --- timed run -------------------------------------------------------------------

_REF_A = np.array([0.3, -1.2, 0.7])
_REF_B = np.array([1.1, 0.4, -0.5])


def reference_work() -> float:
    """A fixed piece of small-array numpy and Python work, of the kind
    prodgeo's own calls do, that uses nothing of prodgeo."""
    a, s = _REF_A, 0.0
    for _ in range(100):
        s += float(np.dot(a, _REF_B)) / (np.linalg.norm(np.cross(a, _REF_B)) + 1.0)
        c, n = math.cos(s), math.sin(s)
        a = np.array([[1.0, 0.0, 0.0], [0.0, c, -n], [0.0, n, c]]) @ a / np.linalg.norm(a)
    return s


def reference_seconds(workload: str, wl) -> tuple[float, str | None]:
    """One timing of the reference: for ``cli`` a fresh ``python -c 'import
    numpy'`` process, else the median of three ``reference_work`` calls."""
    if workload == "cli":
        seconds, done = wl.run_process([sys.executable, "-c", "import numpy"])
        return seconds, None if done.returncode == 0 else "reference process failed"
    times = []
    for _ in range(3):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return statistics.median(times), None


def run_checked(spec, item) -> str | None:
    """Operation and check outside any timer; returns an error or None."""
    try:
        return spec.check(item, spec.op(item))
    except Exception as exc:  # a failed operation is counted, not fatal
        return f"{type(exc).__name__}: {exc}"


def operations(workload: str, seed: int, wl):
    """Endless timed operations: (the latency of each item, in seconds,
    errors).  An in-process operation is a batch of ``spec.batch`` items;
    only the library calls or the CLI process are timed, not the checks."""
    if workload == "cli":
        for argv, check in wl.cli_triangle_stream(seed):
            seconds, error = wl.run_cli(argv, check)
            yield [seconds], [] if error is None else [error]
        return
    spec = wl.IN_PROCESS[workload]
    stream = spec.stream(seed)
    while True:
        batch = list(islice(stream, spec.batch))
        latencies, results = [], []
        for item in batch:
            start = perf_counter()
            try:
                result = spec.op(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            latencies.append(perf_counter() - start)
            results.append(result)
        errors = []
        for item, result in zip(batch, results):
            error = (f"{type(result).__name__}: {result}" if isinstance(result, Exception)
                     else spec.check(item, result))
            if error is not None:
                errors.append(error)
        yield latencies, errors


def end_to_end(workload: str, seed: int, seconds: float, wl, report):
    """Run the workload for ``seconds`` and time ``SETUP_REPEATS`` fresh
    set-ups, the first before any operation and the others spread evenly
    over the run, so that one slow spell of the shared machine does not
    decide ``setup_s``.  In-process workloads start with one untimed,
    checked warm-up operation.

    The machine's speed drifts by up to 2x within a minute, so every
    operation is bracketed by timings of a fixed reference, and
    ``op_ref_ratio`` is the median over operations of the mean item
    latency over the mean of the two reference timings around it."""
    ops = operations(workload, seed, wl)
    setup_times, latencies, ratios, refs, errors = [], [], [], [], []
    attempted = 0

    def setup():
        seconds_taken, error = setup_once(workload, seed, wl)
        setup_times.append(seconds_taken)
        if error is not None:
            errors.append(error)

    def reference():
        ref, error = reference_seconds(workload, wl)
        if error is not None:
            raise SystemExit(f"benchmark: {error}")
        refs.append(ref)
        return ref

    setup()
    if workload != "cli":
        warm, warm_errors = next(ops)
        attempted += len(warm)
        errors += warm_errors
    spacing = seconds / (SETUP_REPEATS - 1)
    measured = 0.0  # loop time, set-ups excluded
    before = reference()
    while measured < seconds:
        start = perf_counter()
        item_latencies, item_errors = next(ops)
        after = reference()
        ratios.append(statistics.fmean(item_latencies) / ((before + after) / 2))
        latencies += item_latencies
        errors += item_errors
        attempted += len(item_latencies)
        before = after
        measured += perf_counter() - start
        if measured >= spacing * len(setup_times) and len(setup_times) < SETUP_REPEATS:
            setup()
            before = reference()
    while len(setup_times) < SETUP_REPEATS:
        setup()
    attempted += SETUP_REPEATS
    n = len(latencies)
    q = tail_percentile(n)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_ref_ratio": statistics.median(ratios),
    }
    report(f"setup_s            {metrics['setup_s']:.4f} s  (median of {len(setup_times)}: "
           + ", ".join(f"{t:.3f}" for t in setup_times) + ")")
    report(f"op_ref_ratio       {metrics['op_ref_ratio']:.5f}  (median of {len(ratios)} "
           f"operations; reference median {statistics.median(refs) * 1e3:.3f} ms, "
           f"n={len(refs)})")
    report(f"op_p10_ms          {np.percentile(latencies, 10) * 1e3:.4f} ms  "
           f"(n={n}, timed {sum(latencies):.2f} s; not rescaled)")
    label, scale, unit = {"triangles": ("triangle", 1e6, "us"), "sweeps": ("sweep", 1.0, "s"),
                          "oracle": ("oracle_check", 1e3, "ms"),
                          "cli": ("cli_triangle", 1.0, "s")}[workload]
    report(f"{label + 's_per_s':<22} {n / sum(latencies):.4f} 1/s  (n={n})")
    for pct in (50, q) if q > 50 else (50,):
        report(f"{f'{label}_p{pct:g}_{unit}':<22} "
               f"{np.percentile(latencies, pct) * scale:.4f} {unit}  (n={n})")
    return metrics, attempted, errors


# --- traced run ------------------------------------------------------------------

def traced(workload: str, seed: int, wl, report):
    """The workload's fixed, seeded operations (one cli session), each run
    untraced and traced in alternating chunks; returns the per-layer
    metrics, the operations attempted and the errors."""
    from tracer import LAYERS, Tracer

    tracer = Tracer(keep=SPAN_KEEP)
    untraced_wall = traced_wall = 0.0
    errors = []
    traced_items = 0
    extra = {}
    if workload == "cli":
        floor = [wl.run_process([sys.executable, "-c", "pass"])[0] for _ in range(3)]
        imports = [wl.run_process([sys.executable, "-c", "import prodgeo"])[0]
                   for _ in range(3)]
        extra["cli.python_floor_s"] = statistics.median(floor)
        extra["cli.import_s"] = statistics.median(imports)
        session = wl.cli_session()
        for name, argv, check in session:
            start = perf_counter()
            _seconds, error = wl.run_cli(argv, check)
            untraced_wall += perf_counter() - start
            start = perf_counter()
            _seconds, traced_error = tracer.call(f"cli.{name}", wl.run_cli, argv, check)
            traced_wall += perf_counter() - start
            errors += [e for e in (error, traced_error) if e is not None]
            traced_items += 1
        for name, _argv, _check in session:
            extra[f"cli.{name}_s"] = tracer.stats[f"cli.{name}"].total
        extra["cli.session_s"] = sum(extra[f"cli.{name}_s"] for name, _a, _c in session)
    else:
        spec = wl.IN_PROCESS[workload]
        items = list(islice(spec.stream(seed), spec.trace_items))
        warm_error = run_checked(spec, items[0])
        errors += [warm_error] if warm_error is not None else []
        for i in range(0, len(items), spec.trace_chunk):
            chunk = items[i:i + spec.trace_chunk]
            start = perf_counter()
            for item in chunk:
                error = run_checked(spec, item)
                if error is not None:
                    errors.append(error)
            untraced_wall += perf_counter() - start
            tracer.install()
            try:
                start = perf_counter()
                for item in chunk:
                    error = tracer.call("bench.op", run_checked, spec, item)
                    if error is not None:
                        errors.append(error)
                traced_wall += perf_counter() - start
            finally:
                tracer.uninstall()
        traced_items = len(items)

    stats = tracer.stats

    def calls(name):
        return stats[name].calls if name in stats else 0

    metrics = {name: 0.0 for name in PER_LAYER}
    for name, stat in stats.items():
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] = stat.calls
        if f"{name}.self_ms" in metrics:
            metrics[f"{name}.self_ms"] = stat.self_time * 1e3
    for layer in (*LAYERS, "bench"):
        metrics[f"{layer}.self_ms"] = 1e3 * sum(
            stat.self_time for name, stat in stats.items() if name.startswith(layer + "."))
    if calls("sweep.evaluate"):
        metrics["sweep.angle_sum_at.calls_per_sweep"] = (
            calls("sweep.angle_sum_at") / calls("sweep.evaluate"))
    if calls("oracle.integrate_geodesic"):
        metrics["oracle.integrate_geodesic.attempts_ratio"] = (
            calls("oracle.unit_speed_drift")
            / (wl.ORACLE_STEPS * calls("oracle.integrate_geodesic")))
    self_total = sum(stat.self_time for stat in stats.values())
    metrics.update(extra)
    metrics.update({
        "trace.spans": sum(stat.calls for stat in stats.values()),
        "trace.exceptions": sum(stat.exceptions for stat in stats.values()),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.accounted_share": self_total / traced_wall,
    })

    report(f"traced run         {traced_items} operations, untraced {untraced_wall:.3f} s, "
           f"traced {traced_wall:.3f} s, overhead x{traced_wall / untraced_wall:.3f}, "
           f"self times account for {100 * self_total / traced_wall:.1f}%")
    report(f"{'span':<44} {'calls':>8} {'self_ms':>10} {'total_ms':>10} {'exc':>4}")
    for name, stat in sorted(stats.items(), key=lambda kv: -kv[1].self_time):
        report(f"{name:<44} {stat.calls:>8} {stat.self_time * 1e3:>10.3f} "
               f"{stat.total * 1e3:>10.3f} {stat.exceptions:>4}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with spans_path.open("w") as fh:
        for span_id, parent, op_id, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id, "name": name,
                                 "start": start, "end": end}) + "\n")
    report(f"spans              first {len(tracer.spans)} written to "
           f"{spans_path.relative_to(ROOT)}")
    attempted = 2 * traced_items + (workload != "cli")  # each item twice, plus a warm-up
    return metrics, attempted, errors


# --- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "prodgeo" / "__init__.py").is_file():
        print(f"benchmark: no prodgeo sources under {ROOT / 'src'}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2

    lines = []

    def report(line):
        lines.append(line)
        print(line, flush=True)

    info = machine()
    report(f"# prodgeo benchmark  workload={args.workload} seed={args.seed} "
           f"seconds={args.seconds:g} trace={args.trace}")
    report("# machine  " + " ".join(f"{k}={v}" for k, v in info.items()))
    calib_before = calibration_ms()
    import workloads as wl
    if args.trace:
        metrics, attempted, errors = traced(args.workload, args.seed, wl, report)
        units = PER_LAYER
    else:
        metrics, attempted, errors = end_to_end(args.workload, args.seed, args.seconds, wl, report)
        units = END_TO_END
    calib_after = calibration_ms()
    report(f"# calibration_ms  before={calib_before:.3f} after={calib_after:.3f} "
           "(fixed pure-Python loop, reported only)")
    report(f"# failed {len(errors)} of {attempted} attempted")
    for error in errors[:5]:
        report(f"#   {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
