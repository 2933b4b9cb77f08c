"""Benchmark for the unirigid engine: one workload, one run, every metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: compare-euler-top, pinned-csv, ensemble-random (see NOTES.md).
Single process, single thread, a closed loop with one caller; BLAS is pinned
to one thread before numpy loads.

--trace 0 measures the end-to-end metrics with the engine untouched.
--trace 1 repeats a fixed block of work, alternately untraced and traced
(functions wrapped from outside, see tracer.py), and reports the per-layer
metrics plus the tracing overhead; its spans go to .perfbench_out/.

Every metric is printed by name with its unit, with provenance; the last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# Fixed reference time for calibration_loop(), near its median on the host that
# measured the seed baseline (NOTES.md); steps_per_ref_s is rescaled to it.
REF_CALIB_S = 3.5e-3

# Runs in a fresh interpreter: import the package and load the first scenario.
SETUP_CHILD = """
import json, sys, time
src, kind, arg = sys.argv[1:4]
data = json.loads(arg) if kind == "parse" else None
sys.path.insert(0, src)
t0 = time.perf_counter()
import unirigid
if kind == "load":
    unirigid.scenario.load_scenario(arg)
else:
    unirigid.scenario.parse_scenario(data)
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "orientation_gap_rad": "rad",
}
FORMULATIONS = ("newton-euler", "kirchhoff", "lagrange", "gauss")
PER_LAYER_UNITS = {
    "integrate.steps": "count",
    "dynamics.rhs_per_step": "count",
    "gauss.constrained_accel6_calls": "count",
    "geom3.rotation_new_per_step": "count",
    "dynamics.spd_factor_calls_per_step": "count",
    "cli.csv_bytes": "count",
    "integrate.step_self_us": "us",
    "integrate.simulate_self_us_per_step": "us",
    "geom3.exp_so3_us": "us",
    "geom3.euler_to_rotation_us": "us",
    "geom3.rotation_to_euler_us": "us",
    "geom3.geodesic_distance_us": "us",
    "charts.euler_rate_matrix_us": "us",
    "charts.chart_from_body_twist_us": "us",
    **{f"dynamics.rhs_self_us.{f}": "us" for f in FORMULATIONS},
    "gauss.constrained_accel6_us": "us",
    "cli.samples_to_csv_us_per_row": "us",
    "scenario.parse_us": "us",
    "integrate.make_rhs_us": "us",
    "cli.main_self_s": "s",
    "trace.overhead_frac": "ratio",
}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over the package sources and scenarios: identifies the code measured."""
    h = hashlib.sha256()
    pkg = SRC / "unirigid"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def measure_setup(workload) -> float:
    """Median over fresh interpreters of: import unirigid + load the first scenario."""
    kind, arg = workload.first_scenario()
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first run may compile bytecode: discarded
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), kind, arg],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def run_op(workload, i: int):
    """One operation; an exception counts as a failed operation."""
    from workloads import OpResult

    t0 = perf_counter()
    try:
        return workload.run(i)
    except Exception:  # the loop must go on: record and count the failure
        return OpResult(perf_counter() - t0, 0, False, detail=traceback.format_exc(limit=3))


def report_failures(results) -> None:
    for i, r in enumerate(results):
        if not r.ok:
            print(f"op {i} failed: {r.detail}", file=sys.stderr)


_EYE3 = np.eye(3)


@dataclass(frozen=True)
class _Pair:
    r: object
    x: object

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))


def calibration_loop() -> float:
    """Fixed work shaped like the engine's (small arrays, a frozen dataclass,
    3x3 products, math calls) that uses no unirigid code."""
    r, x, acc = np.eye(3), np.zeros(3), 0.0
    for i in range(300):
        t = i * 1e-3
        w = np.array([math.sin(t), math.cos(t), t])
        p = _Pair(r @ _EYE3, x + r @ w)
        d = p.r.T @ p.r
        acc += float((d * d).sum()) + float(np.concatenate([w, p.x])[4])
    return acc


def calibrate() -> float:
    """Seconds one calibration_loop() takes now.

    A shared host can run the same code up to ~1.8x slower for seconds or
    minutes at a time.  Timed next to every operation, the loop tracks that
    speed; operation time divided by it follows the program, not the host.
    """
    t0 = perf_counter()
    calibration_loop()
    return perf_counter() - t0


def tail_percentile(values):
    """Highest of p99.9/p99/p95/p90 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, float(statistics.quantiles(values, n=1000)[round(p * 10) - 1])
    return None, None


def untraced_run(workload, args):
    import tracer

    if not tracer.is_pristine():
        raise RuntimeError("untraced run found traced wrappers installed")
    setup_s = measure_setup(workload)
    min_ops = getattr(workload, "pool_size", 1)
    results, calib = [], [calibrate()]
    t_start = perf_counter()
    while len(results) < min_ops or perf_counter() - t_start < args.seconds:
        results.append(run_op(workload, len(results)))
        calib.append(calibrate())
    # Each operation is rescaled by the calibrations just before and after it.
    ref_rates = [
        r.steps / r.wall_s * 0.5 * (calib[i] + calib[i + 1]) / REF_CALIB_S for i, r in enumerate(results)
    ]
    walls_ms = [1e3 * r.wall_s for r in results]
    failed = sum(not r.ok for r in results)
    metrics = {
        "setup_s": setup_s,
        "steps_per_ref_s": statistics.median(ref_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - failed / len(results),
        "orientation_gap_rad": workload.orientation_gap(results),
    }
    extra = [
        ("error_rate", failed / len(results), "ratio", f"{failed} of {len(results)} operations failed"),
        ("steps_per_s", sum(r.steps for r in results) / sum(r.wall_s for r in results), "1/s",
         "all steps over all timed wall, not rescaled"),
        ("calibration_ms_p50", 1e3 * statistics.median(calib), "ms", f"reference {1e3 * REF_CALIB_S:g} ms"),
        ("op_ms_p50", statistics.median(walls_ms), "ms", f"n={len(results)}"),
    ]
    p, tail = tail_percentile(walls_ms)
    if p is not None:
        beyond = sum(w > tail for w in walls_ms)
        extra.append((f"op_ms_p{p:g}", tail, "ms", f"n={len(results)}, {beyond} beyond"))
    return results, metrics, END_TO_END_UNITS, extra


def traced_run(workload, args):
    """Alternate untraced and traced passes over one fixed block of operations."""
    import tracer as tracing

    tr = tracing.Tracer()
    block = range(workload.trace_block)
    results, ratios, traced_blocks, csv_rows, csv_bytes = [], [], 0, 0, 0
    t_start = perf_counter()
    while not ratios or perf_counter() - t_start < args.seconds:
        walls = {}
        for traced in (False, True) if len(ratios) % 2 == 0 else (True, False):
            calib = calibrate()
            if traced:
                with tr.patched():
                    done = [run_op(workload, i) for i in block]
                traced_blocks += 1
                csv_rows += sum(r.csv_rows for r in done)
                csv_bytes = sum(r.csv_bytes for r in done)
            else:
                done = [run_op(workload, i) for i in block]
            # In calibration units, so a host slow phase does not read as overhead.
            walls[traced] = sum(r.wall_s for r in done) / (0.5 * (calib + calibrate()))
            results += done
        ratios.append(walls[True] / walls[False] - 1.0)
    if not tracing.is_pristine():
        raise RuntimeError("traced wrappers were not restored")

    OUT.mkdir(exist_ok=True)
    tr.save(OUT / f"trace-{workload.name}.npz")
    s = tr.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def calls(name):
        return s.get(name, zero)["calls"]

    def mean_us(name, key="total_s"):
        c = s.get(name, zero)
        return 1e6 * c[key] / c["calls"] if c["calls"] else 0.0

    steps = calls("integrate.step")
    per_step = max(steps, 1)
    rhs_calls = sum(calls(f"dynamics.rhs.{f}") for f in FORMULATIONS)
    csv = s.get("cli.samples_to_csv", zero)
    metrics = {
        "integrate.steps": steps / traced_blocks,
        "dynamics.rhs_per_step": rhs_calls / per_step,
        "gauss.constrained_accel6_calls": calls("gauss.constrained_accel6") / traced_blocks,
        "geom3.rotation_new_per_step": tr.counts.get(tracing.ROTATION_NEW, 0) / per_step,
        "dynamics.spd_factor_calls_per_step": calls("dynamics.spd_factor") / per_step,
        "cli.csv_bytes": csv_bytes,
        "integrate.step_self_us": mean_us("integrate.step", "self_s"),
        "integrate.simulate_self_us_per_step": 1e6 * s.get("integrate.simulate", zero)["self_s"] / per_step,
        "geom3.exp_so3_us": mean_us("geom3.exp_so3"),
        "geom3.euler_to_rotation_us": mean_us("geom3.euler_to_rotation"),
        "geom3.rotation_to_euler_us": mean_us("geom3.rotation_to_euler"),
        "geom3.geodesic_distance_us": mean_us("geom3.geodesic_distance"),
        "charts.euler_rate_matrix_us": mean_us("charts.euler_rate_matrix"),
        "charts.chart_from_body_twist_us": mean_us("charts.chart_from_body_twist"),
        **{f"dynamics.rhs_self_us.{f}": mean_us(f"dynamics.rhs.{f}", "self_s") for f in FORMULATIONS},
        "gauss.constrained_accel6_us": mean_us("gauss.constrained_accel6"),
        "cli.samples_to_csv_us_per_row": 1e6 * csv["total_s"] / csv_rows if csv_rows else 0.0,
        "scenario.parse_us": mean_us("scenario.parse_scenario"),
        "integrate.make_rhs_us": mean_us("integrate.make_rhs"),
        "cli.main_self_s": mean_us("cli.main", "self_s") / 1e6,
        "trace.overhead_frac": statistics.median(ratios),
    }
    extra = [
        ("trace.blocks", traced_blocks, "count", f"{len(block)} operations per block"),
        ("trace.spans", len(tr.name), "count", f"written to {OUT.name}/trace-{workload.name}.npz"),
    ]
    return results, metrics, PER_LAYER_UNITS, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unirigid" / "__init__.py").is_file():
        print(f"error: no unirigid sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = traced_run if args.trace else untraced_run
        results, metrics, units, extra = run(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report_failures(results)
    failed = sum(not r.ok for r in results)
    print(f"# provenance {json.dumps(provenance(args), sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:<14.6g} {units[name]}")
    for name, value, unit, note in extra:
        print(f"{name:<40} {value:<14.6g} {unit}  ({note})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
