"""Command line front end: simulate, compare, validate.

simulate streams its CSV to the output file from the trajectory's rows, CSV_BLOCK rows at a time.

Exit codes: 0 success, 1 input error, 2 aborted integration (or a failed
comparison / validation run).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .checks import SUITES, conservation_drifts, run_suites
from .errors import GimbalLockError, NonFiniteStateError, ScenarioValidationError, UniRigidError
from .geom3 import geodesic_distance, quaternion_from_matrix
from .integrate import COL_ENERGY, COL_L, COL_NU, COL_R, COL_T, COL_X, ROUTES, Formulation, IntegratorId
from .integrate import check_route, run_steps, simulate
from .scenario import Scenario, load_scenario

CSV_HEADER = "t,qw,qx,qy,qz,x,y,z,wx,wy,wz,vx,vy,vz,energy,Lx,Ly,Lz"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures are one stderr line and exit 1, not 2."""

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message} (usage: {self.prog} -h)\n")
        raise SystemExit(1)


# One row of CSV_HEADER; on Python floats "%.17g" is the text of format(v, ".17g").
CSV_ROW = ",".join(["%.17g"] * 18)
# Rows formatted per write: their text and its floats are the transient of writing a CSV, about 1.3 kB a row.
CSV_BLOCK = 2048


def samples_to_csv(samples, out) -> None:
    """Write the deterministic CSV of a Trajectory to the open text file ``out``, CSV_BLOCK rows at a time.

    Each block's 18 columns are assembled from the rows with numpy and formatted by one ``%``; floats carry 17
    significant digits.
    """
    out.write(CSV_HEADER + "\n")
    for k in range(0, len(samples.rows), CSV_BLOCK):
        r = samples.rows[k : k + CSV_BLOCK]
        block = np.column_stack((r[:, COL_T], quaternion_from_matrix(r[:, COL_R]), r[:, COL_X], r[:, COL_NU],
                                 r[:, COL_ENERGY], r[:, COL_L]))
        out.write((CSV_ROW + "\n") * len(block) % tuple(block.ravel().tolist()))


def formulation_gaps(scenario: Scenario, a, b) -> "tuple[float, float]":
    """Largest geodesic distance and CoM distance |x + R c| over the first min(len) rows of two Trajectories."""
    n, c = min(len(a), len(b)), scenario.inertia.c
    ra, rb = (s.rows[:n, COL_R].reshape(n, 3, 3) for s in (a, b))
    xa, xb = a.rows[:n, COL_X], b.rows[:n, COL_X]
    gap = max(geodesic_distance(ra[k], rb[k]) for k in range(n))
    com_gap = max(float(np.linalg.norm((xa[k] + ra[k] @ c) - (xb[k] + rb[k] @ c))) for k in range(n))
    return gap, com_gap


def _runs(args, scenario: Scenario, formulations) -> "tuple[dict, float, float, int]":
    """Each formulation's integrator, and dt, t_end and sample_every: a command's flags over the scenario's run block.

    The run settings and every formulation's route are checked here, before an output path is tried or a step taken.
    """
    pick = IntegratorId(args.integrator) if args.integrator else None
    integrators = {f: pick or (ROUTES[f][1] if args.formulation else scenario.run.integrator) for f in formulations}
    dt = args.dt if args.dt is not None else scenario.run.dt
    t_end = args.t_end if args.t_end is not None else scenario.run.t_end
    sample_every = args.sample_every if args.sample_every is not None else scenario.run.sample_every
    run_steps(dt, t_end, sample_every)
    for f in formulations:
        check_route(f, integrators[f], scenario)
    return integrators, dt, t_end, sample_every


def _report(err: UniRigidError, prefix: str = "") -> int:
    """Print a failed command's one stderr line; exit 2 for an aborted integration, 1 for any other error."""
    aborted = isinstance(err, (GimbalLockError, NonFiniteStateError))
    print(f"{'aborted' if aborted else 'error'}: {prefix}{err}", file=sys.stderr)
    return 2 if aborted else 1


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    formulation = Formulation(args.formulation) if args.formulation else scenario.run.formulation
    integrators, dt, t_end, sample_every = _runs(args, scenario, [formulation])
    if args.output == "":
        raise ScenarioValidationError("output", "empty path")
    out = Path(args.output) if args.output is not None else Path(f"{scenario.name}-{formulation.value}.csv")
    try:
        created = not out.exists()
        out.open("a").close()  # an output that cannot be written fails here, before any stepping
        if created:
            out.unlink()
    except OSError as err:
        raise ScenarioValidationError("output", str(err)) from err
    samples = simulate(scenario, formulation, integrators[formulation], dt, t_end, sample_every)
    try:
        with out.open("w") as f:
            samples_to_csv(samples, f)
    except OSError as err:
        if created:
            out.unlink(missing_ok=True)
        # A failed write's OSError names no file; name it as a failed open does.
        raise ScenarioValidationError("output", f"{err}: {str(out)!r}" if err.filename is None else str(err)) from err
    e_drift, l_drift = conservation_drifts(scenario, samples)
    print(
        f"t_end={samples[-1].t:.6g} energy_drift={e_drift:.6e} momentum_drift={l_drift:.6e} "
        f"samples={len(samples)} output={out}"
    )
    return 0


def cmd_compare(args) -> int:
    if len(set(args.formulation)) < max(2, len(args.formulation)):
        raise UniRigidError("need at least two --formulation flags to compare, each formulation given once")
    scenario = load_scenario(args.scenario)
    formulations = [Formulation(f) for f in args.formulation]
    integrators, dt, t_end, sample_every = _runs(args, scenario, formulations)
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ScenarioValidationError("tol", f"must be a nonnegative finite number, got {args.tol!r}")

    runs = {}
    for f in formulations:
        try:
            runs[f] = simulate(scenario, f, integrators[f], dt, t_end, sample_every)
        except UniRigidError as err:
            return _report(err, f"{f.value}: ")
        e_drift, l_drift = conservation_drifts(scenario, runs[f])
        print(f"{f.value}: integrator={integrators[f].value} energy_drift={e_drift:.6e} momentum_drift={l_drift:.6e}")

    worst = 0.0
    for i, fa in enumerate(formulations):
        for fb in formulations[i + 1 :]:
            gap, com_gap = formulation_gaps(scenario, runs[fa], runs[fb])
            worst = max(worst, gap)
            print(f"{fa.value} vs {fb.value}: max_orientation_gap={gap:.6e} rad max_com_gap={com_gap:.6e} m")
    print(f"max_orientation_gap={worst:.6e} tol={args.tol:.6e}")
    if worst <= args.tol:
        return 0
    print(f"failed: max_orientation_gap={worst:.6e} exceeds tol={args.tol:.6e}", file=sys.stderr)
    return 2


def cmd_validate(args) -> int:
    unknown = [s for s in args.suite or () if s not in SUITES]
    if unknown:
        raise UniRigidError(f"unknown suite(s) {unknown}; available: {sorted(SUITES)}")
    results = run_suites(args.suite)
    width = max(len(name) for name, _, _ in results)
    for name, passed, detail in results:
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    return 0 if all(passed for _, passed, _ in results) else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args keeps no state between calls."""
    parser = _Parser(prog="unirigid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and write a trajectory CSV")
    sim.add_argument("--scenario", required=True, help="scenario file path or built-in name")
    sim.add_argument("--formulation", choices=[f.value for f in Formulation])
    sim.add_argument("--integrator", choices=[i.value for i in IntegratorId])
    sim.add_argument("--dt", type=float)
    sim.add_argument("--t-end", type=float)
    sim.add_argument("--sample-every", type=int)
    sim.add_argument("--output", help="CSV path (default <name>-<formulation>.csv)")
    sim.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare", help="run several formulations from identical initial data")
    cmp_.add_argument("--scenario", required=True)
    cmp_.add_argument("--formulation", action="append", default=[], choices=[f.value for f in Formulation])
    cmp_.add_argument("--integrator", choices=[i.value for i in IntegratorId], help="override the per-formulation default")
    cmp_.add_argument("--dt", type=float)
    cmp_.add_argument("--t-end", type=float)
    cmp_.add_argument("--sample-every", type=int, default=1)
    cmp_.add_argument("--tol", type=float, default=1e-5, help="orientation gap tolerance in rad")
    cmp_.set_defaults(func=cmd_compare)

    val = sub.add_parser("validate", help="run the built-in invariant suites")
    val.add_argument("--suite", action="append", help="run only the named suite (repeatable)")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    def show(message, category, *where, show_other=warnings.showwarning):
        # A scenario's UserWarning is one stderr line that names its field, not the library's source line.
        if category is not UserWarning:
            return show_other(message, category, *where)
        print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            return args.func(args)
        except UniRigidError as err:
            return _report(err)


if __name__ == "__main__":
    sys.exit(main())
