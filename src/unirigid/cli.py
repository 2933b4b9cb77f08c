"""Command line front end: simulate, compare, validate.

Exit codes: 0 success, 1 input error, 2 aborted integration (or a failed
comparison / validation run).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checks import SUITES, run_suites
from .errors import (
    GimbalLockError,
    NonFiniteStateError,
    ScenarioParseError,
    ScenarioValidationError,
    UniRigidError,
)
from .dynamics import assemble_inertia
from .geom3 import geodesic_distance, rotation_to_quaternion
from .integrate import DEFAULT_INTEGRATOR, Formulation, IntegratorId, check_route, pin_anchor, run_steps, simulate
from .scenario import Scenario, load_scenario

CSV_HEADER = "t,qw,qx,qy,qz,x,y,z,wx,wy,wz,vx,vy,vz,energy,Lx,Ly,Lz"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def samples_to_csv(samples) -> str:
    """Deterministic CSV text; floats carry 17 significant digits."""
    lines = [CSV_HEADER]
    for s in samples:
        q = rotation_to_quaternion(s.pose.rotation)
        row = [s.t, *q, *s.pose.position, *s.nu.omega, *s.nu.vel, s.energy, *s.l_spatial]
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _drifts(scenario: Scenario, samples) -> "tuple[float, float]":
    """Relative drifts of the energy and of the angular momentum the run conserves.

    That is L about the pin anchor (L - a x R p) on pinned runs, and under
    gravity only the component of L along gravity.
    """
    e = np.array([s.energy for s in samples])
    l = np.array([s.l_spatial for s in samples])
    if scenario.constraint is not None:
        m6 = assemble_inertia(scenario.inertia)
        p = np.array([s.pose.rotation.m @ (m6 @ s.nu.as_array())[3:] for s in samples])
        l = l - np.cross(pin_anchor(scenario), p)
    gravity = scenario.forces.gravity
    if gravity.any():
        l = (l @ (gravity / np.linalg.norm(gravity)))[:, None]
    e_scale = max(abs(e[0]), 1e-30)
    l_scale = max(float(np.linalg.norm(l[0])), 1e-30)
    e_drift = float(np.max(np.abs(e - e[0]))) / e_scale
    l_drift = float(np.max(np.linalg.norm(l - l[0], axis=1))) / l_scale
    return e_drift, l_drift


def _com_position(scenario: Scenario, sample) -> np.ndarray:
    return sample.pose.position + sample.pose.rotation.m @ scenario.inertia.c


def cmd_simulate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        formulation = Formulation(args.formulation) if args.formulation else scenario.run.formulation
        if args.integrator:
            integrator = IntegratorId(args.integrator)
        elif args.formulation:
            integrator = DEFAULT_INTEGRATOR[formulation]
        else:
            integrator = scenario.run.integrator
        dt = args.dt if args.dt is not None else scenario.run.dt
        t_end = args.t_end if args.t_end is not None else scenario.run.t_end
        sample_every = args.sample_every if args.sample_every is not None else scenario.run.sample_every
        run_steps(dt, t_end, sample_every)
        check_route(formulation, integrator, scenario.constraint is not None)
    except (ScenarioParseError, ScenarioValidationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        samples = simulate(scenario, formulation, integrator, dt, t_end, sample_every)
    except (GimbalLockError, NonFiniteStateError) as err:
        print(f"aborted: {err}", file=sys.stderr)
        return 2
    except (ScenarioValidationError, UniRigidError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = Path(args.output) if args.output else Path(f"{scenario.name}-{formulation.value}.csv")
    out.write_text(samples_to_csv(samples))
    e_drift, l_drift = _drifts(scenario, samples)
    print(
        f"t_end={samples[-1].t:.6g} energy_drift={e_drift:.6e} momentum_drift={l_drift:.6e} "
        f"samples={len(samples)} output={out}"
    )
    return 0


def cmd_compare(args) -> int:
    if len(args.formulation) < 2:
        print("error: need at least two --formulation flags to compare", file=sys.stderr)
        return 1
    try:
        scenario = load_scenario(args.scenario)
        formulations = [Formulation(f) for f in args.formulation]
        pick = IntegratorId(args.integrator) if args.integrator else None
        integrators = {f: pick or DEFAULT_INTEGRATOR[f] for f in formulations}
        dt = args.dt if args.dt is not None else scenario.run.dt
        t_end = args.t_end if args.t_end is not None else scenario.run.t_end
        run_steps(dt, t_end, args.sample_every)
        for f in formulations:
            check_route(f, integrators[f], scenario.constraint is not None)
    except (ScenarioParseError, ScenarioValidationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    runs = {}
    for f in formulations:
        try:
            runs[f] = simulate(scenario, f, integrators[f], dt, t_end, args.sample_every)
        except UniRigidError as err:
            print(f"aborted: {f.value}: {err}", file=sys.stderr)
            return 2
        e_drift, l_drift = _drifts(scenario, runs[f])
        print(f"{f.value}: integrator={integrators[f].value} energy_drift={e_drift:.6e} momentum_drift={l_drift:.6e}")

    worst = 0.0
    for i, fa in enumerate(formulations):
        for fb in formulations[i + 1 :]:
            sa, sb = runs[fa], runs[fb]
            n = min(len(sa), len(sb))
            gap = max(
                geodesic_distance(sa[k].pose.rotation, sb[k].pose.rotation) for k in range(n)
            )
            com_gap = max(
                float(np.linalg.norm(_com_position(scenario, sa[k]) - _com_position(scenario, sb[k])))
                for k in range(n)
            )
            worst = max(worst, gap)
            print(f"{fa.value} vs {fb.value}: max_orientation_gap={gap:.6e} rad max_com_gap={com_gap:.6e} m")
    print(f"max_orientation_gap={worst:.6e} tol={args.tol:.6e}")
    return 0 if worst <= args.tol else 2


def cmd_validate(args) -> int:
    names = None
    if args.suite:
        unknown = [s for s in args.suite if s not in SUITES]
        if unknown:
            print(f"error: unknown suite(s) {unknown}; available: {sorted(SUITES)}", file=sys.stderr)
            return 1
        names = args.suite
    results = run_suites(names)
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, passed, detail in results:
        all_ok &= passed
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
