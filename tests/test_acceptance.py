"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  These tests are deliberately end-to-end: they drive the shipped
scenario files, the public solver APIs, and the command line.
"""

import itertools
import json
import math
import time

import numpy as np

from helpers import make_scenario, random_inertia, reduced_heavy_top_rotations

from unirigid.charts import Twist
from unirigid.checks import (
    check_axisymmetric_analytic,
    check_steady_precession,
    check_structure_constants,
    conservation_drifts,
)
from unirigid.cli import formulation_gaps, main
from unirigid.dynamics import Wrench, assemble_inertia, kirchhoff_rhs
from unirigid.gauss import AccelConstraint, constrained_accel, gauss_functional
from unirigid.geom3 import Pose, geodesic_distance
from unirigid.integrate import Formulation, IntegratorId, simulate
from unirigid.scenario import load_scenario

RNG = np.random.default_rng(14142135)

COMPARE_INTEGRATOR = {
    Formulation.NEWTON_EULER: IntegratorId.LIE_RK4,
    Formulation.KIRCHHOFF: IntegratorId.LIE_RK4,
    Formulation.LAGRANGE: IntegratorId.RK4,
}


def report(criterion, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_formulation_equivalence():
    sc = load_scenario("euler-top")
    gaps = {}
    runtime_ok = True
    runtimes = []
    for dt in (1e-3, 5e-4):
        runs = {}
        for f, integ in COMPARE_INTEGRATOR.items():
            t0 = time.perf_counter()
            runs[f] = simulate(sc, f, integ, dt, 10.0, sample_every=20)
            elapsed = time.perf_counter() - t0
            if dt == 1e-3:
                runtimes.append(elapsed)
                runtime_ok &= elapsed < 5.0
        gaps[dt] = max(formulation_gaps(sc, runs[fa], runs[fb])[0] for fa, fb in itertools.combinations(runs, 2))
    shrink = gaps[1e-3] / gaps[5e-4]
    passed = gaps[1e-3] <= 1e-5 and shrink >= 8.0 and runtime_ok
    report(
        1,
        passed,
        f"max pairwise orientation gap {gaps[1e-3]:.3e} rad (tol 1e-5), "
        f"shrink at dt=5e-4: {shrink:.1f}x (need >= 8), "
        f"runtimes {['%.2f s' % r for r in runtimes]} (each < 5 s)",
    )


def test_criterion_2_gauss_as_oracle():
    worst_rhs = 0.0
    worst_decrease = 0.0
    m_pert = 1000
    for _ in range(1000):
        si = random_inertia(RNG)
        nu = Twist(RNG.normal(size=3), RNG.normal(size=3))
        w = Wrench(RNG.normal(size=3), RNG.normal(size=3))
        free = kirchhoff_rhs(si, nu, w)
        nu_dot, lam = constrained_accel(si, nu, w, AccelConstraint.empty())
        worst_rhs = max(worst_rhs, float(np.max(np.abs(nu_dot - free))))
        # 1000 admissible perturbations per state (k = 0: all of R^6).
        m6 = assemble_inertia(si)
        deltas = RNG.normal(size=(m_pert, 6))
        g_star = gauss_functional(m6, nu_dot, free)
        diffs = deltas + (nu_dot - free)
        g_pert = 0.5 * np.einsum("ij,jk,ik->i", diffs, m6, diffs)
        worst_decrease = min(worst_decrease, float(np.min(g_pert) - g_star))
    passed = worst_rhs <= 1e-12 and worst_decrease >= -1e-12
    report(
        2,
        passed,
        f"gauss(k=0) vs kirchhoff max entrywise gap {worst_rhs:.3e} (tol 1e-12); "
        f"largest functional decrease {worst_decrease:.3e} over 1000x1000 perturbations "
        f"(floor -1e-12)",
    )


def test_criterion_3_structure_constants():
    report(3, *check_structure_constants(RNG, 100))


def test_criterion_4_axisymmetric_analytic_rate():
    report(4, *check_axisymmetric_analytic())


def test_criterion_5_conservation():
    # Free bodies conserve energy and L; the pinned tops conserve energy and the
    # vertical L about the pin (gravity torques the other components).
    failures = []
    details = []
    for name in ["free-sphere", "euler-top", "dzhanibekov", "axisymmetric-free",
                 "heavy-top-steady", "heavy-top-generic"]:
        sc = load_scenario(name)
        samples = simulate(sc, sc.run.formulation, sc.run.integrator, 1e-3, 10.0, sample_every=50)
        e_drift, l_drift = conservation_drifts(sc, samples)
        details.append(f"{name}: dE={e_drift:.1e} dL={l_drift:.1e}")
        if e_drift > 1e-8 or l_drift > 1e-8:
            failures.append(name)
    report(5, not failures, "; ".join(details) + " (all tol 1e-8 over 10 s)")


def test_criterion_6_heavy_top():
    ok, steady = check_steady_precession()

    gen = load_scenario("heavy-top-generic")
    dt, t_end = 1e-3, 5.0
    gauss_run = simulate(gen, Formulation.GAUSS, IntegratorId.LIE_RK4, dt, t_end, sample_every=1)
    omega0 = gen.initial_twist.omega
    th0 = 0.6
    st, ct = math.sin(th0), math.cos(th0)
    qdot0 = np.array([omega0[1] / st, omega0[0], omega0[2] - ct * omega0[1] / st])
    rotations = reduced_heavy_top_rotations(
        gen.inertia, gen.constraint, gen.forces.gravity,
        np.array([0.0, th0, 0.0]), qdot0, dt, t_end,
    )
    gap = max(geodesic_distance(s.pose.rotation, r) for s, r in zip(gauss_run, rotations))
    ok &= gap <= 1e-5
    report(6, ok, f"{steady}; gauss vs rotation-only lagrange route gap {gap:.2e} (tol 1e-5)")


def test_criterion_7_integrator_orders():
    j = np.diag([1.0, 1.6, 2.2])
    omega0 = [4.0, 2.8, 1.6]
    from helpers import orientation_taking

    pose = Pose(orientation_taking(j @ np.asarray(omega0), [0.0, 0.0, 1.0]), np.zeros(3))
    sc = make_scenario("order", 1.0, j, omega0, pose=pose)

    def err(formulation, integrator, dt):
        a = simulate(sc, formulation, integrator, dt, 1.0, sample_every=10**9)[-1]
        b = simulate(sc, formulation, integrator, dt / 2.0, 1.0, sample_every=10**9)[-1]
        return geodesic_distance(a.pose.rotation, b.pose.rotation) + float(
            np.linalg.norm(a.nu.as_array() - b.nu.as_array())
        )

    cases = [
        ("lie-rk4", Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 16.0),
        ("rk4", Formulation.LAGRANGE, IntegratorId.RK4, 16.0),
        ("lie-euler", Formulation.KIRCHHOFF, IntegratorId.LIE_EULER, 2.0),
    ]
    details = []
    ok = True
    for label, formulation, integrator, ideal in cases:
        errs = [err(formulation, integrator, dt) for dt in (4e-3, 2e-3, 1e-3)]
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        in_band = all(0.8 * ideal <= r <= 1.2 * ideal for r in ratios)
        ok &= in_band
        details.append(f"{label}: ratios {ratios[0]:.2f}, {ratios[1]:.2f} (ideal {ideal:g} +/- 20%)")
    report(7, ok, "; ".join(details))


def test_criterion_8_robustness(tmp_path, capsys):
    gimbal = {
        "name": "gimbal-crossing",
        "inertia": {"mass": 1.0, "inertia": [1.0, 1.2, 1.5]},
        "initial": {"orientation": {"euler_zxz": [0.0, 0.25, 0.0]}, "omega": [-1.0, 0.0, 0.0]},
        "forces": {"gravity": [0.0, 0.0, 0.0]},
        "run": {"formulation": "lagrange", "integrator": "rk4", "dt": 0.001, "t_end": 1.0},
    }
    path = tmp_path / "gimbal.json"
    path.write_text(json.dumps(gimbal))
    code = main(["simulate", "--scenario", str(path), "--output", str(tmp_path / "g.csv")])
    err = capsys.readouterr().err
    gimbal_ok = code == 2 and "gimbal lock at t=" in err

    bad = {"inertia": {"mass": 1.0, "inertia": [1.0, 1.0, 3.0]}}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code2 = main(["simulate", "--scenario", str(bad_path)])
    err2 = capsys.readouterr().err
    invalid_ok = code2 == 1 and "inertia triangle inequality" in err2

    with capsys.disabled():
        report(
            8,
            gimbal_ok and invalid_ok,
            f"gimbal-lock run exited 2 with diagnostic {err.strip()!r}; "
            f"invalid scenario exited 1 naming {'inertia triangle inequality'!r}",
        )
