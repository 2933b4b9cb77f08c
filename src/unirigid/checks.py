"""Self-contained invariant suites behind the ``validate`` command.

Each suite returns (passed, detail).  Suites use fixed seeds so a clean build
always reports the same table.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Tuple

import numpy as np

from .charts import ChartId, Frame, Twist, hamel_coefficients
from .dynamics import SpatialInertia, Wrench, kirchhoff_rhs
from .gauss import (
    AccelConstraint,
    FixedPointConstraint,
    constrained_accel,
    gauss_functional,
    steady_precession_rates,
)
from .geom3 import (
    EulerAngles,
    Pose,
    euler_to_rotation,
    exp_so3,
    log_so3,
    rotation_to_euler,
)
from .integrate import Formulation, IntegratorId, simulate
from .scenario import load_scenario


def _levi_civita(i, j, k):
    return ((i - j) * (j - k) * (k - i)) // 2


def _structure_constant_table() -> np.ndarray:
    c = np.zeros((6, 6, 6))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                eps = _levi_civita(i, j, k)
                c[k, i, j] = eps
                c[k + 3, i, j + 3] = eps
                c[k + 3, i + 3, j] = eps
    return c


def _random_valid_pose(rng) -> Pose:
    e = EulerAngles(
        rng.uniform(-math.pi, math.pi),
        rng.uniform(0.2, math.pi - 0.2),
        rng.uniform(-math.pi, math.pi),
    )
    return Pose(euler_to_rotation(e), rng.normal(size=3))


def check_structure_constants() -> Tuple[bool, str]:
    rng = np.random.default_rng(101)
    expected = -_structure_constant_table()
    worst = 0.0
    for _ in range(20):
        gamma = hamel_coefficients(ChartId.BODY_TWIST, _random_valid_pose(rng))
        worst = max(worst, float(np.max(np.abs(gamma - expected))))
    return worst <= 1e-6, f"max deviation from algebra table {worst:.3e} (tol 1e-6)"


def check_gauss_minimality() -> Tuple[bool, str]:
    rng = np.random.default_rng(202)
    worst_decrease = 0.0
    worst_free = 0.0
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        j = a @ a.T + 0.5 * np.eye(3)
        lam = np.linalg.eigvalsh(j)
        if lam[2] > lam[0] + lam[1]:
            j = j + (lam[2] - lam[0] - lam[1] + 0.1) * np.eye(3)
        si = SpatialInertia(mass=float(rng.uniform(0.5, 2.0)), j=j)
        nu = Twist(rng.normal(size=3), rng.normal(size=3), Frame.BODY)
        w = Wrench(rng.normal(size=3), rng.normal(size=3), Frame.BODY)
        free = kirchhoff_rhs(si, nu, w)
        nu_dot0, _ = constrained_accel(si, nu, w, AccelConstraint.empty())
        worst_free = max(worst_free, float(np.max(np.abs(nu_dot0 - free))))
        k = int(rng.integers(1, 6))
        con = AccelConstraint(rng.normal(size=(k, 6)), rng.normal(size=k))
        nu_dot, _ = constrained_accel(si, nu, w, con)
        g_star = gauss_functional(si, nu_dot, free)
        proj = np.eye(6) - con.a.T @ np.linalg.solve(con.a @ con.a.T, con.a)
        for _ in range(200):
            delta = proj @ rng.normal(size=6)
            dg = gauss_functional(si, nu_dot + delta, free) - g_star
            worst_decrease = min(worst_decrease, float(dg))
    ok = worst_decrease >= -1e-12 and worst_free <= 1e-12
    return ok, (
        f"largest functional decrease {worst_decrease:.3e} (floor -1e-12); "
        f"unconstrained mismatch {worst_free:.3e} (tol 1e-12)"
    )


def check_euler_roundtrip() -> Tuple[bool, str]:
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        e = EulerAngles(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(0.05, math.pi - 0.05),
            rng.uniform(-math.pi, math.pi),
        )
        back = rotation_to_euler(euler_to_rotation(e))
        worst = max(
            worst,
            abs(back.theta - e.theta),
            abs(math.remainder(back.phi - e.phi, 2 * math.pi)),
            abs(math.remainder(back.psi - e.psi, 2 * math.pi)),
        )
    for _ in range(200):
        w = rng.normal(size=3)
        w *= rng.uniform(0.0, 3.0) / np.linalg.norm(w)
        worst = max(worst, float(np.linalg.norm(log_so3(exp_so3(w)) - w)))
    return worst <= 1e-10, f"max round-trip residual {worst:.3e} (tol 1e-10)"


def check_axisymmetric_analytic() -> Tuple[bool, str]:
    sc = load_scenario("axisymmetric-free")
    samples = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 10.0, sample_every=10)
    t = np.array([s.t for s in samples])
    omega = np.array([s.nu.omega for s in samples])
    phase = np.unwrap(np.arctan2(omega[:, 1], omega[:, 0]))
    measured = (phase[-1] - phase[0]) / (t[-1] - t[0])
    expected = (2.0 - 1.0) / 1.0 * 1.0  # (J3 - J1)/J1 * omega3
    rel = abs(measured - expected) / abs(expected)
    return rel <= 1e-6, f"transverse rotation rate {measured:.9f} vs {expected} (rel err {rel:.3e})"


def check_steady_precession() -> Tuple[bool, str]:
    sc = load_scenario("heavy-top-steady")
    theta0 = 0.5
    spin = 10.0
    l = 0.3
    i1_pivot = 0.4 + sc.inertia.mass * l * l
    details = []
    ok = True
    for label, rate in zip(("slow", "fast"), steady_precession_rates(i1_pivot, 0.3, sc.inertia.mass, l, theta0, spin)):
        omega = np.array([0.0, rate * math.sin(theta0), spin])
        vel = np.array([l * omega[1], 0.0, 0.0])
        pin = FixedPointConstraint(np.array([0.0, 0.0, -l]))
        scenario = dataclasses.replace(sc, initial_twist=Twist(omega, vel, Frame.BODY), constraint=pin)
        samples = simulate(scenario, Formulation.GAUSS, IntegratorId.LIE_RK4, 1e-3, 5.0, sample_every=10)
        theta = np.array([math.acos(max(-1.0, min(1.0, s.pose.rotation.m[2, 2]))) for s in samples])
        dev = float(np.max(np.abs(theta - theta0)))
        ok = ok and dev <= 1e-4
        details.append(f"{label} root {rate:.6f}: max|theta - theta0| = {dev:.3e}")
    return ok, "; ".join(details) + " (tol 1e-4)"


SUITES: Dict[str, Callable[[], Tuple[bool, str]]] = {
    "se3-structure-constants": check_structure_constants,
    "gauss-minimality": check_gauss_minimality,
    "euler-roundtrip": check_euler_roundtrip,
    "axisymmetric-analytic": check_axisymmetric_analytic,
    "steady-precession": check_steady_precession,
}


def run_suites(names=None):
    """Run the named suites (all when None); yields (name, passed, detail)."""
    selected = list(SUITES) if names is None else list(names)
    results = []
    for name in selected:
        passed, detail = SUITES[name]()
        results.append((name, passed, detail))
    return results
