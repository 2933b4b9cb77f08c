"""Invariant checks: the suites behind the ``validate`` command, and the drift measure.

Each suite returns (passed, detail).  Suites use fixed seeds so a clean build
always reports the same table; the acceptance tests call the same functions
at their own sizes.  ``conservation_drifts`` is the drift that ``simulate``
and ``compare`` print.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Tuple

import numpy as np

from .charts import SE3_STRUCTURE_CONSTANTS, ChartId, Twist, hamel_coefficients
from .dynamics import SpatialInertia, Wrench, kirchhoff_rhs
from .gauss import (
    AccelConstraint,
    FixedPointConstraint,
    constrained_accel,
    gauss_functional,
    steady_precession_rates,
)
from .geom3 import (
    Pose,
    euler_to_rotation,
    exp_so3,
    log_so3,
    rotation_to_euler,
)
from .integrate import COL_ENERGY, COL_L, COL_NU, COL_R, COL_T, Formulation, IntegratorId, pin_anchor, simulate
from .scenario import Scenario, load_scenario


def _random_valid_pose(rng) -> Pose:
    angles = (
        rng.uniform(-math.pi, math.pi),
        rng.uniform(0.2, math.pi - 0.2),
        rng.uniform(-math.pi, math.pi),
    )
    return Pose(euler_to_rotation(angles), rng.normal(size=3))


def check_structure_constants(rng: np.random.Generator, poses: int) -> Tuple[bool, str]:
    """Each chart's Hamel coefficients at random poses against its signature: body -C, spatial +C, Euler 0."""
    c = SE3_STRUCTURE_CONSTANTS
    signatures = {ChartId.BODY_TWIST: -c, ChartId.SPATIAL_TWIST: c, ChartId.EULER_COM: 0.0 * c}
    worst = 0.0
    for _ in range(poses):
        pose = _random_valid_pose(rng)
        for chart, expected in signatures.items():
            worst = max(worst, float(np.max(np.abs(hamel_coefficients(chart, pose) - expected))))
    detail = f"max deviation from the chart signatures (body -C, spatial +C, euler 0) {worst:.3e} over {poses} poses"
    return worst <= 1e-6, detail + " (tol 1e-6)"


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
        nu = Twist(rng.normal(size=3), rng.normal(size=3))
        w = Wrench(rng.normal(size=3), rng.normal(size=3))
        free = kirchhoff_rhs(si, nu, w)
        nu_dot0, _ = constrained_accel(si, nu, w, AccelConstraint.empty())
        worst_free = max(worst_free, float(np.max(np.abs(nu_dot0 - free))))
        k = int(rng.integers(1, 6))
        con = AccelConstraint(rng.normal(size=(k, 6)), rng.normal(size=k))
        nu_dot, _ = constrained_accel(si, nu, w, con)
        g_star = gauss_functional(si.m6, nu_dot, free)
        proj = np.eye(6) - con.a.T @ np.linalg.solve(con.a @ con.a.T, con.a)
        for _ in range(200):
            delta = proj @ rng.normal(size=6)
            dg = gauss_functional(si.m6, nu_dot + delta, free) - g_star
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
        phi, theta, psi = (
            rng.uniform(-math.pi, math.pi),
            rng.uniform(0.05, math.pi - 0.05),
            rng.uniform(-math.pi, math.pi),
        )
        phi_b, theta_b, psi_b = rotation_to_euler(euler_to_rotation((phi, theta, psi)))
        worst = max(
            worst,
            abs(theta_b - theta),
            abs(math.remainder(phi_b - phi, 2 * math.pi)),
            abs(math.remainder(psi_b - psi, 2 * math.pi)),
        )
    for _ in range(200):
        w = rng.normal(size=3)
        w *= rng.uniform(0.0, 3.0) / np.linalg.norm(w)
        worst = max(worst, float(np.linalg.norm(log_so3(exp_so3(w)) - w)))
    return worst <= 1e-10, f"max round-trip residual {worst:.3e} (tol 1e-10)"


def check_axisymmetric_analytic() -> Tuple[bool, str]:
    sc = load_scenario("axisymmetric-free")
    samples = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 10.0, sample_every=10)
    t, omega = samples.rows[:, COL_T], samples.rows[:, COL_NU]
    phase = np.unwrap(np.arctan2(omega[:, 1], omega[:, 0]))
    measured = (phase[-1] - phase[0]) / (t[-1] - t[0])
    expected = (2.0 - 1.0) / 1.0 * 1.0  # (J3 - J1)/J1 * omega3
    rel = abs(measured - expected) / abs(expected)
    return rel <= 1e-6, f"transverse rotation rate {measured:.9f} vs {expected} (rel err {rel:.3e}, tol 1e-6)"


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
        scenario = dataclasses.replace(sc, initial_twist=Twist(omega, vel), constraint=pin)
        samples = simulate(scenario, Formulation.GAUSS, IntegratorId.LIE_RK4, 1e-3, 5.0, sample_every=10)
        theta = np.array([math.acos(max(-1.0, min(1.0, r22))) for r22 in samples.rows[:, COL_R][:, 8].tolist()])
        dev = float(np.max(np.abs(theta - theta0)))
        ok = ok and dev <= 1e-4
        details.append(f"{label} root {rate:.6f}: max|theta - theta0| = {dev:.3e}")
    return ok, "; ".join(details) + " (tol 1e-4)"


def conservation_drifts(scenario: Scenario, samples) -> Tuple[float, float]:
    """Relative drifts of the energy and of the angular momentum the run conserves, from a Trajectory's rows.

    That is L about the pin anchor (L - a x R p) on pinned runs, and under
    gravity only the component of L along gravity.
    """
    rows = samples.rows
    e, l = rows[:, COL_ENERGY], rows[:, COL_L]
    if scenario.constraint is not None:
        # Space-frame linear momentum R (M nu)[3:] of every sample, as one stacked product.
        r = rows[:, COL_R].reshape(-1, 3, 3)
        body_p = rows[:, COL_NU] @ scenario.inertia.m6[3:].T
        l = l - np.cross(pin_anchor(scenario), np.einsum("nij,nj->ni", r, body_p))
    (e, e_floor), (l, l_floor), (gravity, _) = _scaled(e), _scaled(l), _scaled(scenario.forces.gravity)
    if gravity.any():
        l = (l @ (gravity / np.linalg.norm(gravity)))[:, None]
    e_drift = float(np.max(np.abs(e - e[0]))) / max(abs(e[0]), e_floor)
    if abs(e[0]) <= e_floor:  # a start at zero energy: relative to the run's largest kinetic energy, when not 0
        nu, energy = rows[:, COL_NU], rows[:, COL_ENERGY]
        kinetic = 0.5 * float(np.max(np.einsum("ni,ij,nj->n", nu, scenario.inertia.m6, nu)))
        e_drift = float(np.max(np.abs(energy - energy[0]))) / kinetic if kinetic > 0.0 else e_drift
    l_drift = float(np.max(np.linalg.norm(l - l[0], axis=1))) / max(float(np.linalg.norm(l[0])), l_floor)
    return e_drift, l_drift


def _scaled(a: np.ndarray) -> "tuple[np.ndarray, float]":
    """a times 2^-k, its largest |entry| below 1, and the floor 1e-30 times 2^-k: exact, so ratios keep their bits."""
    k = math.frexp(float(np.max(np.abs(a))))[1]
    return np.ldexp(a, -k), math.ldexp(1e-30, -k)


SUITES: Dict[str, Callable[[], Tuple[bool, str]]] = {
    "se3-structure-constants": lambda: check_structure_constants(np.random.default_rng(101), 20),
    "gauss-minimality": check_gauss_minimality,
    "euler-roundtrip": check_euler_roundtrip,
    "axisymmetric-analytic": check_axisymmetric_analytic,
    "steady-precession": check_steady_precession,
}


def run_suites(names=None):
    """Run the named suites (all when None); returns a list of (name, passed, detail)."""
    selected = list(SUITES) if names is None else list(names)
    results = []
    for name in selected:
        passed, detail = SUITES[name]()
        results.append((name, passed, detail))
    return results
