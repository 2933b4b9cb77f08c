"""The three benchmark workloads, their inputs and their correctness checks.

Every workload drives the engine from outside, through its public entry
points (``cli.main``, ``scenario.parse_scenario``, ``integrate.simulate``),
looked up as module attributes at call time so the traced run sees its
wrappers.  ``run(i)`` performs operation ``i``, times only the program's
work, then checks the output; checks never count towards the timed wall.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from unirigid import cli, integrate, scenario

CSV_HEADER = "t,qw,qx,qy,qz,x,y,z,wx,wy,wz,vx,vy,vz,energy,Lx,Ly,Lz"


@dataclass
class OpResult:
    wall_s: float
    steps: int  # integrator steps the program reported back
    ok: bool
    gap_rad: float = math.nan  # orientation gap between routes that should agree
    csv_rows: int = 0
    csv_bytes: int = 0
    detail: str = ""


# --- rotation helpers, independent of the engine --------------------------------


def euler_zxz_matrix(phi, theta, psi) -> np.ndarray:
    """Rz(phi) Rx(theta) Rz(psi)."""
    cf, sf = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(psi), math.sin(psi)
    return np.array(
        [
            [cf * cp - sf * ct * sp, -cf * sp - sf * ct * cp, sf * st],
            [sf * cp + cf * ct * sp, -sf * sp + cf * ct * cp, -cf * st],
            [st * sp, st * cp, ct],
        ]
    )


def quaternions_to_matrices(q: np.ndarray) -> np.ndarray:
    """(n, 4) unit quaternions (w, x, y, z) to (n, 3, 3) rotation matrices."""
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        -2,
    )


def rotation_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic angle between stacked rotations, via atan2 (no cut at pi)."""
    m = np.swapaxes(a, -1, -2) @ b
    s = np.stack([m[..., 2, 1] - m[..., 1, 2], m[..., 0, 2] - m[..., 2, 0], m[..., 1, 0] - m[..., 0, 1]], -1)
    trace = m[..., 0, 0] + m[..., 1, 1] + m[..., 2, 2]
    return np.arctan2(0.5 * np.linalg.norm(s, axis=-1), 0.5 * (trace - 1.0))


def _capture(argv):
    """cli.main(argv) with its output captured; returns (exit code, output, wall)."""
    buf = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    wall = perf_counter() - t0
    return code, buf.getvalue(), wall


# --- compare-euler-top -----------------------------------------------------------


class CompareEulerTop:
    """``unirigid compare`` on euler-top across the three free formulations.

    compare prints no step count.  A formulation's drift line is printed only
    after its ``simulate`` returned, and ``simulate`` either completes all
    round(t_end/dt) steps or raises, so steps are counted from those lines.
    """

    name = "compare-euler-top"
    scenario_name = "euler-top"
    formulations = ("newton-euler", "kirchhoff", "lagrange")
    dt, t_end, sample_every = 1e-3, 0.5, 20
    trace_block = 1

    def __init__(self, seed: int, workdir: Path):
        self.argv = ["compare", "--scenario", self.scenario_name, "--dt", repr(self.dt),
                     "--t-end", repr(self.t_end), "--sample-every", str(self.sample_every)]
        for f in self.formulations:
            self.argv += ["--formulation", f]
        self.n_steps = int(round(self.t_end / self.dt))

    def first_scenario(self):
        return ("load", self.scenario_name)

    def run(self, i: int) -> OpResult:
        code, out, wall = _capture(self.argv)
        done = [f for f in self.formulations if re.search(rf"^{re.escape(f)}: integrator=", out, re.M)]
        found = re.search(r"^max_orientation_gap=(\S+) tol=", out, re.M)
        gap = float(found.group(1)) if found else math.nan
        ok = code == 0 and len(done) == len(self.formulations) and found is not None
        detail = "" if ok else f"exit {code}: {out.strip()[-300:]}"
        return OpResult(wall, len(done) * self.n_steps, ok, gap, detail=detail)

    def orientation_gap(self, results) -> float:
        return max((r.gap_rad for r in results if r.ok), default=0.0)


# --- pinned-csv ------------------------------------------------------------------


class PinnedCsv:
    """``unirigid simulate`` on heavy-top-generic (gauss / lie-rk4, every step sampled).

    The CSV is checked against an independent route: the rotation-only
    Lagrange equations of the pinned top in Z-X-Z angles, integrated here
    with classical RK4 at the same step, computed once per run.
    """

    name = "pinned-csv"
    scenario_name = "heavy-top-generic"
    t_end = 0.5
    trace_block = 1
    # Fixed from the seed measurement (see NOTES.md); never widened to pass.
    energy_drift_bound = 1.2e-12
    pin_drift_bound = 2.5e-11
    gap_bound = 1e-10

    def __init__(self, seed: int, workdir: Path):
        spec = json.loads(scenario.resolve_scenario_path(self.scenario_name).read_text())
        run = spec["run"]
        self.dt = float(run["dt"])
        self.n_steps = int(round(self.t_end / self.dt))
        self.r_b = np.array(spec["constraint"]["point"], dtype=float)
        self.output = workdir / "pinned.csv"
        self.argv = ["simulate", "--scenario", self.scenario_name, "--t-end", repr(self.t_end),
                     "--sample-every", "1", "--output", str(self.output)]
        self.reference = reduced_top_rotations(spec, self.dt, self.n_steps)

    def first_scenario(self):
        return ("load", self.scenario_name)

    def run(self, i: int) -> OpResult:
        code, out, wall = _capture(self.argv)
        if code != 0:
            return OpResult(wall, 0, False, detail=f"exit {code}: {out.strip()[-300:]}")
        text = self.output.read_text()
        lines = text.splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        steps = len(rows) - 1
        problems = []
        if lines[0] != CSV_HEADER:
            problems.append(f"header {lines[0]!r}")
        if len(rows) != self.n_steps + 1:
            problems.append(f"{len(rows)} rows for {self.n_steps} steps")
        if rows[-1, 0] != self.t_end:
            problems.append(f"final t {rows[-1, 0]!r} != {self.t_end!r}")
        rot = quaternions_to_matrices(rows[:, 1:5])
        pin = rows[:, 5:8] + rot @ self.r_b
        pin_drift = float(np.max(np.linalg.norm(pin - pin[0], axis=1)))
        energy = rows[:, 14]
        e_drift = float(np.max(np.abs(energy - energy[0]))) / abs(energy[0])
        n = min(len(rot), len(self.reference))
        gap = float(np.max(rotation_gaps(rot[:n], self.reference[:n])))
        if not e_drift <= self.energy_drift_bound:
            problems.append(f"energy drift {e_drift:.3e}")
        if not pin_drift <= self.pin_drift_bound:
            problems.append(f"pin drift {pin_drift:.3e} m")
        if not gap <= self.gap_bound:
            problems.append(f"gap to reduced route {gap:.3e} rad")
        return OpResult(wall, steps, not problems, gap, len(rows), len(text.encode()), "; ".join(problems))

    def orientation_gap(self, results) -> float:
        return max((r.gap_rad for r in results if r.ok), default=0.0)


def reduced_top_rotations(spec: dict, dt: float, n_steps: int) -> np.ndarray:
    """Rotations of the pinned top from its rotation-only Lagrange equations.

    State (phi, theta, psi) and rates; omega = E(theta, psi) qdot in body axes,
    J_pivot omega_dot + omega x J_pivot omega = m d x (R^T g) with d the
    pivot-to-CoM arm.  Classical RK4; one rotation per step from t = 0.
    """
    inertia = spec["inertia"]
    mass = float(inertia["mass"])
    j = np.asarray(inertia["inertia"], dtype=float)
    j = np.diag(j) if j.shape == (3,) else j
    com = np.asarray(inertia.get("com", [0.0, 0.0, 0.0]), dtype=float)
    d = com - np.asarray(spec["constraint"]["point"], dtype=float)
    j_com = j - mass * (float(com @ com) * np.eye(3) - np.outer(com, com))
    j_piv = j_com + mass * (float(d @ d) * np.eye(3) - np.outer(d, d))
    j_piv_inv = np.linalg.inv(j_piv)
    g = np.asarray(spec["forces"]["gravity"], dtype=float)
    q0 = np.asarray(spec["initial"]["orientation"]["euler_zxz"], dtype=float)
    omega0 = np.asarray(spec["initial"]["omega"], dtype=float)

    def rate_matrices(theta, psi, theta_dot, psi_dot):
        st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(psi), math.cos(psi)
        e = np.array([[st * sp, cp, 0.0], [st * cp, -sp, 0.0], [ct, 0.0, 1.0]])
        e_dot = np.array(
            [
                [ct * sp * theta_dot + st * cp * psi_dot, -sp * psi_dot, 0.0],
                [ct * cp * theta_dot - st * sp * psi_dot, -cp * psi_dot, 0.0],
                [-st * theta_dot, 0.0, 0.0],
            ]
        )
        return e, e_dot

    def f(y):
        q, qd = y[:3], y[3:]
        e, e_dot = rate_matrices(q[1], q[2], qd[1], qd[2])
        omega = e @ qd
        torque = mass * np.cross(d, euler_zxz_matrix(*q).T @ g)
        omega_dot = j_piv_inv @ (torque - np.cross(omega, j_piv @ omega))
        return np.concatenate([qd, np.linalg.solve(e, omega_dot - e_dot @ qd)])

    e0, _ = rate_matrices(q0[1], q0[2], 0.0, 0.0)
    y = np.concatenate([q0, np.linalg.solve(e0, omega0)])
    out = [euler_zxz_matrix(*y[:3])]
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(euler_zxz_matrix(*y[:3]))
    return np.array(out)


# --- ensemble-random -------------------------------------------------------------


def random_body(rng: np.random.Generator, horizon: float, dt: float, n_steps: int) -> dict:
    """One scenario dict: triangle-valid moments, nonzero CoM offset, gravity.

    Rejection sampling keeps the moments triangle-valid, the CoM-shifted 6x6
    inertia well inside positive definiteness, and the nutation angle clear of
    gimbal lock over the horizon: |theta_dot| <= |omega|, so theta stays within
    |omega| * horizon of its start; the factor 2 covers the growth of |omega|
    under the gravity torque.  Nothing is re-drawn after a run.
    """
    while True:
        moments = rng.uniform(0.8, 1.6, 3)
        if moments.max() < moments.sum() - moments.max():
            break
    mass = rng.uniform(0.5, 2.0)
    while True:
        direction = rng.normal(size=3)
        com = direction / np.linalg.norm(direction) * rng.uniform(0.05, 0.2)
        j_com = np.diag(moments) - mass * (float(com @ com) * np.eye(3) - np.outer(com, com))
        if np.linalg.eigvalsh(j_com)[0] > 0.1:
            break
    direction = rng.normal(size=3)
    omega = direction / np.linalg.norm(direction) * EnsembleRandom.spin_rate
    margin = EnsembleRandom.gimbal_clearance + 2.0 * float(np.linalg.norm(omega)) * horizon
    while True:
        theta = rng.uniform(0.0, math.pi)
        if margin <= theta <= math.pi - margin:
            break
    phi, psi = rng.uniform(-math.pi, math.pi, 2)
    return {
        "name": "random-body",
        "inertia": {"mass": mass, "inertia": moments.tolist(), "com": com.tolist()},
        "initial": {
            "orientation": {"euler_zxz": [phi, theta, psi]},
            # Height 1-2 m keeps the total energy well away from zero.
            "position": [*rng.uniform(-1.0, 1.0, 2), rng.uniform(1.0, 2.0)],
            "omega": omega.tolist(),
            "vel": rng.uniform(-1.0, 1.0, 3).tolist(),
        },
        "forces": {"gravity": [0.0, 0.0, -9.81]},
        "run": {"formulation": "kirchhoff", "integrator": "lie-rk4", "dt": dt,
                "t_end": horizon, "sample_every": n_steps},
    }


class EnsembleRandom:
    """Seeded random rigid bodies, each run by kirchhoff/lie-rk4 and lagrange/rk4.

    An operation is one member: parse its dict, then both simulations, which
    sample only the end points.  A run cycles through a pool of members drawn
    from the seed; the orientation gap is the median member's end-point gap
    over the pool's first pass.
    """

    name = "ensemble-random"
    pool_size = 1000
    dt, n_steps = 1e-2, 25
    horizon = dt * n_steps
    gimbal_clearance = 0.6  # rad of theta kept from 0 and pi, beyond the motion bound
    # One |omega| for every member keeps the median gap steady from seed to seed.
    spin_rate = 1.25
    trace_block = 50
    routes = (
        (integrate.Formulation.KIRCHHOFF, integrate.IntegratorId.LIE_RK4),
        (integrate.Formulation.LAGRANGE, integrate.IntegratorId.RK4),
    )
    # Fixed from the seed measurement (see NOTES.md); never widened to pass.
    energy_drift_bound = 2.5e-9
    gap_bound = 4e-9

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.pool = [random_body(rng, self.horizon, self.dt, self.n_steps) for _ in range(self.pool_size)]

    def first_scenario(self):
        return ("parse", json.dumps(self.pool[0]))

    def run(self, i: int) -> OpResult:
        data = self.pool[i % self.pool_size]
        t0 = perf_counter()
        sc = scenario.parse_scenario(data)
        runs = [integrate.simulate(sc, f, integ, self.dt, self.horizon, self.n_steps) for f, integ in self.routes]
        wall = perf_counter() - t0
        problems = []
        steps = 0
        for (f, _), samples in zip(self.routes, runs):
            steps += int(round(samples[-1].t / self.dt))
            if samples[-1].t != self.horizon:
                problems.append(f"{f.value} ended at t={samples[-1].t!r}")
            e0 = samples[0].energy
            drift = abs(samples[-1].energy - e0) / abs(e0)
            if not drift <= self.energy_drift_bound:
                problems.append(f"{f.value} energy drift {drift:.3e}")
        ends = [samples[-1].pose.rotation.m for samples in runs]
        gap = float(rotation_gaps(ends[0], ends[1]))
        if not gap <= self.gap_bound:
            problems.append(f"end-point gap {gap:.3e} rad")
        return OpResult(wall, steps, not problems, gap, detail="; ".join(problems))

    def orientation_gap(self, results) -> float:
        # The median member: the pool's maximum swings with the draw from seed to seed.
        gaps = [r.gap_rad for r in results[: self.pool_size] if r.ok]
        return float(np.median(gaps)) if gaps else 0.0


WORKLOADS = {w.name: w for w in (CompareEulerTop, PinnedCsv, EnsembleRandom)}
