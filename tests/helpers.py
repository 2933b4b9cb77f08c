"""Shared test harness pieces.

The reduced heavy-top integrator eliminates translation analytically through
the pinned-point kinematics and integrates the three Euler angles with
classical RK4; it reuses only the chart's angular kinematic blocks, so it is
an independent route against the constrained body-twist dynamics.
"""

import math

import numpy as np

from unirigid.charts import ChartId, chart_eval
from unirigid.dynamics import ForceModel, SpatialInertia
from unirigid.gauss import FixedPointConstraint
from unirigid.geom3 import EulerAngles, Pose, cross, euler_to_rotation, exp_so3
from unirigid.integrate import Formulation, IntegratorId
from unirigid.scenario import RunConfig, Scenario
from unirigid.charts import Twist


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vector arrays as an array; see geom3.cross."""
    return np.array(cross(a.tolist(), b.tolist()))


def make_scenario(
    name,
    mass,
    j,
    omega,
    vel=(0.0, 0.0, 0.0),
    com=(0.0, 0.0, 0.0),
    gravity=(0.0, 0.0, 0.0),
    pose=None,
    constraint=None,
    formulation=Formulation.KIRCHHOFF,
    integrator=IntegratorId.LIE_RK4,
    dt=1e-3,
    t_end=1.0,
):
    return Scenario(
        name=name,
        inertia=SpatialInertia(mass, np.asarray(j, dtype=float), np.asarray(com, dtype=float)),
        initial_pose=pose if pose is not None else Pose.identity(),
        initial_twist=Twist(np.asarray(omega, dtype=float), np.asarray(vel, dtype=float)),
        forces=ForceModel(gravity=np.asarray(gravity, dtype=float)),
        constraint=constraint,
        run=RunConfig(formulation, integrator, dt, t_end, 1),
    )


def orientation_taking(a, b):
    """Rotation sending unit direction a to unit direction b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    axis = np.cross(a, b)
    s = np.linalg.norm(axis)
    if s < 1e-12:
        return exp_so3(np.zeros(3))
    return exp_so3(axis / s * math.atan2(s, float(a @ b)))


def pivot_inertia(si: SpatialInertia, r_b: np.ndarray) -> np.ndarray:
    """Inertia about the pinned point for a CoM-centered body (parallel axis)."""
    d = -np.asarray(r_b, dtype=float)  # pivot -> CoM
    return si.j + si.mass * (float(d @ d) * np.eye(3) - np.outer(d, d))


def reduced_heavy_top_rotations(si, fp: FixedPointConstraint, gravity, q0, q0_dot, dt, t_end):
    """Rotation-only Lagrange route for the pinned body.

    State is (phi, theta, psi) with classical RK4; the angular blocks of the
    Euler chart supply the kinematic matrix and its rate, the pivot inertia
    and gravity torque close the 3x3 dynamics.  Returns the list of sampled
    rotation matrices (every step, starting at t = 0).
    """
    j_piv = pivot_inertia(si, fp.r_b)
    arm = -np.asarray(fp.r_b, dtype=float)  # CoM position relative to the pivot
    g = np.asarray(gravity, dtype=float)

    def qddot(q, qdot):
        pose = Pose(euler_to_rotation(EulerAngles(*q)), np.zeros(3))
        ev = chart_eval(ChartId.EULER_COM, pose, np.concatenate([qdot, np.zeros(3)]))
        e = ev.phi[:3, :3]
        e_dot = ev.phi_dot[:3, :3]
        omega = e @ qdot
        torque = si.mass * cross3(arm, pose.rotation.m.T @ g)
        rhs = e.T @ (torque - j_piv @ (e_dot @ qdot) - cross3(omega, j_piv @ omega))
        return np.linalg.solve(e.T @ j_piv @ e, rhs)

    def f(y):
        return np.concatenate([y[3:], qddot(y[:3], y[3:])])

    y = np.concatenate([q0, q0_dot])
    out = [euler_to_rotation(EulerAngles(*y[:3]))]
    n = int(round(t_end / dt))
    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(euler_to_rotation(EulerAngles(*y[:3])))
    return out
