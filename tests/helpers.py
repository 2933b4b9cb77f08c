"""Shared test harness pieces.

The reduced heavy-top integrator eliminates translation analytically through
the pinned-point kinematics and integrates the three Euler angles with
classical RK4; it reuses only the chart's angular kinematic blocks, so it is
an independent route against the constrained body-twist dynamics.

The layered references (``layered_kirchhoff_accel``,
``layered_newton_euler_accel``, ``layered_chart_rhs_fn``) compose the
right-hand side from its parts, one call per layer: the wrench, M nu, the
bias, M^-1, and each chart's maps.  The engine evaluates each route in one
flat function with the same operations in the same order, so the two agree
bit for bit.
"""

import math

import numpy as np

from unirigid.charts import CHART_MAPS, ChartId, _euler_rate_matrix_dot, chart_eval
from unirigid.dynamics import ForceModel, SpatialInertia, assemble_inertia, body_wrench_fn, spd_factor
from unirigid.errors import NonFiniteStateError
from unirigid.gauss import FixedPointConstraint
from unirigid.geom3 import (
    EulerAngles,
    Pose,
    as_rows,
    check_rotation,
    cross,
    euler_matrix,
    euler_to_rotation,
    exp_so3,
    gimbal_guard,
    mat3_vec,
    matvec,
)
from unirigid.integrate import Formulation, IntegratorId
from unirigid.scenario import RunConfig, Scenario
from unirigid.charts import Twist


def momentum_bias(nu6, mom6) -> tuple:
    """Gyroscopic term (omega x pi + v x p, omega x p) of the momentum balance, as a 6-tuple."""
    w1, w2, w3, v1, v2, v3 = nu6
    a1, a2, a3, p1, p2, p3 = mom6
    return (
        (w2 * a3 - w3 * a2) + (v2 * p3 - v3 * p2),
        (w3 * a1 - w1 * a3) + (v3 * p1 - v1 * p3),
        (w1 * a2 - w2 * a1) + (v1 * p2 - v2 * p1),
        w2 * p3 - w3 * p2,
        w3 * p1 - w1 * p3,
        w1 * p2 - w2 * p1,
    )


def kirchhoff_rhs6(nu6, w6, m6, m6_inv) -> tuple:
    """M^-1 (w - bias(nu)) with M nu and M^-1 as row products; m6 and m6_inv as tuples of rows."""
    b1, b2, b3, b4, b5, b6 = momentum_bias(nu6, matvec(m6, nu6))
    t1, t2, t3, f1, f2, f3 = w6
    return matvec(m6_inv, (t1 - b1, t2 - b2, t3 - b3, f1 - b4, f2 - b5, f3 - b6))


def newton_euler_rhs6(nu6, w6, j, j_inv, mass: float) -> tuple:
    """J^-1 (tau - omega x J omega) and f/m - omega x v; j and j_inv as tuples of rows."""
    omega, v = nu6[:3], nu6[3:]
    gyro = cross(omega, matvec(j, omega))
    omega_dot = matvec(j_inv, (w6[0] - gyro[0], w6[1] - gyro[1], w6[2] - gyro[2]))
    wv = cross(omega, v)
    return (*omega_dot, w6[3] / mass - wv[0], w6[4] / mass - wv[1], w6[5] / mass - wv[2])


def layered_kirchhoff_accel(si: SpatialInertia, forces: ForceModel):
    """accel(t, r, x, nu6): body_wrench_fn, then kirchhoff_rhs6."""
    wrench, m6 = body_wrench_fn(forces, si), assemble_inertia(si)
    m6_rows, m6_inv_rows = as_rows(m6), as_rows(spd_factor(m6, "generalized inertia"))
    return lambda t, r, x, nu6: kirchhoff_rhs6(nu6, wrench(t, r, x, nu6), m6_rows, m6_inv_rows)


def layered_newton_euler_accel(si: SpatialInertia, forces: ForceModel):
    """accel(t, r, x, nu6): body_wrench_fn, then newton_euler_rhs6."""
    wrench, j, j_inv = body_wrench_fn(forces, si), as_rows(si.j), as_rows(spd_factor(si.j, "inertia tensor"))
    return lambda t, r, x, nu6: newton_euler_rhs6(nu6, wrench(t, r, x, nu6), j, j_inv, si.mass)


def layered_chart_rhs_fn(chart: ChartId, accel):
    """rhs(t, (g, x, u)): u_dot = Phi^-1 (nu_dot - Phi_dot u) through charts.CHART_MAPS, one call per map."""
    to_body, from_body = CHART_MAPS[chart]
    if chart is ChartId.BODY_TWIST:
        return lambda t, s: accel(t, *s)
    if chart is ChartId.SPATIAL_TWIST:

        def rhs(t, s):
            r, x, u = s
            omega, v = to_body(r, r, x, u)
            nu_dot = accel(t, r, x, (*omega, *v))
            return from_body(r, r, x, nu_dot[:3], nu_dot[3:])

        return rhs

    def rhs(t, s):
        g, x, u = s
        phi, theta, psi = g
        if not math.isfinite(phi + theta + psi):
            raise NonFiniteStateError("Euler angles are not finite")
        gimbal_guard(math.sin(theta))
        r = euler_matrix(phi, theta, psi)
        check_rotation(r)
        omega, v = to_body(g, r, x, u)
        nu_dot = accel(t, r, x, (*omega, *v))
        e_dot_u = mat3_vec(_euler_rate_matrix_dot(theta, psi, u[1], u[2]), u[:3])
        wv = cross(omega, v)
        a_ang = (nu_dot[0] - e_dot_u[0], nu_dot[1] - e_dot_u[1], nu_dot[2] - e_dot_u[2])
        return from_body(g, r, x, a_ang, (nu_dot[3] + wv[0], nu_dot[4] + wv[1], nu_dot[5] + wv[2]))

    return rhs


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
