"""Shared test harness pieces.

The reduced heavy-top integrator eliminates translation analytically through
the pinned-point kinematics and integrates the three Euler angles with
classical RK4; it reuses only the chart's angular kinematic blocks, so it is
an independent route against the constrained body-twist dynamics.

The layered references (``layered_kirchhoff_accel``,
``layered_newton_euler_accel``, ``layered_chart_rhs_fn``,
``layered_fixed_point_rhs``) compose the stage function from its parts, one
call per layer: the wrench (``body_wrench_fn``, or ``com_wrench_fn`` about the
CoM for Newton-Euler), M nu or J_G omega, the bias, the block solve with J_G^-1
read from M^-1's angular block, each chart's
maps, and for the pinned point the offset (``fixed_point_offset_fn``) and
gauss.constrained_accel6.  ``layered_rk_step``
composes the step kernel the same way: one call per stage for its slopes, its
increments and the RK4 sum, and ``layered_conserved`` a sample's energy and
momentum from matvec's loop, mat3_vec and cross.  The engine evaluates each
route, the kernel and the sample in one flat function with the same operations
in the same order, so the two agree bit for bit.
"""

import math

import numpy as np

from unirigid.charts import _ZERO3, CHART_MAPS, CHART_STAGES, ChartId, _euler_rate_matrix_dot, chart_eval
from unirigid.dynamics import ForceModel, SpatialInertia, assemble_inertia, spd_factor
from unirigid.errors import GimbalLockError, NonFiniteStateError, NotPositiveDefiniteError
from unirigid.gauss import FixedPointConstraint, constrained_accel6, fixed_point_rows, schur_factor
from unirigid.geom3 import (
    Pose,
    as_rows,
    check_rotation,
    cross,
    euler_matrix,
    euler_to_rotation,
    exp_so3,
    gimbal_guard,
    hat,
    mat3_vec,
    mat3t_vec,
    matvec,
)
from unirigid.integrate import UNDER_RESOLVED_JUMP, Formulation, IntegratorId
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


def kirchhoff_rhs6(nu6, w6, j, c, j_g_inv, mass: float) -> tuple:
    """M^-1 (w - bias(nu)) in Kirchhoff's momentum form about the body origin; j and j_g_inv as tuples of rows.

    (pi, p) = (J omega + m c x v, m v - m c x omega), then M^-1 by block elimination:
    alpha = J_G^-1 (e_ang - c x e_lin) and a_lin = e_lin / m + c x alpha.
    """
    omega, v, mc = nu6[:3], nu6[3:], (mass * c[0], mass * c[1], mass * c[2])
    j_omega, mc_v, mc_omega = matvec(j, omega), cross(mc, v), cross(mc, omega)
    mom6 = (j_omega[0] + mc_v[0], j_omega[1] + mc_v[1], j_omega[2] + mc_v[2],
            mass * v[0] - mc_omega[0], mass * v[1] - mc_omega[1], mass * v[2] - mc_omega[2])
    b1, b2, b3, b4, b5, b6 = momentum_bias(nu6, mom6)
    t1, t2, t3, f1, f2, f3 = w6
    e_lin = (f1 - b4, f2 - b5, f3 - b6)
    c_e = cross(c, e_lin)
    alpha = matvec(j_g_inv, ((t1 - b1) - c_e[0], (t2 - b2) - c_e[1], (t3 - b3) - c_e[2]))
    c_alpha = cross(c, alpha)
    return (*alpha, e_lin[0] / mass + c_alpha[0], e_lin[1] / mass + c_alpha[1], e_lin[2] / mass + c_alpha[2])


def newton_euler_rhs6(nu6, w6, c, j_g, j_g_inv, mass: float) -> tuple:
    """J_G^-1 (tau_G - omega x J_G omega) and f/m - omega x v_G - omega_dot x c, with v_G = v + omega x c.

    w6 = (tau_G, f) is the wrench about the CoM; j_g and j_g_inv as tuples of rows.
    """
    omega, v = nu6[:3], nu6[3:]
    gyro = cross(omega, matvec(j_g, omega))
    omega_dot = matvec(j_g_inv, (w6[0] - gyro[0], w6[1] - gyro[1], w6[2] - gyro[2]))
    wc = cross(omega, c)
    wv, dc = cross(omega, (v[0] + wc[0], v[1] + wc[1], v[2] + wc[2])), cross(omega_dot, c)
    return (*omega_dot, w6[3] / mass - wv[0] - dc[0], w6[4] / mass - wv[1] - dc[1], w6[5] / mass - wv[2] - dc[2])


def com_wrench_fn(forces: ForceModel, si: SpatialInertia):
    """w(r, x, nu6): the applied wrench about the CoM in body axes, (tau_G, f).

    Gravity has no torque about the CoM.  The constant wrench's torque is
    moved there once, t - c x f.
    """
    mass, c, gravity = si.mass, si.c.tolist(), forces.gravity.tolist()
    t, f = forces.constant_wrench.torque.tolist(), forces.constant_wrench.force.tolist()
    cf = cross(c, f)
    tau = (t[0] - cf[0], t[1] - cf[1], t[2] - cf[2])

    def wrench(r, x, nu6):
        g = mat3t_vec(r, gravity)
        return (*tau, mass * g[0] + f[0], mass * g[1] + f[1], mass * g[2] + f[2])

    return wrench


def body_wrench_fn(forces: ForceModel, si: SpatialInertia):
    """Float total applied wrench ``w(r, x, nu6)`` in body axes about the body origin.

    Gravity acts at the CoM: force m R^T g, torque m c x (R^T g).
    kirchhoff_accel_fn forms the same wrench inline, operation for operation.
    """
    mass, (c1, c2, c3), gravity = si.mass, si.c.tolist(), forces.gravity.tolist()
    t1, t2, t3, f1, f2, f3 = forces.constant_wrench.as_array().tolist()

    def wrench(r, x, nu6):
        g1, g2, g3 = mat3t_vec(r, gravity)
        return (mass * (c2 * g3 - c3 * g2) + t1, mass * (c3 * g1 - c1 * g3) + t2, mass * (c1 * g2 - c2 * g1) + t3,
                mass * g1 + f1, mass * g2 + f2, mass * g3 + f3)

    return wrench


def angular_block_of_inverse(si: SpatialInertia) -> tuple:
    """J_G^-1 as the angular block of M^-1 = spd_factor(assemble_inertia(si)), as a tuple of rows."""
    return as_rows(spd_factor(assemble_inertia(si), "generalized inertia")[:3, :3])


def layered_kirchhoff_accel(si: SpatialInertia, forces: ForceModel):
    """accel(r, x, nu6): body_wrench_fn, then kirchhoff_rhs6."""
    wrench, c = body_wrench_fn(forces, si), si.c.tolist()
    j_rows, j_g_inv_rows = as_rows(si.j), angular_block_of_inverse(si)
    return lambda r, x, nu6: kirchhoff_rhs6(nu6, wrench(r, x, nu6), j_rows, c, j_g_inv_rows, si.mass)


def layered_newton_euler_accel(si: SpatialInertia, forces: ForceModel):
    """accel(r, x, nu6): com_wrench_fn, then newton_euler_rhs6 with J_G = J + m hat(c)^2."""
    hat_c = hat(si.c)
    j_g = si.j + si.mass * (hat_c @ hat_c)
    wrench, c = com_wrench_fn(forces, si), si.c.tolist()
    j_g_rows, j_g_inv_rows = as_rows(j_g), angular_block_of_inverse(si)
    return lambda r, x, nu6: newton_euler_rhs6(nu6, wrench(r, x, nu6), c, j_g_rows, j_g_inv_rows, si.mass)


def layered_chart_rhs_fn(chart: ChartId, accel):
    """rhs(g, x, u): u_dot = Phi^-1 (nu_dot - Phi_dot u) through charts.CHART_MAPS, one call per map."""
    to_body, from_body = CHART_MAPS[chart]
    if chart is ChartId.BODY_TWIST:
        return lambda r, x, u: from_body(r, r, x, accel(r, x, to_body(r, r, x, u)))
    if chart is ChartId.SPATIAL_TWIST:

        def rhs(r, x, u):
            nu = to_body(r, r, x, u)
            nu_dot = accel(r, x, nu)
            return from_body(r, r, x, nu_dot)

        return rhs

    def rhs(g, x, u):
        phi, theta, psi = g
        if not math.isfinite(phi + theta + psi):
            raise NonFiniteStateError("Euler angles are not finite")
        gimbal_guard(math.sin(theta))
        r = euler_matrix(phi, theta, psi)
        check_rotation(r)
        nu = to_body(g, r, x, u)
        nu_dot = accel(r, x, nu)
        e_dot_u = mat3_vec(_euler_rate_matrix_dot(theta, psi, u[1], u[2]), u[:3])
        wv = cross(nu[:3], nu[3:])
        return from_body(g, r, x, (nu_dot[0] - e_dot_u[0], nu_dot[1] - e_dot_u[1], nu_dot[2] - e_dot_u[2],
                                   nu_dot[3] + wv[0], nu_dot[4] + wv[1], nu_dot[5] + wv[2]))

    return rhs


def layered_conserved(si: SpatialInertia, gravity, r, x, nu6) -> tuple:
    """(T, V, L) of dynamics.conserved_fn, with (pi, p) = M nu from matvec's row loop."""
    mom6 = matvec(as_rows(si.m6), nu6)
    rc, l_ang = mat3_vec(r, si.c.tolist()), mat3_vec(r, mom6[:3])
    xp = cross(x, mat3_vec(r, mom6[3:]))
    kinetic = 0.5 * (nu6[0] * mom6[0] + nu6[1] * mom6[1] + nu6[2] * mom6[2] + nu6[3] * mom6[3]
                     + nu6[4] * mom6[4] + nu6[5] * mom6[5])
    potential = -si.mass * (gravity[0] * (x[0] + rc[0]) + gravity[1] * (x[1] + rc[1]) + gravity[2] * (x[2] + rc[2]))
    return kinetic, potential, (l_ang[0] + xp[0], l_ang[1] + xp[1], l_ang[2] + xp[2])


def fixed_point_offset_fn(fp: FixedPointConstraint):
    """Pinned-point constraint offset ``b(nu6)``; the pin is read once here."""
    r_b = fp.r_b.tolist()

    def offset(nu6) -> tuple:
        # Zero spatial pin acceleration: b = -omega x c_v, c_v = v + omega x r_b.
        omega = nu6[:3]
        rw = cross(omega, r_b)
        a1, a2, a3 = cross(omega, (nu6[3] + rw[0], nu6[4] + rw[1], nu6[5] + rw[2]))
        return -a1, -a2, -a3

    return offset


def layered_fixed_point_rhs(accel, m6_inv, fp: FixedPointConstraint):
    """rhs(r, x, nu6) of the pinned point, as gauss.fixed_point_rhs_fn takes its arguments: accel,
    fixed_point_offset_fn and constrained_accel6 with the Schur complement of schur_factor."""
    offset, a_rows = fixed_point_offset_fn(fp), fixed_point_rows(fp)
    m_inv_at, s_inv = schur_factor(m6_inv, a_rows)
    a_rows = as_rows(a_rows)

    def rhs(r, x, nu6):
        return constrained_accel6(accel(r, x, nu6), a_rows, offset(nu6), m_inv_at, s_inv)[0]

    return rhs


def _slopes(rates, rhs, t: float, g, x, u, sigma) -> tuple:
    """(sigma_dot, x_dot, u_dot) of one stage; sigma is the stage's rotation increment, t dates the error only."""
    u_dot = rhs(g, x, u)
    # Float arithmetic overflows silently to inf or nan, so each stage's slope is checked.
    if not all(map(math.isfinite, u_dot)):
        raise NonFiniteStateError(f"non-finite chart acceleration at t={t:.6g}")
    return (*rates(g, x, u, sigma), u_dot)


def _advance(retract, g0, x0, u0, h: float, s, y, k, check=True) -> tuple:
    """(g, x, u, sigma) reached from the base (g0, x0, u0) along the slopes (s, y, k) over h.

    A stage's rotation is checked by its retraction; the step's end rotation (check false) is left to the
    Rotation box that integrate.step builds.
    """
    sigma = (h * s[0], h * s[1], h * s[2])
    u1, u2, u3, u4, u5, u6 = u0
    return (retract(g0, sigma, check), (x0[0] + h * y[0], x0[1] + h * y[1], x0[2] + h * y[2]),
            (u1 + h * k[0], u2 + h * k[1], u3 + h * k[2], u4 + h * k[3], u5 + h * k[4], u6 + h * k[5]), sigma)


def _rk4_sum(a, b, c, d) -> tuple:
    """a + 2 b + 2 c + d, entrywise, for 3- or 6-wide slopes."""
    head = (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0], a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1],
            a[2] + 2.0 * b[2] + 2.0 * c[2] + d[2])
    return head if len(a) == 3 else (*head, a[3] + 2.0 * b[3] + 2.0 * c[3] + d[3],
                                     a[4] + 2.0 * b[4] + 2.0 * c[4] + d[4], a[5] + 2.0 * b[5] + 2.0 * c[5] + d[5])


def layered_rk_step(integrator: IntegratorId, chart: ChartId, rhs, g0, x0, u0, t: float, dt: float):
    """integrate._rk_step composed from one call per stage layer: _slopes, _advance and _rk4_sum.

    Every stage starts from the base; RK4 then advances it by (dt / 6) (k1 + 2 k2 + 2 k3 + k4).  An Euler
    stage that fails the gimbal rule after moving theta more than UNDER_RESOLVED_JUMP is a step too large.
    """
    rates, retract = CHART_STAGES[chart]
    s1, y1, k1 = _slopes(rates, rhs, t, g0, x0, u0, _ZERO3)
    if integrator is IntegratorId.LIE_EULER:
        return _advance(retract, g0, x0, u0, dt, s1, y1, k1, False)[:3]
    h = 0.5 * dt
    try:
        stage = _advance(retract, g0, x0, u0, h, s1, y1, k1)
        s2, y2, k2 = _slopes(rates, rhs, t + h, *stage)
        stage = _advance(retract, g0, x0, u0, h, s2, y2, k2)
        s3, y3, k3 = _slopes(rates, rhs, t + h, *stage)
        stage = _advance(retract, g0, x0, u0, dt, s3, y3, k3)
        s4, y4, k4 = _slopes(rates, rhs, t + dt, *stage)
    except GimbalLockError as err:
        if chart is not ChartId.EULER_COM or not abs(stage[3][1]) > UNDER_RESOLVED_JUMP:
            raise
        raise GimbalLockError(f"step too large for the rates: dt = {dt:g} moved theta by {stage[3][1]:.3g} rad "
                              f"within one stage, to {err}") from None
    return _advance(retract, g0, x0, u0, dt / 6.0, _rk4_sum(s1, s2, s3, s4), _rk4_sum(y1, y2, y3, y4),
                    _rk4_sum(k1, k2, k3, k4), False)[:3]


def random_inertia(rng, with_offset=False, unit_scale=False):
    """Valid random body; retries draws whose CoM offset breaks definiteness."""
    while True:
        a = rng.normal(size=(3, 3))
        j = a @ a.T + 0.5 * np.eye(3)
        # Enforce the triangle inequality by mixing toward a sphere if needed.
        lam = np.linalg.eigvalsh(j)
        if lam[2] > lam[0] + lam[1]:
            j = j + (lam[2] - lam[0] - lam[1] + 0.1) * np.eye(3)
        if unit_scale:
            j = j * (3.0 / np.trace(j))
        c = rng.normal(size=3) * 0.2 if with_offset else np.zeros(3)
        try:
            return SpatialInertia(mass=float(rng.uniform(0.5, 3.0)), j=j, c=c)
        except NotPositiveDefiniteError:
            continue


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
        pose = Pose(euler_to_rotation(q), np.zeros(3))
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
    out = [euler_to_rotation(y[:3])]
    n = int(round(t_end / dt))
    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(euler_to_rotation(y[:3]))
    return out


def shepperd_quaternion(m) -> np.ndarray:
    """Reference unit quaternion (w, x, y, z), w >= 0, of a 3x3 rotation array: Shepperd's method
    on numpy scalars, normalized by np.linalg.norm."""
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)
