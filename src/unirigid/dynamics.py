"""Equations of motion for a single rigid body in quasi-velocity form.

Momenta are taken about the body-frame origin, which need not be the center
of mass; one 6x6 generalized inertia

    M = [[J, m hat(c)], [-m hat(c), m I]]

covers both the aligned (c = 0) and offset cases.  The momentum-form balance
in body coordinates reads

    pi_dot + omega x pi + v x p = tau
    p_dot  + omega x p          = f

(the Kirchhoff equations), and the chart engine transports exactly this
balance into any velocity chart:

    (Phi^T M Phi) u_dot = Phi^T F - Phi^T (M Phi_dot u + bias(nu))

with nu = Phi u and bias(nu) = (omega x pi + v x p, omega x p).

Each route's stage right-hand side is one flat float function, built once
per run: kirchhoff_accel_fn and newton_euler_accel_fn form the applied
wrench and the solve inline, and chart_rhs_fn's Euler transport forms R, E u,
E_dot u and E^-1 from one sin/cos of each angle.  They do the operations of
the layered forms (body_wrench_fn, charts.CHART_MAPS) in the same order, so
every result is the same to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .charts import _ZERO3, CHART_MAPS, ChartId, ChartState, Twist, stage_state
from .charts import euler_rate_matrix  # noqa: F401  (perfbench/tracer.py wraps it under this module)
from .errors import FrameNotAtCoMError, NonFiniteStateError, NotPositiveDefiniteError
from .geom3 import _EYE9, Pose, Rotation, _as_vec3, _readonly, as_rows, check_rotation, cross
from .geom3 import gimbal_guard, hat, mat3_vec, mat3t_vec, matvec

# Symmetry / triangle-inequality slack for inertia validation.
INERTIA_TOL = 1e-12

STANDARD_GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass(frozen=True)
class SpatialInertia:
    """Mass, inertia tensor about the body origin (body axes), CoM offset.

    The one inertia validation; each NotPositiveDefiniteError names its scenario field.
    """

    mass: float
    j: np.ndarray
    c: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not (np.isfinite(self.mass) and self.mass > 0.0):
            raise NotPositiveDefiniteError(
                f"mass must be positive and finite, got {self.mass!r}", field="mass"
            )
        j = np.asarray(self.j, dtype=float)
        if j.shape != (3, 3):
            raise ValueError(f"inertia tensor must be 3x3, got {j.shape}")
        if not np.all(np.isfinite(j)):
            raise ValueError("inertia tensor must be finite")
        scale = max(1.0, float(np.abs(j).max()))
        if np.abs(j - j.T).max() > INERTIA_TOL * scale:
            raise ValueError("inertia tensor must be symmetric")
        lam = np.linalg.eigvalsh(0.5 * (j + j.T))  # ascending
        if lam[0] <= 0.0:
            raise NotPositiveDefiniteError(f"inertia tensor has eigenvalue {lam[0]!r} <= 0")
        # Any mass distribution satisfies the principal-moment triangle inequality.
        if lam[2] > lam[0] + lam[1] + INERTIA_TOL * scale:
            raise NotPositiveDefiniteError(
                f"largest principal moment {lam[2]!r} exceeds the sum of the others "
                f"({lam[0]!r}, {lam[1]!r})",
                field="inertia triangle inequality",
            )
        object.__setattr__(self, "j", _readonly(j))
        object.__setattr__(self, "c", _as_vec3(self.c, "c"))
        # The assembled 6x6 must itself be positive definite (CoM-shifted inertia).
        try:
            np.linalg.cholesky(assemble_inertia(self))
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                "assembled 6x6 inertia is not positive definite (CoM offset too large)"
            ) from None


@dataclass(frozen=True)
class Momentum:
    """Angular and linear momentum in body axes, about the body origin."""

    pi: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", _as_vec3(self.pi, "pi"))
        object.__setattr__(self, "p", _as_vec3(self.p, "p"))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.pi, self.p])


@dataclass(frozen=True)
class Wrench:
    """Body wrench: torque about the body origin + force, in body axes."""

    torque: np.ndarray
    force: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "torque", _as_vec3(self.torque, "torque"))
        object.__setattr__(self, "force", _as_vec3(self.force, "force"))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.torque, self.force])

    @staticmethod
    def zero() -> "Wrench":
        return Wrench(np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class ForceModel:
    """Applied-force description: uniform gravity plus optional wrenches.

    ``callback`` must be a pure function (t, pose, twist) -> Wrench.
    """

    gravity: np.ndarray = field(default_factory=lambda: STANDARD_GRAVITY.copy())
    constant_wrench: Wrench = field(default_factory=Wrench.zero)
    callback: Optional[Callable[[float, Pose, Twist], Wrench]] = None

    def __post_init__(self):
        object.__setattr__(self, "gravity", _as_vec3(self.gravity, "gravity"))


def spd_factor(a: np.ndarray, what: str) -> np.ndarray:
    """Factor a symmetric positive definite matrix once, for repeated solves.

    Returns the inverse, built from the Cholesky factor L as L^-T L^-1, so
    that every later solve is one matrix-vector product.
    """
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(0.5 * (a + a.T)))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(f"{what} is not positive definite") from None
    return l_inv.T @ l_inv


def assemble_inertia(si: SpatialInertia) -> np.ndarray:
    """The 6x6 generalized inertia coupling twists to momenta."""
    m = np.zeros((6, 6))
    mc = si.mass * hat(si.c)
    m[:3, :3] = si.j
    m[:3, 3:] = mc
    m[3:, :3] = -mc
    m[3:, 3:] = si.mass * np.eye(3)
    return m


def momentum(si: SpatialInertia, nu: Twist) -> Momentum:
    """(pi, p) = M (omega, v); the kinetic-energy gradient in the body twist."""
    m6 = assemble_inertia(si)
    out = m6 @ nu.as_array()
    return Momentum(out[:3], out[3:])


def conserved6(m6, mass, c, gravity, r, x, nu6) -> "tuple[float, float, tuple]":
    """Float (kinetic energy, gravitational potential, angular momentum about the space origin).

    T = 1/2 nu^T M nu,  V = -m g . (x + R c),  L = R pi + x cross (R p)
    with (pi, p) = M nu, for the body twist nu6 at the row-major rotation r
    and position x; M is a tuple of rows, and every sum runs left to right.
    """
    mom6 = matvec(m6, nu6)
    n1, n2, n3, n4, n5, n6 = nu6
    a1, a2, a3, p1, p2, p3 = mom6
    (x1, x2, x3), (g1, g2, g3), (rc1, rc2, rc3) = x, gravity, mat3_vec(r, c)
    l1, l2, l3 = mat3_vec(r, (a1, a2, a3))
    xp1, xp2, xp3 = cross(x, mat3_vec(r, (p1, p2, p3)))
    return (
        0.5 * (n1 * a1 + n2 * a2 + n3 * a3 + n4 * p1 + n5 * p2 + n6 * p3),
        -mass * (g1 * (x1 + rc1) + g2 * (x2 + rc2) + g3 * (x3 + rc3)),
        (l1 + xp1, l2 + xp2, l3 + xp3),
    )


def _conserved(si: SpatialInertia, gravity, r, x, nu6) -> tuple:
    return conserved6(as_rows(assemble_inertia(si)), si.mass, si.c.tolist(), gravity, r, x, nu6)


def energy(si: SpatialInertia, nu: Twist) -> float:
    """Kinetic energy T = 1/2 nu^T M nu."""
    return _conserved(si, (0.0, 0.0, 0.0), _EYE9, (0.0, 0.0, 0.0), nu.flat)[0]


def _callback_wrench(callback, t, r, x, nu6) -> list:
    """The force callback's wrench at a float state, checked finite first; Pose and Twist are built only here."""
    if not all(map(math.isfinite, (*nu6, *x))):
        raise NonFiniteStateError("state passed to the force callback is not finite")
    return callback(t, Pose(Rotation(r), x), Twist(nu6[:3], nu6[3:])).as_array().tolist()


def kirchhoff_accel_fn(si: SpatialInertia, forces: ForceModel) -> "tuple[Callable, np.ndarray]":
    """Float Kirchhoff acceleration ``accel(t, r, x, nu6)`` under ``forces``, and M^-1 (factored once).

    nu_dot = M^-1 (w - bias(nu)) with M and M^-1 bound as 36 floats each; every sum runs left to right.
    """
    m6 = assemble_inertia(si)
    m6_inv = spd_factor(m6, "generalized inertia")
    (m11, m12, m13, m14, m15, m16, m21, m22, m23, m24, m25, m26, m31, m32, m33, m34, m35, m36,
     m41, m42, m43, m44, m45, m46, m51, m52, m53, m54, m55, m56, m61, m62, m63, m64, m65, m66) = m6.ravel().tolist()
    (i11, i12, i13, i14, i15, i16, i21, i22, i23, i24, i25, i26, i31, i32, i33, i34, i35, i36,
     i41, i42, i43, i44, i45, i46, i51, i52, i53, i54, i55, i56, i61, i62, i63, i64, i65, i66) = m6_inv.ravel().tolist()
    mass, callback, (c1, c2, c3), (gx, gy, gz) = si.mass, forces.callback, si.c.tolist(), forces.gravity.tolist()
    t1, t2, t3, f1, f2, f3 = forces.constant_wrench.as_array().tolist()

    def accel(t, r, x, nu6):
        r1, r2, r3, r4, r5, r6, r7, r8, r9 = r
        g1, g2, g3 = r1 * gx + r4 * gy + r7 * gz, r2 * gx + r5 * gy + r8 * gz, r3 * gx + r6 * gy + r9 * gz
        e1, e2, e3 = mass * (c2 * g3 - c3 * g2) + t1, mass * (c3 * g1 - c1 * g3) + t2, mass * (c1 * g2 - c2 * g1) + t3
        e4, e5, e6 = mass * g1 + f1, mass * g2 + f2, mass * g3 + f3
        if callback is not None:
            k1, k2, k3, k4, k5, k6 = _callback_wrench(callback, t, r, x, nu6)
            e1, e2, e3, e4, e5, e6 = e1 + k1, e2 + k2, e3 + k3, e4 + k4, e5 + k5, e6 + k6
        w1, w2, w3, v1, v2, v3 = nu6
        # (pi, p) = M nu, then w - bias with bias = (omega x pi + v x p, omega x p).
        a1 = m11 * w1 + m12 * w2 + m13 * w3 + m14 * v1 + m15 * v2 + m16 * v3
        a2 = m21 * w1 + m22 * w2 + m23 * w3 + m24 * v1 + m25 * v2 + m26 * v3
        a3 = m31 * w1 + m32 * w2 + m33 * w3 + m34 * v1 + m35 * v2 + m36 * v3
        p1 = m41 * w1 + m42 * w2 + m43 * w3 + m44 * v1 + m45 * v2 + m46 * v3
        p2 = m51 * w1 + m52 * w2 + m53 * w3 + m54 * v1 + m55 * v2 + m56 * v3
        p3 = m61 * w1 + m62 * w2 + m63 * w3 + m64 * v1 + m65 * v2 + m66 * v3
        e1 = e1 - ((w2 * a3 - w3 * a2) + (v2 * p3 - v3 * p2))
        e2 = e2 - ((w3 * a1 - w1 * a3) + (v3 * p1 - v1 * p3))
        e3 = e3 - ((w1 * a2 - w2 * a1) + (v1 * p2 - v2 * p1))
        e4, e5, e6 = e4 - (w2 * p3 - w3 * p2), e5 - (w3 * p1 - w1 * p3), e6 - (w1 * p2 - w2 * p1)
        return (
            i11 * e1 + i12 * e2 + i13 * e3 + i14 * e4 + i15 * e5 + i16 * e6,
            i21 * e1 + i22 * e2 + i23 * e3 + i24 * e4 + i25 * e5 + i26 * e6,
            i31 * e1 + i32 * e2 + i33 * e3 + i34 * e4 + i35 * e5 + i36 * e6,
            i41 * e1 + i42 * e2 + i43 * e3 + i44 * e4 + i45 * e5 + i46 * e6,
            i51 * e1 + i52 * e2 + i53 * e3 + i54 * e4 + i55 * e5 + i56 * e6,
            i61 * e1 + i62 * e2 + i63 * e3 + i64 * e4 + i65 * e5 + i66 * e6,
        )

    return accel, m6_inv


def kirchhoff_rhs(si: SpatialInertia, nu: Twist, w: Wrench) -> np.ndarray:
    """Body-twist acceleration from M nu_dot = (tau - omega x pi - v x p, f - omega x p)."""
    accel, _ = kirchhoff_accel_fn(si, ForceModel(gravity=np.zeros(3), constant_wrench=w))
    return np.array(accel(0.0, _EYE9, _ZERO3, nu.flat))


def require_com_frame(si: SpatialInertia) -> None:
    """The Newton-Euler equations need the body origin at the center of mass."""
    offset = float(np.linalg.norm(si.c))
    if offset > 1e-12:
        raise FrameNotAtCoMError(f"body frame origin is {offset:.6g} m from the CoM; newton-euler requires c = 0")


def newton_euler_accel_fn(si: SpatialInertia, forces: ForceModel) -> Callable:
    """Float Newton-Euler acceleration ``accel(t, r, x, nu6)`` under ``forces``, for c = 0.

    omega_dot = J^-1 (tau - omega x J omega) and v_dot = f/m - omega x v, with J and J^-1 bound as 9 floats each.
    """
    j11, j12, j13, j21, j22, j23, j31, j32, j33 = si.j.ravel().tolist()
    i11, i12, i13, i21, i22, i23, i31, i32, i33 = spd_factor(si.j, "inertia tensor").ravel().tolist()
    mass, callback, (c1, c2, c3), (gx, gy, gz) = si.mass, forces.callback, si.c.tolist(), forces.gravity.tolist()
    t1, t2, t3, f1, f2, f3 = forces.constant_wrench.as_array().tolist()

    def accel(t, r, x, nu6):
        r1, r2, r3, r4, r5, r6, r7, r8, r9 = r
        g1, g2, g3 = r1 * gx + r4 * gy + r7 * gz, r2 * gx + r5 * gy + r8 * gz, r3 * gx + r6 * gy + r9 * gz
        e1, e2, e3 = mass * (c2 * g3 - c3 * g2) + t1, mass * (c3 * g1 - c1 * g3) + t2, mass * (c1 * g2 - c2 * g1) + t3
        e4, e5, e6 = mass * g1 + f1, mass * g2 + f2, mass * g3 + f3
        if callback is not None:
            k1, k2, k3, k4, k5, k6 = _callback_wrench(callback, t, r, x, nu6)
            e1, e2, e3, e4, e5, e6 = e1 + k1, e2 + k2, e3 + k3, e4 + k4, e5 + k5, e6 + k6
        w1, w2, w3, v1, v2, v3 = nu6
        h1, h2, h3 = j11 * w1 + j12 * w2 + j13 * w3, j21 * w1 + j22 * w2 + j23 * w3, j31 * w1 + j32 * w2 + j33 * w3
        e1, e2, e3 = e1 - (w2 * h3 - w3 * h2), e2 - (w3 * h1 - w1 * h3), e3 - (w1 * h2 - w2 * h1)
        return (i11 * e1 + i12 * e2 + i13 * e3, i21 * e1 + i22 * e2 + i23 * e3, i31 * e1 + i32 * e2 + i33 * e3,
                e4 / mass - (w2 * v3 - w3 * v2), e5 / mass - (w3 * v1 - w1 * v3), e6 / mass - (w1 * v2 - w2 * v1))

    return accel


def newton_euler_rhs(si: SpatialInertia, nu: Twist, w: Wrench) -> np.ndarray:
    """Closed form for the CoM-aligned case: Euler equation plus momentum balance (newton_euler_accel_fn)."""
    require_com_frame(si)
    accel = newton_euler_accel_fn(si, ForceModel(gravity=np.zeros(3), constant_wrench=w))
    return np.array(accel(0.0, _EYE9, _ZERO3, nu.flat))


def body_wrench_fn(forces: ForceModel, si: SpatialInertia):
    """Float total applied wrench ``w(t, r, x, nu6)`` in body axes about the body origin.

    Gravity acts at the CoM: force m R^T g, torque m c x (R^T g).  The
    accelerations of kirchhoff_accel_fn and newton_euler_accel_fn form the
    same wrench inline, operation for operation.
    """
    mass, callback = si.mass, forces.callback
    (c1, c2, c3), gravity = si.c.tolist(), forces.gravity.tolist()
    t1, t2, t3, f1, f2, f3 = forces.constant_wrench.as_array().tolist()

    def wrench(t, r, x, nu6):
        g1, g2, g3 = mat3t_vec(r, gravity)
        w = (mass * (c2 * g3 - c3 * g2) + t1, mass * (c3 * g1 - c1 * g3) + t2, mass * (c1 * g2 - c2 * g1) + t3,
             mass * g1 + f1, mass * g2 + f2, mass * g3 + f3)
        if callback is not None:
            w = tuple([a + b for a, b in zip(w, _callback_wrench(callback, t, r, x, nu6))])
        return w

    return wrench


def body_wrench(forces: ForceModel, si: SpatialInertia, t: float, pose: Pose, nu: Twist) -> Wrench:
    """Total applied wrench in body axes about the body origin; see body_wrench_fn."""
    w6 = body_wrench_fn(forces, si)(t, pose.rotation.flat, pose.flat, nu.flat)
    return Wrench(w6[:3], w6[3:])


def chart_rhs_fn(chart: ChartId, accel):
    """Chart-velocity right-hand side ``rhs(t, (g, x, u)) -> u_dot`` on float stage states.

    ``accel(t, r, x, nu)`` is the body-twist acceleration nu_dot at rotation
    r (a row-major 9-tuple) and position x.  With Phi invertible, the unified
    equation times Phi^-T is M (Phi u_dot + Phi_dot u) = F - bias(nu): the
    body solve, read through the chart's closed-form maps (charts.CHART_MAPS)
    as u_dot = Phi^-1 (nu_dot - Phi_dot u).  Every map returns a 6-tuple.  The
    Euler chart's maps and E_dot (charts._euler_rate_matrix_dot) are written out here.
    """
    if chart is ChartId.BODY_TWIST:  # Phi = I

        def rhs(t, s):
            r, x, u = s
            return accel(t, r, x, u)

    elif chart is ChartId.SPATIAL_TWIST:
        to_body, from_body = CHART_MAPS[chart]

        def rhs(t, s):
            # Phi_dot u = -ad_nu nu = 0, so u_dot = Phi^-1 nu_dot.
            r, x, u = s
            omega, v = to_body(r, r, x, u)
            nu_dot = accel(t, r, x, (*omega, *v))
            return from_body(r, r, x, nu_dot[:3], nu_dot[3:])

    else:

        def rhs(t, s):
            (phi, theta, psi), x, (u1, u2, u3, u4, u5, u6) = s
            if not math.isfinite(phi + theta + psi):
                raise NonFiniteStateError("Euler angles are not finite")
            st = math.sin(theta)
            gimbal_guard(st)
            ct, cf, sf, cp, sp = math.cos(theta), math.cos(phi), math.sin(phi), math.cos(psi), math.sin(psi)
            r = (cf * cp - sf * ct * sp, -cf * sp - sf * ct * cp, sf * st,
                 sf * cp + cf * ct * sp, -sf * sp + cf * ct * cp, -cf * st, st * sp, st * cp, ct)
            check_rotation(r)
            r1, r2, r3, r4, r5, r6, r7, r8, r9 = r
            # nu = (E u_ang, R^T u_lin), keeping E's zero and unit entries' products.
            w1, w2, w3 = (st * sp * u1 + cp * u2 + 0.0 * u3, st * cp * u1 + -sp * u2 + 0.0 * u3,
                          ct * u1 + 0.0 * u2 + 1.0 * u3)
            v1, v2, v3 = r1 * u4 + r4 * u5 + r7 * u6, r2 * u4 + r5 * u5 + r8 * u6, r3 * u4 + r6 * u5 + r9 * u6
            n1, n2, n3, n4, n5, n6 = accel(t, r, x, (w1, w2, w3, v1, v2, v3))
            # a = nu_dot - Phi_dot u, with Phi_dot u = (E_dot u_ang, -omega x v).
            a1 = n1 - ((ct * sp * u2 + st * cp * u3) * u1 + -sp * u3 * u2 + 0.0 * u3)
            a2 = n2 - ((ct * cp * u2 - st * sp * u3) * u1 + -cp * u3 * u2 + 0.0 * u3)
            a3 = n3 - (-st * u2 * u1 + 0.0 * u2 + 0.0 * u3)
            l1, l2, l3 = n4 + (w2 * v3 - w3 * v2), n5 + (w3 * v1 - w1 * v3), n6 + (w1 * v2 - w2 * v1)
            # u_dot = (E^-1 a_ang, R a_lin).
            phi_rate = (sp * a1 + cp * a2) / st
            return (phi_rate, cp * a1 - sp * a2, a3 - ct * phi_rate,
                    r1 * l1 + r2 * l2 + r3 * l3, r4 * l1 + r5 * l2 + r6 * l3, r7 * l1 + r8 * l2 + r9 * l3)

    return rhs


def chart_rhs(
    chart: ChartId,
    si: SpatialInertia,
    state: ChartState,
    forces: ForceModel,
    t: float = 0.0,
) -> np.ndarray:
    """Chart-velocity acceleration u_dot from the unified quasi-velocity equations.

    Solves (Phi^T M Phi) u_dot = Phi^T F - Phi^T (M Phi_dot u + bias(nu)) with
    nu = Phi u, through the body solve of chart_rhs_fn.  For the body-twist
    chart this is the Kirchhoff solve verbatim.
    """
    accel, _ = kirchhoff_accel_fn(si, forces)
    return np.array(chart_rhs_fn(chart, accel)(t, stage_state(chart, state)))


def gravity_potential(si: SpatialInertia, pose: Pose, gravity) -> float:
    """Potential -m g . x_G with x_G the CoM position in space."""
    return _conserved(si, np.asarray(gravity, dtype=float).tolist(), pose.rotation.flat, pose.flat, (0.0,) * 6)[1]


def spatial_angular_momentum(si: SpatialInertia, pose: Pose, nu: Twist) -> np.ndarray:
    """Angular momentum about the space origin: L = R pi + x x (R p)."""
    return np.array(_conserved(si, (0.0, 0.0, 0.0), pose.rotation.flat, pose.flat, nu.flat)[2])
