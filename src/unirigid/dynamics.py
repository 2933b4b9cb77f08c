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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .charts import CHART_MAPS, ChartId, ChartState, Twist, _euler_rate_matrix_dot, stage_state
from .charts import euler_rate_matrix  # noqa: F401  (perfbench/tracer.py wraps it under this module)
from .errors import FrameNotAtCoMError, NonFiniteStateError, NotPositiveDefiniteError
from .geom3 import _EYE9, Pose, Rotation, _as_vec3, _readonly, as_rows, check_rotation, cross
from .geom3 import euler_matrix, gimbal_guard, hat, mat3_vec, mat3t_vec, matvec

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
    """Float core of kirchhoff_rhs; m6 and m6_inv = spd_factor(m6, ...) as tuples of rows."""
    b1, b2, b3, b4, b5, b6 = momentum_bias(nu6, matvec(m6, nu6))
    t1, t2, t3, f1, f2, f3 = w6
    return matvec(m6_inv, (t1 - b1, t2 - b2, t3 - b3, f1 - b4, f2 - b5, f3 - b6))


def kirchhoff_rhs(si: SpatialInertia, nu: Twist, w: Wrench) -> np.ndarray:
    """Body-twist acceleration from M nu_dot = (tau - omega x pi - v x p, f - omega x p)."""
    m6 = assemble_inertia(si)
    m6_inv = spd_factor(m6, "generalized inertia")
    nu6, w6 = nu.as_array().tolist(), w.as_array().tolist()
    return np.array(kirchhoff_rhs6(nu6, w6, as_rows(m6), as_rows(m6_inv)))


def kirchhoff_accel_fn(si: SpatialInertia, wrench) -> "tuple[Callable, np.ndarray]":
    """Float Kirchhoff acceleration ``accel(t, r, x, nu6)`` under ``wrench``, and M^-1 (factored once)."""
    m6 = assemble_inertia(si)
    m6_inv = spd_factor(m6, "generalized inertia")
    m6_rows, m6_inv_rows = as_rows(m6), as_rows(m6_inv)

    def accel(t, r, x, nu6):
        return kirchhoff_rhs6(nu6, wrench(t, r, x, nu6), m6_rows, m6_inv_rows)

    return accel, m6_inv


def require_com_frame(si: SpatialInertia) -> None:
    """The Newton-Euler equations need the body origin at the center of mass."""
    offset = float(np.linalg.norm(si.c))
    if offset > 1e-12:
        raise FrameNotAtCoMError(f"body frame origin is {offset:.6g} m from the CoM; newton-euler requires c = 0")


def newton_euler_rhs6(nu6, w6, j, j_inv, mass: float) -> tuple:
    """Float core of newton_euler_rhs; j and j_inv = spd_factor(j, ...) as tuples of rows."""
    omega, v = nu6[:3], nu6[3:]
    gyro = cross(omega, matvec(j, omega))
    omega_dot = matvec(j_inv, (w6[0] - gyro[0], w6[1] - gyro[1], w6[2] - gyro[2]))
    wv = cross(omega, v)
    return (*omega_dot, w6[3] / mass - wv[0], w6[4] / mass - wv[1], w6[5] / mass - wv[2])


def newton_euler_rhs(si: SpatialInertia, nu: Twist, w: Wrench) -> np.ndarray:
    """Closed form for the CoM-aligned case: Euler equation plus momentum balance.

    omega_dot = J^-1 (tau - omega x J omega),  v_dot = f/m - omega x v.
    """
    require_com_frame(si)
    j, j_inv = as_rows(si.j), as_rows(spd_factor(si.j, "inertia tensor"))
    return np.array(newton_euler_rhs6(nu.as_array().tolist(), w.as_array().tolist(), j, j_inv, si.mass))


def body_wrench_fn(forces: ForceModel, si: SpatialInertia):
    """Float total applied wrench ``w(t, r, x, nu6)`` in body axes about the body origin.

    Gravity acts at the CoM: force m R^T g, torque m c x (R^T g).  Pose and
    Twist objects are built only for a force callback.
    """
    mass, callback = si.mass, forces.callback
    (c1, c2, c3), gravity = si.c.tolist(), forces.gravity.tolist()
    t1, t2, t3, f1, f2, f3 = forces.constant_wrench.as_array().tolist()

    def wrench(t, r, x, nu6):
        g1, g2, g3 = mat3t_vec(r, gravity)
        w = (mass * (c2 * g3 - c3 * g2) + t1, mass * (c3 * g1 - c1 * g3) + t2, mass * (c1 * g2 - c2 * g1) + t3,
             mass * g1 + f1, mass * g2 + f2, mass * g3 + f3)
        if callback is not None:
            if not all(map(math.isfinite, (*nu6, *x))):
                raise NonFiniteStateError("state passed to the force callback is not finite")
            extra = callback(t, Pose(Rotation(np.array(r).reshape(3, 3)), x), Twist(nu6[:3], nu6[3:]))
            w = tuple([a + b for a, b in zip(w, extra.as_array().tolist())])
        return w

    return wrench


def body_wrench(forces: ForceModel, si: SpatialInertia, t: float, pose: Pose, nu: Twist) -> Wrench:
    """Total applied wrench in body axes about the body origin; see body_wrench_fn."""
    r, x = pose.rotation.m.ravel().tolist(), pose.position.tolist()
    w6 = body_wrench_fn(forces, si)(t, r, x, nu.as_array().tolist())
    return Wrench(w6[:3], w6[3:])


def chart_rhs_fn(chart: ChartId, accel):
    """Chart-velocity right-hand side ``rhs(t, (g, x, u)) -> u_dot`` on float stage states.

    ``accel(t, r, x, nu)`` is the body-twist acceleration nu_dot at rotation
    r (a row-major 9-tuple) and position x.  With Phi invertible, the unified
    equation times Phi^-T is M (Phi u_dot + Phi_dot u) = F - bias(nu): the
    body solve, read through the chart's closed-form maps (charts.CHART_MAPS)
    as u_dot = Phi^-1 (nu_dot - Phi_dot u).  Every map returns a 6-tuple.
    """
    to_body, from_body = CHART_MAPS[chart]
    if chart is ChartId.BODY_TWIST:  # Phi = I

        def rhs(t, s):
            r, x, u = s
            return accel(t, r, x, u)

    elif chart is ChartId.SPATIAL_TWIST:

        def rhs(t, s):
            # Phi_dot u = -ad_nu nu = 0, so u_dot = Phi^-1 nu_dot.
            r, x, u = s
            omega, v = to_body(r, r, x, u)
            nu_dot = accel(t, r, x, (*omega, *v))
            return from_body(r, r, x, nu_dot[:3], nu_dot[3:])

    else:

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
            # nu_dot - Phi_dot u, with Phi_dot u = (E_dot u_ang, -omega x v).
            e_dot_u = mat3_vec(_euler_rate_matrix_dot(theta, psi, u[1], u[2]), u[:3])
            wv = cross(omega, v)
            a_ang = (nu_dot[0] - e_dot_u[0], nu_dot[1] - e_dot_u[1], nu_dot[2] - e_dot_u[2])
            return from_body(g, r, x, a_ang, (nu_dot[3] + wv[0], nu_dot[4] + wv[1], nu_dot[5] + wv[2]))

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
    accel, _ = kirchhoff_accel_fn(si, body_wrench_fn(forces, si))
    return np.array(chart_rhs_fn(chart, accel)(t, stage_state(chart, state)))


def gravity_potential(si: SpatialInertia, pose: Pose, gravity) -> float:
    """Potential -m g . x_G with x_G the CoM position in space."""
    return _conserved(si, np.asarray(gravity, dtype=float).tolist(), pose.rotation.flat, pose.flat, (0.0,) * 6)[1]


def spatial_angular_momentum(si: SpatialInertia, pose: Pose, nu: Twist) -> np.ndarray:
    """Angular momentum about the space origin: L = R pi + x x (R p)."""
    return np.array(_conserved(si, (0.0, 0.0, 0.0), pose.rotation.flat, pose.flat, nu.flat)[2])
