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

from .charts import _ZERO3, CHART_MAPS, ChartId, ChartState, Frame, Twist, _euler_rate_matrix_dot, stage_state
from .charts import euler_rate_matrix  # noqa: F401  (perfbench/tracer.py wraps it under this module)
from .errors import FrameNotAtCoMError, NonFiniteStateError, NotPositiveDefiniteError
from .geom3 import _EYE3, Pose, Rotation, _as_vec3, _readonly, check_rotation, cross3, euler_matrix, gimbal_guard, hat

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
        object.__setattr__(self, "c", _readonly(_as_vec3(self.c, "c")))
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
        object.__setattr__(self, "pi", _readonly(_as_vec3(self.pi, "pi")))
        object.__setattr__(self, "p", _readonly(_as_vec3(self.p, "p")))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.pi, self.p])


@dataclass(frozen=True)
class Wrench:
    """Torque + force with a frame tag; body wrenches act about the body origin."""

    torque: np.ndarray
    force: np.ndarray
    frame: Frame = Frame.BODY

    def __post_init__(self):
        object.__setattr__(self, "torque", _readonly(_as_vec3(self.torque, "torque")))
        object.__setattr__(self, "force", _readonly(_as_vec3(self.force, "force")))
        if not isinstance(self.frame, Frame):
            raise ValueError(f"frame must be a Frame, got {self.frame!r}")

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.torque, self.force])

    @staticmethod
    def zero(frame: Frame = Frame.BODY) -> "Wrench":
        return Wrench(np.zeros(3), np.zeros(3), frame)


@dataclass(frozen=True)
class ForceModel:
    """Applied-force description: uniform gravity plus optional wrenches.

    ``callback`` must be a pure function (t, pose, twist) -> Wrench; spatial
    wrenches are taken about the space origin and converted internally.
    """

    gravity: np.ndarray = field(default_factory=lambda: STANDARD_GRAVITY.copy())
    constant_wrench: Wrench = field(default_factory=Wrench.zero)
    callback: Optional[Callable[[float, Pose, Twist], Wrench]] = None

    def __post_init__(self):
        object.__setattr__(self, "gravity", _readonly(_as_vec3(self.gravity, "gravity")))


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
    if nu.frame is not Frame.BODY:
        raise ValueError("momentum requires a body-frame twist")
    m6 = assemble_inertia(si)
    out = m6 @ nu.as_array()
    return Momentum(out[:3], out[3:])


def conserved6(m6, mass, c, gravity, r, x, nu6) -> "tuple[float, float, np.ndarray]":
    """Raw (kinetic energy, gravitational potential, angular momentum about the space origin).

    T = 1/2 nu^T M nu,  V = -m g . (x + R c),  L = R pi + x cross (R p)
    with (pi, p) = M nu, for the body twist nu6 at rotation r and position x.
    """
    mom6 = m6 @ nu6
    return (
        0.5 * float(nu6 @ mom6),
        -mass * float(gravity @ (x + r @ c)),
        r @ mom6[:3] + cross3(x, r @ mom6[3:]),
    )


def energy(si: SpatialInertia, nu: Twist) -> float:
    """Kinetic energy T = 1/2 nu^T M nu."""
    if nu.frame is not Frame.BODY:
        raise ValueError("energy requires a body-frame twist")
    return conserved6(assemble_inertia(si), si.mass, si.c, _ZERO3, _EYE3, _ZERO3, nu.as_array())[0]


def momentum_bias(nu6: np.ndarray, mom6: np.ndarray) -> np.ndarray:
    """Gyroscopic term (omega x pi + v x p, omega x p) of the momentum balance."""
    w1, w2, w3, v1, v2, v3 = nu6.tolist()
    a1, a2, a3, p1, p2, p3 = mom6.tolist()
    return np.array(
        [
            (w2 * a3 - w3 * a2) + (v2 * p3 - v3 * p2),
            (w3 * a1 - w1 * a3) + (v3 * p1 - v1 * p3),
            (w1 * a2 - w2 * a1) + (v1 * p2 - v2 * p1),
            w2 * p3 - w3 * p2,
            w3 * p1 - w1 * p3,
            w1 * p2 - w2 * p1,
        ]
    )


def kirchhoff_rhs6(nu6: np.ndarray, w6: np.ndarray, m6: np.ndarray, m6_inv: np.ndarray) -> np.ndarray:
    """Raw-array core of kirchhoff_rhs; m6_inv = spd_factor(m6, ...)."""
    return m6_inv @ (w6 - momentum_bias(nu6, m6 @ nu6))


def kirchhoff_rhs(si: SpatialInertia, nu: Twist, w: Wrench) -> np.ndarray:
    """Body-twist acceleration from M nu_dot = (tau - omega x pi - v x p, f - omega x p)."""
    if nu.frame is not Frame.BODY or w.frame is not Frame.BODY:
        raise ValueError("kirchhoff_rhs requires body-frame twist and wrench")
    m6 = assemble_inertia(si)
    return kirchhoff_rhs6(nu.as_array(), w.as_array(), m6, spd_factor(m6, "generalized inertia"))


def kirchhoff_accel_fn(si: SpatialInertia, wrench) -> "tuple[Callable, np.ndarray]":
    """Raw Kirchhoff acceleration ``accel(t, r, x, nu6)`` under ``wrench``, and M^-1 (factored once)."""
    m6 = assemble_inertia(si)
    m6_inv = spd_factor(m6, "generalized inertia")

    def accel(t, r, x, nu6):
        return kirchhoff_rhs6(nu6, wrench(t, r, x, nu6), m6, m6_inv)

    return accel, m6_inv


def require_com_frame(si: SpatialInertia) -> None:
    """The Newton-Euler equations need the body origin at the center of mass."""
    if np.linalg.norm(si.c) > 1e-12:
        raise FrameNotAtCoMError(
            f"body frame origin is {np.linalg.norm(si.c)!r} m from the CoM; "
            "newton_euler_rhs requires c = 0"
        )


def newton_euler_rhs6(
    nu6: np.ndarray, w6: np.ndarray, j: np.ndarray, j_inv: np.ndarray, mass: float
) -> np.ndarray:
    """Raw-array core of newton_euler_rhs; j_inv = spd_factor(j, ...)."""
    omega = nu6[:3]
    omega_dot = j_inv @ (w6[:3] - cross3(omega, j @ omega))
    return np.concatenate((omega_dot, w6[3:] / mass - cross3(omega, nu6[3:])))


def newton_euler_rhs(si: SpatialInertia, nu: Twist, w: Wrench) -> np.ndarray:
    """Closed form for the CoM-aligned case: Euler equation plus momentum balance.

    omega_dot = J^-1 (tau - omega x J omega),  v_dot = f/m - omega x v.
    """
    require_com_frame(si)
    if nu.frame is not Frame.BODY or w.frame is not Frame.BODY:
        raise ValueError("newton_euler_rhs requires body-frame twist and wrench")
    j_inv = spd_factor(si.j, "inertia tensor")
    return newton_euler_rhs6(nu.as_array(), w.as_array(), si.j, j_inv, si.mass)


def _spatial_to_body6(w: Wrench, r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Spatial wrench (about the space origin) to body axes, by the transposed pose adjoint."""
    rt = r.T
    return np.concatenate((rt @ (w.torque - cross3(x, w.force)), rt @ w.force))


def wrench_to_body(w: Wrench, pose: Pose) -> Wrench:
    """Transport a wrench to body axes about the body origin."""
    if w.frame is Frame.BODY:
        return w
    w6 = _spatial_to_body6(w, pose.rotation.m, pose.position)
    return Wrench(w6[:3], w6[3:], Frame.BODY)


def body_wrench_fn(forces: ForceModel, si: SpatialInertia):
    """Raw total applied wrench ``w(t, r, x, nu6)`` in body axes about the body origin.

    Gravity acts at the CoM: force m R^T g, torque m c x (R^T g).  Pose and
    Twist objects are built only for a force callback.
    """
    mass, c, gravity, callback = si.mass, si.c, forces.gravity, forces.callback
    cw = forces.constant_wrench
    body_cw = cw.as_array() if cw.frame is Frame.BODY else None

    def wrench(t, r, x, nu6):
        g_body = r.T @ gravity
        w = mass * np.concatenate((cross3(c, g_body), g_body))
        w += body_cw if body_cw is not None else _spatial_to_body6(cw, r, x)
        if callback is not None:
            if not (np.isfinite(nu6).all() and np.isfinite(x).all()):
                raise NonFiniteStateError("state passed to the force callback is not finite")
            pose = Pose(Rotation(r), x)
            extra = callback(t, pose, Twist(nu6[:3], nu6[3:], Frame.BODY))
            w += wrench_to_body(extra, pose).as_array()
        return w

    return wrench


def body_wrench(forces: ForceModel, si: SpatialInertia, t: float, pose: Pose, nu: Twist) -> Wrench:
    """Total applied wrench in body axes about the body origin; see body_wrench_fn."""
    w6 = body_wrench_fn(forces, si)(t, pose.rotation.m, pose.position, nu.as_array())
    return Wrench(w6[:3], w6[3:], Frame.BODY)


def chart_rhs_fn(chart: ChartId, accel):
    """Chart-velocity right-hand side ``rhs(t, (g, x, u)) -> u_dot`` on raw stage states.

    ``accel(t, r, x, nu)`` is the body-twist acceleration nu_dot at rotation
    matrix r and position x.  With Phi invertible, the unified equation times
    Phi^-T is M (Phi u_dot + Phi_dot u) = F - bias(nu): the body solve, read
    through the chart's closed-form maps (charts.CHART_MAPS) as
    u_dot = Phi^-1 (nu_dot - Phi_dot u).
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
            nu_dot = accel(t, r, x, np.concatenate(to_body(r, r, x, u)))
            return from_body(r, r, x, nu_dot[:3], nu_dot[3:])

    else:

        def rhs(t, s):
            angles, x, u = s
            g = angles.tolist()
            phi, theta, psi = g
            if not math.isfinite(phi + theta + psi):
                raise NonFiniteStateError("Euler angles are not finite")
            gimbal_guard(math.sin(theta))
            r = euler_matrix(phi, theta, psi)
            check_rotation(r)
            omega, v = to_body(g, r, x, u)
            nu_dot = accel(t, r, x, np.concatenate((omega, v)))
            # nu_dot - Phi_dot u, with Phi_dot u = (E_dot u_ang, -omega x v).
            a_ang = nu_dot[:3] - _euler_rate_matrix_dot(theta, psi, u[1], u[2]) @ u[:3]
            return from_body(g, r, x, a_ang, nu_dot[3:] + cross3(omega, v))

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
    return chart_rhs_fn(chart, accel)(t, stage_state(chart, state))


def gravity_potential(si: SpatialInertia, pose: Pose, gravity) -> float:
    """Potential -m g . x_G with x_G the CoM position in space."""
    g, r, x = np.asarray(gravity, dtype=float), pose.rotation.m, pose.position
    return conserved6(assemble_inertia(si), si.mass, si.c, g, r, x, np.zeros(6))[1]


def spatial_angular_momentum(si: SpatialInertia, pose: Pose, nu: Twist) -> np.ndarray:
    """Angular momentum about the space origin: L = R pi + x x (R p)."""
    if nu.frame is not Frame.BODY:
        raise ValueError("spatial_angular_momentum requires a body-frame twist")
    r, x = pose.rotation.m, pose.position
    return conserved6(assemble_inertia(si), si.mass, si.c, _ZERO3, r, x, nu.as_array())[2]
