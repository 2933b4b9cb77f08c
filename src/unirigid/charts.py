"""Velocity charts: configuration-dependent maps from chart velocities to the body twist.

A chart assigns to every pose q a 6x6 kinematic matrix Phi(q) such that the
body twist is nu = Phi(q) u, where u are the chart velocities.  The dynamics
engine is written once against (Phi, dPhi/dt); picking a chart picks a
formulation.  Each chart states its two maps nu = Phi u and u = Phi^-1 nu
once, in closed form (``CHART_MAPS``); the matrices themselves (``chart_eval``)
serve as the reference for the Hamel coefficients and the tests.

* ``BODY_TWIST``    u is the body twist itself (Phi = I).  Kirchhoff /
                    Newton-Euler route.
* ``SPATIAL_TWIST`` u is the space-frame twist; Phi = Ad(q)^-1.
* ``EULER_COM``     u = (phi_dot, theta_dot, psi_dot, xdot) where (phi,
                    theta, psi) are Z-X-Z Euler angles and x is the position
                    of the body-frame origin (the center of mass in the
                    standard configuration).  Plain generalized coordinates;
                    the Lagrange route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geom3 import (
    EulerAngles,
    Pose,
    Rotation,
    _as_vec3,
    _readonly,
    adjoint,
    check_rotation,
    cross3,
    euler_to_rotation,
    exp_so3,
    exp_so3_matrix,
    hat,
    log_so3,
    pose_compose,
    pose_inverse,
    rotation_to_euler,
    se3_ad,
)

# Step for the finite-difference commutators behind hamel_coefficients.
HAMEL_FD_STEP = 1e-5

_ZERO3 = np.zeros(3)
_ZERO3.flags.writeable = False


class Frame(Enum):
    BODY = "body"
    SPATIAL = "spatial"


class ChartId(Enum):
    BODY_TWIST = "body-twist"
    SPATIAL_TWIST = "spatial-twist"
    EULER_COM = "euler-com"


@dataclass(frozen=True)
class Twist:
    """Angular + linear velocity pair with an explicit frame tag."""

    omega: np.ndarray
    vel: np.ndarray
    frame: Frame

    def __post_init__(self):
        object.__setattr__(self, "omega", _readonly(_as_vec3(self.omega, "omega")))
        object.__setattr__(self, "vel", _readonly(_as_vec3(self.vel, "vel")))
        if not isinstance(self.frame, Frame):
            raise ValueError(f"frame must be a Frame, got {self.frame!r}")

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.omega, self.vel])


@dataclass(frozen=True)
class ChartEval:
    """Kinematic matrix Phi and its time derivative along the current motion."""

    phi: np.ndarray
    phi_dot: np.ndarray


@dataclass(frozen=True)
class ChartState:
    """Dynamic state advanced in time: a pose plus chart velocities."""

    pose: Pose
    u: np.ndarray

    def __post_init__(self):
        u = _as_u6(self.u)
        if not np.isfinite(u).all():
            raise ValueError("chart velocity must be finite")
        object.__setattr__(self, "u", _readonly(u))


def stage_state(chart: ChartId, state: ChartState) -> tuple:
    """The raw ``(g, x, u)`` the integration kernel and chart right-hand sides work on.

    ``g`` is the rotation matrix on the twist charts and the Z-X-Z angles
    (phi, theta, psi) on the Euler chart; ``x`` is the position, ``u`` the
    chart velocities.
    """
    pose = state.pose
    return _configuration(chart, pose), pose.position, state.u


def _configuration(chart: ChartId, pose: Pose):
    """The ``g`` of stage_state; on the Euler chart rotation_to_euler applies the gimbal rule."""
    if chart is ChartId.EULER_COM:
        e = rotation_to_euler(pose.rotation)
        return np.array([e.phi, e.theta, e.psi])
    return pose.rotation.m


def _as_u6(u) -> np.ndarray:
    a = np.asarray(u, dtype=float)
    if a.shape != (6,):
        raise ValueError(f"chart velocity must have shape (6,), got {a.shape}")
    return a


def euler_rate_matrix(theta: float, psi: float) -> np.ndarray:
    """Body angular velocity from Z-X-Z rates: omega = E(theta, psi) @ (phi', theta', psi')."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(psi), math.cos(psi)
    return np.array([[st * sp, cp, 0.0], [st * cp, -sp, 0.0], [ct, 0.0, 1.0]])


def _euler_rate_matrix_dot(theta, psi, theta_dot, psi_dot) -> np.ndarray:
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(psi), math.cos(psi)
    return np.array(
        [
            [ct * sp * theta_dot + st * cp * psi_dot, -sp * psi_dot, 0.0],
            [ct * cp * theta_dot - st * sp * psi_dot, -cp * psi_dot, 0.0],
            [-st * theta_dot, 0.0, 0.0],
        ]
    )


def euler_rates(theta: float, psi: float, a: np.ndarray) -> np.ndarray:
    """E(theta, psi)^-1 @ a in closed form; theta must pass geom3.gimbal_guard."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(psi), math.cos(psi)
    a1, a2, a3 = a
    phi_rate = (sp * a1 + cp * a2) / st
    return np.array([phi_rate, cp * a1 - sp * a2, a3 - ct * phi_rate])


def _phi(chart: ChartId, pose: Pose) -> np.ndarray:
    if chart is ChartId.BODY_TWIST:
        return np.eye(6)
    if chart is ChartId.SPATIAL_TWIST:
        return adjoint(pose_inverse(pose))  # Ad(q)^-1: spatial twist mapped to the body twist
    e = rotation_to_euler(pose.rotation)
    out = np.zeros((6, 6))
    out[:3, :3] = euler_rate_matrix(e.theta, e.psi)
    out[3:, 3:] = pose.rotation.m.T
    return out


def _phi_dot(chart: ChartId, pose: Pose, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    if chart is ChartId.BODY_TWIST:
        return np.zeros((6, 6))
    if chart is ChartId.SPATIAL_TWIST:
        # d/dt Ad(q)^-1 = -ad_nu Ad(q)^-1 with nu the body twist.
        nu = phi @ u
        return -se3_ad(nu[:3], nu[3:]) @ phi
    e = rotation_to_euler(pose.rotation)
    omega = phi[:3, :3] @ u[:3]
    out = np.zeros((6, 6))
    out[:3, :3] = _euler_rate_matrix_dot(e.theta, e.psi, u[1], u[2])
    out[3:, 3:] = -hat(omega) @ pose.rotation.m.T
    return out


def chart_eval(chart: ChartId, pose: Pose, u) -> ChartEval:
    """Kinematic matrix and its time derivative at (pose, u)."""
    u = _as_u6(u)
    phi = _phi(chart, pose)
    return ChartEval(phi=phi, phi_dot=_phi_dot(chart, pose, u, phi))


def _body_to_body(g, r, x, u):
    return u[:3], u[3:]


def _body_from_body(g, r, x, omega, v):
    return np.concatenate((omega, v))


def _spatial_to_body(g, r, x, u):
    # Ad(q)^-1 (omega_s, v_s) = (R^T omega_s, R^T (v_s - x cross omega_s)).
    rt = r.T
    return rt @ u[:3], rt @ (u[3:] - cross3(x, u[:3]))


def _spatial_from_body(g, r, x, omega, v):
    # Ad(q) (omega, v) = (R omega, x cross R omega + R v).
    omega_s = r @ omega
    return np.concatenate((omega_s, cross3(x, omega_s) + r @ v))


def _euler_to_body(g, r, x, u):
    return euler_rate_matrix(g[1], g[2]) @ u[:3], r.T @ u[3:]


def _euler_from_body(g, r, x, omega, v):
    return np.concatenate((euler_rates(g[1], g[2], omega), r @ v))


# Per chart, nu = Phi u and u = Phi^-1 nu in closed form on the blocks of Phi:
# to_body(g, r, x, u) -> (omega, v) and from_body(g, r, x, omega, v) -> u, with g the
# stage configuration of stage_state (or its list), r the rotation and x the position.
CHART_MAPS = {
    ChartId.BODY_TWIST: (_body_to_body, _body_from_body),
    ChartId.SPATIAL_TWIST: (_spatial_to_body, _spatial_from_body),
    ChartId.EULER_COM: (_euler_to_body, _euler_from_body),
}


def body_twist(chart: ChartId, state: ChartState) -> Twist:
    """nu = Phi(q) u, tagged as a body-frame twist."""
    g, x, u = stage_state(chart, state)
    return Twist(*CHART_MAPS[chart][0](g, state.pose.rotation.m, x, u), Frame.BODY)


def chart_from_body_twist(chart: ChartId, pose: Pose, nu: Twist) -> np.ndarray:
    """u = Phi(q)^-1 nu; the common entry point for starting any formulation."""
    if nu.frame is not Frame.BODY:
        raise ValueError("chart_from_body_twist requires a body-frame twist")
    g = _configuration(chart, pose)
    return CHART_MAPS[chart][1](g, pose.rotation.m, pose.position, nu.omega, nu.vel)


def chart_rates(chart: ChartId, g, x: np.ndarray, u: np.ndarray, sigma: np.ndarray):
    """Configuration velocity (sigma_dot, x_dot) of a raw stage state in increment coordinates.

    ``sigma`` is the stage's rotation increment from the step's base.  On the
    twist charts sigma_dot is the inverse exponential differential of omega
    truncated after its double-commutator Bernoulli term,

        dexpinv(sigma, w) = w +/- sigma x w / 2 + sigma x (sigma x w) / 12

    (plus on the body chart, minus on the spatial chart), which is what
    fourth-order Lie-RK4 requires; on the Euler chart it is the angle rates.
    """
    if chart is ChartId.EULER_COM:
        return u[:3], u[3:]
    omega = u[:3]
    c1 = cross3(sigma, omega)
    if chart is ChartId.BODY_TWIST:
        return omega + 0.5 * c1 + (1.0 / 12.0) * cross3(sigma, c1), g @ u[3:]
    return omega - 0.5 * c1 + (1.0 / 12.0) * cross3(sigma, c1), u[3:] + cross3(omega, x)


def chart_retract(chart: ChartId, g0, x0: np.ndarray, d_sigma: np.ndarray, d_x: np.ndarray):
    """Raw configuration reached from (g0, x0) by the increment (d_sigma, d_x).

    Twist charts multiply by exp(d_sigma), on the right (body) or left
    (spatial), and check the product; the Euler chart adds to its angles.
    """
    if chart is ChartId.EULER_COM:
        return g0 + d_sigma, x0 + d_x
    e = exp_so3_matrix(d_sigma)
    r = g0 @ e if chart is ChartId.BODY_TWIST else e @ g0
    check_rotation(r)
    return r, x0 + d_x


def stage_pose(chart: ChartId, g, x: np.ndarray) -> Pose:
    """Validated Pose of a raw configuration (inverse of stage_state's pose part)."""
    if chart is ChartId.EULER_COM:
        return Pose(euler_to_rotation(EulerAngles(*g.tolist())), x)
    return Pose(Rotation(g), x)


def advance_pose(chart: ChartId, state: ChartState, dt: float) -> Pose:
    """Pose reached by holding the chart velocities fixed for dt (one Lie-Euler step)."""
    g, x, u = stage_state(chart, state)
    sigma_dot, x_dot = chart_rates(chart, g, x, u, _ZERO3)
    return stage_pose(chart, *chart_retract(chart, g, x, dt * sigma_dot, dt * x_dot))


def _local_field_columns(chart: ChartId, base: Pose, z: np.ndarray) -> np.ndarray:
    """Chart basis fields written in the product local chart around ``base``.

    The local chart is z = (w, s) -> base * (exp_so3(w), s).  Column i is the
    z-velocity of the motion generated by unit chart velocity e_i at that
    configuration; its rotational part comes from a central difference of the
    log map, its translational part is exact.
    """
    h = HAMEL_FD_STEP
    rot_z = exp_so3(z[:3])
    g = pose_compose(base, Pose(rot_z, z[3:]))
    phi = _phi(chart, g)
    cols = np.zeros((6, 6))
    for i in range(6):
        omega, vel = phi[:3, i], phi[3:, i]
        plus = log_so3(rot_z.compose(exp_so3(h * omega)))
        minus = log_so3(rot_z.compose(exp_so3(-h * omega)))
        cols[:3, i] = (plus - minus) / (2.0 * h)
        cols[3:, i] = rot_z.m @ vel
    return cols


def hamel_coefficients(chart: ChartId, pose: Pose) -> np.ndarray:
    """Bracket coefficients gamma[k, i, j] of the chart basis fields.

    Defined through [X_i, X_j] = -gamma^k_ij X_k and computed numerically:
    the fields are differentiated in a local chart by central differences and
    the commutator is re-expressed in the chart basis.  For the body-twist
    chart this reproduces (minus) the structure constants of the rigid-motion
    algebra; for the Euler coordinate chart it vanishes.
    """
    h = HAMEL_FD_STEP
    x0 = _local_field_columns(chart, pose, np.zeros(6))
    jac = np.zeros((6, 6, 6))  # jac[k, i, a] = d (X_i)_k / d z_a
    for a in range(6):
        dz = np.zeros(6)
        dz[a] = h
        jac[:, :, a] = (
            _local_field_columns(chart, pose, dz) - _local_field_columns(chart, pose, -dz)
        ) / (2.0 * h)
    # [X_i, X_j] = DX_j . X_i - DX_i . X_j, evaluated at z = 0.
    bracket = np.einsum("kja,ai->kij", jac, x0) - np.einsum("kia,aj->kij", jac, x0)
    phi0 = _phi(chart, pose)
    gamma = -np.linalg.solve(phi0, bracket.reshape(6, 36)).reshape(6, 6, 6)
    # Enforce the exact antisymmetry the construction carries up to roundoff.
    return 0.5 * (gamma - np.transpose(gamma, (0, 2, 1)))
