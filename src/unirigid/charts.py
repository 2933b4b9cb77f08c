"""Velocity charts: configuration-dependent maps from chart velocities to the body twist.

A chart assigns to every pose q a 6x6 kinematic matrix Phi(q) such that the
body twist is nu = Phi(q) u, where u are the chart velocities.  The dynamics
engine is written once against (Phi, dPhi/dt); picking a chart picks a
formulation.  Each chart states its two maps nu = Phi u and u = Phi^-1 nu
once, in closed form (``CHART_MAPS``); the matrices themselves (``chart_eval``)
give the Hamel coefficients in closed form and serve as the tests' reference.

* ``BODY_TWIST``    u is the body twist itself (Phi = I).  The Kirchhoff
                    route, and the state of the Newton-Euler route, whose
                    quasi-velocities (omega, v_G) map to it by the constant
                    Phi = [[I, 0], [hat(c), I]] (dynamics.newton_euler_accel_fn).
* ``SPATIAL_TWIST`` u is the space-frame twist; Phi = Ad(q)^-1.
* ``EULER_COM``     u = (phi_dot, theta_dot, psi_dot, xdot) where (phi,
                    theta, psi) are Z-X-Z Euler angles and x is the position
                    of the body-frame origin (the center of mass in the
                    standard configuration).  Plain generalized coordinates;
                    the Lagrange route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .geom3 import (
    Pose,
    Rotation,
    _float_tuple,
    _readonly,
    adjoint,
    check_rotation,
    cross,
    euler_matrix,
    exp_so3_matrix,
    hat,
    mat3_mul,
    mat3_vec,
    mat3t_vec,
    pose_inverse,
    rotation_to_euler,
    se3_ad,
)


def _se3_structure_constants() -> np.ndarray:
    """C[c, a, b] with [E_a, E_b] = C^c_ab E_c on (omega, v) twists: [w1, w2] = w1 x w2, linear part w1 x v2 - w2 x v1."""
    i, j, k = np.indices((3, 3, 3))
    eps = (i - j) * (j - k) * (k - i) / 2  # cyclic, so eps[k, i, j] = eps_ijk
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = c[3:, :3, 3:] = c[3:, 3:, :3] = eps
    c.setflags(write=False)
    return c


SE3_STRUCTURE_CONSTANTS = _se3_structure_constants()

_ZERO3 = (0.0, 0.0, 0.0)


class ChartId(Enum):
    BODY_TWIST = "body-twist"
    SPATIAL_TWIST = "spatial-twist"
    EULER_COM = "euler-com"


@dataclass(frozen=True)
class Twist:
    """Body twist (omega, vel) in body axes, kept as the float 6-tuple ``flat``; arrays are built on first read."""

    flat: tuple = field(init=False)

    def __init__(self, omega, vel):
        object.__setattr__(self, "flat", _float_tuple(omega, 3, "omega") + _float_tuple(vel, 3, "vel"))

    @cached_property
    def omega(self) -> np.ndarray:
        return _readonly(self.flat[:3])

    @cached_property
    def vel(self) -> np.ndarray:
        return _readonly(self.flat[3:])

    def as_array(self) -> np.ndarray:
        return np.array(self.flat)


@dataclass(frozen=True)
class ChartEval:
    """Kinematic matrix Phi and its time derivative along the current motion."""

    phi: np.ndarray
    phi_dot: np.ndarray


@dataclass(frozen=True)
class ChartState:
    """Dynamic state advanced in time: a pose plus chart velocities u, kept as the float 6-tuple ``flat``."""

    pose: Pose
    flat: tuple = field(init=False)

    def __init__(self, pose: Pose, u):
        object.__setattr__(self, "pose", pose)
        object.__setattr__(self, "flat", _float_tuple(u, 6, "chart velocity"))

    @cached_property
    def u(self) -> np.ndarray:
        return _readonly(self.flat)


def stage_state(chart: ChartId, state: ChartState) -> tuple:
    """The float ``(g, x, u)`` the integration kernel and chart right-hand sides work on.

    ``g`` is the rotation matrix as a row-major 9-tuple on the twist charts
    and the Z-X-Z angles (phi, theta, psi) on the Euler chart; ``x`` is the
    position 3-tuple, ``u`` the chart-velocity 6-tuple.  stage_pose is its
    inverse.  Every part is a tuple the boxes kept when they validated it.
    """
    pose = state.pose
    return _configuration(chart, pose), pose.flat, state.flat


def _configuration(chart: ChartId, pose: Pose) -> tuple:
    """The ``g`` of stage_state; on the Euler chart rotation_to_euler applies the gimbal rule."""
    if chart is ChartId.EULER_COM:
        return rotation_to_euler(pose.rotation)
    return pose.rotation.flat


def euler_rate_matrix(theta: float, psi: float) -> tuple:
    """E(theta, psi) as a row-major 9-tuple: body omega = E @ (phi', theta', psi')."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(psi), math.cos(psi)
    return (st * sp, cp, 0.0, st * cp, -sp, 0.0, ct, 0.0, 1.0)


def _euler_rate_matrix_dot(theta, psi, theta_dot, psi_dot) -> tuple:
    """dE/dt as a row-major 9-tuple along the angle rates theta_dot, psi_dot."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(psi), math.cos(psi)
    return (
        ct * sp * theta_dot + st * cp * psi_dot, -sp * psi_dot, 0.0,
        ct * cp * theta_dot - st * sp * psi_dot, -cp * psi_dot, 0.0,
        -st * theta_dot, 0.0, 0.0,
    )


def euler_rates(theta: float, psi: float, a) -> tuple:
    """E(theta, psi)^-1 @ a in closed form; theta must pass geom3.gimbal_guard."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(psi), math.cos(psi)
    a1, a2, a3 = a
    phi_rate = (sp * a1 + cp * a2) / st
    return phi_rate, cp * a1 - sp * a2, a3 - ct * phi_rate


def _phi(chart: ChartId, pose: Pose) -> np.ndarray:
    if chart is ChartId.BODY_TWIST:
        return np.eye(6)
    if chart is ChartId.SPATIAL_TWIST:
        return adjoint(pose_inverse(pose))  # Ad(q)^-1: spatial twist mapped to the body twist
    _, theta, psi = rotation_to_euler(pose.rotation)
    out = np.zeros((6, 6))
    out[:3, :3] = np.reshape(euler_rate_matrix(theta, psi), (3, 3))
    out[3:, 3:] = pose.rotation.m.T
    return out


def _phi_dot(chart: ChartId, pose: Pose, u: tuple, phi: np.ndarray) -> np.ndarray:
    if chart is ChartId.BODY_TWIST:
        return np.zeros((6, 6))
    if chart is ChartId.SPATIAL_TWIST:
        # d/dt Ad(q)^-1 = -ad_nu Ad(q)^-1 with nu the body twist.
        nu = phi @ u
        return -se3_ad(nu[:3], nu[3:]) @ phi
    _, theta, psi = rotation_to_euler(pose.rotation)
    omega = phi[:3, :3] @ u[:3]
    out = np.zeros((6, 6))
    out[:3, :3] = np.reshape(_euler_rate_matrix_dot(theta, psi, u[1], u[2]), (3, 3))
    out[3:, 3:] = -hat(omega) @ pose.rotation.m.T
    return out


def chart_eval(chart: ChartId, pose: Pose, u) -> ChartEval:
    """Kinematic matrix and its time derivative at (pose, u)."""
    u = _float_tuple(u, 6, "chart velocity")
    phi = _phi(chart, pose)
    return ChartEval(phi=phi, phi_dot=_phi_dot(chart, pose, u, phi))


def _body_to_body(g, r, x, u):
    return u[:3], u[3:]


def _body_from_body(g, r, x, omega, v):
    return (*omega, *v)


def _spatial_to_body(g, r, x, u):
    # Ad(q)^-1 (omega_s, v_s) = (R^T omega_s, R^T (v_s - x cross omega_s)).
    omega_s = u[:3]
    xw = cross(x, omega_s)
    return mat3t_vec(r, omega_s), mat3t_vec(r, (u[3] - xw[0], u[4] - xw[1], u[5] - xw[2]))


def _spatial_from_body(g, r, x, omega, v):
    # Ad(q) (omega, v) = (R omega, x cross R omega + R v).
    omega_s = mat3_vec(r, omega)
    xw, rv = cross(x, omega_s), mat3_vec(r, v)
    return (*omega_s, xw[0] + rv[0], xw[1] + rv[1], xw[2] + rv[2])


def _euler_to_body(g, r, x, u):
    return mat3_vec(euler_rate_matrix(g[1], g[2]), u[:3]), mat3t_vec(r, u[3:])


def _euler_from_body(g, r, x, omega, v):
    return (*euler_rates(g[1], g[2], omega), *mat3_vec(r, v))


# Per chart, nu = Phi u and u = Phi^-1 nu in closed form on the blocks of Phi, on
# floats: to_body(g, r, x, u) -> (omega, v) and from_body(g, r, x, omega, v) -> u,
# with g the stage configuration of stage_state, r the rotation as a row-major
# 9-tuple and x the position.
CHART_MAPS = {
    ChartId.BODY_TWIST: (_body_to_body, _body_from_body),
    ChartId.SPATIAL_TWIST: (_spatial_to_body, _spatial_from_body),
    ChartId.EULER_COM: (_euler_to_body, _euler_from_body),
}


def body_twist(chart: ChartId, state: ChartState) -> Twist:
    """nu = Phi(q) u."""
    g, x, u = stage_state(chart, state)
    return Twist(*CHART_MAPS[chart][0](g, state.pose.rotation.flat, x, u))


def chart_from_body_twist(chart: ChartId, pose: Pose, nu: Twist) -> np.ndarray:
    """u = Phi(q)^-1 nu; the common entry point for starting any formulation."""
    g, r, x = _configuration(chart, pose), pose.rotation.flat, pose.flat
    return np.array(CHART_MAPS[chart][1](g, r, x, nu.flat[:3], nu.flat[3:]))


def _dexpinv(half: float, u, sigma) -> tuple:
    """omega + half sigma x omega + sigma x (sigma x omega) / 12 for u = (omega, v); half is +-1/2."""
    w1, w2, w3 = u[0], u[1], u[2]
    s1, s2, s3 = sigma
    # c = sigma x omega and d = sigma x c, written out.
    c1, c2, c3 = s2 * w3 - s3 * w2, s3 * w1 - s1 * w3, s1 * w2 - s2 * w1
    d1, d2, d3 = s2 * c3 - s3 * c2, s3 * c1 - s1 * c3, s1 * c2 - s2 * c1
    return (w1 + half * c1 + (1.0 / 12.0) * d1, w2 + half * c2 + (1.0 / 12.0) * d2,
            w3 + half * c3 + (1.0 / 12.0) * d3)


def _body_rates(g, x, u, sigma):
    return _dexpinv(0.5, u, sigma), mat3_vec(g, u[3:])


def _spatial_rates(g, x, u, sigma):
    w1, w2, w3, v1, v2, v3 = u
    x1, x2, x3 = x
    return _dexpinv(-0.5, u, sigma), (v1 + (w2 * x3 - w3 * x2), v2 + (w3 * x1 - w1 * x3), v3 + (w1 * x2 - w2 * x1))


def _angle_rates(g, x, u, sigma):
    return u[:3], u[3:]


def _body_retract(g0, d_sigma, check=True):
    r = mat3_mul(g0, exp_so3_matrix(d_sigma))
    if check:
        check_rotation(r)
    return r


def _spatial_retract(g0, d_sigma, check=True):
    r = mat3_mul(exp_so3_matrix(d_sigma), g0)
    if check:
        check_rotation(r)
    return r


def _angle_retract(g0, d_sigma, check=True):
    return g0[0] + d_sigma[0], g0[1] + d_sigma[1], g0[2] + d_sigma[2]


# The kernel's stage maps per chart, looked up once per step.  rates(g, x, u, sigma)
# -> (sigma_dot, x_dot) is the configuration velocity in increment coordinates, sigma
# being the stage's rotation increment from the step's base: on the twist charts
# sigma_dot is dexpinv(sigma, omega) truncated after its double-commutator Bernoulli
# term, which fourth-order Lie-RK4 requires; on the Euler chart, the angle rates.
# retract(g0, d_sigma, check=True) -> g applies an increment: twist charts multiply by
# exp(d_sigma), on the right (body) or left (spatial), and check the product unless check is
# false (the step's end rotation, which its Rotation box checks); the Euler chart adds angles.
CHART_STAGES = {
    ChartId.BODY_TWIST: (_body_rates, _body_retract),
    ChartId.SPATIAL_TWIST: (_spatial_rates, _spatial_retract),
    ChartId.EULER_COM: (_angle_rates, _angle_retract),
}


def stage_pose(chart: ChartId, g, x, u) -> ChartState:
    """The ChartState of a float (g, x, u) whose x, u and Euler angles integrate.step tested finite.

    Inverse of stage_state; the rotation's one test, finiteness included, is its Rotation box.  x, u stay floats.
    """
    pose, state = object.__new__(Pose), object.__new__(ChartState)
    p, s = pose.__dict__, state.__dict__
    p["rotation"], p["flat"] = Rotation(euler_matrix(*g) if chart is ChartId.EULER_COM else g), (*map(float, x),)
    s["pose"], s["flat"] = pose, (*map(float, u),)
    return state


def hamel_coefficients(chart: ChartId, pose: Pose) -> np.ndarray:
    """Bracket coefficients gamma[k, i, j] of the chart basis fields, [X_i, X_j] = -gamma^k_ij X_k, in closed form.

    X_i has body twist Phi e_i, and the left-invariant frame brackets as
    [E_a, E_b] = C^c_ab E_c (``SE3_STRUCTURE_CONSTANTS``), so
    [X_i, X_j] = (Phi_ai Phi_bj C^c_ab + X_i(Phi_cj) - X_j(Phi_ci)) E_c, where
    X_i(Phi) is dPhi/dt at u = e_i; gamma is minus that bracket in the chart
    basis.  The body-twist chart gives -C, the spatial-twist chart +C (right-
    invariant fields bracket with the opposite sign), the Euler chart 0.
    """
    phi = _phi(chart, pose)
    dphi = np.array([_phi_dot(chart, pose, e, phi) for e in np.eye(6)])  # dphi[i, c, j] = X_i(Phi_cj)
    bracket = np.einsum("cab,ai,bj->cij", SE3_STRUCTURE_CONSTANTS, phi, phi)
    bracket += dphi.transpose(1, 0, 2) - dphi.transpose(1, 2, 0)
    return -np.linalg.solve(phi, bracket.reshape(6, 36)).reshape(6, 6, 6)
