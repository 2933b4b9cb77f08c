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

with nu = Phi u and bias(nu) = (omega x pi + v x p, omega x p).  Newton-Euler's
quasi-velocities (omega, v_G), with v_G = v + omega x c, map to the body twist
by the constant Phi = [[I, 0], [hat(c), I]]; Phi^T M Phi = diag(J_G, m I), so
the balance splits into its rotation about the CoM and its translation.

Each route's stage right-hand side is one flat float function, built once
per run: kirchhoff_accel_fn forms the applied wrench and the 6x6 solve
inline, newton_euler_accel_fn the wrench about the CoM and the 3x3 solve
with J_G, and chart_rhs_fn's Euler transport forms R, E u, E_dot u and E^-1
from one sin/cos of each angle.  They do the operations of the layered forms
(charts.CHART_MAPS and the references of the tests) in the same order, so
every result is the same to the bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .charts import _ZERO3, CHART_MAPS, ChartId, Twist
from .charts import euler_rate_matrix  # noqa: F401  (perfbench/tracer.py wraps it under this module)
from .errors import NonFiniteStateError, NotPositiveDefiniteError
from .geom3 import _EYE9, _as_vec3, _float_tuple, _readonly, check_rotation, cross
from .geom3 import gimbal_guard, hat, mat3_vec, matvec

# Symmetry / triangle-inequality slack for inertia validation.
INERTIA_TOL = 1e-12

STANDARD_GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass(frozen=True)
class SpatialInertia:
    """Mass, inertia tensor about the body origin (body axes), CoM offset.

    The one inertia validation; each NotPositiveDefiniteError names its scenario field.
    ``m6`` (M, assemble_inertia) and ``m6_inv`` (M^-1, spd_factor) are read-only
    arrays built at most once per body and shared by every route, sample and check.
    """

    mass: float
    j: np.ndarray
    c: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not (np.isfinite(self.mass) and self.mass > 0.0):
            raise NotPositiveDefiniteError(
                f"mass must be positive and finite, got {self.mass!r}", field="mass"
            )
        j = np.reshape(_float_tuple(self.j, 9, "inertia tensor", (3, 3)), (3, 3))
        scale = max(1.0, float(np.abs(j).max()))
        with setup_arithmetic("inertia data"):
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
                np.linalg.cholesky(self.m6)
            except np.linalg.LinAlgError:
                raise NotPositiveDefiniteError(
                    "assembled 6x6 inertia is not positive definite (CoM offset too large)"
                ) from None

    m6 = cached_property(lambda self: _readonly(assemble_inertia(self)))
    m6_inv = cached_property(lambda self: _readonly(spd_factor(self.m6, "generalized inertia")))


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
    """Applied-force description: uniform gravity plus a constant body wrench."""

    gravity: np.ndarray = field(default_factory=lambda: STANDARD_GRAVITY.copy())
    constant_wrench: Wrench = field(default_factory=Wrench.zero)

    def __post_init__(self):
        object.__setattr__(self, "gravity", _as_vec3(self.gravity, "gravity"))


@contextmanager
def setup_arithmetic(what: str, field: str = "inertia"):
    """Set-up arithmetic on inertia and constraint data: a FloatingPointError from overflow, an invalid
    operation or division by zero becomes NotPositiveDefiniteError naming ``field``.  Underflow stays
    quiet: valid inertias can have subnormal entries."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as err:
        raise NotPositiveDefiniteError(f"{what} overflows float range ({err})", field) from None


def spd_factor(a: np.ndarray, what: str, field: str = "inertia") -> np.ndarray:
    """Factor a symmetric positive definite matrix once, for repeated solves.

    Returns the inverse, built from the Cholesky factor L as L^-T L^-1, so
    that every later solve is one matrix-vector product.  Failures name the
    scenario ``field``.
    """
    try:
        with setup_arithmetic(what, field):
            l_inv = np.linalg.inv(np.linalg.cholesky(0.5 * (a + a.T)))
            return l_inv.T @ l_inv
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(f"{what} is not positive definite", field) from None


def assemble_inertia(si: SpatialInertia) -> np.ndarray:
    """The 6x6 generalized inertia coupling twists to momenta."""
    m = np.zeros((6, 6))
    mc = si.mass * hat(si.c)
    m[:3, :3] = si.j
    m[:3, 3:] = mc
    m[3:, :3] = -mc
    m[3:, 3:] = si.mass * np.eye(3)
    return m


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


def kirchhoff_accel_fn(si: SpatialInertia, forces: ForceModel) -> Callable:
    """Float Kirchhoff acceleration ``accel(t, r, x, nu6)`` under ``forces``.

    nu_dot = M^-1 (w - bias(nu)) with the body's si.m6 and si.m6_inv bound as 36 floats each; every sum
    runs left to right.
    """
    (m11, m12, m13, m14, m15, m16, m21, m22, m23, m24, m25, m26, m31, m32, m33, m34, m35, m36,
     m41, m42, m43, m44, m45, m46, m51, m52, m53, m54, m55, m56, m61, m62, m63, m64, m65, m66) = si.m6.ravel().tolist()
    (i11, i12, i13, i14, i15, i16, i21, i22, i23, i24, i25, i26, i31, i32, i33, i34, i35, i36,
     i41, i42, i43, i44, i45, i46, i51, i52, i53, i54, i55, i56, i61, i62, i63, i64, i65, i66) = si.m6_inv.ravel().tolist()
    mass, (c1, c2, c3), (gx, gy, gz) = si.mass, si.c.tolist(), forces.gravity.tolist()
    t1, t2, t3, f1, f2, f3 = forces.constant_wrench.as_array().tolist()

    def accel(t, r, x, nu6):
        r1, r2, r3, r4, r5, r6, r7, r8, r9 = r
        g1, g2, g3 = r1 * gx + r4 * gy + r7 * gz, r2 * gx + r5 * gy + r8 * gz, r3 * gx + r6 * gy + r9 * gz
        e1, e2, e3 = mass * (c2 * g3 - c3 * g2) + t1, mass * (c3 * g1 - c1 * g3) + t2, mass * (c1 * g2 - c2 * g1) + t3
        e4, e5, e6 = mass * g1 + f1, mass * g2 + f2, mass * g3 + f3
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

    return accel


def kirchhoff_rhs(si: SpatialInertia, nu: Twist, w: Wrench) -> np.ndarray:
    """Body-twist acceleration from M nu_dot = (tau - omega x pi - v x p, f - omega x p)."""
    accel = kirchhoff_accel_fn(si, ForceModel(gravity=np.zeros(3), constant_wrench=w))
    return np.array(accel(0.0, _EYE9, _ZERO3, nu.flat))


def newton_euler_accel_fn(si: SpatialInertia, forces: ForceModel) -> Callable:
    """Float Newton-Euler acceleration ``accel(t, r, x, nu6)`` under ``forces``, from the balance about the CoM.

    The quasi-velocities (omega, v_G), with v_G = v + omega x c the CoM velocity in body axes, give the
    block-diagonal mass diag(J_G, m I), J_G = J + m hat(c)^2.  So omega_dot = J_G^-1 (tau_G - omega x J_G omega)
    and v_dot = f/m - omega x v_G - omega_dot x c, with J_G and J_G^-1 bound as 9 floats each.  Gravity has no
    torque about the CoM; the constant wrench's tau_G = t - c x f is formed here, once.
    """
    hat_c = hat(si.c)
    j_g = si.j + si.mass * (hat_c @ hat_c)
    j11, j12, j13, j21, j22, j23, j31, j32, j33 = j_g.ravel().tolist()
    i11, i12, i13, i21, i22, i23, i31, i32, i33 = spd_factor(j_g, "inertia tensor about the CoM").ravel().tolist()
    mass, (c1, c2, c3), (gx, gy, gz) = si.mass, si.c.tolist(), forces.gravity.tolist()
    t1, t2, t3, f1, f2, f3 = forces.constant_wrench.as_array().tolist()
    t1, t2, t3 = t1 - (c2 * f3 - c3 * f2), t2 - (c3 * f1 - c1 * f3), t3 - (c1 * f2 - c2 * f1)

    def accel(t, r, x, nu6):
        r1, r2, r3, r4, r5, r6, r7, r8, r9 = r
        g1, g2, g3 = r1 * gx + r4 * gy + r7 * gz, r2 * gx + r5 * gy + r8 * gz, r3 * gx + r6 * gy + r9 * gz
        e1, e2, e3, e4, e5, e6 = t1, t2, t3, mass * g1 + f1, mass * g2 + f2, mass * g3 + f3
        w1, w2, w3, v1, v2, v3 = nu6
        h1, h2, h3 = j11 * w1 + j12 * w2 + j13 * w3, j21 * w1 + j22 * w2 + j23 * w3, j31 * w1 + j32 * w2 + j33 * w3
        e1, e2, e3 = e1 - (w2 * h3 - w3 * h2), e2 - (w3 * h1 - w1 * h3), e3 - (w1 * h2 - w2 * h1)
        a1, a2, a3 = i11 * e1 + i12 * e2 + i13 * e3, i21 * e1 + i22 * e2 + i23 * e3, i31 * e1 + i32 * e2 + i33 * e3
        # v_G = v + omega x c, then v_dot = f/m - omega x v_G - omega_dot x c.
        u1, u2, u3 = v1 + (w2 * c3 - w3 * c2), v2 + (w3 * c1 - w1 * c3), v3 + (w1 * c2 - w2 * c1)
        return (a1, a2, a3, e4 / mass - (w2 * u3 - w3 * u2) - (a2 * c3 - a3 * c2),
                e5 / mass - (w3 * u1 - w1 * u3) - (a3 * c1 - a1 * c3),
                e6 / mass - (w1 * u2 - w2 * u1) - (a1 * c2 - a2 * c1))

    return accel


def chart_rhs_fn(chart: ChartId, accel):
    """Chart-velocity right-hand side ``rhs(t, g, x, u) -> u_dot`` on float stage states.

    ``accel(t, r, x, nu)`` is the body-twist acceleration nu_dot at rotation
    r (a row-major 9-tuple) and position x.  With Phi invertible, the unified
    equation times Phi^-T is M (Phi u_dot + Phi_dot u) = F - bias(nu): the
    body solve, read through the chart's closed-form maps (charts.CHART_MAPS)
    as u_dot = Phi^-1 (nu_dot - Phi_dot u).  On the body-twist chart (Phi = I)
    that is accel itself, returned as it is.  Every map returns a 6-tuple.  The
    Euler chart's maps and E_dot (charts._euler_rate_matrix_dot) are written out here.
    """
    if chart is ChartId.BODY_TWIST:
        return accel
    if chart is ChartId.SPATIAL_TWIST:
        to_body, from_body = CHART_MAPS[chart]

        def rhs(t, r, x, u):
            # Phi_dot u = -ad_nu nu = 0, so u_dot = Phi^-1 nu_dot.
            omega, v = to_body(r, r, x, u)
            nu_dot = accel(t, r, x, (*omega, *v))
            return from_body(r, r, x, nu_dot[:3], nu_dot[3:])

    else:

        def rhs(t, g, x, u):
            (phi, theta, psi), (u1, u2, u3, u4, u5, u6) = g, u
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

