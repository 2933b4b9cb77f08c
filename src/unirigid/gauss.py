"""Least-constraint acceleration solver.

The true acceleration of a constrained body minimizes the mass-weighted
squared deviation from the unconstrained acceleration,

    G(nu_dot) = 1/2 (nu_dot - nu_dot_free)^T M (nu_dot - nu_dot_free),

over the affine set A nu_dot = b.  The minimizer has the explicit form of
Udwadia and Kalaba (Proc. R. Soc. A 439, 1992): with the Schur complement
S = A M^-1 A^T of the bordered (KKT) system,

    lambda = S^-1 (b - A nu_dot_free),   nu_dot = nu_dot_free + M^-1 A^T lambda,

where lambda is the constraint reaction.  Constraints are expressed in the
body-twist chart only; with no constraint rows the solver reproduces the free
Kirchhoff acceleration exactly, which is what makes it usable as an
independent oracle for the chart engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import Twist
from .dynamics import STANDARD_GRAVITY, SpatialInertia, Wrench, kirchhoff_rhs
from .dynamics import setup_arithmetic, spd_factor
from .errors import RankDeficientConstraintError
from .geom3 import _as_vec3, _float_tuple, _readonly, as_rows, hat, matvec

# Relative singular-value threshold below which constraint rows count as dependent.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class AccelConstraint:
    """Affine acceleration-level constraint A nu_dot = b in the body-twist chart."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        k = len(self.a)
        a = np.reshape(_float_tuple(self.a, 6 * k, "constraint matrix", (k, 6)), (k, 6))
        b = np.array(_float_tuple(self.b, k, "constraint offset"))
        if k > 6:
            raise RankDeficientConstraintError(f"{k} rows cannot be independent in 6 dof")
        if k > 0:
            sv = np.linalg.svd(a, compute_uv=False)
            if sv[-1] <= RANK_TOL * sv[0]:
                raise RankDeficientConstraintError(
                    f"constraint rows dependent: singular values {sv!r}"
                )
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "b", _readonly(b))

    @property
    def k(self) -> int:
        return self.a.shape[0]

    @staticmethod
    def empty() -> "AccelConstraint":
        return AccelConstraint(np.zeros((0, 6)), np.zeros(0))


@dataclass(frozen=True)
class FixedPointConstraint:
    """Body point r_b pinned in space, with optional Baumgarte gains (1/s)."""

    r_b: np.ndarray
    baumgarte_alpha: float = 0.0
    baumgarte_beta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r_b", _as_vec3(self.r_b, "r_b"))
        if not (math.isfinite(self.baumgarte_alpha) and math.isfinite(self.baumgarte_beta)):
            raise ValueError("Baumgarte gains must be finite")


def gauss_functional(m6: np.ndarray, nu_dot_candidate, nu_dot_free) -> float:
    """Mass-weighted squared deviation from the free acceleration under the 6x6 inertia m6; zero at it."""
    d = np.asarray(nu_dot_candidate, dtype=float) - np.asarray(nu_dot_free, dtype=float)
    return 0.5 * float(d @ m6 @ d)


def schur_factor(m6_inv: np.ndarray, a: np.ndarray) -> "tuple[tuple, tuple]":
    """(M^-1 A^T, S^-1) with S = A M^-1 A^T, as tuples of rows; computed once for constant rows A."""
    what = "constraint Schur complement A M^-1 A^T"
    with setup_arithmetic(what, "constraint.point"):
        m_inv_at = m6_inv @ a.T
        s = a @ m_inv_at
    return as_rows(m_inv_at), as_rows(spd_factor(s, what, "constraint.point"))


def constrained_accel6(nu_dot_free, a, b, m_inv_at, s_inv) -> "tuple[tuple, tuple]":
    """Float core of constrained_accel on tuples of rows; (m_inv_at, s_inv) = schur_factor(M^-1, a)."""
    lam = matvec(s_inv, [bi - ai for bi, ai in zip(b, matvec(a, nu_dot_free))])
    return tuple([f + d for f, d in zip(nu_dot_free, matvec(m_inv_at, lam))]), lam


def constrained_accel(
    si: SpatialInertia,
    nu: Twist,
    wrench: Wrench,
    con: AccelConstraint,
) -> "tuple[np.ndarray, np.ndarray]":
    """Acceleration minimizing the constraint functional over A nu_dot = b.

    Returns (nu_dot, lambda) with lambda the physical reaction, so that

        M nu_dot + bias(nu) = F + A^T lambda.

    With no rows the free acceleration is returned untouched.
    """
    free = kirchhoff_rhs(si, nu, wrench)
    if con.k == 0:
        return free, np.zeros(0)
    nu_dot, lam = constrained_accel6(free.tolist(), as_rows(con.a), con.b.tolist(), *schur_factor(si.m6_inv, con.a))
    return np.array(nu_dot), np.array(lam)


def fixed_point_rows(fp: FixedPointConstraint) -> np.ndarray:
    """Constant constraint matrix [-hat(r_b) | I] of the pinned point."""
    return np.hstack([-hat(fp.r_b), np.eye(3)])


def fixed_point_rhs_fn(free_accel, m6_inv: np.ndarray, pin: FixedPointConstraint, anchor):
    """Body-chart stage function ``rhs(t, r, x, nu6)`` of the point ``pin`` holds at the space point ``anchor``.

    free_accel(t, r, x, nu6) is the unconstrained acceleration and m6_inv = M^-1.  The pin drift, the offset b
    and the solve of constrained_accel6 are written out, with A, S^-1, M^-1 A^T, r_b, the anchor and the gains
    bound as floats once; every sum runs left to right, as in the layered form, so the result is the same to the bit.
    """
    a_rows = fixed_point_rows(pin)
    m_inv_at, s_inv = schur_factor(m6_inv, a_rows)
    (a11, a12, a13, a14, a15, a16), (a21, a22, a23, a24, a25, a26), (a31, a32, a33, a34, a35, a36) = as_rows(a_rows)
    (s11, s12, s13), (s21, s22, s23), (s31, s32, s33) = s_inv
    (q11, q12, q13), (q21, q22, q23), (q31, q32, q33), (q41, q42, q43), (q51, q52, q53), (q61, q62, q63) = m_inv_at
    (b1, b2, b3), (n1, n2, n3) = pin.r_b.tolist(), map(float, anchor)
    two_alpha, beta_sq = 2.0 * pin.baumgarte_alpha, pin.baumgarte_beta * pin.baumgarte_beta

    def rhs(t, r, x, nu6):
        r1, r2, r3, r4, r5, r6, r7, r8, r9 = r
        # Drift of the pin in body axes, d = R^T (x + R r_b - anchor).
        p1, p2, p3 = r1 * b1 + r2 * b2 + r3 * b3, r4 * b1 + r5 * b2 + r6 * b3, r7 * b1 + r8 * b2 + r9 * b3
        e1, e2, e3 = x[0] + p1 - n1, x[1] + p2 - n2, x[2] + p3 - n3
        d1, d2, d3 = r1 * e1 + r4 * e2 + r7 * e3, r2 * e1 + r5 * e2 + r8 * e3, r3 * e1 + r6 * e2 + r9 * e3
        f1, f2, f3, f4, f5, f6 = free_accel(t, r, x, nu6)
        # Zero spatial pin acceleration: b = -omega x c_v - 2 alpha c_v - beta^2 d, c_v = v + omega x r_b.
        w1, w2, w3, v1, v2, v3 = nu6
        c1, c2, c3 = v1 + (w2 * b3 - w3 * b2), v2 + (w3 * b1 - w1 * b3), v3 + (w1 * b2 - w2 * b1)
        o1 = -(w2 * c3 - w3 * c2) - two_alpha * c1 - beta_sq * d1
        o2 = -(w3 * c1 - w1 * c3) - two_alpha * c2 - beta_sq * d2
        o3 = -(w1 * c2 - w2 * c1) - two_alpha * c3 - beta_sq * d3
        # lambda = S^-1 (b - A a_free), the reaction; then a_free + M^-1 A^T lambda.
        h1 = o1 - (a11 * f1 + a12 * f2 + a13 * f3 + a14 * f4 + a15 * f5 + a16 * f6)
        h2 = o2 - (a21 * f1 + a22 * f2 + a23 * f3 + a24 * f4 + a25 * f5 + a26 * f6)
        h3 = o3 - (a31 * f1 + a32 * f2 + a33 * f3 + a34 * f4 + a35 * f5 + a36 * f6)
        lam1, lam2 = s11 * h1 + s12 * h2 + s13 * h3, s21 * h1 + s22 * h2 + s23 * h3
        lam3 = s31 * h1 + s32 * h2 + s33 * h3
        return (f1 + (q11 * lam1 + q12 * lam2 + q13 * lam3), f2 + (q21 * lam1 + q22 * lam2 + q23 * lam3),
                f3 + (q31 * lam1 + q32 * lam2 + q33 * lam3), f4 + (q41 * lam1 + q42 * lam2 + q43 * lam3),
                f5 + (q51 * lam1 + q52 * lam2 + q53 * lam3), f6 + (q61 * lam1 + q62 * lam2 + q63 * lam3))

    return rhs


def steady_precession_rates(
    transverse_inertia: float,
    axial_inertia: float,
    mass: float,
    com_distance: float,
    theta0: float,
    spin: float,
) -> "tuple[float, float]":
    """Precession rates holding the nutation angle constant for a symmetric top.

    Roots of  I1 rate^2 cos(theta0) - I3 spin rate + m g l = 0, with I1 the
    transverse and I3 the axial moment about the pivot, l the pivot-to-CoM
    distance, g the standard gravity and spin the body-axis angular velocity
    component.  Returns (slow, fast); both are exact steady states.
    """
    a = transverse_inertia * math.cos(theta0)
    bq = -axial_inertia * spin
    cq = mass * float(-STANDARD_GRAVITY[2]) * com_distance
    disc = bq * bq - 4.0 * a * cq
    if disc < 0.0:
        raise ValueError(
            f"no steady precession: spin too slow (discriminant {disc!r} < 0)"
        )
    sq = math.sqrt(disc)
    r1 = (-bq - sq) / (2.0 * a)
    r2 = (-bq + sq) / (2.0 * a)
    slow, fast = sorted((r1, r2), key=abs)
    return slow, fast
