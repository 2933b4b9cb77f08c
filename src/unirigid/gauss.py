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

from .charts import _ZERO3, Twist
from .dynamics import STANDARD_GRAVITY, ForceModel, SpatialInertia, Wrench, kirchhoff_accel_fn
from .dynamics import setup_arithmetic, spd_factor
from .errors import RankDeficientConstraintError
from .geom3 import _EYE9, _as_vec3, _float_tuple, _readonly, as_rows, cross, hat, matvec

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
    av = matvec(a, nu_dot_free)
    if len(av) == 3:  # the pinned point
        lam = matvec(s_inv, (b[0] - av[0], b[1] - av[1], b[2] - av[2]))
    else:
        lam = matvec(s_inv, [bi - ai for bi, ai in zip(b, av)])
    f1, f2, f3, f4, f5, f6 = nu_dot_free
    d1, d2, d3, d4, d5, d6 = matvec(m_inv_at, lam)
    return (f1 + d1, f2 + d2, f3 + d3, f4 + d4, f5 + d5, f6 + d6), lam


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
    accel, m6_inv = kirchhoff_accel_fn(si, ForceModel(gravity=np.zeros(3), constant_wrench=wrench))
    free = accel(0.0, _EYE9, _ZERO3, nu.flat)
    if con.k == 0:
        return np.array(free), np.zeros(0)
    nu_dot, lam = constrained_accel6(free, as_rows(con.a), con.b.tolist(), *schur_factor(m6_inv, con.a))
    return np.array(nu_dot), np.array(lam)


def fixed_point_rows(fp: FixedPointConstraint) -> np.ndarray:
    """Constant constraint matrix [-hat(r_b) | I] of the pinned point."""
    return np.hstack([-hat(fp.r_b), np.eye(3)])


def fixed_point_offset_fn(fp: FixedPointConstraint):
    """Float core of the pinned-point constraint offset, ``b(nu6, position_drift)``; the pin is read once here."""
    r_b = fp.r_b.tolist()
    two_alpha, beta_sq = 2.0 * fp.baumgarte_alpha, fp.baumgarte_beta * fp.baumgarte_beta

    def offset(nu6, position_drift) -> tuple:
        # Zero spatial pin acceleration: b = -omega x c_v - 2 alpha c_v - beta^2 drift, c_v = v + omega x r_b.
        omega = nu6[:3]
        rw = cross(omega, r_b)
        c1, c2, c3 = c_v = (nu6[3] + rw[0], nu6[4] + rw[1], nu6[5] + rw[2])
        a1, a2, a3 = cross(omega, c_v)
        d1, d2, d3 = position_drift
        return (-a1 - two_alpha * c1 - beta_sq * d1, -a2 - two_alpha * c2 - beta_sq * d2,
                -a3 - two_alpha * c3 - beta_sq * d3)

    return offset


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
