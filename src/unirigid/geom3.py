"""Rotations, poses and the adjoint machinery of the rigid placement group.

Orientation ground truth is the 3x3 rotation matrix; quaternions appear only
as an I/O convenience.  Twists and wrenches are ordered (angular, linear)
everywhere, and the Euler convention is Z-X-Z (precession phi, nutation theta,
spin psi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AngleNearPiError, GimbalLockError, NonFiniteStateError

# Orthogonality / determinant tolerance of check_rotation.
ORTHO_TOL = 1e-9
# Below this angle exp/log switch to 4th-order Taylor coefficients.
SMALL_ANGLE = 1e-6
# log_so3 refuses rotations with trace <= -1 + TRACE_NEAR_PI.
TRACE_NEAR_PI = 1e-9
# One gimbal threshold for every Euler-angle operation: valid iff sin(theta) >= GIMBAL_EPS.
GIMBAL_EPS = 1e-8


def _as_vec3(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {a.shape}")
    if not (math.isfinite(a[0]) and math.isfinite(a[1]) and math.isfinite(a[2])):
        raise ValueError(f"{name} must be finite, got {a}")
    return a


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors; avoids the generic np.cross dispatch."""
    a1, a2, a3 = a.tolist()
    b1, b2, b3 = b.tolist()
    return np.array([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1])


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def hat(w) -> np.ndarray:
    """Skew matrix S with S @ u == cross(w, u)."""
    x, y, z = _as_vec3(w, "w")
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(s: np.ndarray) -> np.ndarray:
    """Inverse of hat for a skew-symmetric matrix (no symmetry check)."""
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def check_rotation(m: np.ndarray) -> None:
    """Raise ValueError unless the array m is a 3x3 orthogonal matrix with det 1 to ORTHO_TOL.

    The one orthogonality check: ``Rotation`` runs it on construction and the
    integration kernel on every rotation it forms.
    """
    if m.shape != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got {m.shape}")
    d = m.T @ m
    d -= _EYE3
    defect_sq = float(np.vdot(d, d))
    # Written so NaN/Inf entries fail the comparison too.
    if not defect_sq <= ORTHO_TOL * ORTHO_TOL:
        raise ValueError(
            f"matrix is not orthogonal (or not finite): ||R^T R - I||_F^2 = {defect_sq!r}"
        )
    (a, b, c), (e, f, g), (h, i, j) = m.tolist()
    det = a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h)
    if not abs(det - 1.0) <= ORTHO_TOL:
        raise ValueError(f"matrix is not a proper rotation: det = {det!r}")


@dataclass(frozen=True)
class Rotation:
    """Proper rotation; orthogonality and det(m)=1 re-checked on construction."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        check_rotation(m)
        object.__setattr__(self, "m", _readonly(m))

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))

    def apply(self, v) -> np.ndarray:
        return self.m @ _as_vec3(v)

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(self.m @ other.m)


@dataclass(frozen=True)
class Pose:
    """Rigid placement: rotation plus position of the body-frame origin in space."""

    rotation: Rotation
    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _readonly(_as_vec3(self.position, "position")))

    @staticmethod
    def identity() -> "Pose":
        return Pose(Rotation.identity(), np.zeros(3))


@dataclass(frozen=True)
class EulerAngles:
    """Z-X-Z angles; the chart is valid for theta in (0, pi)."""

    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        for name in ("phi", "theta", "psi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def exp_so3_matrix(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula on a raw 3-vector, with a 4th-order Taylor branch below SMALL_ANGLE."""
    x, y, z = w.tolist()
    theta2 = x * x + y * y + z * z
    if not math.isfinite(theta2):
        raise NonFiniteStateError(f"rotation vector norm is not finite: |w|^2 = {theta2!r}")
    theta = math.sqrt(theta2)
    if theta < SMALL_ANGLE:
        a = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
        b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    # I + a hat(w) + b hat(w)^2 with hat(w)^2 = w w^T - theta^2 I, written out.
    return np.array(
        [
            [1.0 - b * (y * y + z * z), b * x * y - a * z, b * x * z + a * y],
            [b * x * y + a * z, 1.0 - b * (x * x + z * z), b * y * z - a * x],
            [b * x * z - a * y, b * y * z + a * x, 1.0 - b * (x * x + y * y)],
        ]
    )


def exp_so3(w) -> Rotation:
    """Rotation exp(hat(w)); see exp_so3_matrix."""
    return Rotation(exp_so3_matrix(_as_vec3(w, "w")))


def log_so3(r: Rotation) -> np.ndarray:
    """Rotation vector with angle in [0, pi); refuses angles within the pi cut."""
    m = r.m
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    if trace <= -1.0 + TRACE_NEAR_PI:
        raise AngleNearPiError(
            f"rotation angle within tolerance of pi (trace = {trace!r}); "
            "use a different reference configuration"
        )
    axis_sin = 0.5 * vee(m - m.T)  # sin(theta) * unit axis
    sin_theta = np.linalg.norm(axis_sin)
    cos_theta = 0.5 * (trace - 1.0)
    theta = math.atan2(sin_theta, cos_theta)
    if theta < SMALL_ANGLE:
        theta2 = theta * theta
        scale = 1.0 + theta2 / 6.0 + 7.0 * theta2 * theta2 / 360.0
    else:
        scale = theta / sin_theta
    return scale * axis_sin


def geodesic_distance(a: Rotation, b: Rotation) -> float:
    """Rotation angle of a^T b in [0, pi]; the natural metric for comparing orientations.

    atan2(|vee(C - C^T)| / 2, (tr C - 1) / 2) with C = a^T b has no cut at pi,
    unlike the logarithm.
    """
    c = a.m.T @ b.m
    s = c - c.T
    sin_theta = 0.5 * math.sqrt(s[2, 1] ** 2 + s[0, 2] ** 2 + s[1, 0] ** 2)
    return math.atan2(sin_theta, 0.5 * (c[0, 0] + c[1, 1] + c[2, 2] - 1.0))


def euler_matrix(phi: float, theta: float, psi: float) -> np.ndarray:
    """Raw R = Rz(phi) Rx(theta) Rz(psi), assembled entrywise."""
    cf, sf = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(psi), math.sin(psi)
    return np.array(
        [
            [cf * cp - sf * ct * sp, -cf * sp - sf * ct * cp, sf * st],
            [sf * cp + cf * ct * sp, -sf * sp + cf * ct * cp, -cf * st],
            [st * sp, st * cp, ct],
        ]
    )


def euler_to_rotation(e: EulerAngles) -> Rotation:
    """R = Rz(phi) Rx(theta) Rz(psi)."""
    return Rotation(euler_matrix(e.phi, e.theta, e.psi))


def gimbal_guard(sin_theta: float) -> None:
    """The Euler chart's one validity rule, sin(theta) >= GIMBAL_EPS; NaN and theta outside (0, pi) fail."""
    if not sin_theta >= GIMBAL_EPS:
        raise GimbalLockError(f"sin(theta) = {sin_theta:.3e} below {GIMBAL_EPS:g}")


def rotation_to_euler(r: Rotation) -> EulerAngles:
    """Inverse of euler_to_rotation where the chart is valid (see gimbal_guard).

    theta = atan2(sin(theta), R22) with sin(theta) = hypot(R20, R21) keeps full
    relative precision down to GIMBAL_EPS; acos(R22) cannot resolve theta below
    about 1.5e-8, where R22 rounds to 1.
    """
    m = r.m
    sin_theta = math.hypot(m[2, 0], m[2, 1])
    gimbal_guard(sin_theta)
    phi = math.atan2(m[0, 2], -m[1, 2])
    psi = math.atan2(m[2, 0], m[2, 1])
    return EulerAngles(phi, math.atan2(sin_theta, m[2, 2]), psi)


def pose_compose(a: Pose, b: Pose) -> Pose:
    """Semidirect-product law (Ra Rb, xa + Ra xb)."""
    return Pose(a.rotation.compose(b.rotation), a.position + a.rotation.m @ b.position)


def pose_inverse(a: Pose) -> Pose:
    rt = a.rotation.m.T
    return Pose(Rotation(rt), -(rt @ a.position))


def adjoint(p: Pose) -> np.ndarray:
    """6x6 adjoint [[R, 0], [hat(x) R, R]] acting on (angular, linear) twists."""
    out = np.zeros((6, 6))
    r = p.rotation.m
    out[:3, :3] = r
    out[3:, 3:] = r
    out[3:, :3] = hat(p.position) @ r
    return out


def se3_ad(omega, vel) -> np.ndarray:
    """Algebra adjoint ad_(omega, vel) = [[hat(w), 0], [hat(v), hat(w)]]."""
    out = np.zeros((6, 6))
    hw = hat(omega)
    out[:3, :3] = hw
    out[3:, 3:] = hw
    out[3:, :3] = hat(vel)
    return out


def quaternion_to_rotation(q) -> Rotation:
    """Unit quaternion (w, x, y, z) to rotation matrix; q is normalized first."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"quaternion must have shape (4,), got {q.shape}")
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("quaternion has zero norm")
    w, x, y, z = q / n
    return Rotation(
        np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
    )


def rotation_to_quaternion(r: Rotation) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0, via Shepperd's method."""
    m = r.m
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)
