"""Rotations, poses and the adjoint machinery of the rigid placement group.

Orientation ground truth is the 3x3 rotation matrix; quaternions appear only
as an I/O convenience.  The integration kernel runs on Python floats: vectors
are tuples, a rotation is a row-major 9-tuple and any other matrix a tuple of rows.  Twists and wrenches are ordered (angular, linear)
everywhere, and Euler angles are the Z-X-Z float triple (precession phi,
nutation theta, spin psi).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce

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

_EYE9 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _float_tuple(v, n: int, name: str, shape: tuple = None, finite: bool = True) -> tuple:
    """The n floats of v as a flat tuple, checked finite unless ``finite`` is false; an n-tuple goes through
    float() alone, anything else through numpy, where it must have ``shape`` (default (n,))."""
    if type(v) is tuple and len(v) == n:
        # Not tuple(map(...)): that tuple bypasses CPython's tuple free list, which the freed ones then fill.
        flat = (*map(float, v),)
    else:
        a = np.asarray(v, dtype=float)
        if a.shape != (shape or (n,)):
            raise ValueError(f"{name} must have shape {shape or (n,)}, got {a.shape}")
        flat = tuple(a.ravel().tolist())
    if finite and not all(map(math.isfinite, flat)):
        raise ValueError(f"{name} must be finite, got {flat}")
    return flat


def _readonly(a) -> np.ndarray:
    """A read-only float array that owns its data; a may be a float tuple or a tuple of rows."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _as_vec3(v, name: str = "vector") -> np.ndarray:
    return _readonly(_float_tuple(v, 3, name))


def cross(a, b) -> tuple:
    """Cross product of two 3-sequences as a float 3-tuple."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)


def mat3_vec(m, v) -> tuple:
    """m @ v for a row-major 9-tuple m."""
    a, b, c, d, e, f, g, h, i = m
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def mat3t_vec(m, v) -> tuple:
    """m^T @ v for a row-major 9-tuple m."""
    a, b, c, d, e, f, g, h, i = m
    x, y, z = v
    return (a * x + d * y + g * z, b * x + e * y + h * z, c * x + f * y + i * z)


def mat3_mul(m, n) -> tuple:
    """m @ n for row-major 9-tuples."""
    a, b, c, d, e, f, g, h, i = m
    p, q, r, s, t, u, v, w, x = n
    return (
        a * p + b * s + c * v, a * q + b * t + c * w, a * r + b * u + c * x,
        d * p + e * s + f * v, d * q + e * t + f * w, d * r + e * u + f * x,
        g * p + h * s + i * v, g * q + h * t + i * w, g * r + h * u + i * x,
    )


def matvec(rows, v) -> tuple:
    """rows @ v for a tuple of rows, each summed left to right from its first product."""
    return tuple([reduce(operator.add, map(operator.mul, row, v)) for row in rows])


def as_rows(a) -> tuple:
    """A 2-D array as the tuple of float rows that matvec takes."""
    return tuple(map(tuple, np.asarray(a, dtype=float).tolist()))


def hat(w) -> np.ndarray:
    """Skew matrix S with S @ u == cross(w, u)."""
    x, y, z = _as_vec3(w, "w")
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(s: np.ndarray) -> np.ndarray:
    """Inverse of hat for a skew-symmetric matrix (no symmetry check)."""
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def check_rotation(m) -> None:
    """Raise ValueError unless the row-major 9-sequence m is orthogonal with det 1 to ORTHO_TOL.

    The one orthogonality check, and the one finiteness test of a Rotation's entries (NaN or +-inf fails it):
    ``Rotation`` runs it on construction and the integration kernel on every stage rotation it forms.
    """
    a, b, c, d, e, f, g, h, i = m
    # Entries of R^T R - I: dot products of the columns (a, d, g), (b, e, h), (c, f, i).
    d00 = a * a + d * d + g * g - 1.0
    d11 = b * b + e * e + h * h - 1.0
    d22 = c * c + f * f + i * i - 1.0
    d01 = a * b + d * e + g * h
    d02 = a * c + d * f + g * i
    d12 = b * c + e * f + h * i
    defect_sq = d00 * d00 + d11 * d11 + d22 * d22 + 2.0 * (d01 * d01 + d02 * d02 + d12 * d12)
    # Written so NaN/Inf entries fail the comparison too.
    if not defect_sq <= ORTHO_TOL * ORTHO_TOL:
        raise ValueError(
            f"matrix is not orthogonal (or not finite): ||R^T R - I||_F^2 = {defect_sq!r}"
        )
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not abs(det - 1.0) <= ORTHO_TOL:
        raise ValueError(f"matrix is not a proper rotation: det = {det!r}")


@dataclass(frozen=True)
class Rotation:
    """Proper rotation, from a 3x3 array-like or its row-major 9-tuple; re-checked on construction.

    ``flat`` is the float 9-tuple the check ran on: its entries are converted once and tested once, finiteness
    included, by check_rotation.  Every box (Rotation, Pose, charts.Twist, charts.ChartState) stores its
    validated float tuple ``flat``, compares and hashes on it, and builds its read-only arrays from it on first read.
    """

    flat: tuple = field(init=False)

    def __init__(self, m):
        # Validation stays in __post_init__, run once per construction: perfbench counts Rotations through it.
        self.__dict__["flat"] = m
        self.__post_init__()

    def __post_init__(self):
        self.__dict__["flat"] = flat = _float_tuple(self.__dict__["flat"], 9, "rotation matrix", (3, 3), False)
        check_rotation(flat)

    @cached_property
    def m(self) -> np.ndarray:
        f = self.flat
        return _readonly((f[:3], f[3:6], f[6:]))

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(_EYE9)

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation(self.m @ other.m)


@dataclass(frozen=True)
class Pose:
    """Rigid placement: rotation plus position of the body-frame origin in space, kept as the 3-tuple ``flat``."""

    rotation: Rotation
    flat: tuple = field(init=False)

    def __init__(self, rotation: Rotation, position):
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "flat", _float_tuple(position, 3, "position"))

    @cached_property
    def position(self) -> np.ndarray:
        return _readonly(self.flat)

    @staticmethod
    def identity() -> "Pose":
        return Pose(Rotation.identity(), (0.0, 0.0, 0.0))


def exp_so3_matrix(w) -> tuple:
    """Rodrigues formula on a 3-sequence as a row-major 9-tuple; Taylor branch below SMALL_ANGLE."""
    x, y, z = w
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
    return (
        1.0 - b * (y * y + z * z), b * x * y - a * z, b * x * z + a * y,
        b * x * y + a * z, 1.0 - b * (x * x + z * z), b * y * z - a * x,
        b * x * z - a * y, b * y * z + a * x, 1.0 - b * (x * x + y * y),
    )


def exp_so3(w) -> Rotation:
    """Rotation exp(hat(w)); see exp_so3_matrix."""
    return Rotation(exp_so3_matrix(_float_tuple(w, 3, "w")))


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


def geodesic_distance(a, b) -> float:
    """Rotation angle of a^T b in [0, pi]; the natural metric for comparing orientations.

    a and b are Rotations or 3x3 arrays.  atan2(|vee(C - C^T)| / 2, (tr C - 1) / 2)
    with C = a^T b has no cut at pi, unlike the logarithm.
    """
    c = getattr(a, "m", a).T @ getattr(b, "m", b)
    s = c - c.T
    sin_theta = 0.5 * math.sqrt(s[2, 1] ** 2 + s[0, 2] ** 2 + s[1, 0] ** 2)
    return math.atan2(sin_theta, 0.5 * (c[0, 0] + c[1, 1] + c[2, 2] - 1.0))


def euler_matrix(phi: float, theta: float, psi: float) -> tuple:
    """R = Rz(phi) Rx(theta) Rz(psi) as a row-major 9-tuple, assembled entrywise."""
    cf, sf = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(psi), math.sin(psi)
    return (
        cf * cp - sf * ct * sp, -cf * sp - sf * ct * cp, sf * st,
        sf * cp + cf * ct * sp, -sf * sp + cf * ct * cp, -cf * st,
        st * sp, st * cp, ct,
    )


def euler_to_rotation(angles) -> Rotation:
    """R = Rz(phi) Rx(theta) Rz(psi) of the 3-sequence (phi, theta, psi)."""
    return Rotation(euler_matrix(*_float_tuple(angles, 3, "Euler angles")))


def gimbal_guard(sin_theta: float) -> None:
    """The Euler chart's one validity rule, sin(theta) >= GIMBAL_EPS; NaN and theta outside (0, pi) fail."""
    if not sin_theta >= GIMBAL_EPS:
        raise GimbalLockError(f"sin(theta) = {sin_theta:.3e} below {GIMBAL_EPS:g}")


def rotation_to_euler(r: Rotation) -> tuple:
    """Inverse of euler_to_rotation where the chart is valid (see gimbal_guard): the float triple (phi, theta, psi).

    theta = atan2(sin(theta), R22) with sin(theta) = hypot(R20, R21) keeps full
    relative precision down to GIMBAL_EPS; acos(R22) cannot resolve theta below
    about 1.5e-8, where R22 rounds to 1.
    """
    _, _, r02, _, _, r12, r20, r21, r22 = r.flat
    sin_theta = math.hypot(r20, r21)
    gimbal_guard(sin_theta)
    return math.atan2(r02, -r12), math.atan2(sin_theta, r22), math.atan2(r20, r21)


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


def normalize_quaternion(q) -> "tuple[list, float, int]":
    """(q / |q|, n, k) of a quaternion whose norm |q| is n 2^k; a norm below 1e-12 or a non-finite entry is refused."""
    q = _float_tuple(q, 4, "quaternion")
    # Scaled by 2^-k, its largest |entry| below 1: exact, so the norm cannot overflow and q / n keeps its bits.
    k = math.frexp(max(map(abs, q)))[1]
    q = [math.ldexp(c, -k) for c in q]
    n = float(np.linalg.norm(q))
    if not math.ldexp(n, min(k, 0)) >= 1e-12:  # the unscaled norm, when it is below 1
        raise ValueError(f"quaternion norm {math.ldexp(n, k)!r} is zero or not finite")
    return [c / n for c in q], n, k


def quaternion_to_rotation(q) -> Rotation:
    """Quaternion (w, x, y, z) to rotation matrix, normalized first by normalize_quaternion."""
    (w, x, y, z), _, _ = normalize_quaternion(q)
    return Rotation((1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
                     2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
                     2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)))


def quaternion_from_matrix(m) -> np.ndarray:
    """Unit quaternions (w, x, y, z), w >= 0, of row-major rotations, (..., 9) -> (..., 4), by Shepperd's method.

    Each branch runs on its own rows alone, so no square root sees a negative radicand, and does a row's float
    operations in the order of the one-row formula; the norm is summed left to right, so the bits do not depend
    on the BLAS build or on the other rows.
    """
    m = np.asarray(m, dtype=float)
    flat = m.reshape(-1, 9)
    a, e, i = flat[:, 0], flat[:, 4], flat[:, 8]
    trace = a + e + i > 0.0
    big_x = ~trace & (a >= e) & (a >= i)
    big_y = ~trace & ~big_x & (e >= i)
    q = np.empty((len(flat), 4))
    for j, rows in enumerate((trace, big_x, big_y, ~(trace | big_x | big_y))):
        if not rows.any():
            continue
        a, b, c, d, e, f, g, h, i = flat[rows].T
        s = np.sqrt((a + e + i + 1.0, 1.0 + a - e - i, 1.0 + e - a - i, 1.0 + i - a - e)[j]) * 2.0
        over = {(0, 1): h - f, (0, 2): c - g, (0, 3): d - b, (1, 2): b + d, (1, 3): c + g, (2, 3): f + h}
        q[rows] = np.stack([0.25 * s if k == j else over[min(j, k), max(j, k)] / s for k in range(4)], axis=1)
    q[q[:, 0] < 0.0] *= -1.0
    n = np.sqrt(q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1] + q[:, 2] * q[:, 2] + q[:, 3] * q[:, 3])
    return (q / n[:, None]).reshape(m.shape[:-1] + (4,))


def rotation_to_quaternion(r: Rotation) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0; see quaternion_from_matrix."""
    return quaternion_from_matrix(r.flat)
