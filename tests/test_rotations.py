"""Rotation / pose primitive tests.

The exponential map is checked against a scaling-and-squaring oracle that
shares no code with the Rodrigues implementation.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import shepperd_quaternion

from unirigid.charts import ChartState, Twist
from unirigid.errors import AngleNearPiError, GimbalLockError
from unirigid.geom3 import (
    Pose,
    Rotation,
    adjoint,
    euler_to_rotation,
    exp_so3,
    geodesic_distance,
    hat,
    log_so3,
    pose_compose,
    pose_inverse,
    quaternion_from_matrix,
    quaternion_to_rotation,
    rotation_to_euler,
    rotation_to_quaternion,
)


def matrix_exp_oracle(w):
    """exp(hat(w)) by 50 squarings of the first-order seed I + hat(w)/2^50."""
    m = np.eye(3) + hat(w) / 2.0**50
    for _ in range(50):
        m = m @ m
    return m


def random_rotation(rng, max_angle=3.0):
    w = rng.normal(size=3)
    w *= rng.uniform(0.0, max_angle) / np.linalg.norm(w)
    return exp_so3(w)


def random_pose(rng, max_angle=3.0):
    return Pose(random_rotation(rng, max_angle), rng.normal(size=3))


class TestHat:
    def test_zero(self):
        assert np.array_equal(hat([0.0, 0.0, 0.0]), np.zeros((3, 3)))

    def test_unit_x(self):
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        assert np.array_equal(hat([1.0, 0.0, 0.0]), expected)

    def test_matches_cross_product(self):
        rng = np.random.default_rng(20260810)
        for _ in range(200):
            w = rng.normal(size=3)
            u = rng.normal(size=3)
            assert np.allclose(hat(w) @ u, np.cross(w, u), atol=1e-15)

    def test_skew(self):
        rng = np.random.default_rng(20260811)
        w = rng.normal(size=3)
        s = hat(w)
        assert np.array_equal(s.T, -s)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            hat([np.nan, 0.0, 0.0])


class TestExpSo3:
    def test_zero_is_identity(self):
        assert np.allclose(exp_so3(np.zeros(3)).m, np.eye(3), atol=0)

    def test_quarter_turn_about_x(self):
        r = exp_so3([math.pi / 2, 0.0, 0.0])
        assert np.allclose(r.m @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_against_scaling_and_squaring(self):
        rng = np.random.default_rng(20260812)
        for _ in range(200):
            w = rng.normal(size=3) * rng.uniform(0.0, 2.0)
            assert np.allclose(exp_so3(w).m, matrix_exp_oracle(w), atol=1e-10)

    def test_small_angle_branch_continuity(self):
        # Entrywise agreement between the Taylor and closed-form coefficient
        # branches for angles within 1e-9 of the 1e-6 switch point.
        def rodrigues_closed_form(w):
            theta = np.linalg.norm(w)
            s = hat(w)
            a = math.sin(theta) / theta
            b = (1.0 - math.cos(theta)) / theta**2
            return np.eye(3) + a * s + b * (s @ s)

        def rodrigues_taylor(w):
            theta2 = float(np.dot(w, w))
            s = hat(w)
            a = 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0
            b = 0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0
            return np.eye(3) + a * s + b * (s @ s)

        axis = np.array([0.6, -0.8, 0.0])
        for angle in (1e-6 - 1e-9, 1e-6, 1e-6 + 1e-9):
            w = axis * angle
            assert np.max(np.abs(rodrigues_closed_form(w) - rodrigues_taylor(w))) <= 1e-12
            # Whichever branch exp_so3 picked, it must agree with both.
            assert np.max(np.abs(exp_so3(w).m - rodrigues_taylor(w))) <= 1e-12


class TestLogSo3:
    def test_identity(self):
        assert np.array_equal(log_so3(Rotation.identity()), np.zeros(3))

    def test_round_trip_fixed(self):
        w = np.array([0.3, -0.2, 0.1])
        assert np.allclose(log_so3(exp_so3(w)), w, atol=1e-10)

    def test_round_trip_random(self):
        rng = np.random.default_rng(20260813)
        for _ in range(1000):
            w = rng.normal(size=3)
            w *= rng.uniform(0.0, 3.0) / np.linalg.norm(w)
            assert np.linalg.norm(log_so3(exp_so3(w)) - w) < 1e-9

    def test_tiny_angle_round_trip(self):
        for scale in (1e-10, 1e-8, 1e-7, 1e-5):
            w = np.array([1.0, -2.0, 2.0]) * (scale / 3.0)
            assert np.linalg.norm(log_so3(exp_so3(w)) - w) <= 1e-9 * max(1.0, scale)

    def test_angle_near_pi_rejected(self):
        r = exp_so3([math.pi - 1e-12, 0.0, 0.0])
        with pytest.raises(AngleNearPiError):
            log_so3(r)

    def test_angle_in_range(self):
        rng = np.random.default_rng(20260814)
        for _ in range(100):
            w = log_so3(random_rotation(rng, max_angle=3.1))
            assert 0.0 <= np.linalg.norm(w) < math.pi


class TestGeodesicDistance:
    def test_coincident(self):
        rng = np.random.default_rng(20260815)
        r = random_rotation(rng)
        assert geodesic_distance(r, r) == 0.0

    def test_exponential_coordinates(self):
        assert math.isclose(
            geodesic_distance(Rotation.identity(), exp_so3([0.5, 0.0, 0.0])), 0.5, rel_tol=1e-12
        )

    @pytest.mark.parametrize("angle", [math.pi - 1e-6, math.pi])
    def test_no_cut_at_pi(self, angle):
        # log_so3 refuses this neighbourhood; the distance has no cut there.
        assert math.isclose(
            geodesic_distance(Rotation.identity(), exp_so3([angle, 0.0, 0.0])), angle, abs_tol=1e-9
        )
        rng = np.random.default_rng(27182818)
        for _ in range(100):
            a = random_rotation(rng)
            axis = rng.normal(size=3)
            b = a.compose(exp_so3(angle * axis / np.linalg.norm(axis)))
            assert math.isclose(geodesic_distance(a, b), angle, abs_tol=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(20260816)
        a, b = random_rotation(rng), random_rotation(rng)
        assert math.isclose(geodesic_distance(a, b), geodesic_distance(b, a), rel_tol=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(20260817)
        for _ in range(1000):
            a = random_rotation(rng, 1.0)
            b = random_rotation(rng, 1.0)
            c = random_rotation(rng, 1.0)
            assert geodesic_distance(a, c) <= (
                geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-12
            )


class TestEulerAngles:
    def test_zero_is_identity(self):
        assert np.allclose(euler_to_rotation((0.0, 0.0, 0.0)).m, np.eye(3))

    def test_degenerate_axis_composition(self):
        # With theta = 0 both z-rotations merge: R(phi, 0, psi) = Rz(phi + psi).
        phi, psi = 0.7, -0.4
        r = euler_to_rotation((phi, 0.0, psi))
        expected = euler_to_rotation((phi + psi, 0.0, 0.0))
        assert np.allclose(r.m, expected.m, atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(20260818)
        for _ in range(1000):
            phi, theta, psi = (
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.05, math.pi - 0.05),
                rng.uniform(-math.pi, math.pi),
            )
            phi_b, theta_b, psi_b = rotation_to_euler(euler_to_rotation((phi, theta, psi)))
            assert abs(theta_b - theta) < 1e-10
            assert abs(math.remainder(phi_b - phi, 2 * math.pi)) < 1e-10
            assert abs(math.remainder(psi_b - psi, 2 * math.pi)) < 1e-10

    def test_gimbal_lock_rejected(self):
        with pytest.raises(GimbalLockError):
            rotation_to_euler(Rotation.identity())

    def test_angles_are_a_float_triple(self):
        angles = rotation_to_euler(euler_to_rotation([0.3, 1.0, -0.4]))
        assert type(angles) is tuple and len(angles) == 3 and all(type(a) is float for a in angles)
        assert euler_to_rotation(np.array(angles)) == euler_to_rotation(angles)

    @pytest.mark.parametrize("angles", [(math.nan, 1.0, 0.0), (0.0, math.inf, 0.0), [0.0, 1.0, -math.inf],
                                        (0.3, 1.0), [0.3, 1.0, -0.4, 0.0]])
    def test_non_finite_or_wrong_length_angles_rejected(self, angles):
        with pytest.raises(ValueError, match="Euler angles"):
            euler_to_rotation(angles)

    def test_resolves_nutation_down_to_the_gimbal_threshold(self):
        # sin(theta) >= GIMBAL_EPS = 1e-8 is the one rule; acos(R22) would round theta to 0 here.
        phi, theta, psi = rotation_to_euler(euler_to_rotation((0.3, 2e-8, -0.4)))
        assert math.isclose(theta, 2e-8, rel_tol=1e-12)
        assert abs(phi - 0.3) <= 1e-6 and abs(psi + 0.4) <= 1e-6
        with pytest.raises(GimbalLockError):
            rotation_to_euler(euler_to_rotation((0.3, 5e-9, -0.4)))


class TestPose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(20260819)
        p = random_pose(rng)
        q = pose_compose(Pose.identity(), p)
        assert np.allclose(q.rotation.m, p.rotation.m) and np.allclose(q.position, p.position)

    def test_inverse(self):
        rng = np.random.default_rng(20260820)
        p = random_pose(rng)
        q = pose_compose(p, pose_inverse(p))
        assert np.linalg.norm(q.rotation.m - np.eye(3)) <= 1e-12
        assert np.linalg.norm(q.position) <= 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(20260821)
        for _ in range(1000):
            a, b, c = random_pose(rng), random_pose(rng), random_pose(rng)
            left = pose_compose(pose_compose(a, b), c)
            right = pose_compose(a, pose_compose(b, c))
            assert np.allclose(left.rotation.m, right.rotation.m, atol=1e-12)
            assert np.allclose(left.position, right.position, atol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_rejects_non_finite_position(self, slot, bad):
        x = np.zeros(3)
        x[slot] = bad
        with pytest.raises(ValueError):
            Pose(Rotation.identity(), x)


class TestAdjoint:
    def test_identity(self):
        assert np.array_equal(adjoint(Pose.identity()), np.eye(6))

    def test_pure_translation_lever_arm(self):
        x = np.array([1.0, -2.0, 0.5])
        omega = np.array([0.3, 0.1, -0.7])
        tw = adjoint(Pose(Rotation.identity(), x)) @ np.concatenate([omega, np.zeros(3)])
        assert np.allclose(tw[:3], omega)
        assert np.allclose(tw[3:], np.cross(x, omega), atol=1e-15)

    def test_homomorphism(self):
        rng = np.random.default_rng(20260822)
        for _ in range(1000):
            a, b = random_pose(rng), random_pose(rng)
            lhs = adjoint(pose_compose(a, b))
            rhs = adjoint(a) @ adjoint(b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-11


class TestQuaternion:
    def test_round_trip(self):
        rng = np.random.default_rng(20260823)
        for _ in range(500):
            r = random_rotation(rng)
            q = rotation_to_quaternion(r)
            assert q[0] >= 0.0
            assert math.isclose(np.linalg.norm(q), 1.0, rel_tol=1e-14)
            assert np.allclose(quaternion_to_rotation(q).m, r.m, atol=1e-12)

    def test_identity(self):
        assert np.allclose(rotation_to_quaternion(Rotation.identity()), [1, 0, 0, 0])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            quaternion_to_rotation([0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("q", [[5e-324, 0.0, 0.0, 0.0], [1e-200, 0.0, 0.0, 0.0], [1.0, math.inf, 0.0, 0.0]])
    def test_norm_past_float_range_rejected_without_warnings(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                quaternion_to_rotation(q)

    @pytest.mark.parametrize("entry", [5e149, 5e199, 5e299, 1.7e308])
    def test_norm_that_overflows_is_taken_after_scaling(self, entry):
        # The norm of entry * (1, 1, 1, 1) is 2 entry, past float range for the last; its power-of-two scaling is exact.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quaternion_to_rotation([entry] * 4).flat
        want = quaternion_to_rotation([0.5] * 4).flat
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15


NEAR_PI = math.pi - 1e-9


# Near pi about each axis the trace is about -1 and the largest diagonal entry picks the branch.
@settings(derandomize=True, max_examples=2000, deadline=None)
@given(axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: math.hypot(*a) > 1e-3),
       angle=st.floats(0.0, math.pi))
@example(axis=(0.3, -0.2, 0.5), angle=0.4)
@example(axis=(1.0, 0.0, 0.0), angle=NEAR_PI)
@example(axis=(0.0, 1.0, 0.0), angle=NEAR_PI)
@example(axis=(0.0, 0.0, 1.0), angle=NEAR_PI)
@example(axis=(-1.0, 1e-9, 2e-9), angle=math.pi)
@example(axis=(1e-9, -1.0, 0.0), angle=math.pi)
@example(axis=(2e-9, -1e-9, -1.0), angle=math.pi)
def test_quaternion_matches_numpy_reference(axis, angle):
    r = exp_so3(np.array(axis) / math.hypot(*axis) * angle)
    q = quaternion_from_matrix(r.flat)
    assert max(abs(a - b) for a, b in zip(q, shepperd_quaternion(r.m))) <= 4.5e-16
    assert q[0] >= 0.0
    assert abs(math.sqrt(math.fsum(v * v for v in q)) - 1.0) <= 1e-15
    assert rotation_to_quaternion(r).tolist() == list(q)


def one_row_shepperd(m) -> tuple:
    """Shepperd's method on the 9 Python floats of one row-major rotation, in the float operations, and their order,
    that quaternion_from_matrix does on each row."""
    a, b, c, d, e, f, g, h, i = m
    t = a + e + i
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = (0.25 * s, (h - f) / s, (c - g) / s, (d - b) / s)
    elif a >= e and a >= i:
        s = math.sqrt(1.0 + a - e - i) * 2.0
        q = ((h - f) / s, 0.25 * s, (b + d) / s, (c + g) / s)
    elif e >= i:
        s = math.sqrt(1.0 + e - a - i) * 2.0
        q = ((c - g) / s, (b + d) / s, 0.25 * s, (f + h) / s)
    else:
        s = math.sqrt(1.0 + i - a - e) * 2.0
        q = ((d - b) / s, (c + g) / s, (f + h) / s, 0.25 * s)
    w, x, y, z = (-q[0], -q[1], -q[2], -q[3]) if q[0] < 0.0 else q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return w / n, x / n, y / n, z / n


def test_quaternion_of_a_stack_is_its_rows_quaternions_bit_for_bit():
    # Rotations at Shepperd's branch edges: trace 0 (2 pi / 3), near and at pi about each axis and about
    # diagonals, where two diagonal entries tie; every branch gets rows, and no square root sees a negative.
    axes = [*np.eye(3), *-np.eye(3), (1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0),
            (1.0, -1.0, 1e-9), (0.3, -0.2, 0.5)]
    angles = [0.0, 1e-9, 2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0 + 1e-12, math.pi / 2.0, NEAR_PI,
              math.pi - 1e-15, math.pi]
    rng = np.random.default_rng(29)  # and past trace 0, where the three diagonal branches run, at random
    stack = np.array([exp_so3(np.array(a) / np.linalg.norm(a) * t).flat for a in axes for t in angles]
                     + [random_rotation(rng, math.pi).flat for _ in range(400)])
    a, e, i = stack[:, 0], stack[:, 4], stack[:, 8]
    trace = a + e + i > 0.0
    assert trace.any() and (~trace & (a >= e) & (a >= i)).any() and (~trace & (e > a) & (e >= i)).any()
    assert (~trace & (i > a) & (i > e)).any()
    q = quaternion_from_matrix(stack)
    assert q.shape == (len(stack), 4)
    assert quaternion_from_matrix(stack.reshape(-1, 2, 9)).shape == (len(stack) // 2, 2, 4)
    for k, m in enumerate(stack):
        one_row = np.array(one_row_shepperd(m.tolist())).tobytes()
        assert q[k].tobytes() == quaternion_from_matrix(m).tobytes() == one_row, k


class TestRotationInvariants:
    def test_construction_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            Rotation(np.eye(3) + 1e-6)

    def test_construction_rejects_reflection(self):
        with pytest.raises(ValueError):
            Rotation(np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_construction_rejects_non_finite_entry(self, bad):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError):
            Rotation(m)

    @pytest.mark.parametrize("form", ["9-tuple", "3x3 array"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_check_rotation_is_the_one_finiteness_guard(self, bad, form):
        # Every entry of either form is refused by check_rotation's one-line error, not by a separate pass.
        for slot in range(9):
            flat = list(euler_to_rotation((0.3, 1.1, -0.4)).flat)
            flat[slot] = bad
            m = tuple(flat) if form == "9-tuple" else np.reshape(flat, (3, 3))
            with pytest.raises(ValueError, match=r"^matrix is not orthogonal \(or not finite\): ") as err:
                Rotation(m)
            assert "\n" not in str(err.value), slot

    def test_construction_rejects_scaled_identity(self):
        with pytest.raises(ValueError):
            Rotation(1.001 * np.eye(3))

    def test_matrix_is_read_only(self):
        r = Rotation.identity()
        with pytest.raises(ValueError):
            r.m[0, 0] = 2.0


# Each box from a value a, and the names of its read-only arrays.
BOXES = {
    "rotation": (lambda a: euler_to_rotation((a, 1.0, -0.4)), ("m",)),
    "pose": (lambda a: Pose(Rotation.identity(), np.array([a, 0.0, -1.0])), ("position",)),
    "chart-state": (lambda a: ChartState(Pose.identity(), np.array([a, 0.0, 0.0, 0.0, 0.0, 1.0])), ("u",)),
    "twist": (lambda a: Twist(np.array([a, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])), ("omega", "vel")),
}


class TestBoxValues:
    @pytest.mark.parametrize("box", sorted(BOXES))
    def test_equal_values_compare_and_hash_equal(self, box):
        make, _ = BOXES[box]
        a, b, other = make(0.3), make(0.3), make(0.4)
        assert a == b and hash(a) == hash(b)
        assert a != other and not a == other
        assert len({a, b, other}) == 2

    @pytest.mark.parametrize("box", sorted(BOXES))
    def test_arrays_are_read_only_copies_built_once(self, box):
        make, names = BOXES[box]
        value = make(0.3)
        for name in names:
            a = getattr(value, name)
            assert a is getattr(value, name)
            assert a.flags.owndata and not a.flags.writeable

    def test_tuple_and_matrix_make_the_same_rotation(self):
        m = euler_to_rotation((0.3, 1.0, -0.4)).m
        assert Rotation(m) == Rotation(tuple(m.ravel().tolist()))
        assert Rotation(np.eye(3)) == Rotation.identity()
        with pytest.raises(ValueError, match=r"shape \(3, 3\)"):
            Rotation(np.eye(3).ravel())

    def test_keyword_constructors_and_replace(self):
        r = euler_to_rotation((0.3, 1.0, -0.4))
        pose = Pose(r, (0.1, 0.2, 0.3))
        assert Rotation(m=r.m) == r
        assert Pose(rotation=r, position=[0.1, 0.2, 0.3]) == pose
        assert ChartState(pose=pose, u=np.ones(6)) == ChartState(pose, (1.0,) * 6)
        assert Twist(omega=(1.0, 2.0, 3.0), vel=np.zeros(3)) == Twist((1, 2, 3), (0, 0, 0))
        moved = dataclasses.replace(pose, position=(0.0, 0.0, 1.0))
        assert moved.rotation is r and moved.flat == (0.0, 0.0, 1.0)
