"""Chart map tests: kinematics, round trips, invariance, bracket coefficients.

Phi_dot is validated against a second-order finite difference of Phi along the
exact kinematic flow; the body-twist bracket coefficients are validated
against the hand-tabulated structure constants of the rigid-motion algebra.
"""

import math

import numpy as np
import pytest

from unirigid.charts import (
    ChartId,
    ChartState,
    Twist,
    body_twist,
    chart_eval,
    chart_from_body_twist,
    hamel_coefficients,
)
from unirigid.checks import check_structure_constants
from unirigid.errors import GimbalLockError
from unirigid.geom3 import (
    Pose,
    Rotation,
    adjoint,
    euler_to_rotation,
    exp_so3,
    geodesic_distance,
)
from unirigid.integrate import IntegratorId, step


ALL_CHARTS = [ChartId.BODY_TWIST, ChartId.SPATIAL_TWIST, ChartId.EULER_COM]
TWIST_CHARTS = [ChartId.BODY_TWIST, ChartId.SPATIAL_TWIST]


def random_valid_pose(rng):
    """Pose whose Euler nutation is safely inside the chart-valid band."""
    angles = (
        rng.uniform(-math.pi, math.pi),
        rng.uniform(0.2, math.pi - 0.2),
        rng.uniform(-math.pi, math.pi),
    )
    return Pose(euler_to_rotation(angles), rng.normal(size=3))


def zero_rhs(g, x, u):
    """Zero chart acceleration: a LIE_EULER step then holds the chart velocities fixed over dt."""
    return (0.0,) * 6


class TestChartEval:
    def test_body_twist_identity_chart(self):
        rng = np.random.default_rng(7041812)
        pose = random_valid_pose(rng)
        u = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        ev = chart_eval(ChartId.BODY_TWIST, pose, u)
        assert np.array_equal(ev.phi, np.eye(6))
        assert np.array_equal(ev.phi_dot, np.zeros((6, 6)))
        assert np.array_equal(body_twist(ChartId.BODY_TWIST, ChartState(pose, u)).as_array(), u)

    def test_euler_com_direct_substitution(self):
        # theta = pi/2, psi = 0, pure precession rate: omega_body = (0, phi_dot, 0).
        pose = Pose(euler_to_rotation((0.3, math.pi / 2, 0.0)), np.zeros(3))
        phi_dot_rate = 0.8
        u = np.array([phi_dot_rate, 0.0, 0.0, 0.0, 0.0, 0.0])
        nu = body_twist(ChartId.EULER_COM, ChartState(pose, u))
        assert np.allclose(nu.omega, [0.0, phi_dot_rate, 0.0], atol=1e-14)
        assert np.allclose(nu.vel, 0.0)

    def test_euler_com_linear_block(self):
        rng = np.random.default_rng(7041813)
        pose = random_valid_pose(rng)
        xdot = rng.normal(size=3)
        u = np.concatenate([np.zeros(3), xdot])
        nu = body_twist(ChartId.EULER_COM, ChartState(pose, u))
        assert np.allclose(nu.vel, pose.rotation.m.T @ xdot, atol=1e-14)

    @pytest.mark.parametrize("chart", ALL_CHARTS)
    def test_phi_dot_matches_finite_difference(self, chart):
        rng = np.random.default_rng(7041814)
        h = 1e-5
        for _ in range(40):
            state = ChartState(random_valid_pose(rng), rng.normal(size=6))
            ev = chart_eval(chart, state.pose, state.u)
            plus = chart_eval(chart, step(IntegratorId.LIE_EULER, chart, zero_rhs, state, 0.0, h).pose, state.u).phi
            # step refuses dt <= 0; the exactly negated velocities over +h reach the pose at -h.
            back = ChartState(state.pose, -state.u)
            minus = chart_eval(chart, step(IntegratorId.LIE_EULER, chart, zero_rhs, back, 0.0, h).pose, state.u).phi
            fd = (plus - minus) / (2.0 * h)
            assert np.max(np.abs(fd - ev.phi_dot)) <= 1e-6


class TestChartInverse:
    def test_body_twist_is_identity_map(self):
        rng = np.random.default_rng(7041815)
        pose = random_valid_pose(rng)
        nu = Twist(rng.normal(size=3), rng.normal(size=3))
        assert np.allclose(chart_from_body_twist(ChartId.BODY_TWIST, pose, nu), nu.as_array())

    @pytest.mark.parametrize("chart", ALL_CHARTS)
    def test_round_trip(self, chart):
        rng = np.random.default_rng(7041816)
        for _ in range(1000):
            pose = random_valid_pose(rng)
            nu = Twist(rng.normal(size=3), rng.normal(size=3))
            u = chart_from_body_twist(chart, pose, nu)
            back = body_twist(chart, ChartState(pose, u))
            assert np.linalg.norm(back.as_array() - nu.as_array()) < 1e-10

    def test_gimbal_lock_near_zero_nutation(self):
        pose = Pose(euler_to_rotation((0.0, 1e-9, 0.0)), np.zeros(3))
        nu = Twist(np.array([0.1, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(GimbalLockError):
            chart_from_body_twist(ChartId.EULER_COM, pose, nu)


class TestChartState:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(6))
    def test_rejects_non_finite_velocity(self, slot, bad):
        u = np.zeros(6)
        u[slot] = bad
        with pytest.raises(ValueError):
            ChartState(Pose.identity(), u)
        pose = Pose(euler_to_rotation((0.3, 1.0, -0.4)), np.zeros(3))
        for chart in ALL_CHARTS:
            with pytest.raises(ValueError):
                chart_eval(chart, pose, u)


class TestInvariance:
    def test_body_chart_configuration_independent(self):
        rng = np.random.default_rng(7041817)
        for _ in range(100):
            ev = chart_eval(ChartId.BODY_TWIST, random_valid_pose(rng), np.zeros(6))
            assert np.max(np.abs(ev.phi - np.eye(6))) <= 1e-12

    def test_spatial_chart_adjoint_normalization(self):
        # Ad(q) Phi(q) must be the identity at every pose.
        rng = np.random.default_rng(7041818)
        for _ in range(100):
            pose = random_valid_pose(rng)
            ev = chart_eval(ChartId.SPATIAL_TWIST, pose, np.zeros(6))
            assert np.max(np.abs(adjoint(pose) @ ev.phi - np.eye(6))) <= 1e-12


class TestAdvancePose:
    """A LIE_EULER step under zero acceleration: the pose reached holding the chart velocities fixed."""

    @pytest.mark.parametrize("chart", ALL_CHARTS)
    def test_zero_velocity_fixed_point(self, chart):
        rng = np.random.default_rng(7041819)
        pose = random_valid_pose(rng)
        out = step(IntegratorId.LIE_EULER, chart, zero_rhs, ChartState(pose, np.zeros(6)), 0.0, 0.25).pose
        assert np.allclose(out.rotation.m, pose.rotation.m)
        assert np.allclose(out.position, pose.position)

    def test_quarter_turn_about_body_z(self):
        w = 2.0
        dt = (math.pi / 2) / w
        state = ChartState(Pose.identity(), np.array([0.0, 0.0, w, 0.0, 0.0, 0.0]))
        out = step(IntegratorId.LIE_EULER, ChartId.BODY_TWIST, zero_rhs, state, 0.0, dt).pose
        assert geodesic_distance(out.rotation, exp_so3([0.0, 0.0, math.pi / 2])) <= 1e-12

    @pytest.mark.parametrize("chart", TWIST_CHARTS)
    def test_constant_twist_substep_refinement(self, chart):
        rng = np.random.default_rng(7041820)
        # The rotation update is the exact flow, so substepping changes nothing.
        for _ in range(20):
            state = ChartState(random_valid_pose(rng), rng.normal(size=6))
            one = step(IntegratorId.LIE_EULER, chart, zero_rhs, state, 0.0, 1.0).pose
            fine = state.pose
            for _ in range(1000):
                fine = step(IntegratorId.LIE_EULER, chart, zero_rhs, ChartState(fine, state.u), 0.0, 1.0 / 1000).pose
            assert geodesic_distance(one.rotation, fine.rotation) < 1e-9


class TestHamelCoefficients:
    def test_body_twist_matches_structure_constants(self):
        rng = np.random.default_rng(7041821)
        passed, detail = check_structure_constants(rng, 100)
        assert passed, detail

    @pytest.mark.parametrize("chart", ALL_CHARTS)
    def test_antisymmetry(self, chart):
        rng = np.random.default_rng(7041822)
        gamma = hamel_coefficients(chart, random_valid_pose(rng))
        assert np.max(np.abs(gamma + np.transpose(gamma, (0, 2, 1)))) <= 1e-6

    def test_diagonal_contraction_vanishes(self):
        rng = np.random.default_rng(7041823)
        gamma = hamel_coefficients(ChartId.EULER_COM, random_valid_pose(rng))
        for i in range(6):
            u = np.zeros(6)
            u[i] = 1.0
            assert np.max(np.abs(np.einsum("kij,i,j->k", gamma, u, u))) <= 1e-12

    def test_euler_chart_is_holonomic(self):
        rng = np.random.default_rng(7041824)
        # Coordinate basis fields commute: the Lagrange chart has no bracket terms.
        gamma = hamel_coefficients(ChartId.EULER_COM, random_valid_pose(rng))
        assert np.max(np.abs(gamma)) <= 1e-6
