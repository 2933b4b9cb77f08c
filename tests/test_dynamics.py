"""Dynamics tests.

Two independent oracles guard the engine here: momentum must be the
finite-difference gradient of the kinetic energy, and the Euler-coordinate
route must satisfy the Euler-Lagrange equations assembled purely from nested
central differences of a hand-built scalar Lagrangian.
"""

import dataclasses
import math

import numpy as np
import pytest

from helpers import body_wrench_fn, random_inertia

from unirigid.charts import ChartId, ChartState, Twist, chart_eval, stage_state
from unirigid.dynamics import (
    ForceModel,
    SpatialInertia,
    Wrench,
    assemble_inertia,
    chart_rhs_fn,
    conserved6,
    kirchhoff_accel_fn,
    kirchhoff_rhs,
    newton_euler_accel_fn,
    spd_factor,
)
from unirigid.errors import NotPositiveDefiniteError
from unirigid.geom3 import Pose, Rotation, as_rows, euler_to_rotation, hat
from unirigid.integrate import Formulation, IntegratorId, simulate
from unirigid.scenario import load_scenario

NO_FORCES = ForceModel(gravity=np.zeros(3))
EYE9 = Rotation.identity().flat
ZERO3 = (0.0, 0.0, 0.0)


def random_body_twist(rng, scale=1.0):
    return Twist(rng.normal(size=3) * scale, rng.normal(size=3) * scale)


def random_valid_pose(rng):
    angles = (
        rng.uniform(-math.pi, math.pi),
        rng.uniform(0.3, math.pi - 0.3),
        rng.uniform(-math.pi, math.pi),
    )
    return Pose(euler_to_rotation(angles), rng.normal(size=3))


class TestAssembleInertia:
    def test_unit_sphere(self):
        si = SpatialInertia(mass=1.0, j=np.eye(3))
        assert np.array_equal(assemble_inertia(si), np.eye(6))

    def test_offset_block_structure(self):
        si = SpatialInertia(mass=2.0, j=np.eye(3), c=np.array([0.0, 0.0, 0.5]))
        m6 = assemble_inertia(si)
        assert np.allclose(m6, m6.T)
        assert np.all(np.linalg.eigvalsh(m6) > 0.0)
        assert np.allclose(m6[:3, 3:], 2.0 * hat([0.0, 0.0, 0.5]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            SpatialInertia(mass=1.0, j=np.diag([1.0, 1.0, -0.1]))

    def test_triangle_inequality_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            SpatialInertia(mass=1.0, j=np.diag([1.0, 1.0, 3.0]))

    def test_large_offset_rejected(self):
        # CoM-shifted inertia goes indefinite when m ||c||^2 outgrows J.
        with pytest.raises(NotPositiveDefiniteError):
            SpatialInertia(mass=10.0, j=np.diag([0.1, 0.1, 0.1]), c=np.array([1.0, 0.0, 0.0]))


class TestInertiaFactor:
    SI = SpatialInertia(mass=2.0, j=np.diag([1.0, 1.5, 2.0]), c=np.array([0.05, -0.02, 0.1]))

    @pytest.mark.parametrize("name", ["m6", "m6_inv"])
    def test_read_only(self, name):
        si = dataclasses.replace(self.SI)
        value = getattr(si, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(si, name, np.eye(6))
        with pytest.raises(ValueError):
            value[0, 0] = 1.0
        assert getattr(si, name) is value

    def test_built_by_the_public_builders(self):
        si = dataclasses.replace(self.SI)
        assert np.array_equal(si.m6, assemble_inertia(si))
        assert np.array_equal(si.m6_inv, spd_factor(assemble_inertia(si), "generalized inertia"))

    def test_replace_builds_a_fresh_factor(self):
        moved = dataclasses.replace(self.SI, c=np.array([0.0, 0.1, 0.0]))
        assert moved.m6 is not self.SI.m6 and moved.m6_inv is not self.SI.m6_inv
        assert not np.array_equal(moved.m6_inv, self.SI.m6_inv)
        assert np.array_equal(moved.m6_inv, spd_factor(assemble_inertia(moved), "generalized inertia"))

    def test_routes_share_one_factor(self, monkeypatch):
        sc, calls = load_scenario("euler-top"), []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return spd_factor(*args, **kwargs)

        monkeypatch.setattr("unirigid.dynamics.spd_factor", counted)
        simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 0.01)
        simulate(sc, Formulation.LAGRANGE, IntegratorId.RK4, 1e-3, 0.01)
        assert calls == ["generalized inertia"]


class TestMomentum:
    def test_zero_twist(self):
        rng = np.random.default_rng(31830989)
        si = random_inertia(rng, with_offset=True)
        mom = assemble_inertia(si) @ Twist(np.zeros(3), np.zeros(3)).as_array()
        assert np.array_equal(mom, np.zeros(6))

    def test_sphere_diagonal_case(self):
        lam = 2.5
        si = SpatialInertia(mass=1.0, j=lam * np.eye(3))
        omega = np.array([0.3, -0.1, 0.8])
        mom = assemble_inertia(si) @ Twist(omega, np.zeros(3)).as_array()
        assert np.allclose(mom[:3], lam * omega)
        assert np.allclose(mom[3:], np.zeros(3))

    def test_is_kinetic_energy_gradient(self):
        rng = np.random.default_rng(31830990)
        h = 1e-6
        for _ in range(50):
            si = random_inertia(rng, with_offset=True)
            nu = random_body_twist(rng)
            m6 = assemble_inertia(si)
            rows, c = as_rows(m6), si.c.tolist()
            grad = m6 @ nu.as_array()
            fd = np.zeros(6)
            base = nu.as_array()
            for i in range(6):
                dp, dm = base.copy(), base.copy()
                dp[i] += h
                dm[i] -= h
                tp = conserved6(rows, si.mass, c, ZERO3, EYE9, ZERO3, dp.tolist())[0]
                tm = conserved6(rows, si.mass, c, ZERO3, EYE9, ZERO3, dm.tolist())[0]
                fd[i] = (tp - tm) / (2.0 * h)
            assert np.max(np.abs(fd - grad)) <= 1e-6

    def test_energy_nonnegative(self):
        rng = np.random.default_rng(31830991)
        for _ in range(100):
            si = random_inertia(rng, with_offset=True)
            m6_rows, nu6 = as_rows(assemble_inertia(si)), random_body_twist(rng).flat
            assert conserved6(m6_rows, si.mass, si.c.tolist(), ZERO3, EYE9, ZERO3, nu6)[0] >= 0.0


class TestKirchhoffRhs:
    def test_torque_free_sphere_equilibrium(self):
        si = SpatialInertia(mass=1.0, j=2.0 * np.eye(3))
        nu = Twist(np.array([0.4, -0.2, 1.0]), np.zeros(3))
        assert np.allclose(kirchhoff_rhs(si, nu, Wrench.zero()), np.zeros(6), atol=1e-15)

    def test_euler_equations_frozen_value(self):
        # J = diag(1,2,3), omega = (0,1,1): omega_dot_1 = (J2-J3)/J1 * w2 w3 = -1.
        si = SpatialInertia(mass=1.0, j=np.diag([1.0, 2.0, 3.0]))
        nu = Twist(np.array([0.0, 1.0, 1.0]), np.zeros(3))
        nu_dot = kirchhoff_rhs(si, nu, Wrench.zero())
        assert math.isclose(nu_dot[0], -1.0, rel_tol=1e-14)
        assert math.isclose(nu_dot[1], (3.0 - 1.0) / 2.0 * 1.0 * 0.0, abs_tol=1e-15)
        assert math.isclose(nu_dot[2], (1.0 - 2.0) / 3.0 * 0.0 * 1.0, abs_tol=1e-15)

    def test_matches_chart_engine(self):
        rng = np.random.default_rng(31830992)
        for _ in range(1000):
            si = random_inertia(rng, with_offset=True)
            nu = random_body_twist(rng)
            w = Wrench(rng.normal(size=3), rng.normal(size=3))
            direct = kirchhoff_rhs(si, nu, w)
            forces = ForceModel(gravity=np.zeros(3), constant_wrench=w)
            rhs = chart_rhs_fn(ChartId.BODY_TWIST, kirchhoff_accel_fn(si, forces))
            via_chart = np.array(rhs(0.0, *stage_state(ChartId.BODY_TWIST, ChartState(Pose.identity(), nu.as_array()))))
            assert np.max(np.abs(direct - via_chart)) <= 1e-12


class TestNewtonEulerRhs:
    def test_matches_kirchhoff_for_com_frame(self):
        rng = np.random.default_rng(31830993)
        for _ in range(1000):
            si = random_inertia(rng, with_offset=False)
            nu = random_body_twist(rng)
            w = Wrench(rng.normal(size=3), rng.normal(size=3))
            accel = newton_euler_accel_fn(si, ForceModel(gravity=np.zeros(3), constant_wrench=w))
            nu_dot = np.array(accel(0.0, EYE9, ZERO3, nu.flat))
            assert np.max(np.abs(nu_dot - kirchhoff_rhs(si, nu, w))) <= 1e-12
        # Off the CoM, under gravity and a constant wrench, the balance about the CoM
        # gives the same body-twist rate, to 1e-12 relative.
        for _ in range(1000):
            si = random_inertia(rng, with_offset=True)
            nu, pose = random_body_twist(rng), random_valid_pose(rng)
            w = Wrench(rng.normal(size=3), rng.normal(size=3))
            forces = ForceModel(gravity=10.0 * rng.normal(size=3), constant_wrench=w)
            state = (0.5, pose.rotation.flat, pose.flat, nu.flat)
            expected = np.array(kirchhoff_accel_fn(si, forces)(*state))
            nu_dot = np.array(newton_euler_accel_fn(si, forces)(*state))
            assert np.linalg.norm(nu_dot - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_free_fall(self):
        si = SpatialInertia(mass=2.0, j=np.eye(3))
        g = np.array([0.0, 0.0, -9.81])
        nu = Twist(np.zeros(3), np.zeros(3))
        w = Wrench(np.zeros(3), si.mass * g)  # R = I
        accel = newton_euler_accel_fn(si, ForceModel(gravity=np.zeros(3), constant_wrench=w))
        nu_dot = np.array(accel(0.0, EYE9, ZERO3, nu.flat))
        assert np.allclose(nu_dot[3:], g)
        assert np.allclose(nu_dot[:3], 0.0)

    def test_spinning_top_vector(self):
        si = SpatialInertia(mass=1.0, j=np.diag([1.0, 2.0, 3.0]))
        nu = Twist(np.array([0.0, 1.0, 1.0]), np.zeros(3))
        accel = newton_euler_accel_fn(si, NO_FORCES)
        assert math.isclose(accel(0.0, EYE9, ZERO3, nu.flat)[0], -1.0, rel_tol=1e-14)


class TestChartEngine:
    def test_mass_matrix_symmetry(self):
        rng = np.random.default_rng(31830994)
        for chart in (ChartId.BODY_TWIST, ChartId.SPATIAL_TWIST, ChartId.EULER_COM):
            for _ in range(100):
                si = random_inertia(rng, with_offset=True)
                pose = random_valid_pose(rng)
                phi = chart_eval(chart, pose, np.zeros(6)).phi
                a = phi.T @ assemble_inertia(si) @ phi
                assert np.max(np.abs(a - a.T)) <= 1e-12

    def test_symmetric_top_spin_integral(self):
        rng = np.random.default_rng(31830995)
        # Torque-free J1 = J2 top: d/dt (phi_dot cos(theta) + psi_dot) must vanish.
        si = SpatialInertia(mass=1.0, j=np.diag([2.0, 2.0, 1.0]))
        for _ in range(50):
            pose = random_valid_pose(rng)
            u = rng.normal(size=6)
            state = ChartState(pose, u)
            rhs = chart_rhs_fn(ChartId.EULER_COM, kirchhoff_accel_fn(si, NO_FORCES))
            u_dot = rhs(0.0, *stage_state(ChartId.EULER_COM, state))
            theta = math.acos(pose.rotation.m[2, 2])
            spin_rate_dot = (
                u_dot[0] * math.cos(theta) - u[0] * math.sin(theta) * u[1] + u_dot[2]
            )
            assert abs(spin_rate_dot) <= 1e-12

    def test_euler_route_satisfies_lagrange_equations(self):
        rng = np.random.default_rng(31830996)
        # Independent oracle: nested central differences of the scalar Lagrangian.
        # Scales are kept O(1) so the stencil noise floor (eps L / h^2) stays
        # an order below the tolerance; the residual is exact physics otherwise.
        gravity = np.array([0.2, -0.3, -1.0])
        h = 1e-5

        def lagrangian(si, q, qdot):
            phi_a, theta, psi = q[0], q[1], q[2]
            st, ct = math.sin(theta), math.cos(theta)
            sp, cp = math.sin(psi), math.cos(psi)
            omega = np.array(
                [
                    qdot[0] * st * sp + qdot[1] * cp,
                    qdot[0] * st * cp - qdot[1] * sp,
                    qdot[0] * ct + qdot[2],
                ]
            )
            r = euler_to_rotation((phi_a, theta, psi)).m
            v = r.T @ qdot[3:]
            t_kin = 0.5 * omega @ si.j @ omega + 0.5 * si.mass * v @ v
            t_kin += si.mass * omega @ np.cross(si.c, v)
            pot = -si.mass * gravity @ (q[3:] + r @ si.c)
            return t_kin - pot

        for _ in range(100):
            si = random_inertia(rng, with_offset=True, unit_scale=True)
            pose = Pose(random_valid_pose(rng).rotation, rng.normal(size=3) * 0.3)
            u = rng.normal(size=6) * 0.5
            state = ChartState(pose, u)
            rhs = chart_rhs_fn(ChartId.EULER_COM, kirchhoff_accel_fn(si, ForceModel(gravity=gravity)))
            u_dot = np.array(rhs(0.0, *stage_state(ChartId.EULER_COM, state)))

            from unirigid.geom3 import rotation_to_euler

            q = np.concatenate([rotation_to_euler(pose.rotation), pose.position])

            def p_of_t(si, q, u, u_dot, tau, i):
                qt = q + tau * u + 0.5 * tau * tau * u_dot
                ut = u + tau * u_dot
                up, um = ut.copy(), ut.copy()
                up[i] += h
                um[i] -= h
                return (lagrangian(si, qt, up) - lagrangian(si, qt, um)) / (2.0 * h)

            residual = np.zeros(6)
            for i in range(6):
                dp_dt = (p_of_t(si, q, u, u_dot, h, i) - p_of_t(si, q, u, u_dot, -h, i)) / (
                    2.0 * h
                )
                qp, qm = q.copy(), q.copy()
                qp[i] += h
                qm[i] -= h
                dl_dq = (lagrangian(si, qp, u) - lagrangian(si, qm, u)) / (2.0 * h)
                residual[i] = dp_dt - dl_dq
            assert np.max(np.abs(residual)) <= 1e-5


class TestEnergyAndMomentum:
    """conserved6's (T, V, L) at hand-computed states."""

    def test_zero_twist(self):
        rng = np.random.default_rng(31830997)
        si = random_inertia(rng, with_offset=True)
        nu = Twist(np.zeros(3), np.zeros(3))
        m6_rows = as_rows(assemble_inertia(si))
        kin, _, l_spatial = conserved6(m6_rows, si.mass, si.c.tolist(), ZERO3, EYE9, ZERO3, nu.flat)
        assert kin == 0.0
        assert np.array_equal(np.array(l_spatial), np.zeros(3))

    def test_spinning_sphere(self):
        lam, w = 2.0, 1.5
        si = SpatialInertia(mass=1.0, j=lam * np.eye(3))
        nu = Twist(np.array([0.0, 0.0, w]), np.zeros(3))
        m6_rows = as_rows(assemble_inertia(si))
        kin, _, l_spatial = conserved6(m6_rows, si.mass, si.c.tolist(), ZERO3, EYE9, ZERO3, nu.flat)
        assert math.isclose(kin, 0.5 * lam * w * w, rel_tol=1e-15)
        assert np.allclose(np.array(l_spatial), [0.0, 0.0, lam * w])

    def test_gravity_potential_tracks_com(self):
        si = SpatialInertia(mass=2.0, j=np.eye(3), c=np.array([0.0, 0.0, 0.25]))
        pose = Pose(Rotation.identity(), np.array([0.0, 0.0, 3.0]))
        expected = 2.0 * 9.81 * 3.25
        m6_rows = as_rows(assemble_inertia(si))
        gravity = (0.0, 0.0, -9.81)
        pot = conserved6(m6_rows, si.mass, si.c.tolist(), gravity, pose.rotation.flat, pose.flat, (0.0,) * 6)[1]
        assert math.isclose(pot, expected, rel_tol=1e-14)


class TestForceAssembly:
    def test_gravity_torque_about_origin(self):
        rng = np.random.default_rng(31830998)
        si = SpatialInertia(mass=2.0, j=np.eye(3), c=np.array([0.1, 0.0, 0.0]))
        pose = random_valid_pose(rng)
        forces = ForceModel()
        nu = Twist(np.zeros(3), np.zeros(3))
        w = np.array(body_wrench_fn(forces, si)(0.0, pose.rotation.flat, pose.flat, nu.flat))
        g_body = pose.rotation.m.T @ forces.gravity
        assert np.allclose(w[3:], 2.0 * g_body)
        assert np.allclose(w[:3], 2.0 * np.cross(si.c, g_body))
