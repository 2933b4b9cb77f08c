"""Least-constraint solver tests.

The solver is checked three independent ways: it must collapse to the free
Kirchhoff acceleration without constraints, it must never be beaten by any
admissible perturbation of the returned minimizer, and its multiplier must
close the momentum balance as a physical reaction.
"""

import math

import numpy as np
import pytest

from helpers import body_wrench_fn, fixed_point_offset_fn, momentum_bias, random_inertia

from unirigid.charts import Twist
from unirigid.dynamics import (
    SpatialInertia,
    Wrench,
    assemble_inertia,
    kirchhoff_rhs,
)
from unirigid.errors import RankDeficientConstraintError
from unirigid.gauss import (
    AccelConstraint,
    FixedPointConstraint,
    constrained_accel,
    fixed_point_rows,
    gauss_functional,
    steady_precession_rates,
)


def random_twist(rng):
    return Twist(rng.normal(size=3), rng.normal(size=3))


def random_wrench(rng):
    return Wrench(rng.normal(size=3), rng.normal(size=3))


class TestGaussFunctional:
    def test_zero_at_free_acceleration(self):
        rng = np.random.default_rng(16180339)
        si = random_inertia(rng)
        free = rng.normal(size=6)
        assert gauss_functional(assemble_inertia(si), free, free) == 0.0

    def test_unit_displacement(self):
        si = SpatialInertia(mass=1.0, j=np.eye(3))
        e1 = np.zeros(6)
        e1[0] = 1.0
        assert math.isclose(gauss_functional(assemble_inertia(si), e1, np.zeros(6)), 0.5, rel_tol=1e-15)

    def test_convexity(self):
        rng = np.random.default_rng(16180340)
        for _ in range(1000):
            m6 = assemble_inertia(random_inertia(rng))
            free = rng.normal(size=6)
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            mid = gauss_functional(m6, 0.5 * (a + b), free)
            assert mid <= 0.5 * (gauss_functional(m6, a, free) + gauss_functional(m6, b, free)) + 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(16180341)
        for _ in range(200):
            m6 = assemble_inertia(random_inertia(rng))
            assert gauss_functional(m6, rng.normal(size=6), rng.normal(size=6)) >= 0.0


class TestConstrainedAccel:
    def test_empty_constraint_returns_free_exactly(self):
        rng = np.random.default_rng(16180342)
        for _ in range(1000):
            si = random_inertia(rng)
            nu, w = random_twist(rng), random_wrench(rng)
            nu_dot, lam = constrained_accel(si, nu, w, AccelConstraint.empty())
            assert lam.shape == (0,)
            assert np.array_equal(nu_dot, kirchhoff_rhs(si, nu, w))

    def test_pinned_angular_block(self):
        rng = np.random.default_rng(16180343)
        # A = [I | 0], b = 0 freezes the angular acceleration.
        si = random_inertia(rng)
        nu, w = random_twist(rng), random_wrench(rng)
        con = AccelConstraint(np.hstack([np.eye(3), np.zeros((3, 3))]), np.zeros(3))
        nu_dot, lam = constrained_accel(si, nu, w, con)
        assert np.max(np.abs(nu_dot[:3])) <= 1e-12
        assert lam.shape == (3,)

    def test_constraint_satisfied(self):
        rng = np.random.default_rng(16180344)
        for _ in range(200):
            si = random_inertia(rng)
            nu, w = random_twist(rng), random_wrench(rng)
            k = int(rng.integers(1, 6))
            con = AccelConstraint(rng.normal(size=(k, 6)), rng.normal(size=k))
            nu_dot, _ = constrained_accel(si, nu, w, con)
            assert np.max(np.abs(con.a @ nu_dot - con.b)) <= 1e-10

    def test_minimality_under_admissible_perturbations(self):
        rng = np.random.default_rng(16180345)
        for _ in range(50):
            si = random_inertia(rng)
            nu, w = random_twist(rng), random_wrench(rng)
            k = int(rng.integers(1, 6))
            con = AccelConstraint(rng.normal(size=(k, 6)), rng.normal(size=k))
            nu_dot, _ = constrained_accel(si, nu, w, con)
            free = kirchhoff_rhs(si, nu, w)
            m6 = assemble_inertia(si)
            g_star = gauss_functional(m6, nu_dot, free)
            # Project random directions onto the admissible subspace A delta = 0.
            proj = np.eye(6) - con.a.T @ np.linalg.solve(con.a @ con.a.T, con.a)
            for _ in range(1000):
                delta = proj @ rng.normal(size=6)
                assert gauss_functional(m6, nu_dot + delta, free) - g_star >= -1e-12

    def test_multiplier_closes_momentum_balance(self):
        rng = np.random.default_rng(16180346)
        for _ in range(200):
            si = random_inertia(rng)
            nu, w = random_twist(rng), random_wrench(rng)
            k = int(rng.integers(1, 6))
            con = AccelConstraint(rng.normal(size=(k, 6)), rng.normal(size=k))
            nu_dot, lam = constrained_accel(si, nu, w, con)
            m6 = assemble_inertia(si)
            nu6 = nu.as_array()
            residual = m6 @ nu_dot + momentum_bias(nu6, m6 @ nu6) - w.as_array() - con.a.T @ lam
            assert np.linalg.norm(residual) <= 1e-10

    def test_rank_deficient_rejected(self):
        a = np.zeros((2, 6))
        a[0, 0] = 1.0
        a[1, 0] = 1.0 + 1e-14
        with pytest.raises(RankDeficientConstraintError):
            AccelConstraint(a, np.zeros(2))

    def test_too_many_rows_rejected(self):
        with pytest.raises(RankDeficientConstraintError):
            AccelConstraint(np.eye(7, 6), np.zeros(7))


class TestFixedPointConstraint:
    """The pinned point's rows [-hat(r_b) | I] and offset b(nu, drift), through AccelConstraint."""

    def test_rest_body(self):
        fp = FixedPointConstraint(np.array([0.0, 0.0, -0.5]))
        nu = Twist(np.zeros(3), np.zeros(3))
        con = AccelConstraint(fixed_point_rows(fp), fixed_point_offset_fn(fp)(nu.flat, (0.0, 0.0, 0.0)))
        from unirigid.geom3 import hat

        assert np.array_equal(con.a, np.hstack([-hat(fp.r_b), np.eye(3)]))
        assert np.array_equal(con.b, np.zeros(3))

    def test_consistent_spin_about_pin(self):
        # v = -omega x r_b keeps the pin still; with zero gains b vanishes.
        r_b = np.array([0.1, -0.2, -0.4])
        omega = np.array([0.7, 0.2, 1.5])
        fp = FixedPointConstraint(r_b)
        nu = Twist(omega, -np.cross(omega, r_b))
        con = AccelConstraint(fixed_point_rows(fp), fixed_point_offset_fn(fp)(nu.flat, (0.0, 0.0, 0.0)))
        assert np.max(np.abs(con.b)) <= 1e-15

    def test_baumgarte_terms(self):
        r_b = np.array([0.0, 0.0, -0.3])
        fp = FixedPointConstraint(r_b, baumgarte_alpha=2.0, baumgarte_beta=3.0)
        omega = np.array([0.1, 0.0, 0.5])
        vel = np.array([0.2, -0.1, 0.0])
        drift = np.array([0.01, 0.02, -0.03])
        nu = Twist(omega, vel)
        con = AccelConstraint(fixed_point_rows(fp), fixed_point_offset_fn(fp)(nu.flat, drift.tolist()))
        c_v = vel + np.cross(omega, r_b)
        expected = -np.cross(omega, c_v) - 2.0 * 2.0 * c_v - 9.0 * drift
        assert np.allclose(con.b, expected, atol=1e-15)


class TestSteadyPrecession:
    def test_roots_satisfy_quadratic(self):
        i1, i3, m, l, th, spin = 0.49, 0.3, 1.0, 0.3, 0.5, 10.0
        for rate in steady_precession_rates(i1, i3, m, l, th, spin):
            res = i1 * rate * rate * math.cos(th) - i3 * spin * rate + m * 9.81 * l
            assert abs(res) <= 1e-9 * max(1.0, abs(i3 * spin * rate))

    def test_slow_fast_ordering(self):
        slow, fast = steady_precession_rates(0.49, 0.3, 1.0, 0.3, 0.5, 10.0)
        assert abs(slow) < abs(fast)

    def test_subcritical_spin_rejected(self):
        with pytest.raises(ValueError):
            steady_precession_rates(0.49, 0.3, 1.0, 0.3, 0.5, 0.1)


class TestHeavyTopTrajectories:
    """Pinned-body runs: drift behavior and the two-route cross-check."""

    @staticmethod
    def _pinned_scenario(alpha=0.0, beta=0.0):
        from helpers import make_scenario
        from unirigid.geom3 import Pose, euler_to_rotation
        from unirigid.integrate import Formulation

        theta0, l = 0.6, 0.3
        rot = euler_to_rotation((0.0, theta0, 0.0))
        pose = Pose(rot, rot.m @ np.array([0.0, 0.0, l]))
        return make_scenario(
            "heavy-top-generic",
            1.0,
            np.diag([0.4, 0.4, 0.3]),
            omega=[0.3, 0.4, 8.0],
            vel=[l * 0.4, -l * 0.3, 0.0],
            gravity=[0.0, 0.0, -9.81],
            pose=pose,
            constraint=FixedPointConstraint(np.array([0.0, 0.0, -l]), alpha, beta),
            formulation=Formulation.GAUSS,
        )

    @staticmethod
    def _pin_speed(samples, r_b):
        return [
            float(np.linalg.norm(s.nu.vel + np.cross(s.nu.omega, r_b))) for s in samples
        ]

    def test_velocity_drift_without_stabilization(self):
        from unirigid.integrate import Formulation, IntegratorId, simulate

        sc = self._pinned_scenario()
        samples = simulate(sc, Formulation.GAUSS, IntegratorId.LIE_RK4, 1e-3, 5.0, sample_every=10)
        assert max(self._pin_speed(samples, sc.constraint.r_b)) <= 1e-6

    def test_velocity_drift_with_baumgarte(self):
        from unirigid.integrate import Formulation, IntegratorId, simulate

        sc = self._pinned_scenario(alpha=10.0, beta=10.0)
        samples = simulate(sc, Formulation.GAUSS, IntegratorId.LIE_RK4, 1e-3, 5.0, sample_every=10)
        assert max(self._pin_speed(samples, sc.constraint.r_b)) <= 1e-9

    def test_gauss_route_matches_reduced_lagrange_route(self):
        from helpers import reduced_heavy_top_rotations
        from unirigid.geom3 import geodesic_distance
        from unirigid.integrate import Formulation, IntegratorId, simulate

        sc = self._pinned_scenario()
        dt, t_end = 1e-3, 5.0
        gauss_samples = simulate(sc, Formulation.GAUSS, IntegratorId.LIE_RK4, dt, t_end, sample_every=1)
        theta0 = 0.6
        # Euler rates matching the initial body twist: omega = E(theta, psi=0) qdot.
        omega0 = np.array([0.3, 0.4, 8.0])
        st, ct = math.sin(theta0), math.cos(theta0)
        qdot0 = np.array([omega0[1] / st, omega0[0], omega0[2] - ct * omega0[1] / st])
        rotations = reduced_heavy_top_rotations(
            sc.inertia, sc.constraint, sc.forces.gravity,
            np.array([0.0, theta0, 0.0]), qdot0, dt, t_end,
        )
        assert len(rotations) == len(gauss_samples)
        gap = max(
            geodesic_distance(s.pose.rotation, r) for s, r in zip(gauss_samples, rotations)
        )
        assert gap <= 1e-5

    def test_reaction_wrench_closes_balance_along_trajectory(self):
        from unirigid.integrate import Formulation, IntegratorId, simulate

        sc = self._pinned_scenario()
        samples = simulate(sc, Formulation.GAUSS, IntegratorId.LIE_RK4, 1e-3, 1.0, sample_every=50)
        m6 = assemble_inertia(sc.inertia)
        anchor = sc.initial_pose.position + sc.initial_pose.rotation.m @ sc.constraint.r_b
        wrench, offset = body_wrench_fn(sc.forces, sc.inertia), fixed_point_offset_fn(sc.constraint)
        for s in samples:
            w6 = wrench(s.t, s.pose.rotation.flat, s.pose.flat, s.nu.flat)
            w = Wrench(w6[:3], w6[3:])
            r, x = s.pose.rotation.m, s.pose.position
            drift = r.T @ (x + r @ sc.constraint.r_b - anchor)
            con = AccelConstraint(fixed_point_rows(sc.constraint), offset(s.nu.flat, drift.tolist()))
            nu_dot, lam = constrained_accel(sc.inertia, s.nu, w, con)
            nu6 = s.nu.as_array()
            residual = m6 @ nu_dot + momentum_bias(nu6, m6 @ nu6) - w.as_array() - con.a.T @ lam
            assert np.linalg.norm(residual) <= 1e-10
