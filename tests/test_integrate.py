"""Integrator tests: convergence orders, orthogonality drift, conservation,
and the simulate() contract.

Order certification measures the error against the same method at half the
step (Richardson style) over dt in {4e-3, 2e-3, 1e-3} on a vigorously
tumbling torque-free body, so the asymptotic regime sits well above the
roundoff floor.
"""

import math
import warnings

import numpy as np
import pytest

from helpers import make_scenario, orientation_taking

from unirigid.charts import ChartId, ChartState, Twist, chart_from_body_twist
from unirigid.dynamics import ForceModel, SpatialInertia, chart_rhs_fn, kirchhoff_accel_fn
from unirigid.errors import GimbalLockError, NonFiniteStateError, ScenarioValidationError
from unirigid.gauss import FixedPointConstraint
from unirigid.geom3 import EulerAngles, Pose, euler_to_rotation, geodesic_distance
from unirigid.integrate import Formulation, IntegratorId, make_rhs, simulate, step
from unirigid.scenario import load_scenario, parse_scenario

RNG = np.random.default_rng(57721566)

# Asymmetric body tumbling fast enough that fourth-order errors dominate noise.
ORDER_J = np.diag([1.0, 1.6, 2.2])
ORDER_OMEGA = np.array([4.0, 2.8, 1.6])

# Offset CoM under the default gravity, a constant body wrench and linear damping.
POWER_SCENARIO = {
    "name": "power-offset",
    "inertia": {"mass": 1.7, "inertia": [1.0, 1.3, 1.6], "com": [0.08, -0.05, 0.12]},
    "initial": {
        "orientation": {"euler_zxz": [0.3, 1.1, -0.4]},
        "omega": [0.9, -0.4, 0.6],
        "vel": [0.2, 0.0, -0.1],
    },
    "forces": {
        "torque": [0.3, -0.2, 0.5],
        "force": [0.4, 0.1, -0.3],
        "builtin": {"name": "linear-damping", "coeff": 0.15},
    },
}


def order_scenario(formulation):
    pose = Pose(
        orientation_taking(ORDER_J @ ORDER_OMEGA, [0.0, 0.0, 1.0]),
        np.zeros(3),
    )
    return make_scenario("order-check", 1.0, ORDER_J, ORDER_OMEGA, pose=pose, formulation=formulation)


def final_state_error(scenario, formulation, integrator, dt, t_end=1.0):
    coarse = simulate(scenario, formulation, integrator, dt, t_end, sample_every=10**9)[-1]
    fine = simulate(scenario, formulation, integrator, dt / 2.0, t_end, sample_every=10**9)[-1]
    return geodesic_distance(coarse.pose.rotation, fine.pose.rotation) + float(
        np.linalg.norm(coarse.nu.as_array() - fine.nu.as_array())
    )


# Every chart/integrator pair step() accepts: rk4 steps the Euler chart only.
STEP_ROUTES = [
    (c, i) for c in ChartId for i in IntegratorId if i is not IntegratorId.RK4 or c is ChartId.EULER_COM
]


class TestStepBasics:
    @pytest.mark.parametrize("chart, integrator", STEP_ROUTES)
    def test_zero_rhs_zero_velocity_fixed_point(self, chart, integrator):
        pose = Pose(orientation_taking([0.3, 0.2, 0.91], [0, 0, 1]), np.array([0.1, -0.2, 0.3]))
        state = ChartState(pose, np.zeros(6))
        out = step(integrator, chart, lambda t, s: np.zeros(6), state, 0.0, 0.01)
        assert np.allclose(out.pose.rotation.m, pose.rotation.m)
        assert np.allclose(out.pose.position, pose.position)
        assert np.array_equal(out.u, np.zeros(6))

    def test_rejects_nonpositive_dt(self):
        state = ChartState(Pose.identity(), np.zeros(6))
        with pytest.raises(ValueError):
            step(IntegratorId.RK4, ChartId.BODY_TWIST, lambda t, s: np.zeros(6), state, 0.0, 0.0)

    @pytest.mark.parametrize("t, dt", [(0.0, math.inf), (0.0, math.nan), (0.0, -1e-3), (math.nan, 1e-3),
                                       (math.inf, 1e-3), (-math.inf, 1e-3)])
    def test_rejects_bad_time_inputs(self, t, dt):
        sc = load_scenario("euler-top")
        chart, rhs = make_rhs(Formulation.KIRCHHOFF, sc)
        state = ChartState(sc.initial_pose, sc.initial_twist.as_array())
        with pytest.raises(ValueError, match="dt must be positive and finite and t finite") as err:
            step(IntegratorId.LIE_RK4, chart, rhs, state, t, dt)
        assert "\n" not in str(err.value)

    def test_huge_finite_dt_overflows_the_state(self):
        # dt = 1e300 passes the input rule; the stage increments overflow instead.
        sc = load_scenario("euler-top")
        chart, rhs = make_rhs(Formulation.KIRCHHOFF, sc)
        state = ChartState(sc.initial_pose, sc.initial_twist.as_array())
        with pytest.raises(NonFiniteStateError, match="not finite"):
            step(IntegratorId.LIE_RK4, chart, rhs, state, 0.0, 1e300)

    @pytest.mark.parametrize("chart", [ChartId.BODY_TWIST, ChartId.SPATIAL_TWIST])
    def test_rejects_rk4_on_twist_chart(self, chart):
        state = ChartState(Pose.identity(), np.zeros(6))
        with pytest.raises(ValueError, match="rk4"):
            step(IntegratorId.RK4, chart, lambda t, s: np.zeros(6), state, 0.0, 0.01)


class TestConvergenceOrders:
    def test_lie_rk4_fourth_order(self):
        sc = order_scenario(Formulation.KIRCHHOFF)
        errs = [final_state_error(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, dt) for dt in (4e-3, 2e-3, 1e-3)]
        for a, b in zip(errs, errs[1:]):
            assert 16.0 * 0.8 <= a / b <= 16.0 * 1.2, f"ratios {errs}"

    def test_rk4_fourth_order_on_coordinates(self):
        sc = order_scenario(Formulation.LAGRANGE)
        errs = [final_state_error(sc, Formulation.LAGRANGE, IntegratorId.RK4, dt) for dt in (4e-3, 2e-3, 1e-3)]
        for a, b in zip(errs, errs[1:]):
            assert 16.0 * 0.8 <= a / b <= 16.0 * 1.2, f"ratios {errs}"

    def test_lie_euler_first_order(self):
        sc = order_scenario(Formulation.KIRCHHOFF)
        errs = [final_state_error(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_EULER, dt) for dt in (4e-3, 2e-3, 1e-3)]
        for a, b in zip(errs, errs[1:]):
            assert 2.0 * 0.8 <= a / b <= 2.0 * 1.2, f"ratios {errs}"


class TestOrthogonalityDrift:
    def test_lie_euler_100k_steps(self):
        # No re-orthogonalization anywhere: drift must stay tiny by construction.
        sc = make_scenario("drift", 1.0, ORDER_J, ORDER_OMEGA)
        samples = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_EULER, 1e-3, 100.0, sample_every=10**9)
        m = samples[-1].pose.rotation.m
        assert np.linalg.norm(m.T @ m - np.eye(3)) <= 1e-9


class TestConservation:
    @staticmethod
    def _drift(sc, dt, t_end=10.0):
        samples = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, dt, t_end, sample_every=100)
        e = np.array([s.energy for s in samples])
        l = np.array([s.l_spatial for s in samples])
        e_drift = np.abs(e - e[0]).max() / abs(e[0])
        l_drift = np.linalg.norm(l - l[0], axis=1).max() / np.linalg.norm(l[0])
        return e_drift, l_drift

    def test_torque_free_body_rk4_class_integrators(self):
        j = np.diag([0.8, 1.1, 1.5])
        sc = make_scenario("conserve", 1.3, j, [2.6, -1.9, 1.4], vel=[0.3, 0.1, -0.2])
        e_drift, l_drift = self._drift(sc, 1e-3)
        assert e_drift <= 1e-8 and l_drift <= 1e-8

    def test_conservation_drift_is_fourth_order(self):
        # At dt = 1e-3 the drift sits on the roundoff floor, so the 16x
        # refinement check runs at coarser steps where there is signal.
        j = np.diag([0.8, 1.1, 1.5])
        sc = make_scenario("conserve", 1.3, j, [2.6, -1.9, 1.4], vel=[0.3, 0.1, -0.2])
        coarse = max(self._drift(sc, 2e-2, t_end=5.0))
        fine = max(self._drift(sc, 1e-2, t_end=5.0))
        assert coarse > 1e-12, "no measurable drift signal at the coarse step"
        assert coarse / fine >= 8.0

    def test_power_balance_under_gravity(self):
        # c = 0 torque-free-plus-gravity: dT/dt equals nu . F to the stencil floor.
        from unirigid.dynamics import body_wrench, energy

        sc = make_scenario(
            "power", 2.0, np.diag([1.0, 1.4, 1.8]), [0.9, -0.4, 0.6], vel=[0.2, 0.0, -0.1],
            gravity=[0.0, 0.0, -9.81],
        )
        dt = 1e-3
        samples = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, dt, 2.0, sample_every=1)
        kin = np.array([energy(sc.inertia, s.nu) for s in samples])
        for k in range(1, len(samples) - 1):
            s = samples[k]
            w = body_wrench(sc.forces, sc.inertia, s.t, s.pose, s.nu)
            power = float(s.nu.as_array() @ w.as_array())
            fd = (kin[k + 1] - kin[k - 1]) / (2.0 * dt)
            assert abs(fd - power) <= 1e-8

    @pytest.mark.parametrize(
        "formulation, integrator",
        [(Formulation.KIRCHHOFF, IntegratorId.LIE_RK4), (Formulation.LAGRANGE, IntegratorId.RK4)],
    )
    def test_power_balance_offset_com_applied_wrench(self, formulation, integrator):
        # d(T + V)/dt = tau . omega + f . v - c (|omega|^2 + |v|^2): the constant body
        # wrench acts about the body origin (not the CoM) and the damping callback's
        # wrench is added as returned.  The power comes from the scenario's numbers,
        # not from body_wrench.  Measured gap 6.6e-6 against |power| up to 53; the
        # constant force applied at the CoM would shift the power by up to 3.3e-2.
        sc = parse_scenario(POWER_SCENARIO)
        forces = POWER_SCENARIO["forces"]
        tau, f = np.array(forces["torque"]), np.array(forces["force"])
        coeff = forces["builtin"]["coeff"]
        dt = 1e-3
        samples = simulate(sc, formulation, integrator, dt, 2.0)
        e = np.array([s.energy for s in samples])
        for k in range(1, len(samples) - 1):
            omega, v = samples[k].nu.omega, samples[k].nu.vel
            power = tau @ omega + f @ v - coeff * (omega @ omega + v @ v)
            fd = (e[k + 1] - e[k - 1]) / (2.0 * dt)
            assert abs(fd - power) <= 1e-4


class TestFormulationEquivalence:
    def test_three_routes_agree(self):
        # Translating, tumbling, under gravity: all routes share initial data.
        pose = Pose(orientation_taking(ORDER_J @ ORDER_OMEGA, [0.0, 0.0, 1.0]), np.zeros(3))
        sc = make_scenario(
            "equiv", 1.0, ORDER_J, ORDER_OMEGA, vel=[0.4, -0.2, 0.3],
            gravity=[0.0, 0.0, -9.81], pose=pose,
        )
        t_end, dt = 2.0, 1e-3
        runs = {
            Formulation.KIRCHHOFF: simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, dt, t_end, 10),
            Formulation.NEWTON_EULER: simulate(sc, Formulation.NEWTON_EULER, IntegratorId.LIE_RK4, dt, t_end, 10),
            Formulation.LAGRANGE: simulate(sc, Formulation.LAGRANGE, IntegratorId.RK4, dt, t_end, 10),
        }
        forms = list(runs)
        for i, fa in enumerate(forms):
            for fb in forms[i + 1 :]:
                gap = max(
                    geodesic_distance(a.pose.rotation, b.pose.rotation)
                    for a, b in zip(runs[fa], runs[fb])
                )
                com_gap = max(
                    float(np.linalg.norm(a.pose.position - b.pose.position))
                    for a, b in zip(runs[fa], runs[fb])
                )
                assert gap <= 1e-5
                assert com_gap <= 1e-7

    def test_gap_shrinks_with_dt(self):
        sc = order_scenario(Formulation.KIRCHHOFF)

        def gap(dt):
            a = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, dt, 2.0, sample_every=10**9)[-1]
            b = simulate(sc, Formulation.LAGRANGE, IntegratorId.RK4, dt, 2.0, sample_every=10**9)[-1]
            return geodesic_distance(a.pose.rotation, b.pose.rotation)

        assert gap(2e-3) / gap(1e-3) >= 8.0

    def test_spatial_twist_chart_matches_body_chart(self):
        # No formulation runs the spatial chart, so step() drives it directly:
        # an offset-CoM body, translating under gravity, from the same body twist.
        si = SpatialInertia(1.3, ORDER_J, np.array([0.05, -0.1, 0.2]))
        accel, _ = kirchhoff_accel_fn(si, ForceModel(gravity=np.array([0.0, 0.0, -9.81])))
        pose0 = Pose(orientation_taking(ORDER_J @ ORDER_OMEGA, [0.0, 0.0, 1.0]), np.array([0.1, -0.2, 0.3]))
        nu0 = Twist(np.array([0.8, -0.5, 1.2]), np.array([0.4, -0.2, 0.3]))

        def poses(chart, dt):
            rhs = chart_rhs_fn(chart, accel)
            state = ChartState(pose0, chart_from_body_twist(chart, pose0, nu0))
            out = [state.pose]
            for k in range(round(1.0 / dt)):
                state = step(IntegratorId.LIE_RK4, chart, rhs, state, k * dt, dt)
                out.append(state.pose)
            return out

        gaps = []
        for dt in (4e-3, 2e-3, 1e-3):
            pairs = list(zip(poses(ChartId.BODY_TWIST, dt), poses(ChartId.SPATIAL_TWIST, dt)))
            gaps.append((
                max(geodesic_distance(a.rotation, b.rotation) for a, b in pairs),
                max(float(np.linalg.norm(a.position - b.position)) for a, b in pairs),
            ))
        assert gaps[0][0] <= 1e-9 and gaps[0][1] <= 1e-9
        for coarse, fine in zip(gaps, gaps[1:]):
            assert coarse[0] / fine[0] >= 8.0 and coarse[1] / fine[1] >= 8.0


class TestSimulateContract:
    def test_zero_duration_single_sample(self):
        sc = make_scenario("single", 1.0, np.eye(3), [0.1, 0.2, 0.3])
        samples = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 0.0)
        assert len(samples) == 1 and samples[0].t == 0.0

    def test_rest_body_all_samples_identical(self):
        sc = make_scenario("rest", 1.0, np.eye(3), [0.0, 0.0, 0.0])
        samples = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 0.05)
        for s in samples:
            assert np.array_equal(s.pose.position, samples[0].pose.position)
            assert np.array_equal(s.pose.rotation.m, samples[0].pose.rotation.m)
            assert np.array_equal(s.u, samples[0].u)

    def test_sample_u_is_read_only(self):
        sc = make_scenario("read-only", 1.0, np.eye(3), [0.1, 0.2, 0.3])
        for s in simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 0.002):
            with pytest.raises(ValueError, match="read-only"):
                s.u[0] = 1.0

    def test_sampling_includes_final_step(self):
        sc = make_scenario("sampling", 1.0, np.eye(3), [0.1, 0.0, 0.0])
        samples = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 0.01, sample_every=3)
        assert math.isclose(samples[-1].t, 0.01)
        assert len(samples) == 5  # steps 0, 3, 6, 9 and the final 10th

    @pytest.mark.parametrize(
        "dt, t_end, sample_every, field",
        [
            (0.0, 1.0, 1, "dt"),
            (math.nan, 1.0, 1, "dt"),
            (1e-3, math.inf, 1, "t_end"),
            (1e-3, -1.0, 1, "t_end"),
            (1e-3, 1.0, 0, "sample_every"),
            (1e-3, 0.0105, 1, "t_end"),  # 10.5 steps: whole steps miss t_end
            (1e-12, 1.0, 1, "t_end"),  # 1e12 steps, past MAX_STEPS; rejected before stepping
        ],
    )
    def test_run_parameters_rejected(self, dt, t_end, sample_every, field):
        sc = make_scenario("bad-run", 1.0, np.eye(3), [0.1, 0.0, 0.0])
        with pytest.raises(ScenarioValidationError) as exc:
            simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, dt, t_end, sample_every)
        assert exc.value.field == field

    def test_determinism(self):
        sc = make_scenario("det", 1.0, ORDER_J, ORDER_OMEGA)
        a = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 0.5)
        b = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 0.5)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.pose.rotation.m, sb.pose.rotation.m)
            assert np.array_equal(sa.u, sb.u)
            assert sa.energy == sb.energy

    @pytest.mark.parametrize(
        "formulation, integrator, constraint, field",
        [
            (Formulation.KIRCHHOFF, IntegratorId.RK4, None, "integrator"),
            (Formulation.NEWTON_EULER, IntegratorId.RK4, None, "integrator"),
            (Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, FixedPointConstraint(np.array([0.0, 0.0, -0.3])), "formulation"),
            (Formulation.NEWTON_EULER, IntegratorId.LIE_RK4, None, "formulation"),
        ],
    )
    def test_route_rules(self, formulation, integrator, constraint, field):
        # The body origin sits off the CoM, which only newton-euler refuses; the
        # rules apply in order constraint, integrator, CoM frame.
        sc = make_scenario("route", 1.0, np.eye(3), [0.0, 0.0, 1.0], com=[0.0, 0.0, 0.1], constraint=constraint)
        with pytest.raises(ScenarioValidationError) as exc:
            simulate(sc, formulation, integrator, 1e-3, 0.01)
        assert exc.value.field == field

    def test_gimbal_lock_aborts_with_time(self):
        # theta(t) = 0.25 - t crosses the singularity at t = 0.25.
        pose = Pose(euler_to_rotation(EulerAngles(0.0, 0.25, 0.0)), np.zeros(3))
        sc = make_scenario(
            "gimbal", 1.0, np.diag([1.0, 1.2, 1.5]), [-1.0, 0.0, 0.0], pose=pose,
            formulation=Formulation.LAGRANGE, integrator=IntegratorId.RK4,
        )
        with pytest.raises(GimbalLockError) as exc:
            simulate(sc, Formulation.LAGRANGE, IntegratorId.RK4, 1e-3, 1.0)
        assert exc.value.time is not None
        assert abs(exc.value.time - 0.25) <= 2e-3
        assert "gimbal lock at t=" in str(exc.value)

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e100])
    def test_under_resolved_euler_step_names_dt_and_jump(self, scale):
        # At these rates one RK4 stage carries theta across 0 or pi from a base
        # at theta = 1; nothing approached the singularity.
        pose = Pose(euler_to_rotation(EulerAngles(0.3, 1.0, -0.4)), np.zeros(3))
        sc = make_scenario(
            "fast", 1.0, np.diag([1.0, 1.6, 2.2]), [scale, 2.0 * scale, 0.5 * scale], pose=pose,
            formulation=Formulation.LAGRANGE, integrator=IntegratorId.RK4,
        )
        with pytest.raises(GimbalLockError) as exc:
            simulate(sc, Formulation.LAGRANGE, IntegratorId.RK4, 1e-3, 0.01)
        msg = str(exc.value)
        assert "step too large for the rates: dt = 0.001 moved theta by " in msg
        jump = float(msg.split("moved theta by ")[1].split(" rad")[0])
        assert abs(jump) > 0.5 * math.pi
        assert exc.value.time == pytest.approx(2e-3 if scale == 1e3 else 1e-3)

    def test_gimbal_lock_is_not_called_a_large_step(self):
        # theta(t) = 0.25 - t reaches the singularity in steps that move it by 1e-3.
        pose = Pose(euler_to_rotation(EulerAngles(0.0, 0.25, 0.0)), np.zeros(3))
        sc = make_scenario(
            "gimbal", 1.0, np.diag([1.0, 1.2, 1.5]), [-1.0, 0.0, 0.0], pose=pose,
            formulation=Formulation.LAGRANGE, integrator=IntegratorId.RK4,
        )
        with pytest.raises(GimbalLockError) as exc:
            simulate(sc, Formulation.LAGRANGE, IntegratorId.RK4, 1e-3, 1.0)
        assert "step too large" not in str(exc.value)

    def test_non_finite_aborts_with_context(self):
        from unirigid.dynamics import ForceModel, Wrench
        from unirigid.scenario import Scenario

        # Linear anti-damping: the twist grows ~7x per step until it overflows.
        blowup = lambda t, pose, nu: Wrench(2000.0 * nu.omega, 2000.0 * nu.vel)
        base = make_scenario("blowup", 1.0, np.eye(3), [0.1, 0.0, 0.0], vel=[0.1, 0.0, 0.0])
        sc = Scenario(
            name=base.name,
            inertia=base.inertia,
            initial_pose=base.initial_pose,
            initial_twist=base.initial_twist,
            forces=ForceModel(gravity=np.zeros(3), callback=blowup),
            constraint=None,
            run=base.run,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteStateError) as exc:
                simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 1.0)
        assert exc.value.last_sample_index >= 0
        assert len(exc.value.samples) >= 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "formulation, integrator",
        [
            (Formulation.KIRCHHOFF, IntegratorId.LIE_RK4),
            (Formulation.NEWTON_EULER, IntegratorId.LIE_RK4),
            (Formulation.LAGRANGE, IntegratorId.RK4),
            (Formulation.GAUSS, IntegratorId.LIE_RK4),
        ],
    )
    def test_overflow_aborts_with_context(self, formulation, integrator):
        # No callback: the gyroscopic terms of a 1e150 rad/s spin overflow inside the first step.
        pose = Pose(euler_to_rotation(EulerAngles(0.3, 1.0, -0.4)), np.zeros(3))
        pin = FixedPointConstraint(np.array([0.0, 0.0, -0.3])) if formulation is Formulation.GAUSS else None
        sc = make_scenario(
            "overflow", 1.0, np.diag([1.0, 1.6, 2.2]), [1e150, 2e150, 5e149], pose=pose,
            constraint=pin, formulation=formulation, integrator=integrator,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteStateError) as exc:
                simulate(sc, formulation, integrator, 1e-3, 1.0)
        assert exc.value.time == pytest.approx(1e-3)
        assert exc.value.last_sample_index == 0
        assert len(exc.value.samples) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_constraint_requires_gauss(self):
        sc = make_scenario(
            "pinned", 1.0, np.diag([0.4, 0.4, 0.3]), [0.0, 0.0, 5.0],
            constraint=FixedPointConstraint(np.array([0.0, 0.0, -0.3])),
            formulation=Formulation.GAUSS,
        )
        with pytest.raises(ScenarioValidationError):
            simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 0.1)

    def test_dzhanibekov_flip_and_conservation(self):
        from unirigid.scenario import load_scenario

        sc = load_scenario("dzhanibekov")
        samples = simulate(sc, sc.run.formulation, sc.run.integrator, sc.run.dt, 20.0, sample_every=10)
        w2 = np.array([s.nu.omega[1] for s in samples])
        assert np.any(np.abs(np.diff(np.sign(w2))) > 0), "middle-axis component never flipped"
        e = np.array([s.energy for s in samples])
        l = np.array([np.linalg.norm(s.l_spatial) for s in samples])
        assert np.abs(e - e[0]).max() / abs(e[0]) <= 1e-8
        assert np.abs(l - l[0]).max() / l[0] <= 1e-8
