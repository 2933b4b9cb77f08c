"""Integrator tests: convergence orders, orthogonality drift, conservation,
and the simulate() contract.

Order certification measures the error against the same method at half the
step (Richardson style) over dt in {4e-3, 2e-3, 1e-3} on a vigorously
tumbling torque-free body, so the asymptotic regime sits well above the
roundoff floor.
"""

import copy
import gc
import itertools
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import body_wrench_fn, make_scenario, orientation_taking

from unirigid import geom3
from unirigid.charts import ChartId, ChartState, Twist, chart_from_body_twist, stage_state
from unirigid.cli import formulation_gaps
from unirigid.dynamics import ForceModel, SpatialInertia, chart_rhs_fn, kirchhoff_accel_fn
from unirigid.errors import GimbalLockError, NonFiniteStateError, ScenarioValidationError
from unirigid.gauss import FixedPointConstraint
from unirigid.geom3 import Pose, Rotation, euler_matrix, euler_to_rotation, geodesic_distance
from unirigid.integrate import (
    MAX_SAMPLES,
    MAX_STEPS,
    UNDER_RESOLVED_JUMP,
    Formulation,
    IntegratorId,
    _rk_step,
    make_rhs,
    run_steps,
    simulate,
    step,
)
from unirigid.scenario import load_scenario, parse_scenario

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
        out = step(integrator, chart, lambda t, g, x, u: np.zeros(6), state, 0.0, 0.01)
        assert np.allclose(out.pose.rotation.m, pose.rotation.m)
        assert np.allclose(out.pose.position, pose.position)
        assert np.array_equal(out.u, np.zeros(6))

    def test_rejects_nonpositive_dt(self):
        state = ChartState(Pose.identity(), np.zeros(6))
        with pytest.raises(ValueError):
            step(IntegratorId.RK4, ChartId.BODY_TWIST, lambda t, g, x, u: np.zeros(6), state, 0.0, 0.0)

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
            step(IntegratorId.RK4, chart, lambda t, g, x, u: np.zeros(6), state, 0.0, 0.01)


class TestStepBoundary:
    """Every rotation a step forms is checked once; the ChartState step returns is the validated one."""

    # (scenario, formulation, integrator) -> check_rotation calls in one step: lie-rk4 checks its three stage
    # rotations in the retraction and the end rotation in its Rotation box; the Euler chart's stage function
    # checks the rotation of each of its stages' angles.
    @pytest.mark.parametrize("scenario, formulation, integrator, checks", [
        ("euler-top", Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 4),
        ("heavy-top-generic", Formulation.GAUSS, IntegratorId.LIE_RK4, 4),
        ("euler-top", Formulation.KIRCHHOFF, IntegratorId.LIE_EULER, 1),
        ("euler-top", Formulation.LAGRANGE, IntegratorId.RK4, 5),
        ("euler-top", Formulation.LAGRANGE, IntegratorId.LIE_EULER, 2),
    ])
    def test_one_check_per_rotation_formed(self, monkeypatch, scenario, formulation, integrator, checks):
        sc = load_scenario(scenario)
        chart, rhs = make_rhs(formulation, sc)
        state = ChartState(sc.initial_pose, chart_from_body_twist(chart, sc.initial_pose, sc.initial_twist))
        calls, check = [], geom3.check_rotation

        def counted(m):
            calls.append(m)
            check(m)

        for module in ("geom3", "charts", "dynamics"):
            monkeypatch.setattr(f"unirigid.{module}.check_rotation", counted)
        step(integrator, chart, rhs, state, 0.0, 1e-3)
        assert len(calls) == checks

    @pytest.mark.parametrize("numpy_rhs", [False, True])
    @pytest.mark.parametrize("chart, integrator", STEP_ROUTES)
    def test_result_is_the_validated_chart_state(self, chart, integrator, numpy_rhs):
        # The zero rhs returns numpy scalars, which the stage arithmetic carries into x and u.
        sc = load_scenario("euler-top")
        rhs = (lambda t, g, x, u: np.zeros(6)) if numpy_rhs else chart_rhs_fn(
            chart, kirchhoff_accel_fn(sc.inertia, sc.forces))
        state = ChartState(sc.initial_pose, np.full(6, 0.4))
        g, x, u = _rk_step(integrator, chart, rhs, *stage_state(chart, state), 0.0, 1e-2)
        want = ChartState(Pose(Rotation(euler_matrix(*g) if chart is ChartId.EULER_COM else g), x), u)
        out = step(integrator, chart, rhs, state, 0.0, 1e-2)
        assert pickle.dumps(out) == pickle.dumps(want)
        for other in (out, pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
            assert other == want and hash(other) == hash(want)
            assert other.pose == want.pose and hash(other.pose) == hash(want.pose)
        for got, ref in ((out.flat, want.flat), (out.pose.flat, want.pose.flat),
                         (out.pose.rotation.flat, want.pose.rotation.flat)):
            assert [v.hex() for v in got] == [v.hex() for v in ref]
            assert all(type(v) is float for v in got)

    @pytest.mark.parametrize("chart", [ChartId.BODY_TWIST, ChartId.SPATIAL_TWIST])
    def test_end_rotation_is_checked(self, monkeypatch, chart):
        # lie-euler's one retraction forms the end rotation, which only its Rotation box checks.
        monkeypatch.setattr("unirigid.charts.exp_so3_matrix", lambda w: (2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
        state = ChartState(Pose.identity(), np.full(6, 0.1))
        text = r"^matrix is not orthogonal \(or not finite\): \|\|R\^T R - I\|\|_F\^2 = 9\.0$"
        with pytest.raises(ValueError, match=text):
            step(IntegratorId.LIE_EULER, chart, lambda t, g, x, u: (0.0,) * 6, state, 0.0, 1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("chart, integrator", STEP_ROUTES)
    def test_every_stage_guard_covers_every_component(self, chart, integrator, bad):
        # Call s of the stage function returns `bad` in component j; that stage's own guard must name its time.
        # A guard that skipped j would let the value on, to a different error or none.
        t, dt = 0.25, 0.5
        times = [t] if integrator is IntegratorId.LIE_EULER else [t, t + 0.5 * dt, t + 0.5 * dt, t + dt]
        state = ChartState(Pose(euler_to_rotation((0.3, 1.1, -0.4)), (0.1, -0.2, 0.3)),
                           (0.2, -0.1, 0.3, 0.5, 0.1, -0.2))
        for s, time in enumerate(times):
            for j in range(6):
                calls = []

                def rhs(t, g, x, u):
                    calls.append(t)
                    return tuple(bad if len(calls) == s + 1 and i == j else 0.0 for i in range(6))

                with pytest.raises(NonFiniteStateError) as err:
                    step(integrator, chart, rhs, state, t, dt)
                assert str(err.value) == f"non-finite chart acceleration at t={time:.6g}", (s, j)
                assert calls == times[:s + 1], (s, j)

    # Slots of (g, x, u) that step's end check tests: x and u on every chart, the angles on the Euler chart.
    @pytest.mark.parametrize("chart, integrator", STEP_ROUTES)
    def test_end_check_covers_x_u_and_euler_angles(self, monkeypatch, chart, integrator):
        state = ChartState(Pose(euler_to_rotation((0.3, 1.1, -0.4)), (0.1, -0.2, 0.3)), np.full(6, 0.2))
        base = stage_state(chart, state)
        parts = (1, 2) + ((0,) if chart is ChartId.EULER_COM else ())
        for part, slot, bad in itertools.product(parts, range(6), (math.nan, math.inf, -math.inf)):
            if slot >= len(base[part]):
                continue
            out = [list(p) for p in base]
            out[part][slot] = bad
            monkeypatch.setattr("unirigid.integrate._rk_step", lambda *args, out=out: tuple(map(tuple, out)))
            with pytest.raises(NonFiniteStateError) as err:
                step(integrator, chart, lambda *a: (0.0,) * 6, state, 0.5, 0.25)
            assert err.value.time == 0.75 and str(err.value) == "non-finite state after the step from t=0.5"

    @pytest.mark.parametrize("chart, integrator, overflow", [(c, i, "u") for c, i in STEP_ROUTES] + [
        (ChartId.EULER_COM, i, "angles") for i in IntegratorId])
    def test_overflowing_end_state_is_non_finite_state(self, chart, integrator, overflow):
        # Finite stage accelerations whose sum overflows u, or Euler angle rates whose step overflows the angles:
        # NonFiniteStateError at t + dt, not the ValueError of euler_matrix or of the Rotation box.
        u0 = (1e308, 0.0, 0.0, 0.0, 0.0, 0.0) if overflow == "angles" else (0.0,) * 6
        accel = (0.0,) * 6 if overflow == "angles" else (0.0, 0.0, 0.0, 1e308, 0.0, 0.0)
        state = ChartState(Pose(euler_to_rotation((0.3, 1.1, -0.4)), (0.1, -0.2, 0.3)), u0)
        with pytest.raises(NonFiniteStateError) as err:
            step(integrator, chart, lambda *a: accel, state, 1.0, 10.0)
        assert err.value.time == 11.0


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
        from unirigid.dynamics import assemble_inertia, conserved6
        from unirigid.geom3 import as_rows

        sc = make_scenario(
            "power", 2.0, np.diag([1.0, 1.4, 1.8]), [0.9, -0.4, 0.6], vel=[0.2, 0.0, -0.1],
            gravity=[0.0, 0.0, -9.81],
        )
        dt = 1e-3
        samples = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, dt, 2.0, sample_every=1)
        si = sc.inertia
        m6_rows, c, no_gravity = as_rows(assemble_inertia(si)), si.c.tolist(), (0.0, 0.0, 0.0)
        kin = np.array([conserved6(m6_rows, si.mass, c, no_gravity, s.pose.rotation.flat, s.pose.flat, s.nu.flat)[0]
                        for s in samples])
        wrench = body_wrench_fn(sc.forces, si)
        for k in range(1, len(samples) - 1):
            s = samples[k]
            w6 = wrench(s.t, s.pose.rotation.flat, s.pose.flat, s.nu.flat)
            power = float(s.nu.as_array() @ np.array(w6))
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
        # not from body_wrench_fn.  Measured gap 6.6e-6 against |power| up to 53; the
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
        for fa, fb in itertools.combinations(runs, 2):
            gap, com_gap = formulation_gaps(sc, runs[fa], runs[fb])
            assert gap <= 1e-5
            assert com_gap <= 1e-7

    def test_gap_shrinks_with_dt(self):
        sc = order_scenario(Formulation.KIRCHHOFF)

        def gap(dt):
            # Rows 0 and end: the runs start from one pose, so this is the end-point gap.
            a = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, dt, 2.0, sample_every=10**9)
            b = simulate(sc, Formulation.LAGRANGE, IntegratorId.RK4, dt, 2.0, sample_every=10**9)
            return formulation_gaps(sc, a, b)[0]

        assert gap(2e-3) / gap(1e-3) >= 8.0

    def test_spatial_twist_chart_matches_body_chart(self):
        # No formulation runs the spatial chart, so step() drives it directly:
        # an offset-CoM body, translating under gravity, from the same body twist.
        si = SpatialInertia(1.3, ORDER_J, np.array([0.05, -0.1, 0.2]))
        accel = kirchhoff_accel_fn(si, ForceModel(gravity=np.array([0.0, 0.0, -9.81])))
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

    def test_samples_are_read_only_views_of_rows(self):
        sc = load_scenario("heavy-top-generic")
        traj = simulate(sc, Formulation.GAUSS, IntegratorId.LIE_RK4, 1e-3, 0.01, sample_every=3)
        assert traj.rows.shape == (len(traj), 29) and not traj.rows.flags.writeable
        for k, s in enumerate(traj):
            assert s.u.base is traj.rows and np.array_equal(s.u, traj.rows[k, 13:19])
            assert s.l_spatial.base is traj.rows and np.array_equal(s.l_spatial, traj.rows[k, 26:29])
            with pytest.raises(ValueError, match="read-only"):
                s.l_spatial[0] = 1.0
            assert (s.t, s.energy) == (traj.rows[k, 0], traj.rows[k, 25])
            assert s.pose.rotation.flat + s.pose.flat == tuple(traj.rows[k, 1:13])
            assert s.nu.flat == tuple(traj.rows[k, 19:25])

    def test_trajectory_pickles_and_copies(self):
        sc = make_scenario("pickle", 1.0, np.eye(3), [0.1, 0.2, 0.3])
        traj = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, 1e-3, 0.005)
        for other in (pickle.loads(pickle.dumps(traj)), copy.deepcopy(traj)):
            assert np.array_equal(other.rows, traj.rows) and not other.rows.flags.writeable
            assert [s.pose for s in other] == [s.pose for s in traj]

    def test_retained_memory_per_sample(self):
        sc = load_scenario("heavy-top-generic")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = simulate(sc, Formulation.GAUSS, IntegratorId.LIE_RK4, 1e-3, 2.0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(traj) == 2001
        assert retained / len(traj) <= 600.0

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
            (1e-6, 2.0, 2, "sample_every"),  # 1e6 + 1 rows, past MAX_SAMPLES; rejected before stepping
        ],
    )
    def test_run_parameters_rejected(self, dt, t_end, sample_every, field):
        sc = make_scenario("bad-run", 1.0, np.eye(3), [0.1, 0.0, 0.0])
        with pytest.raises(ScenarioValidationError) as exc:
            simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_RK4, dt, t_end, sample_every)
        assert exc.value.field == field

    def test_sample_bound_counts_the_rows_simulate_records(self):
        # Rows are t = 0 plus one per stride begun: MAX_SAMPLES rows are accepted, one more is refused.
        for every in (1, 3):
            n = (MAX_SAMPLES - 1) * every
            assert run_steps(1.0, float(n), every) == n
            with pytest.raises(ScenarioValidationError, match=f"past the limit of {MAX_SAMPLES}$") as exc:
                run_steps(1.0, float(n + 1), every, where="run.")
            assert exc.value.field == "run.sample_every" and "\n" not in str(exc.value)
        assert run_steps(1.0, float(MAX_STEPS), 10**6) == MAX_STEPS  # 11 rows

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
        ],
    )
    def test_route_rules(self, formulation, integrator, constraint, field):
        # The body origin sits off the CoM, which no formulation refuses; the
        # rules apply in order constraint, integrator.
        sc = make_scenario("route", 1.0, np.eye(3), [0.0, 0.0, 1.0], com=[0.0, 0.0, 0.1], constraint=constraint)
        with pytest.raises(ScenarioValidationError) as exc:
            simulate(sc, formulation, integrator, 1e-3, 0.01)
        assert exc.value.field == field

    def test_gimbal_lock_aborts_with_time(self):
        # theta(t) = 0.25 - t crosses the singularity at t = 0.25.
        pose = Pose(euler_to_rotation((0.0, 0.25, 0.0)), np.zeros(3))
        sc = make_scenario(
            "gimbal", 1.0, np.diag([1.0, 1.2, 1.5]), [-1.0, 0.0, 0.0], pose=pose,
            formulation=Formulation.LAGRANGE, integrator=IntegratorId.RK4,
        )
        with pytest.raises(GimbalLockError) as exc:
            simulate(sc, Formulation.LAGRANGE, IntegratorId.RK4, 1e-3, 1.0)
        assert exc.value.time is not None
        assert abs(exc.value.time - 0.25) <= 2e-3
        assert "gimbal lock at t=" in str(exc.value)

    def test_gimbal_lock_at_the_start_is_at_t_0(self):
        # The identity orientation has theta = 0: the start state has no Euler rates.
        sc = make_scenario("start", 1.0, np.diag([1.0, 1.2, 1.5]), [0.1, 0.2, 0.3])
        with pytest.raises(GimbalLockError) as exc:
            simulate(sc, Formulation.LAGRANGE, IntegratorId.RK4, 1e-3, 0.01)
        assert exc.value.time == 0.0
        assert str(exc.value).startswith("gimbal lock at t=0: sin(theta) = ")

    @staticmethod
    def fast_euler_scenario(scale):
        pose = Pose(euler_to_rotation((0.3, 1.0, -0.4)), np.zeros(3))
        return make_scenario(
            "fast", 1.0, np.diag([1.0, 1.6, 2.2]), [scale, 2.0 * scale, 0.5 * scale], pose=pose,
            formulation=Formulation.LAGRANGE, integrator=IntegratorId.RK4,
        )

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e100])
    def test_under_resolved_euler_step_names_dt_and_jump(self, scale):
        # At these rates one RK4 stage carries theta across 0 or pi from a base
        # at theta = 1; nothing approached the singularity.
        sc = self.fast_euler_scenario(scale)
        with pytest.raises(GimbalLockError) as exc:
            simulate(sc, Formulation.LAGRANGE, IntegratorId.RK4, 1e-3, 0.01)
        msg = str(exc.value)
        assert "step too large for the rates: dt = 0.001 moved theta by " in msg
        jump = float(msg.split("moved theta by ")[1].split(" rad")[0])
        assert abs(jump) > 0.5 * math.pi
        assert exc.value.time == pytest.approx(2e-3 if scale == 1e3 else 1e-3)

    @pytest.mark.parametrize("scale, t, below", [(500.0, "0.007", -1e-2), (100.0, "0.035", -3e-3),
                                                  (200.0, "0.018", -5e-3)])
    def test_stage_landing_past_the_singularity_is_a_large_step(self, scale, t, below):
        # At s = 500, about 1.1 rad per step: a stage moves theta by 0.96 rad, less than pi/2, and lands
        # at sin(theta) = -0.077, where the resolved motion comes no closer than sin(theta) = 0.014.
        # At s = 100 and 200 a stage moves theta by about 0.2 rad and lands only at -3.9e-3 and -6.0e-3.
        with pytest.raises(GimbalLockError) as exc:
            simulate(self.fast_euler_scenario(scale), Formulation.LAGRANGE, IntegratorId.RK4, 1e-3, 0.05)
        msg = str(exc.value)
        assert msg.startswith(f"gimbal lock at t={t}: step too large for the rates: dt = 0.001 moved theta by ")
        assert abs(float(msg.split("moved theta by ")[1].split(" rad")[0])) > UNDER_RESOLVED_JUMP
        assert float(msg.split("sin(theta) = ")[1].split()[0]) < below

    def test_gimbal_lock_is_not_called_a_large_step(self):
        # theta(t) = 0.25 - t reaches the singularity in steps that move it by 1e-3.
        pose = Pose(euler_to_rotation((0.0, 0.25, 0.0)), np.zeros(3))
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
        pose = Pose(euler_to_rotation((0.3, 1.0, -0.4)), np.zeros(3))
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

    def test_overflowing_sampled_twist_aborts_with_context(self, monkeypatch):
        # A finite Euler-chart state whose body twist nu = Phi u overflows: R^T u_lin has an entry of
        # sqrt(3) * 1.5e308.  step() accepts it; the sample must stop as non-finite state, not a ValueError.
        r = orientation_taking((1.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        huge = ChartState(Pose(r, np.zeros(3)), np.array([0.1, 0.2, 0.3, 1.5e308, 1.5e308, 1.5e308]))
        monkeypatch.setattr("unirigid.integrate.step", lambda *args: huge)
        sc = make_scenario("huge", 1.0, ORDER_J, ORDER_OMEGA, pose=Pose(r, np.zeros(3)),
                           formulation=Formulation.LAGRANGE, integrator=IntegratorId.RK4)
        with pytest.raises(NonFiniteStateError, match="body twist") as exc:
            simulate(sc, Formulation.LAGRANGE, IntegratorId.RK4, 1e-3, 0.01)
        assert exc.value.time == pytest.approx(1e-3)
        assert exc.value.last_sample_index == 0

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
