"""The raw-array step kernel against the equations it replaced.

Each property is drawn by hypothesis with a fixed seed (``derandomize``), so
the suite is deterministic:

* each chart's closed-form maps nu = Phi u and u = Phi^-1 nu equal the
  matrix product and the linear solve with Phi from chart_eval;
* the closed-form u_dot = Phi^-1 (nu_dot - Phi_dot u) of the Euler and the
  spatial-twist charts equals the generic solve
  (Phi^T M Phi) u_dot = Phi^T (F - M Phi_dot u - bias), built here from
  chart_eval, with and without a CoM offset;
* the pinned point's Schur-complement solve equals the bordered 9x9 KKT
  system [[M, A^T], [A, 0]] (nu_dot, -lambda) = (M nu_dot_free, b);
* simulate() is bit for bit the same as repeated public step() calls.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_scenario

from unirigid.charts import (
    ChartId,
    ChartState,
    Frame,
    Twist,
    body_twist,
    chart_eval,
    chart_from_body_twist,
)
from unirigid.dynamics import (
    ForceModel,
    SpatialInertia,
    Wrench,
    assemble_inertia,
    body_wrench,
    chart_rhs,
    momentum_bias,
)
from unirigid.gauss import FixedPointConstraint, constrained_accel, fixed_point_constraint
from unirigid.geom3 import EulerAngles, Pose, euler_to_rotation
from unirigid.integrate import Formulation, make_rhs, simulate, step
from unirigid.scenario import builtin_scenario_dir, load_scenario

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)

unit = st.floats(-1.0, 1.0)
vec3 = st.tuples(unit, unit, unit).map(np.array)


@st.composite
def bodies(draw, with_offset):
    moments = sorted(draw(st.tuples(*[st.floats(0.5, 2.0)] * 3)))
    if moments[2] > moments[0] + moments[1]:
        moments[2] = moments[0] + moments[1]
    tilt = euler_to_rotation(EulerAngles(*draw(vec3))).m
    j = tilt @ np.diag(moments) @ tilt.T
    # m |c|^2 <= 0.36 stays below the smallest moment, so M is positive definite.
    c = 0.2 * draw(vec3) if with_offset else np.zeros(3)
    return SpatialInertia(mass=draw(st.floats(0.5, 3.0)), j=0.5 * (j + j.T), c=c)


@st.composite
def euler_states(draw):
    angles = EulerAngles(
        draw(st.floats(-math.pi, math.pi)),
        draw(st.floats(0.5, math.pi - 0.5)),
        draw(st.floats(-math.pi, math.pi)),
    )
    pose = Pose(euler_to_rotation(angles), draw(vec3))
    return ChartState(pose, np.concatenate([draw(vec3), draw(vec3)]) * 2.0)


@pytest.mark.parametrize("chart", list(ChartId))
def test_closed_form_maps_match_chart_matrix(chart):
    @SETTINGS
    @given(state=euler_states(), nu6=st.tuples(vec3, vec3).map(np.concatenate))
    def check(state, nu6):
        phi = chart_eval(chart, state.pose, state.u).phi
        expected = phi @ state.u
        got = body_twist(chart, state).as_array()
        assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))
        expected = np.linalg.solve(phi, nu6)
        got = chart_from_body_twist(chart, state.pose, Twist(nu6[:3], nu6[3:], Frame.BODY))
        assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))

    check()


def reference_u_dot(chart, si, state, forces):
    ev = chart_eval(chart, state.pose, state.u)
    m6 = assemble_inertia(si)
    nu6 = ev.phi @ state.u
    nu = Twist(nu6[:3], nu6[3:], Frame.BODY)
    f6 = body_wrench(forces, si, 0.0, state.pose, nu).as_array()
    rhs = ev.phi.T @ (f6 - m6 @ (ev.phi_dot @ state.u) - momentum_bias(nu6, m6 @ nu6))
    return np.linalg.solve(ev.phi.T @ m6 @ ev.phi, rhs)


@pytest.mark.parametrize("chart", [ChartId.EULER_COM, ChartId.SPATIAL_TWIST])
@pytest.mark.parametrize("with_offset", [False, True])
def test_closed_form_chart_map_matches_generic_solve(chart, with_offset):
    @SETTINGS
    @given(si=bodies(with_offset), state=euler_states(), g=vec3, torque=vec3, force=vec3)
    def check(si, state, g, torque, force):
        forces = ForceModel(gravity=10.0 * g, constant_wrench=Wrench(torque, force, Frame.BODY))
        expected = reference_u_dot(chart, si, state, forces)
        got = chart_rhs(chart, si, state, forces)
        assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))

    check()


def kkt_reference(si, nu, w, con):
    m6 = assemble_inertia(si)
    nu6 = nu.as_array()
    free = np.linalg.solve(m6, w.as_array() - momentum_bias(nu6, m6 @ nu6))
    kkt = np.zeros((9, 9))
    kkt[:6, :6] = m6
    kkt[:6, 6:] = con.a.T
    kkt[6:, :6] = con.a
    sol = np.linalg.solve(kkt, np.concatenate([m6 @ free, con.b]))
    return sol[:6], -sol[6:]


@SETTINGS
@given(
    si=bodies(True), r_b=vec3, omega=vec3, vel=vec3, torque=vec3, force=vec3, drift=vec3,
    gains=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
)
def test_pin_schur_complement_matches_kkt(si, r_b, omega, vel, torque, force, drift, gains):
    pin = FixedPointConstraint(0.5 * r_b, baumgarte_alpha=gains[0], baumgarte_beta=gains[1])
    nu = Twist(2.0 * omega, vel, Frame.BODY)
    w = Wrench(torque, force, Frame.BODY)
    con = fixed_point_constraint(pin, nu, position_drift=1e-3 * drift)
    nu_dot_ref, lam_ref = kkt_reference(si, nu, w, con)
    nu_dot, lam = constrained_accel(si, nu, w, con)
    scale = max(1.0, np.linalg.norm(nu_dot_ref), np.linalg.norm(lam_ref))
    assert np.linalg.norm(nu_dot - nu_dot_ref) <= 1e-12 * scale
    assert np.linalg.norm(lam - lam_ref) <= 1e-12 * scale


@SETTINGS
@given(si=bodies(True), r_b=vec3, omega=vec3, vel=vec3, angles=vec3, x=vec3)
def test_gauss_route_uses_the_same_solve(si, r_b, omega, vel, angles, x):
    # The simulate route precomputes the Schur complement once per run.
    pin = FixedPointConstraint(0.5 * r_b, baumgarte_alpha=1.0, baumgarte_beta=2.0)
    pose0 = Pose(euler_to_rotation(EulerAngles(*angles)), np.zeros(3))
    sc = make_scenario(
        "pin", si.mass, si.j, omega, com=si.c, gravity=[0.0, 0.0, -9.81], pose=pose0,
        constraint=pin, formulation=Formulation.GAUSS,
    )
    chart, rhs = make_rhs(Formulation.GAUSS, sc)
    pose = Pose(euler_to_rotation(EulerAngles(*(angles + 0.1))), 0.1 * x)
    u = np.concatenate([2.0 * omega, vel])
    nu = Twist(u[:3], u[3:], Frame.BODY)
    anchor = pose0.rotation.m @ pin.r_b
    drift = pose.rotation.m.T @ (pose.position + pose.rotation.m @ pin.r_b - anchor)
    w = body_wrench(sc.forces, si, 0.0, pose, nu)
    nu_dot_ref, _ = kkt_reference(si, nu, w, fixed_point_constraint(pin, nu, position_drift=drift))
    got = rhs(0.0, (pose.rotation.m, pose.position, u))
    assert np.linalg.norm(got - nu_dot_ref) <= 1e-12 * max(1.0, np.linalg.norm(nu_dot_ref))


@pytest.mark.parametrize("name", sorted(p.stem for p in builtin_scenario_dir().glob("*.json")))
def test_simulate_is_repeated_step(name):
    sc = load_scenario(name)
    f, integ, dt = sc.run.formulation, sc.run.integrator, sc.run.dt
    n = 50
    samples = simulate(sc, f, integ, dt, n * dt, sample_every=1)
    chart, rhs = make_rhs(f, sc)
    state = ChartState(sc.initial_pose, chart_from_body_twist(chart, sc.initial_pose, sc.initial_twist))
    assert len(samples) == n + 1
    for k in range(n):
        state = step(integ, chart, rhs, state, k * dt, dt)
        s = samples[k + 1]
        assert np.array_equal(s.pose.rotation.m, state.pose.rotation.m)
        assert np.array_equal(s.pose.position, state.pose.position)
        assert np.array_equal(s.u, state.u)
