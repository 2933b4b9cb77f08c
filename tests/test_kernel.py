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
* one step() of every integrator/chart pair equals an independent numpy
  step built from that generic solve and a numpy Rodrigues formula;
* simulate() is bit for bit the same as repeated public step() calls;
* geom3.matvec, its 6x6 written out and every other shape one loop, sums
  each row left to right from its first product, bit for bit;
* stage_state reads the floats the boxes kept, bit for bit the tuples the
  numpy arrays give, and keeps the gimbal rule;
* the float conserved6 equals a numpy evaluation of T, V and L;
* each route's flat right-hand side (kirchhoff_accel_fn,
  newton_euler_accel_fn, and chart_rhs_fn's Euler transport) equals the
  layered reference composition of tests/helpers.py bit for bit on bodies
  with a CoM offset, compared by float.hex, and fails with the same error
  where the reference fails;
* the pinned point's flat stage function, from make_rhs, equals the layered
  free acceleration -> drift and offset -> constrained_accel6 bit for bit,
  with off-axis pins and Baumgarte gains;
* the step kernel, its four stages written out, equals the layered
  composition of tests/helpers.py (one call per stage for the slopes, the
  increments and the RK4 sum) bit for bit on every chart and integrator, and
  aborts with the same error and text, the gimbal rule included;
* the Euler transport keeps the sign of an exactly zero output that only its
  products with E's zero entries decide.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    body_wrench_fn,
    fixed_point_offset_fn,
    layered_chart_rhs_fn,
    layered_fixed_point_rhs,
    layered_kirchhoff_accel,
    layered_newton_euler_accel,
    layered_rk_step,
    make_scenario,
    momentum_bias,
)

from unirigid.charts import (
    ChartId,
    ChartState,
    Twist,
    body_twist,
    chart_eval,
    chart_from_body_twist,
    stage_state,
)
from unirigid.dynamics import (
    ForceModel,
    SpatialInertia,
    Wrench,
    assemble_inertia,
    chart_rhs_fn,
    conserved6,
    kirchhoff_accel_fn,
    newton_euler_accel_fn,
    spd_factor,
)
from unirigid.gauss import (
    AccelConstraint,
    FixedPointConstraint,
    constrained_accel,
    fixed_point_rhs_fn,
    fixed_point_rows,
)
from unirigid.errors import GimbalLockError, NonFiniteStateError, UniRigidError
from unirigid.geom3 import GIMBAL_EPS, Pose, Rotation, as_rows, euler_matrix, euler_to_rotation, matvec
from unirigid.integrate import Formulation, IntegratorId, _rk_step, make_rhs, pin_anchor, simulate, step
from unirigid.scenario import builtin_scenario_dir, load_scenario

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)

unit = st.floats(-1.0, 1.0)
vec3 = st.tuples(unit, unit, unit).map(np.array)


@st.composite
def bodies(draw, with_offset):
    moments = sorted(draw(st.tuples(*[st.floats(0.5, 2.0)] * 3)))
    if moments[2] > moments[0] + moments[1]:
        moments[2] = moments[0] + moments[1]
    tilt = euler_to_rotation(draw(vec3)).m
    j = tilt @ np.diag(moments) @ tilt.T
    # m |c|^2 <= 0.36 stays below the smallest moment, so M is positive definite.
    c = 0.2 * draw(vec3) if with_offset else np.zeros(3)
    return SpatialInertia(mass=draw(st.floats(0.5, 3.0)), j=0.5 * (j + j.T), c=c)


@st.composite
def euler_states(draw):
    angles = (
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
        got = chart_from_body_twist(chart, state.pose, Twist(nu6[:3], nu6[3:]))
        assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))

    check()


def reference_u_dot(chart, si, state, forces):
    ev = chart_eval(chart, state.pose, state.u)
    m6 = assemble_inertia(si)
    nu6 = ev.phi @ state.u
    f6 = np.array(body_wrench_fn(forces, si)(0.0, state.pose.rotation.flat, state.pose.flat, nu6.tolist()))
    rhs = ev.phi.T @ (f6 - m6 @ (ev.phi_dot @ state.u) - momentum_bias(nu6, m6 @ nu6))
    return np.linalg.solve(ev.phi.T @ m6 @ ev.phi, rhs)


@pytest.mark.parametrize("chart", [ChartId.EULER_COM, ChartId.SPATIAL_TWIST])
@pytest.mark.parametrize("with_offset", [False, True])
def test_closed_form_chart_map_matches_generic_solve(chart, with_offset):
    @SETTINGS
    @given(si=bodies(with_offset), state=euler_states(), g=vec3, torque=vec3, force=vec3)
    def check(si, state, g, torque, force):
        forces = ForceModel(gravity=10.0 * g, constant_wrench=Wrench(torque, force))
        expected = reference_u_dot(chart, si, state, forces)
        got = np.array(chart_rhs_fn(chart, kirchhoff_accel_fn(si, forces))(0.0, *stage_state(chart, state)))
        assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))

    check()


def rodrigues(w):
    theta2 = float(w @ w)
    x, y, z = w
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    if theta2 < 1e-12:
        a, b = 1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0
    else:
        theta = math.sqrt(theta2)
        a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta2
    return np.eye(3) + a * k + b * (k @ k)


def zxz_matrix(angles):
    def rz(a):
        return np.array([[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]])

    t = angles[1]
    rx = np.array([[1.0, 0.0, 0.0], [0.0, math.cos(t), -math.sin(t)], [0.0, math.sin(t), math.cos(t)]])
    return rz(angles[0]) @ rx @ rz(angles[2])


def reference_step(integrator, chart, si, forces, state, dt):
    """One step in numpy: stage poses from the step's base, slopes from reference_u_dot."""
    r0, x0, u0 = state.pose.rotation.m, state.pose.position, state.u
    angles0 = np.array(stage_state(chart, state)[0]) if chart is ChartId.EULER_COM else None

    def retract(d_sigma, d_x):
        if chart is ChartId.EULER_COM:
            return zxz_matrix(angles0 + d_sigma), x0 + d_x
        e = rodrigues(d_sigma)
        return (r0 @ e if chart is ChartId.BODY_TWIST else e @ r0), x0 + d_x

    def rates(r, x, u, sigma):
        if chart is ChartId.EULER_COM:
            return u[:3], u[3:]
        omega, sign = u[:3], 1.0 if chart is ChartId.BODY_TWIST else -1.0
        c1 = np.cross(sigma, omega)
        sigma_dot = omega + sign * 0.5 * c1 + np.cross(sigma, c1) / 12.0
        return sigma_dot, (r @ u[3:] if chart is ChartId.BODY_TWIST else u[3:] + np.cross(omega, x))

    nodes = (0.0,) if integrator is IntegratorId.LIE_EULER else (0.0, 0.5, 0.5, 1.0)
    slopes = []
    for c in nodes:
        h = c * dt
        sigma_dot, x_dot, u_dot = slopes[-1] if slopes else (np.zeros(3), np.zeros(3), np.zeros(6))
        u, sigma = u0 + h * u_dot, h * sigma_dot
        r, x = retract(sigma, h * x_dot)
        k_u = reference_u_dot(chart, si, ChartState(Pose(Rotation(r), x), u), forces)
        slopes.append((*rates(r, x, u, sigma), k_u))
    weights = (1.0,) if integrator is IntegratorId.LIE_EULER else (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)
    d_sigma, d_x, d_u = (dt * sum(w * k[i] for w, k in zip(weights, slopes)) for i in range(3))
    r1, x1 = retract(d_sigma, d_x)
    return r1, x1, u0 + d_u


STEP_PAIRS = [(i, c) for i in (IntegratorId.LIE_EULER, IntegratorId.LIE_RK4) for c in ChartId]
STEP_PAIRS.append((IntegratorId.RK4, ChartId.EULER_COM))


@pytest.mark.parametrize("integrator, chart", STEP_PAIRS)
def test_step_matches_numpy_reference(integrator, chart):
    @SETTINGS
    @given(
        si=bodies(True), state=euler_states(), g=vec3, torque=vec3, force=vec3,
        dt=st.floats(1e-3, 5e-2),
    )
    def check(si, state, g, torque, force, dt):
        forces = ForceModel(gravity=10.0 * g, constant_wrench=Wrench(torque, force))
        accel = kirchhoff_accel_fn(si, forces)
        got = step(integrator, chart, chart_rhs_fn(chart, accel), state, 0.0, dt)
        r1, x1, u1 = reference_step(integrator, chart, si, forces, state, dt)
        for a, b in ((got.pose.rotation.m, r1), (got.pose.position, x1), (got.u, u1)):
            assert np.linalg.norm(a - b) <= 1e-13 * max(1.0, np.linalg.norm(b))

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
    nu = Twist(2.0 * omega, vel)
    w = Wrench(torque, force)
    con = AccelConstraint(fixed_point_rows(pin), fixed_point_offset_fn(pin)(nu.flat, (1e-3 * drift).tolist()))
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
    pose0 = Pose(euler_to_rotation(angles), np.zeros(3))
    sc = make_scenario(
        "pin", si.mass, si.j, omega, com=si.c, gravity=[0.0, 0.0, -9.81], pose=pose0,
        constraint=pin, formulation=Formulation.GAUSS,
    )
    chart, rhs = make_rhs(Formulation.GAUSS, sc)
    pose = Pose(euler_to_rotation(angles + 0.1), 0.1 * x)
    u = np.concatenate([2.0 * omega, vel])
    nu = Twist(u[:3], u[3:])
    anchor = pose0.rotation.m @ pin.r_b
    drift = pose.rotation.m.T @ (pose.position + pose.rotation.m @ pin.r_b - anchor)
    w6 = body_wrench_fn(sc.forces, si)(0.0, pose.rotation.flat, pose.flat, nu.flat)
    con = AccelConstraint(fixed_point_rows(pin), fixed_point_offset_fn(pin)(nu.flat, drift.tolist()))
    nu_dot_ref, _ = kkt_reference(si, nu, Wrench(w6[:3], w6[3:]), con)
    got = rhs(0.0, *stage_state(chart, ChartState(pose, u)))
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


@pytest.mark.parametrize(
    "n_rows, n_cols",
    [(6, 6), (3, 6), (3, 3), (6, 3), (1, 1), (2, 2), (4, 4), (5, 5), (6, 1), (6, 2), (6, 4), (6, 5),
     (1, 6), (2, 6), (4, 6), (5, 6)],
)
def test_matvec_sums_rows_left_to_right(n_rows, n_cols):
    entry = st.floats(-1e3, 1e3)

    @SETTINGS
    # Left to right from the first product: -0.0 + -0.0 is -0.0, where a sum started from 0 gives 0.0.
    @example(rows=[[-0.0] * n_cols] * n_rows, v=[1.0] * n_cols)
    @given(rows=st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows),
           v=st.lists(entry, min_size=n_cols, max_size=n_cols))
    def check(rows, v):
        want = []
        for row in rows:
            acc = row[0] * v[0]
            for a, b in zip(row[1:], v[1:]):
                acc = acc + a * b
            want.append(acc)
        got = matvec(tuple(map(tuple, rows)), tuple(v))
        # float.hex tells -0.0 from 0.0.
        assert [a.hex() for a in got] == [a.hex() for a in want]

    check()


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("chart", list(ChartId))
def test_stage_state_reads_the_numpy_state_bit_for_bit(chart):
    @SETTINGS
    @given(state=euler_states())
    def check(state):
        m = state.pose.rotation.m
        if chart is ChartId.EULER_COM:
            # rotation_to_euler's formulas on numpy entries.
            g = (math.atan2(m[0, 2], -m[1, 2]), math.atan2(math.hypot(m[2, 0], m[2, 1]), m[2, 2]),
                 math.atan2(m[2, 0], m[2, 1]))
        else:
            g = m.ravel().tolist()
        got = stage_state(chart, state)
        for a, b in zip(got, (g, state.pose.position.tolist(), state.u.tolist())):
            assert hexes(a) == hexes(b)

    check()
    at_lock = ChartState(Pose.identity(), np.ones(6))
    if chart is ChartId.EULER_COM:
        with pytest.raises(GimbalLockError):
            stage_state(chart, at_lock)
    else:
        assert stage_state(chart, at_lock)[0] == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


@SETTINGS
@given(si=bodies(True), state=euler_states(), g=vec3)
def test_conserved6_matches_numpy(si, state, g):
    m6, r, x, nu = assemble_inertia(si), state.pose.rotation.m, state.pose.position, state.u
    mom = m6 @ nu
    xg, rp = x + r @ si.c, r @ mom[3:]
    want = (0.5 * nu @ mom, -si.mass * (10.0 * g) @ xg, r @ mom[:3] + np.cross(x, rp))
    # Scales: bounds on the magnitudes of the terms each quantity adds up.
    norm = np.linalg.norm
    scales = (0.5 * np.abs(nu) @ np.abs(m6) @ np.abs(nu), si.mass * norm(10.0 * g) * (norm(x) + norm(si.c)),
              norm(mom[:3]) + norm(x) * norm(rp))
    got = conserved6(as_rows(m6), si.mass, si.c.tolist(), (10.0 * g).tolist(), state.pose.rotation.flat,
                     state.pose.flat, state.flat)
    for a, b, scale in zip(got, want, scales):
        assert np.max(np.abs(np.subtract(a, b))) <= 1e-13 * max(scale, 1e-300)


@st.composite
def force_models(draw):
    zero_or = st.one_of(vec3, st.just(np.zeros(3)), st.just(-np.zeros(3)))
    return ForceModel(gravity=10.0 * draw(zero_or), constant_wrench=Wrench(draw(zero_or), draw(zero_or)))


@st.composite
def raw_stage_states(draw, chart):
    """A float (g, x, u); on the Euler chart theta is drawn near and past both gimbal singularities too."""
    phi, psi = draw(st.floats(-math.pi, math.pi)), draw(st.floats(-math.pi, math.pi))
    if chart is ChartId.EULER_COM:
        theta = draw(st.one_of(st.floats(0.5, math.pi - 0.5), st.floats(-GIMBAL_EPS, 4.0 * GIMBAL_EPS),
                               st.floats(math.pi - 4.0 * GIMBAL_EPS, math.pi + GIMBAL_EPS)))
        g = (phi, theta, psi)
    else:
        g = euler_matrix(phi, draw(st.floats(0.0, math.pi)), psi)
    # Signed zeros and infinities in u reach the signs of zero products and the non-finite paths.
    u = draw(st.tuples(*[st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, math.inf, -math.inf]))] * 6))
    return g, tuple(draw(vec3).tolist()), u


def outcome(rhs, t, s):
    """The hex of each u_dot entry, or the type and text of the error rhs raises."""
    try:
        return hexes(rhs(t, *s))
    except UniRigidError as err:
        return type(err).__name__, str(err)


FLAT_ROUTES = {
    "kirchhoff": (kirchhoff_accel_fn, layered_kirchhoff_accel),
    "newton-euler": (newton_euler_accel_fn, layered_newton_euler_accel),
}


@pytest.mark.parametrize("route", sorted(FLAT_ROUTES))
@pytest.mark.parametrize("chart", list(ChartId))
def test_flat_rhs_matches_layered_reference_bit_for_bit(chart, route):
    flat_accel, layered_accel = FLAT_ROUTES[route]

    @SETTINGS
    @given(si=bodies(True), forces=force_models(), s=raw_stage_states(chart), t=st.floats(0.0, 10.0))
    def check(si, forces, s, t):
        want = outcome(layered_chart_rhs_fn(chart, layered_accel(si, forces)), t, s)
        assert outcome(chart_rhs_fn(chart, flat_accel(si, forces)), t, s) == want

    check()


@pytest.mark.parametrize("route", sorted(FLAT_ROUTES))
@pytest.mark.parametrize("chart", list(ChartId))
def test_flat_rhs_fails_as_the_layered_reference(chart, route):
    flat_accel, layered_accel = FLAT_ROUTES[route]
    si = SpatialInertia(1.3, np.diag([1.0, 1.5, 2.0]), np.array([0.05, -0.1, 0.2]))
    forces = ForceModel()
    flat, layered = chart_rhs_fn(chart, flat_accel(si, forces)), layered_chart_rhs_fn(chart, layered_accel(si, forces))
    g = (0.3, 1.0, -0.4) if chart is ChartId.EULER_COM else euler_matrix(0.3, 1.0, -0.4)
    u = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    # A non-finite position or velocity is no error of a stage function: it reaches u_dot, where the kernel tests it.
    for s in ((g, (0.0, math.inf, 0.0), u), (g, (0.1, 0.2, 0.3), (0.1, math.nan, 0.3, 0.4, 0.5, 0.6))):
        assert outcome(flat, 0.5, s) == outcome(layered, 0.5, s)
    cases = [
        (((0.3, math.nan, -0.4), (0.1, 0.2, 0.3), u), NonFiniteStateError, "Euler angles"),
        (((math.inf, 1.0, -0.4), (0.1, 0.2, 0.3), u), NonFiniteStateError, "Euler angles"),
        (((0.3, 0.5 * GIMBAL_EPS, -0.4), (0.1, 0.2, 0.3), u), GimbalLockError, "sin"),
        (((0.3, -0.2, -0.4), (0.1, 0.2, 0.3), u), GimbalLockError, "sin"),
    ] if chart is ChartId.EULER_COM else []
    for s, error, text in cases:
        with pytest.raises(error, match=text) as flat_err:
            flat(0.5, *s)
        with pytest.raises(error) as layered_err:
            layered(0.5, *s)
        assert str(flat_err.value) == str(layered_err.value)


@SETTINGS
@given(si=bodies(True), forces=force_models(), r_b=vec3, gains=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
       angles=vec3, x0=vec3, s=raw_stage_states(ChartId.BODY_TWIST), t=st.floats(0.0, 10.0))
def test_pinned_rhs_matches_layered_reference_bit_for_bit(si, forces, r_b, gains, angles, x0, s, t):
    # Off-axis pins with both Baumgarte terms; the drawn stage state is away from the anchor, so the drift is not zero.
    pin = FixedPointConstraint(0.5 * r_b + np.array([0.05, -0.05, 0.0]), baumgarte_alpha=gains[0],
                               baumgarte_beta=gains[1])
    sc = make_scenario("pin", si.mass, si.j, np.zeros(3), com=si.c, pose=Pose(euler_to_rotation(angles), x0),
                       constraint=pin, formulation=Formulation.GAUSS)
    sc = dataclasses.replace(sc, forces=forces)
    chart, rhs = make_rhs(Formulation.GAUSS, sc)
    assert chart is ChartId.BODY_TWIST
    m6_inv = spd_factor(assemble_inertia(si), "generalized inertia")
    layered = layered_fixed_point_rhs(layered_newton_euler_accel(si, forces), m6_inv, pin, pin_anchor(sc).tolist())
    assert outcome(rhs, t, s) == outcome(layered, t, s)


@st.composite
def step_states(draw, chart):
    """A raw_stage_states draw, or the same with its infinite u entries set to +-1.5, so that most steps complete."""
    g, x, u = draw(raw_stage_states(chart))
    if draw(st.booleans()):
        u = tuple([v if math.isfinite(v) else math.copysign(1.5, v) for v in u])
    return g, x, u


def step_outcome(kernel, integrator, chart, rhs, s, t, dt):
    """The hex of each entry of the step's (g, x, u), or the type and text of the error the kernel raises."""
    try:
        g, x, u = kernel(integrator, chart, rhs, *s, t, dt)
    except (UniRigidError, ValueError) as err:
        return type(err).__name__, str(err)
    return hexes((*g, *x, *u))


@pytest.mark.parametrize("integrator, chart", STEP_PAIRS)
def test_rk_step_matches_layered_reference_bit_for_bit(integrator, chart):
    # Huge steps overflow a later stage's acceleration or increment, which reaches each stage's finite check;
    # on the Euler chart, bases near and past the singularities reach both sides of the gimbal rule.
    @SETTINGS
    @given(si=bodies(True), forces=force_models(), s=step_states(chart), t=st.floats(0.0, 10.0),
           dt=st.one_of(st.floats(1e-3, 5e-2), st.floats(0.0, 300.0).map(lambda e: 10.0 ** e)))
    def check(si, forces, s, t, dt):
        rhs = chart_rhs_fn(chart, kirchhoff_accel_fn(si, forces))
        want = step_outcome(layered_rk_step, integrator, chart, rhs, s, t, dt)
        assert step_outcome(_rk_step, integrator, chart, rhs, s, t, dt) == want

    check()


def test_pinned_rhs_keeps_the_sign_of_zero():
    # A's entries include -0.0, 0.0 and 1.0; their products decide only the sign of an exactly zero output, which
    # no drawn state reaches.  Every sign pattern of a zero free acceleration and a zero twist, at zero drift,
    # leaves those signs to the stage function.
    si = SpatialInertia(1.3, np.diag([1.0, 1.5, 2.0]), np.array([0.05, -0.1, 0.2]))
    pin = FixedPointConstraint(np.array([0.3, -0.2, 0.5]), baumgarte_alpha=1.0, baumgarte_beta=2.0)
    m6_inv = spd_factor(assemble_inertia(si), "generalized inertia")
    r, x = euler_matrix(0.0, 0.0, 0.0), tuple((-pin.r_b).tolist())
    zeros = list(itertools.product((0.0, -0.0), repeat=6))
    for f in zeros:
        flat = fixed_point_rhs_fn(lambda t, r, x, nu: f, m6_inv, pin, (0.0, 0.0, 0.0))
        layered = layered_fixed_point_rhs(lambda t, r, x, nu: f, m6_inv, pin, (0.0, 0.0, 0.0))
        for nu in zeros:
            assert hexes(flat(0.0, r, x, nu)) == hexes(layered(0.0, r, x, nu)), (f, nu)


def test_euler_transport_keeps_the_sign_of_zero():
    # The products with E's zero entries (0.0 * u3 in omega_1; 0.0 * u2 + 0.0 * u3 in E_dot u) decide
    # only the sign of an exactly zero output, which no drawn state reaches.  A body acceleration of -0.0
    # in every entry leaves that sign to the transport: this u makes psi_dot and the second linear
    # rate -0.0, and dropping either product flips them.
    def accel(t, r, x, nu):
        return (-0.0,) * 6

    s = ((0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (-1.0, -0.0, 1.0, -0.0, -0.0, -0.0))
    got = chart_rhs_fn(ChartId.EULER_COM, accel)(0.0, *s)
    assert hexes(got) == hexes(layered_chart_rhs_fn(ChartId.EULER_COM, accel)(0.0, *s))
    assert hexes((got[2], got[4])) == hexes((-0.0, -0.0))
