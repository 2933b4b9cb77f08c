"""Fixed-step time integration respecting each chart's geometry.

One kernel, ``_rk_step``, advances every integrator on every chart over the
float ``(g, x, u)`` tuples of ``charts.stage_state``: a row-major rotation on
the twist charts, Z-X-Z angles on the Euler chart, through the chart's stage
maps in ``charts.CHART_STAGES``.  Stage configurations are reached from the
step's base by increments (``retract``); on the twist charts that is an
exponential, so orthogonality holds by construction, is checked on every
rotation formed and is never repaired.  ``step`` is the validated boundary,
ChartState in and out; the boxes keep floats, so no array is built there.

``LIE_RK4`` is a four-stage Munthe-Kaas style stepper: stage increments live
in the rotation algebra (``rates``) and the pose is updated by a
single exponential of the assembled increment.  On the Euler chart it is
classical RK4 in the coordinates, and ``RK4`` is that method: it steps the
Euler chart only.  ``LIE_EULER`` is the one-stage member of the family.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List

import numpy as np

from .charts import (
    _ZERO3,
    CHART_STAGES,
    ChartId,
    ChartState,
    Twist,
    body_twist,
    chart_from_body_twist,
    stage_pose,
    stage_state,
)
from .dynamics import (
    assemble_inertia,
    chart_rhs_fn,
    conserved6,
    kirchhoff_accel_fn,
    newton_euler_accel_fn,
    require_com_frame,
)
from .dynamics import spd_factor  # noqa: F401  (perfbench/tracer.py wraps it under this module)
from .errors import FrameNotAtCoMError, GimbalLockError, NonFiniteStateError, ScenarioValidationError
from .gauss import (
    constrained_accel6,
    fixed_point_offset_fn,
    fixed_point_rows,
    schur_factor,
)
# perfbench/tracer.py wraps exp_so3, euler_to_rotation and rotation_to_euler under this module.
from .geom3 import Pose, euler_to_rotation, exp_so3, rotation_to_euler  # noqa: F401
from .geom3 import as_rows, mat3_vec, mat3t_vec

# rhs(t, (g, x, u)) -> u_dot, a 6-tuple, on the float stage state of charts.stage_state.
RhsFn = Callable[[float, tuple], tuple]

# Longest run simulate accepts: about 9 minutes at 53 us per step (compare-euler-top in BENCH_10.json),
# about 21 minutes at 128 us per step when every step is sampled and written (pinned-csv).
MAX_STEPS = 10_000_000


class IntegratorId(Enum):
    RK4 = "rk4"
    LIE_EULER = "lie-euler"
    LIE_RK4 = "lie-rk4"


class Formulation(Enum):
    NEWTON_EULER = "newton-euler"
    KIRCHHOFF = "kirchhoff"
    LAGRANGE = "lagrange"
    GAUSS = "gauss"


FORMULATION_CHART = {
    Formulation.NEWTON_EULER: ChartId.BODY_TWIST,
    Formulation.KIRCHHOFF: ChartId.BODY_TWIST,
    Formulation.GAUSS: ChartId.BODY_TWIST,
    Formulation.LAGRANGE: ChartId.EULER_COM,
}

# Integrator used by default for each formulation: exponential-map stepping for
# twist charts, classical RK4 for the coordinate chart.
DEFAULT_INTEGRATOR = {
    Formulation.NEWTON_EULER: IntegratorId.LIE_RK4,
    Formulation.KIRCHHOFF: IntegratorId.LIE_RK4,
    Formulation.GAUSS: IntegratorId.LIE_RK4,
    Formulation.LAGRANGE: IntegratorId.RK4,
}


def check_route(formulation: Formulation, integrator: IntegratorId, scenario, where: str = "") -> None:
    """The route rules of scenario files, command-line choices and simulate().

    A constraint needs the gauss formulation, rk4 the Euler chart (lagrange;
    lie-rk4 is its counterpart on the twist charts), and newton-euler the
    body origin at the CoM.  Errors name ``where + field``.
    """
    if scenario.constraint is not None and formulation is not Formulation.GAUSS:
        raise ScenarioValidationError(
            f"{where}formulation", f"scenarios with a constraint must run gauss, not {formulation.value}"
        )
    if integrator is IntegratorId.RK4 and FORMULATION_CHART[formulation] is not ChartId.EULER_COM:
        raise ScenarioValidationError(
            f"{where}integrator", f"rk4 steps the lagrange (Euler) chart only; {formulation.value} runs lie-rk4"
        )
    if formulation is Formulation.NEWTON_EULER:
        try:
            require_com_frame(scenario.inertia)
        except FrameNotAtCoMError as err:
            raise ScenarioValidationError(f"{where}formulation", str(err)) from None


@dataclass(frozen=True)
class TrajectorySample:
    """One recorded instant: state plus conserved-quantity bookkeeping.

    ``energy`` is kinetic plus gravitational potential so that drift is
    meaningful for conservative scenarios; ``l_spatial`` is the angular
    momentum about the space origin.  ``u`` is the state's read-only array.
    """

    t: float
    pose: Pose
    u: np.ndarray
    nu: Twist
    energy: float
    l_spatial: np.ndarray


def _slopes(rates, rhs: RhsFn, t: float, g, x, u, sigma) -> tuple:
    """(sigma_dot, x_dot, u_dot) of one stage; sigma is the stage's rotation increment."""
    u_dot = rhs(t, (g, x, u))
    # Float arithmetic overflows silently to inf or nan, so each stage's slope is checked.
    if not all(map(math.isfinite, u_dot)):
        raise NonFiniteStateError(f"non-finite chart acceleration at t={t:.6g}")
    return (*rates(g, x, u, sigma), u_dot)


def _advance(retract, g0, x0, u0, h: float, s, y, k) -> tuple:
    """(g, x, u, sigma) reached from the base (g0, x0, u0) along the slopes (s, y, k) over h."""
    sigma = (h * s[0], h * s[1], h * s[2])
    u1, u2, u3, u4, u5, u6 = u0
    return (retract(g0, sigma), (x0[0] + h * y[0], x0[1] + h * y[1], x0[2] + h * y[2]),
            (u1 + h * k[0], u2 + h * k[1], u3 + h * k[2], u4 + h * k[3], u5 + h * k[4], u6 + h * k[5]), sigma)


def _rk4_sum(a, b, c, d) -> tuple:
    """a + 2 b + 2 c + d, entrywise, for 3- or 6-wide slopes."""
    head = (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0], a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1],
            a[2] + 2.0 * b[2] + 2.0 * c[2] + d[2])
    return head if len(a) == 3 else (*head, a[3] + 2.0 * b[3] + 2.0 * c[3] + d[3],
                                     a[4] + 2.0 * b[4] + 2.0 * c[4] + d[4], a[5] + 2.0 * b[5] + 2.0 * c[5] + d[5])


def _rk_step(integrator: IntegratorId, chart: ChartId, rhs: RhsFn, g0, x0, u0, t: float, dt: float):
    """One step of every integrator on float stage states; returns the new (g, x, u).

    Every stage starts from the base; RK4 then advances it by (dt / 6) (k1 + 2 k2 + 2 k3 + k4).
    """
    rates, retract = CHART_STAGES[chart]
    s1, y1, k1 = _slopes(rates, rhs, t, g0, x0, u0, _ZERO3)
    if integrator is IntegratorId.LIE_EULER:
        return _advance(retract, g0, x0, u0, dt, s1, y1, k1)[:3]
    h = 0.5 * dt
    try:
        stage = _advance(retract, g0, x0, u0, h, s1, y1, k1)
        s2, y2, k2 = _slopes(rates, rhs, t + h, *stage)
        stage = _advance(retract, g0, x0, u0, h, s2, y2, k2)
        s3, y3, k3 = _slopes(rates, rhs, t + h, *stage)
        stage = _advance(retract, g0, x0, u0, dt, s3, y3, k3)
        s4, y4, k4 = _slopes(rates, rhs, t + dt, *stage)
    except GimbalLockError as err:
        # The base passed the gimbal rule: a stage that moved theta this far is under-resolved.
        if chart is not ChartId.EULER_COM or abs(stage[3][1]) <= 0.5 * math.pi:
            raise
        raise GimbalLockError(f"step too large for the rates: dt = {dt:g} moved theta by {stage[3][1]:.3g} rad "
                              f"within one stage (more than pi/2), to {err}") from None
    return _advance(
        retract, g0, x0, u0, dt / 6.0, _rk4_sum(s1, s2, s3, s4), _rk4_sum(y1, y2, y3, y4), _rk4_sum(k1, k2, k3, k4)
    )[:3]


def step(
    integrator: IntegratorId,
    chart: ChartId,
    rhs: RhsFn,
    state: ChartState,
    t: float,
    dt: float,
) -> ChartState:
    """Advance one fixed step; pure function of its arguments.

    ``rhs(t, (g, x, u))`` is the chart acceleration on the raw stage state of
    ``charts.stage_state``, as returned by make_rhs.
    """
    if not (math.isfinite(dt) and dt > 0.0 and math.isfinite(t)):
        raise ValueError(f"dt must be positive and finite and t finite, got dt={dt!r}, t={t!r}")
    if not isinstance(integrator, IntegratorId):
        raise ValueError(f"unknown integrator {integrator!r}")
    if integrator is IntegratorId.RK4 and chart is not ChartId.EULER_COM:
        raise ValueError(f"rk4 steps the Euler chart only, not {chart.value}; use lie-rk4")
    g, x, u = _rk_step(integrator, chart, rhs, *stage_state(chart, state), t, dt)
    if not all(map(math.isfinite, (*g, *x, *u))):
        raise NonFiniteStateError(f"non-finite state after the step from t={t:.6g}", time=t + dt)
    return ChartState(stage_pose(chart, g, x), u)


def make_rhs(formulation: Formulation, scenario) -> "tuple[ChartId, RhsFn]":
    """Chart and raw-state right-hand side for one formulation of a scenario.

    The constant inertia is factored here, once per run.  The gauss route
    feeds the pinned-point constraint (when present) through the
    least-constraint solver with its Schur complement precomputed, tracking
    the pin anchor for drift stabilization; the other routes are
    unconstrained.
    """
    chart = FORMULATION_CHART[formulation]
    if formulation is Formulation.NEWTON_EULER:
        return chart, chart_rhs_fn(chart, newton_euler_accel_fn(scenario.inertia, scenario.forces))

    accel, m6_inv = kirchhoff_accel_fn(scenario.inertia, scenario.forces)
    pin = scenario.constraint
    if formulation is Formulation.GAUSS and pin is not None:
        a_rows = fixed_point_rows(pin)
        m_inv_at, s_inv = schur_factor(m6_inv, a_rows)
        a_rows, r_b, (a1, a2, a3) = as_rows(a_rows), pin.r_b.tolist(), pin_anchor(scenario).tolist()
        offset, free_accel = fixed_point_offset_fn(pin), accel

        def accel(t, r, x, nu6):
            p1, p2, p3 = mat3_vec(r, r_b)
            drift = mat3t_vec(r, (x[0] + p1 - a1, x[1] + p2 - a2, x[2] + p3 - a3))
            nu_dot, _ = constrained_accel6(free_accel(t, r, x, nu6), a_rows, offset(nu6, drift), m_inv_at, s_inv)
            return nu_dot

    return chart, chart_rhs_fn(chart, accel)


def pin_anchor(scenario) -> np.ndarray:
    """Space point where the scenario's constraint pins the body (at its initial pose)."""
    pose = scenario.initial_pose
    return pose.position + pose.rotation.m @ scenario.constraint.r_b


def run_steps(dt, t_end, sample_every, where: str = "") -> int:
    """Validate run parameters and return the number of steps of dt that reach t_end.

    The one validation path for a scenario's run block, command-line
    overrides and simulate().  A t_end that whole steps miss, and runs
    longer than MAX_STEPS, are rejected.  Errors name the field as
    ``where + name``.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ScenarioValidationError(f"{where}dt", f"must be a positive finite number, got {dt!r}")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ScenarioValidationError(
            f"{where}t_end", f"must be a nonnegative finite number, got {t_end!r}"
        )
    if isinstance(sample_every, bool) or not isinstance(sample_every, numbers.Integral) or sample_every < 1:
        raise ScenarioValidationError(
            f"{where}sample_every", f"must be a positive integer, got {sample_every!r}"
        )
    steps = t_end / dt
    if steps > MAX_STEPS:
        raise ScenarioValidationError(
            f"{where}t_end", f"t_end / dt = {steps:.6g} steps exceeds the limit of {MAX_STEPS}"
        )
    n = round(steps)
    if abs(n * dt - t_end) > 1e-9 * t_end:
        raise ScenarioValidationError(
            f"{where}t_end",
            f"{t_end!r} is not a whole number of steps of dt = {dt!r} (nearest {n * dt!r})",
        )
    return n


def simulate(
    scenario,
    formulation: Formulation,
    integrator: IntegratorId,
    dt: float,
    t_end: float,
    sample_every: int = 1,
) -> List[TrajectorySample]:
    """Run one scenario with fixed steps; samples include t = 0 and the final step.

    Run parameters go through run_steps and the route through check_route,
    before any stepping.  Gimbal-lock and non-finite failures abort with
    time-stamped exceptions; partial samples ride along on the exception
    object.  Floating-point overflow or invalid operations while stepping or
    sampling count as non-finite state.
    """
    n_steps = run_steps(dt, t_end, sample_every)
    check_route(formulation, integrator, scenario)

    chart, rhs = make_rhs(formulation, scenario)
    u0 = chart_from_body_twist(chart, scenario.initial_pose, scenario.initial_twist)
    state = ChartState(scenario.initial_pose, u0)

    m6 = as_rows(assemble_inertia(scenario.inertia))
    mass, com = scenario.inertia.mass, scenario.inertia.c.tolist()
    gravity = scenario.forces.gravity.tolist()

    def sample(t: float, s: ChartState) -> TrajectorySample:
        nu = body_twist(chart, s)
        r, x = s.pose.rotation.flat, s.pose.flat
        kinetic, potential, l_spatial = conserved6(m6, mass, com, gravity, r, x, nu.flat)
        return TrajectorySample(t, s.pose, s.u, nu, kinetic + potential, np.array(l_spatial))

    samples = []
    t_next = 0.0
    try:
        with np.errstate(over="raise", invalid="raise"):
            samples.append(sample(0.0, state))
            for k in range(n_steps):
                t_next = (k + 1) * dt
                state = step(integrator, chart, rhs, state, k * dt, dt)
                if (k + 1) % sample_every == 0 or k + 1 == n_steps:
                    samples.append(sample(t_next, state))
    except GimbalLockError as err:
        raise GimbalLockError(f"gimbal lock at t={t_next:.6g}: {err}", time=t_next) from None
    except (FloatingPointError, OverflowError, NonFiniteStateError) as err:
        raise NonFiniteStateError(
            f"state became non-finite at t={t_next:.6g}: {err}",
            time=t_next,
            last_sample_index=len(samples) - 1,
            samples=samples,
        ) from None
    return samples
