"""Fixed-step time integration respecting each chart's geometry.

One kernel, ``_rk_step``, advances every integrator on every chart over the
raw ``(g, x, u)`` stage states of ``charts.stage_state``: a rotation matrix on
the twist charts, Z-X-Z angles on the Euler chart.  Stage configurations are
reached from the step's base by increments (``charts.chart_retract``); on the
twist charts that is an exponential, so orthogonality holds by construction,
is checked on every rotation formed and is never repaired.  ``step`` is the
validated boundary: one ChartState in, one out.

``LIE_RK4`` is a four-stage Munthe-Kaas style stepper: stage increments live
in the rotation algebra (``charts.chart_rates``) and the pose is updated by a
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
    CHART_MAPS,
    ChartId,
    ChartState,
    Frame,
    Twist,
    chart_from_body_twist,
    chart_rates,
    chart_retract,
    stage_pose,
    stage_state,
)
from .dynamics import (
    assemble_inertia,
    body_wrench_fn,
    chart_rhs_fn,
    conserved6,
    kirchhoff_accel_fn,
    newton_euler_rhs6,
    require_com_frame,
    spd_factor,
)
from .errors import GimbalLockError, NonFiniteStateError, ScenarioValidationError
from .gauss import (
    AccelConstraint,
    constrained_accel6,
    fixed_point_offset6,
    fixed_point_rows,
    schur_factor,
)
# perfbench/tracer.py wraps exp_so3, euler_to_rotation and rotation_to_euler under this module.
from .geom3 import Pose, euler_to_rotation, exp_so3, rotation_to_euler  # noqa: F401

# rhs(t, (g, x, u)) -> u_dot on the raw stage state of charts.stage_state.
RhsFn = Callable[[float, tuple], np.ndarray]

# Longest run simulate accepts; about a quarter of an hour at 100 us per step.
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


def check_route(formulation: Formulation, integrator: IntegratorId, constrained: bool, where: str = "") -> None:
    """The route rules of scenario files, command-line choices and simulate().

    A constraint needs the gauss formulation, and rk4 the Euler chart (lagrange);
    lie-rk4 is its counterpart on the twist charts.  Errors name ``where + field``.
    """
    if constrained and formulation is not Formulation.GAUSS:
        raise ScenarioValidationError(
            f"{where}formulation", f"scenarios with a constraint must run gauss, not {formulation.value}"
        )
    if integrator is IntegratorId.RK4 and FORMULATION_CHART[formulation] is not ChartId.EULER_COM:
        raise ScenarioValidationError(
            f"{where}integrator", f"rk4 steps the lagrange (Euler) chart only; {formulation.value} runs lie-rk4"
        )


@dataclass(frozen=True)
class TrajectorySample:
    """One recorded instant: state plus conserved-quantity bookkeeping.

    ``energy`` is kinetic plus gravitational potential so that drift is
    meaningful for conservative scenarios; ``l_spatial`` is the angular
    momentum about the space origin.
    """

    t: float
    pose: Pose
    u: np.ndarray
    nu: Twist
    energy: float
    l_spatial: np.ndarray


_RK4_NODES = (0.0, 0.5, 0.5, 1.0)


def _rk_step(integrator: IntegratorId, chart: ChartId, rhs: RhsFn, g0, x0, u0, t: float, dt: float):
    """One step of every integrator on raw arrays; returns the new (g, x, u)."""
    nodes = (0.0,) if integrator is IntegratorId.LIE_EULER else _RK4_NODES
    slopes = []
    g, x, u, sigma = g0, x0, u0, _ZERO3
    for c in nodes:
        h = c * dt
        if slopes:
            sigma_dot, x_dot, u_dot = slopes[-1]
            u = u0 + h * u_dot
            sigma = h * sigma_dot
            g, x = chart_retract(chart, g0, x0, sigma, h * x_dot)
        u_dot = rhs(t + h, (g, x, u))
        slopes.append((*chart_rates(chart, g, x, u, sigma), u_dot))

    if integrator is IntegratorId.LIE_EULER:
        d_sigma, d_x, d_u = (dt * k for k in slopes[0])
    else:
        d_sigma, d_x, d_u = ((dt / 6.0) * (a + 2.0 * b + 2.0 * c + d) for a, b, c, d in zip(*slopes))
    g1, x1 = chart_retract(chart, g0, x0, d_sigma, d_x)
    return g1, x1, u0 + d_u


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
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not isinstance(integrator, IntegratorId):
        raise ValueError(f"unknown integrator {integrator!r}")
    if integrator is IntegratorId.RK4 and chart is not ChartId.EULER_COM:
        raise ValueError(f"rk4 steps the Euler chart only, not {chart.value}; use lie-rk4")
    g, x, u = _rk_step(integrator, chart, rhs, *stage_state(chart, state), t, dt)
    if not (np.isfinite(g).all() and np.isfinite(x).all() and np.isfinite(u).all()):
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
    si = scenario.inertia
    wrench = body_wrench_fn(scenario.forces, si)
    chart = FORMULATION_CHART[formulation]

    if formulation is Formulation.NEWTON_EULER:
        require_com_frame(si)
        j, mass = si.j, si.mass
        j_inv = spd_factor(j, "inertia tensor")

        def accel(t, r, x, nu6):
            return newton_euler_rhs6(nu6, wrench(t, r, x, nu6), j, j_inv, mass)

        return chart, chart_rhs_fn(chart, accel)

    accel, m6_inv = kirchhoff_accel_fn(si, wrench)
    pin = scenario.constraint
    if formulation is Formulation.GAUSS and pin is not None:
        a_rows = fixed_point_rows(pin)
        AccelConstraint(a_rows, np.zeros(3))  # one-time rank validation
        m_inv_at, s_inv = schur_factor(m6_inv, a_rows)
        anchor = pin_anchor(scenario)
        free_accel = accel

        def accel(t, r, x, nu6):
            drift = r.T @ (x + r @ pin.r_b - anchor)
            b = fixed_point_offset6(pin, nu6, drift)
            nu_dot, _ = constrained_accel6(free_accel(t, r, x, nu6), a_rows, b, m_inv_at, s_inv)
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
    check_route(formulation, integrator, scenario.constraint is not None)

    chart, rhs = make_rhs(formulation, scenario)
    u0 = chart_from_body_twist(chart, scenario.initial_pose, scenario.initial_twist)
    state = ChartState(scenario.initial_pose, u0)

    m6 = assemble_inertia(scenario.inertia)
    mass, com = scenario.inertia.mass, scenario.inertia.c
    gravity = scenario.forces.gravity
    to_body = CHART_MAPS[chart][0]

    def sample(t: float, s: ChartState) -> TrajectorySample:
        g, x, u = stage_state(chart, s)
        r = s.pose.rotation.m
        omega, v = to_body(g, r, x, u)
        kinetic, potential, l_spatial = conserved6(m6, mass, com, gravity, r, x, np.concatenate((omega, v)))
        nu = Twist(omega, v, Frame.BODY)
        return TrajectorySample(t, s.pose, s.u.copy(), nu, kinetic + potential, l_spatial)

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
    except (FloatingPointError, NonFiniteStateError) as err:
        raise NonFiniteStateError(
            f"state became non-finite at t={t_next:.6g}: {err}",
            time=t_next,
            last_sample_index=len(samples) - 1,
            samples=samples,
        ) from None
    return samples
