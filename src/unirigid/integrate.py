"""Fixed-step time integration respecting each chart's geometry.

One kernel, ``_rk_step``, advances every integrator on every chart over the
float ``(g, x, u)`` tuples of ``charts.stage_state``: a row-major rotation on
the twist charts, Z-X-Z angles on the Euler chart, through the chart's stage
maps in ``charts.CHART_STAGES``; its stages are written out, each calling the
stage function as ``rhs(t, g, x, u)``.  Stage configurations are reached from
the step's base by increments (``retract``); on the twist charts that is an exponential, so
orthogonality holds by construction, is checked once per rotation formed (the end one by the
Rotation box ``step`` builds) and is never repaired.  ``step`` is the validated boundary, ChartState in
and out: each float is tested finite once, a twist chart's end rotation by that box alone; no array is built.

``LIE_RK4`` is a four-stage Munthe-Kaas style stepper: stage increments live
in the rotation algebra (``rates``) and the pose is updated by a
single exponential of the assembled increment.  On the Euler chart it is
classical RK4 in the coordinates, and ``RK4`` is that method: it steps the
Euler chart only.  ``LIE_EULER`` is the one-stage member of the family.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .charts import (
    _ZERO3,
    CHART_MAPS,
    CHART_STAGES,
    ChartId,
    ChartState,
    Twist,
    chart_from_body_twist,
    stage_pose,
    stage_state,
)
from .dynamics import chart_rhs_fn, conserved6, kirchhoff_accel_fn, newton_euler_accel_fn
from .dynamics import spd_factor  # noqa: F401  (perfbench/tracer.py wraps it under this module)
from .errors import GimbalLockError, NonFiniteStateError, ScenarioValidationError
from .gauss import constrained_accel6  # noqa: F401  (perfbench/tracer.py wraps it under this module)
from .gauss import fixed_point_rhs_fn
# perfbench/tracer.py wraps exp_so3, euler_to_rotation and rotation_to_euler under this module.
from .geom3 import Pose, Rotation, euler_to_rotation, exp_so3, rotation_to_euler  # noqa: F401
from .geom3 import as_rows

# rhs(t, g, x, u) -> u_dot, a 6-tuple, on the float stage state (g, x, u) of charts.stage_state.
RhsFn = Callable[[float, tuple, tuple, tuple], tuple]

# Longest run simulate accepts: about 7 minutes at 41 us per step (perfbench compare-euler-top, reference
# seconds); one sampling every step stops at MAX_SAMPLES, about 1.3 minutes at 77 us per step (pinned-csv).
MAX_STEPS = 10_000_000
# Most rows a run records: about 1.8 GB with its CSV (432 B held per row, 1,390 B more while writing; tracemalloc).
MAX_SAMPLES = 1_000_000

# An Euler stage failing the gimbal rule after moving theta over this (rad) from its base jumped the singularity.
UNDER_RESOLVED_JUMP = 1e-2


class IntegratorId(Enum):
    RK4 = "rk4"
    LIE_EULER = "lie-euler"
    LIE_RK4 = "lie-rk4"


class Formulation(Enum):
    NEWTON_EULER = "newton-euler"
    KIRCHHOFF = "kirchhoff"
    LAGRANGE = "lagrange"
    GAUSS = "gauss"


# Chart and default integrator of each formulation: exponential-map stepping
# for twist charts, classical RK4 for the coordinate chart.
ROUTES = {
    Formulation.NEWTON_EULER: (ChartId.BODY_TWIST, IntegratorId.LIE_RK4),
    Formulation.KIRCHHOFF: (ChartId.BODY_TWIST, IntegratorId.LIE_RK4),
    Formulation.GAUSS: (ChartId.BODY_TWIST, IntegratorId.LIE_RK4),
    Formulation.LAGRANGE: (ChartId.EULER_COM, IntegratorId.RK4),
}


def check_route(formulation: Formulation, integrator: IntegratorId, scenario, where: str = "") -> None:
    """The route rules of scenario files, command-line choices and simulate().

    A constraint needs the gauss formulation, and rk4 the Euler chart
    (lagrange; lie-rk4 is its counterpart on the twist charts).  Errors name
    ``where + field``.
    """
    if scenario.constraint is not None and formulation is not Formulation.GAUSS:
        raise ScenarioValidationError(
            f"{where}formulation", f"scenarios with a constraint must run gauss, not {formulation.value}"
        )
    if integrator is IntegratorId.RK4 and ROUTES[formulation][0] is not ChartId.EULER_COM:
        raise ScenarioValidationError(
            f"{where}integrator", f"rk4 steps the lagrange (Euler) chart only; {formulation.value} runs lie-rk4"
        )


# The 29 columns of Trajectory.rows: t, R (row-major), x, u, nu, energy and L.
COL_T, COL_R, COL_X, COL_U, COL_NU, COL_ENERGY, COL_L = 0, slice(1, 10), slice(10, 13), slice(13, 19), \
    slice(19, 25), 25, slice(26, 29)


class TrajectorySample:
    """One recorded instant: a view of one row of ``Trajectory.rows``.

    ``energy`` is kinetic plus gravitational potential so that drift is
    meaningful for conservative scenarios; ``l_spatial`` is the angular
    momentum about the space origin.  ``u`` and ``l_spatial`` are read-only
    views of the row; ``pose`` and ``nu`` are built from it, through their
    validating constructors, on first read.
    """

    def __init__(self, row: np.ndarray):
        self._row = row

    t = property(lambda self: float(self._row[COL_T]))
    energy = property(lambda self: float(self._row[COL_ENERGY]))
    u = property(lambda self: self._row[COL_U])
    l_spatial = property(lambda self: self._row[COL_L])
    nu = cached_property(lambda self: Twist(*np.split(self._row[COL_NU], 2)))

    @cached_property
    def pose(self) -> Pose:
        r = self._row.tolist()
        return Pose(Rotation(tuple(r[COL_R])), tuple(r[COL_X]))


class Trajectory(tuple):
    """The samples of one run: a TrajectorySample per row of one read-only float array ``rows`` (columns COL_*)."""

    def __new__(cls, rows: np.ndarray):
        rows.setflags(write=False)
        self = super().__new__(cls, map(TrajectorySample, rows))
        self.rows = rows
        return self

    def __getnewargs__(self):  # copy and pickle rebuild the samples from the rows
        return (self.rows,)


def _rk_step(integrator: IntegratorId, chart: ChartId, rhs: RhsFn, g0, x0, u0, t: float, dt: float):
    """One step of every integrator on float stage states; returns the new (g, x, u).

    Every stage starts from the base, calls rhs(t, g, x, u) and takes (sigma_dot, x_dot) from the chart's rates;
    RK4 then advances the base by (dt / 6) (k1 + 2 k2 + 2 k3 + k4), every sum left to right.
    """
    (rates, retract), finite = CHART_STAGES[chart], math.isfinite
    (x1, x2, x3), (u1, u2, u3, u4, u5, u6) = x0, u0
    ka1, ka2, ka3, ka4, ka5, ka6 = rhs(t, g0, x0, u0)
    # Float arithmetic overflows silently to inf or nan, so each stage's acceleration is checked, float by float.
    if not (finite(ka1) and finite(ka2) and finite(ka3) and finite(ka4) and finite(ka5) and finite(ka6)):
        raise NonFiniteStateError(f"non-finite chart acceleration at t={t:.6g}")
    (sa1, sa2, sa3), (ya1, ya2, ya3) = rates(g0, x0, u0, _ZERO3)
    if integrator is IntegratorId.LIE_EULER:
        return (retract(g0, (dt * sa1, dt * sa2, dt * sa3), False), (x1 + dt * ya1, x2 + dt * ya2, x3 + dt * ya3),
                (u1 + dt * ka1, u2 + dt * ka2, u3 + dt * ka3, u4 + dt * ka4, u5 + dt * ka5, u6 + dt * ka6))
    h, th = 0.5 * dt, t + 0.5 * dt
    try:
        sigma = (h * sa1, h * sa2, h * sa3)
        g, x = retract(g0, sigma), (x1 + h * ya1, x2 + h * ya2, x3 + h * ya3)
        u = (u1 + h * ka1, u2 + h * ka2, u3 + h * ka3, u4 + h * ka4, u5 + h * ka5, u6 + h * ka6)
        kb1, kb2, kb3, kb4, kb5, kb6 = rhs(th, g, x, u)
        if not (finite(kb1) and finite(kb2) and finite(kb3) and finite(kb4) and finite(kb5) and finite(kb6)):
            raise NonFiniteStateError(f"non-finite chart acceleration at t={th:.6g}")
        (sb1, sb2, sb3), (yb1, yb2, yb3) = rates(g, x, u, sigma)
        sigma = (h * sb1, h * sb2, h * sb3)
        g, x = retract(g0, sigma), (x1 + h * yb1, x2 + h * yb2, x3 + h * yb3)
        u = (u1 + h * kb1, u2 + h * kb2, u3 + h * kb3, u4 + h * kb4, u5 + h * kb5, u6 + h * kb6)
        kc1, kc2, kc3, kc4, kc5, kc6 = rhs(th, g, x, u)
        if not (finite(kc1) and finite(kc2) and finite(kc3) and finite(kc4) and finite(kc5) and finite(kc6)):
            raise NonFiniteStateError(f"non-finite chart acceleration at t={th:.6g}")
        (sc1, sc2, sc3), (yc1, yc2, yc3) = rates(g, x, u, sigma)
        sigma = (dt * sc1, dt * sc2, dt * sc3)
        g, x = retract(g0, sigma), (x1 + dt * yc1, x2 + dt * yc2, x3 + dt * yc3)
        u = (u1 + dt * kc1, u2 + dt * kc2, u3 + dt * kc3, u4 + dt * kc4, u5 + dt * kc5, u6 + dt * kc6)
        kd1, kd2, kd3, kd4, kd5, kd6 = rhs(t + dt, g, x, u)
        if not (finite(kd1) and finite(kd2) and finite(kd3) and finite(kd4) and finite(kd5) and finite(kd6)):
            raise NonFiniteStateError(f"non-finite chart acceleration at t={t + dt:.6g}")
        (sd1, sd2, sd3), (yd1, yd2, yd3) = rates(g, x, u, sigma)
    except GimbalLockError as err:
        # The base passed the gimbal rule: a stage that moved theta this far from it jumped the singularity.
        if chart is not ChartId.EULER_COM or not abs(sigma[1]) > UNDER_RESOLVED_JUMP:
            raise
        raise GimbalLockError(f"step too large for the rates: dt = {dt:g} moved theta by {sigma[1]:.3g} rad "
                              f"within one stage, to {err}") from None
    h = dt / 6.0
    return (retract(g0, (h * (sa1 + 2.0 * sb1 + 2.0 * sc1 + sd1), h * (sa2 + 2.0 * sb2 + 2.0 * sc2 + sd2),
                         h * (sa3 + 2.0 * sb3 + 2.0 * sc3 + sd3)), False),
            (x1 + h * (ya1 + 2.0 * yb1 + 2.0 * yc1 + yd1), x2 + h * (ya2 + 2.0 * yb2 + 2.0 * yc2 + yd2),
             x3 + h * (ya3 + 2.0 * yb3 + 2.0 * yc3 + yd3)),
            (u1 + h * (ka1 + 2.0 * kb1 + 2.0 * kc1 + kd1), u2 + h * (ka2 + 2.0 * kb2 + 2.0 * kc2 + kd2),
             u3 + h * (ka3 + 2.0 * kb3 + 2.0 * kc3 + kd3), u4 + h * (ka4 + 2.0 * kb4 + 2.0 * kc4 + kd4),
             u5 + h * (ka5 + 2.0 * kb5 + 2.0 * kc5 + kd5), u6 + h * (ka6 + 2.0 * kb6 + 2.0 * kc6 + kd6)))


def step(
    integrator: IntegratorId,
    chart: ChartId,
    rhs: RhsFn,
    state: ChartState,
    t: float,
    dt: float,
) -> ChartState:
    """Advance one fixed step; pure function of its arguments.

    ``rhs(t, g, x, u)`` is the chart acceleration on the raw stage state of ``charts.stage_state``, as returned
    by make_rhs.  Each float formed is tested finite once: stage accelerations in _rk_step, the end x, u and Euler
    angles here, and a twist chart's end rotation by its Rotation box (check_rotation).
    """
    if not (math.isfinite(dt) and dt > 0.0 and math.isfinite(t)):
        raise ValueError(f"dt must be positive and finite and t finite, got dt={dt!r}, t={t!r}")
    if not isinstance(integrator, IntegratorId):
        raise ValueError(f"unknown integrator {integrator!r}")
    if integrator is IntegratorId.RK4 and chart is not ChartId.EULER_COM:
        raise ValueError(f"rk4 steps the Euler chart only, not {chart.value}; use lie-rk4")
    g, x, u = _rk_step(integrator, chart, rhs, *stage_state(chart, state), t, dt)
    (x1, x2, x3), (u1, u2, u3, u4, u5, u6), finite = x, u, math.isfinite
    # A twist chart's end rotation is finite by construction (exp_so3_matrix refuses a non-finite increment and is
    # bounded on a finite one): its Rotation box alone tests it.  Euler angles are tested here, before euler_matrix.
    if not (finite(x1) and finite(x2) and finite(x3) and finite(u1) and finite(u2) and finite(u3) and finite(u4)
            and finite(u5) and finite(u6)) or chart is ChartId.EULER_COM and not (
            finite(g[0]) and finite(g[1]) and finite(g[2])):
        raise NonFiniteStateError(f"non-finite state after the step from t={t:.6g}", time=t + dt)
    return stage_pose(chart, g, x, u)


def make_rhs(formulation: Formulation, scenario) -> "tuple[ChartId, RhsFn]":
    """Chart and raw-state right-hand side for one formulation of a scenario.

    newton-euler, lagrange and gauss take the body acceleration from newton_euler_accel_fn, the balance on M's
    block-diagonal Newton-Euler form, which lagrange reads through its chart; kirchhoff keeps the momentum form
    about the body origin (kirchhoff_accel_fn), the independent check.  Both read the body's one factor,
    scenario.inertia.m6_inv.  The gauss route feeds the pinned-point constraint (when present) through the
    least-constraint solve of gauss.fixed_point_rhs_fn, with its Schur complement precomputed, tracking the pin
    anchor for drift stabilization; the other routes are unconstrained.
    """
    chart, _ = ROUTES[formulation]
    accel_fn = kirchhoff_accel_fn if formulation is Formulation.KIRCHHOFF else newton_euler_accel_fn
    accel = accel_fn(scenario.inertia, scenario.forces)
    if formulation is Formulation.GAUSS and scenario.constraint is not None:
        return chart, fixed_point_rhs_fn(accel, scenario.inertia.m6_inv, scenario.constraint, pin_anchor(scenario))
    return chart, chart_rhs_fn(chart, accel)


def pin_anchor(scenario) -> np.ndarray:
    """Space point where the scenario's constraint pins the body (at its initial pose)."""
    pose = scenario.initial_pose
    return pose.position + pose.rotation.m @ scenario.constraint.r_b


def run_steps(dt, t_end, sample_every, where: str = "") -> int:
    """Validate run parameters and return the number of steps of dt that reach t_end.

    The one validation path for a scenario's run block, command-line
    overrides and simulate().  A t_end that whole steps miss, runs longer
    than MAX_STEPS and runs recording more than MAX_SAMPLES rows are
    rejected.  Errors name the field as ``where + name``.
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
    rows = 1 + n // sample_every + (n % sample_every > 0)  # as simulate records them
    if rows > MAX_SAMPLES:
        raise ScenarioValidationError(f"{where}sample_every", f"{n} steps sampled every {sample_every} record "
                                      f"{rows} rows, past the limit of {MAX_SAMPLES}")
    return n


def simulate(
    scenario,
    formulation: Formulation,
    integrator: IntegratorId,
    dt: float,
    t_end: float,
    sample_every: int = 1,
) -> Trajectory:
    """Run one scenario with fixed steps; samples include t = 0 and the final step.

    Run parameters go through run_steps and the route through check_route, before any stepping.  Gimbal-lock and
    non-finite failures abort with time-stamped exceptions, a non-finite one carrying a copy of the rows recorded
    before it.  Each stage, step end and sample tests the floats it forms for finiteness: the one failure check.
    """
    n_steps = run_steps(dt, t_end, sample_every)
    check_route(formulation, integrator, scenario)

    chart, rhs = make_rhs(formulation, scenario)
    m6 = as_rows(scenario.inertia.m6)
    mass, com = scenario.inertia.mass, scenario.inertia.c.tolist()
    gravity, to_body, finite = scenario.forces.gravity.tolist(), CHART_MAPS[chart][0], math.isfinite
    # t = 0, every sample_every-th step, and the final step when the stride misses it.
    rows = np.empty((1 + n_steps // sample_every + (n_steps % sample_every > 0), 29))

    def sample(t: float, s: ChartState) -> tuple:
        # nu = Phi u, as charts.body_twist maps it, without the Twist box; nu, the energy and L can overflow.
        (g, x, u), r = stage_state(chart, s), s.pose.rotation.flat
        (w1, w2, w3), (v1, v2, v3) = to_body(g, r, x, u)
        if not (finite(w1) and finite(w2) and finite(w3) and finite(v1) and finite(v2) and finite(v3)):
            raise NonFiniteStateError("body twist is not finite")
        nu = (w1, w2, w3, v1, v2, v3)
        kinetic, potential, (l1, l2, l3) = conserved6(m6, mass, com, gravity, r, x, nu)
        energy = kinetic + potential
        if not (finite(energy) and finite(l1) and finite(l2) and finite(l3)):
            raise NonFiniteStateError("energy or angular momentum is not finite")
        return (t, *r, *x, *u, *nu, energy, l1, l2, l3)

    n_rows, t_next = 0, 0.0
    try:
        # The start's chart conversion can fail as a step does (an Euler start at gimbal lock): at t = 0.
        state = ChartState(scenario.initial_pose,
                           chart_from_body_twist(chart, scenario.initial_pose, scenario.initial_twist))
        rows[0], n_rows = sample(0.0, state), 1
        for k in range(n_steps):
            t_next = (k + 1) * dt
            state = step(integrator, chart, rhs, state, k * dt, dt)
            if (k + 1) % sample_every == 0 or k + 1 == n_steps:
                rows[n_rows] = sample(t_next, state)
                n_rows += 1
    except GimbalLockError as err:
        raise GimbalLockError(f"gimbal lock at t={t_next:.6g}: {err}", time=t_next) from None
    except NonFiniteStateError as err:
        raise NonFiniteStateError(
            f"state became non-finite at t={t_next:.6g}: {err}",
            time=t_next,
            samples=Trajectory(rows[:n_rows].copy()),
        ) from None
    return Trajectory(rows)
