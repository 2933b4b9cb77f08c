"""Scenario files: declarative simulation descriptions in JSON.

Schema (defaults in brackets):

    {
      "name": "euler-top",
      "inertia": {
        "mass": 1.0,
        "inertia": [1, 2, 3] | [[...], [...], [...]],   # principal triple or full 3x3
        "com": [0, 0, 0]                                 # CoM offset in body frame
      },
      "initial": {
        "orientation": {"quaternion": [w, x, y, z]} | {"euler_zxz": [phi, theta, psi]},
        "position": [0, 0, 0],
        "omega": [0, 0, 0],       # body twist, angular part
        "vel": [0, 0, 0]          # body twist, linear part
      },
      "forces": {
        "gravity": [0, 0, -9.81],
        "torque": [0, 0, 0],      # constant body wrench
        "force": [0, 0, 0],
        "builtin": {"name": "linear-damping", "coeff": 0.1}   # optional named force
      },
      "constraint": {"point": [0, 0, -0.3], "alpha": 0, "beta": 0},   # optional pin
      "run": {"formulation": "kirchhoff", "integrator": "lie-rk4",
              "dt": 1e-3, "t_end": 1.0, "sample_every": 1}
    }

Quaternions are normalized exactly on ingestion; deviations above 1e-6 warn.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .charts import Frame, Twist
from .dynamics import ForceModel, SpatialInertia, Wrench
from .errors import (
    NotPositiveDefiniteError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .gauss import FixedPointConstraint
from .geom3 import EulerAngles, Pose, euler_to_rotation, quaternion_to_rotation
from .integrate import DEFAULT_INTEGRATOR, Formulation, IntegratorId, check_route, run_steps


@dataclass(frozen=True)
class RunConfig:
    formulation: Formulation
    integrator: IntegratorId
    dt: float
    t_end: float
    sample_every: int


@dataclass(frozen=True)
class Scenario:
    name: str
    inertia: SpatialInertia
    initial_pose: Pose
    initial_twist: Twist
    forces: ForceModel
    constraint: Optional[FixedPointConstraint]
    run: RunConfig


def _linear_damping(coeff: float):
    def wrench(t, pose, nu):
        return Wrench(-coeff * nu.omega, -coeff * nu.vel, Frame.BODY)

    return wrench


BUILTIN_FORCES = {"linear-damping": _linear_damping}


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioParseError(f"missing field '{where}.{key}'" if where else f"missing field '{key}'")
    return mapping[key]


def _vec3(value, field: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ScenarioValidationError(field, f"expected 3 numbers, got {value!r}")
    if not np.all(np.isfinite(arr)):
        raise ScenarioValidationError(field, f"entries must be finite, got {value!r}")
    return arr


def _number(value, field: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioValidationError(field, f"expected a number, got {value!r}")
    v = float(value)
    if not np.isfinite(v):
        raise ScenarioValidationError(field, "must be finite")
    return v


def _parse_inertia(block: dict) -> SpatialInertia:
    """Parse the inertia block; SpatialInertia checks the physics and names the field."""
    mass = _number(_require(block, "mass", "inertia"), "mass")
    j = np.asarray(_require(block, "inertia", "inertia"), dtype=float)
    if j.shape == (3,):
        j = np.diag(j)
    elif j.shape != (3, 3):
        raise ScenarioValidationError("inertia", "expected 3 principal moments or a 3x3 matrix")
    com = _vec3(block.get("com", [0.0, 0.0, 0.0]), "inertia.com")
    try:
        return SpatialInertia(mass=mass, j=j, c=com)
    except NotPositiveDefiniteError as err:
        raise ScenarioValidationError(err.field, str(err)) from None
    except ValueError as err:
        raise ScenarioValidationError("inertia", str(err)) from None


def _parse_initial(block: dict) -> "tuple[Pose, Twist]":
    orientation = block.get("orientation", {"quaternion": [1.0, 0.0, 0.0, 0.0]})
    if not isinstance(orientation, dict) or list(orientation) not in (["quaternion"], ["euler_zxz"]):
        raise ScenarioValidationError(
            "initial.orientation", "expected exactly one of 'quaternion' or 'euler_zxz'"
        )
    if "quaternion" in orientation:
        q = np.asarray(orientation["quaternion"], dtype=float)
        if q.shape != (4,):
            raise ScenarioValidationError("initial.orientation.quaternion", "expected 4 numbers")
        norm = float(np.linalg.norm(q))
        if not np.isfinite(norm) or norm < 1e-12:
            raise ScenarioValidationError("initial.orientation.quaternion", "norm is zero or non-finite")
        if abs(norm - 1.0) > 1e-6:
            warnings.warn(
                f"orientation quaternion deviates from unit norm by {abs(norm - 1.0):.3e}; renormalizing",
                stacklevel=2,
            )
        rotation = quaternion_to_rotation(q)
    else:
        angles = np.asarray(orientation["euler_zxz"], dtype=float)
        if angles.shape != (3,):
            raise ScenarioValidationError("initial.orientation.euler_zxz", "expected 3 angles")
        rotation = euler_to_rotation(EulerAngles(*angles))
    position = _vec3(block.get("position", [0.0, 0.0, 0.0]), "initial.position")
    omega = _vec3(block.get("omega", [0.0, 0.0, 0.0]), "initial.omega")
    vel = _vec3(block.get("vel", [0.0, 0.0, 0.0]), "initial.vel")
    return Pose(rotation, position), Twist(omega, vel, Frame.BODY)


def _parse_forces(block: dict) -> ForceModel:
    gravity = _vec3(block.get("gravity", [0.0, 0.0, -9.81]), "forces.gravity")
    torque = _vec3(block.get("torque", [0.0, 0.0, 0.0]), "forces.torque")
    force = _vec3(block.get("force", [0.0, 0.0, 0.0]), "forces.force")
    callback = None
    builtin = block.get("builtin")
    if builtin is not None:
        if not isinstance(builtin, dict) or "name" not in builtin:
            raise ScenarioValidationError("forces.builtin", "expected an object with a 'name'")
        name = builtin["name"]
        if name not in BUILTIN_FORCES:
            raise ScenarioValidationError(
                "forces.builtin", f"unknown force {name!r}; available: {sorted(BUILTIN_FORCES)}"
            )
        coeff = _number(builtin.get("coeff", 0.0), "forces.builtin.coeff")
        callback = BUILTIN_FORCES[name](coeff)
    return ForceModel(
        gravity=gravity,
        constant_wrench=Wrench(torque, force, Frame.BODY),
        callback=callback,
    )


def _parse_constraint(block) -> Optional[FixedPointConstraint]:
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ScenarioValidationError("constraint", "expected an object")
    point = _vec3(_require(block, "point", "constraint"), "constraint.point")
    alpha = _number(block.get("alpha", 0.0), "constraint.alpha")
    beta = _number(block.get("beta", 0.0), "constraint.beta")
    return FixedPointConstraint(point, baumgarte_alpha=alpha, baumgarte_beta=beta)


def _choice(enum, value, name: str):
    try:
        return enum(value)
    except ValueError:
        raise ScenarioValidationError(
            f"run.{name}", f"unknown {name} {value!r}; choices: {[m.value for m in enum]}"
        ) from None


def _parse_run(block: dict) -> RunConfig:
    formulation = _choice(Formulation, block.get("formulation", "kirchhoff"), "formulation")
    default = DEFAULT_INTEGRATOR[formulation].value
    integrator = _choice(IntegratorId, block.get("integrator", default), "integrator")
    dt = _number(block.get("dt", 1e-3), "run.dt")
    t_end = _number(block.get("t_end", 1.0), "run.t_end")
    sample_every = block.get("sample_every", 1)
    run_steps(dt, t_end, sample_every, where="run.")
    return RunConfig(formulation, integrator, dt, t_end, sample_every)


def parse_scenario(data: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a decoded JSON object into a Scenario."""
    if not isinstance(data, dict):
        raise ScenarioParseError(f"top level must be an object, got {type(data).__name__}")
    inertia = _parse_inertia(_require(data, "inertia", ""))
    pose, twist = _parse_initial(data.get("initial", {}))
    forces = _parse_forces(data.get("forces", {}))
    constraint = _parse_constraint(data.get("constraint"))
    run = _parse_run(data.get("run", {}))
    check_route(run.formulation, run.integrator, constraint is not None, where="run.")
    return Scenario(
        name=str(data.get("name", name_hint)),
        inertia=inertia,
        initial_pose=pose,
        initial_twist=twist,
        forces=forces,
        constraint=constraint,
        run=run,
    )


def builtin_scenario_dir() -> Path:
    """Directory holding the scenario files shipped with the package."""
    return Path(resources.files("unirigid") / "scenarios")


def resolve_scenario_path(spec: str) -> Path:
    """Interpret ``spec`` as a path, falling back to a shipped scenario name."""
    path = Path(spec)
    if path.exists():
        return path
    candidate = builtin_scenario_dir() / f"{spec}.json"
    if candidate.exists():
        return candidate
    raise ScenarioParseError(
        f"scenario file {spec!r} not found (and no built-in scenario has that name)"
    )


def load_scenario(path) -> Scenario:
    """Load and fully validate a scenario file."""
    path = resolve_scenario_path(str(path))
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioParseError(f"cannot read {path}: {err}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioParseError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from None
    return parse_scenario(data, name_hint=path.stem)
