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
      "forces": {"gravity": [0, 0, -9.81], "torque": [0, 0, 0], "force": [0, 0, 0]},   # torque, force: body wrench
      "constraint": {"point": [0, 0, -0.3]},   # optional pin, held exactly: start at vel = -omega x point
      "run": {"formulation": "kirchhoff", "integrator": "lie-rk4",
              "dt": 1e-3, "t_end": 1.0, "sample_every": 1}
    }

Every block, and the top level, refuses a field it does not read (FIELDS).
Quaternions are normalized exactly on ingestion; deviations above 1e-6 warn.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from decimal import Decimal
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .charts import Twist
from .dynamics import STANDARD_GRAVITY, ForceModel, SpatialInertia, Wrench
from .errors import ScenarioParseError, ScenarioValidationError
from .gauss import FixedPointConstraint
from .geom3 import Pose, _float_tuple, euler_to_rotation, normalize_quaternion, quaternion_to_rotation
from .integrate import ROUTES, Formulation, IntegratorId, check_route, run_steps


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


# The fields each block reads, and those of the top level (""); any other field is an input error.
FIELDS = {"": ("name", "inertia", "initial", "forces", "constraint", "run"), "inertia": ("mass", "inertia", "com"),
          "initial": ("orientation", "position", "omega", "vel"), "forces": ("gravity", "torque", "force"),
          "constraint": ("point",), "run": ("formulation", "integrator", "dt", "t_end", "sample_every")}


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioParseError(f"missing field '{where}.{key}'" if where else f"missing field '{key}'")
    return mapping[key]


def _known(block: dict, where: str) -> dict:
    """The block at ``where`` ("" for the top level), once each of its fields is one that FIELDS lists."""
    for key in block:
        if key not in FIELDS[where]:
            raise ScenarioValidationError(f"{where}.{key}" if where else key,
                                          f"unknown field; {where or 'the top level'} reads {list(FIELDS[where])}")
    return block


def _block(data: dict, key: str, required: bool = False) -> dict:
    """The JSON object under ``key`` ({} when absent), its fields checked; a missing required block is a parse error."""
    block = _require(data, key, "") if required else data.get(key, {})
    if not isinstance(block, dict):
        raise ScenarioValidationError(key, f"expected an object, got {block!r}")
    return _known(block, key)


def _floats(value, field: str, n: int, shape: tuple = None) -> tuple:
    """The n floats of a JSON number list of ``shape`` (default (n,)): every entry passes _number, so a string
    or a boolean is refused before numpy could convert it; geom3._float_tuple checks the shape."""
    for entry in np.array(value, dtype=object).ravel().tolist():
        _number(entry, field)
    try:
        return _float_tuple(value, n, "value", shape)
    except (TypeError, ValueError, OverflowError) as err:
        raise ScenarioValidationError(field, str(err)) from None


def _number(value, field: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioValidationError(field, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ScenarioValidationError(field, "must be finite, got an integer past float range") from None
    if not math.isfinite(v):
        raise ScenarioValidationError(field, "must be finite")
    return v


def _parse_inertia(block: dict) -> SpatialInertia:
    """Parse the inertia block; SpatialInertia checks the physics and names the field."""
    mass = _number(_require(block, "mass", "inertia"), "mass")
    j = _require(block, "inertia", "inertia")
    principal = isinstance(j, list) and j and not isinstance(j[0], list)
    j = np.diag(_floats(j, "inertia", 3)) if principal else _floats(j, "inertia", 9, (3, 3))
    com = _floats(block.get("com", [0.0, 0.0, 0.0]), "inertia.com", 3)
    try:
        return SpatialInertia(mass=mass, j=j, c=com)
    except ValueError as err:
        raise ScenarioValidationError("inertia", str(err)) from None


def _parse_initial(block: dict) -> "tuple[Pose, Twist]":
    orientation = block.get("orientation", {"quaternion": [1.0, 0.0, 0.0, 0.0]})
    if not isinstance(orientation, dict) or list(orientation) not in (["quaternion"], ["euler_zxz"]):
        raise ScenarioValidationError(
            "initial.orientation", "expected exactly one of 'quaternion' or 'euler_zxz'"
        )
    if "quaternion" in orientation:
        field = "initial.orientation.quaternion"
        q = _floats(orientation["quaternion"], field, 4)
        try:
            rotation, (_, n, k) = quaternion_to_rotation(q), normalize_quaternion(q)
        except ValueError as err:
            raise ScenarioValidationError(field, str(err)) from None
        deviation = abs(Decimal(n) * Decimal(2) ** k - 1)  # a Decimal stays finite past float range
        if deviation > 1e-6:
            sig, exp10 = f"{deviation:.3e}".split("e")  # a float's format: two exponent digits at least
            warnings.warn(f"{field}: deviates from unit norm by {sig}e{int(exp10):+03d}; renormalizing", stacklevel=2)
    else:
        angles = _floats(orientation["euler_zxz"], "initial.orientation.euler_zxz", 3)
        rotation = euler_to_rotation(angles)
    position = _floats(block.get("position", [0.0, 0.0, 0.0]), "initial.position", 3)
    omega = _floats(block.get("omega", [0.0, 0.0, 0.0]), "initial.omega", 3)
    vel = _floats(block.get("vel", [0.0, 0.0, 0.0]), "initial.vel", 3)
    return Pose(rotation, position), Twist(omega, vel)


def _parse_forces(block: dict) -> ForceModel:
    gravity = _floats(block.get("gravity", STANDARD_GRAVITY), "forces.gravity", 3)
    torque = _floats(block.get("torque", [0.0, 0.0, 0.0]), "forces.torque", 3)
    force = _floats(block.get("force", [0.0, 0.0, 0.0]), "forces.force", 3)
    return ForceModel(gravity=gravity, constant_wrench=Wrench(torque, force))


def _parse_constraint(block: dict) -> FixedPointConstraint:
    return FixedPointConstraint(_floats(_require(block, "point", "constraint"), "constraint.point", 3))


def _choice(enum, value, name: str):
    try:
        return enum(value)
    except ValueError:
        raise ScenarioValidationError(
            f"run.{name}", f"unknown {name} {value!r}; choices: {[m.value for m in enum]}"
        ) from None


def _parse_run(block: dict) -> RunConfig:
    formulation = _choice(Formulation, block.get("formulation", "kirchhoff"), "formulation")
    integrator = _choice(IntegratorId, block.get("integrator", ROUTES[formulation][1].value), "integrator")
    dt = _number(block.get("dt", 1e-3), "run.dt")
    t_end = _number(block.get("t_end", 1.0), "run.t_end")
    sample_every = block.get("sample_every", 1)
    run_steps(dt, t_end, sample_every, where="run.")
    return RunConfig(formulation, integrator, dt, t_end, sample_every)


def _parse_name(name) -> str:
    """The scenario name, the stem of simulate's default CSV file: a non-empty string that is no path."""
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ScenarioValidationError("name", "expected a non-empty string usable as a file name (no '/', '\\' "
                                              f"or NUL; not '.' or '..'), got {name!r}")
    return name


def parse_scenario(data: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a decoded JSON object into a Scenario."""
    if not isinstance(data, dict):
        raise ScenarioParseError(f"top level must be an object, got {type(data).__name__}")
    _known(data, "")
    inertia = _parse_inertia(_block(data, "inertia", required=True))
    pose, twist = _parse_initial(_block(data, "initial"))
    scenario = Scenario(
        name=_parse_name(data.get("name", name_hint)),
        inertia=inertia,
        initial_pose=pose,
        initial_twist=twist,
        forces=_parse_forces(_block(data, "forces")),
        constraint=None if data.get("constraint") is None else _parse_constraint(_block(data, "constraint")),
        run=_parse_run(_block(data, "run")),
    )
    check_route(scenario.run.formulation, scenario.run.integrator, scenario, where="run.")
    return scenario


def builtin_scenario_dir() -> Path:
    """Directory holding the scenario files shipped with the package."""
    return Path(resources.files("unirigid") / "scenarios")


def resolve_scenario_path(spec: str) -> Path:
    """Interpret ``spec`` as a path, falling back to a shipped scenario name."""
    for path in (Path(spec), builtin_scenario_dir() / f"{spec}.json"):
        try:
            if path.exists():
                return path
        except OSError:  # a path the system cannot look up, such as an over-long name, is not found
            pass
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
    except ValueError as err:  # an integer literal longer than int() reads
        raise ScenarioParseError(f"{path}: {err}") from None
    return parse_scenario(data, name_hint=path.stem)
