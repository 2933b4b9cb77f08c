"""Scenario file loading and validation."""

import json
import math

import numpy as np
import pytest

from unirigid.errors import ScenarioParseError, ScenarioValidationError
from unirigid.integrate import Formulation, IntegratorId
from unirigid.scenario import builtin_scenario_dir, load_scenario, parse_scenario

MINIMAL = {"inertia": {"mass": 1.0, "inertia": [1.0, 1.0, 1.0]}}


def write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestDefaults:
    def test_minimal_file_fills_defaults(self, tmp_path):
        sc = load_scenario(write(tmp_path, MINIMAL))
        assert np.allclose(sc.forces.gravity, [0.0, 0.0, -9.81])
        assert sc.run.sample_every == 1
        assert sc.run.formulation is Formulation.KIRCHHOFF
        assert sc.run.integrator is IntegratorId.LIE_RK4
        assert sc.constraint is None
        assert np.array_equal(sc.initial_twist.as_array(), np.zeros(6))
        assert np.allclose(sc.initial_pose.rotation.m, np.eye(3))

    def test_name_defaults_to_stem(self, tmp_path):
        sc = load_scenario(write(tmp_path, MINIMAL, name="my-body.json"))
        assert sc.name == "my-body"

    def test_lagrange_default_integrator_is_rk4(self):
        sc = parse_scenario({**MINIMAL, "run": {"formulation": "lagrange"}})
        assert sc.run.integrator is IntegratorId.RK4


class TestValidation:
    def test_negative_mass(self):
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario({"inertia": {"mass": -1.0, "inertia": [1, 1, 1]}})
        assert exc.value.field == "mass"

    def test_triangle_inequality(self):
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario({"inertia": {"mass": 1.0, "inertia": [1.0, 1.0, 3.0]}})
        assert exc.value.field == "inertia triangle inequality"

    def test_planar_body_boundary_allowed(self):
        parse_scenario({"inertia": {"mass": 1.0, "inertia": [1.0, 1.0, 2.0]}})

    def test_missing_inertia_is_parse_error(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario({})

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"inertia": }')
        with pytest.raises(ScenarioParseError) as exc:
            load_scenario(path)
        assert "broken.json:1:" in str(exc.value)

    def test_unknown_formulation(self):
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario({**MINIMAL, "run": {"formulation": "hamilton"}})
        assert exc.value.field == "run.formulation"

    def test_unknown_builtin_force(self):
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario({**MINIMAL, "forces": {"builtin": {"name": "warp-drive"}}})
        assert exc.value.field == "forces.builtin"

    def test_constraint_requires_gauss(self):
        data = {
            **MINIMAL,
            "constraint": {"point": [0, 0, -0.3]},
            "run": {"formulation": "kirchhoff"},
        }
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario(data)
        assert exc.value.field == "run.formulation"

    def test_rk4_requires_the_euler_chart(self):
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario({**MINIMAL, "run": {"formulation": "kirchhoff", "integrator": "rk4"}})
        assert exc.value.field == "run.integrator"

    def test_nonpositive_dt(self):
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario({**MINIMAL, "run": {"dt": 0.0}})
        assert exc.value.field == "run.dt"

    def test_t_end_off_step_grid(self):
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario({**MINIMAL, "run": {"dt": 0.3, "t_end": 1.0}})
        assert exc.value.field == "run.t_end"

    def test_quaternion_warning_and_renormalization(self):
        data = {
            **MINIMAL,
            "initial": {"orientation": {"quaternion": [1.001, 0.0, 0.0, 0.0]}},
        }
        with pytest.warns(UserWarning, match="renormalizing"):
            sc = parse_scenario(data)
        m = sc.initial_pose.rotation.m
        assert np.linalg.norm(m.T @ m - np.eye(3)) <= 1e-12

    def test_zero_quaternion_rejected(self):
        data = {**MINIMAL, "initial": {"orientation": {"quaternion": [0, 0, 0, 0]}}}
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario(data)
        assert "quaternion" in exc.value.field

    def test_euler_orientation(self):
        data = {**MINIMAL, "initial": {"orientation": {"euler_zxz": [0.1, 0.7, -0.2]}}}
        sc = parse_scenario(data)
        assert math.isclose(math.acos(sc.initial_pose.rotation.m[2, 2]), 0.7, rel_tol=1e-12)


class TestBuiltins:
    def test_all_builtin_scenarios_load(self):
        names = sorted(p.stem for p in builtin_scenario_dir().glob("*.json"))
        assert names == [
            "axisymmetric-free",
            "dzhanibekov",
            "euler-top",
            "free-sphere",
            "heavy-top-generic",
            "heavy-top-steady",
        ]
        for name in names:
            sc = load_scenario(name)
            assert sc.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ScenarioParseError):
            load_scenario("no-such-scenario")
