"""Scenario file loading and validation."""

import contextlib
import copy
import functools
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirigid.cli import main
from unirigid.errors import ScenarioParseError, ScenarioValidationError
from unirigid.integrate import Formulation, IntegratorId
from unirigid.scenario import FIELDS, builtin_scenario_dir, load_scenario, parse_scenario

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

    @pytest.mark.parametrize("name", [[], {}])
    def test_unhashable_builtin_force_name(self, name):
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario({**MINIMAL, "forces": {"builtin": {"name": name}}})
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


class TestBlocks:
    # A null constraint means no pin, so null is tried on the other blocks only.
    @pytest.mark.parametrize(
        "block, value",
        [(block, value) for block in ("inertia", "initial", "forces", "constraint", "run")
         for value in ([], 1, "abc") + ((None,) if block != "constraint" else ())],
    )
    def test_block_that_is_not_an_object_names_it(self, block, value):
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario({**MINIMAL, block: value})
        assert exc.value.field == block

    def test_null_constraint_is_no_pin(self):
        assert parse_scenario({**MINIMAL, "constraint": None}).constraint is None


# Every field FIELDS lists, each with a valid value.
FULL = {
    "name": "full",
    "inertia": {"mass": 1.0, "inertia": [1.0, 1.0, 1.0], "com": [0.0, 0.0, 0.1]},
    "initial": {"orientation": {"euler_zxz": [0.0, 1.0, 0.0]}, "position": [0.0, 0.0, 0.0], "omega": [0.0, 0.0, 1.0],
                "vel": [0.0, 0.0, 0.0]},
    "forces": {"gravity": [0.0, 0.0, -9.81], "torque": [0.0, 0.0, 0.0], "force": [0.0, 0.0, 0.0]},
    "constraint": {"point": [0.0, 0.0, -0.3], "alpha": 0.0, "beta": 0.0},
    "run": {"formulation": "gauss", "integrator": "lie-rk4", "dt": 0.001, "t_end": 0.01, "sample_every": 1},
}
KNOWN_FIELDS = [(block, field) for block, names in FIELDS.items() for field in names]


class TestUnknownFields:
    def test_the_table_lists_every_field_and_a_file_of_them_all_parses(self):
        assert {block: tuple(FULL[block] if block else FULL) for block in FIELDS} == FIELDS
        assert parse_scenario(FULL).constraint is not None

    @pytest.mark.parametrize("block, field", KNOWN_FIELDS, ids=[f"{b or 'top'}.{f}" for b, f in KNOWN_FIELDS])
    def test_every_listed_field_is_read(self, block, field):
        # A bad value is refused under the field's own name: the parser reads every field the table lists.
        data = copy.deepcopy(FULL)
        (data[block] if block else data)[field] = True
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario(data)
        assert exc.value.field.endswith(field) and "unknown field" not in str(exc.value), exc.value

    @pytest.mark.parametrize("block, field", [("", "scenario"), ("inertia", "moments"), ("initial", "velocity"),
                                              ("forces", "builtin"), ("constraint", "gain"), ("run", "tend")])
    def test_a_field_no_block_reads_is_one_error_line_before_stepping(self, tmp_path, capsys, monkeypatch, block,
                                                                      field):
        def no_stepping(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr("unirigid.integrate.step", no_stepping)
        data = copy.deepcopy(FULL)
        (data[block] if block else data)[field] = {"name": "linear-damping", "coeff": 0.1}
        out = tmp_path / "o.csv"
        assert main(["simulate", "--scenario", str(write(tmp_path, data)), "--output", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        named = f"{block}.{field}" if block else field
        assert len(err) == 1 and err[0].startswith(f"error: {named}: unknown field; "), err
        assert not out.exists()


# Replaced by an integer literal past float range (1 and 400 zeros) when a file is written.
BIG = "<integer past float range>"
DELETE = object()
# One pool for every field: wrong JSON types, empty, short, long and ragged lists, values past float range,
# and deletion.
BAD_VALUES = (
    None, True, False, "", "abc", "1.5", {}, {"a": 1}, [], [1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0],
    [[1.0], [2.0, 3.0]], [1.0, [2.0], 3.0], [1.0, "a", 3.0], [None, 0.0, 0.0], 1e308, -1e308, BIG, 0, -1, 1.5,
    [1e308, 0.0, 0.0], [BIG, 0.0, 0.0], [[1e308, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], DELETE,
)


def fields(data, prefix=()):
    """The key path of every block and field of a decoded scenario."""
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from fields(value, prefix + (key,))


SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(builtin_scenario_dir().glob("*.json"))}
SHIPPED_FIELDS = [(name, path) for name, data in SHIPPED.items() for path in fields(data)]


def mutated(data, path, value) -> str:
    """The JSON text of data with the field at path set to value, or deleted."""
    data = copy.deepcopy(data)
    *parents, key = path
    block = functools.reduce(dict.__getitem__, parents, data)
    if value is DELETE:
        del block[key]
    else:
        block[key] = value
    return json.dumps(data).replace(json.dumps(BIG), "1" + "0" * 400)


def run_simulate(text: str, tmp: Path) -> "tuple[int, list, list]":
    """Exit code, stderr lines and recorded warnings of ``simulate`` on a scenario file holding text."""
    (tmp / "s.json").write_text(text)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["simulate", "--scenario", str(tmp / "s.json"), "--t-end", "0.01", "--output", str(tmp / "o.csv")])
    return code, err.getvalue().splitlines(), caught


class TestMalformedFields:
    # Every field of every shipped scenario is drawn once: hypothesis draws distinct examples until none is left.
    @settings(derandomize=True, max_examples=len(SHIPPED_FIELDS), deadline=None, database=None)
    @given(st.sampled_from(SHIPPED_FIELDS))
    def test_every_bad_value_ends_in_one_line(self, field):
        name, path = field
        with tempfile.TemporaryDirectory() as tmp:
            for value in BAD_VALUES:
                code, lines, caught = run_simulate(mutated(SHIPPED[name], path, value), Path(tmp))
                where = f"{name}: {'.'.join(path)} = {'deleted' if value is DELETE else repr(value)}"
                assert code in (0, 1, 2), where
                assert code == 0 or len(lines) == 1, (where, lines)
                # An input error names the block or the field.
                assert code != 1 or path[0] in lines[0] or path[-1] in lines[0], (where, lines)
                assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (where, caught)

    @pytest.mark.parametrize(
        "name, path, value",
        [
            ("euler-top", ("inertia", "mass"), 1e308),
            ("heavy-top-generic", ("inertia", "mass"), 1e308),
            ("heavy-top-generic", ("inertia", "inertia"), [1e308, 1e308, 1e308]),
            ("heavy-top-generic", ("constraint", "point"), [1e308, 0.0, 0.0]),
        ],
    )
    def test_set_up_overflow_is_an_input_error(self, tmp_path, name, path, value):
        code, lines, caught = run_simulate(mutated(SHIPPED[name], path, value), tmp_path)
        assert code == 1 and len(lines) == 1 and lines[0].startswith(f"error: {path[0]}"), lines
        assert "overflows float range" in lines[0] and not caught


def _entries_replaced(value, entry):
    """value, a (nested) number list, with every number replaced by entry(number)."""
    return [_entries_replaced(v, entry) if isinstance(v, list) else entry(v) for v in value]


# The number-list fields the shipped scenarios leave at their defaults, and a full inertia tensor.
EXTRA_NUMBER_LISTS = [
    ("euler-top", ("inertia", "com"), [0.0, 0.0, 0.1]),
    ("euler-top", ("forces", "torque"), [0.0, 0.0, 0.1]),
    ("euler-top", ("forces", "force"), [0.0, 0.0, 0.1]),
    ("euler-top", ("inertia", "inertia"), [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]),
]
SHIPPED_VALUES = [(name, path, functools.reduce(dict.__getitem__, path, SHIPPED[name])) for name, path in SHIPPED_FIELDS]
NUMBER_LISTS = [field for field in SHIPPED_VALUES if isinstance(field[2], list)] + EXTRA_NUMBER_LISTS
NUMBER_LIST_IDS = [f"{n}:{'.'.join(p)}{'-3x3' if isinstance(v[0], list) else ''}" for n, p, v in NUMBER_LISTS]


class TestNumberLists:
    # Numbers spelled as strings parse in numpy, and booleans convert; JSON numbers are the only numbers.
    @pytest.mark.parametrize("entry", [str, lambda v: True, lambda v: False], ids=["strings", "true", "false"])
    @pytest.mark.parametrize("name, path, value", NUMBER_LISTS, ids=NUMBER_LIST_IDS)
    def test_string_or_boolean_entries_are_one_error_line(self, tmp_path, name, path, value, entry):
        code, lines, caught = run_simulate(mutated(SHIPPED[name], path, _entries_replaced(value, entry)), tmp_path)
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines
        named = lines[0].split(": ")[1]
        assert ".".join(path).endswith(named), (named, path)
        assert not (tmp_path / "o.csv").exists()


class TestName:
    @pytest.mark.parametrize(
        "name",
        [{"a": 1}, ["x"], 3, None, True, "", "sub/x", "/abs", "a\\b", ".", "..", "nul\0byte"],
        ids=["object", "list", "number", "null", "bool", "empty", "slash", "absolute", "backslash", "dot", "dotdot",
             "nul"],
    )
    def test_name_that_is_not_a_file_stem_is_refused(self, name):
        with pytest.raises(ScenarioValidationError) as exc:
            parse_scenario({**MINIMAL, "name": name})
        assert exc.value.field == "name"

    @pytest.mark.parametrize("name", ["top", "my top", ".hidden", "a..b", "heavy-top_2"])
    def test_plain_names_are_kept(self, name):
        assert parse_scenario({**MINIMAL, "name": name}).name == name

    def test_simulate_writes_nothing_for_a_path_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        path = write(tmp_path, {**MINIMAL, "name": "sub/x", "run": {"t_end": 0.01}})
        assert main(["simulate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: name: "), err
        assert list((tmp_path / "sub").iterdir()) == []
