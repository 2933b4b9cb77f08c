"""Command line behavior: exit codes, CSV schema and determinism, compare."""

import json
import math
import warnings

import numpy as np
import pytest

from unirigid.cli import CSV_HEADER, main

GIMBAL_SCENARIO = {
    "name": "gimbal-crossing",
    "inertia": {"mass": 1.0, "inertia": [1.0, 1.2, 1.5]},
    "initial": {
        "orientation": {"euler_zxz": [0.0, 0.25, 0.0]},
        "omega": [-1.0, 0.0, 0.0],
    },
    "forces": {"gravity": [0.0, 0.0, 0.0]},
    "run": {"formulation": "lagrange", "integrator": "rk4", "dt": 0.001, "t_end": 1.0},
}

# One RK stage of this run lands at sin(theta) = 1.5e-8, just above the gimbal threshold.
NEAR_GIMBAL_SCENARIO = {
    "name": "near-gimbal",
    "inertia": {"mass": 1.0, "inertia": [1.0, 1.0, 1.0]},
    "initial": {
        "orientation": {"euler_zxz": [0.0, 0.001000015, 0.0]},
        "omega": [-1.0, 0.0, 0.0],
    },
    "forces": {"gravity": [0.0, 0.0, 0.0]},
    "run": {"formulation": "lagrange", "integrator": "rk4", "dt": 0.001, "t_end": 0.002},
}

BLOWUP_SCENARIO = {
    "name": "blowup",
    "inertia": {"mass": 1.0, "inertia": [1.0, 1.0, 1.0]},
    "initial": {"omega": [0.1, 0.0, 0.0]},
    "forces": {"gravity": [0.0, 0.0, 0.0], "builtin": {"name": "linear-damping", "coeff": -2000.0}},
    "run": {"formulation": "kirchhoff", "dt": 0.001, "t_end": 2.0},
}


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestSimulateCommand:
    @pytest.mark.parametrize("formulation", ["newton-euler", "kirchhoff", "lagrange", "gauss"])
    def test_free_sphere_energy_drift(self, tmp_path, capsys, formulation):
        out = tmp_path / "traj.csv"
        code = main(
            ["simulate", "--scenario", "free-sphere", "--formulation", formulation,
             "--t-end", "1.0", "--dt", "0.001", "--output", str(out)]
        )
        assert code == 0
        summary = capsys.readouterr().out
        drift = float(summary.split("energy_drift=")[1].split()[0])
        assert drift <= 1e-12
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1002  # header + 1001 samples

    def test_csv_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code = main(
                ["simulate", "--scenario", "euler-top", "--t-end", "0.2", "--output", str(out)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trips_at_full_precision(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["simulate", "--scenario", "euler-top", "--t-end", "0.01", "--output", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        quat = np.array([float(v) for v in rows[-1][1:5]])
        assert math.isclose(float(np.linalg.norm(quat)), 1.0, abs_tol=1e-12)

    def test_gimbal_lock_exits_2_with_time(self, tmp_path, capsys):
        path = write_scenario(tmp_path, GIMBAL_SCENARIO)
        code = main(["simulate", "--scenario", path, "--output", str(tmp_path / "g.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "gimbal lock at t=" in err
        t_reported = float(err.split("gimbal lock at t=")[1].split(":")[0])
        assert abs(t_reported - 0.25) <= 2e-3

    def test_stage_near_gimbal_threshold_exits_2_with_time(self, tmp_path, capsys):
        path = write_scenario(tmp_path, NEAR_GIMBAL_SCENARIO)
        assert main(["simulate", "--scenario", path, "--output", str(tmp_path / "g.csv")]) == 2
        err = capsys.readouterr().err
        assert "aborted: gimbal lock at t=0.002" in err

    @pytest.mark.parametrize("scenario", ["heavy-top-generic", "heavy-top-steady"])
    def test_pinned_momentum_drift_is_integration_error(self, tmp_path, capsys, scenario):
        # The vertical component of L about the pin is conserved; the rest is gravity's torque.
        assert main(["simulate", "--scenario", scenario, "--output", str(tmp_path / "p.csv")]) == 0
        out = capsys.readouterr().out
        assert float(out.split("momentum_drift=")[1].split()[0]) <= 1e-8

    def test_free_momentum_drift_is_full_l(self, tmp_path, capsys):
        out_csv = tmp_path / "e.csv"
        assert main(["simulate", "--scenario", "euler-top", "--t-end", "1.0", "--output", str(out_csv)]) == 0
        printed = capsys.readouterr().out.split("momentum_drift=")[1].split()[0]
        l = np.loadtxt(out_csv, delimiter=",", skiprows=1)[:, 15:18]
        drift = np.max(np.linalg.norm(l - l[0], axis=1)) / np.linalg.norm(l[0])
        assert printed == f"{drift:.6e}"

    def test_blowup_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BLOWUP_SCENARIO)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--scenario", path, "--output", str(tmp_path / "b.csv")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize(
        "override",
        [
            ["--dt", "0"],
            ["--sample-every", "0"],
            ["--t-end", "inf"],
            ["--dt", "0.3", "--t-end", "1.0"],  # whole steps stop at 0.9
            ["--dt", "1e-300", "--t-end", "1"],  # past the step cap; rejected before stepping
        ],
    )
    def test_bad_run_override_is_one_error_line(self, tmp_path, capsys, command, override):
        out = tmp_path / "o.csv"
        argv = [command, "--scenario", "euler-top"] + override
        if command == "simulate":
            argv += ["--output", str(out)]
        else:
            argv += ["--formulation", "kirchhoff", "--formulation", "lagrange"]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not out.exists()

    def test_missing_scenario_flag_usage_error(self, capsys):
        assert main(["simulate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_nonexistent_scenario_file(self, capsys):
        assert main(["simulate", "--scenario", "/nowhere/x.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_scenario_names_field(self, tmp_path, capsys):
        bad = dict(GIMBAL_SCENARIO)
        bad["inertia"] = {"mass": -2.0, "inertia": [1, 1, 1]}
        path = write_scenario(tmp_path, bad)
        assert main(["simulate", "--scenario", path]) == 1
        assert "mass" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize(
        "route",
        [
            ["--scenario", "heavy-top-generic", "--formulation", "kirchhoff"],
            ["--scenario", "euler-top", "--integrator", "rk4", "--formulation", "kirchhoff"],
        ],
    )
    def test_bad_route_is_one_error_line(self, tmp_path, capsys, command, route):
        argv = [command] + route
        if command == "simulate":
            argv += ["--output", str(tmp_path / "o.csv")]
        else:
            argv += ["--formulation", "gauss" if "heavy-top-generic" in route else "lagrange"]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "o.csv").exists()

    def test_constrained_scenario_wrong_formulation(self, tmp_path, capsys):
        assert (
            main(["simulate", "--scenario", "heavy-top-steady", "--formulation", "kirchhoff",
                  "--t-end", "0.1", "--output", str(tmp_path / "h.csv")])
            == 1
        )
        assert "gauss" in capsys.readouterr().err


class TestCompareCommand:
    def test_requires_two_formulations(self, capsys):
        assert main(["compare", "--scenario", "euler-top", "--formulation", "kirchhoff"]) == 1
        assert "at least two" in capsys.readouterr().err

    def test_euler_top_three_formulations(self, capsys):
        code = main(
            ["compare", "--scenario", "euler-top", "--dt", "0.001", "--t-end", "1.0",
             "--formulation", "newton-euler", "--formulation", "kirchhoff",
             "--formulation", "lagrange", "--sample-every", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "max_orientation_gap" in out

    def test_reported_gap_shrinks_with_dt(self, capsys):
        def max_gap(dt):
            code = main(
                ["compare", "--scenario", "euler-top", "--dt", dt, "--t-end", "10",
                 "--formulation", "kirchhoff", "--formulation", "lagrange",
                 "--sample-every", "20"]
            )
            out = capsys.readouterr().out
            assert code == 0, out
            return float(out.rsplit("max_orientation_gap=", 1)[1].split()[0])

        assert max_gap("2e-3") / max_gap("1e-3") >= 8.0

    def test_tolerance_failure_exits_2(self, capsys):
        code = main(
            ["compare", "--scenario", "euler-top", "--dt", "0.001", "--t-end", "1.0",
             "--formulation", "kirchhoff", "--formulation", "lagrange",
             "--sample-every", "10", "--tol", "1e-18"]
        )
        assert code == 2

    def test_child_failure_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, GIMBAL_SCENARIO)
        code = main(
            ["compare", "--scenario", path, "--formulation", "kirchhoff",
             "--formulation", "lagrange", "--t-end", "1.0"]
        )
        assert code == 2
        assert "aborted" in capsys.readouterr().err


class TestValidateCommand:
    def test_single_suite(self, capsys):
        assert main(["validate", "--suite", "euler-roundtrip"]) == 0
        out = capsys.readouterr().out
        assert "euler-roundtrip" in out and "PASS" in out
        assert "gauss-minimality" not in out

    def test_unknown_suite(self, capsys):
        assert main(["validate", "--suite", "no-such-suite"]) == 1

    def test_fast_suites_pass(self, capsys):
        code = main(["validate", "--suite", "euler-roundtrip", "--suite", "gauss-minimality",
                     "--suite", "se3-structure-constants"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
