"""Command line behavior: exit codes, CSV schema and determinism, compare."""

import argparse
import contextlib
import errno
import functools
import gc
import io
import json
import math
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unirigid.cli import CSV_HEADER, CSV_ROW, build_parser, main, samples_to_csv
from unirigid.geom3 import rotation_to_quaternion
from unirigid.integrate import MAX_SAMPLES, Formulation, IntegratorId, simulate
from unirigid.scenario import load_scenario

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

# A body falling under gravity whose frame origin is 0.1 m from its CoM.
OFFSET_SCENARIO = {
    "name": "offset",
    "inertia": {"mass": 1.0, "inertia": [1.0, 1.2, 1.5], "com": [0.0, 0.0, 0.1]},
    "initial": {"orientation": {"euler_zxz": [0.0, 1.0, 0.0]}, "omega": [0.1, 0.2, 0.3]},
    "forces": {"gravity": [0.0, 0.0, -9.81]},
    "run": {"dt": 0.001, "t_end": 0.01},
}

# The gyroscopic terms of a 1e150 rad/s spin overflow inside the first step.
BLOWUP_SCENARIO = {
    "name": "blowup",
    "inertia": {"mass": 1.0, "inertia": [1.0, 1.6, 2.2]},
    "initial": {"omega": [1e150, 2e150, 5e149]},
    "forces": {"gravity": [0.0, 0.0, 0.0]},
    "run": {"formulation": "kirchhoff", "dt": 0.001, "t_end": 2.0},
}

# A body moving at 1e160 m/s: its twist is finite, its kinetic energy overflows float range.
FAST_SCENARIO = {
    "name": "fast",
    "inertia": {"mass": 1.0, "inertia": [1.0, 2.0, 2.5]},
    "initial": {"vel": [1e160, 0.0, 0.0]},
    "run": {"t_end": 0.05},
}

# Released at rest at the origin under gravity: the energy at t = 0 is exactly 0.
ZERO_ENERGY_SCENARIO = {
    "name": "zero-energy",
    "inertia": {"mass": 1.0, "inertia": [1.0, 2.0, 2.5]},
    "forces": {"gravity": [0.0, 0.0, -9.81]},
    "run": {"t_end": 0.01},
}

# A body 1e160 m from the space origin: L is finite, its squared norm overflows float range.
DISTANT_SCENARIO = {
    "name": "distant",
    "inertia": {"mass": 1.0, "inertia": [1.0, 2.0, 2.5]},
    "initial": {"position": [1e160, 1.0, 0.0], "omega": [0.1, 0.2, 0.3], "vel": [0.1, 0.2, 0.3]},
    "forces": {"gravity": [0.0, 0.0, 0.0]},
    "run": {"t_end": 0.05},
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

    def test_csv_quaternion_is_the_samples_quaternion(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(["simulate", "--scenario", "heavy-top-generic", "--t-end", "0.05", "--output", str(out)]) == 0
        sc = load_scenario("heavy-top-generic")
        samples = simulate(sc, sc.run.formulation, sc.run.integrator, sc.run.dt, 0.05, sc.run.sample_every)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == len(samples)
        for row, s in zip(rows, samples):
            assert [float(v) for v in row[1:5]] == rotation_to_quaternion(s.pose.rotation).tolist()

    def test_writing_the_csv_raises_the_peak_by_at_most_5_mb(self):
        # The CSV is streamed a block of rows at a time, so what writing it adds does not grow with the rows.
        sc = load_scenario("euler-top")
        traj = simulate(sc, Formulation.KIRCHHOFF, IntegratorId.LIE_EULER, 1e-3, 60.0)
        for rows in (20_001, 60_001):
            with open(os.devnull, "w") as out:
                gc.collect()
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    samples_to_csv(traj[:rows], out)
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
            assert peak <= 5e6, (rows, peak)

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

    @pytest.mark.parametrize("command, prefix", [("simulate", "aborted: "), ("compare", "aborted: lagrange: ")])
    def test_gimbal_lock_at_the_start_exits_2_at_t_0(self, tmp_path, capsys, command, prefix):
        # The default (identity) orientation has theta = 0, where the Euler chart has no rates.
        path = write_scenario(tmp_path, {**OFFSET_SCENARIO, "initial": {"omega": [0.1, 0.2, 0.3]}})
        more = ["--output", str(tmp_path / "s.csv")] if command == "simulate" else ["--formulation", "kirchhoff"]
        assert main([command, "--scenario", path, "--formulation", "lagrange", *more]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"{prefix}gimbal lock at t=0: sin(theta) = 0.000e+00 below 1e-08"]

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_scenario_warning_is_one_line(self, tmp_path, capsys, command):
        data = {**OFFSET_SCENARIO, "initial": {"orientation": {"quaternion": [2.0, 0.0, 0.0, 0.0]}}}
        path = write_scenario(tmp_path, data)
        more = (["--output", str(tmp_path / "w.csv")] if command == "simulate"
                else ["--formulation", "kirchhoff", "--formulation", "newton-euler"])
        assert main([command, "--scenario", path, *more]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: initial.orientation.quaternion: deviates from unit norm by 1.000e+00; renormalizing"]

    @pytest.mark.parametrize("entry, deviation", [(0.5e150, "1.000e+150"), (0.5e200, "1.000e+200"),
                                                  (0.5e300, "1.000e+300"), (1.7e308, "3.400e+308")],
                             ids=["1e+150", "1e+200", "1e+300", "3.4e+308"])
    def test_quaternion_whose_norm_overflows_runs(self, tmp_path, capsys, entry, deviation):
        # The norm of entry * (1, 1, 1, 1), the test's id, is in float range or past it: each is renormalized
        # alike, and its deviation from 1 is printed as a finite number.
        data = {**OFFSET_SCENARIO, "initial": {"orientation": {"quaternion": [entry] * 4}}}
        path = write_scenario(tmp_path, data)
        assert main(["simulate", "--scenario", path, "--output", str(tmp_path / "q.csv")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: initial.orientation.quaternion: deviates from unit norm by {deviation}; renormalizing"]
        unit = {**OFFSET_SCENARIO, "initial": {"orientation": {"quaternion": [0.5] * 4}}}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = load_scenario(path).initial_pose.rotation.flat
        want = load_scenario(write_scenario(tmp_path, unit, "unit.json")).initial_pose.rotation.flat
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15

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

    def test_zero_energy_start_drifts_relative_to_the_kinetic_energy(self, tmp_path, capsys):
        # Divided by the 1e-30 floor, a 1e-18 J rounding error would read as a drift near 1e12.
        path = write_scenario(tmp_path, ZERO_ENERGY_SCENARIO)
        assert main(["simulate", "--scenario", path, "--output", str(tmp_path / "z.csv")]) == 0
        assert float(capsys.readouterr().out.split("energy_drift=")[1].split()[0]) <= 1e-12

    def test_blowup_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BLOWUP_SCENARIO)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--scenario", path, "--output", str(tmp_path / "b.csv")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("formulation", ["newton-euler", "kirchhoff"])
    def test_overflowing_energy_aborts_at_the_start(self, tmp_path, capsys, formulation):
        path = write_scenario(tmp_path, FAST_SCENARIO)
        code = main(["simulate", "--scenario", path, "--formulation", formulation, "--output", str(tmp_path / "f.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["aborted: state became non-finite at t=0: energy or angular momentum is not finite"]
        assert not (tmp_path / "f.csv").exists()

    def test_momentum_drift_of_a_distant_body_is_computed_without_overflow(self, tmp_path, capsys):
        out_csv = tmp_path / "d.csv"
        path = write_scenario(tmp_path, DISTANT_SCENARIO)
        assert main(["simulate", "--scenario", path, "--output", str(out_csv)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        # Scaled by 2^-532 (about 1e-160), which is exact, as test_free_momentum_drift_is_full_l computes it.
        l = np.ldexp(np.loadtxt(out_csv, delimiter=",", skiprows=1)[:, 15:18], -532)
        drift = np.max(np.linalg.norm(l - l[0], axis=1)) / np.linalg.norm(l[0])
        assert out.split("momentum_drift=")[1].split()[0] == f"{drift:.6e}"

    @pytest.mark.parametrize("case", ["missing-directory", "directory", "long-name"])
    def test_unwritable_output_is_one_error_line_before_stepping(self, tmp_path, capsys, monkeypatch, case):
        def no_stepping(*args):
            raise AssertionError("simulate ran before the output was checked")

        monkeypatch.setattr("unirigid.cli.simulate", no_stepping)
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--scenario", "euler-top", "--t-end", "0.01"]
        if case == "missing-directory":
            argv += ["--output", "missing/x.csv"]
        elif case == "directory":
            argv += ["--output", "."]
        else:
            argv[2] = write_scenario(tmp_path, {**OFFSET_SCENARIO, "name": "n" * 300})
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: output: "), err
        assert sorted(p.name for p in tmp_path.iterdir()) == (["scenario.json"] if case == "long-name" else [])

    def test_write_failure_is_one_error_line_and_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "o.csv"

        def full_disk_open(path, mode="r", *args, open_=Path.open, **kwargs):
            f = open_(path, mode, *args, **kwargs)
            if mode == "w":  # the streamed CSV: its first write lands 10 characters, then the disk is full

                def partial_write(text, write=f.write):
                    write(text[:10])
                    raise OSError(errno.ENOSPC, "No space left on device", str(path))

                f.write = partial_write
            return f

        monkeypatch.setattr(Path, "open", full_disk_open)
        assert main(["simulate", "--scenario", "euler-top", "--t-end", "0.01", "--output", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: output: [Errno {errno.ENOSPC}] No space left on device: '{out}'"]
        assert not out.exists()

    def test_empty_output_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # '' names no file; read as an absent --output it would write <name>-<formulation>.csv here.
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--scenario", "euler-top", "--t-end", "0.01", "--output", ""]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: output: empty path"]
        assert list(tmp_path.iterdir()) == []

    def test_existing_output_is_overwritten(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        out.write_text("old contents\n")
        assert main(["simulate", "--scenario", "euler-top", "--t-end", "0.01", "--output", str(out)]) == 0
        assert out.read_text().startswith(CSV_HEADER + "\n")

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

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_over_sample_bound_is_one_error_line_before_stepping(self, tmp_path, capsys, monkeypatch, command):
        def no_stepping(*args):
            raise AssertionError("a step ran past the sample bound")

        monkeypatch.setattr("unirigid.integrate.step", no_stepping)
        monkeypatch.chdir(tmp_path)
        argv = [command, "--scenario", "euler-top", "--dt", "1e-6", "--t-end", "2", "--sample-every", "2"]
        argv += ["--output", "o.csv"] if command == "simulate" else ["--formulation", "kirchhoff", "--formulation",
                                                                     "lagrange"]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: sample_every: 2000000 steps sampled every 2 record 1000001 rows, past the limit of {MAX_SAMPLES}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "run, line",
        [
            (["--scenario", "euler-top", "--dt", "-1"], "error: dt: must be a positive finite number, got -1.0"),
            (["--scenario", "heavy-top-generic", "--formulation", "kirchhoff"],
             "error: formulation: scenarios with a constraint must run gauss, not kirchhoff"),
        ],
    )
    def test_run_settings_are_checked_before_the_output(self, tmp_path, capsys, run, line):
        # Both the run and the output path are bad: the run's error is the one line.
        assert main(["simulate", *run, "--output", str(tmp_path / "missing" / "x.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [line]

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
        assert "np.float64" not in err[0]
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("block, field", [("run", "dt"), ("run", "t_end"), ("inertia", "mass")])
    def test_integer_past_float_range_is_one_error_line(self, tmp_path, capsys, block, field):
        # JSON reads 1 followed by 400 zeros as an int, which float() cannot hold.
        data = {**OFFSET_SCENARIO, block: {**OFFSET_SCENARIO[block], field: "BIG"}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data).replace('"BIG"', "1" + "0" * 400))
        assert main(["simulate", "--scenario", str(path), "--output", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and field in err[0], err
        assert not (tmp_path / "o.csv").exists()

    def test_constrained_scenario_wrong_formulation(self, tmp_path, capsys):
        assert (
            main(["simulate", "--scenario", "heavy-top-steady", "--formulation", "kirchhoff",
                  "--t-end", "0.1", "--output", str(tmp_path / "h.csv")])
            == 1
        )
        assert "gauss" in capsys.readouterr().err


class TestCompareCommand:
    @pytest.mark.parametrize(
        "formulations", [["kirchhoff"], ["kirchhoff", "kirchhoff"], ["kirchhoff", "lagrange", "kirchhoff"]]
    )
    def test_requires_two_formulations(self, formulations, capsys, monkeypatch):
        def no_stepping(*args):
            raise AssertionError("simulate ran before the formulations were checked")

        monkeypatch.setattr("unirigid.cli.simulate", no_stepping)
        flags = [a for f in formulations for a in ("--formulation", f)]
        assert main(["compare", "--scenario", "euler-top", "--t-end", "0.01", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "at least two" in err

    def test_euler_top_three_formulations(self, capsys):
        code = main(
            ["compare", "--scenario", "euler-top", "--dt", "0.001", "--t-end", "1.0",
             "--formulation", "newton-euler", "--formulation", "kirchhoff",
             "--formulation", "lagrange", "--sample-every", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "max_orientation_gap" in out

    def test_reported_gap_shrinks_with_dt(self, tmp_path, capsys):
        def max_gap(scenario, formulations, dt):
            argv = ["compare", "--scenario", scenario, "--dt", dt, "--t-end", "10", "--sample-every", "20"]
            code = main(argv + [arg for f in formulations for arg in ("--formulation", f)])
            out = capsys.readouterr().out
            assert code == 0, out
            return float(out.rsplit("max_orientation_gap=", 1)[1].split()[0])

        two = ["kirchhoff", "lagrange"]
        assert max_gap("euler-top", two, "2e-3") / max_gap("euler-top", two, "1e-3") >= 8.0
        # Newton-Euler on a body off its CoM, under gravity, against the other two formulations.
        offset, three = write_scenario(tmp_path, OFFSET_SCENARIO), ["newton-euler", "kirchhoff", "lagrange"]
        gap = max_gap(offset, three, "1e-3")
        assert gap <= 1e-5
        assert max_gap(offset, three, "2e-3") / gap >= 8.0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "1e400"])
    def test_bad_tolerance_is_one_error_line_before_stepping(self, capsys, monkeypatch, tol):
        def no_stepping(*args):
            raise AssertionError("simulate ran before the tolerance was checked")

        monkeypatch.setattr("unirigid.cli.simulate", no_stepping)
        code = main(["compare", "--scenario", "euler-top", "--formulation", "kirchhoff", "--formulation", "lagrange",
                     "--t-end", "0.01", f"--tol={tol}"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: tol: must be a nonnegative finite number, got {float(tol)!r}"]

    def test_zero_tolerance_is_accepted(self, capsys):
        # Kirchhoff and Newton-Euler agree bit for bit on euler-top over this run, so the gap is exactly 0.
        argv = ["compare", "--scenario", "euler-top", "--formulation", "kirchhoff", "--formulation", "newton-euler",
                "--t-end", "0.01", "--tol", "0"]
        assert main(argv) == 0
        assert "max_orientation_gap=0.000000e+00 tol=0.000000e+00" in capsys.readouterr().out

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


class TestRepeatedCalls:
    # main reuses one parser per process; a call must not see the arguments of the one before.
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_compare_after_a_two_formulation_call_still_needs_two(self, capsys):
        argv = ["compare", "--scenario", "euler-top", "--t-end", "0.01", "--formulation", "kirchhoff"]
        assert main(argv + ["--formulation", "lagrange"]) == 0
        capsys.readouterr()
        assert main(argv) == 1
        assert "at least two" in capsys.readouterr().err
        assert main(argv[:-2]) == 1
        assert "at least two" in capsys.readouterr().err

    def test_suites_and_overrides_do_not_accumulate(self, tmp_path, capsys):
        for _ in range(2):
            assert main(["validate", "--suite", "euler-roundtrip"]) == 0
            assert capsys.readouterr().out.count("PASS") == 1
        out = str(tmp_path / "o.csv")
        assert main(["simulate", "--scenario", "euler-top", "--t-end", "0.01", "--dt", "0.005", "--output", out]) == 0
        assert "samples=3 " in capsys.readouterr().out
        assert main(["simulate", "--scenario", "euler-top", "--t-end", "0.01", "--output", out]) == 0
        assert "samples=11 " in capsys.readouterr().out


# Each option of each command is given each of these in turn, over a run that succeeds without it.
FUZZ_BASE = {
    "simulate": {"--scenario": ["euler-top"], "--t-end": ["0.01"], "--output": ["o.csv"]},
    "compare": {"--scenario": ["euler-top"], "--t-end": ["0.01"], "--formulation": ["kirchhoff", "lagrange"]},
    "validate": {"--suite": ["euler-roundtrip"]},
}


def command_options(command) -> "list[str]":
    """Every option of a subcommand, read from the parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    return [a.option_strings[-1] for a in sub._actions if a.option_strings and a.dest != "help"]


FUZZ_CASES = [(command, option) for command in FUZZ_BASE for option in command_options(command)]


class TestCommandLineFuzz:
    @pytest.mark.parametrize("command, option", FUZZ_CASES, ids=[" ".join(c) for c in FUZZ_CASES])
    def test_every_bad_value_ends_in_one_line(self, tmp_path, monkeypatch, command, option):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        values = ["nan", "inf", "-1", "0", "1e400", "1" + "0" * 400, "", "no-such-name", str(tmp_path / "dir"),
                  str(tmp_path / "missing.json")]
        for value in values:
            argv = [command]
            for opt, base in FUZZ_BASE[command].items():
                argv += [arg for v in base for arg in (opt, v)] if opt != option else []
            argv += [option, value]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main(argv)
            lines = err.getvalue().splitlines()
            assert code == 0 or (code in (1, 2) and len(lines) == 1), (argv, code, lines)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught)


# Every number of a swept field is multiplied by each of these in turn, or set to it where it is 0.
SWEEP_FACTORS = (1e150, 1e200, 1e250, 1e300, 1e-150, 1e-200, 1e-250, 1e-300)
# A free body and a pinned one, with every numeric scenario field given, each with the formulations it accepts.
SWEEP_BASES = {
    "free": ({
        "name": "sweep",
        "inertia": {"mass": 1.3, "inertia": [1.0, 1.5, 2.0], "com": [0.05, -0.1, 0.2]},
        "initial": {"orientation": {"euler_zxz": [0.3, 1.0, -0.4]}, "position": [0.1, 0.2, 0.3],
                    "omega": [0.4, -0.3, 1.1], "vel": [0.2, -0.1, 0.3]},
        "forces": {"gravity": [0.0, 0.0, 0.0], "torque": [0.3, -0.2, 0.5], "force": [0.4, 0.1, -0.3]},
        "run": {"dt": 0.001, "t_end": 0.05, "sample_every": 1},
    }, ["newton-euler", "kirchhoff", "lagrange", "gauss"]),
    "pinned": ({
        "name": "sweep",
        "inertia": {"mass": 1.0, "inertia": [0.4, 0.4, 0.3], "com": [0.01, -0.02, 0.03]},
        "initial": {"orientation": {"quaternion": [0.5, 0.5, 0.5, 0.5]}, "position": [0.1, -0.2, 0.25],
                    "omega": [0.3, 0.4, 8.0], "vel": [0.12, -0.09, 0.05]},
        "forces": {"gravity": [0.0, 0.0, -9.81], "torque": [0.3, -0.2, 0.5], "force": [0.4, 0.1, -0.3]},
        "constraint": {"point": [0.05, -0.1, -0.3]},
        "run": {"formulation": "gauss", "dt": 0.001, "t_end": 0.05, "sample_every": 1},
    }, ["gauss"]),
}


def number_fields(data, prefix=()):
    """The key path of every number or number list of a scenario."""
    for key, value in data.items():
        if isinstance(value, dict):
            yield from number_fields(value, prefix + (key,))
        elif not isinstance(value, str):
            yield prefix + (key,)


def scaled(value, factor):
    """A number or (nested) number list with every number multiplied by factor, or set to it where it is 0."""
    return [scaled(v, factor) for v in value] if isinstance(value, list) else value * factor if value else factor


SWEEP_CASES = [(base, path) for base, (data, _) in SWEEP_BASES.items() for path in number_fields(data)]


class TestScenarioValueSweep:
    @pytest.mark.parametrize("base, path", SWEEP_CASES, ids=[f"{b}:{'.'.join(p)}" for b, p in SWEEP_CASES])
    def test_every_extreme_value_ends_in_at_most_one_line(self, tmp_path, base, path):
        data, formulations = SWEEP_BASES[base]
        out = tmp_path / "o.csv"
        for factor in SWEEP_FACTORS:
            mutated = json.loads(json.dumps(data))
            *parents, key = path
            block = functools.reduce(dict.__getitem__, parents, mutated)
            block[key] = scaled(block[key], factor)
            scenario = write_scenario(tmp_path, mutated)
            for formulation in formulations:
                argv = ["simulate", "--scenario", scenario, "--formulation", formulation, "--t-end", "0.05",
                        "--output", str(out)]
                err = io.StringIO()
                with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    warnings.simplefilter("always")
                    code = main(argv)
                lines, where = err.getvalue().splitlines(), (path, factor, formulation)
                assert code in (0, 1, 2), (where, code)
                assert len(lines) <= 1 and not any("Warning" in line or "Traceback" in line for line in lines), \
                    (where, lines)
                assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (where, caught)
                assert out.exists() == (code == 0), where
                if code == 0:
                    assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all(), where
                    out.unlink()


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


EXTREMES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, 1.7e308, -1.7e308)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(row=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES),
                    min_size=18, max_size=18))
def test_csv_row_is_the_per_value_format(row):
    assert CSV_ROW % tuple(row) == ",".join(format(float(v), ".17g") for v in row)
