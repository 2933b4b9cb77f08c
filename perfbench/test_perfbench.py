"""Checks of the benchmark itself; run with ``python3 -m pytest -q perfbench``."""

import importlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _targets():
    out = {}
    for mod, attr, _ in tracer.TARGETS + (tracer.MAKE_RHS,):
        out[(mod, attr)] = getattr(importlib.import_module(mod), attr)
    out[("unirigid.geom3.Rotation", "__post_init__")] = tracer._rotation_class().__post_init__
    return out


@pytest.fixture(scope="module")
def ensemble(tmp_path_factory):
    return workloads.EnsembleRandom(seed=3, workdir=tmp_path_factory.mktemp("work"))


def test_untraced_run_sees_unwrapped_functions(ensemble):
    originals = _targets()
    assert tracer.is_pristine()
    tr = tracer.Tracer()
    with tr.patched():
        assert not tracer.is_pristine()
        assert all(_targets()[key] is not fn for key, fn in originals.items())
        assert ensemble.run(0).ok
    assert tracer.is_pristine()
    assert _targets() == originals
    recorded = (len(tr.name), dict(tr.counts))
    assert ensemble.run(0).ok  # an untraced operation records nothing
    assert (len(tr.name), dict(tr.counts)) == recorded


def test_originals_restored_when_the_traced_block_raises():
    originals = _targets()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().patched():
            raise RuntimeError("boom")
    assert _targets() == originals


def test_counts_repeat_exactly(ensemble):
    def traced_counts():
        tr = tracer.Tracer()
        with tr.patched():
            for i in range(3):
                assert ensemble.run(i).ok
        calls = {name: c["calls"] for name, c in tr.summary().items()}
        return calls, dict(tr.counts)

    first = traced_counts()
    assert first == traced_counts()
    calls, counts = first
    assert calls["integrate.step"] == 3 * 2 * ensemble.n_steps
    rhs = calls["dynamics.rhs.kirchhoff"] + calls["dynamics.rhs.lagrange"]
    assert rhs == 4 * calls["integrate.step"]
    assert counts[tracer.ROTATION_NEW] > calls["integrate.step"]


def test_self_time_subtracts_children():
    tr = tracer.Tracer()

    def inner():
        time.sleep(0.01)

    inner_t = tr.wrap(inner, "inner")

    def outer():
        inner_t()
        inner_t()
        time.sleep(0.01)

    tr.wrap(outer, "outer")()
    name, parent, start, end, self_time = tr.arrays()
    assert [tr.names[i] for i in name] == ["outer", "inner", "inner"]
    assert list(parent) == [-1, 0, 0]
    assert self_time.min() >= 0.0
    assert self_time.sum() == pytest.approx(end[0] - start[0], rel=1e-9)
    assert 0.009 < self_time[0] < 0.05


def test_generator_is_seeded_and_valid(tmp_path):
    a = workloads.EnsembleRandom(seed=11, workdir=tmp_path)
    b = workloads.EnsembleRandom(seed=11, workdir=tmp_path)
    c = workloads.EnsembleRandom(seed=12, workdir=tmp_path)
    assert json.dumps(a.pool) == json.dumps(b.pool)
    assert json.dumps(a.pool) != json.dumps(c.pool)
    for body in a.pool:
        moments = sorted(body["inertia"]["inertia"])
        assert moments[2] < moments[0] + moments[1]
        assert any(body["inertia"]["com"])
        theta = body["initial"]["orientation"]["euler_zxz"][1]
        assert workloads.EnsembleRandom.gimbal_clearance < theta < math.pi - workloads.EnsembleRandom.gimbal_clearance
    workloads.scenario.parse_scenario(a.pool[0])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pinned-csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
