"""Compare the CSV files and printed lines of two source trees, bit for bit.

Usage: python tools/csv_bits.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of two checkouts.  Each of
these runs is made once per tree, with ``python -m unirigid.cli`` in a fresh
working directory:

* ``simulate`` of every shipped scenario with its own run settings (the
  default CSV);
* ``simulate --formulation`` lagrange, kirchhoff and newton-euler on
  euler-top and dzhanibekov;
* ``simulate --scenario dzhanibekov --sample-every 7``, whose final row
  falls off the stride;
* ``simulate --scenario dzhanibekov --t-end 9.001 --sample-every 1``: 9,002
  rows, which cross the CSV writer's block seams (blocks of 2,048 rows) four
  times and end in a partial block;
* ``simulate --scenario euler-top --integrator lie-euler`` with kirchhoff
  and lagrange: lie-euler's one retraction forms the step's end rotation;
* ``compare --scenario euler-top`` over those three formulations;
* ``compare`` over the same three on ``OFFSET_BODY``, a body falling under
  gravity with its frame origin off its CoM, written once to a temporary
  file;
* ``simulate`` of ``PINNED_BODY``, the same body pinned off its axes under
  gravity (the shipped pinned scenarios pin a point on the body's z axis),
  started on the velocity manifold, vel = -omega x point, written once to a
  temporary file too;
* ``validate`` of every suite (about 2 s), which writes no CSV: its printed
  lines and exit code cover ``checks.py``;
* failing runs, whose stderr lines and exit codes are compared: ``simulate``
  with ``--dt -1``, with a refused route (kirchhoff on the pinned
  heavy-top-generic), with ``--output ""`` and with ``--t-end 0.01 --output
  /dev/full``, whose CSV write fails with no space left (exit 1); ``simulate`` of
  ``GIMBAL_BODY``, criterion 8's body that crosses gimbal lock, written to a
  temporary file like ``OFFSET_BODY`` (exit 2); ``compare`` with one
  formulation and with ``--tol -1`` (exit 1); ``compare`` of kirchhoff and
  lagrange on euler-top with ``--tol 1e-20``, which ends in a ``failed:`` line,
  and on ``GIMBAL_BODY``, where the lagrange run aborts (exit 2);
  ``validate --suite nope`` (exit 1); ``simulate`` of ``DAMPED_BODY``, which
  names the field ``forces.builtin`` that no block reads (exit 1), and
  newton-euler on ``FAST_BODY``, whose kinetic energy overflows float range
  at t = 0 (exit 2), each written to a temporary file like ``OFFSET_BODY``.
  An aborted ``simulate`` writes no CSV; that the file is absent is compared
  too.

Prints "identical" when every CSV, printed line and exit code matches.
Otherwise it prints, per run that differs, the largest absolute change and
the number of changed values per CSV column, and the printed lines that
differ.  Exits 0 when identical, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FORMULATIONS = ("lagrange", "kirchhoff", "newton-euler")

OFFSET_BODY = {
    "name": "offset-body",
    "inertia": {"mass": 1.3, "inertia": [[1.0, 0.1, -0.05], [0.1, 1.5, 0.08], [-0.05, 0.08, 2.0]],
                "com": [0.08, -0.05, 0.12]},
    "initial": {"orientation": {"euler_zxz": [0.3, 1.0, -0.4]}, "omega": [0.4, -0.3, 1.1], "vel": [0.2, 0.0, -0.1]},
    "forces": {"gravity": [0.0, 0.0, -9.81]},
    "run": {"dt": 0.001, "t_end": 10.0},
}

PINNED_BODY = {
    **OFFSET_BODY,
    "name": "pinned-body",
    "initial": {"orientation": {"euler_zxz": [0.3, 1.0, -0.4]}, "omega": [0.4, -0.3, 6.0],
                "vel": [-0.69, -0.42, 0.025]},  # -omega x point: the pin starts at rest
    "constraint": {"point": [0.05, -0.1, -0.3]},
    "run": {"formulation": "gauss", "integrator": "lie-rk4", "dt": 0.001, "t_end": 3.0, "sample_every": 5},
}

# Criterion 8's body: it tips through theta = 0, where the lagrange (Euler) chart stops.
GIMBAL_BODY = {
    "name": "gimbal-crossing",
    "inertia": {"mass": 1.0, "inertia": [1.0, 1.2, 1.5]},
    "initial": {"orientation": {"euler_zxz": [0.0, 0.25, 0.0]}, "omega": [-1.0, 0.0, 0.0]},
    "forces": {"gravity": [0.0, 0.0, 0.0]},
    "run": {"formulation": "lagrange", "integrator": "rk4", "dt": 0.001, "t_end": 1.0},
}

# GIMBAL_BODY with a field that scenario files no longer take.
DAMPED_BODY = {**GIMBAL_BODY, "name": "damped-body",
               "forces": {"gravity": [0.0, 0.0, 0.0], "builtin": {"name": "linear-damping", "coeff": 0.1}}}

# A body moving at 1e160 m/s: its twist is finite, its kinetic energy is not.
FAST_BODY = {
    "name": "fast-body",
    "inertia": {"mass": 1.0, "inertia": [1.0, 2.0, 2.5]},
    "initial": {"vel": [1e160, 0.0, 0.0]},
    "run": {"t_end": 0.05},
}


def runs(src: Path, offset_body: Path, pinned_body: Path, gimbal_body: Path, damped_body: Path,
         fast_body: Path) -> "list[tuple[str, list[str]]]":
    """(label, cli arguments) of every compared run; the shipped scenarios are read from ``src``."""
    out = [(f"simulate {name}", ["simulate", "--scenario", name, "--output", "out.csv"])
           for name in sorted(p.stem for p in (src / "unirigid" / "scenarios").glob("*.json"))]
    for name in ("euler-top", "dzhanibekov"):
        out += [(f"simulate {name} --formulation {f}",
                 ["simulate", "--scenario", name, "--formulation", f, "--output", "out.csv"]) for f in FORMULATIONS]
    # 20,000 steps do not divide by 7: the last row is the final step, off the stride.
    out.append(("simulate dzhanibekov --sample-every 7",
                ["simulate", "--scenario", "dzhanibekov", "--sample-every", "7", "--output", "out.csv"]))
    # 9,001 steps, each sampled: 9,002 rows, not a whole number of the CSV writer's blocks.
    out.append(("simulate dzhanibekov --t-end 9.001 --sample-every 1",
                ["simulate", "--scenario", "dzhanibekov", "--t-end", "9.001", "--sample-every", "1",
                 "--output", "out.csv"]))
    out += [(f"simulate euler-top --formulation {f} --integrator lie-euler",
             ["simulate", "--scenario", "euler-top", "--formulation", f, "--integrator", "lie-euler",
              "--output", "out.csv"]) for f in ("kirchhoff", "lagrange")]
    formulations = [arg for f in FORMULATIONS for arg in ("--formulation", f)]
    return out + [("compare euler-top", ["compare", "--scenario", "euler-top", *formulations]),
                  ("compare offset-body",
                   ["compare", "--scenario", str(offset_body), "--sample-every", "20", *formulations]),
                  ("simulate pinned-body", ["simulate", "--scenario", str(pinned_body), "--output", "out.csv"]),
                  ("validate", ["validate"])] + failing_runs(gimbal_body, damped_body, fast_body)


def failing_runs(gimbal_body: Path, damped_body: Path, fast_body: Path) -> "list[tuple[str, list[str]]]":
    """(label, cli arguments) of the runs that fail: their stderr lines and exit codes are compared."""
    pair = ["--formulation", "kirchhoff", "--formulation", "lagrange"]
    return [("simulate euler-top --dt -1",
             ["simulate", "--scenario", "euler-top", "--dt", "-1", "--output", "out.csv"]),
            ("simulate heavy-top-generic --formulation kirchhoff",
             ["simulate", "--scenario", "heavy-top-generic", "--formulation", "kirchhoff", "--output", "out.csv"]),
            ('simulate euler-top --output ""', ["simulate", "--scenario", "euler-top", "--output", ""]),
            ("simulate euler-top --t-end 0.01 --output /dev/full",
             ["simulate", "--scenario", "euler-top", "--t-end", "0.01", "--output", "/dev/full"]),
            ("simulate gimbal-body", ["simulate", "--scenario", str(gimbal_body), "--output", "out.csv"]),
            ("compare euler-top --formulation kirchhoff",
             ["compare", "--scenario", "euler-top", "--formulation", "kirchhoff"]),
            ("compare euler-top --tol -1", ["compare", "--scenario", "euler-top", *pair, "--tol", "-1"]),
            ("compare euler-top --t-end 1 --tol 1e-20",
             ["compare", "--scenario", "euler-top", *pair, "--t-end", "1", "--tol", "1e-20"]),
            ("compare gimbal-body", ["compare", "--scenario", str(gimbal_body), *pair]),
            ("validate --suite nope", ["validate", "--suite", "nope"]),
            ("simulate damped-body", ["simulate", "--scenario", str(damped_body), "--output", "out.csv"]),
            ("simulate fast-body --formulation newton-euler",
             ["simulate", "--scenario", str(fast_body), "--formulation", "newton-euler", "--output", "out.csv"])]


def run(src: Path, argv: "list[str]") -> "tuple[int, str, str, str]":
    """(exit code, stdout, stderr, CSV text or "") of one cli run from the tree at ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-m", "unirigid.cli", *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        csv = Path(work, "out.csv")
        return proc.returncode, proc.stdout, proc.stderr, csv.read_text() if csv.exists() else ""


def csv_changes(base: str, head: str) -> "list[str]":
    """Per column that differs: the largest absolute change and the number of changed values."""
    a, b = base.splitlines(), head.splitlines()
    if len(a) != len(b) or a[:1] != b[:1]:
        return [f"  csv: {len(a)} lines against {len(b)}, headers {a[:1]} and {b[:1]}"]
    lines = []
    header = a[0].split(",")
    rows = [(ra.split(","), rb.split(",")) for ra, rb in zip(a[1:], b[1:]) if ra != rb]
    for i, column in enumerate(header):
        changed = [abs(float(ra[i]) - float(rb[i])) for ra, rb in rows if ra[i] != rb[i]]
        if changed:
            lines.append(f"  csv column {column}: {len(changed)} values changed, largest by {max(changed):.3e}")
    return lines


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base_src, head_src = Path(argv[0]), Path(argv[1])
    report = []
    with tempfile.TemporaryDirectory() as tmp:
        bodies = (OFFSET_BODY, PINNED_BODY, GIMBAL_BODY, DAMPED_BODY, FAST_BODY)
        paths = [Path(tmp, f"{body['name']}.json") for body in bodies]
        for path, body in zip(paths, bodies):
            path.write_text(json.dumps(body))
        pairs = [(label, run(base_src, args), run(head_src, args)) for label, args in runs(head_src, *paths)]
    for label, base, head in pairs:
        if base == head:
            continue
        report.append(f"{label}:")
        if base[0] != head[0]:
            report.append(f"  exit code {base[0]} -> {head[0]}")
        for name, x, y in (("stdout", base[1], head[1]), ("stderr", base[2], head[2])):
            report += [f"  {name}: {p!r} -> {q!r}" for p, q in zip(x.splitlines(), y.splitlines()) if p != q]
            if len(x.splitlines()) != len(y.splitlines()):
                report.append(f"  {name}: {len(x.splitlines())} lines -> {len(y.splitlines())}")
        if base[3] != head[3]:
            report += csv_changes(base[3], head[3])
    print("\n".join(report) if report else "identical")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
