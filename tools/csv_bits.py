"""Compare the CSV files and printed lines of two source trees, bit for bit.

Usage: python tools/csv_bits.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of two checkouts.  Each of
these runs is made once per tree, with ``python -m unirigid.cli`` in a fresh
working directory:

* ``simulate`` of every shipped scenario with its own run settings (the
  default CSV);
* ``simulate --formulation`` lagrange, kirchhoff and newton-euler on
  euler-top and dzhanibekov;
* ``compare --scenario euler-top`` over those three formulations.

Prints "identical" when every CSV, printed line and exit code matches.
Otherwise it prints, per run that differs, the largest absolute change and
the number of changed values per CSV column, and the printed lines that
differ.  Exits 0 when identical, 1 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

FORMULATIONS = ("lagrange", "kirchhoff", "newton-euler")


def runs(src: Path) -> "list[tuple[str, list[str]]]":
    """(label, cli arguments) of every compared run; the shipped scenarios are read from ``src``."""
    out = [(f"simulate {name}", ["simulate", "--scenario", name, "--output", "out.csv"])
           for name in sorted(p.stem for p in (src / "unirigid" / "scenarios").glob("*.json"))]
    for name in ("euler-top", "dzhanibekov"):
        out += [(f"simulate {name} --formulation {f}",
                 ["simulate", "--scenario", name, "--formulation", f, "--output", "out.csv"]) for f in FORMULATIONS]
    compare = ["compare", "--scenario", "euler-top"]
    for f in FORMULATIONS:
        compare += ["--formulation", f]
    return out + [("compare euler-top", compare)]


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
    for label, args in runs(head_src):
        base, head = run(base_src, args), run(head_src, args)
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
