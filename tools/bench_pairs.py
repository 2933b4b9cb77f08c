"""Run the benchmark on two commits in alternating pairs and write a BENCH file.

Usage:
    python tools/bench_pairs.py BASE_REF HEAD_REF --pairs N --seconds S --traced K --out BENCH_<n>.json

Each side runs from a fresh ``git archive`` of its commit, so only committed
files are measured.  For every workload named in the head's BENCHMARK.json,
``perfbench/run.py --trace 0`` runs in N pairs with seeds SEED to SEED + N - 1;
odd pairs run the parent first, even pairs the change.  Then K ``--trace 1``
runs per side (seeds from TRACE_SEED, alternating which side goes first) give
the per-layer numbers.  The benchmark itself is run unchanged, one process at a time.

The output holds, for every metric and side, the median, the quartiles (numpy
linear percentiles), the IQR, n, min, max and every run; for each gated metric
also the bound, the pairs the change won and the ratio of the medians.  It
records the machine and both commits' git and source digests, and prints a
one-line summary per gated metric.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# Seeds of the first untraced pair and of the first traced run; fixed so that BENCH files compare.
SEED, TRACE_SEED = 9001, 9101
# A printed metric line of perfbench/run.py: name, value, unit.
LINE = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)")


def export(repo: Path, sha: str, dest: Path) -> None:
    """Unpack the tree of commit sha into dest."""
    tar = subprocess.run(["git", "-C", str(repo), "archive", sha], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its JSON result, provenance, and every printed metric line by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        if line.startswith("# provenance "):
            result["provenance"] = json.loads(line[len("# provenance "):])
        elif (m := LINE.match(line)) and not line.startswith("#"):
            try:
                printed[m.group(1)] = (float(m.group(2)), m.group(3))
            except ValueError:
                pass
    result["printed"] = printed
    return result


def stats(runs: list) -> dict:
    a = np.asarray(runs, dtype=float)
    q1, med, q3 = np.percentile(a, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1), "n": len(runs),
            "min": float(a.min()), "max": float(a.max()), "runs": [float(v) for v in runs]}


def compare(parent: list, change: list, better: str) -> dict:
    """Pairs the change won (ties count for neither) and the ratio of the medians."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_med = float(np.median(parent))
    return {"change_wins_pairs": int(wins), "ties": int(ties), "pairs": len(parent),
            "median_ratio_change_over_parent": float(np.median(change)) / p_med if p_med else None}


def workload_block(spec: dict, runs: dict, seeds: list) -> dict:
    """The end-to-end block of one workload from its untraced runs per side."""
    gated = {m["name"]: m for m in spec["end_to_end"]}
    metrics = {}
    for name, meta in gated.items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        metrics[name] = {"unit": meta["unit"], "better": meta["better"], "bound": meta["bound"],
                         **{side: stats(vals[side]) for side in SIDES},
                         **compare(vals["parent"], vals["change"], meta["better"])}
    # Printed lines the gate does not read, kept where every run of both sides printed them.
    ungated = set.intersection(*(set(r["printed"]) for side in SIDES for r in runs[side])) - set(gated)
    for name in sorted(ungated):
        metrics[f"{name} (ungated)"] = {"unit": runs["parent"][0]["printed"][name][1],
                                        **{side: stats([r["printed"][name][0] for r in runs[side]])
                                           for side in SIDES}}
    metrics["failed_ops"] = {**{side: [r["failed"] for r in runs[side]] for side in SIDES},
                             "correct": {side: [r["correct"] for r in runs[side]] for side in SIDES}}
    return {"seeds": seeds, "metrics": metrics}


def per_layer_block(spec: dict, runs: dict) -> dict:
    out = {}
    for meta in spec["per_layer"]:
        name = meta["name"]
        out[name] = {"unit": meta["unit"], "better": meta["better"],
                     **{side: stats([r["metrics"][name]["value"] for r in runs[side]]) for side in SIDES}}
    out["correct"] = {side: [r["correct"] for r in runs[side]] for side in SIDES}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base_ref")
    parser.add_argument("head_ref")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--traced", type=int, default=3, help="--trace 1 runs per side")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.traced < 0 or not args.seconds > 0:
        parser.error("--pairs must be at least 1, --traced at least 0 and --seconds positive")

    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True,
                               text=True).stdout.strip())
    shas = dict(zip(SIDES, (subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", f"{ref}^{{commit}}"],
                                           check=True, capture_output=True, text=True).stdout.strip()
                            for ref in (args.base_ref, args.head_ref))))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(repo, shas[side], trees[side])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]

        def alternate(name, i, seed, trace):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            out = {}
            for side in order:
                out[side] = run_once(trees[side], name, seed, args.seconds, trace)
                print(f"{name} seed {seed} trace {trace} {side}: "
                      f"steps_per_ref_s {out[side]['metrics'].get('steps_per_ref_s', {}).get('value', '-')}",
                      file=sys.stderr, flush=True)
            return out

        workloads, per_layer, provenance = {}, {}, {}
        for name in names:
            seeds = [SEED + i for i in range(args.pairs)]
            runs = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side, result in alternate(name, i, seed, 0).items():
                    runs[side].append(result)
                    provenance[side] = result["provenance"]
            workloads[name] = workload_block(spec, runs, seeds)
            traced = {side: [] for side in SIDES}
            for i in range(args.traced):
                for side, result in alternate(name, i, TRACE_SEED + i, 1).items():
                    traced[side].append(result)
            if args.traced:
                per_layer[name] = per_layer_block(spec, traced)

    prov = provenance["change"]
    doc = {
        "description": (
            f"perfbench/run.py (unchanged) on the parent and on the change, {args.pairs} alternating pairs per "
            f"workload (odd pairs run the parent first), seeds {SEED}-{SEED + args.pairs - 1}, "
            f"--seconds {args.seconds:g} --trace 0; then {args.traced} --trace 1 runs per side (seeds from "
            f"{TRACE_SEED}, alternating which side runs first), summarised in per_layer. Each side runs "
            "from a fresh git archive of its commit. Quartiles are numpy linear percentiles over the runs of "
            "each side. Written by tools/bench_pairs.py."),
        "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds <S> --trace <0|1>",
        "tool": " ".join(["python", "tools/bench_pairs.py", args.base_ref, args.head_ref, "--pairs", str(args.pairs),
                          "--seconds", f"{args.seconds:g}", "--traced", str(args.traced), "--out", Path(args.out).name]),
        **{side: {"git_sha": shas[side], "src_sha256": provenance[side]["src_sha256"]} for side in SIDES},
        "machine": {k: prov[k] for k in ("machine", "nproc", "cpus_usable", "python", "numpy", "scipy",
                                         "blas_threads") if k in prov} | {"platform": platform.platform()},
        "workloads": workloads,
        "per_layer": per_layer,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for name, block in workloads.items():
        for metric, m in block["metrics"].items():
            if "bound" in m:
                print(f"{name:<18} {metric:<20} parent {m['parent']['median']:<12.6g} (IQR {m['parent']['iqr']:.3g}) "
                      f"change {m['change']['median']:<12.6g} ratio {m['median_ratio_change_over_parent'] or 0:.4f} "
                      f"wins {m['change_wins_pairs']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
