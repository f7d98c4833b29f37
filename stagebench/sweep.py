#!/usr/bin/env python3
"""Run the stage benchmark over several seeds, and compare result files.

    python3 stagebench/sweep.py --out a.jsonl [--workloads dataset,train] [--seeds 1-10] [--trace 1]
    python3 stagebench/sweep.py --compare a.jsonl [b.jsonl]

A result file is JSON lines: first the machine record, then one line per run
with its workload, seed, trace flag and the result line run.py printed. The
compare mode prints, per workload and metric, each file's median and first
and third quartiles side by side, the quartile spread as a share of the
median, and the change of the median from the first file to the second.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def sweep(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    with open(args.out, "a") as out:
        out.write(json.dumps({"machine": machine()}) + "\n")
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                if proc.returncode != 0 or not result or not result["correct"]:
                    status = 1
                    print(proc.stderr, file=sys.stderr)
                out.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                      "result": result}) + "\n")
                out.flush()
                tail = proc.stderr.strip().splitlines()[-1:]
                print(f"{workload} seed {seed}: exit {proc.returncode}; {' '.join(tail)}",
                      file=sys.stderr)
    return status


def load(path) -> tuple[dict, dict]:
    """(machine record, {(workload, trace): [result, ...]}) of a result file."""
    record, runs = {}, {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        if "machine" in row:
            record = row["machine"]
        elif row["result"]:
            runs.setdefault((row["workload"], row["trace"]), []).append(row["result"])
    return record, runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(paths: list[str]) -> int:
    files = [load(p) for p in paths]
    for path, (record, _) in zip(paths, files):
        print(f"# {path}: {json.dumps(record)}")
    keys = sorted({k for _, runs in files for k in runs})
    for workload, trace in keys:
        print(f"\n## {workload}{' (traced)' if trace else ''}")
        head = "".join(f" | {Path(p).name[:24]:>24s} med [q1, q3] spread" for p in paths)
        print(f"{'metric':44s}{head}" + (" | change" if len(paths) == 2 else ""))
        groups = [runs.get((workload, trace), []) for _, runs in files]
        for g, path in zip(groups, paths):
            if g:
                fails = [r["failed"] / r["attempted"] for r in g]
                label = f"failed share ({Path(path).name})"
                print(f"{label:44s} | {min(fails):.6f}..{max(fails):.6f} over {len(g)} runs")
        names = [n for g in groups for r in g[:1] for n in r["metrics"]]
        for name in dict.fromkeys(names):
            cells, medians = [], []
            for g in groups:
                vals = [r["metrics"][name]["value"] for r in g if name in r["metrics"]]
                if not vals:
                    cells.append(f" | {'-':>45s}")
                    medians.append(None)
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / abs(med) if med else 0.0
                cells.append(f" | {med:11.5g} [{q1:.5g}, {q3:.5g}] {100 * spread:5.1f}%")
                medians.append(med)
            unit = next(r["metrics"][name]["unit"]
                        for g in groups for r in g if name in r["metrics"])
            line = f"{name + ' (' + unit + ')':44s}" + "".join(cells)
            if len(paths) == 2 and None not in medians and medians[0]:
                line += f" | {100 * (medians[1] / medians[0] - 1):+6.1f}%"
            print(line)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="result file to append runs to")
    ap.add_argument("--workloads", default="", help="comma list (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    ap.add_argument("--seconds", type=float, default=0,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs="+", metavar="RESULTS", help="one or two result files")
    args = ap.parse_args()
    if args.compare:
        return compare(args.compare)
    if not args.out:
        ap.error("--out or --compare is required")
    return sweep(args)


if __name__ == "__main__":
    sys.exit(main())
