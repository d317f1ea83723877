"""Interleaved steadiness check: two sets of runs, interleaved, side by side.

Runs ``perfbench/run.py`` from two checkouts (``--a`` and ``--b``; by
default both are this checkout, which measures the benchmark's own
noise) in alternating order (A B B A A B ...), every run with its own
seed, and reports for every end-to-end metric: each set's median,
quartiles and spread (interquartile distance over median), the spread
of all runs together, the metric's bound from ``BENCHMARK.json``, and
the B-over-A median shift — next to the host's reference-loop time, so
host drift is never mistaken for a regression.

    python3 perfbench/steady.py --workloads paper-cold,api-hot --pairs 5

Seeds start at 1; the run length is ``run_seconds`` from
``BENCHMARK.json``.  Exits 1 when a spread of all runs exceeds its
bound or a median shift is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def one_run(root: str, workload: str, seed: int, seconds: int) -> tuple[dict, float, float]:
    """Metrics, host reference-loop ms and wall seconds of one run."""
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600, check=False,
    )
    wall = time.monotonic() - started
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    payload = json.loads(lines[-1])
    if not payload["correct"] or payload["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {lines[:-1]}")
    ref = next(
        float(line.split()[1]) for line in lines if line.startswith("host.ref_loop_ms")
    )
    return {k: v["value"] for k, v in payload["metrics"].items()}, ref, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", default=ROOT, help="checkout of set A")
    parser.add_argument("--b", default=ROOT, help="checkout of set B")
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        seed = 1
        for pair in range(args.pairs):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for side in order:
                root = args.a if side == "A" else args.b
                sets[side].append(one_run(root, workload, seed, seconds))
                seed += 1
        walls = [w for runs in sets.values() for _, _, w in runs]
        print(f"\n{workload}: {args.pairs} pairs, {seconds}s runs, "
              f"wall per run median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        refs = {s: quartiles([r for _, r, _ in runs]) for s, runs in sets.items()}
        for side in ("A", "B"):
            q1, q2, q3 = refs[side]
            print(f"  host.ref_loop_ms {side}: median {q2:.3f} [{q1:.3f}, {q3:.3f}]")
        for name, spec in metrics.items():
            bound = spec["bound"]
            line = [f"  {name:<16} bound {bound:.2f}"]
            medians = {}
            for side in ("A", "B", "all"):
                runs = sets["A"] + sets["B"] if side == "all" else sets[side]
                q1, q2, q3 = quartiles([m[name] for m, _, _ in runs])
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians[side] = q2
                line.append(
                    f"{side} {q2:.4g} [{q1:.4g}, {q3:.4g}] spread {spread:.3f}"
                )
            if spread > bound:
                ok = False
                line.append("SPREAD>BOUND")
            shift = medians["B"] / medians["A"] - 1
            worse = shift if spec["better"] == "lower" else -shift
            line.append(f"B/A {shift:+.3f}")
            if worse > bound:
                ok = False
                line.append("SHIFT>BOUND")
            print("  ".join(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
