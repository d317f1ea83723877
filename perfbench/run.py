"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

Prints every metric by name with its unit and sample count, then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run is repeated under the layer ledger's timing wrappers and the
metrics are the per-layer ones (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [ROOT, SRC]

WORKLOADS = ("paper-cold", "paper-sharded", "api-hot", "serve-churn")


def run_workload(name: str, seed: int, seconds: int, trace: bool):
    if name in ("paper-cold", "paper-sharded"):
        from perfbench import paper

        return paper.run(name, seed, seconds, trace)
    if name == "api-hot":
        from perfbench import api_hot

        return api_hot.run(seed, seconds, trace)
    from perfbench import churn

    return churn.run(seed, seconds, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    # every temporary file (shard volume images, WAL probes) stays in the
    # checkout; child processes inherit TMPDIR
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        from perfbench.common import stop_children

        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass
    for line in result.summary_lines():
        print(line)
    print(result.to_json(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
