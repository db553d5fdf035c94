"""Run every workload once and print its metrics, per workload, with their units.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--trace 0|1]

Each workload runs in its own process (``run.py``), so set-up time and
peak memory are per workload.  Exits 1 if a run fails or any op fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in metrics.STAGES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload}: exit {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        if json.loads(lines[-1])["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
