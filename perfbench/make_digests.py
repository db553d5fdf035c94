"""Write cli_digests.json: the output digests cli_session checks against.

    python3 perfbench/make_digests.py

Runs every cli_session case once, at both sizes, and stores the sha256 of
each command's stdout and artifact.  Run it only at a commit whose outputs
are the reference; the benchmark then fails any op whose bytes differ.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

OUT = workloads.ROOT / "perfbench-out"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    table = {}
    for size in ("full", "tiny"):
        table[size] = []
        for case in range(workloads.N_CASES):
            workdir = Path(tempfile.mkdtemp(prefix="digests-", dir=OUT))
            try:
                state = workloads.cli_session_setup(case, size, workdir, pinned=False)
                cycle = workloads.cli_session_cycle(state)
            finally:
                shutil.rmtree(workdir)
            if cycle.failed:
                print(f"case {case} ({size}) failed: {cycle.failures}", file=sys.stderr)
                return 1
            table[size].append(cycle.observed)
            print(f"{size} case {case} done", flush=True)
    workloads.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
