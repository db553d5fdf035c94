"""Child process timed by run.py for ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed> <size> <workdir>

Starts cold, imports pipedec.cli (through ``workloads``), builds the
workload's inputs in ``workdir`` and prints ``ready``.
"""

import sys
from pathlib import Path

import workloads

name, seed, size, workdir = sys.argv[1:5]
workloads.WORKLOADS[name].setup(int(seed), size, Path(workdir))
print("ready", flush=True)
