"""Time ``load_traces`` on 50k-line planted traces of the line shapes the loader meets.

    python3 bench/load_shapes.py            # the pipedec of this checkout
    python3 bench/load_shapes.py OTHER/src  # the pipedec under another checkout's src

Each shape is the ``trace_log`` benchmark's planted trace (p = 0.6837,
k = 3, layer 20, 16 positions per example), written by ``save_traces``
and then altered as its row says.  A row gives the minimum CPU seconds
(``time.process_time``) over ``LOADS`` loads of the file; a load of the
shape that ends in a fault counts until its ParseError.  CPU time leaves
out the time the process waits for a core, but the machine's speed still
drifts, so compare two checkouts by running them in turn, more than once.
A row also gives the cyclic garbage collections that start during a load,
averaged over the loads and counted by a ``gc.callbacks`` hook, which
changes no collector state: a loader that keeps enough containers alive
at once to cross the gen-0 threshold shows there for every shape.
"""

from __future__ import annotations

import gc
import sys
import tempfile
import time
from pathlib import Path

N_LINES = 50_000
LOADS = 7
ID = '"example_id": "'


def _every(step: int, old: str, new: str):
    """An alteration that replaces ``old`` by ``new`` on every ``step``-th line."""
    return lambda lines: [
        line.replace(old, new, 1) if i % step == step - 1 else line for i, line in enumerate(lines)
    ]


SHAPES = {
    "ASCII ids, the trace_log shape": lambda lines: lines,
    "every id escaped": _every(1, ID, ID + "\\u00e9"),
    '"model": "x" on 1 line in 200': _every(200, '"final"', '"model": "x", "final"'),
    '"meta": {"m": "x"} on 1 line in 200': _every(200, '"final"', '"meta": {"m": "x"}, "final"'),
    '"model": "x" on every line': _every(1, '"final"', '"model": "x", "final"'),
    "a fault on the last line": lambda lines: lines[:-1] + ["{}\n"],
    'an escaped " in the id on 1 line in 200': _every(200, ID, ID + '\\"'),
    '"dir": "C:\\\\tmp\\\\" on 1 line in 200':
        _every(200, '"final"', '"dir": "C:\\\\tmp\\\\", "final"'),
}


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    from pipedec.trace import ParseError, load_traces, planted_trace, save_traces

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        save_traces(planted_trace(0.6837, N_LINES, 3, 0, 16, 1000, 20), path)
        planted = path.read_text().splitlines(keepends=True)
        print(f"load_traces of {N_LINES} lines, pipedec from {src}")
        print(f"| trace | CPU s, min of {LOADS} loads | collections per load |\n"
              "| --- | --- | --- |")
        collections = []

        def count(phase: str, info: dict) -> None:
            if phase == "start":
                collections.append(info["generation"])

        for shape, alter in SHAPES.items():
            path.write_text("".join(alter(planted)))
            times = []
            collections.clear()
            for _ in range(LOADS):
                gc.callbacks.append(count)
                start = time.process_time()
                try:
                    load_traces(path)
                except ParseError:
                    pass
                finally:
                    times.append(time.process_time() - start)
                    gc.callbacks.remove(count)
            print(f"| {shape} | {min(times):.3f} | {len(collections) / LOADS:.1f} |")


if __name__ == "__main__":
    main()
