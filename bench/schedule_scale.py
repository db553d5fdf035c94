"""Time and size the ``schedule`` artifacts at the benchmark's size and at l = 100 000.

    python3 bench/schedule_scale.py            # the pipedec of this checkout
    python3 bench/schedule_scale.py OTHER/src  # the pipedec under another checkout's src

The timeline is ``schedule --d 48 --dbar 30 --k 8 --p 0.7 --seed 5`` at
each l of ``LS``.  Per artifact (the identity check and the text, csv
and svg Gantt renderings) a row gives the minimum CPU seconds
(``time.process_time``) over ``REPEATS`` calls and the tracemalloc peak
of one more call, less what was traced before it, in MB and over the
output's length, with the output's md5 so that two checkouts can be
seen to write the same bytes.  For the renderings it also gives the
peak RSS of the whole command, ``python -m pipedec schedule ... --gantt
G`` with its output sent to /dev/null, as ``wait4`` reports it; these
commands run first, while this process is small, since Linux counts in a
child's peak the memory of the process that started it.  CPU
time leaves out the time the process waits for a core, but the
machine's speed still drifts, so compare two checkouts by running them
in turn, more than once.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import tracemalloc
from pathlib import Path

LS = (4096, 100_000)
REPEATS = 5
FLAGS = ["--d", "48", "--dbar", "30", "--k", "8", "--p", "0.7", "--seed", "5"]


def _command_rss_mb(src: Path, ell: int, gantt: str) -> float:
    """Peak RSS of one ``schedule --gantt`` command, in MB."""
    argv = [sys.executable, "-m", "pipedec", "schedule", *FLAGS, "--l", str(ell), "--gantt", gantt]
    env = {**os.environ, "PYTHONPATH": str(src)}
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        pid = os.posix_spawn(sys.executable, argv, env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, devnull, 1)])
    finally:
        os.close(devnull)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {os.waitstatus_to_exitcode(status)}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    src = src.resolve()
    gantt = {"text_gantt": "text", "events_to_csv": "csv", "svg_gantt": "svg"}
    rss = {(ell, name): _command_rss_mb(src, ell, flag) for ell in LS for name, flag in gantt.items()}
    sys.path.insert(0, str(src))
    from pipedec.core import DecodingConfig
    from pipedec.rng import Stream
    from pipedec.schedule import (
        build_schedule, events_to_csv, identity_report_to_json, svg_gantt, text_gantt,
        verify_identities,
    )
    from pipedec.stochastic import sample_match_sequence

    artifacts = {
        "verify_identities": lambda t: identity_report_to_json(verify_identities(t)),
        "text_gantt": text_gantt, "events_to_csv": events_to_csv, "svg_gantt": svg_gantt,
    }
    print(f"schedule {' '.join(FLAGS)}, pipedec from {src}")
    print(f"| l | artifact | CPU s, min of {REPEATS} | tracemalloc peak MB | peak / output "
          "| output md5 | command peak RSS MB |\n| --- | --- | --- | --- | --- | --- | --- |")
    for ell in LS:
        matches = sample_match_sequence(Stream.from_seed(5), 0.7, ell)
        timeline = build_schedule(DecodingConfig(48, 30, 8, ell), matches)
        for name, render in artifacts.items():
            times = []
            for _ in range(REPEATS):
                start = time.process_time()
                render(timeline)
                times.append(time.process_time() - start)
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            out = render(timeline)
            peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.stop()
            md5 = hashlib.md5(out.encode("utf-8")).hexdigest()
            # the identity report is not a rendering
            ratio = f"{peak / len(out):.1f}" if name in gantt else "-"
            peak_rss = f"{rss[ell, name]:.0f}" if name in gantt else "-"
            print(f"| {ell} | {name} | {min(times):.4f} | {peak / 2**20:.2f} | {ratio} "
                  f"| {md5} | {peak_rss} |", flush=True)


if __name__ == "__main__":
    main()
