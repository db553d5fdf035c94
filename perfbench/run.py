"""Run one workload of the pipedec benchmark and print its metrics.

    python3 perfbench/run.py --workload trace_log --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload repeats its cycle in a closed loop on one thread
for ``--seconds`` seconds.  With ``--trace 0`` the last line of stdout is
a JSON object with the end-to-end metrics; with ``--trace 1`` half of the
time runs untraced and half traced, and the object holds the per-layer
metrics.  A record of the run (machine, every metric with its unit and its
stated interactions, failures) is written to ``perfbench-out/``, and a
traced run also writes its spans there.  The exit code is 0 when the run
measured something, whether or not every op passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "perfbench-out"
SETUP_REPEATS = 7
# the yardstick for setup_s, and its median time on the 2-core Xeon VM this was written on
REFERENCE_START = "import json, numpy; print('ready', flush=True)"
NOMINAL_START_S = 0.155


def machine_record() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_1m_start": os.getloadavg()[0]}


def _spawn_until_ready(argv: list[str]) -> float:
    """Seconds from spawning ``argv`` to its first line, which must be ``ready``."""
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as child:
        ready = child.stdout.readline()
        dt = perf_counter() - t0
        _, err = child.communicate(timeout=120)
    if ready.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode}): {err.strip()}")
    return dt


def measure_setup(workload: str, seed: int, size: str, workdir: Path) -> float:
    """Median time from spawning a cold interpreter to its workload inputs being built.

    Each probe is followed by a reference cold start (interpreter, json and
    numpy, no pipedec), and the probe is reported as its ratio to that start
    times NOMINAL_START_S.  A reference kernel run in this process would not
    do: process start-up is page-fault and loader work, and the child may
    run on the other core.
    """
    ratios = []
    for i in range(SETUP_REPEATS):
        child_dir = workdir / f"setup{i}"
        child_dir.mkdir()
        probe = _spawn_until_ready([sys.executable, str(HERE / "setup_probe.py"), workload,
                                    str(seed), size, str(child_dir)])
        ratios.append(probe / _spawn_until_ready([sys.executable, "-c", REFERENCE_START]))
    return statistics.median(ratios) * NOMINAL_START_S


def closed_loop(cycle, state, seconds: float, tracer) -> list:
    """Repeat ``cycle`` until ``seconds`` have passed (at least once)."""
    state.speed.warm_up()
    cycles = []
    deadline = perf_counter() + seconds
    while not cycles or perf_counter() < deadline:
        cycles.append(cycle(state, tracer))
    return cycles


def stage_series(cycles, raw: bool = False) -> dict[str, list[float]]:
    """Samples of each stage slot (one per op or cycle) and the wall time of each cycle.

    Normalized to the reference speed unless ``raw``, which gives seconds as measured.
    """
    series = {f"stage{i + 1}_s": [dt for c in cycles for dt in (c.raw if raw else c.samples)[i]]
              for i in range(4)}
    series["wall_s"] = [c.raw_wall if raw else c.wall for c in cycles if c.samples[0]]
    if not series["wall_s"]:
        raise RuntimeError("no op of the workload completed; nothing was measured")
    return series


def medians(series: dict[str, list[float]]) -> dict[str, float]:
    return {name: statistics.median(values) for name, values in series.items()}


def quartiles(series: dict[str, list[float]]) -> dict[str, dict]:
    out = {}
    for name, values in series.items():
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"n": len(values), "q1": q[0], "median": q[1], "q3": q[2]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(metrics.STAGES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's self-tests")
    args = parser.parse_args(argv)

    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import pipedec from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(workloads.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: pipedec was imported from {workloads.cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import tracing

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        machine = machine_record()
        workload = workloads.WORKLOADS[args.workload]
        if args.trace == 0:
            setup_s = measure_setup(args.workload, args.seed, args.size, workdir)
            state = workload.setup(args.seed, args.size, workdir)
            cycles = closed_loop(workload.cycle, state, args.seconds, workloads.NullTracer())
            series = stage_series(cycles)
            values = medians(series)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = metrics.E2E_UNITS
            view = metrics.issue_view(args.workload, values, workloads.SIZES[args.size])
            view.update({f"raw_{name}": (v, "s")
                         for name, v in medians(stage_series(cycles, raw=True)).items()})
            view.update({f"reference_{kind}_s": (statistics.median(times), "s")
                         for kind, times in state.speed.history.items()})
        else:
            state = workload.setup(args.seed, args.size, workdir)
            plain = closed_loop(workload.cycle, state, args.seconds / 2, workloads.NullTracer())
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = closed_loop(workload.cycle, state, args.seconds / 2, tracer)
            values = tracing.layer_metrics(tracer, len(traced))
            values.update(tracing.probes())
            values["tracing_overhead_ratio"] = (statistics.median(stage_series(traced)["wall_s"])
                                                / statistics.median(stage_series(plain)["wall_s"]))
            cycles = plain + traced
            units = metrics.LAYER_UNITS
            view = {}
            if tracer.skipped:
                print(f"not traced (missing): {', '.join(tracer.skipped)}", file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    machine["loadavg_1m_end"] = os.getloadavg()[0]
    attempted = sum(c.ops for c in cycles)
    failed = sum(c.failed for c in cycles)
    failures = [f for c in cycles for f in c.failures]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    result = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
              for name, unit in units.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "cycles": len(cycles), "machine": machine,
        "stages": metrics.STAGES[args.workload],
        "derived": {k: {"value": v, "unit": u} for k, (v, u) in view.items()},
        "metrics": result, "failures": failures,
        "samples": {} if args.trace else quartiles(series),
    }
    if args.trace:
        stated = metrics.interactions()
        for name, entry in result.items():
            entry.update(stated[name])
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                                 encoding="utf-8")

    print(f"machine {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: {len(cycles)} cycles, "
          f"ops {attempted}, ops_failed {failed}")
    for name, entry in {**record["derived"], **result}.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": e["value"], "unit": e["unit"]} for name, e in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
