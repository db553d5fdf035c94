"""A/B-run the benchmark: a base revision against the committed working tree, in ten pairs.

    python3 bench/ab.py --base HEAD~1 --out BENCH_<n>.json
    python3 bench/ab.py --base main --seeds 101-110 --out BENCH_<n>.json

Run from anywhere inside a git checkout whose tracked files are all
committed, so that the head commit names the code that is measured; the
script refuses to run otherwise.  ``--base REV`` is checked out into a
temporary ``git worktree``, which is removed again when the script ends,
however it ends.  For every workload of ``BENCHMARK.json`` and each of
``PAIRS`` pairs, its command (``perfbench/run.py --trace 0``, for its
``run_seconds``) runs once in the base checkout and once in the working
tree, with the same seed; the side that goes first alternates from pair
to pair, so a drift in machine speed does not favour one side.

One record is appended to the ``--out`` JSON file, which holds a list of
records; records already in the file are kept as they are.  A record
holds the machine, both revisions, each tree's ``src/**/*.py`` line
count (``src_lines``), the seeds and, per workload and
end-to-end metric, the per-pair values, each side's median and
quartiles, the count of pairs the working tree won and a verdict against
the metric's ``BENCHMARK.json`` bound (see ``summarize``).  Per workload
it also keeps the ``derived`` table of each run's result file
(``perfbench-out/result-<workload>-seed<seed>-trace0.json``, read in the
tree that ran it before the base worktree is removed): the raw stage
times and reference kernel medians, per side and per pair.  The exit code
is 0 when the record was written, whatever its verdict; 1 when a
benchmark run failed, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10        # pairs per workload; fewer pairs never show a gain
GAIN_SHARE = 0.9  # a gain is shown when the working tree wins at least this share of pairs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Compare one metric's per-pair values, base against head (the working tree).

    ``better`` is "lower" or "higher" and ``bound`` the relative worsening
    of the median that the benchmark allows.  The verdict is the first of:

    * ``worse``: head's median is worse than base's by more than ``bound``;
    * ``better``: there are at least ``PAIRS`` pairs, head wins at least
      ``GAIN_SHARE`` of them (ties count for neither side) and the medians
      differ, in head's favour, by more than base's interquartile range;
    * ``unresolved``: either side's interquartile range exceeds ``bound``
      times its median, and not every head value beats every base value;
    * ``within bound``.
    """
    if len(base) != len(head) or not base:
        raise ValueError("base and head need one value per pair, at least one pair")
    sign = 1.0 if better == "lower" else -1.0  # sign * (head - base) > 0 means head is worse
    bq1, bmed, bq3 = _quartiles(base)
    hq1, hmed, hq3 = _quartiles(head)
    change = (hmed - bmed) / bmed if bmed else (0.0 if hmed == bmed else math.inf)
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    spread = max((q3 - q1) / abs(med) if med else 0.0
                 for q1, med, q3 in ((bq1, bmed, bq3), (hq1, hmed, hq3)))
    if sign * change > bound:
        verdict = "worse"
    elif (len(base) >= PAIRS and wins >= math.ceil(GAIN_SHARE * len(base))
          and sign * (bmed - hmed) > bq3 - bq1):
        verdict = "better"
    elif spread > bound and not all(sign * (h - b) < 0 for h in head for b in base):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "base": base, "head": head,
        "base_quartiles": [bq1, bmed, bq3], "head_quartiles": [hq1, hmed, hq3],
        "change": change, "wins": wins, "pairs": len(base), "spread": spread,
        "better": better, "bound": bound, "verdict": verdict,
    }


def workload_verdict(metrics: dict[str, dict], base_ops: dict, head_ops: dict) -> dict:
    """Pass unless a metric is worse or unresolved, or head failed a larger share of ops."""
    reasons = [f"{name} {m['verdict']}" for name, m in metrics.items()
               if m["verdict"] in ("worse", "unresolved")]
    share = {side: ops["failed"] / ops["attempted"] if ops["attempted"] else 1.0
             for side, ops in (("base", base_ops), ("head", head_ops))}
    if share["head"] > share["base"]:
        reasons.append(f"failed ops share {share['head']:.4g} > base {share['base']:.4g}")
    return {"verdict": "fail" if reasons else "pass", "reasons": reasons,
            "gains": [name for name, m in metrics.items() if m["verdict"] == "better"]}


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON list in ``path``; the records already there stay as read."""
    records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    if not isinstance(records, list):
        raise ValueError(f"{path} does not hold a JSON list of records")
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(records + [record], indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    # nproc counts the host's CPUs; cpus_usable the ones this process may run on (all of
    # them where the platform has no affinity call)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": os.cpu_count(), "cpus_usable": usable,
            "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def _run_once(command: list[str], tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its result line (correct, attempted, failed, metrics)
    and, as ``derived``, the values of the result file's ``derived`` table."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    path = tree / "perfbench-out" / f"result-{workload}-seed{seed}-trace0.json"
    derived = json.loads(path.read_text(encoding="utf-8")).get("derived", {})
    result["derived"] = {name: entry["value"] for name, entry in derived.items()}
    return result


def derived_values(runs: dict[str, list[dict]]) -> dict[str, dict]:
    """Per ``derived`` name (raw stage times, reference kernel medians): each side's per-pair
    values, None where a run lacks the name, and the median of the values present."""
    names = sorted({name for rs in runs.values() for r in rs for name in r["derived"]})
    table = {}
    for name in names:
        table[name] = {}
        for side, rs in runs.items():
            values = [r["derived"].get(name) for r in rs]
            present = [v for v in values if v is not None]
            table[name][side] = values
            table[name][f"{side}_median"] = statistics.median(present) if present else None
    return table


def _workload_record(bench: dict, runs: dict[str, list[dict]]) -> dict:
    """Ops, per-metric summaries and verdict of one workload's base and head runs."""
    ops = {side: {"attempted": sum(r["attempted"] for r in rs),
                  "failed": sum(r["failed"] for r in rs)} for side, rs in runs.items()}
    metrics = {}
    for m in bench["end_to_end"]:
        base, head = ([r["metrics"][m["name"]]["value"] for r in runs[side]]
                      for side in ("base", "head"))
        metrics[m["name"]] = summarize(base, head, m["better"], m["bound"])
    return {"ops": ops, "metrics": metrics, "derived": derived_values(runs),
            **workload_verdict(metrics, ops["base"], ops["head"])}


def src_lines(tree: Path) -> int:
    """Line count of the Python files under ``tree``'s ``src/``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def _seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        return list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    root = Path(_git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--seeds", type=_seed_range, default=list(range(1, PAIRS + 1)),
                        help=f"A-B, {PAIRS} seeds: pair i runs seed A+i (default 1-{PAIRS})")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to append to")
    args = parser.parse_args(argv)
    if len(args.seeds) != PAIRS:
        parser.error(f"--seeds must name {PAIRS} seeds, got {len(args.seeds)}")
    try:
        base_commit = _git(root, "rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"--base: unknown revision {args.base!r}")
    if _git(root, "status", "--porcelain", "--untracked-files=no"):
        parser.error("tracked files differ from HEAD; commit them so the record names the code")

    seconds = bench["run_seconds"]
    record = {
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": _machine(),
        "base": {"rev": args.base, "commit": base_commit},
        "head": {"commit": _git(root, "rev-parse", "HEAD")},
        "command": bench["command"], "seconds": seconds, "seeds": args.seeds,
        "first": ["base" if i % 2 == 0 else "head" for i in range(PAIRS)],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base_tree = Path(tmp) / "base"
        _git(root, "worktree", "add", "--detach", str(base_tree), base_commit)
        try:
            trees = {"base": base_tree, "head": root}
            record["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
            for workload in (w["name"] for w in bench["workloads"]):
                runs: dict[str, list[dict]] = {"base": [], "head": []}
                for seed, first in zip(args.seeds, record["first"]):
                    for side in (first, "head" if first == "base" else "base"):
                        runs[side].append(_run_once(bench["command"], trees[side], workload,
                                                    seed, seconds))
                        print(f"{workload} seed {seed} {side}: "
                              f"wall_s {runs[side][-1]['metrics']['wall_s']['value']:.4g}",
                              file=sys.stderr, flush=True)
                record["workloads"][workload] = _workload_record(bench, runs)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            for cleanup in (["remove", "--force", str(base_tree)], ["prune"]):
                subprocess.run(["git", "-C", str(root), "worktree", *cleanup], capture_output=True)
    record["verdict"] = ("pass" if all(w["verdict"] == "pass"
                                       for w in record["workloads"].values()) else "fail")
    append_record(args.out, record)
    for workload, w in record["workloads"].items():
        print(f"{workload}: {w['verdict']} {'; '.join(w['reasons'])}".rstrip())
        for name, m in w["metrics"].items():
            print(f"  {name:12s} base {m['base_quartiles'][1]:.4g} "
                  f"head {m['head_quartiles'][1]:.4g} ({m['change']:+.1%}) "
                  f"wins {m['wins']}/{m['pairs']} {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
