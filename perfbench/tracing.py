"""Spans around pipedec's public calls, recorded from outside the package.

``Tracer.installed()`` replaces the functions in ``TARGETS`` on their
modules with timing wrappers for the duration of a traced run, so calls
made through ``cli`` and calls from inside the same module are caught; the
program files are not edited.  Each span keeps its name, start, end,
parent span and the workload op it belongs to.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the time covered
by its child spans; a root span (``op.<workload>``) is one op of the
workload, and its self time is time that no layer span accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import resource
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def current_rss_mb() -> float:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# Count hooks see the bound arguments and the result of the outermost call of a span name.

def _count_load(tracer: "Tracer", args: dict, records) -> None:
    tracer.counts["trace.records"] += len(records)
    source = args["source"]
    if isinstance(source, (str, os.PathLike)):
        tracer.counts["trace.jsonl_bytes"] += os.path.getsize(source)
    tracer.rss_after_load_mb = max(tracer.rss_after_load_mb, current_rss_mb())


def _count_ppd(tracer: "Tracer", args: dict, result) -> None:
    c, n, bits = tracer.counts, len(result.tokens), result.match_trace.bits
    c["mockmodel.tokens"] += n
    c["mockmodel.main_layers"] += result.main_layer_count
    c["mockmodel.spec_layers"] += result.spec_layer_count
    c["match_bits"] += len(bits)
    c["matches"] += sum(bits)
    c["k_tokens"] += args["k"] * n
    c["d_tokens"] += args["model"].depth * n


def _count_schedule(tracer: "Tracer", args: dict, timeline) -> None:
    c = tracer.counts
    subs = [e for e in timeline.events if e.process_id > 0]
    c["schedule.timelines"] += 1
    c["schedule.events"] += len(timeline.events)
    c["schedule.makespan"] += timeline.makespan
    c["sub_events"] += len(subs)
    c["sub_events_useful"] += sum(1 for e in subs if not e.discarded)


def _count_monte_carlo(tracer: "Tracer", args: dict, summary) -> None:
    tracer.counts["trials"] += args["trials"]
    tracer.counts["draws"] += args["trials"] * (args["config"].ell - 1)


# module, attribute, span name, count hook
TARGETS = (
    ("pipedec.trace", "planted_trace", "trace.planted_trace", None),
    ("pipedec.trace", "save_traces", "trace.save_traces", None),
    ("pipedec.trace", "load_traces", "trace.load_traces", _count_load),
    ("pipedec.trace", "match_rate", "trace.match_rate", None),
    ("pipedec.trace", "match_rate_by_bucket", "trace.match_rate_by_bucket", None),
    ("pipedec.trace", "forecast_from_trace", "trace.forecast", None),
    ("pipedec.mockmodel", "decode_ppd", "mockmodel.decode_ppd", _count_ppd),
    ("pipedec.mockmodel", "decode_sequential", "mockmodel.decode_sequential", None),
    ("pipedec.mockmodel", "emit_trace", "mockmodel.emit_trace", None),
    ("pipedec.mockmodel", "random_instance", "mockmodel.random_instance", None),
    ("pipedec.mockmodel", "exactness_counterexample", "mockmodel.exactness_counterexample", None),
    ("pipedec.stochastic", "monte_carlo", "stochastic.monte_carlo", _count_monte_carlo),
    ("pipedec.stochastic", "counter_uniforms", "rng.counter_uniforms", None),
    ("pipedec.stochastic", "sample_match_sequence", "stochastic.sample_match_sequence", None),
    ("pipedec.schedule", "build_schedule", "schedule.build_schedule", _count_schedule),
    ("pipedec.schedule", "verify_identities", "schedule.verify_identities", None),
    ("pipedec.schedule", "occupancy_profile", "schedule.occupancy_profile", None),
    ("pipedec.schedule", "text_gantt", "schedule.text_gantt", None),
    ("pipedec.schedule", "events_to_csv", "schedule.events_to_csv", None),
    ("pipedec.schedule", "svg_gantt", "schedule.svg_gantt", None),
    ("pipedec.analytic", "tradeoff_sweep", "analytic.tradeoff_sweep", None),
    ("pipedec.cli", "main", "cli.main", None),
)

# span name -> per-layer metric reporting its self time per cycle; the sampling
# span behind `schedule --p` only attributes time
SELF_TIME_METRICS = {span: span + "_s" for _, _, span, _ in TARGETS
                     if span != "stochastic.sample_match_sequence"}
SELF_TIME_METRICS["cli.main"] = "cli.self_s"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index | None, op id]
        self.counts: Counter = Counter()
        self.rss_after_load_mb = 0.0
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._n_ops = 0

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span of one workload op; the spans opened inside carry its id."""
        self._op, self._n_ops = self._n_ops, self._n_ops + 1
        span = self._open("op." + label)
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def wrap(self, name: str, fn, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a function calling itself (load_traces opens its path, then recurses) is counted once
            outer = not self._stack or self.spans[self._stack[-1]][0] != name
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if outer:
                    self.counts["raised." + name] += 1
                raise
            finally:
                self._close(span)
            if hook is not None and outer:
                hook(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target with its wrapper; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, span_name, hook in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.skipped.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self time and inclusive time per span name (inclusive counts outermost spans only)."""
        own: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, self.self_times()):
            name, start, end, parent, _ = span
            own[name] += t
            if parent is None or self.spans[parent][0] != name:
                incl[name] += end - start
        return own, incl

    def write(self, path: Path) -> None:
        """One JSON object per span; times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((name, start, end, parent, op), own) in enumerate(
                    zip(self.spans, self.self_times())):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "self": own, "parent": parent,
                                     "op": op}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Per-layer metrics of a traced phase of ``cycles`` cycles (times and counts per cycle)."""
    own, incl = tracer.totals()
    c = tracer.counts
    m = {metric: own.get(span, 0.0) / cycles for span, metric in SELF_TIME_METRICS.items()}
    m["unattributed_s"] = sum(t for name, t in own.items() if name.startswith("op.")) / cycles
    m["trace.records"] = c["trace.records"] / cycles
    m["trace.jsonl_bytes"] = c["trace.jsonl_bytes"] / cycles
    m["trace.records_rejected"] = c["raised.trace.load_traces"] / cycles
    m["trace.rss_after_load_mb"] = tracer.rss_after_load_mb
    for name in ("mockmodel.tokens", "mockmodel.main_layers", "mockmodel.spec_layers"):
        m[name] = c[name] / cycles
    m["mockmodel.match_rate"] = _ratio(c["matches"], c["match_bits"])
    m["mockmodel.spec_useful_ratio"] = _ratio(c["matches"], c["k_tokens"])
    m["mockmodel.time_unit_ratio"] = _ratio(c["mockmodel.main_layers"], c["d_tokens"])
    m["mockmodel.wall_ratio"] = _ratio(incl["mockmodel.decode_ppd"],
                                       incl["mockmodel.decode_sequential"])
    m["stochastic.trials_per_s"] = _ratio(c["trials"], incl["stochastic.monte_carlo"])
    m["rng.draws_per_s"] = _ratio(c["draws"], incl["rng.counter_uniforms"])
    m["schedule.events"] = _ratio(c["schedule.events"], c["schedule.timelines"])
    m["schedule.makespan"] = _ratio(c["schedule.makespan"], c["schedule.timelines"])
    m["schedule.useful_spec_ratio"] = _ratio(c["sub_events_useful"], c["sub_events"])
    return m


def _probe_cases() -> dict:
    from pipedec import mockmodel

    small = mockmodel.MockModel(64, 40, seed=11)
    large = mockmodel.MockModel(1024, 40, seed=11)
    state = mockmodel.HiddenState(0x9E3779B97F4A7C15)
    ctx64 = [1 + t % 63 for t in range(64)]
    ctx512 = [1 + t % 1023 for t in range(512)]
    return {
        "mockmodel.forward_layer_us": lambda: mockmodel.forward_layer(large, state, 7, 12345),
        "mockmodel.prefix_digest_us.ctx64": lambda: mockmodel.prefix_digest(large, ctx64),
        "mockmodel.prefix_digest_us.ctx512": lambda: mockmodel.prefix_digest(large, ctx512),
        "mockmodel.early_topk_us.v64": lambda: mockmodel.early_topk(small, state, 3),
        "mockmodel.early_topk_us.v1024": lambda: mockmodel.early_topk(large, state, 3),
        "mockmodel.final_token_us.v1024": lambda: mockmodel.final_token(large, state),
        "mockmodel.extend_digest_us": lambda: mockmodel.extend_digest(large, 12345, 17),
    }


def probes(budget_s: float = 0.02, repeats: int = 5) -> dict[str, float]:
    """Microseconds per call of mock-model functions at fixed sizes (median of repeats).

    A probe whose function is gone or has changed its signature is left out;
    the caller reports it as 0.
    """
    out = {}
    try:
        cases = _probe_cases()
    except Exception as exc:  # the probed API changed; per-layer metrics carry no bound
        print(f"probes unavailable: {exc!r}", file=sys.stderr)
        return {}
    for name, fn in cases.items():
        try:
            t0 = perf_counter()
            fn()
            number = max(1, int(budget_s / max(perf_counter() - t0, 1e-7)))
            per_call = []
            for _ in range(repeats):
                t0 = perf_counter()
                for _ in range(number):
                    fn()
                per_call.append((perf_counter() - t0) / number)
            out[name] = statistics.median(per_call) * 1e6
        except Exception as exc:
            print(f"probe {name} failed: {exc!r}", file=sys.stderr)
            out[name] = 0.0
    return out

