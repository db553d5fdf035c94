"""The benchmark's three workloads: set-up, one timed cycle, and its output checks.

Every workload drives pipedec in this process, on one thread, in a closed
loop: the next call is issued only after the previous one has returned.
Calls go through module attributes (``trace.load_traces``, ``cli.main``),
so the traced run's wrappers see every call.  A cycle is the unit that is
repeated until the run's time is up; it is made of ops, and an op fails
when it raises, exits non-zero or gives a wrong output.

* ``trace_log``  -- write then read back one planted prediction log; the
  trace module does almost all of the work.
* ``decode_long`` -- long rollouts on a large mock model, pipelined and
  sequential; the mock model does almost all of the work, and its costs
  that grow with context length and vocabulary size are largest here.
* ``cli_session`` -- the README command set through ``pipedec.cli.main``;
  many tiny models, Monte Carlo, schedule replay and a small trace.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import statistics
import sys
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from pipedec import cli, mockmodel, trace  # noqa: E402
from pipedec.rng import Stream  # noqa: E402

DIGESTS_PATH = Path(__file__).with_name("cli_digests.json")
N_CASES = 64  # cli_session inputs are case seed % N_CASES; each case has pinned digests

SIZES = {
    "full": {
        "trace_positions": 50_000,
        "decode_rollouts": 8,
        "decode_ell": 512,
        "cli_trials": 200_000,
        "cli_schedule_l": 4096,
        "cli_log_positions": 20_000,
        "cli_verify_instances": 1000,
    },
    "tiny": {
        "trace_positions": 2_000,
        "decode_rollouts": 2,
        "decode_ell": 32,
        "cli_trials": 2_000,
        "cli_schedule_l": 64,
        "cli_log_positions": 500,
        "cli_verify_instances": 20,
    },
}

# trace_log: a planted log like a real early-exit model's, read as `pipedec matchrate --bucket`
TRACE_P, TRACE_K, TRACE_LAYER, TRACE_PER_EXAMPLE, TRACE_VOCAB = 0.6837, 3, 20, 16, 1000
# decode_long: a large model whose early ranking copies the final one at ~70% of positions
DECODE_VOCAB, DECODE_DEPTH, DECODE_BIAS, DECODE_PROMPT = 1024, 40, 0.7, 4
DECODE_DBAR, DECODE_K = 24, 3


@dataclass
class Cycle:
    """What one cycle measured and checked.

    Stage samples are kept twice: in seconds as measured, and normalized to
    the reference speed (see ``Speed``), which is what run.py reports.
    """

    samples: list[list[float]] = field(default_factory=lambda: [[], [], [], []])  # normalized
    raw: list[list[float]] = field(default_factory=lambda: [[], [], [], []])      # seconds
    wall: float = 0.0      # normalized time inside program calls, checks excluded
    raw_wall: float = 0.0  # the same in seconds
    ops: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)  # cli_session: digests per command

    def add(self, raw: list[float], normalized: list[float]) -> None:
        """Add one sample per stage slot; the wall time grows by their sum."""
        for i in range(4):
            self.raw[i].append(raw[i])
            self.samples[i].append(normalized[i])
        self.raw_wall += sum(raw)
        self.wall += sum(normalized)

    def record(self, label: str, problems: list[str]) -> None:
        self.ops += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)


# ----------------------------------------------------------- reference speed
#
# The host's speed drifts by up to ~40 % over tens of seconds, and not in the
# same way for all code: integer-heavy Python and memory-streaming numpy can
# slow at different times.  So every op is followed by a fixed reference
# kernel of the matching kind, written here so that no change to pipedec can
# move it.  A stage is reported as its time times nominal / (median time of
# the last WINDOW kernel runs); one kernel run is too short to stand for the
# speed over a whole op.  The nominal times are the kernels' median times on
# the 2-core Xeon VM this benchmark was written on, so normalized values read
# as seconds on that machine at its median speed.

NOMINAL_S = {"python": 0.0122, "numpy": 0.0195}
WINDOW = 8
_MASK = (1 << 64) - 1
_JSON_ROWS = [{"example_id": f"ex{i:06d}", "position": i % 16 + 1,
               "early_topk": [i, i + 1, i + 2], "final": i + 1, "layer": 20}
              for i in range(400)]


def _mix(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _python_kernel() -> None:
    z = 1
    for _ in range(6000):
        z = _mix(z)
    for row in _JSON_ROWS * 2:
        json.loads(json.dumps(row))


def _numpy_kernel() -> None:
    z = np.arange(1 << 21, dtype=np.uint64)
    for _ in range(2):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


class Speed:
    """Recent reference-kernel times, one window per kind."""

    def __init__(self, kinds: tuple[str, ...] = ("python",)) -> None:
        # only the kinds a workload uses: the numpy kernel's arrays would show in peak_rss_mb
        self._times = {kind: deque(maxlen=WINDOW) for kind in kinds}
        self.history: dict[str, list[float]] = {kind: [] for kind in kinds}

    def sample(self, kind: str, runs: int = 1) -> None:
        # with the collector off, garbage the program left behind cannot slow the kernel
        gc.disable()
        try:
            for _ in range(runs):
                t0 = perf_counter()
                _KERNELS[kind]()
                dt = perf_counter() - t0
                self._times[kind].append(dt)
                self.history[kind].append(dt)
        finally:
            gc.enable()

    def warm_up(self) -> None:
        """Fill every window, so that the first op is not scaled by one cold kernel run."""
        for kind in self._times:
            self.sample(kind, WINDOW)

    def scale(self, kind: str) -> float:
        """Factor from seconds to normalized seconds at the current speed."""
        return NOMINAL_S[kind] / statistics.median(self._times[kind])


class NullTracer:
    """Stands in for tracing.Tracer in untraced runs."""

    def op(self, label: str):
        return contextlib.nullcontext()


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ---------------------------------------------------------------- trace_log

@dataclass
class TraceLogState:
    seed: int
    n: int
    path: Path
    expected_hits: int
    speed: Speed = field(default_factory=Speed)


def trace_log_setup(seed: int, size: str, workdir: Path) -> TraceLogState:
    n = SIZES[size]["trace_positions"]
    hits = int((Stream.from_seed(seed, 0).uniforms(n) < TRACE_P).sum())
    return TraceLogState(seed, n, workdir / "trace_log.jsonl", hits)


def trace_log_cycle(st: TraceLogState, tracer=NullTracer()) -> Cycle:
    cycle = Cycle()
    try:
        with tracer.op("trace_log"):
            t0 = perf_counter()
            records = trace.planted_trace(TRACE_P, st.n, TRACE_K, st.seed,
                                          TRACE_PER_EXAMPLE, TRACE_VOCAB, TRACE_LAYER)
            t1 = perf_counter()
            trace.save_traces(records, st.path)
            t2 = perf_counter()
            loaded = trace.load_traces(st.path)
            t3 = perf_counter()
            rate = trace.match_rate(loaded, TRACE_K)
            trace.match_rate_by_bucket(loaded, TRACE_K, 4)
            trace.forecast_from_trace(loaded, TRACE_K, 40, 20, 128)
            t4 = perf_counter()
    except Exception as exc:
        cycle.record("trace_log", [_error(exc)])
        return cycle
    problems = []
    if loaded != records:
        problems.append("save -> load round trip changed the records")
    if rate.matches != st.expected_hits:
        problems.append(f"match_rate found {rate.matches} hits, {st.expected_hits} were planted")
    del records, loaded
    raw = [t1 - t0, t2 - t1, t3 - t2, t4 - t3]
    st.speed.sample("python", runs=3)
    scale = st.speed.scale("python")
    cycle.add(raw, [dt * scale for dt in raw])
    cycle.record("trace_log", problems)
    return cycle


# -------------------------------------------------------------- decode_long

@dataclass
class DecodeState:
    models: list
    prompts: list[tuple[int, ...]]
    ell: int
    speed: Speed = field(default_factory=Speed)


def decode_long_setup(seed: int, size: str, workdir: Path) -> DecodeState:
    sizes = SIZES[size]
    rr = random.Random(f"decode_long:{seed}")
    models, prompts = [], []
    for _ in range(sizes["decode_rollouts"]):
        models.append(mockmodel.MockModel(DECODE_VOCAB, DECODE_DEPTH, rr.getrandbits(63),
                                          bias=DECODE_BIAS))
        prompts.append(tuple(rr.randrange(1, DECODE_VOCAB) for _ in range(DECODE_PROMPT)))
    return DecodeState(models, prompts, sizes["decode_ell"])


def _decode_problems(ppd, seq, rate, ell: int) -> list[str]:
    d, d_bar, k = DECODE_DEPTH, DECODE_DBAR, DECODE_K
    n_runs = 1 + sum(1 for b in ppd.match_trace.bits if not b)
    problems = []
    if ppd.tokens != seq.tokens or len(seq.tokens) != ell:
        problems.append("pipelined tokens differ from sequential tokens")
    if ppd.main_layer_count != d_bar * ell + (d - d_bar) * n_runs:
        problems.append(f"main_layer_count {ppd.main_layer_count} != d_bar*ell + (d-d_bar)*N")
    if ppd.spec_layer_count != k * (d - d_bar) * ell:
        problems.append(f"spec_layer_count {ppd.spec_layer_count} != k*(d-d_bar)*ell")
    if rate.matches != sum(ppd.match_trace.bits):
        problems.append(f"emitted trace has {rate.matches} matches, match_trace has "
                        f"{sum(ppd.match_trace.bits)}")
    return problems


def decode_long_cycle(st: DecodeState, tracer=NullTracer()) -> Cycle:
    cycle = Cycle()
    for r, (model, prompt) in enumerate(zip(st.models, st.prompts)):
        try:
            with tracer.op("decode_long"):
                t0 = perf_counter()
                ppd = mockmodel.decode_ppd(model, prompt, st.ell, DECODE_DBAR, DECODE_K)
                t1 = perf_counter()
                seq = mockmodel.decode_sequential(model, prompt, st.ell)
                t2 = perf_counter()
                records = mockmodel.emit_trace(ppd)
                t3 = perf_counter()
                rate = trace.match_rate(records, DECODE_K)
                t4 = perf_counter()
        except Exception as exc:
            cycle.record(f"rollout {r}", [_error(exc)])
            continue
        raw = [t1 - t0, t2 - t1, t3 - t2, t4 - t3]
        st.speed.sample("python")
        scale = st.speed.scale("python")
        cycle.add(raw, [dt * scale for dt in raw])
        cycle.record(f"rollout {r}", _decode_problems(ppd, seq, rate, st.ell))
    return cycle


# -------------------------------------------------------------- cli_session

@dataclass
class CliState:
    case: int
    commands: list[tuple[str, int, list[str], Path | None]]  # name, stage (0 = none), argv, artifact
    expected: dict | None  # command name -> {"stdout": sha256, "artifact": sha256 | None}
    speed: Speed = field(default_factory=lambda: Speed(("python", "numpy")))


def _cli_commands(case: int, sizes: dict, workdir: Path, log: Path):
    sched = ["schedule", "--d", "48", "--dbar", "30", "--k", "8",
             "--l", str(sizes["cli_schedule_l"]), "--p", "0.7", "--seed", str(case)]
    cmds = [
        ("analyze", 0, ["analyze", "--d", "40", "--dbar", "20", "--k", "3", "--l", "128",
                        "--p", "0.6837"], None),
        ("sweep", 0, ["sweep", "--d", "40", "--dbar", "20", "--l", "128", "--k-list", "1,3,5",
                      "--p-from", "0.05", "--p-to", "0.95", "--p-steps", "19",
                      "--svg", str(workdir / "curve.svg")], workdir / "curve.svg"),
        ("simulate", 1, ["simulate", "--d", "40", "--dbar", "20", "--k", "3", "--l", "256",
                         "--p", "0.5", "--trials", str(sizes["cli_trials"]),
                         "--seed", str(case)], None),
    ]
    for form in ("svg", "csv", "text"):
        out = workdir / f"gantt.{form}"
        cmds.append((f"schedule-{form}", 2, sched + ["--gantt", form, "--out", str(out)], out))
    cmds.append(("matchrate", 3, ["matchrate", "--input", str(log), "--k", "3",
                                  "--bucket", "4"], None))
    cmds.append(("verify", 4, ["verify", "--instances", str(sizes["cli_verify_instances"]),
                               "--seed", str(case)], None))
    return cmds


def cli_session_setup(seed: int, size: str, workdir: Path, pinned: bool = True) -> CliState:
    sizes = SIZES[size]
    case = seed % N_CASES
    log = workdir / "matchrate.jsonl"
    trace.save_traces(trace.planted_trace(TRACE_P, sizes["cli_log_positions"], TRACE_K, case,
                                          layer=TRACE_LAYER), log)
    expected = (json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[size][case]
                if pinned else None)
    return CliState(case, _cli_commands(case, sizes, workdir, log), expected)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_ok(stdout: str) -> bool:
    try:
        return json.loads(stdout)["ok"] is True
    except (ValueError, KeyError, TypeError):
        return False


def cli_session_cycle(st: CliState, tracer=NullTracer()) -> Cycle:
    cycle = Cycle()
    raw, normalized = [0.0] * 5, [0.0] * 5
    for name, stage, argv, artifact in st.commands:
        if artifact is not None:
            artifact.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        problems = []
        with tracer.op("cli_session"):
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:
                code = None
                problems.append(_error(exc))
            dt = perf_counter() - t0
        st.speed.sample("python")
        st.speed.sample("numpy")
        raw[stage] += dt
        normalized[stage] += dt * st.speed.scale("numpy" if stage == 1 else "python")
        stdout = out.getvalue()
        if code is not None and code != 0:
            problems.append(f"exit code {code}: {err.getvalue().strip()[:200]}")
        if name.startswith("schedule") and code == 0 and not _report_ok(stdout):
            problems.append("schedule identity report is not ok")
        seen = {
            "stdout": _sha256(stdout.encode("utf-8")),
            "artifact": _sha256(artifact.read_bytes())
            if artifact is not None and artifact.exists() else None,
        }
        cycle.observed[name] = seen
        if st.expected is not None and seen != st.expected.get(name):
            problems.append(f"output digests {seen} differ from the pinned {st.expected.get(name)}")
        cycle.record(name, problems)
    cycle.add(raw[1:], normalized[1:])
    cycle.raw_wall += raw[0]  # analyze and sweep count in the wall time only
    cycle.wall += normalized[0]
    return cycle


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (seed, size, workdir) -> state
    cycle: Callable  # (state, tracer) -> Cycle


WORKLOADS = {
    "trace_log": Workload(trace_log_setup, trace_log_cycle),
    "decode_long": Workload(decode_long_setup, decode_long_cycle),
    "cli_session": Workload(cli_session_setup, cli_session_cycle),
}
