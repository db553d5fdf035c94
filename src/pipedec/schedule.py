"""Layer-granular reconstruction of the pipelined decoding schedule.

The simulator replays the decoding state machine over an explicit match
sequence and records one event per contiguous layer range:

* at a run start the main process computes layers 1..d_bar from scratch;
  after a match it resumes at layer d-d_bar+1 from the handed-off state
  and computes up to d_bar;
* the last d-d_bar layers of every token form its speculation window:
  the main process finishes layers d_bar+1..d while each of the k
  sub-processes concurrently computes layers 1..d-d_bar of the next
  position, all starting at the same time unit;
* on a mismatch every sub-process event of the window is discarded and
  the next token restarts from layer 1.  Speculation is launched for the
  final token too (there is no next token, so those events are always
  discarded), and discarded work still occupies its compute unit.

Match verification and the hidden-state handoff are zero-cost
instantaneous events; only layers are priced.  The resulting makespan
and occupancy totals reproduce, from first principles, the same
closed forms of ``core.closed_form_totals``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import DecodingConfig, DomainError, MatchSequence, closed_form_totals, validate_config
from . import svgout


@dataclass(frozen=True)
class ScheduleEvent:
    """One contiguous layer range computed by one process."""

    process_id: int    # 0 = main process, 1..k = sub-processes
    token_index: int   # which output token's forward pass (1-based)
    layer_start: int   # inclusive, within [1, d]
    layer_end: int     # inclusive; t_end - t_start == layer_end - layer_start + 1
    t_start: int       # half-open time interval [t_start, t_end)
    t_end: int
    discarded: bool = False  # True when the speculative work is never consumed


@dataclass(frozen=True)
class ScheduleTimeline:
    events: tuple[ScheduleEvent, ...]
    makespan: int
    config: DecodingConfig
    matches: MatchSequence

    @property
    def n_runs(self) -> int:
        return 1 + sum(1 for b in self.matches.bits if not b)


def build_schedule(config: DecodingConfig, matches: MatchSequence) -> ScheduleTimeline:
    """Replay the decoding state machine into a deterministic timeline."""
    validate_config(config, exact_regime=True)
    d, d_bar, k, ell = config.d, config.d_bar, config.k, config.ell
    if len(matches.bits) != ell - 1:
        raise DomainError(
            f"need {ell - 1} match bits for ell={ell}, got {len(matches.bits)}"
        )

    window = d - d_bar
    events: list[ScheduleEvent] = []
    t = 0
    resumed = False
    for token in range(1, ell + 1):
        if not resumed:
            # fresh run start: the whole lower half is computed from layer 1
            events.append(ScheduleEvent(0, token, 1, d_bar, t, t + d_bar))
            t += d_bar
        else:
            # resume from the handed-off layer-(d-d_bar) state
            pre = 2 * d_bar - d
            if pre > 0:
                events.append(ScheduleEvent(0, token, d - d_bar + 1, d_bar, t, t + pre))
                t += pre
        matched_next = token < ell and matches.bits[token - 1]
        if window > 0:
            # speculation window: main finishes while subs precompute token+1
            events.append(ScheduleEvent(0, token, d_bar + 1, d, t, t + window))
            for pid in range(1, k + 1):
                events.append(
                    ScheduleEvent(
                        pid, token + 1, 1, window, t, t + window,
                        discarded=not matched_next,
                    )
                )
            t += window
        resumed = matched_next
    return ScheduleTimeline(tuple(events), t, config, matches)


def occupancy_profile(timeline: ScheduleTimeline) -> np.ndarray:
    """Busy-process count per time unit; discarded events count as busy."""
    occ = np.zeros(timeline.makespan, dtype=np.int64)
    for e in timeline.events:
        occ[e.t_start:e.t_end] += 1
    return occ


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the schedule against the closed-form accounting."""

    makespan: int
    occupancy_total: int
    n_runs: int
    latency_residual: int        # makespan - (d_bar*ell + (d-d_bar)*N)
    compute_residual: int        # occupancy sum - ((d_bar + k*(d-d_bar))*ell + (d-d_bar)*N)
    overlap_violations: int      # same-process events sharing a time unit
    main_idle_units: int         # time units in [0, makespan) with the main process idle

    @property
    def ok(self) -> bool:
        return (
            self.latency_residual == 0
            and self.compute_residual == 0
            and self.overlap_violations == 0
            and self.main_idle_units == 0
        )


def verify_identities(timeline: ScheduleTimeline) -> IdentityReport:
    """Check the timeline against the closed forms; failures are reported, never raised."""
    cfg = timeline.config
    n = timeline.n_runs
    latency, compute = closed_form_totals(cfg.d, cfg.d_bar, cfg.k, cfg.ell, n)
    occ = occupancy_profile(timeline)

    overlap = 0
    by_process: dict[int, list[ScheduleEvent]] = {}
    for e in timeline.events:
        by_process.setdefault(e.process_id, []).append(e)
    for evs in by_process.values():
        evs = sorted(evs, key=lambda e: e.t_start)
        for prev, nxt in zip(evs, evs[1:]):
            if nxt.t_start < prev.t_end:
                overlap += 1

    main_busy = sum(e.t_end - e.t_start for e in timeline.events if e.process_id == 0)
    return IdentityReport(
        makespan=timeline.makespan,
        occupancy_total=int(occ.sum()),
        n_runs=n,
        latency_residual=timeline.makespan - latency,
        compute_residual=int(occ.sum()) - compute,
        overlap_violations=overlap,
        main_idle_units=timeline.makespan - main_busy,
    )


def identity_report_to_json(report: IdentityReport) -> str:
    payload = {
        "makespan": report.makespan,
        "occupancy_total": report.occupancy_total,
        "n_runs": report.n_runs,
        "latency_residual": report.latency_residual,
        "compute_residual": report.compute_residual,
        "overlap_violations": report.overlap_violations,
        "main_idle_units": report.main_idle_units,
        "ok": report.ok,
    }
    return json.dumps(payload, indent=2) + "\n"


EVENTS_CSV_HEADER = "process_id,token_index,layer_start,layer_end,t_start,t_end,discarded"


def events_to_csv(timeline: ScheduleTimeline) -> str:
    lines = [EVENTS_CSV_HEADER]
    for e in timeline.events:
        lines.append(
            f"{e.process_id},{e.token_index},{e.layer_start},{e.layer_end},"
            f"{e.t_start},{e.t_end},{'true' if e.discarded else 'false'}"
        )
    return "\n".join(lines) + "\n"


def text_gantt(timeline: ScheduleTimeline) -> str:
    """One row per process, one character per time unit.

    '#' = busy, 'x' = busy on later-discarded work, '.' = idle.
    """
    k = timeline.config.k
    span = timeline.makespan
    rows = [["."] * span for _ in range(k + 1)]
    for e in timeline.events:
        ch = "x" if e.discarded else "#"
        for t in range(e.t_start, e.t_end):
            rows[e.process_id][t] = ch
    ruler = "".join("|" if t % 10 == 0 else " " for t in range(span))
    lines = [f"{'t':>4} {ruler}"]
    for pid in range(k + 1):
        lines.append(f"P{pid:<3} {''.join(rows[pid])}")
    lines.append(f"makespan {span}")
    return "\n".join(lines) + "\n"


def svg_gantt(timeline: ScheduleTimeline, px_per_unit: int = 8, row_height: int = 20) -> str:
    """Self-contained SVG rendering of the timeline."""
    k = timeline.config.k
    span = max(timeline.makespan, 1)
    left, top = 46, 28
    width = left + span * px_per_unit + 12
    height = top + (k + 1) * row_height + 34
    body = [svgout.text(left, 16, f"makespan {timeline.makespan} time units", size=12)]
    for pid in range(k + 1):
        y = top + pid * row_height
        body.append(svgout.text(6, y + row_height - 6, f"P{pid}", size=11))
    for e in timeline.events:
        x = left + e.t_start * px_per_unit
        y = top + e.process_id * row_height + 2
        w = (e.t_end - e.t_start) * px_per_unit
        if e.discarded:
            fill = "#cc6677"
        elif e.process_id == 0:
            fill = "#4477aa"
        else:
            fill = "#66ccee"
        body.append(svgout.rect(x, y, w, row_height - 4, fill, stroke="#ffffff"))
    axis_y = top + (k + 1) * row_height + 6
    body.append(svgout.line(left, axis_y, left + span * px_per_unit, axis_y))
    step = max(1, span // 10)
    for t in range(0, span + 1, step):
        x = left + t * px_per_unit
        body.append(svgout.line(x, axis_y, x, axis_y + 4))
        body.append(svgout.text(x - 4, axis_y + 16, str(t), size=10))
    return svgout.document(width, height, body)
