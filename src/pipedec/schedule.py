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

``ScheduleTimeline.events`` is one numpy record array, a row per event
in the order the state machine emits them (token by token: the main
pass to d_bar, the main window, then sub-processes 1..k).  Its fields:

* ``process_id``: 0 = main process, 1..k = sub-processes;
* ``token_index``: which output token's forward pass (1-based);
* ``layer_start``, ``layer_end``: inclusive layers within [1, d];
* ``t_start``, ``t_end``: the half-open time interval, with
  ``t_end - t_start == layer_end - layer_start + 1``;
* ``discarded``: True when the speculative work is never consumed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import DecodingConfig, DomainError, MatchSequence, closed_form_totals
from . import svgout

# the fields of ScheduleTimeline.events, in order; also the CSV header
EVENTS_CSV_HEADER = "process_id,token_index,layer_start,layer_end,t_start,t_end,discarded"


@dataclass(frozen=True, eq=False)
class ScheduleTimeline:
    events: np.recarray  # fields EVENTS_CSV_HEADER, one row per event
    makespan: int
    config: DecodingConfig
    matches: MatchSequence


def build_schedule(config: DecodingConfig, matches: MatchSequence) -> ScheduleTimeline:
    """Replay the decoding state machine into a deterministic timeline."""
    d, d_bar, k, ell = config.d, config.d_bar, config.k, config.ell
    if len(matches.bits) != ell - 1:
        raise DomainError(
            f"need ell-1 = {ell - 1} match bits for ell={ell}, got {len(matches.bits)}"
        )

    window = d - d_bar
    if k == 0 and matches.bits.any():
        raise DomainError("k = 0 has no early candidate to match, so every match bit must be F")
    resumed, matched_next = np.insert(matches.bits, 0, False), np.append(matches.bits, False)
    # a fresh run computes layers 1..d_bar; a resume starts from the
    # handed-off layer-(d-d_bar) state, so 2*d_bar-d layers (maybe none)
    pre = np.where(resumed, 2 * d_bar - d, d_bar)
    end = np.cumsum(pre + window)  # each token's end time
    mid = end - window             # the start of its speculation window
    token = np.arange(1, ell + 1)

    # one (ell, 2+k) grid per field: column 0 is the main pass to d_bar,
    # column 1 the main window, columns 2.. the k sub-processes, which
    # precompute token+1 while the main process finishes token
    keep = np.empty((ell, 2 + k), dtype=bool)
    keep[:, 0], keep[:, 1:] = pre > 0, window > 0

    def field(pre_pass, main_window, sub_windows) -> np.ndarray:
        grid = np.empty((ell, 2 + k), dtype=np.int64)
        grid[:, 0], grid[:, 1], grid[:, 2:] = pre_pass, main_window, sub_windows
        return grid[keep]  # row-major: the emission order

    events = np.rec.fromarrays([
        field(0, 0, np.arange(1, k + 1)),
        field(token, token, token[:, None] + 1),
        field(np.where(resumed, d - d_bar + 1, 1), d_bar + 1, 1),
        field(d_bar, d, window),
        field(mid - pre, mid, mid[:, None]),
        field(mid, end, end[:, None]),
        field(0, 0, ~matched_next[:, None]).astype(bool),
    ], names=EVENTS_CSV_HEADER)
    return ScheduleTimeline(events, int(end[-1]), config, matches)


def occupancy_profile(timeline: ScheduleTimeline) -> np.ndarray:
    """Busy-process count per time unit; discarded events count as busy."""
    events, span = timeline.events, timeline.makespan
    starts = np.bincount(events.t_start, minlength=span + 1)
    ends = np.bincount(events.t_end, minlength=span + 1)
    return np.cumsum(starts - ends)[:span]


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
    n = timeline.matches.n_runs
    latency, compute = closed_form_totals(cfg.d, cfg.d_bar, cfg.k, cfg.ell, n)
    events = timeline.events
    units = events.t_end - events.t_start
    occupied = int(units.sum())  # occupancy_profile's sum

    # per process in start order, an event that starts before its
    # predecessor ends overlaps it
    order = np.lexsort((events.t_start, events.process_id))
    pid, t_start, t_end = events.process_id[order], events.t_start[order], events.t_end[order]
    overlap = int(np.count_nonzero((pid[1:] == pid[:-1]) & (t_start[1:] < t_end[:-1])))

    main_busy = int(np.sum(units, where=events.process_id == 0))
    return IdentityReport(
        makespan=timeline.makespan,
        occupancy_total=occupied,
        n_runs=n,
        latency_residual=timeline.makespan - latency,
        compute_residual=occupied - compute,
        overlap_violations=overlap,
        main_idle_units=timeline.makespan - main_busy,
    )


def identity_report_to_json(report: IdentityReport) -> str:
    return json.dumps({**asdict(report), "ok": report.ok}, indent=2) + "\n"


def events_to_csv(timeline: ScheduleTimeline) -> str:
    """The header, then a line per event, from one template per (process, layers, flag)."""
    events, d = timeline.events, timeline.config.d
    shape = ((events.process_id * (d + 1) + events.layer_start) * (d + 1)
             + events.layer_end) * 2 + events.discarded

    def template(i: int) -> str:
        pid, _, layer_start, layer_end, _, _, discarded = events[i].tolist()
        return f"{pid},%d,{layer_start},{layer_end},%d,%d,{'true' if discarded else 'false'}"

    rows = svgout.fill_rows(shape, template, [events.token_index, events.t_start, events.t_end])
    return "\n".join([EVENTS_CSV_HEADER, *rows, ""])


def text_gantt(timeline: ScheduleTimeline) -> str:
    """One row per process, one character per time unit.

    '#' = busy, 'x' = busy on later-discarded work, '.' = idle.  The rows are
    one flat grid, painted by one ``np.repeat`` of the idle gaps and events
    in (process, start) order over their run lengths.
    """
    k, span, events = timeline.config.k, timeline.makespan, timeline.events
    if not np.all((0 <= events.t_start) & (events.t_start <= events.t_end)
                  & (events.t_end <= span)):
        raise DomainError(f"every event needs 0 <= t_start <= t_end <= makespan = {span}")
    order = np.lexsort((events.t_start, events.process_id))
    flat = events.process_id[order] * span
    bounds = np.column_stack((flat + events.t_start[order], flat + events.t_end[order])).ravel()
    runs = np.diff(bounds, prepend=0, append=(k + 1) * span)  # gap, event, gap, ..., gap
    if runs.min() < 0:
        raise DomainError("events of one process overlap, or a process id is outside 0..k")
    codes = np.full(len(runs), ord("."), dtype=np.uint8)
    codes[1::2] = np.where(events.discarded[order], ord("x"), ord("#"))
    grid = np.repeat(codes, runs)
    ruler = ("|" + " " * 9) * (span // 10 + 1)
    rows = [f"P{pid:<3} {str(grid[pid * span:(pid + 1) * span].data, 'ascii')}"
            for pid in range(k + 1)]
    return "\n".join([f"{'t':>4} {ruler[:span]}", *rows, f"makespan {span}", ""])


PX_PER_UNIT = 8  # SVG width of one time unit
ROW_HEIGHT = 20  # SVG height of one process row


def svg_gantt(timeline: ScheduleTimeline) -> str:
    """Self-contained SVG rendering of the timeline."""
    k = timeline.config.k
    span = max(timeline.makespan, 1)
    left, top = 46, 28
    width = left + span * PX_PER_UNIT + 12
    height = top + (k + 1) * ROW_HEIGHT + 34
    body = [svgout.text(left, 16, f"makespan {timeline.makespan} time units", size=12)]
    for pid in range(k + 1):
        y = top + pid * ROW_HEIGHT
        body.append(svgout.text(6, y + ROW_HEIGHT - 6, f"P{pid}", size=11))
    events = timeline.events
    pid = events.process_id
    body.extend(svgout.int_rects(
        left + events.t_start * PX_PER_UNIT,
        top + pid * ROW_HEIGHT + 2,
        (events.t_end - events.t_start) * PX_PER_UNIT,
        ROW_HEIGHT - 4,
        np.where(events.discarded, 2, pid > 0),
        ("#4477aa", "#66ccee", "#cc6677"),  # main, speculative, discarded
    ))
    axis_y = top + (k + 1) * ROW_HEIGHT + 6
    body.append(svgout.line(left, axis_y, left + span * PX_PER_UNIT, axis_y))
    step = max(1, span // 10)
    for t in range(0, span + 1, step):
        x = left + t * PX_PER_UNIT
        body.append(svgout.line(x, axis_y, x, axis_y + 4))
        body.append(svgout.text(x - 4, axis_y + 16, str(t), size=10))
    return svgout.document(width, height, body)
