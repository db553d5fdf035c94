from __future__ import annotations

import hashlib
import importlib.util
import random
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pipedec.core import (
    DecodingConfig,
    DomainError,
    MatchSequence,
    closed_form_totals,
)
from pipedec.rng import Stream
from pipedec.schedule import (
    EVENTS_CSV_HEADER,
    ScheduleTimeline,
    build_schedule,
    events_to_csv,
    identity_report_to_json,
    occupancy_profile,
    svg_gantt,
    text_gantt,
    verify_identities,
)
from pipedec.stochastic import sample_match_sequence

FIXTURE = DecodingConfig(d=40, d_bar=30, k=3, ell=3)
FIXTURE_MATCHES = MatchSequence.from_string("TT")


def test_single_run_fixture_timeline() -> None:
    timeline = build_schedule(FIXTURE, FIXTURE_MATCHES)
    assert timeline.makespan == 40 + 2 * 30  # d + 2*d_bar for one run of length 3

    occ = occupancy_profile(timeline)
    # three speculation windows of k+1 = 4 busy processes, d - d_bar = 10 units each
    windows = [(30, 40), (60, 70), (90, 100)]
    for lo, hi in windows:
        assert np.all(occ[lo:hi] == 4)
    busy_four = int((occ == 4).sum())
    assert busy_four == 3 * 10
    assert int(occ.sum()) == 190  # 70*1 + 30*4


def test_fixture_identities_hold() -> None:
    report = verify_identities(build_schedule(FIXTURE, FIXTURE_MATCHES))
    assert report.ok
    assert report.latency_residual == 0
    assert report.compute_residual == 0
    assert report.overlap_violations == 0
    assert report.main_idle_units == 0
    assert report.n_runs == 1


def test_identities_flag_a_timeline_that_misses_the_closed_forms() -> None:
    # the events of one run of 3 tokens, labelled as two runs ("TF"): both
    # totals fall short of the closed forms by d - d_bar = 10
    timeline = build_schedule(FIXTURE, FIXTURE_MATCHES)
    report = verify_identities(replace(timeline, matches=MatchSequence.from_string("TF")))
    assert (report.n_runs, report.latency_residual, report.compute_residual) == (2, -10, -10)
    assert not report.ok


def test_identities_flag_overlapping_and_idle_events() -> None:
    timeline = build_schedule(FIXTURE, FIXTURE_MATCHES)
    events = timeline.events.copy()
    # rows 5..9 are token 2: the main pass over layers 11..30 at t 40..60, the
    # main window, then sub-process 1's window at t 60..70
    assert events[5].tolist() == (0, 2, 11, 30, 40, 60, False)
    assert events[7].tolist() == (1, 3, 1, 10, 60, 70, False)
    events.t_start[7] = 35  # now starts inside sub-process 1's window at t 30..40
    events = events[np.arange(len(events)) != 5]  # the main process idles at t 40..60
    report = verify_identities(replace(timeline, events=events))
    assert (report.overlap_violations, report.main_idle_units) == (1, 20)
    assert not report.ok


def test_identities_report_an_event_past_the_makespan() -> None:
    timeline = build_schedule(FIXTURE, FIXTURE_MATCHES)
    events = timeline.events.copy()
    assert events[-1].tolist() == (3, 4, 1, 10, 90, 100, True)  # the last speculation window
    events.t_end[-1] = 105  # ends 5 units past the makespan of 100
    report = verify_identities(replace(timeline, events=events))
    assert (report.makespan, report.compute_residual) == (100, 5)
    assert not report.ok


def test_single_token_schedule() -> None:
    cfg = DecodingConfig(d=40, d_bar=30, k=3, ell=1)
    timeline = build_schedule(cfg, MatchSequence(()))
    assert timeline.makespan == 40
    subs = [e for e in timeline.events if e.process_id > 0]
    assert len(subs) == 3
    assert all(e.discarded for e in subs)  # no next token ever consumes them
    assert verify_identities(timeline).ok


def test_makespan_equals_run_cost_fixture() -> None:
    cfg = DecodingConfig(d=40, d_bar=20, k=3, ell=5)
    matches = MatchSequence.from_string("TTFT")  # runs of 3 and 2 tokens
    timeline = build_schedule(cfg, matches)
    assert timeline.makespan == 140
    latency, compute = closed_form_totals(cfg.d, cfg.d_bar, cfg.k, cfg.ell, matches.n_runs)
    assert timeline.makespan == latency
    assert int(occupancy_profile(timeline).sum()) == compute


def test_k_zero_occupancy_is_flat() -> None:
    cfg = DecodingConfig(d=16, d_bar=10, k=0, ell=6)
    timeline = build_schedule(cfg, MatchSequence.from_string("FFFFF"))
    occ = occupancy_profile(timeline)
    assert np.all(occ == 1)


def test_all_mismatch_half_depth_alternates() -> None:
    d, k, ell = 16, 3, 5
    cfg = DecodingConfig(d=d, d_bar=d // 2, k=k, ell=ell)
    timeline = build_schedule(cfg, MatchSequence((False,) * (ell - 1)))
    occ = occupancy_profile(timeline)
    assert timeline.makespan == d * ell
    per_token = np.array([1] * (d // 2) + [k + 1] * (d // 2))
    assert np.array_equal(occ, np.tile(per_token, ell))


def test_wrong_match_length_rejected() -> None:
    with pytest.raises(DomainError):
        build_schedule(DecodingConfig(40, 30, 3, 3), MatchSequence.from_string("T"))


def _random_case(rr: random.Random) -> tuple[DecodingConfig, MatchSequence]:
    d = rr.randint(1, 64)
    d_bar = rr.randint((d + 1) // 2, d)
    k = rr.randint(0, 8)
    ell = rr.randint(1, 256)
    # k = 0 has no early candidate to match, so its bits are all F
    bits = tuple(rr.random() < rr.random() and k > 0 for _ in range(ell - 1))
    return DecodingConfig(d, d_bar, k, ell), MatchSequence(bits)


def test_random_schedules_reproduce_run_cost_exactly() -> None:
    rr = random.Random(99)
    for _ in range(200):
        cfg, matches = _random_case(rr)
        timeline = build_schedule(cfg, matches)
        report = verify_identities(timeline)
        assert report.ok, report
        latency, compute = closed_form_totals(cfg.d, cfg.d_bar, cfg.k, cfg.ell, matches.n_runs)
        assert timeline.makespan == latency
        assert report.occupancy_total == compute


def test_resume_waits_for_producing_sub_process() -> None:
    cfg = DecodingConfig(d=40, d_bar=30, k=2, ell=4)
    matches = MatchSequence.from_string("TTT")
    timeline = build_schedule(cfg, matches)
    for token in (2, 3, 4):
        producers = [
            e for e in timeline.events if e.process_id > 0 and e.token_index == token
        ]
        resume = min(
            (e for e in timeline.events if e.process_id == 0 and e.token_index == token),
            key=lambda e: e.t_start,
        )
        assert producers
        assert resume.t_start >= max(e.t_end for e in producers)


def test_peak_concurrency() -> None:
    rr = random.Random(7)
    for _ in range(50):
        cfg, matches = _random_case(rr)
        if cfg.ell < 2 or cfg.d_bar == cfg.d:
            continue
        occ = occupancy_profile(build_schedule(cfg, matches))
        if cfg.k == 0:
            assert int(occ.max()) == 1
        else:
            assert int(occ.max()) == cfg.k + 1


def test_events_csv_shape() -> None:
    timeline = build_schedule(FIXTURE, FIXTURE_MATCHES)
    lines = events_to_csv(timeline).strip().split("\n")
    assert lines[0] == EVENTS_CSV_HEADER
    assert len(lines) == len(timeline.events) + 1
    assert lines[1] == "0,1,1,30,0,30,false"
    discarded_rows = [ln for ln in lines[1:] if ln.endswith(",true")]
    assert len(discarded_rows) == 3  # final window speculation is never consumed


def test_text_gantt_layout() -> None:
    timeline = build_schedule(FIXTURE, FIXTURE_MATCHES)
    text = text_gantt(timeline)
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 4 + 1  # ruler, k+1 process rows, makespan line
    assert lines[1].startswith("P0")
    assert lines[-1] == "makespan 100"
    main_row = lines[1].split(" ", 1)[1].strip()
    assert len(main_row) == timeline.makespan
    assert "." not in main_row  # the main process is never idle
    assert "x" in lines[2]  # some sub-process work is discarded


def _edited(row: int, **fields) -> ScheduleTimeline:
    """The fixture's timeline with the given fields of event ``row`` changed."""
    timeline = build_schedule(FIXTURE, FIXTURE_MATCHES)
    events = timeline.events.copy()
    for name, value in fields.items():
        events[name][row] = value
    return replace(timeline, events=events)


@pytest.mark.parametrize("row, fields", [
    (-1, {"t_start": 95, "t_end": 105}),  # past the makespan on the last row, P3
    (12, {"t_end": 105}),                 # past the makespan on P1, into P2's idle first units
    (7, {"t_start": 25, "t_end": 35}),    # inside P1's window at t 30..40
    (0, {"t_start": 40, "t_end": 30}),    # an event that ends before it starts
], ids=["last_row_past_makespan", "inner_row_past_makespan", "overlap", "negative_length"])
def test_text_gantt_rejects_events_it_cannot_paint(row, fields) -> None:
    with pytest.raises(DomainError):
        text_gantt(_edited(row, **fields))


def test_svg_gantt_is_wellformed() -> None:
    timeline = build_schedule(FIXTURE, FIXTURE_MATCHES)
    text = svg_gantt(timeline)
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) == len(timeline.events)


def test_identity_report_json_round_trip() -> None:
    import json

    report = verify_identities(build_schedule(FIXTURE, FIXTURE_MATCHES))
    payload = json.loads(identity_report_to_json(report))
    assert payload["makespan"] == 100
    assert payload["occupancy_total"] == 190
    assert payload["ok"] is True


def test_schedule_prices_realized_mock_decodes() -> None:
    # replaying a decoder's realized match trace must reproduce its
    # instrumented layer counters
    from pipedec.mockmodel import MockModel, decode_ppd

    model = MockModel(vocab_size=16, depth=24, seed=404, bias=0.6)
    d_bar, k = 14, 3
    res = decode_ppd(model, (2, 9), 20, d_bar=d_bar, k=k)
    cfg = DecodingConfig(model.depth, d_bar, k, len(res.tokens))
    timeline = build_schedule(cfg, res.match_trace)
    assert timeline.makespan == res.main_layer_count
    occupancy = int(occupancy_profile(timeline).sum())
    assert occupancy == res.main_layer_count + res.spec_layer_count


@st.composite
def schedule_cases(draw) -> tuple[DecodingConfig, MatchSequence]:
    d = draw(st.integers(1, 40))
    ell = draw(st.integers(1, 64))
    k = draw(st.integers(0, 6))
    # k = 0 has no early candidate to match, so its bits are all F
    bit = st.booleans() if k else st.just(False)
    bits = draw(st.lists(bit, min_size=ell - 1, max_size=ell - 1))
    cfg = DecodingConfig(d, draw(st.integers((d + 1) // 2, d)), k, ell)
    return cfg, MatchSequence(tuple(bits))


@example(case=(DecodingConfig(12, 12, 3, 9), MatchSequence.from_string("TFTTFFTT")))  # d_bar = d
@example(case=(DecodingConfig(40, 20, 0, 6), MatchSequence.from_string("FFFFF")))    # k = 0
@example(case=(DecodingConfig(9, 5, 4, 1), MatchSequence(())))                      # ell = 1
@example(case=(DecodingConfig(1, 1, 2, 5), MatchSequence.from_string("FFFF")))      # depth 1
@example(case=(DecodingConfig(7, 4, 2, 8), MatchSequence.from_string("TTTTTTT")))   # one run
@given(case=schedule_cases())
def test_schedule_identities_hold_over_the_domain(case) -> None:
    cfg, matches = case
    timeline = build_schedule(cfg, matches)
    assert verify_identities(timeline).ok
    latency, compute = closed_form_totals(cfg.d, cfg.d_bar, cfg.k, cfg.ell, matches.n_runs)
    assert timeline.makespan == latency
    assert int(occupancy_profile(timeline).sum()) == compute


def _reference_events(cfg: DecodingConfig, matches: MatchSequence) -> tuple[list[tuple], int]:
    """Slow reference: the per-token replay loop, one row tuple per event."""
    d, d_bar, k, ell = cfg.d, cfg.d_bar, cfg.k, cfg.ell
    window = d - d_bar
    rows: list[tuple] = []
    t = 0
    resumed = False
    for token in range(1, ell + 1):
        if not resumed:
            rows.append((0, token, 1, d_bar, t, t + d_bar, False))
            t += d_bar
        else:
            pre = 2 * d_bar - d
            if pre > 0:
                rows.append((0, token, d - d_bar + 1, d_bar, t, t + pre, False))
                t += pre
        matched_next = token < ell and matches.bits[token - 1]
        if window > 0:
            rows.append((0, token, d_bar + 1, d, t, t + window, False))
            for pid in range(1, k + 1):
                rows.append((pid, token + 1, 1, window, t, t + window, not matched_next))
            t += window
        resumed = matched_next
    return rows, t


@example(case=(DecodingConfig(12, 12, 3, 9), MatchSequence.from_string("TFTTFFTT")))  # d_bar = d
@example(case=(DecodingConfig(16, 8, 3, 6), MatchSequence.from_string("TTFTT")))     # pre = 0
@example(case=(DecodingConfig(40, 30, 0, 6), MatchSequence.from_string("FFFFF")))    # k = 0
@example(case=(DecodingConfig(9, 5, 4, 1), MatchSequence(())))                      # ell = 1
@example(case=(DecodingConfig(7, 4, 2, 8), MatchSequence.from_string("TTTTTTT")))   # all T
@example(case=(DecodingConfig(10, 6, 2, 6), MatchSequence.from_string("FFFFF")))    # all F
@given(case=schedule_cases())
def test_event_log_equals_the_replay_loop_row_for_row(case) -> None:
    cfg, matches = case
    timeline = build_schedule(cfg, matches)
    rows, makespan = _reference_events(cfg, matches)
    assert timeline.events.dtype.names == tuple(EVENTS_CSV_HEADER.split(","))
    assert timeline.events.tolist() == rows
    assert timeline.makespan == makespan == rows[-1][5]
    assert type(timeline.makespan) is int


def _reference_csv(timeline) -> str:
    """Slow reference: the documented CSV, one formatted line per event."""
    lines = [EVENTS_CSV_HEADER]
    for pid, token, layer_start, layer_end, t_start, t_end, discarded in timeline.events.tolist():
        lines.append(f"{pid},{token},{layer_start},{layer_end},{t_start},{t_end},"
                     f"{'true' if discarded else 'false'}")
    return "\n".join(lines) + "\n"


def _reference_text(timeline) -> str:
    """Slow reference: each event paints its process row, '#' or 'x' per time unit."""
    span = timeline.makespan
    rows = [bytearray(b"." * span) for _ in range(timeline.config.k + 1)]
    for pid, _, _, _, t_start, t_end, discarded in timeline.events.tolist():
        rows[pid][t_start:t_end] = (b"x" if discarded else b"#") * (t_end - t_start)
    ruler = ("|" + " " * 9) * (span // 10 + 1)
    return "\n".join([f"{'t':>4} {ruler[:span]}", *(f"P{pid:<3} {row.decode()}"
                      for pid, row in enumerate(rows)), f"makespan {span}"]) + "\n"


def _reference_rects(timeline) -> list[str]:
    """Slow reference: svg_gantt's rect per event, 8 px per time unit and 20 px per process."""
    rects = []
    for pid, _, _, _, t_start, t_end, discarded in timeline.events.tolist():
        fill = "#cc6677" if discarded else "#4477aa" if pid == 0 else "#66ccee"
        rects.append(f'<rect x="{46 + 8 * t_start:.1f}" y="{30 + 20 * pid:.1f}" '
                     f'width="{8 * (t_end - t_start):.1f}" height="16.0" fill="{fill}" '
                     f'stroke="#ffffff"/>')
    return rects


@example(case=(DecodingConfig(12, 12, 3, 9), MatchSequence.from_string("TFTTFFTT")))  # d_bar = d
@example(case=(DecodingConfig(16, 8, 3, 6), MatchSequence.from_string("TTFTT")))     # pre = 0
@example(case=(DecodingConfig(40, 30, 0, 6), MatchSequence.from_string("FFFFF")))    # k = 0
@example(case=(DecodingConfig(9, 5, 4, 1), MatchSequence(())))                      # ell = 1
@given(case=schedule_cases())
def test_renderers_equal_the_per_event_references(case) -> None:
    timeline = build_schedule(*case)
    assert events_to_csv(timeline) == _reference_csv(timeline)
    assert text_gantt(timeline) == _reference_text(timeline)
    # the title and the k + 1 process labels come first, then one rect per event
    lines = svg_gantt(timeline).split("\n")
    first = case[0].k + 3
    assert lines[first:first + len(timeline.events)] == _reference_rects(timeline)
    assert sum(line.startswith("<rect") for line in lines) == len(timeline.events)


# sha256 of identity_report_to_json, text_gantt, events_to_csv and svg_gantt,
# taken from the per-event replay loop (`_reference_events`) these outputs were defined by
PINNED = [
    (FIXTURE, "TT", (
        "e17ab35082a10a74f2cf99c44299a83b8fd6bf19f4bbffd2c5384fb083535bb3",
        "0e7e22a5c0ecd5571f817d7a19b137096dda447d9d932c3fdc3f21f19a80fb38",
        "5795328320f2bca9eb1b93c07b450665f8de1a18c506505a231ef0323a38f8dc",
        "125282c67d973a282e97fd89c6e991551e91c303c42c3d7ddb94eb95a5f1b3dc")),
    (DecodingConfig(16, 8, 3, 5), "FTFT", (
        "0f7b4384aaed0bab6df1c3f2fe7b5463740da6c54922e00a88f65206f8a95386",
        "9b2b645d3b2d6eedbb814d5e8efe31a45f839ee98bde5f38b1d1f5dcab28c713",
        "89360b7525bc1568dfb3f9fa6fd031ac067bad6a8eb88554c348b551c0378dd7",
        "9b9ff00ee93835d84f28a438a7f8280fd6aaa087fb0377a6ed0171881aad92ff")),
    (DecodingConfig(12, 12, 3, 9), "TFTTFFTT", (
        "9d9c37a4388da9565dbd9074d4698602ea27e05a9f3dc2f81879bb22f51756ca",
        "a08b2b17c78e63f2e020939877700afd8a076351564516f60a917d6c4c09bbe1",
        "9a83edc5ec934fe952a49eb2dab897c2730006d3cf9becf7fc28be5544b6e5dd",
        "6266a34bfc06d2f8b591eeebcf9c538cbcd71cbea52b48bf04134dfa7eb30f44")),
    # bits from sample_match_sequence(Stream.from_seed(5), 0.7, 4096)
    (DecodingConfig(48, 30, 8, 4096), None, (
        "3b7b8cce4a2bab7320fa6b2a40df6742fcad0b204df7ad7f7dcb84c98594b272",
        "369a2a98115e8f9cedab93eddfd80ff49ac2e4459bb9aa20220bc0f4f81163b3",
        "ce8bac622bd790e1fc7a35bffa5e365dd1f9ee1e1267fac28acd6ebec9665563",
        "50c7e6edbd7a4ca4f5b9cc90ca994e881eebeb096db7d463d0135d3d8d133bcf")),
]


@pytest.mark.parametrize("cfg, bits, digests", PINNED,
                         ids=["fixture", "half_depth_FTFT", "full_depth", "ell4096"])
def test_schedule_artifacts_are_pinned(cfg, bits, digests) -> None:
    matches = (sample_match_sequence(Stream.from_seed(5), 0.7, cfg.ell) if bits is None
               else MatchSequence.from_string(bits))
    timeline = build_schedule(cfg, matches)
    artifacts = (identity_report_to_json(verify_identities(timeline)), text_gantt(timeline),
                 events_to_csv(timeline), svg_gantt(timeline))
    assert tuple(hashlib.sha256(a.encode("utf-8")).hexdigest() for a in artifacts) == digests


@pytest.mark.parametrize("render, bound", [(text_gantt, 8), (events_to_csv, 5),
                                           (svg_gantt, 3)], ids=["text", "csv", "svg"])
def test_renderer_peak_memory_is_a_few_outputs(render, bound) -> None:
    # the benchmark's schedule size: ~41 k events, 1.45 MB of text Gantt
    matches = sample_match_sequence(Stream.from_seed(5), 0.7, 4096)
    timeline = build_schedule(DecodingConfig(48, 30, 8, 4096), matches)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = render(timeline)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(out)


def test_benchmark_schedule_counter_reads_the_event_log() -> None:
    # perfbench's `--trace 1` hook reads rows by attribute; it lives outside
    # the package, so load it by path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracing._count_schedule(tracer, {}, build_schedule(FIXTURE, FIXTURE_MATCHES))
    # 3 tokens of 5 events: main pass, main window and k = 3 speculative
    # windows; only the last token's 3 windows are discarded
    assert dict(tracer.counts) == {
        "schedule.timelines": 1, "schedule.events": 15, "schedule.makespan": 100,
        "sub_events": 9, "sub_events_useful": 6,
    }
