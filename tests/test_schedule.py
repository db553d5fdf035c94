from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipedec.core import (
    DecodingConfig,
    DomainError,
    MatchSequence,
    RunDecomposition,
    closed_form_totals,
)
from pipedec.schedule import (
    EVENTS_CSV_HEADER,
    build_schedule,
    events_to_csv,
    identity_report_to_json,
    occupancy_profile,
    svg_gantt,
    text_gantt,
    verify_identities,
)
from pipedec.stochastic import cost_of_runs, decompose_runs

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
    timeline = build_schedule(cfg, MatchSequence.from_string("TTFT"))
    assert timeline.makespan == 140
    report = cost_of_runs(cfg, RunDecomposition((3, 2)))
    assert timeline.makespan == report.total_latency
    assert int(occupancy_profile(timeline).sum()) == report.total_compute


def test_k_zero_occupancy_is_flat() -> None:
    cfg = DecodingConfig(d=16, d_bar=10, k=0, ell=6)
    timeline = build_schedule(cfg, MatchSequence.from_string("TFTFT"))
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
    bits = tuple(rr.random() < rr.random() for _ in range(ell - 1))
    return DecodingConfig(d, d_bar, k, ell), MatchSequence(bits)


def test_random_schedules_reproduce_run_cost_exactly() -> None:
    rr = random.Random(99)
    for _ in range(200):
        cfg, matches = _random_case(rr)
        timeline = build_schedule(cfg, matches)
        report = verify_identities(timeline)
        assert report.ok, report
        cost = cost_of_runs(cfg, decompose_runs(matches))
        assert timeline.makespan == cost.total_latency
        assert report.occupancy_total == cost.total_compute


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
    bits = draw(st.lists(st.booleans(), min_size=ell - 1, max_size=ell - 1))
    cfg = DecodingConfig(d, draw(st.integers((d + 1) // 2, d)), draw(st.integers(0, 6)), ell)
    return cfg, MatchSequence(tuple(bits))


@settings(deadline=None)
@example(case=(DecodingConfig(12, 12, 3, 9), MatchSequence.from_string("TFTTFFTT")))  # d_bar = d
@example(case=(DecodingConfig(40, 20, 0, 6), MatchSequence.from_string("TTFTF")))    # k = 0
@example(case=(DecodingConfig(9, 5, 4, 1), MatchSequence(())))                      # ell = 1
@example(case=(DecodingConfig(1, 1, 2, 5), MatchSequence.from_string("FFFF")))      # depth 1
@example(case=(DecodingConfig(7, 4, 2, 8), MatchSequence.from_string("TTTTTTT")))   # one run
@given(case=schedule_cases())
def test_schedule_identities_hold_over_the_domain(case) -> None:
    cfg, matches = case
    timeline = build_schedule(cfg, matches)
    assert verify_identities(timeline).ok
    latency, compute = closed_form_totals(
        cfg.d, cfg.d_bar, cfg.k, cfg.ell, 1 + matches.bits.count(False)
    )
    assert timeline.makespan == latency
    assert int(occupancy_profile(timeline).sum()) == compute
