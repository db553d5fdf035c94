from __future__ import annotations

import hashlib
import io
import json
import math

import numpy as np
import pytest

from pipedec.core import DomainError
from pipedec.trace import (
    DuplicateIdError,
    MatchRateReport,
    ParseError,
    TraceRecord,
    TraceTable,
    forecast_from_trace,
    load_traces,
    match_rate,
    match_rate_by_bucket,
    planted_trace,
    report_to_csv,
    report_to_json,
    save_traces,
    wilson_interval,
)


def test_load_empty_file_gives_empty_sequence(tmp_path) -> None:
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_traces(path) == []


def test_save_load_round_trip(tmp_path) -> None:
    records = planted_trace(0.5, 200, 3, seed=1, layer=20)
    path = tmp_path / "trace.jsonl"
    save_traces(records, path)
    assert load_traces(path) == records
    # layer is optional and survives omission
    bare = [TraceRecord("e", 1, (4, 5), 4)]
    buf = io.StringIO()
    save_traces(bare, buf)
    assert load_traces(io.StringIO(buf.getvalue())) == bare


def test_missing_field_reports_line_number() -> None:
    lines = io.StringIO(
        '{"example_id": "a", "position": 1, "early_topk": [1], "final": 1}\n'
        '{"example_id": "a", "position": 2, "early_topk": [1]}\n'
    )
    with pytest.raises(ParseError, match="line 2") as err:
        load_traces(lines)
    assert err.value.line_no == 2
    assert "final" in err.value.reason


def test_malformed_json_and_duplicates_rejected() -> None:
    with pytest.raises(ParseError, match="line 1"):
        load_traces(io.StringIO("not json\n"))
    with pytest.raises(ParseError, match="JSON object"):
        load_traces(io.StringIO("[1, 2]\n"))
    with pytest.raises(DuplicateIdError):
        load_traces(
            io.StringIO('{"example_id": "a", "position": 1, "early_topk": [3, 3], "final": 3}\n')
        )
    with pytest.raises(DomainError):
        TraceRecord("a", 0, (1,), 1)


def test_blank_lines_are_skipped() -> None:
    records = load_traces(
        io.StringIO('\n{"example_id": "a", "position": 1, "early_topk": [2], "final": 2}\n\n')
    )
    assert len(records) == 1


def test_match_rate_recovers_planted_probability() -> None:
    records = planted_trace(0.6837, 100_000, 3, seed=0)
    report = match_rate(records, 3)
    # 3 sigma binomial bound at n = 1e5
    assert abs(report.p_hat - 0.6837) <= 3 * math.sqrt(0.6837 * 0.3163 / 100_000)
    lo, hi = report.ci95
    assert lo < report.p_hat < hi


def test_match_rate_all_contained_is_one() -> None:
    records = planted_trace(1.0, 500, 3, seed=2)
    report = match_rate(records, 3)
    assert report.p_hat == 1.0
    assert report.matches == 500
    assert report.ci95[1] <= 1.0


def test_match_rate_monotone_in_k() -> None:
    records = planted_trace(0.55, 5000, 5, seed=3)
    p1 = match_rate(records, 1).p_hat
    p3 = match_rate(records, 3).p_hat
    p5 = match_rate(records, 5).p_hat
    assert p1 <= p3 <= p5


def test_match_rate_argument_errors() -> None:
    records = planted_trace(0.5, 10, 3, seed=4)
    with pytest.raises(DomainError):
        match_rate(records, 4)
    with pytest.raises(DomainError):
        match_rate(records, 0)
    with pytest.raises(DomainError):
        match_rate([], 1)


def test_wilson_interval_bounds() -> None:
    lo, hi = wilson_interval(1, 2)
    assert 0.0 <= lo <= 0.5 <= hi <= 1.0
    lo0, hi0 = wilson_interval(0, 50)
    assert lo0 == pytest.approx(0.0, abs=1e-12) and hi0 > 0.01
    loN, hiN = wilson_interval(50, 50)
    assert hiN == pytest.approx(1.0, abs=1e-12) and loN < 0.99
    with pytest.raises(DomainError):
        wilson_interval(0, 0)


def test_single_bucket_equals_overall() -> None:
    records = planted_trace(0.4, 3000, 2, seed=5, positions_per_example=16)
    overall = match_rate(records, 2)
    bucketed = match_rate_by_bucket(records, 2, bucket_width=16)
    assert bucketed.buckets is not None
    assert len(bucketed.buckets) == 1
    only = bucketed.buckets[0]
    assert only.count == overall.total_positions
    assert only.matches == overall.matches
    assert only.p_hat == overall.p_hat


def test_bucket_partition_identities() -> None:
    records = planted_trace(0.6837, 32_000, 3, seed=6, positions_per_example=16)
    report = match_rate_by_bucket(records, 3, bucket_width=2)
    assert report.buckets is not None
    assert len(report.buckets) == 8
    assert sum(b.count for b in report.buckets) == report.total_positions
    assert sum(b.matches for b in report.buckets) == report.matches
    for b in report.buckets:
        sigma = math.sqrt(0.6837 * 0.3163 / b.count)
        assert abs(b.p_hat - 0.6837) <= 4 * sigma


def test_bucket_width_validation() -> None:
    records = planted_trace(0.5, 10, 2, seed=7)
    with pytest.raises(DomainError):
        match_rate_by_bucket(records, 2, bucket_width=0)


def test_forecast_matches_reference_tradeoff_point() -> None:
    records = planted_trace(0.6837, 100_000, 3, seed=8)
    fc = forecast_from_trace(records, k=3, d=40, d_bar=20, ell=128)
    assert fc.latency_per_token_norm == pytest.approx(0.658, abs=0.003)
    assert fc.compute_per_time_unit == pytest.approx(3.28, abs=0.02)
    assert fc.report.total_latency == pytest.approx(40 * 128 - 20 * 127 * fc.p_hat, rel=1e-12)


def test_forecast_zero_rate_is_sequential_cost() -> None:
    records = planted_trace(0.0, 400, 3, seed=9)
    fc = forecast_from_trace(records, k=3, d=40, d_bar=20, ell=64)
    assert fc.p_hat == 0.0
    assert fc.report.total_latency == 40 * 64


def test_forecast_interval_endpoints_are_ordered() -> None:
    records = planted_trace(0.5, 2000, 3, seed=10)
    fc = forecast_from_trace(records, k=3, d=40, d_bar=20, ell=128)
    lo_lat, hi_lat = fc.latency_range
    assert lo_lat <= fc.report.total_latency <= hi_lat
    lo_cmp, hi_cmp = fc.compute_range
    assert lo_cmp <= fc.report.total_compute <= hi_cmp


def test_forecast_requires_exact_regime() -> None:
    records = planted_trace(0.5, 100, 3, seed=11)
    with pytest.raises(DomainError):
        forecast_from_trace(records, k=3, d=40, d_bar=10, ell=16)


def test_report_json_and_csv_layout() -> None:
    records = planted_trace(0.5, 640, 2, seed=12, positions_per_example=16)
    report = match_rate_by_bucket(records, 2, bucket_width=4)
    payload = json.loads(report_to_json(report))
    assert payload["total_positions"] == 640
    assert len(payload["buckets"]) == 4
    assert payload["buckets"][0]["range"] == "1-4"

    csv_text = report_to_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "bucket,1-4,5-8,9-12,13-16,Total"
    assert lines[1].startswith("p_hat,")
    assert lines[2].startswith("count,")
    assert lines[3].startswith("matches,")
    assert lines[2].split(",")[-1] == "640"

    flat = report_to_csv(match_rate(records, 2))
    assert flat.strip().split("\n")[0] == "bucket,Total"


def test_planted_trace_is_deterministic() -> None:
    assert planted_trace(0.3, 50, 2, seed=13) == planted_trace(0.3, 50, 2, seed=13)
    assert planted_trace(0.3, 50, 2, seed=13) != planted_trace(0.3, 50, 2, seed=14)


GOOD_LINE = '{"example_id": "a", "position": 1, "early_topk": [1, 2], "final": 2}'


@pytest.mark.parametrize(
    "line, field",
    [
        ('{"example_id": "a", "position": 2, "early_topk": [1.7, 2], "final": 2}', "early_topk"),
        ('{"example_id": "a", "position": 2, "early_topk": [1, 2], "final": "1"}', "final"),
        ('{"example_id": "a", "position": true, "early_topk": [1, 2], "final": 1}', "position"),
        ('{"example_id": 5, "position": 2, "early_topk": [1, 2], "final": 1}', "example_id"),
        ('{"example_id": "a", "position": 2, "early_topk": [1], "final": 1, "layer": 2.0}',
         "layer"),
        ('{"example_id": "a", "position": 2, "early_topk": [9223372036854775808], "final": 1}',
         "early_topk"),
    ],
    ids=["float_topk_entry", "string_final", "bool_position", "int_example_id",
         "float_layer", "id_beyond_int64"],
)
def test_loader_rejects_mistyped_value(line: str, field: str) -> None:
    with pytest.raises(ParseError, match="line 3") as err:
        load_traces(io.StringIO(GOOD_LINE + "\n\n" + line + "\n"))
    assert err.value.line_no == 3
    assert err.value.reason.startswith(field)


def test_duplicate_id_names_its_line() -> None:
    dup = '{"example_id": "a", "position": 2, "early_topk": [3, 3], "final": 3}'
    with pytest.raises(DuplicateIdError, match="line 2") as err:
        load_traces(io.StringIO(GOOD_LINE + "\n" + dup + "\n"))
    assert err.value.line_no == 2


def test_first_bad_line_is_reported() -> None:
    # a bad value on line 2 precedes a line-3 fault found while reading
    text = GOOD_LINE.replace('"position": 1', '"position": 0') + "\n"
    for later in ("not json", '{"example_id": 5}', GOOD_LINE.replace("2]", "1.5]")):
        with pytest.raises(ParseError, match="line 2: position must be >= 1"):
            load_traces(io.StringIO(GOOD_LINE + "\n" + text + later + "\n"))


def test_non_utf8_file_names_its_line(tmp_path) -> None:
    good = GOOD_LINE.encode() + b"\n"
    bad = GOOD_LINE.replace('"a"', '"\xff"').encode("latin-1") + b"\n"
    path = tmp_path / "trace.jsonl"
    # '\r' and '\r\n' end lines too, as they do for a file read as text
    path.write_bytes(good.replace(b"\n", b"\r") + good.replace(b"\n", b"\r\n") + bad + good)
    with pytest.raises(ParseError, match="line 3: not valid UTF-8") as err:
        load_traces(path)
    assert err.value.line_no == 3
    # a bad value on an earlier line is still reported first
    path.write_bytes(good + GOOD_LINE.replace("2]", "1.5]").encode() + b"\n" + bad)
    with pytest.raises(ParseError, match="line 2: early_topk"):
        load_traces(path)


@pytest.mark.parametrize(
    "args",
    [
        ("a", 1, (1.7, 2), 1),
        ("a", 1, (True, 2), 1),
        ("a", 1, ("1", 2), 1),
        ("a", 1, (2**63, 2), 1),
        ("a", 1, (1, 2), "3"),
        ("a", 1, (1, 2), 2.0),
        ("a", True, (1, 2), 1),
        ("a", 1.0, (1, 2), 1),
        ("a", 1, (1, 2), 1, 2.0),
        ("a", 1, (1, 2), 1, False),
    ],
    ids=["float_topk_entry", "bool_topk_entry", "string_topk_entry", "topk_beyond_int64",
         "string_final", "float_final", "bool_position", "float_position", "float_layer",
         "bool_layer"],
)
def test_record_rejects_mistyped_value(args: tuple) -> None:
    with pytest.raises(DomainError):
        TraceRecord(*args)


def test_record_keeps_int_values() -> None:
    record = TraceRecord("a", 2, [5, 3], 3, layer=None)
    assert record.early_topk == (5, 3)
    assert TraceRecord("a", 1, (), -1, 0).layer == 0


HAND_BUILT = [
    TraceRecord("caf\u00e9-\u03b1", 1, (5, 9, 2), 9, layer=12),
    TraceRecord("caf\u00e9-\u03b1", 2, (7,), 3),
    TraceRecord("\u4f8b\u5b50 \"q\"", 1, (4, 0, 11, 6), 6, layer=0),
    TraceRecord("plain", 7, (2**40, -3), -3),
]


@pytest.mark.parametrize(
    "records, digest",
    [
        (lambda: planted_trace(0.6837, 2000, 3, seed=0, layer=20),
         "7dd4322f9276d43ada4a9d1d5d96107a30ee811bfbbf7c82839478749b5bcd4a"),
        (lambda: HAND_BUILT,
         "37756ceef998f4b834b0c7fa7b8210f1d22acc1a4ca75c5a5a44d251808f2212"),
    ],
    ids=["planted", "hand_built"],
)
def test_save_traces_bytes_are_pinned(records, digest: str) -> None:
    # digests of the json.dumps-per-record writer this format was defined by
    buf = io.StringIO()
    save_traces(records(), buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


def test_table_rows_and_equality() -> None:
    table = TraceTable.from_records(HAND_BUILT)
    assert len(table) == 4
    assert list(table) == HAND_BUILT
    assert table == HAND_BUILT and table == tuple(HAND_BUILT)
    assert table != HAND_BUILT[:3] and table != HAND_BUILT[::-1]
    assert TraceTable.from_records([]) == []
    assert table.topk.dtype == np.int64 and table.topk.shape == (4, 4)
    assert table.topk_len.tolist() == [3, 1, 4, 2]
    assert table.layer_absent.tolist() == [False, True, False, True]
    with pytest.raises(ValueError):
        table.position[0] = 5  # columns are read-only


def test_table_padding_is_not_data() -> None:
    def table(pad: int, width: int) -> TraceTable:
        return TraceTable(
            example_ids=("a", "b"), example_code=[1, 0], position=[1, 2],
            topk=[[4, pad] + [pad] * (width - 2), [5, 6] + [pad] * (width - 2)],
            topk_len=[1, 2], final=[4, 6], layer=[pad, 3], layer_absent=[True, False],
        )

    assert table(0, 2) == table(-1, 5)
    assert table(4, 3).topk.tolist() == [[4, 0], [5, 6]]
    assert list(table(7, 2)) == [TraceRecord("b", 1, (4,), 4), TraceRecord("a", 2, (5, 6), 6, 3)]


def test_table_construction_errors() -> None:
    good = dict(example_ids=("a",), example_code=[0], position=[1], topk=[[1, 2]],
                topk_len=[2], final=[1], layer=[0], layer_absent=[True])
    TraceTable(**good)
    for change in ({"topk": [[1, 1]]}, {"topk": [[1, 5], [1, 5]]}, {"topk_len": [3]},
                   {"example_code": [1]}, {"final": [1.5]}, {"position": [0]}):
        with pytest.raises(ValueError):
            TraceTable(**{**good, **change})
    with pytest.raises(DuplicateIdError, match="row 0"):
        TraceTable(**{**good, "topk": [[1, 1]]})
    with pytest.raises(DomainError, match="row 0"):
        TraceTable.from_records([TraceRecord(5, 1, (1,), 1)])


def test_reports_carry_python_scalars() -> None:
    report = match_rate_by_bucket(planted_trace(0.5, 64, 2, seed=15), 2, bucket_width=4)
    fields = [report.k, report.total_positions, report.matches, report.p_hat, *report.ci95]
    for b in report.buckets:
        fields += [b.lo, b.hi, b.count, b.matches, b.p_hat]
    assert {type(f) for f in fields} <= {int, float}
    assert "np." not in report_to_csv(report)
    json.loads(report_to_json(report))
