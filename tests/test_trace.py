from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import time

import numpy as np
import pytest

from pipedec import tracetable
from pipedec.core import DomainError
from pipedec.trace import (
    MatchRateReport,
    ParseError,
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
    assert len(load_traces(path)) == 0


def test_save_load_round_trip(tmp_path) -> None:
    records = planted_trace(0.5, 200, 3, seed=1, layer=20)
    path = tmp_path / "trace.jsonl"
    save_traces(records, path)
    assert load_traces(path) == records
    # layer is optional and survives omission
    bare = '{"example_id": "e", "position": 1, "early_topk": [4, 5], "final": 4}\n'
    buf = io.StringIO()
    save_traces(load_traces(io.StringIO(bare)), buf)
    assert buf.getvalue() == bare


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
    with pytest.raises(ParseError, match="line 1: duplicate ids"):
        load_traces(
            io.StringIO('{"example_id": "a", "position": 1, "early_topk": [3, 3], "final": 3}\n')
        )
    with pytest.raises(ParseError, match="line 1: position must be >= 1"):
        load_traces(io.StringIO(GOOD_LINE.replace('"position": 1', '"position": 0')))


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
        match_rate(load_traces(io.StringIO("")), 1)


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
    # the half-depth forms d*(1-p/2)/d, (k+2-p)/(2-p) and (2+k-p)/2
    hat = fc.p_hat
    assert (fc.latency_per_token_norm, fc.compute_per_time_unit, fc.compute_per_token) == (
        40 * (1.0 - hat / 2.0) / 40, (3 + 2.0 - hat) / (2.0 - hat), (2.0 + 3 - hat) / 2.0,
    )
    # past half depth the window ratio is r = 40 / (40 - 30) = 4
    off = forecast_from_trace(records, k=3, d=40, d_bar=30, ell=128)
    hat = off.p_hat
    assert (off.latency_per_token_norm, off.compute_per_time_unit, off.compute_per_token) == (
        40 * (1.0 - hat / 4.0) / 40, (3 + 4.0 - hat) / (4.0 - hat), (4.0 + 3 - hat) / 4.0,
    )
    assert off.latency_per_token_norm == pytest.approx(1 - 0.6837 / 4, abs=0.002)
    assert off.report.total_latency == pytest.approx(40 * 128 - 10 * 127 * off.p_hat, rel=1e-12)


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


@pytest.mark.parametrize("change, message", [
    ({"k": 0}, "need 1 <= k < vocab, got k=0, vocab=1000"),
    ({"k": 1000}, "need 1 <= k < vocab, got k=1000, vocab=1000"),
    ({"positions_per_example": 0}, "positions_per_example must be >= 1, got 0"),
])
def test_planted_trace_rejects_a_bad_shape(change, message) -> None:
    with pytest.raises(DomainError, match=message):
        planted_trace(**{"p_correct": 0.5, "n_positions": 10, "k": 2, "seed": 0, **change})


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
        ('{"example_id": "a", "position": 2, "early_topk": [true, 2], "final": 2}', "early_topk"),
        ('{"example_id": "a", "position": 2, "early_topk": ["1", 2], "final": 2}', "early_topk"),
        ('{"example_id": "a", "position": 2, "early_topk": [1, 2], "final": 2.0}', "final"),
        ('{"example_id": "a", "position": 1.0, "early_topk": [1, 2], "final": 2}', "position"),
        ('{"example_id": "a", "position": 2, "early_topk": [1], "final": 1, "layer": false}',
         "layer"),
        # a present null is mistyped, not an absent layer
        ('{"example_id": "a", "position": 2, "early_topk": [1], "final": 1, "layer": null}',
         "layer"),
        # one past each end of int64: orjson reads 2**63 as an int, so the type gate decides
        *(
            (GOOD_LINE.replace("}", f', "layer": 1}}').replace(f'"{field}": {old}',
                                                           f'"{field}": {value}'), field)
            for field, old in (("position", 1), ("final", 2), ("layer", 1))
            for value in (2**63, -(2**63) - 1)
        ),
    ],
    ids=["float_topk_entry", "string_final", "bool_position", "int_example_id",
         "float_layer", "id_beyond_int64", "bool_topk_entry", "string_topk_entry",
         "float_final", "float_position", "bool_layer", "null_layer",
         "position_2**63", "position_-2**63-1", "final_2**63", "final_-2**63-1",
         "layer_2**63", "layer_-2**63-1"],
)
def test_loader_rejects_mistyped_value(line: str, field: str) -> None:
    with pytest.raises(ParseError, match="line 3") as err:
        load_traces(io.StringIO(GOOD_LINE + "\n\n" + line + "\n"))
    assert err.value.line_no == 3
    assert err.value.reason.startswith(field)


def test_mistyped_message_names_the_entry_and_is_capped() -> None:
    line = GOOD_LINE.replace("[1, 2]", str([*range(100_000), 1.5]))
    with pytest.raises(ParseError) as err:
        load_traces(io.StringIO(line + "\n"))
    assert err.value.reason == "early_topk[100000] must be an int64 token id, got 1.5"
    long_id = GOOD_LINE.replace('"a"', str([*range(100_000)]))
    with pytest.raises(ParseError) as err:
        load_traces(io.StringIO(long_id + "\n"))
    assert err.value.reason.startswith("example_id must be a string, got [0, 1, 2, ")
    assert len(err.value.reason) < 100


def test_duplicate_id_names_its_line() -> None:
    dup = '{"example_id": "a", "position": 2, "early_topk": [3, 3], "final": 3}'
    with pytest.raises(ParseError, match="line 2: duplicate ids") as err:
        load_traces(io.StringIO(GOOD_LINE + "\n" + dup + "\n"))
    assert err.value.line_no == 2


def test_duplicate_key_names_its_line() -> None:
    repeated = GOOD_LINE.replace("}", ', "final": 5}')
    with pytest.raises(ParseError, match="line 2: duplicate key 'final'") as err:
        load_traces(io.StringIO(GOOD_LINE + "\n" + repeated + "\n"))
    assert err.value.line_no == 2
    # unknown keys are ignored
    assert len(load_traces(io.StringIO(GOOD_LINE.replace("}", ', "note": {"x": 1}}')))) == 1


def test_duplicate_key_among_many_keys_is_found_in_linear_time() -> None:
    # looking for the repeat in every prefix of the keys took ~25 s here
    extra = ", ".join(f'"x{i}": 0' for i in range(50_000))
    line = GOOD_LINE.replace("}", f', {extra}, "x17": 1}}')
    start = time.perf_counter()
    with pytest.raises(ParseError, match="line 1: duplicate key 'x17'"):
        load_traces(io.StringIO(line + "\n"))
    assert time.perf_counter() - start < 2.0


def test_first_bad_line_is_reported() -> None:
    # a bad value on line 2 precedes a line-3 fault found while reading
    text = GOOD_LINE.replace('"position": 1', '"position": 0') + "\n"
    for later in ("not json", '{"example_id": 5}', GOOD_LINE.replace("2]", "1.5]"),
                  GOOD_LINE.replace("}", ', "final": 5}')):
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


def test_deep_nesting_names_its_line() -> None:
    deep = GOOD_LINE.replace("}", ', "note": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(ParseError, match=r"^line 2: invalid JSON \(nesting too deep\)$") as err:
        load_traces(io.StringIO(GOOD_LINE + "\n" + deep + "\n"))
    assert err.value.line_no == 2


def test_record_keeps_int_values() -> None:
    # layer 0 is a tag, not an absent layer; an empty early_topk and a negative final are data
    table = load_traces(io.StringIO(
        '{"example_id": "a", "position": 1, "early_topk": [], "final": -1, "layer": 0}\n'
    ))
    assert table.topk_len.tolist() == [0] and table.final.tolist() == [-1]
    assert table.layer.tolist() == [0] and table.layer_absent.tolist() == [False]


# written by json.dumps, the writer this format was defined by
HAND_BUILT = "".join(json.dumps(row) + "\n" for row in [
    {"example_id": "caf\u00e9-\u03b1", "position": 1, "early_topk": [5, 9, 2], "final": 9,
     "layer": 12},
    {"example_id": "caf\u00e9-\u03b1", "position": 2, "early_topk": [7], "final": 3},
    {"example_id": "\u4f8b\u5b50 \"q\"", "position": 1, "early_topk": [4, 0, 11, 6], "final": 6,
     "layer": 0},
    {"example_id": "plain", "position": 7, "early_topk": [2**40, -3], "final": -3},
])


def hand_built() -> TraceTable:
    return load_traces(io.StringIO(HAND_BUILT))


@pytest.mark.parametrize(
    "records, digest",
    [
        (lambda: planted_trace(0.6837, 2000, 3, seed=0, layer=20),
         "7dd4322f9276d43ada4a9d1d5d96107a30ee811bfbbf7c82839478749b5bcd4a"),
        (hand_built,
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
    table = hand_built()
    assert len(table) == 4
    assert table.example_ids == ("caf\u00e9-\u03b1", "\u4f8b\u5b50 \"q\"", "plain")
    assert table.example_code.tolist() == [0, 0, 1, 2]
    assert table.position.tolist() == [1, 2, 1, 7]
    assert table.topk.tolist() == [[5, 9, 2, 0], [7, 0, 0, 0], [4, 0, 11, 6], [2**40, -3, 0, 0]]
    assert table.final.tolist() == [9, 3, 6, -3]
    assert table.layer.tolist() == [12, 0, 0, 0]
    lines = HAND_BUILT.splitlines(keepends=True)
    assert table == hand_built() and table != []
    assert table != load_traces(io.StringIO("".join(lines[:3])))
    assert table != load_traces(io.StringIO("".join(lines[::-1])))
    assert load_traces(io.StringIO("")) == load_traces(io.StringIO("\n"))
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
    # the same rows with the string table in another order
    assert table(7, 2) == load_traces(io.StringIO(
        '{"example_id": "b", "position": 1, "early_topk": [4], "final": 4}\n'
        '{"example_id": "a", "position": 2, "early_topk": [5, 6], "final": 6, "layer": 3}\n'
    ))


GOOD_COLUMNS = dict(example_ids=("a",), example_code=[0], position=[1], topk=[[1, 2]],
                    topk_len=[2], final=[1], layer=[0], layer_absent=[True])


def test_table_construction_errors() -> None:
    good = GOOD_COLUMNS
    TraceTable(**good)
    for change in ({"topk": [[1, 1]]}, {"topk": [[1, 5], [1, 5]]}, {"topk_len": [3]},
                   {"example_code": [1]}, {"final": [1.5]}, {"position": [0]},
                   {"example_ids": (5,)}):
        with pytest.raises(ValueError):
            TraceTable(**{**good, **change})
    with pytest.raises(DomainError, match="row 0: duplicate ids"):
        TraceTable(**{**good, "topk": [[1, 1]]})
    with pytest.raises(DomainError, match="row 0: position must be >= 1"):
        TraceTable(**{**good, "position": [0]})


@pytest.mark.parametrize(
    "change, field",
    [
        ({"topk": [[1.7, 2]]}, "topk"),
        # numpy reads a list mixing bools and ints as int64, so the bool row is all bools
        ({"topk": [[True, False]]}, "topk"),
        ({"topk": [["1", 2]]}, "topk"),
        ({"topk": [[2**63, 2]]}, "topk"),
        ({"final": ["3"]}, "final"),
        ({"final": [2.0]}, "final"),
        ({"position": [True]}, "position"),
        ({"position": [1.0]}, "position"),
        ({"layer": [2.0], "layer_absent": [False]}, "layer"),
        ({"layer": [False], "layer_absent": [False]}, "layer"),
        # and a bool mixed into a sequence of ints is caught element by element
        ({"topk": [[True, 2]]}, "topk"),
        ({"example_code": [0, 0], "position": [1, 2], "topk": [[1, 2], [1, 2]],
          "topk_len": [2, 2], "final": [True, 2], "layer": [0, 0], "layer_absent": [True, True]},
         "final"),
    ],
    ids=["float_topk_entry", "bool_topk_entry", "string_topk_entry", "topk_beyond_int64",
         "string_final", "float_final", "bool_position", "float_position", "float_layer",
         "bool_layer", "mixed_bool_topk_entry", "mixed_bool_final"],
)
def test_record_rejects_mistyped_value(change: dict, field: str) -> None:
    # a one-row table built by the constructor, the library's way to build a trace
    with pytest.raises(DomainError, match=f"^{field} must hold int64 values"):
        TraceTable(**{**GOOD_COLUMNS, **change})


def test_table_rejects_unsigned_beyond_int64() -> None:
    for name, values in (("final", [2**63]), ("topk", np.array([[1, 2**63]], np.uint64)),
                         ("position", [2**64 - 1])):
        with pytest.raises(DomainError, match=f"^{name} must hold int64 values"):
            TraceTable(**{**GOOD_COLUMNS, name: values})
    # unsigned values within int64 are kept
    table = TraceTable(**{**GOOD_COLUMNS, "final": np.array([2**63 - 1], np.uint64),
                          "topk": np.array([[1, 2]], np.uint64)})
    assert table.final.tolist() == [2**63 - 1] and table.topk.dtype == np.int64


def test_reports_carry_python_scalars() -> None:
    report = match_rate_by_bucket(planted_trace(0.5, 64, 2, seed=15), 2, bucket_width=4)
    fields = [report.k, report.total_positions, report.matches, report.p_hat, *report.ci95]
    for b in report.buckets:
        fields += [b.lo, b.hi, b.count, b.matches, b.p_hat]
    assert {type(f) for f in fields} <= {int, float}
    assert "np." not in report_to_csv(report)
    json.loads(report_to_json(report))


def test_table_adopts_only_read_only_arrays_it_may_own() -> None:
    mine = np.array([1], np.int64)
    table = TraceTable(**{**GOOD_COLUMNS, "position": mine})
    # a writable array is copied, and stays writable
    assert mine.flags.writeable and not np.shares_memory(mine, table.position)
    assert not table.position.flags.writeable
    frozen = np.array([1], np.int64)
    frozen.setflags(write=False)
    assert TraceTable(**{**GOOD_COLUMNS, "position": frozen}).position is frozen
    # an adopted array goes through the same type checks
    beyond = np.array([2**63], np.uint64)
    beyond.setflags(write=False)
    with pytest.raises(DomainError, match="^final must hold int64 values"):
        TraceTable(**{**GOOD_COLUMNS, "final": beyond})


def test_loader_hands_its_columns_over_without_a_copy(monkeypatch) -> None:
    adopted = {}

    def spy(values, name):
        column = real(values, name)
        adopted[name] = column is values
        return column

    real = tracetable._column
    monkeypatch.setattr(tracetable, "_column", spy)
    load_traces(io.StringIO(GOOD_LINE + "\n"))
    assert adopted == dict.fromkeys(
        ("example_code", "position", "topk", "topk_len", "final", "layer", "layer_absent"), True)


def test_lone_surrogate_in_a_stream_reports_its_byte_offset() -> None:
    # 'é' is two bytes in UTF-8, so the surrogate at character 17 starts at byte 19
    line = GOOD_LINE.replace('"a"', '"é\ud800"')
    assert line.index("\ud800") == 17
    with pytest.raises(ParseError, match=r"line 1: not valid UTF-8 .*at byte 19\)"):
        load_traces(io.StringIO(line + "\n"))


# ----------------------------------------------------- files longer than one block

BLOCK = tracetable._LINE_BLOCK


def _planted_lines(n: int) -> list[str]:
    buf = io.StringIO()
    save_traces(planted_trace(0.6837, n, 3, seed=0, layer=20), buf)
    return buf.getvalue().splitlines(keepends=True)


def _outcome(text: str):
    try:
        return load_traces(io.StringIO(text))
    except ParseError as exc:
        return exc.line_no, exc.reason


def _stdlib_outcome(monkeypatch, text: str):
    """The outcome of the loader whose fast parse declines every block and every line."""
    with monkeypatch.context() as patch:
        patch.setattr(tracetable, "_fast_parse", lambda lines, objs: None)
        return _outcome(text)


def test_fault_in_the_second_block_names_its_line(monkeypatch) -> None:
    lines = _planted_lines(2 * BLOCK)
    lines[BLOCK + 17] = GOOD_LINE.replace('"position": 1', '"position": 1.5') + "\n"
    text = "".join(lines)
    expected = (BLOCK + 18, "position must be an int64 integer, got 1.5")
    assert _outcome(text) == expected == _stdlib_outcome(monkeypatch, text)


def test_table_fault_in_block_one_wins_over_parse_fault_in_block_three(monkeypatch) -> None:
    lines = _planted_lines(3 * BLOCK)
    lines[5] = GOOD_LINE.replace('"position": 1', '"position": 0') + "\n"
    lines[2 * BLOCK + 9] = "not json\n"
    text = "".join(lines)
    expected = (6, "position must be >= 1, got 0")
    assert _outcome(text) == expected == _stdlib_outcome(monkeypatch, text)


def _decoded_lines(monkeypatch, text: str):
    """The lines that reach the stdlib decoder while ``text`` loads, and the outcome."""
    decoded = []
    real = tracetable._DECODER.decode
    with monkeypatch.context() as patch:
        patch.setattr(tracetable._DECODER, "decode", lambda s: decoded.append(s) or real(s))
        outcome = _outcome(text)
    return decoded, outcome


def test_escaped_id_after_a_clean_block_loads_as_the_stdlib_decoder_does(monkeypatch) -> None:
    lines = _planted_lines(2 * BLOCK)
    for at in range(BLOCK, 2 * BLOCK):  # non-ASCII ids, escaped as save_traces writes them
        lines[at] = lines[at].replace('"example_id": "', '"example_id": "caf\\u00e9')
    text = "".join(lines)
    decoded, table = _decoded_lines(monkeypatch, text)
    assert decoded == []
    oracle = _stdlib_outcome(monkeypatch, text)
    assert table == oracle and table.example_ids == oracle.example_ids
    assert table.example_ids[table.example_code[BLOCK + 3]].startswith("café")


@pytest.mark.parametrize("line", [GOOD_LINE.replace('"a"', '"\\u0061"')], ids=["escaped_id"])
def test_only_lines_orjson_may_misread_reach_the_stdlib_decoder(monkeypatch, line) -> None:
    # orjson reads an escaped id as the stdlib decoder does, so its line passes the block gate
    decoded, _ = _decoded_lines(monkeypatch, "".join(_planted_lines(BLOCK + 300)))
    assert decoded == []
    text = GOOD_LINE + "\n" + line + "\n"
    decoded, table = _decoded_lines(monkeypatch, text)
    assert decoded == []
    oracle = _stdlib_outcome(monkeypatch, text)
    assert table == oracle and table.example_ids == oracle.example_ids == ("a",)


@pytest.mark.parametrize(
    "change",
    [
        ('"final"', '"model": "x", "final"'),
        ('"final"', '"meta": {"m": "x", "n": [1, {"o": "p"}]}, "final"'),
        # the dump's \\" ends the string: an escaped backslash, then the closing quote
        ('"final"', '"dir": "C:\\\\tmp\\\\", "final"'),
    ],
    ids=["flat_metadata", "nested_metadata", "metadata_ending_in_a_backslash"],
)
def test_metadata_never_reaches_the_stdlib_decoder(monkeypatch, change) -> None:
    # rows with and without a layer, and metadata on one line in 97
    lines = [line.replace(', "layer": 20', "") if i % 2 else line
             for i, line in enumerate(_planted_lines(2 * BLOCK))]
    for at in range(3, 2 * BLOCK, 97):
        lines[at] = lines[at].replace(*change)
    text = "".join(lines)
    decoded, table = _decoded_lines(monkeypatch, text)
    assert decoded == []
    oracle = _stdlib_outcome(monkeypatch, text)
    assert table == oracle and table.example_ids == oracle.example_ids


@pytest.mark.parametrize(
    "line",
    [
        GOOD_LINE.replace("}", ', "final": 5}'),
        GOOD_LINE.replace('"a"', '"a\\"b"'),
        GOOD_LINE.replace("[1, 2]", f"[1, {2**64}]"),
        GOOD_LINE.replace("}", ', "note": NaN}'),  # the stdlib decoder reads it; orjson cannot
    ],
    ids=["repeated_key", "escaped_quote_in_id", "topk_entry_beyond_64_bits",
         "nan_in_unknown_field"],
)
def test_block_orjson_may_misread_goes_whole_to_stdlib(monkeypatch, line) -> None:
    lines = _planted_lines(3 * BLOCK)
    lines[2 * BLOCK - 1] = line + "\n"  # the last line of the second block
    text = "".join(lines)
    decoded, outcome = _decoded_lines(monkeypatch, text)
    assert decoded == [s.strip() for s in lines[BLOCK : 2 * BLOCK]]
    assert outcome == _stdlib_outcome(monkeypatch, text)


def test_blank_lines_and_crlf_endings_inside_a_block(monkeypatch) -> None:
    lines = _planted_lines(BLOCK + 100)
    expected = load_traces(io.StringIO("".join(lines)))
    lines = [line.replace("\n", "\r\n") if i % 3 else line for i, line in enumerate(lines)]
    for at in (0, 7, 500, BLOCK - 3, BLOCK + 50):
        lines.insert(at, "  \r\n" if at % 2 else "\n")
    lines.append("\t\n")
    text = "".join(lines)
    assert load_traces(io.StringIO(text)) == expected == _stdlib_outcome(monkeypatch, text)
    # a fault after the blank lines is reported at its line in the file
    text += "{}\n"
    expected_fault = (len(lines) + 1, "missing field 'example_id'")
    assert _outcome(text) == expected_fault == _stdlib_outcome(monkeypatch, text)


@pytest.mark.parametrize("declined", [False, True], ids=["fast_parse", "stdlib_decoder"])
def test_load_runs_at_most_two_garbage_collections(declined) -> None:
    # a block's orjson dicts and early_topk lists, or its stdlib rows, die before they reach
    # the gen-0 threshold; the count is taken with a callback, and the collector's own state
    # is left alone.  An escaped quote on one line in 200 sends every block to the stdlib.
    lines = _planted_lines(20_000)
    if declined:
        lines[::200] = [s.replace('"example_id": "', '"example_id": "\\"') for s in lines[::200]]
    text = "".join(lines)
    collections = []

    def hook(phase: str, info: dict) -> None:
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        table = load_traces(io.StringIO(text))
    finally:
        gc.callbacks.remove(hook)
    assert len(table) == 20_000
    assert any('"' in s for s in table.example_ids) == declined
    assert len(collections) <= 2, collections
