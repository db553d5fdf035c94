"""Property tests: columnar trace code against row-by-row references."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipedec import tracetable
from pipedec.core import DomainError
from pipedec.trace import (
    BucketRow,
    MatchRateReport,
    ParseError,
    load_traces,
    match_rate,
    match_rate_by_bucket,
    save_traces,
    wilson_interval,
)

TOKENS = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SMALL_TOKENS = st.integers(min_value=0, max_value=6)


@st.composite
def records(draw, tokens=TOKENS, min_topk: int = 0) -> tuple:
    """One trace row as (example_id, position, early_topk, final, layer or None)."""
    topk = draw(st.lists(tokens, min_size=min_topk, max_size=5, unique=True))
    hit = bool(topk) and draw(st.booleans())
    return (
        draw(st.text(max_size=4)),
        draw(st.integers(min_value=1, max_value=2**63 - 1) | st.integers(1, 40)),
        topk,
        draw(st.sampled_from(topk) if hit else tokens),
        draw(st.none() | TOKENS),
    )


def jsonl(rows: list[tuple]) -> str:
    """The rows as trace text, one ``json.dumps`` line each, ``layer`` omitted when None."""
    keys = ("example_id", "position", "early_topk", "final", "layer")
    return "".join(
        json.dumps({key: v for key, v in zip(keys, row) if v is not None}) + "\n" for row in rows
    )


@given(rows=st.lists(records(), max_size=30), data=st.data())
def test_save_load_round_trip(rows: list[tuple], data) -> None:
    text = jsonl(rows)
    lines = text.splitlines(keepends=True)
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["\n", "  \n", "\t\n"])))
    table = load_traces(io.StringIO("".join(lines)))
    buf = io.StringIO()
    save_traces(table, buf)
    assert buf.getvalue() == text
    assert load_traces(io.StringIO(text)) == table


INT64_EDGES = st.sampled_from([-(2**63), 2**63 - 1]) | TOKENS
# ids a format string could misread (%), JSON escapes (", non-ASCII) and plain ones
WRITER_IDS = st.sampled_from(["a%b", 'q"\u00e9', "%d", "%%s", "\u4f8b\\", "ex1"]) | st.text(
    max_size=3)


@st.composite
def writer_rows(draw) -> tuple:
    """One row for the writer: (example_id, position, early_topk, final, layer or None)."""
    return (
        draw(WRITER_IDS),
        draw(st.sampled_from([1, 2**63 - 1]) | st.integers(1, 2**63 - 1)),
        draw(st.lists(INT64_EDGES, max_size=4, unique=True)),
        draw(INT64_EDGES),
        draw(st.none() | INT64_EDGES),
    )


def _table(rows: list[tuple]) -> tracetable.TraceTable:
    """The rows as a table built by the constructor, not by the loader."""
    ids = list(dict.fromkeys(row[0] for row in rows))
    kmax = max((len(row[2]) for row in rows), default=0)
    return tracetable.TraceTable(
        example_ids=tuple(ids),
        example_code=np.array([ids.index(row[0]) for row in rows], np.int64),
        position=np.array([row[1] for row in rows], np.int64),
        topk=np.array([row[2] + [0] * (kmax - len(row[2])) for row in rows],
                      np.int64).reshape(len(rows), kmax),
        topk_len=np.array([len(row[2]) for row in rows], np.int64),
        final=np.array([row[3] for row in rows], np.int64),
        layer=np.array([0 if row[4] is None else row[4] for row in rows], np.int64),
        layer_absent=np.array([row[4] is None for row in rows], bool),
    )


@given(rows=st.lists(writer_rows(), max_size=12), block=st.integers(1, 4))
def test_save_traces_writes_json_dumps_of_each_row(rows: list[tuple], block: int) -> None:
    table = _table(rows)
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tracetable, "_ROW_BLOCK", block)  # small, so that rows span blocks
        save_traces(table, buf)
    assert buf.getvalue() == jsonl(rows)


def _reference(rows: list[tuple], k: int, width: int) -> MatchRateReport:
    """match_rate_by_bucket, one row at a time."""
    counts: dict[int, int] = {}
    hits: dict[int, int] = {}
    for _, position, early_topk, final, _ in rows:
        b = (position - 1) // width
        counts[b] = counts.get(b, 0) + 1
        hits[b] = hits.get(b, 0) + (final in early_topk[:k])
    matches = sum(hits.values())
    return MatchRateReport(
        k=k,
        total_positions=len(rows),
        matches=matches,
        p_hat=matches / len(rows),
        ci95=wilson_interval(matches, len(rows)),
        buckets=tuple(
            BucketRow(b * width + 1, (b + 1) * width, counts[b], hits[b], hits[b] / counts[b])
            for b in sorted(counts)
        ),
    )


@given(
    rows=st.lists(records(tokens=SMALL_TOKENS, min_topk=1), min_size=1, max_size=40),
    k=st.integers(1, 5),
    width=st.integers(1, 12),
)
def test_match_rates_equal_row_by_row_reference(rows, k: int, width: int) -> None:
    table = load_traces(io.StringIO(jsonl(rows)))
    if k > min(len(early_topk) for _, _, early_topk, _, _ in rows):
        with pytest.raises(DomainError):
            match_rate(table, k)
        return
    expected = _reference(rows, k, width)
    assert match_rate_by_bucket(table, k, width) == expected
    assert match_rate(table, k) == MatchRateReport(
        expected.k, expected.total_positions, expected.matches, expected.p_hat, expected.ci95
    )


# JSON texts on which orjson and the stdlib decoder can disagree: integers at and beyond
# 64 bits (orjson reads them as floats; 400 digits overflow a double, 5000 exceed the
# stdlib's digit limit), non-finite numbers, escapes, a raw control character, and (DEEP)
# nesting deeper than the stdlib reads
INTS = st.sampled_from(
    [str(2**63 - 1), str(2**63), str(2**64), str(-(2**63) - 1), "9" * 400, "-" + "9" * 5000]
) | st.integers(2**64, 2**70).map(str) | st.integers(-(2**63), 2**63 - 1).map(str)
ATOMS = st.sampled_from([
    "1.5", "1e999", "NaN", "true", "null", '"s"', '"\\u00e9"', '"é"', '"a\\"b"', '"\\ud800"',
    '"a\tb"', "{}",
])
# hypothesis raises the recursion limit by 2000 while a test runs, so only the deepest of
# these stops the stdlib decoder here, as 1200 does at the interpreter's default limit
DEEP = st.sampled_from([300, 1200, 5000]).map(lambda depth: "[" * depth + "]" * depth)
NEW_KEYS = st.sampled_from(['"note"', '"x"', '"fin\\u0061l"', '"\\u00e9"', '"é"'])


def _array(items: list[str]) -> str:
    return "[" + ", ".join(items) + "]"


def _object(pairs: list[tuple[str, str]]) -> str:
    return "{" + ", ".join(f"{key}: {value}" for key, value in pairs) + "}"


VALUES = INTS | ATOMS | DEEP | st.recursive(
    INTS | ATOMS,
    lambda inner: st.lists(inner, max_size=3).map(_array)
    | st.lists(st.tuples(NEW_KEYS, inner), max_size=3).map(_object),
    max_leaves=4,
)
# a value for a known field: a list of the scalars above, as early_topk holds, or any value
FIELD_VALUES = st.lists(INTS | ATOMS, max_size=3).map(_array) | VALUES


@st.composite
def trace_lines(draw) -> str:
    """One line of a trace file: mostly a record, often altered, else blank or not a record."""
    kind = draw(st.sampled_from(["record"] * 6 + ["blank", "other"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    if kind == "other":
        return draw(VALUES | st.sampled_from(["not json", "{", '{"example_id": "a",}']))
    example_id = draw(st.sampled_from(["a", "ex1"]) | st.text("ab\u00e9\u4f8b\"\x01", max_size=3))
    topk = draw(st.lists(st.integers(0, 6), max_size=4))  # a repeated id is a table fault
    pairs = [
        ('"example_id"', json.dumps(example_id, ensure_ascii=draw(st.booleans()))),
        ('"position"', str(draw(st.integers(0, 3)))),  # position 0 is a table fault
        ('"early_topk"', str(topk)),
        ('"final"', str(draw(st.integers(0, 6)))),
    ] + draw(st.sampled_from([[], [('"layer"', "20")]]))
    # at most one known field takes a value that may be mistyped
    at = draw(st.integers(0, len(pairs) + 1))
    if at < len(pairs):
        pairs[at] = (pairs[at][0], draw(FIELD_VALUES))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(pairs) - 1))
        action = draw(st.sampled_from(["add", "add", "repeat", "drop"]))
        if action == "add":
            pairs.insert(at, (draw(NEW_KEYS), draw(VALUES | DEEP)))
        elif action == "repeat":
            pairs.append((pairs[at][0], draw(VALUES)))
        elif len(pairs) > 1:
            del pairs[at]
    return _object(pairs)


def _outcome(text: str):
    try:
        return load_traces(io.StringIO(text))
    except ParseError as exc:
        return type(exc), exc.line_no, exc.reason


@settings(max_examples=300)
@given(lines=st.lists(trace_lines(), max_size=6))
@example(lines=[  # one line that each clause of the fast parse's rule keeps from orjson
    '[["a", "b"], "c", "d"]',
    '{"example_id": "a", "position": 1, "early_topk": [1], "final": 1, "final": 2}',
    f'{{"example_id": [{2**64}, "s"], "position": 1, "early_topk": [1], "final": 1}}',
    f'{{"example_id": "a", "position": {2**64}, "early_topk": [1], "final": 1}}',
    f'{{"example_id": "a", "position": 1, "early_topk": [1, {2**64}], "final": 1}}',
    '{"example_id": "a", "position": 1, "early_topk": 7, "final": 1}',
    f'{{"example_id": "a", "position": 1, "early_topk": [1], "final": {2**64}}}',
    f'{{"example_id": "a", "position": 1, "early_topk": [1], "final": 1, "layer": {2**64}}}',
    '{"example_id": "a", "position": 1, "early_topk": [1], "final": 1, "x": '
    + "[" * 5000 + "]" * 5000 + "}",
])
@example(lines=[  # orjson reads 2**63 as an int, so the type gate alone keeps it from the table
    f'{{"example_id": "a", "position": {2**63}, "early_topk": [1], "final": 1}}',
    f'{{"example_id": "a", "position": 1, "early_topk": [1, {2**63}], "final": 1}}',
    f'{{"example_id": "a", "position": 1, "early_topk": [1], "final": {2**63}}}',
    f'{{"example_id": "a", "position": 1, "early_topk": [1], "final": 1, "layer": {2**63}}}',
])
@example(lines=[  # lines whose surplus of quotes the dump of orjson's reading must explain
    # two escaped quotes stand in for the quotes of the repeated key that orjson dropped
    '{"example_id": "a", "position": 1, "early_topk": [1], "final": 1, "n": 1, '
    '"n": "\\u0022\\u0022"}',
    '{"example_id": "a\\"b", "position": 1, "early_topk": [1], "final": 1}',
    '{"example_id": "a", "position": 1, "early_topk": [1], "final": 1, '
    '"meta": {"m": "x", "m": "y"}}',
    # 256 brackets, as many as a line may open, but nested deeper than orjson writes
    '{"example_id": "a", "position": 1, "early_topk": [1], "final": 1, "m": "s", "x": '
    + "[" * 254 + "]" * 254 + "}",
])
@example(lines=[  # metadata ending in a backslash: the dump's \\" is no escaped quote
    '{"example_id": "a", "position": 1, "early_topk": [1], "final": 1, "dir": "C:\\\\tmp\\\\"}',
    '{"example_id": "a\\\\", "position": 1, "early_topk": [1], "final": 1, "m": "\\\\\\""}',
])
def test_fast_parse_equals_the_stdlib_decoder(lines: list[str]) -> None:
    # the whole file, for the order of faults, and each line alone, which no earlier fault hides
    texts = ["\n".join(lines) + "\n"] + [line + "\n" for line in lines]
    with pytest.MonkeyPatch.context() as patch:
        # blocks of three lines, so that a file of up to six crosses a block boundary
        patch.setattr(tracetable, "_LINE_BLOCK", 3)
        shipped = [_outcome(text) for text in texts]
        # the stdlib-only loader: the fast parse declines every block and every line
        patch.setattr(tracetable, "_fast_parse", lambda lines, objs: None)
        oracle = [_outcome(text) for text in texts]
    for mine, theirs in zip(shipped, oracle):
        assert type(mine) is type(theirs)
        assert mine == theirs
        if isinstance(mine, tracetable.TraceTable):
            assert mine.example_ids == theirs.example_ids
