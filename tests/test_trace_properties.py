"""Property tests: columnar trace code against row-by-row references."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipedec.core import DomainError
from pipedec.trace import (
    BucketRow,
    MatchRateReport,
    TraceRecord,
    TraceTable,
    load_traces,
    match_rate,
    match_rate_by_bucket,
    save_traces,
    wilson_interval,
)

TOKENS = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SMALL_TOKENS = st.integers(min_value=0, max_value=6)


@st.composite
def records(draw, tokens=TOKENS, min_topk: int = 0) -> TraceRecord:
    topk = draw(st.lists(tokens, min_size=min_topk, max_size=5, unique=True))
    hit = bool(topk) and draw(st.booleans())
    return TraceRecord(
        example_id=draw(st.text(max_size=4)),
        position=draw(st.integers(min_value=1, max_value=2**63 - 1) | st.integers(1, 40)),
        early_topk=tuple(topk),
        final=draw(st.sampled_from(topk) if hit else tokens),
        layer=draw(st.none() | TOKENS),
    )


@settings(deadline=None)
@given(rows=st.lists(records(), max_size=30), data=st.data())
def test_save_load_round_trip(rows: list[TraceRecord], data) -> None:
    table = TraceTable.from_records(rows)
    buf = io.StringIO()
    save_traces(table, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["\n", "  \n", "\t\n"])))
    loaded = load_traces(io.StringIO("".join(lines)))
    assert loaded == table
    assert list(loaded) == rows


def _reference(rows: list[TraceRecord], k: int, width: int) -> MatchRateReport:
    """match_rate_by_bucket, one record at a time."""
    counts: dict[int, int] = {}
    hits: dict[int, int] = {}
    for r in rows:
        b = (r.position - 1) // width
        counts[b] = counts.get(b, 0) + 1
        hits[b] = hits.get(b, 0) + (r.final in r.early_topk[:k])
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


@settings(deadline=None)
@given(
    rows=st.lists(records(tokens=SMALL_TOKENS, min_topk=1), min_size=1, max_size=40),
    k=st.integers(1, 5),
    width=st.integers(1, 12),
)
def test_match_rates_equal_row_by_row_reference(rows, k: int, width: int) -> None:
    if k > min(len(r.early_topk) for r in rows):
        with pytest.raises(DomainError):
            match_rate(rows, k)
        return
    expected = _reference(rows, k, width)
    table = TraceTable.from_records(rows)
    assert match_rate_by_bucket(table, k, width) == expected
    assert match_rate(table, k) == MatchRateReport(
        expected.k, expected.total_positions, expected.matches, expected.p_hat, expected.ci95
    )
