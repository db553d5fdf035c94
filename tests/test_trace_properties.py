"""Property tests: columnar trace code against row-by-row references."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipedec.core import DomainError
from pipedec.trace import (
    BucketRow,
    MatchRateReport,
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
