"""Match-rate estimation from per-token prediction logs.

``match_rate`` estimates p_hat, the fraction of positions whose final
token appears among the first k early candidates, with a Wilson score
interval at the 95% level (z = 1.96; chosen over the normal
approximation because it stays well-behaved near 0 and 1).  Rows from
different examples are pooled.  The estimators take a ``TraceTable``
(see ``tracetable``, whose names are importable from here too).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .analytic import expected_latency, expected_total_compute, tradeoff_point
from .core import DecodingConfig, DomainError, LatencyComputeReport, check_int, check_p
from .rng import Stream
from .tracetable import (  # noqa: F401  (re-exported: the trace API is one import)
    ParseError,
    TraceTable,
    load_traces,
    save_traces,
)

WILSON_Z95 = 1.959963984540054


@dataclass(frozen=True)
class BucketRow:
    lo: int       # first position of the bucket (inclusive)
    hi: int       # nominal last position of the bucket (inclusive)
    count: int
    matches: int
    p_hat: float


@dataclass(frozen=True)
class MatchRateReport:
    k: int
    total_positions: int
    matches: int
    p_hat: float
    ci95: tuple[float, float]
    buckets: tuple[BucketRow, ...] | None = None


def wilson_interval(matches: int, total: int) -> tuple[float, float]:
    """Wilson score interval at the 95% level for a binomial proportion."""
    if total < 1:
        raise DomainError("wilson_interval needs at least one observation")
    p_hat = matches / total
    z = WILSON_Z95
    denom = 1.0 + z * z / total
    center = (p_hat + z * z / (2 * total)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _hits(table: TraceTable, k: int) -> np.ndarray:
    """Per-row bool: final is among the first k early candidates."""
    if not len(table):
        raise DomainError("cannot estimate a match rate from zero records")
    check_int("k", k, 1)
    shortest = int(table.topk_len.min())
    if k > shortest:
        raise DomainError(f"k={k} exceeds the shortest early_topk length {shortest}")
    return (table.topk[:, :k] == table.final[:, None]).any(axis=1)


def _report(k: int, hits: np.ndarray, buckets: tuple[BucketRow, ...] | None) -> MatchRateReport:
    """The report of the row hits ``hits`` (see ``_hits``)."""
    matches, total = int(hits.sum()), len(hits)
    return MatchRateReport(k, total, matches, matches / total, wilson_interval(matches, total),
                           buckets)


def match_rate(table: TraceTable, k: int) -> MatchRateReport:
    """Fraction of positions whose final token is among the first k candidates."""
    return _report(k, _hits(table, k), None)


def match_rate_by_bucket(table: TraceTable, k: int, bucket_width: int) -> MatchRateReport:
    """Overall report plus per-position-bucket rates ([1..w], [w+1..2w], ...).

    Only buckets that hold a position get a row, in ascending order.
    """
    bucket_width = check_int("bucket_width", bucket_width, 1)
    row_hits = _hits(table, k)
    # bincount over the occupied buckets only: positions may be sparse and large
    buckets, slot = np.unique((table.position - 1) // bucket_width, return_inverse=True)
    counts = np.bincount(slot).tolist()
    hits = np.bincount(slot[row_hits], minlength=len(buckets)).tolist()
    rows = tuple(
        BucketRow(
            lo=b * bucket_width + 1,
            hi=(b + 1) * bucket_width,
            count=count,
            matches=hit,
            p_hat=hit / count,
        )
        for b, count, hit in zip(buckets.tolist(), counts, hits)
    )
    return _report(k, row_hits, rows)


@dataclass(frozen=True)
class TraceForecast:
    """Latency/compute forecast from an estimated match rate.

    ``report`` evaluates the exact expectations at p_hat; the *_range
    pairs re-evaluate them at both interval endpoints (latency falls as
    the match rate rises, so ranges are returned low-to-high).  The last
    three fields are ``analytic.tradeoff_point`` at p_hat: the long-
    sequence trade-off, which holds at every d_bar in [d/2, d].
    """

    k: int
    p_hat: float
    ci95: tuple[float, float]
    report: LatencyComputeReport
    latency_range: tuple[float, float]
    compute_range: tuple[float, float]
    latency_per_token_norm: float
    compute_per_time_unit: float
    compute_per_token: float


def forecast_from_trace(table: TraceTable, k: int, d: int, d_bar: int, ell: int) -> TraceForecast:
    """Plug the estimated match rate into the closed-form trade-off formulas."""
    rate = match_rate(table, k)
    lo_p, hi_p = rate.ci95
    at_hat, at_lo, at_hi = (DecodingConfig(d, d_bar, k, ell, p) for p in (rate.p_hat, lo_p, hi_p))
    point = tradeoff_point(at_hat)
    return TraceForecast(
        k=k,
        p_hat=rate.p_hat,
        ci95=rate.ci95,
        report=LatencyComputeReport.from_totals(
            expected_latency(at_hat), expected_total_compute(at_hat), ell
        ),
        latency_range=(expected_latency(at_hi), expected_latency(at_lo)),
        compute_range=(expected_total_compute(at_hi), expected_total_compute(at_lo)),
        latency_per_token_norm=point.latency_per_token_norm,
        compute_per_time_unit=point.compute_per_time_unit,
        compute_per_token=point.compute_per_token,
    )


def report_to_json(report: MatchRateReport) -> str:
    payload: dict = {
        "k": report.k,
        "total_positions": report.total_positions,
        "matches": report.matches,
        "p_hat": report.p_hat,
        "ci95": list(report.ci95),
    }
    if report.buckets is not None:
        payload["buckets"] = [
            {"range": f"{b.lo}-{b.hi}", "count": b.count, "matches": b.matches, "p_hat": b.p_hat}
            for b in report.buckets
        ]
    return json.dumps(payload, indent=2) + "\n"


def report_to_csv(report: MatchRateReport) -> str:
    """Bucket table as columns per position range plus a Total column."""
    buckets = report.buckets or ()
    header = ["bucket"] + [f"{b.lo}-{b.hi}" for b in buckets] + ["Total"]
    p_row = ["p_hat"] + [repr(b.p_hat) for b in buckets] + [repr(report.p_hat)]
    count_row = ["count"] + [str(b.count) for b in buckets] + [str(report.total_positions)]
    match_row = ["matches"] + [str(b.matches) for b in buckets] + [str(report.matches)]
    return "\n".join(",".join(row) for row in (header, p_row, count_row, match_row)) + "\n"


def planted_trace(
    p_correct: float,
    n_positions: int,
    k: int,
    seed: int,
    positions_per_example: int = 16,
    vocab: int = 1000,
    layer: int | None = None,
) -> TraceTable:
    """Synthesize a trace whose per-position match outcomes are Bernoulli(p).

    Match bits come from stream 0 of ``seed`` and record content from
    stream 1, so the planted outcome sequence depends only on the seed.
    Useful for calibration tests and as CLI demo input.
    """
    p_correct = check_p(p_correct)
    n_positions = check_int("n_positions", n_positions, 0)
    k, vocab = check_int("k", k, None), check_int("vocab", vocab, None)
    if k < 1 or k + 1 > vocab:
        raise DomainError(f"need 1 <= k < vocab, got k={k}, vocab={vocab}")
    seed = check_int("seed", seed, None)
    check_int("positions_per_example", positions_per_example, 1)
    if layer is not None:
        layer = check_int("layer", layer, None)
    bits = Stream.from_seed(seed, 0).uniforms(n_positions) < p_correct
    content = Stream.from_seed(seed, 1).uniforms(3 * n_positions)
    bases = (content[0::3] * (vocab - k - 1)).astype(np.int64)
    slots = (content[1::3] * k).astype(np.int64)
    offsets = (content[2::3] * (vocab - k)).astype(np.int64)
    rows = np.arange(n_positions)
    n_examples = -(-n_positions // positions_per_example)
    return TraceTable(
        example_ids=tuple(f"ex{e:06d}" for e in range(n_examples)),
        example_code=rows // positions_per_example,
        position=rows % positions_per_example + 1,
        topk=bases[:, None] + np.arange(k),  # base < vocab-k-1, so no wraparound
        topk_len=np.full(n_positions, k),
        final=np.where(bits, bases + slots, (bases + k + offsets) % vocab),
        layer=np.full(n_positions, 0 if layer is None else layer),
        layer_absent=np.full(n_positions, layer is None),
    )
