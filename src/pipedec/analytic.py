"""Closed-form latency/compute trade-off formulas.

Two families live here.  The ``*_halfdepth`` functions are the long-
sequence approximations for an early prediction read at exactly half
depth; they are normalized and depend only on the match probability and
the sub-process count.  ``expected_latency`` / ``expected_total_compute``
are the exact expectations for finite token counts, valid whenever the
early layer sits at or past the midpoint of the network.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .core import DecodingConfig, DomainError, check_p, require_p


def per_token_latency_halfdepth(p_correct: float, d: int) -> float:
    """Per-token latency d*(1 - p/2): half-depth early layer, ell >> 1."""
    p = check_p(p_correct)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    return d * (1.0 - p / 2.0)


def avg_compute_per_time_unit_halfdepth(p_correct: float, k: int) -> float:
    """Average busy compute units per time unit, (k+2-p)/(2-p)."""
    p = check_p(p_correct)
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    return (k + 2.0 - p) / (2.0 - p)


def avg_compute_per_token_halfdepth(p_correct: float, k: int) -> float:
    """Compute spent per generated token, (2+k-p)/2, normalized by depth.

    Equals per_token_latency_halfdepth(p, 1) *
    avg_compute_per_time_unit_halfdepth(p, k) exactly.
    """
    p = check_p(p_correct)
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    return (2.0 + k - p) / 2.0


def expected_latency(config: DecodingConfig) -> float:
    """Exact expected time units to generate ell tokens: d*ell - (d-d_bar)*(ell-1)*p."""
    p = require_p(config)
    return config.d * config.ell - (config.d - config.d_bar) * (config.ell - 1) * p


def expected_total_compute(config: DecodingConfig) -> float:
    """Exact expected compute-unit x time-units: expected latency plus k*(d-d_bar)*ell."""
    return expected_latency(config) + config.k * (config.d - config.d_bar) * config.ell


@dataclass(frozen=True)
class TradeoffRow:
    """One point of the trade-off curve, normalized by depth."""

    k: int
    p_correct: float
    latency_per_token_norm: float
    compute_per_time_unit: float
    compute_per_token: float


def tradeoff_sweep(
    d: int,
    d_bar: int,
    ell: int,
    k_values: list[int],
    p_values: list[float],
) -> list[TradeoffRow]:
    """Evaluate the half-depth trade-off metrics over a (k, p) grid.

    A config is built for every (d, d_bar, k, ell, p) combination up
    front, so any invalid combination aborts the whole sweep.
    Rows are ordered by k, then by p in the given order.
    """
    for k in k_values:
        for p in p_values:
            DecodingConfig(d, d_bar, k, ell, p)
    rows = []
    for k in k_values:
        for p in p_values:
            rows.append(
                TradeoffRow(
                    k=k,
                    p_correct=float(p),
                    latency_per_token_norm=per_token_latency_halfdepth(p, d) / d,
                    compute_per_time_unit=avg_compute_per_time_unit_halfdepth(p, k),
                    compute_per_token=avg_compute_per_token_halfdepth(p, k),
                )
            )
    return rows


SWEEP_CSV_HEADER = "k,p_correct,latency_per_token_norm,compute_per_time_unit,compute_per_token"


def sweep_to_csv(rows: list[TradeoffRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.k},{r.p_correct!r},{r.latency_per_token_norm!r},"
            f"{r.compute_per_time_unit!r},{r.compute_per_token!r}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_json(rows: list[TradeoffRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2) + "\n"
