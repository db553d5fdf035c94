"""Closed-form latency/compute trade-off formulas.

Both families hold whenever the early prediction is read at or past the
midpoint of the network (d/2 <= d_bar <= d), the regime every
``DecodingConfig`` is in.  ``expected_latency`` and
``expected_total_compute`` are the exact expectations for a finite token
count ell.  ``tradeoff_point`` is their long-sequence limit (ell >> 1),
normalized by depth; it depends on d and d_bar only through the window
ratio r = d / (d - d_bar), which is 2 at half depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DecodingConfig, require_p


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


def tradeoff_point(config: DecodingConfig) -> TradeoffRow:
    """The long-sequence trade-off at the config's p; ``ell`` does not enter.

    With r = d / (d - d_bar): per-token latency d*(1 - p/r) (divided by d
    here), compute per time unit (k+r-p)/(r-p) and compute per token
    (r+k-p)/r, the limits of the exact expectations over ell as ell grows.
    At d_bar = d there is no speculation window and all three are 1.
    """
    p, d, k = require_p(config), config.d, config.k
    if config.d_bar == d:
        return TradeoffRow(k, p, 1.0, 1.0, 1.0)
    # this operation order makes r exactly 2.0 at half depth, so the values there
    # are bit-identical to the half-depth forms d*(1-p/2), (k+2-p)/(2-p), (2+k-p)/2
    r = d / (d - config.d_bar)
    return TradeoffRow(
        k=k,
        p_correct=p,
        latency_per_token_norm=d * (1.0 - p / r) / d,
        compute_per_time_unit=(k + r - p) / (r - p),
        compute_per_token=(r + k - p) / r,
    )


def tradeoff_sweep(
    d: int,
    d_bar: int,
    ell: int,
    k_values: list[int],
    p_values: list[float],
) -> list[TradeoffRow]:
    """``tradeoff_point`` over a (k, p) grid.

    A config is built for every (d, d_bar, k, ell, p) combination up
    front, so any invalid combination aborts the whole sweep.
    Rows are ordered by k, then by p in the given order.
    """
    configs = [DecodingConfig(d, d_bar, k, ell, p) for k in k_values for p in p_values]
    return list(map(tradeoff_point, configs))


SWEEP_CSV_HEADER = "k,p_correct,latency_per_token_norm,compute_per_time_unit,compute_per_token"


def sweep_to_csv(rows: list[TradeoffRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.k},{r.p_correct!r},{r.latency_per_token_norm!r},"
            f"{r.compute_per_time_unit!r},{r.compute_per_token!r}"
        )
    return "\n".join(lines) + "\n"
