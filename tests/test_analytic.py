from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipedec.analytic import (
    SWEEP_CSV_HEADER,
    expected_latency,
    expected_total_compute,
    sweep_to_csv,
    tradeoff_point,
    tradeoff_sweep,
)
from pipedec.core import DecodingConfig, DomainError


def _halfdepth_forms(d: int, k: int, p: float) -> tuple[float, float, float]:
    """The three half-depth closed forms, as written before ``tradeoff_point`` replaced them."""
    return (d * (1.0 - p / 2.0) / d, (k + 2.0 - p) / (2.0 - p), (2.0 + k - p) / 2.0)


def _point(d: int, d_bar: int, k: int, p: float) -> tuple[float, float, float]:
    row = tradeoff_point(DecodingConfig(d, d_bar, k, 1, p))
    assert (row.k, row.p_correct) == (k, p)
    return row.latency_per_token_norm, row.compute_per_time_unit, row.compute_per_token


@settings(max_examples=500)
@given(
    d_bar=st.integers(1, 10_000),
    k=st.integers(1, 64),
    p=st.floats(0.0, 1.0, allow_nan=False),
)
@example(d_bar=1, k=0, p=0.0)  # k = 0 admits p = 0 only
@example(d_bar=20, k=0, p=0.0)
@example(d_bar=7, k=3, p=1.0)
def test_tradeoff_point_equals_halfdepth_forms_bit_for_bit(d_bar: int, k: int, p: float) -> None:
    assert _point(2 * d_bar, d_bar, k, p) == _halfdepth_forms(2 * d_bar, k, p)


def test_per_token_latency_halfdepth_values() -> None:
    assert _point(2, 1, 1, 0.7415)[0] == pytest.approx(0.62925, abs=1e-12)
    assert _point(40, 20, 3, 0.0)[0] == 1.0
    assert _point(40, 20, 3, 1.0)[0] == 0.5


def test_avg_compute_per_time_unit_values() -> None:
    value = _point(40, 20, 3, 0.6837)[1]
    assert value == pytest.approx(3.2791, abs=1e-4)
    # one-decimal truncation of this value is 3.2
    assert math.floor(value * 10) / 10 == 3.2
    assert _point(40, 20, 3, 1.0)[1] == 4
    assert _point(40, 20, 3, 0.0)[1] == 2.5
    # r = 40 / (40 - 30) = 4: (3 + 4 - 0.5) / (4 - 0.5)
    assert _point(40, 30, 3, 0.5)[1] == 6.5 / 3.5


def test_avg_compute_per_token_values() -> None:
    assert _point(40, 20, 3, 0.6837)[2] == pytest.approx(2.15815, abs=1e-9)
    assert _point(40, 20, 1, 1.0)[2] == 1.0
    assert _point(40, 20, 0, 0.0)[2] == 1.0
    assert _point(40, 30, 3, 0.5)[2] == 1.625


def test_product_identity_of_halfdepth_forms() -> None:
    # latency per token x compute per time unit = compute per token, at every d_bar
    for d_bar in (20, 25, 30, 39, 40):
        for p in (0.0, 0.05, 0.2163, 0.5, 0.6837, 0.9, 1.0):
            for k in (0, 1, 3, 5, 8) if p == 0 else (1, 3, 5, 8):
                latency, per_unit, per_token = _point(40, d_bar, k, p)
                assert latency * per_unit == pytest.approx(per_token, rel=1e-12)


def test_tradeoff_point_without_a_window_is_sequential() -> None:
    for d, k, p in ((1, 0, 0.0), (40, 3, 0.5), (40, 8, 1.0), (7, 1, 0.25)):
        assert _point(d, d, k, p) == (1.0, 1.0, 1.0)


def test_tradeoff_point_requires_p() -> None:
    with pytest.raises(DomainError, match="p_correct"):
        tradeoff_point(DecodingConfig(40, 20, 3, 128))


def test_expected_latency_values() -> None:
    assert expected_latency(DecodingConfig(40, 20, 3, 1, 0.9)) == 40
    # 3850 was frozen from a 1e5-trial Monte Carlo mean over Bernoulli
    # match sequences (see test_stochastic convergence checks)
    assert expected_latency(DecodingConfig(40, 20, 3, 128, 0.5)) == 3850
    assert expected_latency(DecodingConfig(40, 20, 3, 128, 1.0)) == 2580
    assert expected_latency(DecodingConfig(40, 20, 3, 128, 1.0)) == 40 + 127 * 20


def test_expected_latency_requires_exact_regime_and_p() -> None:
    with pytest.raises(DomainError):
        expected_latency(DecodingConfig(40, 10, 3, 128, 0.5))
    with pytest.raises(DomainError):
        expected_latency(DecodingConfig(40, 20, 3, 128))


def test_expected_total_compute_values() -> None:
    assert expected_total_compute(DecodingConfig(40, 20, 0, 128, 0.0)) == 5120
    assert expected_total_compute(DecodingConfig(40, 20, 1, 128, 0.5)) == 3850 + 20 * 128
    assert expected_total_compute(DecodingConfig(40, 20, 3, 128, 0.6837)) == pytest.approx(
        11063.402, abs=1e-9
    )
    assert expected_total_compute(DecodingConfig(40, 40, 5, 10, 0.7)) == 400


def test_latency_monotone_in_match_probability() -> None:
    grid = [i / 20 for i in range(21)]
    values = [expected_latency(DecodingConfig(40, 25, 2, 64, p)) for p in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    flat_depth = [expected_latency(DecodingConfig(40, 40, 2, 64, p)) for p in grid]
    assert len(set(flat_depth)) == 1
    flat_single = [expected_latency(DecodingConfig(40, 25, 2, 1, p)) for p in grid]
    assert len(set(flat_single)) == 1


def test_tradeoff_point_is_the_long_sequence_limit() -> None:
    # the exact per-token ratios approach tradeoff_point as ell grows; with
    # r = d/(d-d_bar) >= 2 each gap is at most p*max(1, k)/ell
    for d in (8, 40):
        for d_bar in sorted({d // 2, d // 2 + 1, (3 * d) // 4, d - 1, d}):
            for k in (1, 3):
                for p in (0.1, 0.5, 0.9, 1.0):
                    point = _point(d, d_bar, k, p)
                    for ell in (10_000, 100_000, 1_000_000):
                        cfg = DecodingConfig(d, d_bar, k, ell, p)
                        latency, compute = expected_latency(cfg), expected_total_compute(cfg)
                        exact = (latency / (ell * d), compute / latency, compute / (ell * d))
                        for got, limit in zip(exact, point):
                            assert abs(got - limit) <= p * max(1, k) / ell * (1 + 1e-6)
    # at d_bar = 30 the half-depth value 0.75 is not the limit
    cfg = DecodingConfig(40, 30, 3, 1_000_000, 0.5)
    assert expected_latency(cfg) / (1_000_000 * 40) == pytest.approx(0.875000125, abs=1e-12)
    assert _point(40, 30, 3, 0.5)[0] == 0.875


def test_sweep_reproduces_reference_endpoints() -> None:
    rows = tradeoff_sweep(40, 20, 128, [1], [0.2163])
    assert len(rows) == 1
    assert rows[0].latency_per_token_norm == pytest.approx(0.89185, abs=1e-9)
    assert rows[0].compute_per_time_unit == pytest.approx(1.5606, abs=1e-4)
    rows = tradeoff_sweep(40, 20, 128, [5], [0.7415])
    assert rows[0].compute_per_time_unit == pytest.approx(4.9730, abs=1e-4)


def test_sweep_is_tradeoff_point_off_half_depth() -> None:
    rows = tradeoff_sweep(40, 30, 128, [3], [0.5])
    assert rows == [tradeoff_point(DecodingConfig(40, 30, 3, 128, 0.5))]
    assert (rows[0].latency_per_token_norm, rows[0].compute_per_token) == (0.875, 1.625)


def test_sweep_ordering_and_empty_grid() -> None:
    rows = tradeoff_sweep(40, 20, 128, [3, 1], [0.2, 0.8])
    assert [(r.k, r.p_correct) for r in rows] == [(3, 0.2), (3, 0.8), (1, 0.2), (1, 0.8)]
    assert tradeoff_sweep(40, 20, 128, [1, 3], []) == []


def test_sweep_rejects_invalid_combinations() -> None:
    with pytest.raises(DomainError):
        tradeoff_sweep(40, 20, 128, [1], [0.2, 1.5])
    with pytest.raises(DomainError):
        tradeoff_sweep(40, 10, 128, [1], [0.5])


def test_sweep_serialization() -> None:
    rows = tradeoff_sweep(40, 20, 128, [1], [0.25, 0.75])
    csv_text = sweep_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("1,0.25,")
