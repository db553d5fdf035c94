from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipedec.analytic import expected_latency
from pipedec.core import (
    DecodingConfig,
    DomainError,
    LatencyComputeReport,
    MatchSequence,
    closed_form_totals,
)
from pipedec.schedule import build_schedule
from pipedec.stochastic import monte_carlo


def test_validate_accepts_tradeoff_reference_config() -> None:
    cfg = DecodingConfig(d=40, d_bar=20, k=3, ell=128, p_correct=0.6837)
    assert (cfg.d, cfg.d_bar, cfg.k, cfg.ell, cfg.p_correct) == (40, 20, 3, 128, 0.6837)


def test_validate_rejects_shallow_early_layer_in_exact_regime() -> None:
    with pytest.raises(DomainError, match="d_bar"):
        DecodingConfig(d=40, d_bar=10, k=3, ell=128, p_correct=0.5)
    with pytest.raises(DomainError, match="d_bar"):
        DecodingConfig(d=41, d_bar=20, k=3, ell=128)  # 2*d_bar >= d is an integer comparison
    DecodingConfig(d=41, d_bar=21, k=3, ell=128)


def test_validate_rejects_early_layer_beyond_depth() -> None:
    with pytest.raises(DomainError, match="d_bar"):
        DecodingConfig(d=40, d_bar=41, k=3, ell=128, p_correct=0.5)


def test_validate_rejects_bad_counts() -> None:
    with pytest.raises(DomainError, match="ell"):
        DecodingConfig(d=40, d_bar=20, k=3, ell=0, p_correct=0.5)
    with pytest.raises(DomainError, match="k"):
        DecodingConfig(d=40, d_bar=20, k=-1, ell=4, p_correct=0.5)
    with pytest.raises(DomainError, match="d "):
        DecodingConfig(d=0, d_bar=0, k=0, ell=1)


def test_full_depth_early_layer_is_allowed() -> None:
    cfg = DecodingConfig(d=40, d_bar=40, k=5, ell=10, p_correct=0.7)
    assert cfg.d_bar == cfg.d


def test_probability_rejected_at_construction() -> None:
    with pytest.raises(DomainError, match="p_correct"):
        DecodingConfig(d=40, d_bar=20, k=3, ell=128, p_correct=1.2)
    with pytest.raises(DomainError, match="p_correct"):
        DecodingConfig(d=40, d_bar=20, k=3, ell=128, p_correct=-0.1)
    # the closed interval end points are valid
    DecodingConfig(d=40, d_bar=20, k=3, ell=128, p_correct=0.0)
    DecodingConfig(d=40, d_bar=20, k=3, ell=128, p_correct=1.0)


def test_match_sequence_string_round_trip() -> None:
    seq = MatchSequence.from_string("TTFT")
    assert seq.bits == (True, True, False, True)
    assert seq.ell == 5
    assert seq.to_string() == "TTFT"
    assert MatchSequence.from_string("1101").bits == seq.bits
    with pytest.raises(DomainError):
        MatchSequence.from_string("TTX")


def test_report_from_totals_fills_invariants() -> None:
    report = LatencyComputeReport.from_totals(140, 440, 5)
    assert report.per_token_latency == pytest.approx(140 / 5)
    assert report.avg_compute_per_time_unit == pytest.approx(440 / 140)
    assert report.avg_compute_per_token == pytest.approx(440 / 5)
    with pytest.raises(DomainError):
        LatencyComputeReport.from_totals(10, 10, 0)


def test_closed_form_totals_int_and_array() -> None:
    # d=40, d_bar=20, k=3, ell=5 in runs (3, 2): main 20*5 + 20*2, windows 3*20*5 more
    assert closed_form_totals(40, 20, 3, 5, MatchSequence.from_string("TTFT").n_runs) == (140, 440)
    assert closed_form_totals(40, 20, 3, 5, MatchSequence.from_string("TTTT").n_runs) == (120, 420)
    # d_bar = d: no window, so every run count costs plain sequential decoding
    for bits in ("TTTTTT", "FFFFFF", "TTFTTT"):
        n = MatchSequence.from_string(bits).n_runs
        assert closed_form_totals(24, 24, 4, 7, n) == (24 * 7, 24 * 7)
    n_runs = np.arange(1, 6, dtype=np.int64)
    latency, compute = closed_form_totals(40, 20, 3, 5, n_runs)
    assert latency.dtype == compute.dtype == np.int64
    assert [(int(a), int(b)) for a, b in zip(latency, compute)] == [
        closed_form_totals(40, 20, 3, 5, int(n)) for n in n_runs
    ]


@settings(deadline=None, max_examples=500)
@given(
    d=st.integers(1, 12),
    d_bar=st.integers(-1, 13),
    k=st.integers(-1, 3),
    ell=st.integers(0, 4),
    p=st.sampled_from([None, 0, 1, 0.5, -0.1, 1.5]),
)
def test_config_exists_exactly_when_its_rules_hold(d, d_bar, k, ell, p) -> None:
    rules_hold = (
        1 <= d_bar <= d and 2 * d_bar >= d and ell >= 1 and k >= 0
        and (p is None or 0 <= p <= 1)
    )
    try:
        cfg = DecodingConfig(d, d_bar, k, ell, p)
    except DomainError:
        assert not rules_hold
        return
    assert rules_hold
    # every config that exists is one the consumers accept
    timeline = build_schedule(cfg, MatchSequence((True,) * (ell - 1)))
    assert timeline.makespan == closed_form_totals(d, d_bar, k, ell, 1)[0]
    if p is not None:
        assert expected_latency(cfg) == d * ell - (d - d_bar) * (ell - 1) * p
        assert monte_carlo(cfg, 1, 0).trials == 1
