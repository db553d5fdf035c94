from __future__ import annotations

import random

import numpy as np
import pytest

from pipedec.core import (
    DecodingConfig,
    DomainError,
    LatencyComputeReport,
    MatchSequence,
    RunDecomposition,
    closed_form_totals,
    validate_config,
)
from pipedec.stochastic import decompose_runs, matches_from_runs


def test_validate_accepts_tradeoff_reference_config() -> None:
    cfg = DecodingConfig(d=40, d_bar=20, k=3, ell=128, p_correct=0.6837)
    assert validate_config(cfg, exact_regime=True) is cfg


def test_validate_rejects_shallow_early_layer_in_exact_regime() -> None:
    cfg = DecodingConfig(d=40, d_bar=10, k=3, ell=128, p_correct=0.5)
    with pytest.raises(DomainError, match="d_bar"):
        validate_config(cfg, exact_regime=True)
    # fine without the regime requirement
    assert validate_config(cfg) is cfg


def test_validate_rejects_early_layer_beyond_depth() -> None:
    with pytest.raises(DomainError, match="d_bar"):
        validate_config(DecodingConfig(d=40, d_bar=41, k=3, ell=128, p_correct=0.5))


def test_validate_rejects_bad_counts() -> None:
    with pytest.raises(DomainError, match="ell"):
        validate_config(DecodingConfig(d=40, d_bar=20, k=3, ell=0, p_correct=0.5))
    with pytest.raises(DomainError, match="k"):
        validate_config(DecodingConfig(d=40, d_bar=20, k=-1, ell=4, p_correct=0.5))
    with pytest.raises(DomainError, match="d "):
        validate_config(DecodingConfig(d=0, d_bar=0, k=0, ell=1))


def test_full_depth_early_layer_is_allowed() -> None:
    cfg = DecodingConfig(d=40, d_bar=40, k=5, ell=10, p_correct=0.7)
    assert validate_config(cfg, exact_regime=True) is cfg


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


def test_run_decomposition_validation() -> None:
    with pytest.raises(DomainError):
        RunDecomposition(())
    with pytest.raises(DomainError):
        RunDecomposition((3, 0))
    runs = RunDecomposition((3, 2))
    assert runs.n_runs == 2
    assert runs.ell == 5


def test_decompose_round_trip_is_identity() -> None:
    rr = random.Random(20240811)
    for _ in range(300):
        ell = rr.randint(1, 64)
        bits = tuple(rr.random() < 0.6 for _ in range(ell - 1))
        seq = MatchSequence(bits)
        runs = decompose_runs(seq)
        assert runs.ell == ell
        assert runs.n_runs == 1 + sum(1 for b in bits if not b)
        assert matches_from_runs(runs) == seq
        assert decompose_runs(matches_from_runs(runs)) == runs


def test_report_from_totals_fills_invariants() -> None:
    report = LatencyComputeReport.from_totals(140, 440, 5)
    assert report.per_token_latency == pytest.approx(140 / 5)
    assert report.avg_compute_per_time_unit == pytest.approx(440 / 140)
    assert report.avg_compute_per_token == pytest.approx(440 / 5)
    with pytest.raises(DomainError):
        LatencyComputeReport.from_totals(10, 10, 0)


def test_closed_form_totals_int_and_array() -> None:
    # d=40, d_bar=20, k=3, ell=5 in runs (3, 2): main 20*5 + 20*2, windows 3*20*5 more
    assert closed_form_totals(40, 20, 3, 5, 2) == (140, 440)
    n_runs = np.arange(1, 6, dtype=np.int64)
    latency, compute = closed_form_totals(40, 20, 3, 5, n_runs)
    assert latency.dtype == compute.dtype == np.int64
    assert [(int(a), int(b)) for a, b in zip(latency, compute)] == [
        closed_form_totals(40, 20, 3, 5, int(n)) for n in n_runs
    ]
