from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from pipedec.core import (
    DecodingConfig,
    DomainError,
    LatencyComputeReport,
    MatchSequence,
    closed_form_totals,
)
from pipedec.rng import _BLOCK_WORDS, Stream
from pipedec.stochastic import (
    MonteCarloSummary,
    monte_carlo,
    sample_match_sequence,
    summary_to_json,
)


def test_sample_degenerate_probabilities() -> None:
    assert sample_match_sequence(Stream.from_seed(1), 1.0, 5).bits == (True,) * 4
    assert sample_match_sequence(Stream.from_seed(1), 0.0, 5).bits == (False,) * 4
    assert sample_match_sequence(Stream.from_seed(1), 0.5, 1).bits == ()


def test_sample_accepts_bare_seed_and_is_deterministic() -> None:
    a = sample_match_sequence(17, 0.4, 40)
    b = sample_match_sequence(Stream.from_seed(17), 0.4, 40)
    assert a == b


def test_sample_rejects_bad_arguments() -> None:
    with pytest.raises(DomainError):
        sample_match_sequence(0, 1.5, 5)
    with pytest.raises(DomainError):
        sample_match_sequence(0, 0.5, 0)


def test_sample_hits_target_fraction() -> None:
    bits = sample_match_sequence(Stream.from_seed(3), 0.5, 1_000_001).bits
    frac = sum(bits) / len(bits)
    assert abs(frac - 0.5) < 0.002  # 3 sigma binomial bound is ~0.0015


def _run_lengths(matches: MatchSequence) -> list[int]:
    """Lengths of the maximal matched streaks, read off the miss positions."""
    misses = [i for i, bit in enumerate(matches.bits) if not bit]
    bounds = [-1] + misses + [len(matches.bits)]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def test_decompose_examples() -> None:
    examples = (("TTFT", [3, 2]), ("", [1]), ("TTTT", [5]), ("FFF", [1, 1, 1, 1]))
    for text, lengths in examples:
        matches = MatchSequence.from_string(text)
        assert _run_lengths(matches) == lengths
        assert matches.n_runs == len(lengths)


def _cost_report(cfg: DecodingConfig, text: str) -> LatencyComputeReport:
    """Price a match sequence given in 'TTFT' form with the closed forms."""
    matches = MatchSequence.from_string(text)
    assert matches.ell == cfg.ell
    latency, compute = closed_form_totals(cfg.d, cfg.d_bar, cfg.k, cfg.ell, matches.n_runs)
    return LatencyComputeReport.from_totals(latency, compute, cfg.ell)


def test_cost_of_runs_hand_checked() -> None:
    cfg = DecodingConfig(40, 20, 3, 5)
    report = _cost_report(cfg, "TTFT")  # runs of 3 and 2 tokens
    assert report.total_latency == 140
    assert report.total_compute == 440
    assert report.per_token_latency == pytest.approx(28.0)
    assert report.avg_compute_per_time_unit == pytest.approx(440 / 140)

    single = _cost_report(cfg, "TTTT")  # one run of 5 tokens
    assert single.total_latency == 120
    assert single.total_compute == 420


def test_cost_of_runs_full_depth_collapses_to_sequential() -> None:
    cfg = DecodingConfig(24, 24, 4, 7)
    # runs (7,), (1,) * 7 and (3, 4)
    for text in ("TTTTTT", "FFFFFF", "TTFTTT"):
        report = _cost_report(cfg, text)
        assert report.total_latency == 24 * 7
        assert report.total_compute == 24 * 7


def test_monte_carlo_degenerate_cases() -> None:
    sure = monte_carlo(DecodingConfig(40, 20, 3, 128, 1.0), 500, 9)
    assert sure.stderr_latency == 0.0
    assert sure.mean_latency == 40 + 127 * 20

    single = monte_carlo(DecodingConfig(40, 20, 3, 1, 0.3), 500, 9)
    assert single.mean_n_runs == 1.0
    assert single.mean_latency == 40.0
    assert single.stderr_latency == 0.0


def test_monte_carlo_is_bit_reproducible() -> None:
    cfg = DecodingConfig(40, 20, 3, 128, 0.5)
    assert monte_carlo(cfg, 3000, 123) == monte_carlo(cfg, 3000, 123)
    assert monte_carlo(cfg, 3000, 123) != monte_carlo(cfg, 3000, 124)


def test_monte_carlo_converges_to_closed_forms() -> None:
    cfg = DecodingConfig(40, 20, 3, 128, 0.5)
    summary = monte_carlo(cfg, 10_000, 42)
    assert abs(summary.mean_latency - 3850) <= 3 * summary.stderr_latency
    expected_compute = 3850 + 3 * 20 * 128
    assert abs(summary.mean_compute - expected_compute) <= 3 * summary.stderr_compute
    # E[N] = ell - (ell-1) p
    assert abs(summary.mean_n_runs - 64.5) <= 4 * summary.stderr_n_runs


def test_monte_carlo_matches_explicit_per_trial_path() -> None:
    # the vectorized driver must equal sample -> count runs -> price per trial
    cfg = DecodingConfig(48, 30, 2, 33, 0.65)
    trials, seed = 400, 77
    summary = monte_carlo(cfg, trials, seed)
    latencies = []
    computes = []
    n_runs = []
    for i in range(trials):
        matches = sample_match_sequence(Stream.from_seed(seed, i), cfg.p_correct, cfg.ell)
        latency, compute = closed_form_totals(cfg.d, cfg.d_bar, cfg.k, cfg.ell, matches.n_runs)
        latencies.append(latency)
        computes.append(compute)
        n_runs.append(matches.n_runs)
        # compute - latency = k (d - d_bar) ell holds in every trial, not just on average
        assert compute - latency == cfg.k * (cfg.d - cfg.d_bar) * cfg.ell
    assert summary.mean_latency == pytest.approx(np.mean(latencies), rel=1e-12)
    assert summary.mean_compute == pytest.approx(np.mean(computes), rel=1e-12)
    assert summary.mean_n_runs == pytest.approx(np.mean(n_runs), rel=1e-12)
    assert summary.stderr_latency == pytest.approx(
        np.std(latencies, ddof=1) / math.sqrt(trials), rel=1e-9
    )


def test_interior_run_lengths_are_geometric() -> None:
    # interior runs are geometrics truncated by the sequence end, so the
    # law only emerges for sequences much longer than the mean run
    p = 0.7
    pooled: list[int] = []
    for i in range(100):
        matches = sample_match_sequence(Stream.from_seed(5, i), p, 4096)
        pooled.extend(_run_lengths(matches)[:-1])
    pooled_arr = np.asarray(pooled, dtype=np.float64)
    mean = pooled_arr.mean()
    stderr = pooled_arr.std(ddof=1) / math.sqrt(len(pooled))
    assert abs(mean - 1 / (1 - p)) <= 4 * stderr


def test_summary_serialization_echoes_config() -> None:
    cfg = DecodingConfig(40, 20, 3, 16, 0.5)
    summary = monte_carlo(cfg, 100, 5)
    text = summary_to_json(summary)
    assert text == summary_to_json(monte_carlo(cfg, 100, 5))
    payload = json.loads(text)
    assert payload["config"] == {"d": 40, "d_bar": 20, "k": 3, "ell": 16, "p_correct": 0.5}
    assert payload["trials"] == 100
    assert payload["seed"] == 5
    assert set(payload) == {
        "config", "trials", "seed", "mean_latency", "mean_compute", "mean_n_runs",
        "stderr_latency", "stderr_compute", "stderr_n_runs",
    }


def _per_trial_summary(cfg: DecodingConfig, trials: int, seed: int,
                       n_runs: np.ndarray) -> MonteCarloSummary:
    # the summary of the first ``trials`` per-trial run counts, priced by hand
    n_runs = n_runs[:trials]
    latency = cfg.d_bar * cfg.ell + (cfg.d - cfg.d_bar) * n_runs
    compute = latency + cfg.k * (cfg.d - cfg.d_bar) * cfg.ell
    stats = []
    for values in (latency, compute, n_runs):
        values = values.astype(np.float64)
        se = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        stats.append((float(values.mean()), se))
    (ml, sl), (mc, sc), (mn, sn) = stats
    return MonteCarloSummary(cfg, trials, seed, ml, mc, mn, sl, sc, sn)


@pytest.mark.parametrize("ell", [1, 2, 3, 257, _BLOCK_WORDS + 2])
def test_monte_carlo_equals_per_trial_path_across_blocks(ell: int) -> None:
    cfg = DecodingConfig(40, 24, 2, ell, 0.6837)
    seed = 31
    rows = max(1, _BLOCK_WORDS // max(1, ell - 1))  # keys per block of the kernel
    counts = sorted({max(1, rows - 1), rows, rows + 1, 2 * rows + 1})
    n_runs = np.array(
        [1 + sample_match_sequence(Stream.from_seed(seed, i), cfg.p_correct, ell).bits.count(False)
         for i in range(counts[-1])],
        dtype=np.int64,
    )
    for trials in counts:
        assert monte_carlo(cfg, trials, seed) == _per_trial_summary(cfg, trials, seed, n_runs)


# sha256 of summary_to_json: seeded `simulate` output must stay byte-identical
@pytest.mark.parametrize("cfg, trials, seed, digest", [
    ((40, 20, 3, 256, 0.5), 20000, 3,
     "0ca932f667988cb4a357fe7e1028c2929a0aaee72939f015a0fcb383bfaa34f4"),
    ((40, 20, 3, 1, 0.3), 100, 9,
     "cd0a88712c49d71870ff29df515ab6e84ec04d64727e0c13664436fc412c733d"),
    ((48, 30, 2, 2, 0.6837), 40000, 1,
     "6dad1c91248f800d88b47b53721b65772edcae3d8abb3ebb523a288442749c60"),
    ((24, 24, 4, 129, 2.0 ** -1074), 2049, 5,
     "2e859f56d75258483ba6965d8f7d4568579dac3bfbd4d162b492642e6fe455c9"),
    ((40, 20, 3, 33000, 1 - 2.0 ** -53), 3, 8,
     "8f3a97840d0cdcb91fe40642acd04f54bbbdf182a1cdac3ec57697b198bf2164"),
], ids=["ell256", "ell1", "ell2", "p_subnormal", "ell33000"])
def test_summary_json_bytes_are_pinned(cfg, trials, seed, digest) -> None:
    text = summary_to_json(monte_carlo(DecodingConfig(*cfg), trials, seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
