"""Sampling and Monte Carlo estimation of the run-length process.

Each token's early prediction matches independently with probability
p_correct, so the ell-1 match bits are i.i.d. Bernoulli(p), interior run
lengths are geometric with success probability 1-p (the last run is
whatever the Bernoulli tail produces, truncated at ell), and the run
count is 1 + Binomial(ell-1, 1-p).  Every price depends on the run count
N alone, so ``monte_carlo`` draws N per trial by counting the misses
among trial i's ell-1 counter draws (the stream derived from (seed, i))
and prices it with ``closed_form_totals``.  Trial i consumes the same
draws as ``sample_match_sequence(Stream.from_seed(seed, i), ...)``, so
the summary equals that per-trial path bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import DecodingConfig, DomainError, MatchSequence, check_p, closed_form_totals, require_p
from .rng import Stream, counter_hits, stream_keys


def sample_match_sequence(stream: Stream | int, p_correct: float, ell: int) -> MatchSequence:
    """Draw the ell-1 independent Bernoulli(p) match bits of one generation.

    ``stream`` is either a Stream or a bare seed (meaning stream 0 of
    that seed).  Identical stream and arguments give identical bits.
    """
    p = check_p(p_correct)
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    if isinstance(stream, int):
        stream = Stream.from_seed(stream)
    u = stream.uniforms(ell - 1)
    return MatchSequence(tuple(bool(b) for b in (u < p)))


@dataclass(frozen=True)
class MonteCarloSummary:
    """Means and standard errors over independent seeded trials."""

    config: DecodingConfig
    trials: int
    seed: int
    mean_latency: float
    mean_compute: float
    mean_n_runs: float
    stderr_latency: float
    stderr_compute: float
    stderr_n_runs: float


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    n = values.shape[0]
    mean = float(values.mean())
    if n < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(n))


def monte_carlo(config: DecodingConfig, trials: int, seed: int) -> MonteCarloSummary:
    """Estimate expected latency/compute/run-count over ``trials`` generations.

    Trial i counts the matches among its ell-1 draws from the counter
    stream keyed by (seed, i) and prices the run count with
    ``closed_form_totals``, so the summary is reproducible bit for bit for
    a given seed.
    """
    p = require_p(config)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    ell = config.ell
    # N = 1 + the misses among the ell-1 draws
    n_runs = ell - counter_hits(stream_keys(seed, trials), ell - 1, p)
    latency, compute = closed_form_totals(config.d, config.d_bar, config.k, ell, n_runs)
    mean_lat, se_lat = _mean_stderr(latency.astype(np.float64))
    mean_cmp, se_cmp = _mean_stderr(compute.astype(np.float64))
    mean_n, se_n = _mean_stderr(n_runs.astype(np.float64))
    return MonteCarloSummary(
        config=config,
        trials=trials,
        seed=seed,
        mean_latency=mean_lat,
        mean_compute=mean_cmp,
        mean_n_runs=mean_n,
        stderr_latency=se_lat,
        stderr_compute=se_cmp,
        stderr_n_runs=se_n,
    )


def summary_to_json(summary: MonteCarloSummary) -> str:
    cfg = summary.config
    payload = {
        "config": {
            "d": cfg.d,
            "d_bar": cfg.d_bar,
            "k": cfg.k,
            "ell": cfg.ell,
            "p_correct": cfg.p_correct,
        },
        "trials": summary.trials,
        "seed": summary.seed,
        "mean_latency": summary.mean_latency,
        "mean_compute": summary.mean_compute,
        "mean_n_runs": summary.mean_n_runs,
        "stderr_latency": summary.stderr_latency,
        "stderr_compute": summary.stderr_compute,
        "stderr_n_runs": summary.stderr_n_runs,
    }
    return json.dumps(payload, indent=2) + "\n"
