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
the summary equals that per-trial path bit for bit.  From ``POOL_DRAWS``
draws on, the trials are counted in one contiguous span per usable CPU
(``workers.map_spans``); a trial's count depends on its key alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .core import DecodingConfig, MatchSequence, check_int, check_p, closed_form_totals, require_p
from .rng import Stream, counter_hits, stream_keys
from .workers import map_spans, usable_cpus

POOL_DRAWS = 1 << 23  # trials * (ell - 1) from which monte_carlo splits trials over the CPUs


def sample_match_sequence(stream: Stream, p_correct: float, ell: int) -> MatchSequence:
    """Draw the ell-1 independent Bernoulli(p) match bits of one generation.

    Identical stream and arguments give identical bits.
    """
    p = check_p(p_correct)
    u = stream.uniforms(check_int("ell", ell, 1) - 1)
    return MatchSequence(u < p)


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


def _hits(seed: int, n: int, p: float, trials: range) -> np.ndarray:
    # the narrowest dtype for n: int64 results, unpickled in the caller, grew its peak RSS
    keys = stream_keys(seed, len(trials), trials.start)
    return counter_hits(keys, n, p).astype(np.min_scalar_type(n))


def monte_carlo(config: DecodingConfig, trials: int, seed: int) -> MonteCarloSummary:
    """Estimate expected latency/compute/run-count over ``trials`` generations.

    Trial i counts the matches among its ell-1 draws from the counter
    stream keyed by (seed, i) and prices the run count with
    ``closed_form_totals``, so the summary is reproducible bit for bit for
    a given seed.
    """
    p = require_p(config)
    trials = check_int("trials", trials, 1)
    ell, draws = config.ell, config.ell - 1
    # one contiguous span of trials per CPU; N = 1 + the misses among the ell-1 draws
    span = -(-trials // usable_cpus()) if trials * draws >= POOL_DRAWS else trials
    hits = map_spans(partial(_hits, seed, draws, p), trials, span)
    n_runs = ell - np.concatenate(list(hits), dtype=np.int64)
    latency, compute = closed_form_totals(config.d, config.d_bar, config.k, ell, n_runs)
    stats = [_mean_stderr(values.astype(np.float64)) for values in (latency, compute, n_runs)]
    (mean_lat, se_lat), (mean_cmp, se_cmp), (mean_n, se_n) = stats
    return MonteCarloSummary(config=config, trials=trials, seed=seed,
                             mean_latency=mean_lat, mean_compute=mean_cmp, mean_n_runs=mean_n,
                             stderr_latency=se_lat, stderr_compute=se_cmp, stderr_n_runs=se_n)


def summary_to_json(summary: MonteCarloSummary) -> str:
    return json.dumps(asdict(summary), indent=2) + "\n"
