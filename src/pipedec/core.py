"""Shared domain types and closed-form totals for pipelined-decoding analysis.

All types are immutable value objects and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """A value violates one of the model's domain constraints."""


def check_p(p: float) -> float:
    """Return ``p`` as a float, rejecting values outside [0, 1] (NaN included)."""
    value = float(p)
    if not (0.0 <= value <= 1.0):
        raise DomainError(f"p_correct must lie in [0, 1], got {p}")
    return value


@dataclass(frozen=True)
class DecodingConfig:
    """Parameters of one pipelined-decoding setup.

    The time unit throughout the package is the cost of one layer's
    forward computation, so a full forward pass costs ``d`` time units.
    Construction checks every invariant, the exact regime 2*d_bar >= d
    included, and raises DomainError naming the first one violated; a
    config that exists is valid.
    """

    d: int                            # total layer count
    d_bar: int                       # layer at which the early prediction is read
    k: int                           # speculative sub-processes (k+1 compute units total)
    ell: int                         # tokens to generate
    p_correct: float | None = None   # per-token match probability; None for trace-driven runs

    def __post_init__(self) -> None:
        if self.p_correct is not None:
            object.__setattr__(self, "p_correct", check_p(self.p_correct))
        if self.d < 1:
            raise DomainError(f"d must be >= 1, got {self.d}")
        if self.d_bar < 1:
            raise DomainError(f"d_bar must be >= 1, got {self.d_bar}")
        if self.d_bar > self.d:
            raise DomainError(f"d_bar must be <= d, got d_bar={self.d_bar} > d={self.d}")
        if self.ell < 1:
            raise DomainError(f"ell must be >= 1, got {self.ell}")
        if self.k < 0:
            raise DomainError(f"k must be >= 0, got {self.k}")
        # the exact latency/compute accounting needs the early layer at or past mid-depth
        if 2 * self.d_bar < self.d:
            raise DomainError(
                f"exact accounting requires d_bar >= d/2, got d_bar={self.d_bar}, d={self.d}"
            )


def require_p(config: DecodingConfig) -> float:
    """Return p_correct, rejecting configs that were built without one."""
    if config.p_correct is None:
        raise DomainError("this operation needs p_correct, but the config has none")
    return config.p_correct


def closed_form_totals(d: int, d_bar: int, k: int, ell: int, n_runs: int | np.ndarray) -> tuple:
    """Realized (latency, compute) of an ell-token generation in ``n_runs`` runs.

    A run of X tokens holds the main process for d + (X-1)*d_bar time units,
    and every token's speculation window adds k*(d-d_bar) compute.  ``n_runs``
    is an int or an int64 array; the totals come back in its form.
    """
    latency = d_bar * ell + (d - d_bar) * n_runs
    return latency, latency + k * (d - d_bar) * ell


@dataclass(frozen=True)
class MatchSequence:
    """Per-position early-prediction outcomes for an ell-token generation.

    ``bits`` has exactly ell-1 entries; bits[t] is True iff the early
    top-k candidates for (1-based) token t+1 contained its final token,
    in which case token t+2 starts from the handed-off partial state.
    """

    bits: tuple[bool, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(bool(b) for b in self.bits))

    @property
    def ell(self) -> int:
        return len(self.bits) + 1

    @property
    def n_runs(self) -> int:
        """N: the number of maximal matched streaks, one more than the misses."""
        return 1 + self.bits.count(False)

    @classmethod
    def from_string(cls, text: str) -> "MatchSequence":
        """Parse a compact 'TTFT...' form (case-insensitive, 1/0 accepted)."""
        bits = []
        for ch in text.strip():
            if ch in "Tt1":
                bits.append(True)
            elif ch in "Ff0":
                bits.append(False)
            else:
                raise DomainError(f"match string may only contain T/F/1/0, got {ch!r}")
        return cls(tuple(bits))

    def to_string(self) -> str:
        return "".join("T" if b else "F" for b in self.bits)


@dataclass(frozen=True)
class LatencyComputeReport:
    """Totals and derived averages for one generation schedule.

    total_latency is in time units, total_compute in compute-unit x
    time-units; per_token_latency = total_latency / ell and
    avg_compute_per_time_unit = total_compute / total_latency hold by
    construction.
    """

    total_latency: float
    total_compute: float
    per_token_latency: float
    avg_compute_per_time_unit: float
    avg_compute_per_token: float

    @classmethod
    def from_totals(
        cls, total_latency: float, total_compute: float, ell: int
    ) -> "LatencyComputeReport":
        if ell < 1:
            raise DomainError(f"ell must be >= 1, got {ell}")
        return cls(
            total_latency=total_latency,
            total_compute=total_compute,
            per_token_latency=total_latency / ell,
            avg_compute_per_time_unit=total_compute / total_latency,
            avg_compute_per_token=total_compute / ell,
        )
