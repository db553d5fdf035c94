"""Shared domain types and closed-form totals for pipelined-decoding analysis.

All types are immutable value objects and safe to share across threads.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """A value violates one of the model's domain constraints."""


def check_p(p: float, name: str = "p_correct") -> float:
    """Return ``p`` as a float, rejecting bools, non-numbers and values outside [0, 1] or NaN."""
    # a plain float skips the ABC check, which takes ~13 us when the caches are cold
    if type(p) is not float and (isinstance(p, bool) or not isinstance(p, numbers.Real)):
        raise DomainError(f"{name} must be a number, got {p!r}")
    value = float(p)
    if not (0.0 <= value <= 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {p}")
    return value


def check_int(name: str, value: int, least: int | None) -> int:
    """Return ``value`` as an int, rejecting non-integers and ones below ``least`` (if not None)."""
    # a bool is an Integral, and a float such as 40.0 is not; a plain int skips the ABC check,
    # which takes ~10 us when the caches are cold (after a decode)
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class DecodingConfig:
    """Parameters of one pipelined-decoding setup.

    The time unit throughout the package is the cost of one layer's
    forward computation, so a full forward pass costs ``d`` time units.
    Construction checks every invariant, the value types and the exact
    regime 2*d_bar >= d included, and raises DomainError naming the first
    one violated; a config that exists is valid and holds Python numbers.
    """

    d: int                            # total layer count
    d_bar: int                       # layer at which the early prediction is read
    k: int                           # speculative sub-processes (k+1 compute units total)
    ell: int                         # tokens to generate
    p_correct: float | None = None   # per-token match probability; None for trace-driven runs

    def __post_init__(self) -> None:
        for name, least in (("d", 1), ("d_bar", 1), ("k", 0), ("ell", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least))
        if self.p_correct is not None:
            object.__setattr__(self, "p_correct", check_p(self.p_correct))
        if self.d_bar > self.d:
            raise DomainError(f"d_bar must be <= d, got d_bar={self.d_bar} > d={self.d}")
        if self.k == 0 and self.p_correct:
            raise DomainError(f"k = 0 has no early candidate to match, so p_correct must be 0, "
                              f"got {self.p_correct}")
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


@dataclass(frozen=True, eq=False)
class MatchSequence:
    """Per-position early-prediction outcomes for an ell-token generation.

    ``bits`` is a read-only numpy copy of exactly ell-1 bools; bits[t] is
    True iff the early top-k candidates for (1-based) token t+1 contained
    its final token, in which case token t+2 starts from the handed-off
    partial state.
    """

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = self.bits
        try:
            if not (isinstance(bits, np.ndarray) and bits.dtype == bool):
                bits = list(bits)  # a generator is read once; an object array is checked by item
            array = np.array(bits) if len(bits) else np.zeros(0, bool)  # a copy, never a view
        except TypeError:  # not iterable, or a 0-d array
            raise DomainError(f"bits must be a sequence of bools, got {bits!r}") from None
        except ValueError:  # a ragged nesting, which holds a non-bool
            array = np.zeros((0, 0))  # fails the check below
        if array.dtype != bool or array.ndim != 1:
            at, bit = next((at, bit) for at, bit in enumerate(bits)
                           if not isinstance(bit, (bool, np.bool_)))
            raise DomainError(f"bits[{at}] must be a bool, got {bit!r}")
        array.flags.writeable = False
        object.__setattr__(self, "bits", array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchSequence):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    @property
    def n_runs(self) -> int:
        """N: the number of maximal matched streaks, one more than the misses."""
        return 1 + len(self.bits) - int(np.count_nonzero(self.bits))

    @classmethod
    def from_string(cls, text: str) -> "MatchSequence":
        """Parse a compact 'TTFT...' form (case-insensitive, 1/0 accepted)."""
        if bad := next((ch for ch in text.strip() if ch not in "TtFf10"), None):
            raise DomainError(f"match string may only contain T/F/1/0, got {bad!r}")
        return cls([ch in "Tt1" for ch in text.strip()])


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
        ell = check_int("ell", ell, 1)
        return cls(
            total_latency=total_latency,
            total_compute=total_compute,
            per_token_latency=total_latency / ell,
            avg_compute_per_time_unit=total_compute / total_latency,
            avg_compute_per_token=total_compute / ell,
        )
