"""Analysis toolkit for predictive pipelined decoding.

Implements the decoding state machine on a deterministic mock model, the
closed-form latency/compute trade-off, a Monte Carlo run-length model, a
layer-granular schedule simulator, and a match-rate trace analyzer.
"""

from .core import (
    DecodingConfig,
    DomainError,
    LatencyComputeReport,
    MatchSequence,
)

__all__ = [
    "DecodingConfig",
    "DomainError",
    "LatencyComputeReport",
    "MatchSequence",
]

__version__ = "0.1.0"
