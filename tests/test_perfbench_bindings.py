"""The pipedec names and types that the benchmark's tracer, probes and checks bind.

``perfbench/tracing.py`` wraps each of its ``TARGETS`` and times each probe of ``_probe_cases``
by name; a name the package no longer has reads 0 in a traced run instead of failing it.  The
sets below are the names known to be gone, so that another one going dark fails here.  The
benchmark's output check and layer counters read ``DecodeResult.match_trace``; a type they can
no longer read would end a run as ``outputs_incorrect``, so the last tests read it here.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from pipedec.core import MatchSequence
from pipedec.mockmodel import decode_ppd, decode_sequential, emit_trace
from pipedec.trace import match_rate


def _load(name: str):
    """Import ``perfbench/<name>.py``, which is not a package module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up in sys.modules
    return module


tracing, workloads = _load("tracing"), _load("workloads")

# a function that pipedec.stochastic no longer has (its kernel is rng.counter_hits)
MISSING_TARGETS = {("pipedec.stochastic", "counter_uniforms")}
# the probes of the scalar layer, top-k and final-token functions, which the package no longer has
DARK_PROBES = {
    "mockmodel.forward_layer_us",
    "mockmodel.early_topk_us.v64",
    "mockmodel.early_topk_us.v1024",
    "mockmodel.final_token_us.v1024",
}


def test_only_the_known_targets_are_missing() -> None:
    missing = {(module, attr) for module, attr, _, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)}
    assert missing == MISSING_TARGETS


def test_only_the_known_probes_are_dark() -> None:
    dark = set()
    for name, probe in tracing._probe_cases().items():  # any other failure propagates
        try:
            probe()
        except AttributeError:
            dark.add(name)
    assert dark == DARK_PROBES


def _decode_long_rollout(ell: int) -> tuple:
    """The model, pipelined result, sequential result and match rate of a decode_long rollout."""
    state = workloads.decode_long_setup(0, "tiny", Path("."))
    model, prompt = state.models[0], state.prompts[0]
    ppd = decode_ppd(model, prompt, ell, workloads.DECODE_DBAR, workloads.DECODE_K)
    rate = match_rate(emit_trace(ppd), workloads.DECODE_K)
    return model, ppd, decode_sequential(model, prompt, ell), rate


def test_decode_long_check_reads_the_match_trace() -> None:
    _, ppd, seq, rate = _decode_long_rollout(64)
    assert workloads._decode_problems(ppd, seq, rate, 64) == []
    # flipped bits change N and the match count, and the check must see both
    flipped = replace(ppd, match_trace=MatchSequence(~ppd.match_trace.bits))
    problems = workloads._decode_problems(flipped, seq, rate, 64)
    assert [p.split()[0] for p in problems] == ["main_layer_count", "emitted"]


def test_count_ppd_counts_the_match_bits() -> None:
    model, ppd, _, _ = _decode_long_rollout(64)
    stub = SimpleNamespace(counts=Counter())
    tracing._count_ppd(stub, {"k": workloads.DECODE_K, "model": model}, ppd)
    bits = ppd.match_trace.bits
    assert (stub.counts["match_bits"], stub.counts["matches"]) == (len(bits), int(np.sum(bits)))
    assert 0 < stub.counts["matches"] < stub.counts["match_bits"] == 63
