"""The pipedec names that the benchmark's tracer and probes bind, checked against the package.

``perfbench/tracing.py`` wraps each of its ``TARGETS`` and times each probe of ``_probe_cases``
by name; a name the package no longer has reads 0 in a traced run instead of failing it.  The
sets below are the names known to be gone, so that another one going dark fails here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

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
