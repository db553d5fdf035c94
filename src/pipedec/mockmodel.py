"""Deterministic layered token model for end-to-end decoding checks.

The model stands in for a causal transformer: a position's layer-0 state
is a 64-bit digest of the token prefix, each layer applies the SplitMix64
finalizer (see ``rng``) to the previous state, and both classifiers score
every vocabulary id by mixing it with the hidden state; the early
classifier reads the state at an intermediate layer, the final one at
the last layer.  Pipelined decoding can therefore run for real on this
model, and its token output is required to be identical to plain greedy
decoding in every configuration.

Token id 0 is the end-of-sequence marker.  The optional ``bias`` knob
makes the early classifier copy the final-layer ranking at a
deterministic, seed-and-position-resolved fraction of positions, which
dials the match rate up from the ~k/vocab baseline of two independent
scorers and exercises long handoff chains.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DomainError, MatchSequence
from .rng import mix64, mix64_np, stream_key
from .tracetable import TraceTable

EOS_TOKEN = 0

_MASK64 = (1 << 64) - 1
# domain-separation tags (hex digits of pi)
_PREFIX_TAG = 0x243F6A8885A308D3
_LAYER_TAG = 0x13198A2E03707344
_SCORE_TAG = 0xA4093822299F31D0
_BIAS_TAG = 0x082EFA98EC4E6C89


@dataclass(frozen=True)
class MockModel:
    vocab_size: int          # ids 0..vocab_size-1; id 0 is EOS
    depth: int               # layer count d
    seed: int
    eos_enabled: bool = False
    bias: float = 0.0        # fraction of positions whose early ranking copies the final one

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise DomainError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.depth < 1:
            raise DomainError(f"depth must be >= 1, got {self.depth}")
        if not (0.0 <= self.bias <= 1.0):
            raise DomainError(f"bias must lie in [0, 1], got {self.bias}")


@dataclass(frozen=True)
class HiddenState:
    """Abstract activation digest for one position at one layer."""

    value: int


@dataclass(frozen=True)
class DecodeResult:
    tokens: tuple[int, ...]
    match_trace: MatchSequence
    main_layer_count: int
    spec_layer_count: int
    # early top-k candidate lists, one per generated position (pipelined runs only)
    early_candidates: tuple[tuple[int, ...], ...] = ()


def _layer_base(model: MockModel) -> int:
    return mix64((model.seed & _MASK64) ^ _LAYER_TAG)


def _score_base(model: MockModel) -> int:
    return mix64((model.seed & _MASK64) ^ _SCORE_TAG)


def _layer_step(value: int, layer_key: int, digest: int) -> int:
    return mix64((value + layer_key + digest) & _MASK64)


def prefix_digest(model: MockModel, tokens: Sequence[int]) -> int:
    """Digest of a token prefix; the layer-0 state of the next position."""
    acc = mix64((model.seed & _MASK64) ^ _PREFIX_TAG)
    for t in tokens:
        acc = mix64(acc ^ (t & _MASK64))
    return acc


def extend_digest(model: MockModel, digest: int, token: int) -> int:
    """Digest of prefix+token given the prefix digest (same fold as prefix_digest)."""
    return mix64(digest ^ (token & _MASK64))


def forward_layer(
    model: MockModel, prev_hidden: HiddenState, layer: int, token_context_digest: int
) -> HiddenState:
    """Advance one layer: mix the previous state with the layer key and context digest."""
    key = mix64(_layer_base(model) ^ layer)
    return HiddenState(_layer_step(prev_hidden.value, key, token_context_digest))


def _chain(model: MockModel, value: int, digest: int, lo_layer: int, hi_layer: int) -> int:
    """Run layers lo..hi (inclusive) starting from ``value``; equals repeated forward_layer."""
    base = _layer_base(model)
    for j in range(lo_layer, hi_layer + 1):
        value = _layer_step(value, mix64(base ^ j), digest)
    return value


def _token_scores(model: MockModel, hidden_value: int) -> np.ndarray:
    ids = np.arange(model.vocab_size, dtype=np.uint64)
    base = np.uint64((hidden_value ^ _score_base(model)) & _MASK64)
    return mix64_np(base ^ ids)


def early_topk(model: MockModel, hidden_at_dbar: HiddenState, k: int) -> list[int]:
    """The k highest-scoring token ids, ties broken toward smaller ids."""
    if not (1 <= k <= model.vocab_size):
        raise DomainError(f"k must lie in [1, vocab_size], got k={k}, vocab={model.vocab_size}")
    scores = _token_scores(model, hidden_at_dbar.value)
    # ~scores is a monotone decreasing map on uint64, so a stable ascending
    # sort of it ranks by descending score with smaller ids first on ties
    order = np.argsort(~scores, kind="stable")
    return [int(i) for i in order[:k]]


def final_token(model: MockModel, hidden_at_d: HiddenState) -> int:
    """Greedy pick from the final-layer state; same scorer as early_topk."""
    return int(_token_scores(model, hidden_at_d.value).argmax())


def _bias_hit(model: MockModel, position: int) -> bool:
    if model.bias <= 0.0:
        return False
    draw = mix64(mix64((model.seed & _MASK64) ^ _BIAS_TAG) ^ position)
    return draw < int(model.bias * 2.0 ** 64)


def decode_sequential(model: MockModel, prompt: Sequence[int], ell: int) -> DecodeResult:
    """Plain greedy decoding: one full depth-d pass per token."""
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    context = list(prompt)
    tokens: list[int] = []
    for _ in range(ell):
        digest = prefix_digest(model, context)
        h = _chain(model, digest, digest, 1, model.depth)
        tok = final_token(model, HiddenState(h))
        tokens.append(tok)
        context.append(tok)
        if model.eos_enabled and tok == EOS_TOKEN:
            break
    return DecodeResult(
        tokens=tuple(tokens),
        match_trace=MatchSequence(()),
        main_layer_count=model.depth * len(tokens),
        spec_layer_count=0,
    )


def _speculate(
    model: MockModel,
    digest: int,
    candidates: list[int],
    window: int,
    parallel: bool,
) -> list[int]:
    """Layer-``window`` states of the next position, one per candidate token."""

    def one(cand: int) -> int:
        d2 = extend_digest(model, digest, cand)
        return _chain(model, d2, d2, 1, window) if window > 0 else d2

    if parallel and len(candidates) > 1:
        with ThreadPoolExecutor(max_workers=len(candidates)) as pool:
            return list(pool.map(one, candidates))
    return [one(c) for c in candidates]


def decode_ppd(
    model: MockModel,
    prompt: Sequence[int],
    ell: int,
    d_bar: int,
    k: int,
    parallel: bool = False,
) -> DecodeResult:
    """Pipelined decoding on the mock model.

    Per token: read the early top-k at layer d_bar, launch k speculative
    partial forwards of the next position up to layer d-d_bar, finish the
    main pass, and on a match hand the matching partial state to the main
    process, which resumes at layer d-d_bar+1.  Token output is identical
    to decode_sequential by construction; the layer counters record the
    realized main-process and speculative work.
    """
    d = model.depth
    if ell < 1:
        raise DomainError(f"ell must be >= 1, got {ell}")
    if not (1 <= d_bar <= d):
        raise DomainError(f"d_bar must lie in [1, depth], got d_bar={d_bar}, depth={d}")
    if 2 * d_bar < d:
        raise DomainError(f"exact pipelining requires d_bar >= d/2, got d_bar={d_bar}, d={d}")
    if not (1 <= k <= model.vocab_size):
        raise DomainError(f"k must lie in [1, vocab_size], got k={k}, vocab={model.vocab_size}")

    window = d - d_bar
    context = list(prompt)
    tokens: list[int] = []
    match_bits: list[bool] = []
    early_lists: list[tuple[int, ...]] = []
    main_layers = 0
    spec_layers = 0
    handoff: int | None = None
    for _ in range(ell):
        digest = prefix_digest(model, context)
        if handoff is None:
            h_dbar = _chain(model, digest, digest, 1, d_bar)
            main_layers += d
        else:
            h_dbar = _chain(model, handoff, digest, window + 1, d_bar)
            main_layers += d_bar
        h_d = _chain(model, h_dbar, digest, d_bar + 1, d)

        position = len(context) + 1
        ranking_state = h_d if _bias_hit(model, position) else h_dbar
        cands = early_topk(model, HiddenState(ranking_state), k)

        sub_states = _speculate(model, digest, cands, window, parallel)
        spec_layers += k * window

        final = final_token(model, HiddenState(h_d))
        tokens.append(final)
        context.append(final)
        matched = final in cands
        match_bits.append(matched)
        early_lists.append(tuple(cands))
        handoff = sub_states[cands.index(final)] if matched else None
        if model.eos_enabled and final == EOS_TOKEN:
            break

    # the last position's match outcome accelerates nothing and is not recorded
    trace = MatchSequence(tuple(match_bits[: len(tokens) - 1]))
    return DecodeResult(
        tokens=tuple(tokens),
        match_trace=trace,
        main_layer_count=main_layers,
        spec_layer_count=spec_layers,
        early_candidates=tuple(early_lists),
    )


def emit_trace(
    result: DecodeResult, example_id: str = "decode", layer: int | None = None
) -> TraceTable:
    """Turn a pipelined DecodeResult into per-position prediction records.

    One record per generated position that has a recorded match outcome
    (all but the last token), so a membership test over the records
    reproduces result.match_trace bit for bit.
    """
    if len(result.early_candidates) != len(result.tokens):
        raise DomainError("result has no early candidate lists; decode_ppd produces them")
    n = len(result.tokens) - 1
    k = len(result.early_candidates[0])  # decode_ppd reads k candidates at every position
    topk = np.array(result.early_candidates[:n], dtype=np.int64).reshape(n, k)
    return TraceTable(
        example_ids=(example_id,),
        example_code=np.zeros(n, np.int64),
        position=np.arange(1, n + 1),
        topk=topk,
        topk_len=np.full(n, k),
        final=np.array(result.tokens[:n], dtype=np.int64),
        layer=np.full(n, 0 if layer is None else layer),
        layer_absent=np.full(n, layer is None),
    )


@dataclass(frozen=True)
class PpdInstance:
    """One randomly drawn exactness-check case."""

    model: MockModel
    prompt: tuple[int, ...]
    ell: int
    d_bar: int
    k: int


def random_instance(
    index: int,
    seed: int,
    vocab_sizes: Sequence[int] = (4, 16, 64),
    depths: Sequence[int] = (8, 40),
    k_values: Sequence[int] = (1, 3, 5),
    max_ell: int = 32,
) -> PpdInstance:
    """Deterministically draw instance ``index`` of the exactness suite."""
    rr = random.Random(stream_key(seed, index))
    vocab = rr.choice(list(vocab_sizes))
    depth = rr.choice(list(depths))
    d_bar = rr.randint((depth + 1) // 2, depth)
    usable_k = [k for k in k_values if k <= vocab]
    if not usable_k:
        raise DomainError(f"no k in {k_values} fits vocab_size {vocab}")
    k = rr.choice(usable_k)
    ell = rr.randint(1, max_ell)
    model = MockModel(
        vocab_size=vocab,
        depth=depth,
        seed=rr.getrandbits(63),
        eos_enabled=rr.random() < 0.5,
        bias=rr.choice((0.0, 0.0, 0.5, 0.9)),
    )
    prompt = tuple(rr.randrange(vocab) for _ in range(rr.randint(1, 4)))
    return PpdInstance(model=model, prompt=prompt, ell=ell, d_bar=d_bar, k=k)


def exactness_counterexample(inst: PpdInstance) -> str | None:
    """Run one instance both ways; return a description of the first defect, if any.

    Checks token equality against the sequential decoder and the
    main-process work identity d_bar*ell + (d-d_bar)*N.
    """
    seq = decode_sequential(inst.model, inst.prompt, inst.ell)
    ppd = decode_ppd(inst.model, inst.prompt, inst.ell, inst.d_bar, inst.k)
    if seq.tokens != ppd.tokens:
        return f"token mismatch: sequential={seq.tokens} pipelined={ppd.tokens} on {inst}"
    d, d_bar = inst.model.depth, inst.d_bar
    ell_gen = len(ppd.tokens)
    n_runs = 1 + sum(1 for b in ppd.match_trace.bits if not b)
    expected_main = d_bar * ell_gen + (d - d_bar) * n_runs
    if ppd.main_layer_count != expected_main:
        return (
            f"main layer count {ppd.main_layer_count} != {expected_main} "
            f"(ell_gen={ell_gen}, n_runs={n_runs}) on {inst}"
        )
    if ppd.spec_layer_count != inst.k * (d - d_bar) * ell_gen:
        return f"speculative layer count {ppd.spec_layer_count} wrong on {inst}"
    return None
