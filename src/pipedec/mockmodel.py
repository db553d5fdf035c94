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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DecodingConfig, DomainError, MatchSequence, check_int, check_p
from .core import closed_form_totals
from .rng import (
    GOLDEN, LANE_BITS, mix64, mix64_chain, mix64_finalize, mix64_lanes, mix64_np,
    pack_lanes, stream_key,
)
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
        for name, least in (("vocab_size", 2), ("depth", 1), ("seed", None)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least))
        object.__setattr__(self, "bias", check_p(self.bias, "bias"))


# no caller in the package; perfbench/tracing.py builds one before it makes any probe
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


def prefix_digest(model: MockModel, tokens: Sequence[int]) -> int:
    """Digest of a token prefix; the layer-0 state of the next position."""
    acc = mix64((model.seed & _MASK64) ^ _PREFIX_TAG)
    for t in tokens:
        acc = mix64(acc ^ (t & _MASK64))
    return acc


def extend_digest(model: MockModel, digest: int, token: int) -> int:
    """Digest of prefix+token given the prefix digest (same fold as prefix_digest)."""
    return mix64(digest ^ (token & _MASK64))


def _layer_keys(model: MockModel) -> list[int]:
    """Layer j's key at index j-1, for ``rng.mix64_chain``: layers lo..hi are ``keys[lo-1:hi]``.

    Layer j maps state h under context digest c to ``mix64((h + mix64(base ^ j) + c) mod 2**64)``;
    its key is ``mix64(base ^ j) + GOLDEN`` (mod 2**64), mix64's leading add folded in.
    """
    base = mix64((model.seed & _MASK64) ^ _LAYER_TAG)
    return (mix64_np(np.arange(1, model.depth + 1, dtype=np.uint64) ^ base) + GOLDEN).tolist()


def _classifier(model: MockModel):
    """Both classifiers: ``classify(hidden, z, t)`` writes mix64(h ^ base ^ id) to ``z[i, id]``
    for the i-th h of the uint64 column ``hidden`` (shape (n, 1)) and every id, and returns z.

    ``z`` is uint64 of shape (n, V) and ``t`` scratch like it; ``base ^ id`` is made once.
    """
    words = np.arange(model.vocab_size, dtype=np.uint64) ^ np.uint64(
        mix64((model.seed & _MASK64) ^ _SCORE_TAG))

    def classify(hidden: np.ndarray, z: np.ndarray, t: np.ndarray) -> np.ndarray:
        return mix64_finalize(np.add(np.bitwise_xor(hidden, words, out=z), GOLDEN, out=z), t)

    return classify


def _scorer(model: MockModel):
    """Both classifiers' scoring: one or two hidden values to that many rows of uint64 scores.

    A call mixes its rows in place in a (2, V) buffer made once per scorer (per decode) and
    returns views of them, valid until the next call.
    """
    classify = _classifier(model)
    buf, tmp = np.empty((2, 2, model.vocab_size), np.uint64)  # the score rows and their scratch
    hidden = np.empty((2, 1), np.uint64)
    views = tuple((hidden[:n], buf[:n], tmp[:n]) for n in (1, 2))  # views[n - 1]: n rows

    def scores(*hidden_values: int) -> np.ndarray:
        column, z, t = views[len(hidden_values) - 1]
        for i, h in enumerate(hidden_values):
            column[i, 0] = h
        return classify(column, z, t)

    return scores


def _top_k(scores: np.ndarray, k: int) -> list[int]:
    """Ids of the k highest scores, best first, equal to a stable descending sort's first k.

    k rounds of ``argmax``, each zeroing its winner in ``scores`` (overwritten).  Scores of one
    state never tie (id -> base ^ id is injective and mix64 a bijection on 64-bit words), so
    while two or more ids are unpicked at most one scores 0, and the best of them, above every
    zeroed winner, is the ``argmax`` alone.  Only the last id of a k = V ranking can score 0
    and tie with the zeroed winners; it is the one id never picked, so the sum of ids gives it.
    """
    winners = []
    for _ in range(min(k, len(scores) - 1)):
        winners.append(int(scores.argmax()))
        scores[winners[-1]] = 0
    if k == len(scores):
        winners.append(k * (k - 1) // 2 - sum(winners))
    return winners


def _bias_bits(model: MockModel, first: int, n: int) -> list[bool]:
    """Does the early ranking copy the final one at positions first .. first+n-1?

    Position p does when ``mix64(key ^ p) < int(bias * 2**64)``, so every p does at bias 1.0,
    where that bound, 2**64, does not fit in uint64.
    """
    threshold = int(model.bias * 2.0 ** 64)
    if threshold > _MASK64:
        return [True] * n
    key = mix64((model.seed & _MASK64) ^ _BIAS_TAG)
    return (mix64_np(np.arange(first, first + n, dtype=np.uint64) ^ key) < threshold).tolist()


def greedy_next(model: MockModel, prompt: Sequence[int], tokens: Sequence[int]) -> np.ndarray:
    """The greedy token after ``prompt + tokens[:t]`` for each t < len(tokens), in one pass.

    The tokens are folded into their positions' prefix digests as ``decode_sequential`` folds
    them, the d layers run on all positions at once as the lanes of one integer
    (``rng.mix64_lanes``), and one (n, V) pass scores every position.
    """
    n = len(tokens)
    digests = [prefix_digest(model, prompt)]
    for tok in tokens[: n - 1]:
        digests.append(extend_digest(model, digests[-1], tok))
    spread, packed = pack_lanes([1] * n), pack_lanes(digests)
    states = mix64_lanes([key * spread for key in _layer_keys(model)], packed, packed,
                         pack_lanes([_MASK64] * n))
    # a 128-bit lane is two little-endian 64-bit words: its state, then the zero carry bits
    hidden = np.frombuffer(states.to_bytes(16 * n, "little"), "<u8")[::2, None]
    z = np.empty((n, model.vocab_size), np.uint64)
    return _classifier(model)(hidden, z, np.empty_like(z)).argmax(axis=1)


def decode_sequential(model: MockModel, prompt: Sequence[int], ell: int) -> DecodeResult:
    """Plain greedy decoding: one full depth-d pass per token.

    The prompt is folded once; each token then extends the digest.
    """
    ell = check_int("ell", ell, 1)
    keys, scores = _layer_keys(model), _scorer(model)
    digest = prefix_digest(model, prompt)
    tokens: list[int] = []
    for _ in range(ell):
        tok = int(scores(mix64_chain(keys, digest, digest))[0].argmax())
        tokens.append(tok)
        if model.eos_enabled and tok == EOS_TOKEN:
            break
        digest = extend_digest(model, digest, tok)
    return DecodeResult(
        tokens=tuple(tokens),
        match_trace=MatchSequence(()),
        main_layer_count=model.depth * len(tokens),
        spec_layer_count=0,
    )


def decode_ppd(
    model: MockModel,
    prompt: Sequence[int],
    ell: int,
    d_bar: int,
    k: int,
) -> DecodeResult:
    """Pipelined decoding on the mock model.

    Per token: read the early top-k at layer d_bar, launch k speculative
    partial forwards of the next position up to layer d-d_bar, finish the
    main pass, and on a match hand the matching partial state to the main
    process, which resumes at layer d-d_bar+1.  Token output is identical
    to decode_sequential by construction; the layer counters record the
    realized main-process and speculative work.  The k speculative
    forwards run in lockstep on the calling thread, as the k lanes of one
    packed integer (``rng.mix64_lanes``); every lane's window is computed,
    the discarded ones included.
    """
    d = model.depth
    DecodingConfig(d, d_bar, k, ell)  # the d_bar, exact-regime and ell rules
    if not (1 <= k <= model.vocab_size):
        raise DomainError(f"k must lie in [1, vocab_size], got k={k}, vocab={model.vocab_size}")

    window = d - d_bar
    keys, scores = _layer_keys(model), _scorer(model)
    # each window layer's key in all k lanes, and the mask of the lanes' 64-bit words
    spread, lane_mask = pack_lanes([1] * k), pack_lanes([_MASK64] * k)
    rows = [key * spread for key in keys[:window]]
    golden_row = [GOLDEN * spread]  # with addend 0, one mix64 per lane: extend_digest
    digest = prefix_digest(model, prompt)
    tokens: list[int] = []
    match_bits: list[bool] = []
    early_lists: list[tuple[int, ...]] = []
    main_layers = 0
    spec_layers = 0
    handoff: int | None = None
    for biased in _bias_bits(model, len(prompt) + 1, ell):
        if handoff is None:
            h_dbar = mix64_chain(keys[:d_bar], digest, digest)
            main_layers += d
        else:
            h_dbar = mix64_chain(keys[window:d_bar], handoff, digest)
            main_layers += d_bar
        h_d = mix64_chain(keys[d_bar:], h_dbar, digest)
        if biased:
            # the early ranking reads h_d, and its best id is the final token
            cands = _top_k(scores(h_d)[0], k)
            final = cands[0]
        else:
            final_scores, early_scores = scores(h_d, h_dbar)
            cands = _top_k(early_scores, k)
            final = int(final_scores.argmax())

        # the candidates' digests, then their layer-window states of the next position
        sub_digests = mix64_lanes(golden_row, pack_lanes([digest ^ c for c in cands]), 0, lane_mask)
        sub_states = mix64_lanes(rows, sub_digests, sub_digests, lane_mask)
        spec_layers += k * window

        tokens.append(final)
        matched = final in cands
        match_bits.append(matched)
        early_lists.append(tuple(cands))
        if model.eos_enabled and final == EOS_TOKEN:
            break
        if matched:
            shift = LANE_BITS * cands.index(final)
            handoff, digest = (sub_states >> shift) & _MASK64, (sub_digests >> shift) & _MASK64
        else:
            handoff, digest = None, extend_digest(model, digest, final)

    return DecodeResult(
        tokens=tuple(tokens),
        # the last position's match outcome accelerates nothing and is not recorded
        match_trace=MatchSequence(match_bits[: len(tokens) - 1]),
        main_layer_count=main_layers,
        spec_layer_count=spec_layers,
        early_candidates=tuple(early_lists),
    )


def emit_trace(result: DecodeResult) -> TraceTable:
    """Turn a pipelined DecodeResult into per-position prediction records.

    One record per generated position that has a recorded match outcome
    (all but the last token), so a membership test over the records
    reproduces result.match_trace bit for bit.  Every row has example id
    ``"decode"`` and no layer.
    """
    if len(result.early_candidates) != len(result.tokens):
        raise DomainError("result has no early candidate lists; decode_ppd produces them")
    n = len(result.tokens) - 1
    k = len(result.early_candidates[0])  # decode_ppd reads k candidates at every position
    topk = np.array(result.early_candidates[:n], dtype=np.int64).reshape(n, k)
    return TraceTable(
        example_ids=("decode",),
        example_code=np.zeros(n, np.int64),
        position=np.arange(1, n + 1),
        topk=topk,
        topk_len=np.full(n, k),
        final=np.array(result.tokens[:n], dtype=np.int64),
        layer=np.zeros(n, np.int64),
        layer_absent=np.ones(n, bool),
    )


@dataclass(frozen=True)
class PpdInstance:
    """One randomly drawn exactness-check case."""

    model: MockModel
    prompt: tuple[int, ...]
    ell: int
    d_bar: int
    k: int


def random_instance(index: int, seed: int) -> PpdInstance:
    """Deterministically draw instance ``index`` of the exactness suite: vocab 4, 16 or 64,
    depth 8 or 40, d_bar from ceil(depth/2) to depth, k 1, 3 or 5 (at most the vocab), and
    1 to 32 tokens.
    """
    rr = random.Random(stream_key(seed, index))
    vocab = rr.choice([4, 16, 64])
    depth = rr.choice([8, 40])
    d_bar = rr.randint((depth + 1) // 2, depth)
    k = rr.choice([k for k in (1, 3, 5) if k <= vocab])
    ell = rr.randint(1, 32)
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
    """Decode one instance pipelined and check it; return a description of its first defect.

    By induction on t, the pipelined tokens equal the greedy ones exactly when each of them is
    the greedy token after the prompt and the tokens before it (one ``greedy_next`` pass), no
    EOS comes before the last of them (EOS enabled), and there are ``ell`` of them or (EOS
    enabled) fewer, the last an EOS.  Only a rollout that fails this is decoded sequentially,
    for the message.  Then the main-process work identity d_bar*ell + (d-d_bar)*N and the
    speculative count are checked.
    """
    ppd = decode_ppd(inst.model, inst.prompt, inst.ell, inst.d_bar, inst.k)
    tokens, ell_gen, eos = ppd.tokens, len(ppd.tokens), inst.model.eos_enabled
    stops = ell_gen == inst.ell or (eos and ell_gen < inst.ell and tokens[-1:] == (EOS_TOKEN,))
    if not stops or (eos and EOS_TOKEN in tokens[:-1]) or (
            greedy_next(inst.model, inst.prompt, tokens).tolist() != list(tokens)):
        seq = decode_sequential(inst.model, inst.prompt, inst.ell)
        return f"token mismatch: sequential={seq.tokens} pipelined={ppd.tokens} on {inst}"
    n_runs = ppd.match_trace.n_runs
    expected_main, expected_total = closed_form_totals(
        inst.model.depth, inst.d_bar, inst.k, ell_gen, n_runs
    )
    if ppd.main_layer_count != expected_main:
        return (
            f"main layer count {ppd.main_layer_count} != {expected_main} "
            f"(ell_gen={ell_gen}, n_runs={n_runs}) on {inst}"
        )
    if ppd.spec_layer_count != expected_total - expected_main:
        return f"speculative layer count {ppd.spec_layer_count} wrong on {inst}"
    return None
