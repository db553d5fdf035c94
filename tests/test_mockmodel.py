from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipedec.core import DomainError, MatchSequence
from pipedec.mockmodel import (
    _BIAS_TAG,
    _PREFIX_TAG,
    _SCORE_TAG,
    _bias_bits,
    _layer_keys,
    _scorer,
    EOS_TOKEN,
    DecodeResult,
    HiddenState,
    MockModel,
    decode_ppd,
    decode_sequential,
    early_topk,
    emit_trace,
    exactness_counterexample,
    extend_digest,
    final_token,
    forward_layer,
    prefix_digest,
    random_instance,
)
from pipedec.rng import GOLDEN, mix64, mix64_chain
from pipedec.trace import match_rate

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_rollout.json"
_MASK64 = (1 << 64) - 1


def test_forward_layer_deterministic_and_layer_sensitive() -> None:
    model = MockModel(vocab_size=16, depth=8, seed=1)
    h0 = HiddenState(0)
    assert forward_layer(model, h0, 1, 0) == forward_layer(model, h0, 1, 0)
    assert forward_layer(model, h0, 1, 0) != forward_layer(model, h0, 2, 0)
    assert forward_layer(model, h0, 1, 0) != forward_layer(model, h0, 1, 1)


def test_forward_layer_collision_probe() -> None:
    model = MockModel(vocab_size=16, depth=64, seed=5)
    rr = random.Random(0)
    seen = set()
    for _ in range(10_000):
        h = HiddenState(rr.getrandbits(64))
        layer = rr.randint(1, 64)
        digest = rr.getrandbits(64)
        seen.add((h.value, layer, digest, forward_layer(model, h, layer, digest).value))
    outputs = {item[3] for item in seen}
    assert len(outputs) == len(seen)  # 64-bit mixer: collisions would be astronomical


def test_layer_chain_reproduces_decoder_hidden() -> None:
    # chaining layers 1..d via the public op must give the state the
    # classifiers see inside decode_sequential
    model = MockModel(vocab_size=16, depth=10, seed=77)
    prompt = (4, 2)
    digest = prefix_digest(model, prompt)
    h = HiddenState(digest)
    for layer in range(1, model.depth + 1):
        h = forward_layer(model, h, layer, digest)
    assert decode_sequential(model, prompt, 1).tokens[0] == final_token(model, h)


_WORDS = st.one_of(st.sampled_from((0, _MASK64)), st.integers(0, _MASK64))


@settings(max_examples=80)
@example(seed=0, depth=1, value=0, digest=0, lo=1, hi=1)
@example(seed=_MASK64, depth=64, value=_MASK64, digest=_MASK64, lo=1, hi=64)
@example(seed=3, depth=8, value=_MASK64, digest=0, lo=6, hi=5)  # empty range
@given(seed=st.integers(0, _MASK64), depth=st.integers(1, 64), value=_WORDS, digest=_WORDS,
       lo=st.integers(1, 64), hi=st.integers(0, 64))
def test_chain_equals_repeated_forward_layer(seed, depth, value, digest, lo, hi) -> None:
    # the decoders' inlined kernel on layers lo..hi against the public one-layer op,
    # which calls the scalar mix64
    model = MockModel(vocab_size=2, depth=depth, seed=seed)
    lo, hi = min(lo, depth), min(hi, depth)
    h = HiddenState(value)
    for layer in range(lo, hi + 1):
        h = forward_layer(model, h, layer, digest)
    assert mix64_chain(_layer_keys(model)[lo - 1 : hi], value, digest) == h.value


def test_early_topk_basics() -> None:
    model = MockModel(vocab_size=16, depth=8, seed=3)
    h = HiddenState(123456)
    full = early_topk(model, h, 16)
    assert sorted(full) == list(range(16))
    assert early_topk(model, h, 1) == full[:1]
    assert early_topk(model, h, 2) == full[:2]
    with pytest.raises(DomainError):
        early_topk(model, h, 17)
    with pytest.raises(DomainError):
        early_topk(model, h, 0)


def test_top1_frequency_is_uniform() -> None:
    model = MockModel(vocab_size=16, depth=8, seed=31337)
    n = 16000
    counts = Counter(final_token(model, HiddenState(mix64(i))) for i in range(n))
    sigma = math.sqrt(n * (1 / 16) * (15 / 16))
    for v in range(16):
        assert abs(counts[v] - n / 16) <= 3 * sigma


def test_final_token_matches_top1() -> None:
    model = MockModel(vocab_size=64, depth=8, seed=9)
    for i in range(200):
        h = HiddenState(mix64(i))
        assert final_token(model, h) == early_topk(model, h, 1)[0] == (
            int(reference_scores(model, h).argmax())
        )


def test_decode_sequential_single_token() -> None:
    model = MockModel(vocab_size=16, depth=8, seed=11)
    res = decode_sequential(model, (1,), 1)
    assert len(res.tokens) == 1
    assert res.main_layer_count == 8
    assert res.spec_layer_count == 0
    assert res.match_trace.bits == ()


def test_decode_sequential_stops_at_eos() -> None:
    # scan for a seed whose very first greedy token is EOS
    found = None
    for seed in range(1000):
        model = MockModel(vocab_size=16, depth=8, seed=seed, eos_enabled=True)
        if decode_sequential(model, (1,), 4).tokens[0] == EOS_TOKEN:
            found = seed
            break
    assert found is not None
    model = MockModel(vocab_size=16, depth=8, seed=found, eos_enabled=True)
    res = decode_sequential(model, (1,), 8)
    assert res.tokens == (EOS_TOKEN,)
    assert res.main_layer_count == 8
    # without EOS handling the rollout keeps going
    plain = decode_sequential(
        MockModel(vocab_size=16, depth=8, seed=found, eos_enabled=False), (1,), 8
    )
    assert len(plain.tokens) == 8


def test_rollouts_depend_on_prompt() -> None:
    model = MockModel(vocab_size=16, depth=8, seed=13)
    rr = random.Random(1)
    for _ in range(100):
        a = tuple(rr.randrange(16) for _ in range(3))
        b = tuple(rr.randrange(16) for _ in range(3))
        if a == b:
            continue
        assert decode_sequential(model, a, 8).tokens != decode_sequential(model, b, 8).tokens


def test_pipelined_equals_sequential_on_random_instances() -> None:
    for index in range(150):
        inst = random_instance(index, seed=424242)
        assert exactness_counterexample(inst) is None


def test_speculating_whole_vocab_always_matches() -> None:
    model = MockModel(vocab_size=8, depth=10, seed=21)
    res = decode_ppd(model, (2,), 6, d_bar=6, k=8)
    assert all(res.match_trace.bits)
    # one run: main work is d_bar*ell + (d - d_bar)
    assert res.main_layer_count == 6 * 6 + (10 - 6)
    assert res.spec_layer_count == 8 * (10 - 6) * 6


def test_full_depth_early_layer_saves_nothing() -> None:
    model = MockModel(vocab_size=16, depth=10, seed=23)
    res = decode_ppd(model, (1,), 5, d_bar=10, k=3)
    assert res.tokens == decode_sequential(model, (1,), 5).tokens
    assert res.main_layer_count == 10 * 5
    assert res.spec_layer_count == 0


def test_decode_ppd_rejects_bad_arguments() -> None:
    model = MockModel(vocab_size=16, depth=10, seed=1)
    with pytest.raises(DomainError):
        decode_ppd(model, (1,), 5, d_bar=4, k=3)  # below half depth
    with pytest.raises(DomainError):
        decode_ppd(model, (1,), 5, d_bar=8, k=17)
    with pytest.raises(DomainError):
        decode_ppd(model, (1,), 0, d_bar=8, k=3)


@pytest.mark.parametrize("field, value", [
    ("vocab_size", 2.5), ("vocab_size", 16.0), ("vocab_size", True),
    ("depth", 8.0), ("seed", 1.5), ("bias", "0.5"), ("bias", True),
    ("vocab_size", 1), ("depth", 0),
])
def test_mock_model_rejects_mistyped_fields(field, value) -> None:
    with pytest.raises(DomainError, match=field):
        MockModel(**{"vocab_size": 16, "depth": 8, "seed": 1, field: value})


def test_mock_model_takes_numpy_numbers_as_python_ones() -> None:
    model = MockModel(np.int64(16), np.int64(8), np.uint64(1), bias=np.float64(0.5))
    assert model == MockModel(16, 8, 1, bias=0.5)
    assert type(model.vocab_size) is int and type(model.bias) is float


@pytest.mark.parametrize("ell", [2.0, True, 0])
def test_both_decoders_reject_a_bad_ell(ell) -> None:
    model = MockModel(vocab_size=16, depth=8, seed=1)
    with pytest.raises(DomainError, match="ell"):
        decode_sequential(model, (1,), ell)
    with pytest.raises(DomainError, match="ell"):
        decode_ppd(model, (1,), ell, d_bar=6, k=2)


def test_handoff_state_equals_fresh_forward() -> None:
    model = MockModel(vocab_size=16, depth=12, seed=99)
    context = (5, 1, 7)
    digest = prefix_digest(model, context)
    assert extend_digest(model, prefix_digest(model, context[:-1]), 7) == digest
    window = 4
    h = HiddenState(digest)
    for layer in range(1, window + 1):
        h = forward_layer(model, h, layer, digest)  # sub-process part
    for layer in range(window + 1, model.depth + 1):
        h = forward_layer(model, h, layer, digest)  # main continues after handoff
    full = HiddenState(digest)
    for layer in range(1, model.depth + 1):
        full = forward_layer(model, full, layer, digest)
    assert h == full


def test_bias_dials_match_rate_up() -> None:
    base = MockModel(vocab_size=64, depth=12, seed=7, bias=0.0)
    biased = MockModel(vocab_size=64, depth=12, seed=7, bias=1.0)
    res_base = decode_ppd(base, (1,), 32, d_bar=6, k=1)
    res_biased = decode_ppd(biased, (1,), 32, d_bar=6, k=1)
    assert all(res_biased.match_trace.bits)
    assert sum(res_base.match_trace.bits) < len(res_base.match_trace.bits)
    # bias must not change the decoded tokens
    assert res_biased.tokens == decode_sequential(biased, (1,), 32).tokens


def test_emit_trace_mirrors_match_trace() -> None:
    model = MockModel(vocab_size=16, depth=12, seed=202, bias=0.5)
    res = decode_ppd(model, (4,), 20, d_bar=8, k=3)
    table = emit_trace(res, example_id="case", layer=8)
    n = len(res.tokens) - 1
    assert len(table) == n and table.example_ids == ("case",)
    assert table.topk_len.tolist() == [3] * n  # every row is full, so no padding below
    member_bits = (table.topk == table.final[:, None]).any(axis=1)
    assert tuple(member_bits.tolist()) == res.match_trace.bits
    assert table.position.tolist() == list(range(1, len(res.tokens)))
    assert table.layer.tolist() == [8] * n and not table.layer_absent.any()


def test_emit_trace_requires_pipelined_result() -> None:
    model = MockModel(vocab_size=16, depth=8, seed=1)
    with pytest.raises(DomainError):
        emit_trace(decode_sequential(model, (1,), 4))


def test_emit_trace_full_vocab_rate_is_one() -> None:
    model = MockModel(vocab_size=8, depth=10, seed=3)
    res = decode_ppd(model, (2,), 10, d_bar=6, k=8)
    records = emit_trace(res)
    assert match_rate(records, 8).p_hat == 1.0


def test_independent_scorers_match_near_k_over_vocab() -> None:
    total = hits = 0
    for s in range(40):
        model = MockModel(vocab_size=16, depth=12, seed=1000 + s)
        res = decode_ppd(model, (s % 16,), 300, d_bar=6, k=1)
        total += len(res.match_trace.bits)
        hits += sum(res.match_trace.bits)
    sigma = math.sqrt((1 / 16) * (15 / 16) / total)
    assert abs(hits / total - 1 / 16) <= 3 * sigma


def test_golden_rollout_is_reproduced() -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    model = MockModel(
        vocab_size=golden["V"], depth=golden["d"], seed=golden["seed"], bias=golden["bias"]
    )
    prompt = tuple(golden["prompt"])
    seq = decode_sequential(model, prompt, len(golden["tokens"]))
    ppd = decode_ppd(model, prompt, len(golden["tokens"]), golden["d_bar"], golden["k"])
    assert list(seq.tokens) == golden["tokens"]
    assert list(ppd.tokens) == golden["tokens"]
    assert list(ppd.match_trace.bits) == golden["match_trace"]
    assert ppd.main_layer_count == golden["main_layer_count"]
    assert ppd.spec_layer_count == golden["spec_layer_count"]


def test_random_instance_is_deterministic() -> None:
    assert random_instance(5, 1) == random_instance(5, 1)
    assert random_instance(5, 1) != random_instance(6, 1)


def test_random_instance_draws_are_pinned() -> None:
    # verify prints only its PASS line, so this pins the instances it checks: the first 200
    # of two seeds
    pins = {0: "5d328d59224abcca14ee42c9e9eb3289a9d5b4a329dba518db33c1565c380f2d",
            3: "62ce82a062f789c225af068c3162cd5ddaea75654e8bd5e5490e351ba3cebc3e"}
    for seed, digest in pins.items():
        drawn = "".join(repr(random_instance(i, seed)) + "\n" for i in range(200))
        assert hashlib.sha256(drawn.encode()).hexdigest() == digest


# ------------------------------------------------- exactness properties

def reference_scores(model: MockModel, h: HiddenState) -> np.ndarray:
    """Both classifiers' scores, one scalar mix64 per id."""
    base = mix64((model.seed & _MASK64) ^ _SCORE_TAG)
    return np.array([mix64((h.value ^ base) ^ i) for i in range(model.vocab_size)], np.uint64)


def reference_topk(model: MockModel, h: HiddenState, k: int) -> list[int]:
    return [int(i) for i in np.argsort(~reference_scores(model, h), kind="stable")[:k]]


def reference_bias_hit(model: MockModel, position: int) -> bool:
    """Does the early ranking copy the final one at this position?  One scalar mix64."""
    draw = mix64(mix64((model.seed & _MASK64) ^ _BIAS_TAG) ^ position)
    return model.bias > 0.0 and draw < int(model.bias * 2.0**64)


def reference_ppd(model: MockModel, prompt, ell: int, d_bar: int, k: int) -> DecodeResult:
    """decode_ppd restated from the public ops, recomputing everything per token.

    Each position's digest is prefix_digest of its whole context, every
    layer is one forward_layer, candidates come from a stable argsort and
    the final token from the argmax of reference_scores.
    """
    d, window = model.depth, model.depth - d_bar

    def run(h: HiddenState, digest: int, lo: int, hi: int) -> HiddenState:
        for layer in range(lo, hi + 1):
            h = forward_layer(model, h, layer, digest)
        return h

    context, tokens, bits, lists = list(prompt), [], [], []
    main = spec = 0
    handoff = None
    for _ in range(ell):
        digest = prefix_digest(model, context)
        if handoff is None:
            h_dbar, main = run(HiddenState(digest), digest, 1, d_bar), main + d
        else:
            h_dbar, main = run(handoff, digest, window + 1, d_bar), main + d_bar
        h_d = run(h_dbar, digest, d_bar + 1, d)
        early = h_d if reference_bias_hit(model, len(context) + 1) else h_dbar
        cands = reference_topk(model, early, k)
        subs = {}
        for c in cands:
            sub_digest = prefix_digest(model, context + [c])
            subs[c] = run(HiddenState(sub_digest), sub_digest, 1, window)
        spec += k * window
        final = int(reference_scores(model, h_d).argmax())
        tokens.append(final)
        context.append(final)
        bits.append(final in cands)
        lists.append(tuple(cands))
        handoff = subs.get(final)
        if model.eos_enabled and final == EOS_TOKEN:
            break
    return DecodeResult(tuple(tokens), MatchSequence(tuple(bits[:-1])), main, spec, tuple(lists))


@st.composite
def ppd_cases(draw):
    vocab = draw(st.integers(2, 40))
    depth = draw(st.integers(1, 12))
    model = MockModel(
        vocab_size=vocab,
        depth=depth,
        seed=draw(st.integers(0, _MASK64)),
        eos_enabled=draw(st.booleans()),
        bias=draw(st.sampled_from((0.0, 0.5, 1 - 2.0**-53, 1.0))),
    )
    prompt = tuple(draw(st.lists(st.integers(0, vocab - 1), max_size=4)))
    d_bar = draw(st.integers((depth + 1) // 2, depth))
    return model, prompt, draw(st.integers(1, 24)), d_bar, draw(st.integers(1, vocab))


# (model, prompt, ell, d_bar, k) at the edges of the valid domain
EDGE_CASES = {
    "d_bar_is_d": (MockModel(16, 10, 3), (1,), 12, 10, 3),
    "d_bar_is_half_d": (MockModel(16, 9, 4, bias=0.5), (2,), 12, 5, 2),
    "depth_one": (MockModel(5, 1, 8), (0, 4), 9, 1, 2),
    "k_is_vocab": (MockModel(8, 6, 5), (1,), 10, 3, 8),
    "vocab_two": (MockModel(2, 6, 6, bias=0.5), (1,), 16, 4, 1),
    "ell_one": (MockModel(16, 8, 7), (3,), 1, 5, 2),
    "eos_first_token": (MockModel(2, 4, 0, eos_enabled=True), (1,), 8, 2, 1),
    "empty_prompt": (MockModel(16, 8, 9, bias=1.0), (), 10, 6, 3),
    # the long-decode benchmark's shape: bias hits score one row, the other
    # positions score h_d and h_dbar in one two-row pass; both occur here
    "long_decode_shape": (MockModel(1024, 40, 20261018, bias=0.7), (5, 9, 1, 7), 48, 24, 3),
    # eight speculation lanes over a 20-layer window
    "many_lanes_long_window": (MockModel(64, 40, 20261019, bias=0.5), (3, 60), 24, 20, 8),
}


def with_edge_cases(test):
    for case in EDGE_CASES.values():
        test = example(case=case)(test)
    return test


def test_eos_edge_case_stops_at_the_first_token() -> None:
    model, prompt, ell, d_bar, k = EDGE_CASES["eos_first_token"]
    assert decode_sequential(model, prompt, ell).tokens == (EOS_TOKEN,)
    assert decode_ppd(model, prompt, ell, d_bar, k).tokens == (EOS_TOKEN,)


@with_edge_cases
@given(case=ppd_cases())
def test_pipelined_tokens_equal_greedy_tokens(case) -> None:
    model, prompt, ell, d_bar, k = case
    assert decode_ppd(model, prompt, ell, d_bar, k).tokens == (
        decode_sequential(model, prompt, ell).tokens
    )


@settings(max_examples=60)
@with_edge_cases
@given(case=ppd_cases())
def test_decoders_equal_slow_reference(case) -> None:
    model, prompt, ell, d_bar, k = case
    ref = reference_ppd(model, prompt, ell, d_bar, k)
    assert decode_ppd(model, prompt, ell, d_bar, k) == ref
    seq = decode_sequential(model, prompt, ell)
    assert seq.tokens == ref.tokens
    assert seq.main_layer_count == model.depth * len(ref.tokens)
    assert seq.spec_layer_count == 0


@settings(max_examples=30)
@example(vocab=2, seed=0, hidden=0)
@example(vocab=1024, seed=11, hidden=0x9E3779B97F4A7C15)
@given(
    vocab=st.integers(2, 1100),
    seed=st.integers(0, _MASK64),
    hidden=st.integers(0, _MASK64),
)
def test_early_topk_equals_stable_argsort(vocab: int, seed: int, hidden: int) -> None:
    model = MockModel(vocab_size=vocab, depth=4, seed=seed)
    h = HiddenState(hidden)
    order = np.argsort(~reference_scores(model, h), kind="stable")
    for k in range(1, vocab + 1):
        assert early_topk(model, h, k) == order[:k].tolist()


def unmix64(y: int) -> int:
    """The inverse of mix64: undo each xor-shift, multiply by the odd multipliers' inverses
    mod 2**64, and subtract GOLDEN."""

    def unshift(x: int, s: int) -> int:
        z = x
        for _ in range(64 // s):  # each round fixes s more of z's top bits
            z = x ^ (z >> s)
        return z

    z = unshift(y, 31)
    z = unshift((z * pow(0x94D049BB133111EB, -1, 2**64)) & _MASK64, 27)
    z = unshift((z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & _MASK64, 30)
    return (z - GOLDEN) & _MASK64


@example(word=0)
@example(word=_MASK64)
@given(word=st.integers(0, _MASK64))
def test_unmix64_inverts_mix64(word: int) -> None:
    assert unmix64(mix64(word)) == word and mix64(unmix64(word)) == word


def planted_zero_score(vocab: int, zero_id: int):
    """A depth-1 model and a one-token prompt whose first hidden state scores ``zero_id`` at 0.

    The score of id i is mix64((h ^ base) ^ i), so h = unmix64(0) ^ base ^ zero_id.  At
    depth 1, h = mix64(2 * digest + key) with key = unmix64 of layer 1's output on 0,
    which fixes the prompt digest when unmix64(h) - key is even (about every second seed);
    unmix64 then gives the prompt token that folds to that digest: a 64-bit word outside
    the vocabulary, which the decoders fold like any id.
    """
    for seed in range(64):
        model = MockModel(vocab, 1, seed)
        base = mix64(seed ^ _SCORE_TAG)
        h = unmix64(0) ^ base ^ zero_id
        key = unmix64(forward_layer(model, HiddenState(0), 1, 0).value)
        twice = (unmix64(h) - key) & _MASK64
        if twice % 2:
            continue
        digest = twice // 2
        token = unmix64(digest) ^ mix64(seed ^ _PREFIX_TAG)
        assert prefix_digest(model, (token,)) == digest
        assert forward_layer(model, HiddenState(digest), 1, digest).value == h
        return model, (token,), HiddenState(h)
    raise AssertionError("no seed below 64 plants the state")


@pytest.mark.parametrize("zero_id", ["last", "first"])
def test_zero_score_is_ranked_last_at_k_equal_vocab(zero_id) -> None:
    # an id that scores exactly 0 ties with the winners the argmax top-k has zeroed
    vocab = 16
    model, prompt, h = planted_zero_score(vocab, vocab - 1 if zero_id == "last" else 0)
    scores = reference_scores(model, h)
    assert sorted(scores.tolist())[0] == 0
    order = np.argsort(~scores, kind="stable").tolist()
    assert order[-1] == (vocab - 1 if zero_id == "last" else 0)
    assert early_topk(model, h, vocab) == order
    ppd = decode_ppd(model, prompt, 6, 1, vocab)
    assert ppd.early_candidates[0] == tuple(order)
    assert ppd == reference_ppd(model, prompt, 6, 1, vocab)


def test_scorer_rows_are_rescored_on_every_call() -> None:
    # one scorer reuses its buffer: rows of two, then one, then the first value again
    model = MockModel(vocab_size=300, depth=4, seed=17)
    score = _scorer(model)
    a, b, c = (HiddenState(mix64(i)) for i in range(3))
    for values in ((a, b), (c,), (a,)):
        rows = score(*(h.value for h in values))
        assert rows.shape == (len(values), 300)
        for row, h in zip(rows, values):
            assert np.array_equal(row, reference_scores(model, h))


@pytest.mark.parametrize("bias", [0.0, 0.5, 1 - 2.0**-53, 1.0])
def test_bias_bits_equal_the_scalar_rule(bias) -> None:
    model = MockModel(vocab_size=16, depth=4, seed=2024, bias=bias)
    for first, n in ((1, 1), (1, 300), (7, 40), (2**40, 5)):
        bits = _bias_bits(model, first, n)
        assert bits == [reference_bias_hit(model, p) for p in range(first, first + n)]
