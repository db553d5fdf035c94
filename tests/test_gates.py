"""The gates ``check_int`` and ``check_p``, at every entry point, and the bool gate of
``MatchSequence``.

Each gated argument rejects a bool, a float, a string and the integer one below its bound
with a ``DomainError`` that names it; none of them is coerced.  An argument that ``check_int``
checks for type only rejects the first three.
"""

from __future__ import annotations

import numbers

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipedec.cli import main
from pipedec.core import (
    DecodingConfig,
    DomainError,
    LatencyComputeReport,
    MatchSequence,
    check_int,
    check_p,
)
from pipedec.mockmodel import MockModel, decode_sequential
from pipedec.rng import Stream
from pipedec.stochastic import monte_carlo, sample_match_sequence
from pipedec.trace import match_rate, match_rate_by_bucket, planted_trace

_TABLE = planted_trace(0.5, 12, 2, seed=0)

GATES = {
    # entry point: (argument name, its least value, call with the value in the argument's place)
    "DecodingConfig.d": ("d", 1, lambda v: DecodingConfig(v, 1, 3, 128)),
    "DecodingConfig.d_bar": ("d_bar", 1, lambda v: DecodingConfig(2, v, 3, 128)),
    "DecodingConfig.k": ("k", 0, lambda v: DecodingConfig(40, 20, v, 128)),
    "DecodingConfig.ell": ("ell", 1, lambda v: DecodingConfig(40, 20, 3, v)),
    "from_totals": ("ell", 1, lambda v: LatencyComputeReport.from_totals(10.0, 20.0, v)),
    "MockModel.vocab_size": ("vocab_size", 2, lambda v: MockModel(v, 4, 0)),
    "MockModel.depth": ("depth", 1, lambda v: MockModel(8, v, 0)),
    "decode_sequential": ("ell", 1, lambda v: decode_sequential(MockModel(8, 4, 0), [1], v)),
    "sample_match_sequence": ("ell", 1,
                              lambda v: sample_match_sequence(Stream.from_seed(0), 0.5, v)),
    "monte_carlo": ("trials", 1, lambda v: monte_carlo(DecodingConfig(40, 20, 3, 8, 0.5), v, 0)),
    "match_rate": ("k", 1, lambda v: match_rate(_TABLE, v)),
    "match_rate_by_bucket": ("bucket_width", 1, lambda v: match_rate_by_bucket(_TABLE, 2, v)),
    "planted_trace": ("positions_per_example", 1,
                      lambda v: planted_trace(0.5, 12, 2, 0, positions_per_example=v)),
    "planted_trace.n_positions": ("n_positions", 0, lambda v: planted_trace(0.5, v, 2, 0)),
    # type only: k and vocab have planted_trace's own range message, seed and layer no bound
    "planted_trace.k": ("k", None, lambda v: planted_trace(0.5, 12, v, 0)),
    "planted_trace.vocab": ("vocab", None, lambda v: planted_trace(0.5, 12, 1, 0, vocab=v)),
    "planted_trace.seed": ("seed", None, lambda v: planted_trace(0.5, 12, 2, v)),
    "planted_trace.layer": ("layer", None, lambda v: planted_trace(0.5, 12, 2, 0, layer=v)),
}
CASES = [
    pytest.param(name, least, call, bad, id=f"{entry}-{bad!r}")
    for entry, (name, least, call) in GATES.items()
    for bad in (True, 2.5, "3") + (() if least is None else (least - 1,))
]


@pytest.mark.parametrize("name, least, call, bad", CASES)
def test_gated_argument_rejects_a_mistyped_or_small_value(name, least, call, bad) -> None:
    with pytest.raises(DomainError) as caught:
        call(bad)
    expected = (f"{name} must be >= {least}, got {bad}" if type(bad) is int
                else f"{name} must be an integer, got {bad!r}")
    assert str(caught.value) == expected


@pytest.mark.parametrize("name, least, call", GATES.values(), ids=GATES)
def test_gated_argument_accepts_its_least_value(name, least, call) -> None:
    least = 2 if least is None else least  # every type-only argument admits 2
    for value in (least, np.int64(least)):
        call(value)


def test_sweep_p_steps_error_names_the_value(capsys) -> None:
    assert main(["sweep", "--d", "40", "--dbar", "20", "--k-list", "1",
                 "--p-from", "0.25", "--p-to", "0.75", "--p-steps", "0"]) == 2
    assert capsys.readouterr().err == "error: --p-steps must be >= 1, got 0\n"


@pytest.mark.parametrize("bits, message", [
    ("FFF", "bits[0] must be a bool, got 'F'"),
    ((1, 0), "bits[0] must be a bool, got 1"),
    ((None,), "bits[0] must be a bool, got None"),
    ((True, 2, None), "bits[1] must be a bool, got 2"),
    ([True, 1], "bits[1] must be a bool, got 1"),
    ([True, [True]], "bits[1] must be a bool, got [True]"),
    (np.array([[True, False]]), "bits[0] must be a bool, got array([ True, False])"),
    (np.array([True, 0.5], dtype=object), "bits[1] must be a bool, got 0.5"),
    (5, "bits must be a sequence of bools, got 5"),  # not iterable
    (None, "bits must be a sequence of bools, got None"),
    (np.array(True), "bits must be a sequence of bools, got array(True)"),  # 0-d
])
def test_match_sequence_rejects_non_bool_bits(bits, message) -> None:
    with pytest.raises(DomainError) as caught:
        MatchSequence(bits)
    assert str(caught.value) == message


@pytest.mark.parametrize("p, message", [
    (True, "p_correct must be a number, got True"),
    ("0.5", "p_correct must be a number, got '0.5'"),
    (None, "p_correct must be a number, got None"),
    (float("nan"), "p_correct must lie in [0, 1], got nan"),
    (np.float64("nan"), "p_correct must lie in [0, 1], got nan"),
    (1.5, "p_correct must lie in [0, 1], got 1.5"),
    (-1, "p_correct must lie in [0, 1], got -1"),
])
def test_check_p_rejects_a_non_number_or_one_outside_the_unit_interval(p, message) -> None:
    with pytest.raises(DomainError) as caught:
        check_p(p)
    assert str(caught.value) == message


@pytest.mark.parametrize("p", [0.25, np.float64(0.25), 0, 1, np.int64(1), np.float32(0.5)])
def test_check_p_returns_a_float(p) -> None:
    value = check_p(p)
    assert type(value) is float and value == float(p)


def test_match_sequence_accepts_numpy_bools() -> None:
    seq = MatchSequence(np.array([True, False, True]))
    assert seq.bits.dtype == np.bool_ and seq.bits.tolist() == [True, False, True]
    assert seq.n_runs == 2 and type(seq.n_runs) is int


ALPHABET = [True, False, np.True_, np.False_, 0, 1, 0.0, None, "T"]
FORMS = {"tuple": tuple, "list": list, "generator": iter, "array": np.array,
         "object array": lambda values: np.array(values, dtype=object)}


@given(values=st.lists(st.sampled_from(ALPHABET), max_size=8), form=st.sampled_from(list(FORMS)))
def test_match_sequence_holds_exactly_the_bool_inputs(values, form) -> None:
    source = FORMS[form](values)
    items = list(source) if isinstance(source, np.ndarray) else values  # numpy may convert them
    offender = next(((at, v) for at, v in enumerate(items)
                     if not isinstance(v, (bool, np.bool_))), None)
    if offender is not None:
        with pytest.raises(DomainError) as caught:
            MatchSequence(source)
        assert str(caught.value) == f"bits[{offender[0]}] must be a bool, got {offender[1]!r}"
        return
    seq = MatchSequence(source)
    bools = [bool(v) for v in values]
    assert seq.bits.dtype == np.bool_ and seq.bits.ndim == 1 and seq.bits.tolist() == bools
    assert seq == MatchSequence(bools) and type(seq.n_runs) is int
    assert seq.n_runs == 1 + bools.count(False)
    assert not seq.bits.flags.writeable
    with pytest.raises(ValueError):
        seq.bits[:1] = True
    if isinstance(source, np.ndarray):
        assert not np.shares_memory(seq.bits, source)
        source[:] = [not v for v in bools]
        assert seq.bits.tolist() == bools
    assert MatchSequence.from_string("".join("T" if b else "F" for b in bools)) == seq


@given(
    value=st.integers() | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans()
    | st.floats() | st.text(max_size=3) | st.none(),
    least=st.none() | st.integers(-3, 3),
)
def test_check_int_returns_exactly_the_integers_at_or_above_least(value, least) -> None:
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral and (least is None or value >= least):
        result = check_int("x", value, least)
        assert type(result) is int and result == int(value)
        return
    with pytest.raises(DomainError) as caught:
        check_int("x", value, least)
    assert str(caught.value) == (f"x must be >= {least}, got {value}" if integral
                                 else f"x must be an integer, got {value!r}")
