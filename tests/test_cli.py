from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import pipedec
from pipedec import mockmodel
from pipedec.cli import VERIFY_CHUNK, main
from pipedec.core import DomainError
from pipedec.trace import planted_trace, save_traces

ANALYZE = ["analyze", "--d", "40", "--dbar", "20", "--k", "3", "--l", "128", "--p", "0.6837"]


def test_analyze_reports_normalized_latency(capsys) -> None:
    assert main(ANALYZE) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["latency_per_token_norm"] == pytest.approx(0.65815, abs=1e-12)
    assert payload["compute_per_time_unit"] == pytest.approx(3.2791, abs=1e-4)
    assert payload["expected_latency"] == pytest.approx(40 * 128 - 20 * 127 * 0.6837)


def test_analyze_reports_tradeoff_at_every_layer(capsys) -> None:
    assert main(["analyze", "--d", "40", "--dbar", "30", "--k", "3", "--l", "8", "--p", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # the long-sequence values at r = 40 / (40 - 30) = 4
    assert payload["latency_per_token_norm"] == 0.875
    assert payload["compute_per_time_unit"] == 6.5 / 3.5
    assert payload["compute_per_token"] == 1.625
    assert payload["expected_latency"] == 40 * 8 - 10 * 7 * 0.5


# sha256 of the half-depth outputs, taken from the closed forms d*(1-p/2), (k+2-p)/(2-p) and
# (2+k-p)/2 these outputs were defined by
SWEEP = ["sweep", "--d", "40", "--dbar", "20", "--l", "128", "--k-list", "1,3,5",
         "--p-from", "0.05", "--p-to", "0.95", "--p-steps", "19"]
PINNED = [
    (ANALYZE, None, "2749325bfe9d483da8146cff2146b807c6df38264911b7bfa62f65b9e88c91f8"),
    (ANALYZE + ["--format", "csv"], None,
     "9812ce43de6fd79d5d98158517f4ad32220c98368b514c071a7cd5cfb7f27397"),
    (SWEEP, None, "b841f49d8fe3c43e61d291c92bab0b0c354627a99e30ae03aec473106f01ed0d"),
    (SWEEP, "svg", "9bb1149970ef053703250c4f94ea262ca6a06b9a13deeac7b8fd49f43497186b"),
]


@pytest.mark.parametrize("argv, artifact, digest", PINNED,
                         ids=["analyze_json", "analyze_csv", "sweep_csv", "sweep_svg"])
def test_halfdepth_outputs_are_pinned(argv, artifact, digest, tmp_path, capsys) -> None:
    svg = tmp_path / "curve.svg"
    assert main(argv + ["--svg", str(svg)] if artifact else argv) == 0
    out = svg.read_text(encoding="utf-8") if artifact else capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_sweep_off_half_depth_is_the_long_sequence_limit(capsys) -> None:
    assert main(["sweep", "--d", "40", "--dbar", "30", "--l", "128",
                 "--k-list", "3", "--p-list", "0.5"]) == 0
    assert capsys.readouterr().out.split("\n")[1] == "3,0.5,0.875,1.8571428571428572,1.625"


def test_sweep_without_l_prints_the_pinned_bytes(capsys) -> None:
    # the limits do not depend on ell, so --l may be left out (a given --l is still range-checked)
    assert main([arg for arg in SWEEP if arg not in ("--l", "128")]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED[2][2]


def test_analyze_rejects_bad_probability(capsys) -> None:
    assert main(["analyze", "--d", "40", "--dbar", "20", "--k", "3", "--l", "8", "--p", "1.2"]) == 2
    assert "p_correct" in capsys.readouterr().err


def test_analyze_rejects_shallow_layer(capsys) -> None:
    assert main(["analyze", "--d", "40", "--dbar", "10", "--k", "3", "--l", "8", "--p", "0.5"]) == 2
    assert "d_bar" in capsys.readouterr().err


def test_analyze_csv_format(capsys) -> None:
    assert main(ANALYZE + ["--format", "csv"]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().split("\n")
    assert header.split(",")[:5] == ["d", "d_bar", "k", "ell", "p_correct"]
    assert row.split(",")[0] == "40"


def test_analyze_config_file_with_override(tmp_path, capsys) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 40, "dbar": 20, "k": 3, "l": 128, "p": 0.5}))
    assert main(["analyze", "--config", str(cfg), "--p", "0.6837"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_correct"] == 0.6837


def test_analyze_missing_flags(capsys) -> None:
    assert main(["analyze", "--d", "40"]) == 2
    assert "--dbar" in capsys.readouterr().err


def test_sweep_csv_and_svg(tmp_path, capsys) -> None:
    out_csv = tmp_path / "curve.csv"
    out_svg = tmp_path / "curve.svg"
    code = main(
        [
            "sweep", "--d", "40", "--dbar", "20", "--l", "128",
            "--k-list", "1,5", "--p-list", "0.2163,0.7415",
            "--out", str(out_csv), "--svg", str(out_svg),
        ]
    )
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0].startswith("k,p_correct,")
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(0.89185, abs=1e-9)
    root = ET.fromstring(out_svg.read_text())
    assert root.tag.endswith("svg")


def test_sweep_stdout_and_grid_flags(capsys) -> None:
    assert main(
        ["sweep", "--d", "40", "--dbar", "20", "--l", "16", "--k-list", "1",
         "--p-from", "0.0", "--p-to", "1.0", "--p-steps", "5"]
    ) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 6
    assert [ln.split(",")[1] for ln in lines[1:]] == ["0.0", "0.25", "0.5", "0.75", "1.0"]


def _assert_usage_error(argv: list[str], flag: str, capsys) -> None:
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: needs at least one" in captured.err


def test_sweep_empty_list_flags_are_usage_errors(capsys) -> None:
    # an empty grid is a usage error, not a header-only CSV
    base = ["sweep", "--d", "40", "--dbar", "20", "--l", "16"]
    for text in ("", ",", " , "):
        _assert_usage_error(base + ["--k-list", "1,3", "--p-list", text], "--p-list", capsys)
        _assert_usage_error(base + ["--k-list", text, "--p-list", "0.5"], "--k-list", capsys)
        _assert_usage_error(base + ["--k-list", text, "--p-from", "0", "--p-to", "1"],
                            "--k-list", capsys)


def test_sweep_p_steps_edges(capsys) -> None:
    base = ["sweep", "--d", "40", "--dbar", "20", "--k-list", "1",
            "--p-from", "0.25", "--p-to", "0.75"]
    assert main(base + ["--p-steps", "0"]) == 2
    assert "--p-steps must be >= 1" in _single_error_line(capsys)
    assert main(base + ["--p-steps", "1"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [row.split(",")[1] for row in rows] == ["0.25"]


def test_sweep_p_list_excludes_the_grid_flags(capsys) -> None:
    base = ["sweep", "--d", "40", "--dbar", "20", "--k-list", "1", "--p-list", "0.5"]
    for extra in (["--p-from", "0.1", "--p-to", "0.9", "--p-steps", "3"], ["--p-to", "0.9"],
                  ["--p-steps", "9"]):
        assert main(base + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --p-list and {extra[0]} exclude each other")
    # without --p-steps the grid has its default 9 points
    grid = ["sweep", "--d", "40", "--dbar", "20", "--k-list", "1",
            "--p-from", "0.1", "--p-to", "0.9"]
    assert main(grid) == 0
    default = capsys.readouterr().out
    assert main(grid + ["--p-steps", "9"]) == 0
    assert capsys.readouterr().out == default
    assert len(default.strip().split("\n")) == 1 + 9


def test_sweep_invalid_grid(capsys) -> None:
    assert main(["sweep", "--d", "40", "--dbar", "20", "--l", "16",
                 "--k-list", "1", "--p-list", "0.5,1.5"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--d", "40", "--dbar", "20", "--l", "16", "--k-list", "1"]) == 2


def test_simulate_is_byte_identical(capsys) -> None:
    argv = ["simulate", "--d", "40", "--dbar", "20", "--k", "3", "--l", "64",
            "--p", "0.5", "--trials", "2000", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["trials"] == 2000
    assert abs(payload["mean_latency"] - 1930.0) <= 4 * payload["stderr_latency"]


def test_simulate_degenerate_probability(capsys) -> None:
    assert main(["simulate", "--d", "40", "--dbar", "20", "--k", "3", "--l", "16",
                 "--p", "1", "--trials", "50", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stderr_latency"] == 0.0
    assert payload["mean_latency"] == 40 + 15 * 20


def test_schedule_fixture_makespan(capsys) -> None:
    assert main(["schedule", "--d", "40", "--dbar", "30", "--k", "3", "--l", "3",
                 "--matches", "TT"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["makespan"] == 100
    assert payload["occupancy_total"] == 190
    assert payload["ok"] is True


def test_schedule_single_token(capsys) -> None:
    assert main(["schedule", "--d", "40", "--dbar", "30", "--k", "3", "--l", "1",
                 "--matches", ""]) == 0
    assert json.loads(capsys.readouterr().out)["makespan"] == 40


def test_schedule_sampled_matches_verify(capsys) -> None:
    assert main(["schedule", "--d", "48", "--dbar", "30", "--k", "4", "--l", "64",
                 "--p", "0.7", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["latency_residual"] == 0
    assert payload["compute_residual"] == 0


def test_schedule_match_length_mismatch(capsys) -> None:
    assert main(["schedule", "--d", "40", "--dbar", "30", "--k", "3", "--l", "3",
                 "--matches", "T"]) == 2
    assert "l-1" in capsys.readouterr().err


def test_schedule_matches_excludes_p_and_seed(capsys) -> None:
    base = ["schedule", "--d", "40", "--dbar", "30", "--k", "3", "--l", "3", "--matches", "TT"]
    for extra, flag in ((["--p", "0.1", "--seed", "4"], "--p"), (["--p", "0.1"], "--p"),
                        (["--seed", "4"], "--seed"), (["--seed", "0"], "--seed")):
        assert main(base + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --matches and {flag} exclude each other")
    # without --seed the match bits are sampled with seed 0
    sampled = ["schedule", "--d", "48", "--dbar", "30", "--k", "4", "--l", "64", "--p", "0.7"]
    assert main(sampled) == 0
    default = capsys.readouterr().out
    assert main(sampled + ["--seed", "0"]) == 0
    assert capsys.readouterr().out == default


def test_schedule_needs_matches_or_p(capsys) -> None:
    assert main(["schedule", "--d", "40", "--dbar", "30", "--k", "3", "--l", "3"]) == 2
    assert "give --matches or --p" in _single_error_line(capsys)


def test_schedule_gantt_artifacts(tmp_path, capsys) -> None:
    out = tmp_path / "gantt.txt"
    assert main(["schedule", "--d", "40", "--dbar", "30", "--k", "3", "--l", "3",
                 "--matches", "TT", "--gantt", "text", "--out", str(out)]) == 0
    assert "makespan 100" in out.read_text()
    capsys.readouterr()
    assert main(["schedule", "--d", "40", "--dbar", "30", "--k", "3", "--l", "3",
                 "--matches", "TT", "--gantt", "csv"]) == 0
    stdout = capsys.readouterr().out
    assert "process_id,token_index,layer_start,layer_end,t_start,t_end,discarded" in stdout


def test_matchrate_json_and_csv(tmp_path, capsys) -> None:
    path = tmp_path / "trace.jsonl"
    save_traces(planted_trace(0.6837, 4000, 3, seed=0), path)
    assert main(["matchrate", "--input", str(path), "--k", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["p_hat"] - 0.6837) < 0.03
    assert main(["matchrate", "--input", str(path), "--k", "3",
                 "--bucket", "4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].endswith(",Total")
    assert lines[1].startswith("p_hat,")


def test_matchrate_errors(tmp_path, capsys) -> None:
    missing = tmp_path / "nope.jsonl"
    assert main(["matchrate", "--input", str(missing), "--k", "3"]) == 2
    capsys.readouterr()
    path = tmp_path / "trace.jsonl"
    save_traces(planted_trace(0.5, 50, 2, seed=1), path)
    assert main(["matchrate", "--input", str(path), "--k", "5"]) == 2
    capsys.readouterr()
    path.write_text('{"example_id": "a", "position": 1, "early_topk": [1]}\n')
    assert main(["matchrate", "--input", str(path), "--k", "1"]) == 2
    assert "line 1" in capsys.readouterr().err


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_matchrate_non_utf8_input_is_usage_error(tmp_path, capsys) -> None:
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b'{"example_id": "\xff", "position": 1, "early_topk": [1], "final": 1}\n')
    assert main(["matchrate", "--input", str(path), "--k", "1"]) == 2
    assert "utf-8" in _single_error_line(capsys)


def test_matchrate_non_utf8_input_names_its_line(tmp_path, capsys) -> None:
    good = b'{"example_id": "a", "position": 1, "early_topk": [1], "final": 1}\n'
    path = tmp_path / "trace.jsonl"
    path.write_bytes(good + good.replace(b'"a"', b'"\xff"') + good)
    assert main(["matchrate", "--input", str(path), "--k", "1"]) == 2
    assert "line 2: not valid UTF-8" in _single_error_line(capsys)


def test_matchrate_directory_input_is_usage_error(tmp_path, capsys) -> None:
    assert main(["matchrate", "--input", str(tmp_path), "--k", "1"]) == 2
    _single_error_line(capsys)


def test_config_malformed_json_is_usage_error(tmp_path, capsys) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"d": 40, "dbar": 20,')
    assert main(["analyze", "--config", str(cfg), "--k", "3", "--l", "8", "--p", "0.5"]) == 2
    assert "invalid JSON" in _single_error_line(capsys)


def test_deep_nesting_is_a_usage_error(tmp_path, capsys) -> None:
    nested = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "trace.jsonl"
    path.write_text('{"example_id": "a", "position": 1, "early_topk": [1], "final": 1, '
                    f'"note": {nested}}}\n')
    assert main(["matchrate", "--input", str(path), "--k", "1"]) == 2
    assert "line 1: invalid JSON (nesting too deep)" in _single_error_line(capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(nested)
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert f"--config {cfg}: invalid JSON (nesting too deep)" in _single_error_line(capsys)


GOOD_CONFIG = {"d": 40, "dbar": 20, "k": 3, "l": 8, "p": 0.5}


def test_config_unknown_keys_are_usage_error(tmp_path, capsys) -> None:
    # simulate's own flags written into the file are not dropped in silence
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**GOOD_CONFIG, "trials": 7, "seed": 3}))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert _single_error_line(capsys) == f"error: --config {cfg}: unknown key(s) seed, trials\n"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"d": "40"}, "d must be an integer, got '40'"),
        ({"d": 40.0}, "d must be an integer, got 40.0"),
        ({"k": True}, "k must be an integer, got True"),
        ({"l": 8.0}, "ell must be an integer, got 8.0"),
        ({"p": "0.5"}, "p_correct must be a number, got '0.5'"),
        ({"p": True}, "p_correct must be a number, got True"),
        (json.dumps({**GOOD_CONFIG, "note": "x"}).encode().replace(b"x", b"\xff"),
         "--config {cfg}: not valid UTF-8"),
        (json.dumps(GOOD_CONFIG).replace("}", ', "p": 0.9}').encode(),
         "--config {cfg}: duplicate key 'p'"),
        (json.dumps(GOOD_CONFIG).replace("40", "9" * 5000).encode(),
         "--config {cfg}: Exceeds the limit (4300 digits) for integer string conversion"),
        # the decoder's reason, with no line and column
        (b'{"d": 40, "dbar": 20,',
         "--config {cfg}: invalid JSON (Expecting property name enclosed in double quotes)\n"),
        (b"[1]", "--config file must hold a JSON object"),
    ],
    ids=["string_d", "float_d", "bool_k", "float_l", "string_p", "bool_p", "non_utf8_file",
         "repeated_key", "int_too_long", "malformed", "not_an_object"],
)
def test_config_wrong_type_is_usage_error(tmp_path, capsys, change, message) -> None:
    cfg = tmp_path / "cfg.json"
    if isinstance(change, bytes):
        cfg.write_bytes(change)
    else:
        cfg.write_text(json.dumps({**GOOD_CONFIG, **change}))
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert message.format(cfg=cfg) in _single_error_line(capsys)
    if isinstance(change, dict):
        # a flag replaces the file's value before it is checked
        for key in change:
            assert main(["analyze", "--config", str(cfg), f"--{key}", str(GOOD_CONFIG[key])]) == 0


def test_verify_small_run_passes(capsys) -> None:
    argv = ["verify", "--instances", "10", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.startswith("PASS: 10 ")
    assert main(argv) == 0
    assert capsys.readouterr().out == first


POOLED = 240  # several chunks, so verify uses its process pool wherever two CPUs are usable


def test_verify_reports_the_lowest_failing_instance(monkeypatch, capsys) -> None:
    seed = 11
    low, high = VERIFY_CHUNK + 25, 3 * VERIFY_CHUNK + 30  # in different chunks
    assert high < POOLED
    planted = {mockmodel.random_instance(i, seed): i for i in (low, high)}

    def counterexample(inst):
        # forked workers inherit this patch; the slow lower defect is found last
        if planted.get(inst) == low:
            time.sleep(0.5)
        return "planted" if inst in planted else None

    monkeypatch.setattr(mockmodel, "exactness_counterexample", counterexample)
    assert main(["verify", "--instances", str(POOLED), "--seed", str(seed)]) == 1
    assert capsys.readouterr().out == f"FAIL at instance {low} (seed {seed}): planted\n"
    assert multiprocessing.active_children() == []


def _serial_verify(instances: int, seed: int) -> str:
    """The verify loop as it ran before the pool: one instance after another."""
    for index in range(instances):
        defect = mockmodel.exactness_counterexample(mockmodel.random_instance(index, seed))
        if defect is not None:
            return f"FAIL at instance {index} (seed {seed}): {defect}\n"
    return (f"PASS: {instances} pipelined-vs-sequential instances decoded identically "
            f"(seed {seed})\n")


@pytest.mark.parametrize("seed", [2, 29])
def test_verify_over_many_chunks_equals_the_serial_loop(seed: int, capsys) -> None:
    assert main(["verify", "--instances", str(POOLED), "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == _serial_verify(POOLED, seed)
    assert multiprocessing.active_children() == []


def test_verify_domain_error_from_a_worker_is_a_usage_error(monkeypatch, capsys) -> None:
    faulty = mockmodel.random_instance(3 * VERIFY_CHUNK + 7, 0)  # not in the first chunk

    def counterexample(inst):
        # forked workers inherit this patch
        if inst == faulty:
            raise DomainError("planted fault")
        return None

    monkeypatch.setattr(mockmodel, "exactness_counterexample", counterexample)
    assert main(["verify", "--instances", str(POOLED)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: planted fault\n")
    assert multiprocessing.active_children() == []


def test_verify_stops_the_workers_at_a_defect_in_the_first_span(
        monkeypatch, pin_cpus, capsys) -> None:
    pin_cpus({0, 1})
    seed = 4
    planted = mockmodel.random_instance(5, seed)
    slow = mockmodel.random_instance(VERIFY_CHUNK + 1, seed)  # in the second span

    def counterexample(inst):
        # forked workers inherit this patch; the worker on the second span is still asleep
        # when the first span's defect arrives, and is terminated, not waited for
        if inst == slow:
            time.sleep(5)
        return "planted" if inst == planted else None

    monkeypatch.setattr(mockmodel, "exactness_counterexample", counterexample)
    start = time.perf_counter()
    assert main(["verify", "--instances", str(POOLED), "--seed", str(seed)]) == 1
    assert time.perf_counter() - start < 2.5
    assert capsys.readouterr().out == f"FAIL at instance 5 (seed {seed}): planted\n"
    assert multiprocessing.active_children() == []


def test_verify_feeds_its_spans_lazily(monkeypatch, pin_cpus, capsys) -> None:
    # 100 000 spans; a pool that made all of them before the first result took ~3.4 s here
    pin_cpus({0, 1})
    planted = mockmodel.random_instance(0, 0)
    monkeypatch.setattr(mockmodel, "exactness_counterexample",
                        lambda inst: "planted" if inst == planted else None)
    start = time.perf_counter()
    assert main(["verify", "--instances", "5000000"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "FAIL at instance 0 (seed 0): planted\n"
    assert multiprocessing.active_children() == []


def test_verify_reports_a_defect_before_a_later_domain_error(
        monkeypatch, pin_cpus, capsys) -> None:
    pin_cpus({0, 1})
    seed = 7
    defect = mockmodel.random_instance(VERIFY_CHUNK - 1, seed)
    faulty = mockmodel.random_instance(VERIFY_CHUNK + 2, seed)  # in the next span

    def counterexample(inst):
        # forked workers inherit this patch; the fault is raised before the defect is found
        if inst == faulty:
            raise DomainError("planted fault")
        if inst == defect:
            time.sleep(0.5)
            return "planted"
        return None

    monkeypatch.setattr(mockmodel, "exactness_counterexample", counterexample)
    assert main(["verify", "--instances", str(POOLED), "--seed", str(seed)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (_serial_verify(POOLED, seed), "")
    assert captured.out == f"FAIL at instance {VERIFY_CHUNK - 1} (seed {seed}): planted\n"
    assert multiprocessing.active_children() == []


def test_verify_reports_a_killed_worker_and_exits(monkeypatch, pin_cpus, capsys) -> None:
    # the OOM killer's signal, sent by the worker on span 1 of 4 to itself
    pin_cpus({0, 1})
    victim = mockmodel.random_instance(VERIFY_CHUNK, 0)

    def counterexample(inst):
        if inst == victim:
            os.kill(os.getpid(), signal.SIGKILL)
        return None

    monkeypatch.setattr(mockmodel, "exactness_counterexample", counterexample)
    start = time.perf_counter()
    assert main(["verify", "--instances", str(4 * VERIFY_CHUNK)]) == 1
    assert time.perf_counter() - start < 2.5
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: a worker process ended with exit code -9\n")
    assert multiprocessing.active_children() == []


def _python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(pipedec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def test_cli_import_loads_no_process_machinery() -> None:
    # they cost ~20 ms at import, which every command would pay; orjson is for trace files only
    out = _python("import sys, pipedec.cli, pipedec.stochastic as s; "
                  "from pipedec.core import DecodingConfig; "
                  "s.monte_carlo(DecodingConfig(40, 20, 3, 256, 0.5), 2000, 1); "  # below the floor
                  "print([m for m in ('multiprocessing', 'concurrent.futures', 'orjson') "
                  "if m in sys.modules])").stdout
    assert out == "[]\n"


def test_save_traces_loads_no_numpy_ma(tmp_path) -> None:
    # np.unique imports numpy.ma, ~11 ms of a cold start
    out = _python("import sys; from pipedec.trace import planted_trace, save_traces; "
                  f"save_traces(planted_trace(0.5, 50, 2, seed=1), {str(tmp_path / 't.jsonl')!r}); "
                  "print('numpy.ma' in sys.modules)").stdout
    assert out == "False\n"


@pytest.mark.parametrize("instances, cpus", [(10, None), (POOLED, {0}), (POOLED, "missing")],
                         ids=["one_chunk", "one_cpu", "no_affinity_call"])
def test_verify_without_two_chunks_and_two_cpus_starts_no_process(
        instances, cpus, no_fork, pin_cpus, capsys) -> None:
    if cpus is not None:
        pin_cpus(cpus)
    assert main(["verify", "--instances", str(instances), "--seed", "5"]) == 0
    assert capsys.readouterr().out == _serial_verify(instances, 5)


# 40 000 trials of 255 draws, above stochastic.POOL_DRAWS; the digest is of the serial output
SIMULATE = ["simulate", "--d", "40", "--dbar", "20", "--k", "3", "--l", "256", "--p", "0.5",
            "--trials", "40000", "--seed", "3"]
SIMULATE_SHA256 = "a3b03d2fbd30d79666e967f52385356cb4505820973436ecdb86f18fac6c8bf0"


@pytest.mark.parametrize("cpus, workers", [({0, 1}, 2), ({0, 1, 2}, 3), ({0}, 0),
                                           ("missing", 0)],
                         ids=["two_cpus", "three_cpus", "one_cpu", "no_affinity_call"])
def test_simulate_above_the_floor_prints_the_pinned_bytes(
        cpus, workers, forks, pin_cpus, capsys) -> None:
    pin_cpus(cpus)
    assert main(SIMULATE) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SIMULATE_SHA256
    assert len(forks) == workers
    assert multiprocessing.active_children() == []


def test_pooled_simulate_loads_no_concurrent_futures() -> None:
    out = _python("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                  f"from pipedec.cli import main; main({SIMULATE!r}); "
                  "print([m for m in ('multiprocessing', 'concurrent.futures') "
                  "if m in sys.modules])").stdout
    assert hashlib.sha256(out[:out.rindex("[")].encode()).hexdigest() == SIMULATE_SHA256
    assert out.endswith("\n['multiprocessing']\n")  # the pool ran, without concurrent.futures


def test_verify_zero_instances_is_usage_error(capsys) -> None:
    assert main(["verify", "--instances", "0"]) == 2
    assert capsys.readouterr().err == "error: --instances must be >= 1, got 0\n"


def test_count_flags_are_gated_by_check_int(tmp_path, capsys) -> None:
    # --trials, --k, --bucket and --instances are plain ints; the library's gate names them
    path = tmp_path / "trace.jsonl"
    save_traces(planted_trace(0.5, 50, 2, seed=1), path)
    rate = ["matchrate", "--input", str(path)]
    for argv, message in [
        (["simulate", *ANALYZE[1:], "--trials", "0"], "trials must be >= 1, got 0"),
        ([*rate, "--k", "0"], "k must be >= 1, got 0"),
        ([*rate, "--k", "2", "--bucket", "0"], "bucket_width must be >= 1, got 0"),
        (["verify", "--instances", "-3"], "--instances must be >= 1, got -3"),
    ]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_matchrate_reads_the_trace_before_it_checks_k(tmp_path, capsys) -> None:
    missing = tmp_path / "nope.jsonl"
    assert main(["matchrate", "--input", str(missing), "--k", "0"]) == 2
    assert str(missing) in capsys.readouterr().err
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["matchrate", "--input", str(empty), "--k", "0"]) == 2
    assert capsys.readouterr().err == "error: cannot estimate a match rate from zero records\n"


def test_a_count_flag_that_is_not_a_number_names_int(capsys) -> None:
    with pytest.raises(SystemExit) as err:
        main(["verify", "--instances", "x"])
    assert err.value.code == 2
    assert "argument --instances: invalid int value: 'x'" in capsys.readouterr().err


def test_verify_defaults_to_thousand_instances() -> None:
    from pipedec.cli import build_parser

    args = build_parser().parse_args(["verify"])
    assert args.instances == 1000


_SHALLOW = "exact accounting requires d_bar >= d/2, got d_bar=10, d=40"
_CFG = ["--d", "40", "--dbar", "20", "--k", "3"]
_K0_P = "k = 0 has no early candidate to match, so p_correct must be 0, got "


# argv, the one stderr line that names the fault; the config-rule messages
# are the ones the CLI printed before the rules moved into DecodingConfig
MALFORMED = [
    (["analyze", "--d", "40", "--dbar", "10", "--k", "3", "--l", "8", "--p", "0.5"],
     "error: " + _SHALLOW),
    (["simulate", "--d", "40", "--dbar", "10", "--k", "3", "--l", "8", "--p", "0.5"],
     "error: " + _SHALLOW),
    (["schedule", "--d", "40", "--dbar", "10", "--k", "3", "--l", "3", "--matches", "TT"],
     "error: " + _SHALLOW),
    (["sweep", "--d", "40", "--dbar", "10", "--l", "8", "--k-list", "1", "--p-list", "0.5"],
     "error: " + _SHALLOW),
    (["analyze", "--d", "0", "--dbar", "20", "--k", "3", "--l", "8", "--p", "0.5"],
     "error: d must be >= 1, got 0"),
    (["analyze", "--d", "40", "--dbar", "0", "--k", "3", "--l", "8", "--p", "0.5"],
     "error: d_bar must be >= 1, got 0"),
    (["analyze", "--d", "40", "--dbar", "41", "--k", "3", "--l", "8", "--p", "0.5"],
     "error: d_bar must be <= d, got d_bar=41 > d=40"),
    (["analyze", *_CFG, "--l", "0", "--p", "0.5"], "error: ell must be >= 1, got 0"),
    (["simulate", *_CFG, "--l", "0", "--p", "0.5"], "error: ell must be >= 1, got 0"),
    (["schedule", *_CFG, "--l", "0", "--p", "0.5"], "error: ell must be >= 1, got 0"),
    (["schedule", *_CFG, "--l", "0", "--matches", "TT"], "error: ell must be >= 1, got 0"),
    (["sweep", "--d", "40", "--dbar", "20", "--l", "0", "--k-list", "1", "--p-list", "0.5"],
     "error: ell must be >= 1, got 0"),
    (["analyze", "--d", "40", "--dbar", "20", "--k", "-1", "--l", "8", "--p", "0.5"],
     "error: k must be >= 0, got -1"),
    (["schedule", "--d", "40", "--dbar", "20", "--k", "-1", "--l", "3", "--matches", "TT"],
     "error: k must be >= 0, got -1"),
    (["sweep", "--d", "40", "--dbar", "20", "--l", "8", "--k-list", "-1", "--p-list", "0.5"],
     "error: k must be >= 0, got -1"),
    (["analyze", *_CFG, "--l", "8", "--p", "1.5"], "error: p_correct must lie in [0, 1], got 1.5"),
    (["simulate", *_CFG, "--l", "8", "--p", "1.5"], "error: p_correct must lie in [0, 1], got 1.5"),
    (["schedule", *_CFG, "--l", "8", "--p", "1.5"], "error: p_correct must lie in [0, 1], got 1.5"),
    # a given p is checked even where --matches makes it unused
    (["schedule", *_CFG, "--l", "3", "--matches", "TT", "--p", "1.5"],
     "error: p_correct must lie in [0, 1], got 1.5"),
    (["sweep", "--d", "40", "--dbar", "20", "--l", "8", "--k-list", "1", "--p-list", "1.5"],
     "error: p_correct must lie in [0, 1], got 1.5"),
    (["schedule", *_CFG, "--l", "3", "--matches", "TTX"],
     "error: match string may only contain T/F/1/0, got 'X'"),
    # k = 0 has no early candidate, so a match rate or a T bit there is a free lunch
    (["analyze", "--d", "40", "--dbar", "20", "--k", "0", "--l", "100", "--p", "0.9"],
     "error: " + _K0_P + "0.9"),
    (["simulate", "--d", "40", "--dbar", "20", "--k", "0", "--l", "8", "--p", "0.5"],
     "error: " + _K0_P + "0.5"),
    (["schedule", "--d", "4", "--dbar", "2", "--k", "0", "--l", "4", "--p", "0.5"],
     "error: " + _K0_P + "0.5"),
    (["sweep", "--d", "40", "--dbar", "20", "--l", "8", "--k-list", "1,0", "--p-list", "0,0.5"],
     "error: " + _K0_P + "0.5"),
    (["schedule", "--d", "4", "--dbar", "2", "--k", "0", "--l", "4", "--matches", "TTT"],
     "error: k = 0 has no early candidate to match, so every match bit must be F"),
]


@pytest.mark.parametrize("argv, message", MALFORMED, ids=[" ".join(a) for a, _ in MALFORMED])
def test_malformed_flags_are_one_line_usage_errors(argv: list[str], message: str,
                                                   capsys) -> None:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value before main's handler runs
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert [line for line in captured.err.splitlines() if "error:" in line] == [message]


def test_k_zero_runs_with_no_match(capsys) -> None:
    # k = 0 is plain sequential decoding: p = 0, or match bits that are all F
    assert main(["analyze", "--d", "40", "--dbar", "20", "--k", "0", "--l", "100",
                 "--p", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["per_token_latency"] == 40.0
    assert main(["schedule", "--d", "4", "--dbar", "2", "--k", "0", "--l", "4",
                 "--matches", "FFF"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["ok"], report["makespan"]) == (True, 16)
    assert main(["sweep", "--d", "40", "--dbar", "20", "--l", "8", "--k-list", "0,1",
                 "--p-list", "0"]) == 0
