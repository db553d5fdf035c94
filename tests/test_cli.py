from __future__ import annotations

import json
import xml.etree.ElementTree as ET

import pytest

from pipedec.cli import main
from pipedec.trace import planted_trace, save_traces

ANALYZE = ["analyze", "--d", "40", "--dbar", "20", "--k", "3", "--l", "128", "--p", "0.6837"]


def test_analyze_reports_normalized_latency(capsys) -> None:
    assert main(ANALYZE) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["latency_per_token_norm"] == pytest.approx(0.65815, abs=1e-12)
    assert payload["compute_per_time_unit"] == pytest.approx(3.2791, abs=1e-4)
    assert payload["expected_latency"] == pytest.approx(40 * 128 - 20 * 127 * 0.6837)


def test_analyze_halfdepth_block_only_at_mid_layer(capsys) -> None:
    assert main(["analyze", "--d", "40", "--dbar", "30", "--k", "3", "--l", "8", "--p", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "latency_per_token_norm" not in payload
    assert payload["expected_latency"] == 40 * 8 - 10 * 7 * 0.5


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


def test_config_wrong_type_is_usage_error(tmp_path, capsys) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": "40", "dbar": 20, "k": 3, "l": 8, "p": 0.5}))
    assert main(["analyze", "--config", str(cfg)]) == 2
    assert "'d'" in _single_error_line(capsys)
    # a flag replaces the file's value before it is checked
    assert main(["analyze", "--config", str(cfg), "--d", "40"]) == 0


def test_verify_small_run_passes(capsys) -> None:
    argv = ["verify", "--instances", "10", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.startswith("PASS: 10 ")
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_zero_instances_is_usage_error() -> None:
    with pytest.raises(SystemExit) as err:
        main(["verify", "--instances", "0"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag", ["--vocab-sizes", "--depths", "--k-values"])
def test_verify_empty_list_flag_is_usage_error(flag: str, capsys) -> None:
    # an empty list must not reach random_instance, where random.choice([]) raises
    for text in ("", ","):
        _assert_usage_error(["verify", "--instances", "2", flag, text], flag, capsys)


def test_verify_defaults_to_thousand_instances() -> None:
    from pipedec.cli import build_parser

    args = build_parser().parse_args(["verify"])
    assert args.instances == 1000
    assert args.vocab_sizes == [4, 16, 64]
    assert args.depths == [8, 40]
    assert args.k_values == [1, 3, 5]
    assert args.max_ell == 32


_SHALLOW = "exact accounting requires d_bar >= d/2, got d_bar=10, d=40"
_CFG = ["--d", "40", "--dbar", "20", "--k", "3"]


def _verify_error(flag: str, value: int) -> str:
    return f"pipedec verify: error: argument {flag}: must be >= 1, got {value}"


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
    (["sweep", "--d", "40", "--dbar", "20", "--l", "8", "--k-list", "1", "--p-list", "1.5"],
     "error: p_correct must lie in [0, 1], got 1.5"),
    (["schedule", *_CFG, "--l", "3", "--matches", "TTX"],
     "error: match string may only contain T/F/1/0, got 'X'"),
    (["verify", "--depths=-3", "--instances", "2"], _verify_error("--depths", -3)),
    (["verify", "--vocab-sizes=-4", "--instances", "2"], _verify_error("--vocab-sizes", -4)),
    (["verify", "--k-values=0", "--instances", "2"], _verify_error("--k-values", 0)),
    (["verify", "--k-values=1,0,3", "--instances", "2"], _verify_error("--k-values", 0)),
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
