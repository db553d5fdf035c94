"""The A/B recorder's pure parts: per-metric summary, verdicts and the append-only record file.

Nothing here runs the benchmark.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "bench" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]  # median 1.0, IQR 0.025
WIDE = [0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0]            # IQR/median 0.5
SPLIT = [2.0] * 5 + [10.0] * 5                                      # IQR 8 around median 6

CASES = {
    # name: (base, head, better, verdict, wins)
    "faster_in_every_pair": (BASE, [0.9 * b for b in BASE], "lower", "better", 10),
    "faster_in_8_of_10": (BASE, [0.9 * b for b in BASE[:8]] + BASE[8:], "lower",
                          "within bound", 8),
    "gap_inside_base_iqr": (BASE, [b - 0.01 for b in BASE], "lower", "within bound", 10),
    "slower_beyond_bound": (BASE, [1.3 * b for b in BASE], "lower", "worse", 0),
    "slower_within_bound": (BASE, [1.2 * b for b in BASE], "lower", "within bound", 0),
    "too_wide_to_tell": (WIDE, WIDE[::-1], "lower", "unresolved", 5),
    # wide, but every head value beats every base value: resolved
    "wide_but_disjoint": (SPLIT, [1.9] * 10, "lower", "within bound", 10),
    "higher_is_better_gain": ([100.0 + i for i in range(10)], [130.0 + i for i in range(10)],
                              "higher", "better", 10),
    # a gain needs ab.PAIRS pairs, however clear the fewer pairs look
    "one_faster_pair": ([1.0], [0.5], "lower", "within bound", 1),
    "three_faster_pairs": (BASE[:3], [0.5 * b for b in BASE[:3]], "lower", "within bound", 3),
    "higher_is_better_loss": ([100.0 + i for i in range(10)], [70.0 + i for i in range(10)],
                              "higher", "worse", 0),
}


@pytest.mark.parametrize("base, head, better, verdict, wins", CASES.values(), ids=CASES)
def test_summarize_verdicts(base, head, better, verdict, wins) -> None:
    s = ab.summarize(base, head, better, 0.25)
    assert (s["verdict"], s["wins"], s["pairs"]) == (verdict, wins, len(base))
    assert s["base"] == base and s["head"] == head
    assert s["base_quartiles"][1] == pytest.approx(sorted(base)[(len(base) - 1) // 2] / 2
                                                   + sorted(base)[len(base) // 2] / 2)


def test_summarize_quartiles_and_change() -> None:
    s = ab.summarize(BASE, [0.9 * b for b in BASE], "lower", 0.25)
    assert s["base_quartiles"] == pytest.approx([0.9875, 1.0, 1.0125])
    assert s["head_quartiles"] == pytest.approx([0.88875, 0.9, 0.91125])
    assert s["change"] == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        ab.summarize(BASE, BASE[:9], "lower", 0.25)


def test_workload_verdict() -> None:
    ops = {"attempted": 100, "failed": 0}
    fine = {"wall_s": ab.summarize(BASE, [0.9 * b for b in BASE], "lower", 0.25),
            "setup_s": ab.summarize(BASE, BASE, "lower", 0.25)}
    assert ab.workload_verdict(fine, ops, ops) == {"verdict": "pass", "reasons": [],
                                                   "gains": ["wall_s"]}
    failing = ab.workload_verdict(fine, ops, {"attempted": 100, "failed": 1})
    assert failing["verdict"] == "fail" and failing["reasons"] == [
        "failed ops share 0.01 > base 0"]
    bad = {"wall_s": ab.summarize(BASE, [1.3 * b for b in BASE], "lower", 0.25),
           "stage1_s": ab.summarize(WIDE, WIDE[::-1], "lower", 0.25)}
    assert ab.workload_verdict(bad, ops, ops)["reasons"] == ["wall_s worse",
                                                             "stage1_s unresolved"]


def test_append_record_keeps_earlier_records(tmp_path) -> None:
    path = tmp_path / "BENCH_1.json"
    ab.append_record(path, {"n": 1})
    ab.append_record(path, {"n": 2, "values": [0.5]})
    assert json.loads(path.read_text(encoding="utf-8")) == [{"n": 1}, {"n": 2, "values": [0.5]}]
    path.write_text('{"n": 1}', encoding="utf-8")
    with pytest.raises(ValueError):
        ab.append_record(path, {"n": 2})
    assert path.read_text(encoding="utf-8") == '{"n": 1}'


def test_machine_records_the_usable_cpus(monkeypatch) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    machine = ab._machine()
    assert machine["cpus_usable"] == 1
    assert machine["nproc"] == os.cpu_count()


def test_machine_without_an_affinity_call_counts_every_cpu(monkeypatch) -> None:
    monkeypatch.delattr(os, "sched_getaffinity")
    assert ab._machine()["cpus_usable"] == os.cpu_count()


def test_derived_values_keep_each_side_and_pair() -> None:
    runs = {"base": [{"derived": {"raw_stage1_s": 0.25, "reference_numpy_s": 0.5}},
                     {"derived": {"raw_stage1_s": 0.75, "reference_numpy_s": 1.0}},
                     {"derived": {"raw_stage1_s": 0.5}}],
            "head": [{"derived": {"raw_stage1_s": 0.125}}, {"derived": {"raw_stage1_s": 1.5}},
                     {"derived": {}}]}
    assert ab.derived_values(runs) == {
        "raw_stage1_s": {"base": [0.25, 0.75, 0.5], "base_median": 0.5,
                         "head": [0.125, 1.5, None], "head_median": 0.8125},
        "reference_numpy_s": {"base": [0.5, 1.0, None], "base_median": 0.75,
                              "head": [None, None, None], "head_median": None},
    }
    assert ab.derived_values({"base": [], "head": []}) == {}


def test_src_lines_counts_the_python_sources(tmp_path) -> None:
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("\n\nz = 3\n", encoding="utf-8")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n", encoding="utf-8")
    (tmp_path / "top.py").write_text("outside = src\n", encoding="utf-8")
    assert ab.src_lines(tmp_path) == 5
