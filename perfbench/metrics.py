"""Metric definitions of the benchmark, and the interaction each one states.

``END_TO_END`` is what ``run.py --trace 0`` reports and ``PER_LAYER`` what
``run.py --trace 1`` reports; every workload reports every name.  The
four ``stageN_s`` slots are the timed stages of one workload cycle, whose
meaning depends on the workload (see ``STAGES``).  Each per-layer metric
names the end-to-end metrics it should move and one it should leave flat,
as ``workload:metric``; an optimisation of that layer is expected to show
there and nowhere else.
"""

from __future__ import annotations

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("wall_s", "s", "lower", 0.25),
    ("stage1_s", "s", "lower", 0.25),
    ("stage2_s", "s", "lower", 0.25),
    ("stage3_s", "s", "lower", 0.25),
    ("stage4_s", "s", "lower", 0.25),
)

# the public calls timed by each stage slot, per workload
STAGES = {
    "trace_log": ("planted_trace", "save_traces", "load_traces",
                  "match_rate + match_rate_by_bucket + forecast_from_trace"),
    "decode_long": ("decode_ppd", "decode_sequential", "emit_trace", "match_rate"),
    "cli_session": ("pipedec simulate", "pipedec schedule (svg, csv, text)",
                    "pipedec matchrate --bucket", "pipedec verify"),
}

_FLAT_DECODE = ("decode_long:stage1_s",)
_FLAT_TRACE = ("trace_log:wall_s",)
_FLAT_VERIFY = ("cli_session:stage4_s",)
_DECODE = ("decode_long:stage1_s", "decode_long:stage2_s", "cli_session:stage4_s")
_SCHEDULE = (("cli_session:stage2_s",), ("cli_session:stage1_s",))

# name, unit, better, moves, flat
PER_LAYER = (
    ("trace.planted_trace_s", "s", "lower", ("trace_log:stage1_s",), _FLAT_DECODE),
    ("trace.save_traces_s", "s", "lower", ("trace_log:stage2_s",), _FLAT_DECODE),
    ("trace.load_traces_s", "s", "lower",
     ("trace_log:stage3_s", "cli_session:stage3_s"), _FLAT_DECODE),
    ("trace.match_rate_s", "s", "lower",
     ("trace_log:stage4_s", "cli_session:stage3_s", "decode_long:stage4_s"), _FLAT_DECODE),
    ("trace.match_rate_by_bucket_s", "s", "lower",
     ("trace_log:stage4_s", "cli_session:stage3_s"), _FLAT_DECODE),
    ("trace.forecast_s", "s", "lower", ("trace_log:stage4_s",), ("cli_session:stage3_s",)),
    ("trace.records", "count", "higher", ("trace_log:stage3_s",), _FLAT_DECODE),
    ("trace.jsonl_bytes", "bytes", "lower",
     ("trace_log:stage2_s", "trace_log:stage3_s"), _FLAT_DECODE),
    ("trace.records_rejected", "count", "lower", ("trace_log:stage3_s",), _FLAT_DECODE),
    ("trace.rss_after_load_mb", "MB", "lower", ("trace_log:peak_rss_mb",),
     ("decode_long:peak_rss_mb",)),
    ("mockmodel.decode_ppd_s", "s", "lower",
     ("decode_long:stage1_s", "cli_session:stage4_s"), _FLAT_TRACE),
    ("mockmodel.decode_sequential_s", "s", "lower",
     ("decode_long:stage2_s", "cli_session:stage4_s"), _FLAT_TRACE),
    ("mockmodel.emit_trace_s", "s", "lower", ("decode_long:stage3_s",), _FLAT_VERIFY),
    ("mockmodel.random_instance_s", "s", "lower", ("cli_session:stage4_s",), _FLAT_DECODE),
    ("mockmodel.exactness_counterexample_s", "s", "lower",
     ("cli_session:stage4_s",), _FLAT_DECODE),
    ("mockmodel.forward_layer_us", "us", "lower", _DECODE, _FLAT_TRACE),
    ("mockmodel.prefix_digest_us.ctx64", "us", "lower", ("cli_session:stage4_s",), _FLAT_TRACE),
    ("mockmodel.prefix_digest_us.ctx512", "us", "lower",
     ("decode_long:stage1_s", "decode_long:stage2_s"), _FLAT_VERIFY),
    ("mockmodel.early_topk_us.v64", "us", "lower", ("cli_session:stage4_s",), _FLAT_TRACE),
    ("mockmodel.early_topk_us.v1024", "us", "lower", ("decode_long:stage1_s",), _FLAT_VERIFY),
    ("mockmodel.final_token_us.v1024", "us", "lower",
     ("decode_long:stage1_s", "decode_long:stage2_s"), _FLAT_VERIFY),
    ("mockmodel.extend_digest_us", "us", "lower",
     ("decode_long:stage1_s", "cli_session:stage4_s"), _FLAT_TRACE),
    ("mockmodel.tokens", "count", "higher", ("decode_long:stage1_s",), _FLAT_TRACE),
    ("mockmodel.main_layers", "count", "lower", ("decode_long:stage1_s",), ("decode_long:stage2_s",)),
    ("mockmodel.spec_layers", "count", "lower", ("decode_long:stage1_s",), ("decode_long:stage2_s",)),
    ("mockmodel.match_rate", "ratio", "higher", ("decode_long:stage1_s",), ("decode_long:stage2_s",)),
    ("mockmodel.spec_useful_ratio", "ratio", "higher",
     ("decode_long:stage1_s",), ("decode_long:stage2_s",)),
    ("mockmodel.time_unit_ratio", "ratio", "lower",
     ("decode_long:stage1_s",), ("decode_long:stage2_s",)),
    ("mockmodel.wall_ratio", "ratio", "lower", ("decode_long:stage1_s",), ("decode_long:stage2_s",)),
    ("stochastic.monte_carlo_s", "s", "lower", ("cli_session:stage1_s",), _FLAT_VERIFY),
    ("stochastic.trials_per_s", "1/s", "higher", ("cli_session:stage1_s",), _FLAT_VERIFY),
    ("rng.draws_per_s", "1/s", "higher", ("cli_session:stage1_s",), _FLAT_VERIFY),
    ("rng.counter_uniforms_s", "s", "lower", ("cli_session:stage1_s",), _FLAT_VERIFY),
    ("schedule.build_schedule_s", "s", "lower") + _SCHEDULE,
    ("schedule.verify_identities_s", "s", "lower") + _SCHEDULE,
    ("schedule.occupancy_profile_s", "s", "lower") + _SCHEDULE,
    ("schedule.text_gantt_s", "s", "lower") + _SCHEDULE,
    ("schedule.events_to_csv_s", "s", "lower") + _SCHEDULE,
    ("schedule.svg_gantt_s", "s", "lower") + _SCHEDULE,
    ("schedule.events", "count", "lower") + _SCHEDULE,
    ("schedule.makespan", "count", "lower") + _SCHEDULE,
    ("schedule.useful_spec_ratio", "ratio", "higher") + _SCHEDULE,
    ("analytic.tradeoff_sweep_s", "s", "lower", ("cli_session:wall_s",), ("cli_session:stage1_s",)),
    ("cli.self_s", "s", "lower",
     ("cli_session:stage1_s", "cli_session:stage2_s", "cli_session:stage3_s",
      "cli_session:stage4_s"), _FLAT_TRACE),
    ("unattributed_s", "s", "lower", (), ()),
    ("tracing_overhead_ratio", "ratio", "lower", (), ()),
)

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {row[0]: row[1] for row in PER_LAYER}


def interactions() -> dict[str, dict[str, tuple[str, ...]]]:
    """Per-layer metric -> the end-to-end metrics it should move and leave flat."""
    return {row[0]: {"moves": row[3], "flat": row[4]} for row in PER_LAYER}


def issue_view(workload: str, stage_s: dict[str, float], sizes: dict) -> dict[str, tuple[float, str]]:
    """The workload's stage times restated in the units a reader expects.

    trace_log and decode_long are read as rates (records or tokens per
    second); cli_session as seconds per command.  These are derived from
    the same medians as the stage slots and carry no bound of their own.
    """
    s1, s2, s3, s4 = (stage_s[f"stage{i}_s"] for i in range(1, 5))
    if workload == "trace_log":
        n = sizes["trace_positions"]
        return {"write_records_per_s": (n / (s1 + s2), "1/s"),
                "read_records_per_s": (n / (s3 + s4), "1/s")}
    if workload == "decode_long":
        tokens = sizes["decode_ell"]  # decode_long stages are per rollout
        return {"ppd_tokens_per_s": (tokens / s1, "1/s"),
                "seq_tokens_per_s": (tokens / s2, "1/s")}
    return {"simulate_s": (s1, "s"), "schedule_s": (s2, "s"),
            "matchrate_s": (s3, "s"), "verify_s": (s4, "s")}
