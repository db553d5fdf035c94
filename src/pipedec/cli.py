"""Command-line front end.

Exit codes: 0 success, 1 property/identity failure, 2 usage or
validation error.  Every command is deterministic given its flags, so
outputs are stable byte streams.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analytic, mockmodel, schedule, stochastic, svgout, trace
from .core import DecodingConfig, DomainError, LatencyComputeReport, MatchSequence
from .rng import Stream


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    return _nonempty([int(x) for x in text.split(",") if x.strip()])


def _positive_int_list(text: str) -> list[int]:
    return _nonempty([_positive_int(x) for x in text.split(",") if x.strip()])


def _float_list(text: str) -> list[float]:
    return _nonempty([float(x) for x in text.split(",") if x.strip()])


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("needs at least one comma-separated value")
    return values


def _add_config_flags(sub: argparse.ArgumentParser, with_p: bool = True) -> None:
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON file with keys d, dbar, k, l, p; flags override it")
    sub.add_argument("--d", type=int, default=None, help="total layer count")
    sub.add_argument("--dbar", type=int, default=None, help="early-prediction layer")
    sub.add_argument("--k", type=int, default=None, help="speculative sub-process count")
    sub.add_argument("--l", type=int, default=None, help="tokens to generate")
    if with_p:
        sub.add_argument("--p", type=float, default=None, help="match probability")


def _merged_config(args: argparse.Namespace, required: tuple[str, ...]) -> dict:
    merged: dict = {}
    if getattr(args, "config", None) is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"--config {args.config}: invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise DomainError("--config file must hold a JSON object")
        merged.update(loaded)
    for key in ("d", "dbar", "k", "l", "p"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
            continue
        value = merged.get(key)
        if value is not None and type(value) is not int and not (
            key == "p" and type(value) is float
        ):
            kind = "a number" if key == "p" else "an integer"
            raise DomainError(f"--config key {key!r} must be {kind}, got {value!r}")
    missing = [key for key in required if merged.get(key) is None]
    if missing:
        raise DomainError(f"missing required flag(s): {', '.join('--' + m for m in missing)}")
    return merged


def _write_or_print(content: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(content)
    else:
        out.write_text(content, encoding="utf-8")


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _merged_config(args, required=("d", "dbar", "k", "l", "p"))
    config = DecodingConfig(cfg["d"], cfg["dbar"], cfg["k"], cfg["l"], cfg["p"])
    latency = analytic.expected_latency(config)
    compute = analytic.expected_total_compute(config)
    report = LatencyComputeReport.from_totals(latency, compute, config.ell)
    halfdepth = 2 * config.d_bar == config.d
    fields: dict = {
        "d": config.d,
        "d_bar": config.d_bar,
        "k": config.k,
        "ell": config.ell,
        "p_correct": config.p_correct,
        "expected_latency": report.total_latency,
        "expected_total_compute": report.total_compute,
        "per_token_latency": report.per_token_latency,
        "avg_compute_per_time_unit": report.avg_compute_per_time_unit,
        "avg_compute_per_token": report.avg_compute_per_token,
    }
    if halfdepth:
        p = config.p_correct
        fields["latency_per_token_norm"] = (
            analytic.per_token_latency_halfdepth(p, config.d) / config.d
        )
        fields["compute_per_time_unit"] = analytic.avg_compute_per_time_unit_halfdepth(
            p, config.k
        )
        fields["compute_per_token"] = analytic.avg_compute_per_token_halfdepth(p, config.k)
    if args.format == "json":
        sys.stdout.write(json.dumps(fields, indent=2) + "\n")
    else:
        keys = list(fields)
        sys.stdout.write(",".join(keys) + "\n")
        sys.stdout.write(",".join(repr(fields[key]) for key in keys) + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.p_list is not None:
        p_values = args.p_list
    elif args.p_from is not None and args.p_to is not None:
        steps = args.p_steps
        if steps < 1:
            raise DomainError("--p-steps must be >= 1")
        if steps == 1:
            p_values = [args.p_from]
        else:
            span = args.p_to - args.p_from
            p_values = [args.p_from + span * i / (steps - 1) for i in range(steps)]
    else:
        raise DomainError("give either --p-list or --p-from/--p-to/--p-steps")
    rows = analytic.tradeoff_sweep(args.d, args.dbar, args.l, args.k_list, p_values)
    _write_or_print(analytic.sweep_to_csv(rows), args.out)
    if args.svg is not None:
        if args.svg_y == "token":
            y_of = lambda r: r.compute_per_token
            y_label = "compute per token"
        else:
            y_of = lambda r: r.compute_per_time_unit
            y_label = "compute per time unit"
        series = []
        for k in args.k_list:
            pts = [(r.latency_per_token_norm, y_of(r)) for r in rows if r.k == k]
            series.append((f"k={k}", pts))
        args.svg.write_text(
            svgout.line_plot(series, "per-token latency (normalized)", y_label,
                             title="latency vs compute trade-off"),
            encoding="utf-8",
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merged_config(args, required=("d", "dbar", "k", "l", "p"))
    config = DecodingConfig(cfg["d"], cfg["dbar"], cfg["k"], cfg["l"], cfg["p"])
    summary = stochastic.monte_carlo(config, args.trials, args.seed)
    sys.stdout.write(stochastic.summary_to_json(summary))
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    cfg = _merged_config(args, required=("d", "dbar", "k", "l"))
    ell = cfg["l"]
    if args.matches is not None:
        matches = MatchSequence.from_string(args.matches)
        if len(matches.bits) != ell - 1:
            raise DomainError(
                f"--matches must have l-1 = {ell - 1} bits, got {len(matches.bits)}"
            )
        config = DecodingConfig(cfg["d"], cfg["dbar"], cfg["k"], ell)
    else:
        if cfg.get("p") is None:
            raise DomainError("give --matches or --p (with --seed) to define the match bits")
        config = DecodingConfig(cfg["d"], cfg["dbar"], cfg["k"], ell, cfg["p"])
        matches = stochastic.sample_match_sequence(
            Stream.from_seed(args.seed), config.p_correct, ell
        )
    timeline = schedule.build_schedule(config, matches)
    report = schedule.verify_identities(timeline)
    sys.stdout.write(schedule.identity_report_to_json(report))
    if args.gantt is not None:
        if args.gantt == "text":
            artifact = schedule.text_gantt(timeline)
        elif args.gantt == "csv":
            artifact = schedule.events_to_csv(timeline)
        else:
            artifact = schedule.svg_gantt(timeline)
        _write_or_print(artifact, args.out)
    return 0 if report.ok else 1


def cmd_matchrate(args: argparse.Namespace) -> int:
    records = trace.load_traces(args.input)
    if args.bucket is not None:
        report = trace.match_rate_by_bucket(records, args.k, args.bucket)
    else:
        report = trace.match_rate(records, args.k)
    if args.format == "json":
        sys.stdout.write(trace.report_to_json(report))
    else:
        sys.stdout.write(trace.report_to_csv(report))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    checked = 0
    for index in range(args.instances):
        inst = mockmodel.random_instance(
            index,
            args.seed,
            vocab_sizes=args.vocab_sizes,
            depths=args.depths,
            k_values=args.k_values,
            max_ell=args.max_ell,
        )
        defect = mockmodel.exactness_counterexample(inst)
        if defect is not None:
            sys.stdout.write(
                f"FAIL at instance {index} (seed {args.seed}): {defect}\n"
            )
            return 1
        checked += 1
    sys.stdout.write(
        f"PASS: {checked} pipelined-vs-sequential instances decoded identically "
        f"(seed {args.seed})\n"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipedec",
        description="Latency/compute analysis for predictive pipelined decoding.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser("analyze", help="closed-form latency/compute for one config")
    _add_config_flags(p_analyze)
    p_analyze.add_argument("--format", choices=("json", "csv"), default="json")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = subs.add_parser("sweep", help="trade-off curve over a (k, p) grid")
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--dbar", type=int, required=True)
    p_sweep.add_argument("--l", type=int, required=True)
    p_sweep.add_argument("--k-list", type=_int_list, required=True, dest="k_list")
    p_sweep.add_argument("--p-list", type=_float_list, default=None, dest="p_list")
    p_sweep.add_argument("--p-from", type=float, default=None, dest="p_from")
    p_sweep.add_argument("--p-to", type=float, default=None, dest="p_to")
    p_sweep.add_argument("--p-steps", type=int, default=9, dest="p_steps")
    p_sweep.add_argument("--out", type=Path, default=None, help="CSV path (stdout if omitted)")
    p_sweep.add_argument("--svg", type=Path, default=None, help="optional SVG plot path")
    p_sweep.add_argument("--svg-y", choices=("time-unit", "token"), default="time-unit",
                         dest="svg_y", help="y axis of the SVG plot")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = subs.add_parser("simulate", help="Monte Carlo estimate of the expectations")
    _add_config_flags(p_sim)
    p_sim.add_argument("--trials", type=_positive_int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_sched = subs.add_parser("schedule", help="replay one schedule and verify its identities")
    _add_config_flags(p_sched, with_p=True)
    p_sched.add_argument("--matches", type=str, default=None,
                         help="explicit match bits, e.g. TTFT (length l-1)")
    p_sched.add_argument("--seed", type=int, default=0,
                         help="seed for sampling match bits when --p is used")
    p_sched.add_argument("--gantt", choices=("text", "csv", "svg"), default=None,
                         help="also emit the timeline in this form")
    p_sched.add_argument("--out", type=Path, default=None,
                         help="file for the timeline artifact (stdout if omitted)")
    p_sched.set_defaults(func=cmd_schedule)

    p_rate = subs.add_parser("matchrate", help="estimate the match rate from a JSONL trace")
    p_rate.add_argument("--input", type=Path, required=True)
    p_rate.add_argument("--k", type=_positive_int, required=True)
    p_rate.add_argument("--bucket", type=_positive_int, default=None,
                        help="bucket width for per-position rates")
    p_rate.add_argument("--format", choices=("json", "csv"), default="json")
    p_rate.set_defaults(func=cmd_matchrate)

    p_verify = subs.add_parser("verify", help="pipelined-vs-sequential exactness suite")
    p_verify.add_argument("--instances", type=_positive_int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--max-ell", type=_positive_int, default=32, dest="max_ell")
    p_verify.add_argument("--vocab-sizes", type=_positive_int_list, default=[4, 16, 64],
                          dest="vocab_sizes")
    p_verify.add_argument("--depths", type=_positive_int_list, default=[8, 40], dest="depths")
    p_verify.add_argument("--k-values", type=_positive_int_list, default=[1, 3, 5],
                          dest="k_values")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, trace.ParseError, trace.DuplicateIdError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
