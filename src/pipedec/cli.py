"""Command-line front end.

Exit codes: 0 success, 1 property/identity failure or a lost worker
process, 2 usage or validation error.  Every command is deterministic
given its flags, so outputs are stable byte streams.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from dataclasses import asdict
from functools import partial
from pathlib import Path

from . import analytic, mockmodel, schedule, stochastic, svgout, trace, workers
from .core import DecodingConfig, DomainError, LatencyComputeReport, MatchSequence, check_int
from .rng import Stream
from .tracetable import decode_json

CONFIG_KEYS = ("d", "dbar", "k", "l", "p")  # a --config file's keys, each also a flag


def _int_list(text: str) -> list[int]:
    return _nonempty([int(x) for x in text.split(",") if x.strip()])


def _float_list(text: str) -> list[float]:
    return _nonempty([float(x) for x in text.split(",") if x.strip()])


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("needs at least one comma-separated value")
    return values


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON file with keys d, dbar, k, l, p; flags override it")
    sub.add_argument("--d", type=int, default=None, help="total layer count")
    sub.add_argument("--dbar", type=int, default=None, help="early-prediction layer")
    sub.add_argument("--k", type=int, default=None, help="speculative sub-process count")
    sub.add_argument("--l", type=int, default=None, help="tokens to generate")
    sub.add_argument("--p", type=float, default=None, help="match probability")


def _config(args: argparse.Namespace, required: tuple[str, ...]) -> DecodingConfig:
    """The config of ``--config`` and the flags; a flag replaces the file's value."""
    values: dict = {}
    if args.config is not None:
        try:
            values = decode_json(args.config.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise DomainError(f"--config {args.config}: not valid UTF-8 ({exc})") from None
        except DomainError as exc:
            raise DomainError(f"--config {args.config}: {exc}") from None
        if not isinstance(values, dict):
            raise DomainError("--config file must hold a JSON object")
        if unknown := sorted(set(values) - set(CONFIG_KEYS)):
            raise DomainError(f"--config {args.config}: unknown key(s) {', '.join(unknown)}")
    values.update((key, getattr(args, key)) for key in CONFIG_KEYS
                  if getattr(args, key) is not None)
    missing = [key for key in required if values.get(key) is None]
    if missing:
        raise DomainError(f"missing required flag(s): {', '.join('--' + m for m in missing)}")
    # DecodingConfig checks the values' types
    return DecodingConfig(values["d"], values["dbar"], values["k"], values["l"], values.get("p"))


def _write_or_print(content: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(content)
    else:
        out.write_text(content, encoding="utf-8")


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _config(args, required=CONFIG_KEYS)
    latency = analytic.expected_latency(config)
    compute = analytic.expected_total_compute(config)
    report = LatencyComputeReport.from_totals(latency, compute, config.ell)
    point = analytic.tradeoff_point(config)
    fields = {
        **asdict(config),
        "expected_latency": report.total_latency,
        "expected_total_compute": report.total_compute,
        "per_token_latency": report.per_token_latency,
        "avg_compute_per_time_unit": report.avg_compute_per_time_unit,
        "avg_compute_per_token": report.avg_compute_per_token,
        "latency_per_token_norm": point.latency_per_token_norm,
        "compute_per_time_unit": point.compute_per_time_unit,
        "compute_per_token": point.compute_per_token,
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(fields, indent=2) + "\n")
    else:
        keys = list(fields)
        sys.stdout.write(",".join(keys) + "\n")
        sys.stdout.write(",".join(repr(fields[key]) for key in keys) + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.p_list is not None:
        for flag in ("p_from", "p_to", "p_steps"):
            if getattr(args, flag) is not None:
                raise DomainError(f"--p-list and --{flag.replace('_', '-')} exclude each other: "
                                  "give either --p-list or --p-from/--p-to/--p-steps")
        p_values = args.p_list
    elif args.p_from is not None and args.p_to is not None:
        steps = check_int("--p-steps", 9 if args.p_steps is None else args.p_steps, 1)
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
        series = []
        for k in args.k_list:
            pts = [(r.latency_per_token_norm, r.compute_per_time_unit) for r in rows if r.k == k]
            series.append((f"k={k}", pts))
        args.svg.write_text(
            svgout.line_plot(series, "per-token latency (normalized)", "compute per time unit",
                             "latency vs compute trade-off"),
            encoding="utf-8",
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    summary = stochastic.monte_carlo(_config(args, required=CONFIG_KEYS), args.trials, args.seed)
    sys.stdout.write(stochastic.summary_to_json(summary))
    return 0


GANTT = {"text": schedule.text_gantt, "csv": schedule.events_to_csv, "svg": schedule.svg_gantt}


def cmd_schedule(args: argparse.Namespace) -> int:
    # the config's own rules (ell >= 1 among them, and p's when it is given) come first
    config = _config(args, required=("d", "dbar", "k", "l"))
    if args.matches is not None:
        for flag in ("p", "seed"):
            if getattr(args, flag) is not None:
                raise DomainError(f"--matches and --{flag} exclude each other: give the match "
                                  "bits with --matches, or sample them with --p and --seed")
        matches = MatchSequence.from_string(args.matches)
    elif config.p_correct is None:
        raise DomainError("give --matches or --p (with --seed) to define the match bits")
    else:
        matches = stochastic.sample_match_sequence(
            Stream.from_seed(0 if args.seed is None else args.seed), config.p_correct, config.ell
        )
    timeline = schedule.build_schedule(config, matches)  # which checks the match-bit count
    report = schedule.verify_identities(timeline)
    sys.stdout.write(schedule.identity_report_to_json(report))
    if args.gantt is not None:
        _write_or_print(GANTT[args.gantt](timeline), args.out)
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


VERIFY_CHUNK = 50  # instances per span of verify's process pool


def _first_defect(seed: int, indices: range) -> tuple[int, str] | None:
    """The first (index, defect) among verify's ``indices``, or None if all are exact."""
    for index in indices:
        inst = mockmodel.random_instance(index, seed)
        defect = mockmodel.exactness_counterexample(inst)
        if defect is not None:
            return index, defect
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    n = check_int("--instances", args.instances, 1)
    # results come in span order, so the first defect seen has the lowest index
    with closing(workers.map_spans(partial(_first_defect, args.seed), n, VERIFY_CHUNK)) as results:
        for found in results:
            if found is not None:
                index, defect = found
                sys.stdout.write(f"FAIL at instance {index} (seed {args.seed}): {defect}\n")
                return 1
    sys.stdout.write(
        f"PASS: {args.instances} pipelined-vs-sequential instances decoded identically "
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
    p_sweep.add_argument("--l", type=int, default=1, help="optional: the limits do not "
                         "depend on ell (a given value must still be >= 1)")
    p_sweep.add_argument("--k-list", type=_int_list, required=True, dest="k_list")
    p_sweep.add_argument("--p-list", type=_float_list, default=None, dest="p_list")
    p_sweep.add_argument("--p-from", type=float, default=None, dest="p_from")
    p_sweep.add_argument("--p-to", type=float, default=None, dest="p_to")
    p_sweep.add_argument("--p-steps", type=int, default=None, dest="p_steps",
                         help="grid points from --p-from to --p-to (default 9)")
    p_sweep.add_argument("--out", type=Path, default=None, help="CSV path (stdout if omitted)")
    p_sweep.add_argument("--svg", type=Path, default=None, help="optional SVG plot path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = subs.add_parser("simulate", help="Monte Carlo estimate of the expectations")
    _add_config_flags(p_sim)
    p_sim.add_argument("--trials", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_sched = subs.add_parser("schedule", help="replay one schedule and verify its identities")
    _add_config_flags(p_sched)
    p_sched.add_argument("--matches", type=str, default=None,
                         help="explicit match bits, e.g. TTFT (length l-1)")
    p_sched.add_argument("--seed", type=int, default=None,
                         help="seed for sampling match bits with --p (default 0)")
    p_sched.add_argument("--gantt", choices=tuple(GANTT), default=None,
                         help="also emit the timeline in this form")
    p_sched.add_argument("--out", type=Path, default=None,
                         help="file for the timeline artifact (stdout if omitted)")
    p_sched.set_defaults(func=cmd_schedule)

    p_rate = subs.add_parser("matchrate", help="estimate the match rate from a JSONL trace")
    p_rate.add_argument("--input", type=Path, required=True)
    p_rate.add_argument("--k", type=int, required=True)
    p_rate.add_argument("--bucket", type=int, default=None,
                        help="bucket width for per-position rates")
    p_rate.add_argument("--format", choices=("json", "csv"), default="json")
    p_rate.set_defaults(func=cmd_matchrate)

    p_verify = subs.add_parser("verify", help="pipelined-vs-sequential exactness suite")
    p_verify.add_argument("--instances", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:  # trace.ParseError is a DomainError
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ChildProcessError) else 2  # ChildProcessError: from workers


if __name__ == "__main__":
    sys.exit(main())
