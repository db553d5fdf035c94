"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from pipedec import analytic, mockmodel, trace
from pipedec.core import DecodingConfig, MatchSequence, closed_form_totals
from pipedec.schedule import build_schedule, occupancy_profile, verify_identities
from pipedec.stochastic import monte_carlo


def _line(ok: bool, number: int, message: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number} - {message}")


def test_criterion_1_tradeoff_endpoints() -> None:
    t0 = time.perf_counter()
    rows = analytic.tradeoff_sweep(40, 20, 128, [1, 5], [0.2163, 0.7415])
    by_key = {(r.k, r.p_correct): r for r in rows}
    checks = [
        (by_key[(5, 0.7415)].latency_per_token_norm, 0.629),
        (by_key[(1, 0.2163)].latency_per_token_norm, 0.892),
        (by_key[(1, 0.2163)].compute_per_time_unit, 1.561),
        (by_key[(5, 0.7415)].compute_per_time_unit, 4.973),
    ]
    elapsed = time.perf_counter() - t0
    worst = max(abs(got - expected) for got, expected in checks)
    ok = worst <= 0.002 and elapsed < 1.0
    _line(ok, 1, f"endpoint reproduction, worst |dev|={worst:.5f} (<=0.002), {elapsed:.3f}s (<1s)")
    for got, expected in checks:
        assert abs(got - expected) <= 0.002, (got, expected)
    assert elapsed < 1.0


def test_criterion_2_monte_carlo_convergence() -> None:
    t0 = time.perf_counter()
    failures = []
    seed = 1000
    for p in (0.2, 0.5, 0.8):
        for k in (1, 3, 5):
            for d_bar in (20, 30):
                seed += 1
                cfg = DecodingConfig(40, d_bar, k, 128, p)
                s = monte_carlo(cfg, 100_000, seed)
                lat = analytic.expected_latency(cfg)
                cmp_ = analytic.expected_total_compute(cfg)
                n_exp = 128 - 127 * p
                if abs(s.mean_latency - lat) > 4 * s.stderr_latency:
                    failures.append(f"latency off at p={p} k={k} d_bar={d_bar}")
                if abs(s.mean_compute - cmp_) > 4 * s.stderr_compute:
                    failures.append(f"compute off at p={p} k={k} d_bar={d_bar}")
                if abs(s.mean_n_runs - n_exp) > 4 * s.stderr_n_runs:
                    failures.append(f"run count off at p={p} k={k} d_bar={d_bar}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _line(ok, 2, f"18 configs x 1e5 trials within 4*stderr, {elapsed:.1f}s (<30s)")
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_3_schedule_formula_identity() -> None:
    fixture = build_schedule(DecodingConfig(40, 30, 3, 3), MatchSequence.from_string("TT"))
    fixture_ok = (
        fixture.makespan == 100 and int(occupancy_profile(fixture).sum()) == 190
    )

    rr = random.Random(31415)
    bad = 0
    for _ in range(1000):
        d = rr.randint(1, 64)
        d_bar = rr.randint((d + 1) // 2, d)
        k = rr.randint(0, 8)
        ell = rr.randint(1, 256)
        cfg = DecodingConfig(d, d_bar, k, ell)
        # k = 0 has no early candidate to match, so its bits are all F
        matches = MatchSequence(tuple(rr.random() < rr.random() and k > 0
                                      for _ in range(ell - 1)))
        report = verify_identities(build_schedule(cfg, matches))
        latency, compute = closed_form_totals(d, d_bar, k, ell, matches.n_runs)
        if not report.ok:
            bad += 1
        elif report.makespan != latency:
            bad += 1
        elif report.occupancy_total != compute:
            bad += 1
    ok = fixture_ok and bad == 0
    _line(ok, 3, f"1000 random schedules: {1000 - bad} exact; fixture makespan/occupancy "
                 f"{fixture.makespan}/{int(occupancy_profile(fixture).sum())}")
    assert fixture_ok
    assert bad == 0


def test_criterion_4_decoding_exactness() -> None:
    t0 = time.perf_counter()
    first_defect = None
    for index in range(1000):
        inst = mockmodel.random_instance(index, seed=0)
        defect = mockmodel.exactness_counterexample(inst)
        if defect is not None:
            first_defect = f"instance {index}: {defect}"
            break
    elapsed = time.perf_counter() - t0
    ok = first_defect is None and elapsed < 10.0
    _line(ok, 4, f"1000 pipelined rollouts identical to sequential, {elapsed:.1f}s (<10s)")
    assert first_defect is None, first_defect
    assert elapsed < 10.0


def _binom_pmf(x: int, n: int, p: float) -> float:
    log_pmf = (
        math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
        + x * math.log(p) + (n - x) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def _wilson_exact_coverage(n: int, p: float) -> float:
    """P(lo <= p <= hi) for ``trace.wilson_interval`` over X ~ Binomial(n, p).

    The sum runs over mean +- 12 standard deviations; the mass outside is
    below 1e-30.
    """
    mean = n * p
    sd = math.sqrt(n * p * (1 - p))
    coverage = 0.0
    for x in range(max(0, math.floor(mean - 12 * sd)), min(n, math.ceil(mean + 12 * sd)) + 1):
        lo, hi = trace.wilson_interval(x, n)
        if lo <= p <= hi:
            coverage += _binom_pmf(x, n, p)
    return coverage


def test_criterion_5_estimator_calibration() -> None:
    planted = 0.6837
    n = 100_000
    reps = 100
    covered = 0
    worst_dev = 0.0
    for rep in range(reps):
        records = trace.planted_trace(planted, n, 3, seed=rep)
        report = trace.match_rate(records, 3)
        assert report.ci95 == trace.wilson_interval(report.matches, report.total_positions)
        worst_dev = max(worst_dev, abs(report.p_hat - planted))
        lo, hi = report.ci95
        if lo <= planted <= hi:
            covered += 1

    # bucket partition identities on the first generation
    first = trace.match_rate_by_bucket(trace.planted_trace(planted, n, 3, seed=0), 3, 16)
    assert first.buckets is not None
    partition_ok = (
        sum(b.count for b in first.buckets) == first.total_positions
        and sum(b.matches for b in first.buckets) == first.matches
    )

    # A 95% interval promises coverage 0.95, not >=99/100.  The exact
    # coverage C of the interval match_rate builds must lie within 0.002 of
    # 0.95 (C = 0.8995 at z = 1.645, 0.9899 at z = 2.576).  The seeded count
    # is then a draw from Binomial(100, C) and must lie outside that
    # distribution's lower 0.001 tail (at C = 0.9502: covered >= 87).
    coverage = _wilson_exact_coverage(n, planted)
    min_covered = 0
    tail = _binom_pmf(0, reps, coverage)
    while tail <= 0.001:
        min_covered += 1
        tail += _binom_pmf(min_covered, reps, coverage)

    accuracy_ok = worst_dev <= 0.006
    exact_ok = abs(coverage - 0.95) <= 0.002
    seeded_ok = covered >= min_covered
    ok = accuracy_ok and exact_ok and seeded_ok and partition_ok
    _line(
        ok,
        5,
        f"p_hat worst |dev|={worst_dev:.5f} (<=0.006), exact ci95 coverage C={coverage:.5f} "
        f"(0.95+-0.002), interval covered planted value in {covered}/100 generations "
        f"(>={min_covered} from C), partition exact={partition_ok}",
    )
    assert partition_ok
    assert accuracy_ok, worst_dev
    assert exact_ok, f"exact coverage of ci95 is {coverage:.5f}, not 0.95 +- 0.002"
    assert seeded_ok, (
        f"ci95 covered the planted value in {covered}/100 generations; at exact coverage "
        f"{coverage:.5f} fewer than {min_covered} has probability below 0.001"
    )


def test_criterion_6_end_to_end_pipe() -> None:
    model = mockmodel.MockModel(vocab_size=32, depth=24, seed=606, bias=0.55)
    result = mockmodel.decode_ppd(model, (7, 3), 48, d_bar=12, k=3)
    records = mockmodel.emit_trace(result)
    report = trace.match_rate(records, 3)

    bits = result.match_trace.bits
    exact_rate_ok = report.p_hat == sum(bits) / len(bits)
    assert report.matches == sum(bits)
    assert report.total_positions == len(bits)

    fc = trace.forecast_from_trace(records, k=3, d=40, d_bar=20, ell=128)
    cfg = DecodingConfig(40, 20, 3, 128, report.p_hat)
    rel = 1e-12
    forecast_ok = (
        fc.report.total_latency == pytest.approx(analytic.expected_latency(cfg), rel=rel)
        and fc.report.total_compute == pytest.approx(analytic.expected_total_compute(cfg), rel=rel)
        and fc.latency_per_token_norm == pytest.approx(1.0 - report.p_hat / 2.0, rel=rel)
        and fc.compute_per_time_unit
        == pytest.approx((5.0 - report.p_hat) / (2.0 - report.p_hat), rel=rel)
        and fc.compute_per_token == pytest.approx((5.0 - report.p_hat) / 2.0, rel=rel)
    )
    ok = exact_rate_ok and forecast_ok
    _line(ok, 6, f"emit_trace -> match_rate exact (p_hat={report.p_hat:.4f}), "
                 f"forecast == closed forms at 1e-12 relative")
    assert exact_rate_ok
    assert forecast_ok
    assert not math.isnan(fc.p_hat)
