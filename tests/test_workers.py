"""workers.map_spans: the spans it hands out and when it starts processes."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from pipedec.workers import map_spans

SIZE = 7


def _spans(n: int, size: int) -> list[list[int]]:
    return [list(range(lo, min(lo + size, n))) for lo in range(0, n, size)]


@pytest.mark.parametrize("n, size", [(1, SIZE), (SIZE - 1, SIZE), (SIZE, SIZE), (SIZE + 1, SIZE),
                                     (2 * SIZE + 1, SIZE), (5, 1)])
def test_pooled_spans_cover_the_range_in_order(n, size, pin_cpus, forks) -> None:
    pin_cpus({0, 1})
    spans = list(map_spans(list, n, size))
    assert spans == _spans(n, size)
    assert sum(spans, []) == list(range(n))
    assert len(forks) == (2 if len(spans) >= 2 else 0)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n, cpus", [(SIZE, {0, 1}), (3 * SIZE, {0}), (3 * SIZE, "missing")],
                         ids=["one_span", "one_cpu", "no_affinity_call"])
def test_one_span_or_one_cpu_starts_no_process(n, cpus, pin_cpus, no_fork) -> None:
    pin_cpus(cpus)
    assert list(map_spans(list, n, SIZE)) == _spans(n, SIZE)


def test_closing_early_terminates_the_workers(pin_cpus) -> None:
    pin_cpus({0, 1})
    spans = map_spans(list, 10 ** 9, 1)  # far more spans than the pool's pipe holds
    assert next(spans) == [0] and next(spans) == [1]
    spans.close()
    assert multiprocessing.active_children() == []


def test_spans_that_finish_out_of_order_come_back_in_order(pin_cpus) -> None:
    pin_cpus({0, 1})

    def slow_first(span: range) -> list[int]:
        time.sleep(0.05 * (6 - span.start))  # span 1 and later finish before span 0
        return list(span)

    assert list(map_spans(slow_first, 6, 1)) == _spans(6, 1)
    assert multiprocessing.active_children() == []


def test_an_error_in_a_span_carries_the_worker_traceback(pin_cpus) -> None:
    pin_cpus({0, 1})

    def task(span: range) -> list[int]:
        if span.start == 1:
            raise ValueError("planted")
        return list(span)

    with pytest.raises(ValueError, match="planted") as raised:
        list(map_spans(task, 3, 1))
    assert 'raise ValueError("planted")' in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []

def test_a_worker_killed_while_idle_raises(pin_cpus, tmp_path) -> None:
    pin_cpus({0, 1})
    pid_file = tmp_path / "pid"

    def task(span: range) -> list[int]:
        if span.start == 1:
            pid_file.write_text(str(os.getpid()))  # then this worker waits for a span
        else:
            time.sleep(0.5)
            os.kill(int(pid_file.read_text()), signal.SIGKILL)
            time.sleep(0.2)  # the caller still waits for span 0 when the other pipe closes
        return list(span)

    start = time.perf_counter()
    with pytest.raises(ChildProcessError, match="exit code -9"):
        list(map_spans(task, 2, 1))
    assert time.perf_counter() - start < 2.5
    assert multiprocessing.active_children() == []


def test_a_worker_killed_before_its_next_span_raises(pin_cpus, tmp_path) -> None:
    # the killed worker's last result waits unread in the pipe, so the next span is sent
    # to a dead process (a broken pipe, not an end of file)
    pin_cpus({0, 1})
    slow = tmp_path / "slow"

    def task(span: range) -> int:
        if span.start == 2:
            slow.write_text(str(os.getpid()))
            time.sleep(0.5)
        return os.getpid()

    spans = map_spans(task, 6, 1)
    pids = {next(spans), next(spans)}  # the two workers; one runs span 2, the other span 3
    time.sleep(0.1)
    os.kill((pids - {int(slow.read_text())}).pop(), signal.SIGKILL)
    with pytest.raises(ChildProcessError, match="exit code -9"):
        next(spans)
    assert multiprocessing.active_children() == []


def test_a_failed_fork_stops_the_workers_already_started(pin_cpus, monkeypatch) -> None:
    pin_cpus({0, 1})
    fork = os.fork

    def second_fork_fails():
        monkeypatch.setattr(os, "fork", refuse)
        return fork()

    def refuse():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(BlockingIOError, match="fork"):
        list(map_spans(list, 4, 1))
    assert multiprocessing.active_children() == []
