"""Test settings shared by every module."""

import os

import pytest
from hypothesis import settings

# property tests build schedules and decode mock models, whose run time varies with the
# drawn sizes, so no per-example deadline applies
settings.register_profile("pipedec", deadline=None)
settings.load_profile("pipedec")


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """Record each os.fork; the list's length is the number of processes started."""
    started, fork = [], os.fork

    def counted():
        started.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return started


@pytest.fixture
def no_fork(monkeypatch) -> None:
    """Make os.fork raise, so that starting a process fails the test."""
    def refuse():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)


@pytest.fixture
def pin_cpus(monkeypatch):
    """pin_cpus(cpus): the CPU set, or "missing" for a platform without sched_getaffinity."""
    def pin(cpus) -> None:
        if cpus == "missing":
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)

    return pin
