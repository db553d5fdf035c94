"""Contiguous spans of work, run on every usable CPU in fork-started workers."""

import os
from itertools import islice
from typing import Callable, Iterator


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 without ``sched_getaffinity`` or ``fork``."""
    known = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    return len(os.sched_getaffinity(0)) if known else 1


def _serve(task: Callable[[range], object], conn) -> None:
    """A worker: for each span its pipe brings, send back (True, result) or (False, error)."""
    while True:
        span = conn.recv()
        try:
            conn.send((True, task(span)))
        except Exception as exc:  # raised in the calling process when the span's turn comes
            from multiprocessing.pool import ExceptionWithTraceback  # keeps the worker's traceback

            conn.send((False, ExceptionWithTraceback(exc, exc.__traceback__)))


def map_spans(task: Callable[[range], object], n: int, size: int) -> Iterator:
    """``task(range(lo, min(lo + size, n)))`` for each ``lo`` in ``range(0, n, size)``, in order.

    With at least 2 spans and 2 usable CPUs, min(CPUs, spans) forked workers run them, each
    given its next span when it returns one; exhausting or closing the iterator, or an error,
    terminates and joins the workers, and a worker that dies (say, killed by the OOM killer)
    while results are awaited raises ChildProcessError.  Otherwise the spans run in the
    calling process.
    """
    spans = enumerate(range(lo, min(lo + size, n)) for lo in range(0, n, size))
    workers = min(usable_cpus(), -(-n // size))
    if workers < 2:
        yield from (task(span) for _, span in spans)
        return
    # imported here: at module level it would add ~20 ms to every command's start
    import multiprocessing
    from multiprocessing.connection import wait

    # fork, not spawn: workers start with pipedec imported (and patched as in the parent)
    context, procs, running, done = multiprocessing.get_context("fork"), {}, {}, {}

    def feed(conn) -> None:  # the next span, if any, to the worker at the other end of conn
        for running[conn], span in islice(spans, 1):
            conn.send(span)

    try:
        for _ in range(workers):
            conn, theirs = context.Pipe()
            proc = context.Process(target=_serve, args=(task, theirs), daemon=True)
            proc.start()  # first: the cleanup below can only terminate a started process
            procs[conn] = proc
            theirs.close()  # before the next fork, so that only this worker holds its end
            feed(conn)
        for index in range(-(-n // size)):
            while index not in done:
                for conn in wait(list(procs)):
                    try:  # an idle worker's pipe is readable only once the worker has died
                        done[running.pop(conn)] = conn.recv()
                        feed(conn)
                    except (EOFError, ConnectionError):  # only a dead worker closes its end
                        procs[conn].join()
                        raise ChildProcessError(
                            f"a worker process ended with exit code {procs[conn].exitcode}"
                        ) from None
            ok, value = done.pop(index)
            if not ok:
                raise value
            yield value
    finally:
        for proc in procs.values():
            proc.terminate()
        for proc in procs.values():
            proc.join()
