"""One fork pool: numbered tasks run in worker processes forked from the caller.

``fork_map(fn, n)`` returns ``[fn(0), ..., fn(n - 1)]``. It is only for work
that the caller's process computes and that holds the GIL (SHA-256 of short
inputs, JSON encoding and decoding, generating and grading association
problems), which threads could not overlap: ingest chunking, hash-test
embedding and the blocks of an association curve asked of a mock or a
transcript. An http model or embedding provider never runs in a worker: it
would only wait there, with as many requests in flight as there are CPUs. The
tasks run in ``min(usable CPUs, n)`` worker processes forked from the caller,
so a worker reaches ``fn`` and everything ``fn`` reads through the memory it
inherited at the fork: the caller sends a worker one task index at a time, from
a thread of modelclient.ordered, and the worker sends back one pickled result
or exception per task. multiprocessing is imported only when there is a pool,
so one-task calls never load it.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
from typing import Callable, TypeVar

T = TypeVar("T")

class WorkerDiedError(OSError):
    """A worker process exited, with exit code exitcode, before it sent back
    the result of its task."""

    def __init__(self, exitcode: int | None) -> None:
        super().__init__(f"a worker process died (exit code {exitcode})")
        self.exitcode = exitcode


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _serve(fn: Callable[[int], T], conn, callers_ends: list) -> None:
    """A worker's loop: run each task index that arrives and send back
    (True, result) or (False, exception). The worker ignores SIGINT and
    SIGTERM, so a signal to the process group leaves stopping it to the
    caller: the caller kills the worker when it needs no more, and if the
    caller dies first, conn reaches its end and the worker returns."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    for end in callers_ends:  # inherited at the fork; held open, they would hide the caller's exit
        end.close()
    with contextlib.suppress(EOFError, BrokenPipeError):
        while True:
            i = conn.recv()
            try:
                reply = (True, fn(i))
            except Exception as exc:
                reply = (False, exc)
            conn.send(reply)


def fork_map(fn: Callable[[int], T], n: int) -> list[T]:
    """[fn(0), ..., fn(n - 1)], in order, computed in worker processes forked
    from this one.

    The calling process runs the tasks itself, one after another, when there is
    one task, one usable CPU, or another thread in this process (a fork copies
    only the calling thread, so a lock another thread held would stay held in
    the worker). Otherwise every worker is forked first, and then the indices
    go out through modelclient.ordered, one thread per worker: its rule of
    ascending indices, of stopping after a failure and of raising the lowest
    failed index's exception (here with its type and message, the one a serial
    run would raise) holds here too. A worker that exits before sending its
    result raises WorkerDiedError, an OSError. Every worker has exited when
    this returns or raises.
    """
    workers = min(_cpu_count(), n)
    if workers < 2 or threading.active_count() > 1:
        return [fn(i) for i in range(n)]
    import multiprocessing

    from .modelclient import ordered

    ctx = multiprocessing.get_context("fork")
    pool: list = []  # (the caller's end of the pipe, the process), one per worker

    def call(slot: int, i: int):
        conn, proc = pool[slot]
        try:
            conn.send(i)
            ok, value = conn.recv()
        except (EOFError, OSError):  # OSError: a broken pipe, or the end of file came mid-message
            proc.join()
            raise WorkerDiedError(proc.exitcode) from None
        if ok:
            return value
        raise value

    try:
        for _ in range(workers):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(fn, child_conn, [*(c for c, _ in pool), conn]))
            proc.start()
            pool.append((conn, proc))
            child_conn.close()
        return ordered(call, n, workers)
    finally:
        for conn, proc in pool:
            proc.kill()
            proc.join()
            conn.close()
