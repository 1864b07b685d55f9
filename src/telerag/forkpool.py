"""One fork pool: numbered tasks run in worker processes forked from the caller.

``fork_map(fn, n)`` returns ``[fn(0), ..., fn(n - 1)]``. It is for work that
holds the GIL (SHA-256 of short inputs, JSON encoding and decoding, generating
and grading association problems), which threads could not overlap; ingest
chunking, hash-test embedding and the association curve's blocks of problems
use it. The tasks run in ``min(usable CPUs, n)`` worker processes forked from
the caller, so a worker reaches ``fn`` and everything ``fn`` reads through the
memory it inherited at the fork: the caller sends a worker only task indices,
at most two ahead, and the worker sends back one pickled result or exception
per task. multiprocessing is imported only when there is a pool, so one-task
calls never load it.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, TypeVar

T = TypeVar("T")

AHEAD = 2  # task indices a worker holds at a time, so it never waits for the next


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
    (index, True, result) or (index, False, exception). The caller kills the
    worker when it needs no more; if the caller dies first, conn reaches its
    end and the worker returns."""
    for end in callers_ends:  # inherited at the fork; held open, they would hide the caller's exit
        end.close()
    with contextlib.suppress(EOFError, BrokenPipeError):
        while True:
            i = conn.recv()
            try:
                reply = (i, True, fn(i))
            except Exception as exc:
                reply = (i, False, exc)
            conn.send(reply)


def fork_map(fn: Callable[[int], T], n: int) -> list[T]:
    """[fn(0), ..., fn(n - 1)], in order, computed in worker processes forked
    from this one.

    The calling process runs the tasks itself, one after another, when there is
    one task, one usable CPU, or another thread in this process (a fork copies
    only the calling thread, so a lock another thread held would stay held in
    the worker). Otherwise the indices go out in ascending order; when a task
    raises, no further index goes out, the tasks already out finish, and the
    exception of the lowest failed index is raised again here with its type
    and message, the one a serial run would raise. A worker that exits
    before sending its result raises WorkerDiedError, an OSError. Every worker
    has exited when this returns or raises.
    """
    workers = min(_cpu_count(), n)
    if workers < 2 or threading.active_count() > 1:
        return [fn(i) for i in range(n)]
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    results: list = [None] * n
    failed: dict[int, Exception] = {}
    sent = done = 0
    procs = {}

    def give(conn) -> None:
        nonlocal sent
        if sent < n and not failed:
            with contextlib.suppress(BrokenPipeError):  # a dead worker shows as EOF below
                conn.send(sent)
            sent += 1

    try:
        for _ in range(workers):
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_serve, args=(fn, child_conn, [*procs, conn]))
            proc.start()
            procs[conn] = proc
            child_conn.close()
        for _ in range(AHEAD):
            for conn in procs:
                give(conn)
        while done < sent:
            for conn in wait(list(procs)):
                try:
                    i, ok, value = conn.recv()
                except (EOFError, OSError):  # OSError: the end of file came mid-message
                    proc = procs[conn]
                    proc.join()
                    raise WorkerDiedError(proc.exitcode) from None
                done += 1
                if ok:
                    results[i] = value
                else:
                    failed[i] = value
                give(conn)
        if failed:
            raise failed[min(failed)]
        return results
    finally:
        for conn, proc in procs.items():
            proc.kill()
            proc.join()
            conn.close()
