from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from telerag import forkpool
from telerag.errors import DataError


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks fork_map makes; three usable CPUs."""
    made = []
    real_fork = os.fork

    def counted_fork():
        made.append(1)
        return real_fork()

    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 3)
    monkeypatch.setattr(os, "fork", counted_fork)
    return made


def test_results_come_back_in_task_order(forks):
    parent = os.getpid()

    def task(i):
        time.sleep(0.002 * (12 - i))  # later tasks finish first
        return i * i, os.getpid()

    results = forkpool.fork_map(task, 12)
    assert [r for r, _ in results] == [i * i for i in range(12)]
    assert parent not in {pid for _, pid in results}
    assert len(forks) == 3
    assert multiprocessing.active_children() == []


def test_tasks_reach_state_inherited_at_fork(forks):
    # A closure over a large object: nothing but indices is sent to the workers.
    texts = [f"text {i}" for i in range(5000)]
    assert forkpool.fork_map(lambda i: texts[i * 1000 : (i + 1) * 1000], 5) == [
        texts[i * 1000 : (i + 1) * 1000] for i in range(5)
    ]


def no_fork():
    raise AssertionError("forked")


@pytest.mark.parametrize("cpus, n", [(1, 5), (3, 1), (3, 0)])
def test_one_cpu_or_one_task_runs_here(monkeypatch, cpus, n):
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "fork", no_fork)
    assert forkpool.fork_map(lambda i: (i, os.getpid()), n) == [(i, os.getpid()) for i in range(n)]


def test_runs_here_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 3)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert forkpool.fork_map(lambda i: (i, os.getpid()), 6) == [(i, os.getpid()) for i in range(6)]
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()


class _Odd(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 3])
def test_task_exception_is_raised_again_with_type_and_message(monkeypatch, cpus):
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: cpus)

    def task(i):
        if i == 4:
            raise DataError("corpus.jsonl:257: malformed chunk record")
        return i

    with pytest.raises(DataError, match=r"^corpus\.jsonl:257: malformed chunk record$"):
        forkpool.fork_map(task, 9)
    assert multiprocessing.active_children() == []


def test_lowest_failed_task_wins(forks):
    # Task 6 fails at once; task 2 fails later. A serial run raises task 2's error.
    def task(i):
        if i == 2:
            time.sleep(0.2)
            raise _Odd("task 2")
        if i == 6:
            raise ValueError("task 6")
        return i

    with pytest.raises(_Odd, match="^task 2$"):
        forkpool.fork_map(task, 30)
    assert multiprocessing.active_children() == []


def test_worker_that_dies_raises_worker_died_error(forks):
    def task(i):
        if i == 5:
            os._exit(7)
        return i

    with pytest.raises(forkpool.WorkerDiedError, match=r"exit code 7") as info:
        forkpool.fork_map(task, 10)
    assert isinstance(info.value, OSError) and info.value.exitcode == 7
    assert multiprocessing.active_children() == []


def test_worker_that_dies_before_its_first_task_raises_worker_died_error(monkeypatch):
    # A send to a worker that has already exited fails with a broken pipe; that
    # is its death too, not an error of its own.
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)
    monkeypatch.setattr(forkpool, "_serve", lambda *args: os._exit(3))
    with pytest.raises(forkpool.WorkerDiedError, match=r"exit code 3") as info:
        forkpool.fork_map(lambda i: i, 10)
    assert info.value.exitcode == 3
    assert multiprocessing.active_children() == []


def test_lower_failed_task_wins_over_a_worker_that_dies(monkeypatch):
    # Task 5's worker exits while task 2 is still running; a serial run raises task 2's error.
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)

    def task(i):
        if i == 2:
            time.sleep(0.2)
            raise _Odd("task 2")
        if i == 5:
            os._exit(7)
        return i

    with pytest.raises(_Odd, match="^task 2$"):
        forkpool.fork_map(task, 10)
    assert multiprocessing.active_children() == []


def test_workers_are_forked_before_any_thread_starts():
    # In a child process, so the fork hook does not outlive the test.
    script = (
        "import os, sys, threading, warnings\n"
        "if sys.version_info >= (3, 12):  # a fork of a multi-threaded process warns\n"
        "    warnings.simplefilter('error', DeprecationWarning)\n"
        "from telerag import forkpool\n"
        "forkpool._cpu_count = lambda: 2\n"
        "threads = []\n"
        "os.register_at_fork(before=lambda: threads.append(threading.active_count()))\n"
        "assert forkpool.fork_map(lambda i: i * i, 6) == [i * i for i in range(6)]\n"
        "print(threads)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[1, 1]\n", "")


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states from /proc")
def test_workers_exit_when_the_caller_is_killed(tmp_path):
    pids = tmp_path / "pids"
    script = (
        "import os, sys, time\n"
        "from telerag import forkpool\n"
        "forkpool._cpu_count = lambda: 2\n"
        "def task(i):\n"
        "    with open(sys.argv[1], 'a') as f:\n"
        "        f.write(f'{os.getpid()}\\n')\n"
        "    time.sleep(0.2)\n"
        "forkpool.fork_map(task, 100)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    caller = subprocess.Popen([sys.executable, "-c", script, str(pids)], env=env)
    workers: set[int] = set()
    deadline = time.monotonic() + 30
    while len(workers) < 2 and time.monotonic() < deadline:
        time.sleep(0.05)
        if pids.exists():
            workers = {int(p) for p in pids.read_text().split()}
    caller.kill()
    caller.wait(timeout=30)
    assert len(workers) == 2
    try:
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
