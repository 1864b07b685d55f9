#!/usr/bin/env python3
"""Offline benchmark of the telerag pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload rag_eval --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in BENCHMARK.json. With --trace 0 every
`telerag` command runs in a fresh process, untraced, and the end-to-end
metrics are printed; with --trace 1 the same commands run in this process
through `telerag.cli.main` with spans around each module's public functions,
and the per-layer metrics are printed. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
details (environment, checks, output hashes, tails and their sample counts).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
COMMAND_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def code_digest() -> str:
    """Digest of the program and the benchmark, to key determinism records."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *SRC.rglob("*.jsonl"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, concurrency: int) -> dict:
    import numpy

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = out.stdout.strip() if out.returncode == 0 else None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "git_commit": commit,
            "seed": seed, "concurrency": concurrency}


class CliProcess:
    """Runs `telerag` commands in fresh processes and measures each one."""

    def __init__(self, logs: Path) -> None:
        self.logs = logs
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.count = 0

    def __call__(self, argv: list[str]) -> tuple[float, float]:
        """(wall seconds, peak RSS in MB); raises if the command fails."""
        self.count += 1
        out_path = self.logs / f"cmd{self.count:03d}.out"
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "telerag.cli", *argv],
                                    stdout=out, stderr=subprocess.STDOUT, env=self.env)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = out_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            raise CommandFailed(f"telerag {argv[0]} exited {proc.returncode}: {tail}")
        return wall, usage.ru_maxrss / 1024.0


class CliInProcess:
    """Runs `telerag` commands through `telerag.cli.main`, each inside a span."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.roots = []

    def __call__(self, argv: list[str]) -> tuple[float, float]:
        from telerag import cli

        with self.tracer.span("cli.main") as root, contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        self.roots.append(root)
        if rc != 0:
            raise CommandFailed(f"telerag {argv[0]} returned {rc}")
        return root.dur, 0.0


class CommandFailed(Exception):
    pass


class Determinism:
    """Output hashes must agree across repetitions in a run and across runs of
    the same code and seed (recorded under the work directory)."""

    def __init__(self, record: Path) -> None:
        self.record = record
        self.seen: dict[str, str] = {}
        self.problems: list[str] = []

    def add(self, outputs: dict[str, Path]) -> None:
        for name, path in outputs.items():
            digest = sha256_file(path)
            if self.seen.setdefault(name, digest) != digest:
                self.problems.append(f"{name} differs between repetitions")

    def finish(self) -> None:
        if self.record.exists():
            before = json.loads(self.record.read_text(encoding="utf-8"))
            for name, digest in self.seen.items():
                if before.get(name, digest) != digest:
                    self.problems.append(f"{name} differs from an earlier run with this seed")
            self.seen = {**before, **self.seen}
        self.record.parent.mkdir(parents=True, exist_ok=True)
        self.record.write_text(json.dumps(self.seen, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_setup(wl, run_cli) -> float:
    """One set-up of the workload from scratch; returns its wall time."""
    for path in wl.setup_outputs().values():
        path.unlink(missing_ok=True)
    start = time.perf_counter()
    for argv in wl.setup_argvs():
        run_cli(argv)
    return time.perf_counter() - start


def run_timed(wl, run_cli) -> tuple[float, float, int, list[str]]:
    """The timed command on fresh output paths: (wall s, peak RSS MB, failed items, problems)."""
    for path in wl.eval_outputs().values():
        path.unlink(missing_ok=True)
    wall, peak = run_cli(wl.eval_argv())
    return (wall, peak, *wl.check())


def within(seconds: float, step) -> list:
    """Call `step` until one more call of the average length so far would end
    after `seconds`; at least once. Returns the results."""
    out, start = [], time.perf_counter()
    while not out or (time.perf_counter() - start) * (len(out) + 1) / len(out) <= seconds:
        out.append(step())
    return out


def tally(wl, reps: list) -> dict:
    problems = []
    for *_, rep_problems in reps:
        problems += [p for p in rep_problems if p not in problems]
    return {"repetitions": len(reps), "items_per_s_each": [wl.n_items / r[0] for r in reps],
            "attempted": wl.n_items * len(reps), "failed": sum(r[2] for r in reps),
            "problems": problems}


def measure(wl, args) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics from fresh processes."""
    run_cli = CliProcess(wl.work)
    det = Determinism(WORK / "determinism" / f"{wl.name}-{args.seed}-{code_digest()[:16]}.json")
    setup_s = []
    for _ in range(wl.setup_reps):
        setup_s.append(run_setup(wl, run_cli))
        det.add(wl.setup_outputs())
    preflight = wl.preflight(run_cli)

    def step():
        rep = run_timed(wl, run_cli)
        det.add(wl.eval_outputs())
        return rep

    reps = within(args.seconds, step)
    det.finish()
    detail = tally(wl, reps)
    detail["problems"] = preflight + detail["problems"] + det.problems
    detail.update(setup_s_each=setup_s, peak_rss_mb_each=[r[1] for r in reps], hashes=det.seen)
    metrics = {"items_per_s": statistics.median(detail["items_per_s_each"]),
               "setup_s": statistics.median(setup_s),
               "peak_rss_mb": statistics.median(detail["peak_rss_mb_each"])}
    return metrics, detail


def measure_traced(wl, args) -> tuple[dict, dict]:
    """Traced run: per-layer metrics from spans, as medians over rounds. A round
    is the workload's telerag commands: the set-up commands, when they build
    something (the start-up is not traced), then the timed one. The spans of
    the last round are written out."""
    import tracing

    tracer = tracing.Tracer()
    run_cli = CliInProcess(tracer)
    traced_setup = bool(wl.setup_outputs())
    preflight = wl.preflight(CliProcess(wl.work))

    rounds, last = [], {}

    def step():
        if traced_setup:
            run_setup(wl, run_cli)
        rep = run_timed(wl, run_cli)
        last["spans"] = tracer.take()
        rounds.append(tracing.layer_metrics(last["spans"]))
        return rep

    with tracer.patched():
        reps = within(args.seconds, step)
    detail = tally(wl, reps)
    spans, notes = last["spans"], rounds[-1][1]
    metrics = {name: statistics.median(r[0][name] for r in rounds) for name in rounds[-1][0]}
    metrics["trace.items_per_s"] = statistics.median(detail["items_per_s_each"])
    want = wl.expected_status_counts()
    if want:
        got = [{s: r[0][f"evalharness.parse.{s}"] for s in want} for r in rounds]
        if any(g != want for g in got):
            detail["problems"].append(f"parse statuses {got[-1]}, want {want}")
    detail["problems"][:0] = preflight
    tracing.write_jsonl(spans, wl.work / "spans.jsonl")
    detail.update(tails=notes,
                  timed_command_self_share=tracing.layer_self_shares(spans, run_cli.roots[-1]))
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "telerag" / "cli.py").is_file():
        print(f"error: telerag sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed, len(os.sched_getaffinity(0)))
    wl.prepare()
    try:
        metrics, detail = (measure_traced if args.trace else measure)(wl, args)
    except (CommandFailed, tracing.MissingPatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    attempted, failed = detail["attempted"], detail["failed"]
    detail.update(workload=wl.name, environment=environment(args.seed, wl.concurrency),
                  inputs=wl.facts, failed_share=failed / attempted)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not detail["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
