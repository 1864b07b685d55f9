"""Spans around telerag's public functions, and the per-layer metrics made from them.

The benchmark's traced run installs `Tracer.patched()`: each listed function
or method is replaced where the program looks it up (for example both
`telerag.embed.embed_text` and `telerag.rag.embed_text`) by a wrapper that
records a span. Spans are kept in memory per thread and written out once,
after the run. Self time is a span's duration minus the part of it covered
by its children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class MissingPatch(Exception):
    pass


class Tracer:
    """Collects spans; worker-thread spans with no open parent hang off the
    open "ambient" span (the run_evaluation or run_curve call that owns the pool)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lists: list[list[Span]] = []
        self._lists_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._ambient: Span | None = None

    def _thread_state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack, loc.spans = [], []
            with self._lists_lock:
                self._lists.append(loc.spans)
        return loc

    @contextlib.contextmanager
    def span(self, name: str, item: str | None = None, ambient: bool = False):
        loc = self._thread_state()
        parent = loc.stack[-1] if loc.stack else self._ambient
        if item is None and parent is not None:
            item = parent.item
        sp = Span(next(self._ids), name, 0.0, 0.0, parent.sid if parent else None, item,
                  threading.get_ident())
        loc.stack.append(sp)
        if ambient:
            self._ambient = sp
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.info["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            if ambient:
                self._ambient = None
            loc.stack.pop()
            loc.spans.append(sp)

    def take(self) -> list[Span]:
        """The spans closed so far, in opening order; they are dropped here."""
        with self._lists_lock:
            spans = [s for lst in self._lists for s in lst]
            for lst in self._lists:
                lst.clear()
        return sorted(spans, key=lambda s: s.sid)

    def wrap(self, name, fn, item_of=None, on_result=None, ambient=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, item_of(args, kwargs) if item_of else None, ambient) as sp:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(sp, args, out)
                return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers of PATCHES for the duration of the block. An
        entry the program no longer has raises MissingPatch, so a renamed or
        moved function fails the traced run instead of reading as zero."""
        saved = []
        try:
            for module, attr, name, opts in PATCHES:
                owner = importlib.import_module("telerag." + module)
                cls_name, _, attr_name = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                raw = vars(owner).get(attr_name) if owner is not None else None
                if raw is None:
                    raise MissingPatch(f"telerag.{module}.{attr} not found; update PATCHES")
                fn = getattr(owner, attr_name)
                saved.append((owner, attr_name, raw))
                wrapped = self.wrap(name, fn, **opts)
                setattr(owner, attr_name, staticmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            yield self
        finally:
            for owner, attr_name, raw in reversed(saved):
                setattr(owner, attr_name, raw)


def _record_len(sp: Span, args, out) -> None:
    sp.info["n"] = len(out)


def _record_size(sp: Span, args, out) -> None:
    sp.info["bytes"] = os.path.getsize(args[1])


def _record_search(sp: Span, args, out) -> None:
    sp.info["rows"] = len(args[0])
    sp.info["hits"] = len(out)


def _record_completion(sp: Span, args, out) -> None:
    sp.info["attempts"] = out.attempt_count


def _record_parse(sp: Span, args, out) -> None:
    sp.info["status"] = out.parse_status


def _item_id(args, kwargs) -> str:
    # answer_with_rag(backend, store, provider, item, ...)
    return (args[3] if len(args) > 3 else kwargs["item"]).item_id


def _problem_id(args, kwargs) -> str:
    return args[0].problem_id

# (module, attribute where the program looks it up, span name, wrapper options)
PATCHES = [
    ("corpus", "Corpus.ingest", "corpus.ingest", {}),
    ("corpus", "Corpus.chunk_all", "corpus.chunk_all", {"on_result": _record_len}),
    ("corpus", "write_chunks_jsonl", "corpus.write_chunks_jsonl", {}),
    ("corpus", "read_chunks_jsonl", "corpus.read_chunks_jsonl", {}),
    ("corpus", "chunk_map", "corpus.chunk_map", {}),
    ("rag", "count_tokens", "corpus.count_tokens", {}),
    ("embed", "embed_texts", "embed.embed_texts", {"on_result": _record_len}),
    ("embed", "embed_text", "embed.embed_text", {}),
    ("rag", "embed_text", "embed.embed_text", {}),
    ("vstore", "VectorStore.insert", "vstore.insert", {}),
    ("vstore", "VectorStore.save", "vstore.save", {"on_result": _record_size}),
    ("vstore", "VectorStore.load", "vstore.load", {}),
    ("vstore", "VectorStore.search", "vstore.search", {"on_result": _record_search}),
    ("rag", "run_evaluation", "rag.run_evaluation", {"ambient": True}),
    ("rag", "answer_with_rag", "rag.answer_with_rag", {"item_of": _item_id}),
    ("rag", "write_audit_log", "rag.write_audit_log", {}),
    ("cli", "build_backend", "model.build_backend", {}),
    ("modelclient", "TranscriptBackend.__init__", "model.load", {}),
    ("modelclient", "TranscriptBackend.complete", "model.complete",
     {"on_result": _record_completion}),
    ("evalharness", "load_dataset", "evalharness.load_dataset", {}),
    ("rag", "render_prompt", "evalharness.render_prompt", {}),
    ("rag", "parse_answer_for_item", "evalharness.parse", {"on_result": _record_parse}),
    ("evalharness", "score", "evalharness.score", {}),
    ("evalharness", "write_report_json", "evalharness.write_report_json", {}),
    ("userassoc", "run_curve", "userassoc.run_curve", {"ambient": True}),
    ("userassoc", "generate_problem", "userassoc.generate_problem", {}),
    ("userassoc", "render_problem_prompt", "userassoc.render_problem_prompt",
     {"item_of": _problem_id}),
    ("userassoc", "check_answer", "userassoc.check_answer", {"item_of": _problem_id}),
    ("userassoc", "curve_csv", "userassoc.curve_csv", {}),
]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    return {s.sid: s.dur - _covered(kids.get(s.sid, []), s.start, s.end) for s in spans}


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float | None]:
    """(value, percentile) at the highest listed percentile with at least ten
    samples above it; (0.0, None) when there are too few samples."""
    for p in TAIL_CANDIDATES:
        if len(values) - math.ceil(p / 100 * len(values)) >= 10:
            return percentile(values, p), p
    return 0.0, None


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps(dataclasses.asdict(s)) + "\n")


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one round of commands, plus notes on the tails used."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    names = {s.sid: s.name for s in spans}

    def total(name):
        return sum(s.dur for s in by_name[name])

    def self_of(layer):
        return sum(own[s.sid] for s in spans if s.name.split(".")[0] == layer)

    build = [s for s in by_name["embed.embed_texts"] if names.get(s.parent) != "embed.embed_text"]
    build_s = sum(s.dur for s in build)
    built_texts = sum(s.info["n"] for s in build)
    searches = by_name["vstore.search"]
    search_ms = [s.dur * 1e3 for s in searches]
    item_ms = [s.dur * 1e3 for s in by_name["rag.answer_with_rag"]]
    completes = by_name["model.complete"]
    statuses = defaultdict(int)
    for s in by_name["evalharness.parse"]:
        statuses[s.info.get("status")] += 1
    search_tail, search_p = tail(search_ms)
    item_tail, item_p = tail(item_ms)
    run_eval = total("rag.run_evaluation")
    hits = sum(s.info["hits"] for s in searches)

    m = {
        "cli.self_s": self_of("cli"),
        "corpus.chunk_s": total("corpus.chunk_all"),
        "corpus.write_s": total("corpus.write_chunks_jsonl"),
        "corpus.read_s": total("corpus.read_chunks_jsonl") + total("corpus.chunk_map"),
        "corpus.chunks": sum(s.info["n"] for s in by_name["corpus.chunk_all"]),
        "embed.build_s": build_s,
        "embed.query_s": total("embed.embed_text"),
        "embed.calls": len(by_name["embed.embed_texts"]),
        "vstore.insert_s": sum(s.dur for s in by_name["vstore.insert"]
                               if names.get(s.parent) != "vstore.load"),
        "vstore.save_s": total("vstore.save"),
        "vstore.load_s": total("vstore.load"),
        "vstore.search_s": total("vstore.search"),
        "vstore.searches": len(searches),
        "vstore.store_bytes": sum(s.info["bytes"] for s in by_name["vstore.save"]),
        "rag.self_s": self_of("rag"),
        "model.calls": len(completes),
        "model.busy_s": total("model.complete"),
        "model.load_s": total("model.load"),
        "model.retries": sum(s.info.get("attempts", 1) - 1 for s in completes),
        "model.misses": sum(1 for s in completes if s.info.get("error") == "TranscriptMissError"),
        "evalharness.load_s": total("evalharness.load_dataset"),
        "evalharness.parse_s": total("evalharness.parse"),
        "evalharness.score_s": total("evalharness.score"),
        "evalharness.write_s": total("evalharness.write_report_json"),
        "userassoc.generate_s": total("userassoc.generate_problem"),
        "userassoc.render_s": total("userassoc.render_problem_prompt"),
        "userassoc.check_s": total("userassoc.check_answer"),
        "userassoc.problems": len(by_name["userassoc.generate_problem"]),
    }
    for status in ("leading_number", "embedded_number", "text_match", "unparsed"):
        m[f"evalharness.parse.{status}"] = statuses[status]
    m.update({
        "embed.build_texts_per_s": built_texts / build_s if build_s else 0.0,
        "vstore.search_ms_p50": percentile(search_ms, 50) if search_ms else 0.0,
        "vstore.search_ms_tail": search_tail,
        "vstore.rows_per_hit": sum(s.info["rows"] for s in searches) / hits if hits else 0.0,
        "rag.item_ms_p50": percentile(item_ms, 50) if item_ms else 0.0,
        "rag.item_ms_tail": item_tail,
        "rag.overlap": sum(item_ms) / 1e3 / run_eval if run_eval else 0.0,
    })
    notes = {
        "vstore.search_ms_tail": {"percentile": search_p, "samples": len(search_ms)},
        "rag.item_ms_tail": {"percentile": item_p, "samples": len(item_ms)},
    }
    return m, notes


def layer_self_shares(spans: list[Span], root: Span) -> dict[str, float]:
    """Each layer's share of the self time of one command's spans. Commands run
    one after another, so its spans are those inside its interval. Spans in
    worker threads overlap, so the base is the summed self time, not wall time."""
    inside = [s for s in spans if root.start <= s.start and s.end <= root.end]
    own = self_times(inside)
    per_layer: dict[str, float] = defaultdict(float)
    for s in inside:
        per_layer[s.name.split(".")[0]] += own[s.sid]
    base = sum(per_layer.values())
    return {k: v / base for k, v in sorted(per_layer.items(), key=lambda kv: -kv[1])}
