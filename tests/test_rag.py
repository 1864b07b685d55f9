from __future__ import annotations

import json
import threading
import time

import pytest

from telerag.corpus import Chunk, chunk_map, count_tokens
from telerag.embed import EmbeddingProviderConfig, embed_text
from telerag.errors import FingerprintMismatchError, ModelError
from telerag.evalharness import McqItem, render_prompt, score
from telerag.modelclient import Completion, ConstantBackend, prompt_sha256
from telerag.rag import (
    RagConfig,
    answer_with_rag,
    augment,
    build_query,
    retrieve_many,
    run_evaluation,
    write_audit_log,
)
from telerag.vstore import VectorRecord, VectorStore

PROVIDER = EmbeddingProviderConfig(kind="hash-test", dims=32, seed=7)


def make_item(i: int = 0) -> McqItem:
    return McqItem(
        item_id=f"q{i}",
        category="Standards specifications",
        question=f"What is X{i}?",
        options=(f"A{i}", f"B{i}"),
        correct_index=2,
    )


def make_chunk(chunk_id: str, text: str) -> Chunk:
    return Chunk(
        chunk_id=chunk_id,
        doc_id=chunk_id.split("#")[0],
        seq=0,
        text=text,
        token_count=count_tokens(text),
    )


def build_store(chunks):
    store = VectorStore(dims=PROVIDER.dims, provider_fingerprint=PROVIDER.fingerprint)
    for chunk in chunks:
        store.insert(VectorRecord(chunk_id=chunk.chunk_id, embedding=embed_text(PROVIDER, chunk.text)))
    return store


class EchoBackend:
    """Records prompts and answers with a constant reply."""

    def __init__(self, reply: str = "1. A"):
        self.reply = reply
        self.prompts: list[str] = []

    def complete(self, prompt: str) -> Completion:
        self.prompts.append(prompt)
        return Completion(text=self.reply)


class FailingBackend:
    def complete(self, prompt: str) -> Completion:
        raise ModelError("backend down")


def test_build_query_modes():
    item = McqItem(item_id="q", category="Lexicon", question="What is X?",
                   options=("A", "B"), correct_index=1)
    assert build_query(item, "question_plus_options") == "What is X?\n1. A\n2. B"
    assert build_query(item, "question_only") == "What is X?"


def test_build_query_flattens_newlines_in_options():
    item = McqItem(item_id="q", category="Lexicon", question="What is X?",
                   options=("A\nwith newline", "B"), correct_index=1)
    assert build_query(item, "question_plus_options") == "What is X?\n1. A with newline\n2. B"


def test_rag_config_validation():
    with pytest.raises(ValueError):
        RagConfig(k=0)
    with pytest.raises(ValueError):
        RagConfig(query_mode="telepathy")
    assert RagConfig().k == 3
    assert RagConfig().max_context_tokens == 1536


def test_augment_empty_context_is_plain_prompt():
    item = make_item()
    assert augment(item, []) == render_prompt(item)


def test_augment_orders_chunks_and_is_deterministic():
    item = make_item()
    chunks = [make_chunk("d#0", "first chunk text"), make_chunk("d#1", "second chunk text")]
    prompt = augment(item, chunks)
    assert prompt == (
        "Context:\nfirst chunk text\n\nsecond chunk text\n\n" + render_prompt(item)
    )
    assert augment(item, chunks) == prompt


def test_retrieve_context_budget_keeps_whole_chunks():
    texts = {
        "a#0": "alpha " * 512,
        "b#0": "beta " * 512,
        "c#0": "gamma " * 512,
    }
    chunks = [make_chunk(cid, text.strip()) for cid, text in texts.items()]
    store = build_store(chunks)
    cfg = RagConfig(k=3, max_context_tokens=1024)
    kept = retrieve_many(store, PROVIDER, ["alpha beta gamma"], cfg, chunk_map(chunks))[0]
    assert len(kept) == 2
    assert sum(c.token_count for c, _ in kept) <= 1024


def test_retrieve_context_rank1_kept_even_over_budget():
    chunks = [make_chunk("big#0", "word " * 900)]
    store = build_store(chunks)
    cfg = RagConfig(k=1, max_context_tokens=10)
    kept = retrieve_many(store, PROVIDER, ["word word"], cfg, chunk_map(chunks))[0]
    assert [c.chunk_id for c, _ in kept] == ["big#0"]


def test_retrieve_context_k1_matches_store_search():
    chunks = [make_chunk(f"c{i}#0", f"chunk number {i} about topic {i}") for i in range(20)]
    store = build_store(chunks)
    query = "chunk number 7 about topic 7"
    kept = retrieve_many(store, PROVIDER, [query], RagConfig(k=1), chunk_map(chunks))[0]
    expected = store.search(embed_text(PROVIDER, query), k=1)
    assert [c.chunk_id for c, _ in kept] == [expected[0].chunk_id]


def test_retrieve_asks_no_more_hits_than_the_budget_holds(monkeypatch):
    # Every chunk holds at least one token, so at most max_context_tokens chunks fit.
    chunks = [make_chunk(f"c{i}#0", f"w{i}") for i in range(20)]
    store = build_store(chunks)
    asked = []
    search_many = VectorStore.search_many
    monkeypatch.setattr(VectorStore, "search_many",
                        lambda self, queries, k: asked.append(k) or search_many(self, queries, k))
    cfg = RagConfig(k=100_000, max_context_tokens=5)
    kept = retrieve_many(store, PROVIDER, ["w3"], cfg, chunk_map(chunks))[0]
    assert asked == [5]
    expected = search_many(store, [embed_text(PROVIDER, "w3")], 20)[0][:5]
    assert [hit for _, hit in kept] == expected


def test_retrieve_context_rejects_provider_mismatch():
    chunks = [make_chunk("a#0", "some text")]
    store = build_store(chunks)
    other = EmbeddingProviderConfig(kind="hash-test", dims=32, seed=8)
    with pytest.raises(FingerprintMismatchError):
        retrieve_many(store, other, ["q"], RagConfig(), chunk_map(chunks))


def test_empty_store_degrades_to_plain_prompting():
    item = make_item()
    store = VectorStore(dims=PROVIDER.dims, provider_fingerprint=PROVIDER.fingerprint)
    backend = EchoBackend()
    contexts = retrieve_many(store, PROVIDER, [build_query(item)], RagConfig(), {})
    run_evaluation(backend, [item], contexts, concurrency=1)
    assert backend.prompts == [render_prompt(item)]


def test_disabled_rag_matches_plain_evaluation_prompts():
    items = [make_item(i) for i in range(3)]
    backend = EchoBackend()
    run_evaluation(backend, items, None, concurrency=1)
    assert backend.prompts == [render_prompt(it) for it in items]


def test_answer_with_rag_parses_scripted_reply():
    item = make_item()
    result = answer_with_rag(f"2. {item.options[1]}", item=item)
    assert (result.item_id, result.parsed_index, result.parse_status) == ("q0", 2, "leading_number")
    assert result.correct and not result.errored
    strict = answer_with_rag(f"It is {item.options[1]}", item=item, strict_parse=True)
    assert (strict.parsed_index, strict.correct) == (None, False)


def test_run_evaluation_marks_model_failures_errored():
    items = [make_item(i) for i in range(3)]
    results = run_evaluation(FailingBackend(), items, concurrency=1)
    assert all(r.answer.errored for r in results)
    report = score(items, [r.answer for r in results])
    assert report.overall.errored == 3
    assert report.overall.accuracy_percent == 0.0


def test_run_evaluation_concurrency_preserves_order_and_results():
    items = [make_item(i) for i in range(16)]
    serial = run_evaluation(ConstantBackend("2. B"), items, concurrency=1)
    parallel = run_evaluation(ConstantBackend("2. B"), items, concurrency=4)
    assert serial == parallel
    assert [r.answer.item_id for r in parallel] == [it.item_id for it in items]


def test_audit_log_fields(tmp_path):
    items = [make_item(0)]
    chunks = [make_chunk("a#0", "context words here")]
    store = build_store(chunks)
    contexts = retrieve_many(store, PROVIDER, [build_query(items[0])], RagConfig(k=1),
                             chunk_map(chunks))
    results = run_evaluation(ConstantBackend("2. B0"), items, contexts, concurrency=1)
    path = tmp_path / "audit.jsonl"
    write_audit_log(results, path)
    rec = json.loads(path.read_text().strip())
    assert rec["item_id"] == "q0"
    assert rec["context_chunk_ids"] == ["a#0"]
    assert len(rec["scores"]) == 1
    assert rec["raw_model_output"] == "2. B0"
    assert rec["prompt_token_estimate"] > 0


class HashReplyBackend:
    """Picks option 1 or 2 from the prompt's hash after a prompt-dependent sleep,
    so threaded runs finish out of order; fails some prompts with ModelError and
    counts the calls in flight."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def complete(self, prompt: str) -> Completion:
        digest = int(prompt_sha256(prompt), 16)
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(0.005 + (digest % 7) * 0.002)
        with self.lock:
            self.in_flight -= 1
        if digest % 5 == 0:
            raise ModelError("flaky")
        return Completion(text=f"{1 + digest % 2}.")


def test_run_evaluation_threads_match_serial_with_errors():
    items = [make_item(i) for i in range(30)]
    serial = run_evaluation(HashReplyBackend(), items, concurrency=1)
    threaded_backend = HashReplyBackend()
    threaded = run_evaluation(threaded_backend, items, concurrency=3)
    assert threaded == serial
    assert [r.answer.item_id for r in threaded] == [it.item_id for it in items]
    assert any(r.answer.errored for r in serial)
    assert {r.answer.parsed_index for r in serial if not r.answer.errored} == {1, 2}
    assert threaded_backend.max_in_flight == 3


def test_run_evaluation_propagates_non_model_errors():
    class BrokenBackend:
        def complete(self, prompt: str) -> Completion:
            raise RuntimeError("bug, not a model failure")

    for concurrency in (1, 4):
        with pytest.raises(RuntimeError, match="bug"):
            run_evaluation(BrokenBackend(), [make_item(i) for i in range(8)],
                           concurrency=concurrency)
