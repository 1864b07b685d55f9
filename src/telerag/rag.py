"""Retrieve-augment-generate orchestration.

retrieve_contexts is the one place that binds a RAG run to its store, corpus
and provider: it checks them and returns each query's top-k chunks within a
token budget. run_evaluation prepends each item's chunks to the standard MCQ
prompt (without contexts the prompts are the plain ones) and asks and grades
them through evalharness.ask_and_grade with answer_with_rag.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from . import QUERY_MODES
from .corpus import Chunk, CorpusLines, _encode_line, count_tokens, file_sha256
from .embed import EmbeddingProviderConfig, embed_text, provider_from_fingerprint
from .errors import DataError, FingerprintMismatchError
from .evalharness import McqItem, ModelAnswer, ask_and_grade, parse_answer_for_item, render_prompt
from .modelclient import ModelBackend

if TYPE_CHECKING:  # numpy comes with vstore; plain evaluation never loads it
    from .vstore import SearchHit, VectorStore


@dataclass(frozen=True)
class RagConfig:
    """Retrieval parameters: top-k, context token budget, query construction."""

    k: int = 3
    max_context_tokens: int = 1536
    query_mode: str = "question_plus_options"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_context_tokens < 1:
            raise ValueError("max_context_tokens must be >= 1")
        if self.query_mode not in QUERY_MODES:
            raise ValueError(f"unknown query_mode: {self.query_mode!r}")


def build_query(item: McqItem, mode: str = "question_plus_options") -> str:
    """Retrieval query text: the question stem, optionally followed by the options."""
    if mode not in QUERY_MODES:
        raise ValueError(f"unknown query_mode: {mode!r}")
    if mode == "question_only":
        return item.question
    lines = [item.question]
    for i, option in enumerate(item.options, start=1):
        lines.append(f"{i}. {' '.join(option.splitlines())}")
    return "\n".join(lines)


def retrieve_many(
    store: VectorStore,
    provider: EmbeddingProviderConfig,
    queries: Sequence[str],
    cfg: RagConfig,
    chunks: Mapping[str, Chunk],
) -> list[list[tuple[Chunk, SearchHit]]]:
    """Per query, the top-k chunks and their hits within the token budget, best-ranked first.

    Whole chunks only; the rank-1 chunk is always kept even if it alone
    exceeds the budget. A chunk holds at least one token, so no more than
    max_context_tokens chunks fit and no more hits are asked for. Each query
    is embedded on its own; all are scored in one search_many call.
    """
    if provider.fingerprint != store.provider_fingerprint:
        raise FingerprintMismatchError(
            f"store was built with provider {store.provider_fingerprint!r}, "
            f"query uses {provider.fingerprint!r}"
        )
    if not queries:
        return []
    vectors = [embed_text(provider, query) for query in queries]
    contexts = []
    for hits in store.search_many(vectors, min(cfg.k, cfg.max_context_tokens)):
        kept: list[tuple[Chunk, SearchHit]] = []
        budget = cfg.max_context_tokens
        for hit in hits:
            if hit.chunk_id not in chunks:
                raise DataError(f"store references chunk {hit.chunk_id!r} missing from the corpus")
            chunk = chunks[hit.chunk_id]
            if kept and budget - chunk.token_count < 0:
                break
            kept.append((chunk, hit))
            budget -= chunk.token_count
        contexts.append(kept)
    return contexts


# What a RAG run is bound to, in the order the manifest and the report record it.
SETTINGS = ("k", "max_context_tokens", "query_mode", "provider_fingerprint", "corpus_sha256")


def retrieve_contexts(
    store_path: str,
    corpus_path: str,
    provider: EmbeddingProviderConfig | None,
    queries: Sequence[str],
    cfg: RagConfig,
) -> tuple[list[list[tuple[Chunk, SearchHit]]], dict]:
    """retrieve_many over the store at store_path, with chunk texts read from
    corpus_path, plus the run's SETTINGS.

    The corpus must be the file the store was embedded from; provider defaults
    to the one the store's fingerprint names and must match it.
    """
    from .vstore import VectorStore

    with open(corpus_path, "rb") as corpus_file:
        store = VectorStore.load(store_path)
        if file_sha256(corpus_file) != store.corpus_sha256:
            raise DataError(
                f"{corpus_path} is not the corpus {store_path} was embedded from; "
                "re-run telerag embed"
            )
        provider = provider or provider_from_fingerprint(store.provider_fingerprint)
        chunks = CorpusLines(corpus_file, store.corpus_offsets())
        contexts = retrieve_many(store, provider, queries, cfg, chunks)
    settings = (cfg.k, cfg.max_context_tokens, cfg.query_mode, provider.fingerprint,
                store.corpus_sha256.hex())
    return contexts, dict(zip(SETTINGS, settings))


def augment(item: McqItem, context: Sequence[Chunk]) -> str:
    """The MCQ prompt with the context chunks (rank order, blank-line separated) before it.

    With no context the result is exactly the plain MCQ prompt.
    """
    base = render_prompt(item)
    if not context:
        return base
    body = "\n\n".join(c.text for c in context)
    return f"Context:\n{body}\n\n{base}"


def answer_with_rag(text: str, *, item: McqItem, strict_parse: bool = False) -> ModelAnswer:
    """The grader run_evaluation passes to ask_and_grade: item's record of the reply text."""
    return parse_answer_for_item(text, item, strict=strict_parse)


class AskedItem(NamedTuple):
    """An item's graded record beside the chunks and hits its prompt holds, and that prompt."""

    answer: ModelAnswer
    retrieved: Sequence[tuple[Chunk, SearchHit]]
    prompt: str


def run_evaluation(
    backend: ModelBackend,
    items: Sequence[McqItem],
    contexts: Sequence[Sequence[tuple[Chunk, SearchHit]]] | None = None,
    *,
    concurrency: int = 4,
    strict_parse: bool = False,
) -> list[AskedItem]:
    """Answer every item; model failures mark the item errored, never skip it.

    contexts holds one list per item of its chunks and hits, best-ranked
    first, as retrieve_contexts returns them; without it every item gets the
    plain prompt. All prompts are rendered, then asked and graded at once, so
    results come back in dataset order regardless of completion order.
    """
    if contexts is None:
        contexts = [()] * len(items)
    prompts = [augment(item, [c for c, _ in retrieved])
               for item, retrieved in zip(items, contexts, strict=True)]
    # item goes by keyword: the benchmark's tracer reads it from kwargs.
    answers = ask_and_grade(
        backend, prompts, [item.item_id for item in items],
        lambda i, text: answer_with_rag(text, item=items[i], strict_parse=strict_parse),
        concurrency)
    return list(map(AskedItem, answers, contexts, prompts))


def write_audit_log(results: Sequence[AskedItem], path: str | Path) -> None:
    """One JSON line per item: retrieval audit plus the raw model output."""
    lines = []
    for answer, retrieved, prompt in results:
        if answer.errored:  # never graded (evalharness.ask_and_grade)
            retrieved, prompt = (), ""
        rec = {
            "item_id": answer.item_id,
            "context_chunk_ids": [c.chunk_id for c, _ in retrieved],
            "scores": [round(hit.score, 8) for _, hit in retrieved],
            "prompt_token_estimate": count_tokens(prompt),
            "raw_model_output": answer.raw_text,
        }
        lines.append(_encode_line(rec) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")
