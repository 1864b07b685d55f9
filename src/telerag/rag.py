"""Retrieve-augment-generate orchestration.

retrieve_contexts is the one place that binds a RAG run to its store, corpus
and provider: it checks them and returns each query's top-k chunks within a
token budget. run_evaluation prepends each item's chunks to the standard MCQ
prompt (without contexts the prompts are the plain ones), sends every prompt
through modelclient.ask, and grades each completion with answer_with_rag.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from . import QUERY_MODES
from .corpus import Chunk, CorpusLines, _encode_line, count_tokens, file_sha256
from .embed import EmbeddingProviderConfig, embed_text, provider_from_fingerprint
from .errors import DataError, FingerprintMismatchError
from .evalharness import McqItem, ModelAnswer, parse_answer_for_item, render_prompt
from .modelclient import Completion, ModelBackend, ask

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


@dataclass(frozen=True)
class ItemResult:
    """Per-item evaluation outcome with retrieval audit fields."""

    answer: ModelAnswer
    context_chunk_ids: tuple[str, ...]
    context_scores: tuple[float, ...]
    prompt_token_estimate: int


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


def answer_with_rag(
    completion: Completion | None,
    *,
    item: McqItem,
    retrieved: Sequence[tuple[Chunk, SearchHit]],
    prompt: str,
    strict_parse: bool = False,
) -> ItemResult:
    """Grade one item: parse its completion and attach the retrieval audit fields.

    retrieved holds the item's chunks and hits, best-ranked first, and prompt
    is what augment made of them. A None completion (the model failed) marks
    the item errored, with no context.
    """
    if completion is None:
        return ItemResult(ModelAnswer(item.item_id, "", None, "unparsed", errored=True), (), (), 0)
    return ItemResult(
        answer=parse_answer_for_item(completion.text, item, strict=strict_parse),
        context_chunk_ids=tuple(c.chunk_id for c, _ in retrieved),
        context_scores=tuple(hit.score for _, hit in retrieved),
        prompt_token_estimate=count_tokens(prompt),
    )


def run_evaluation(
    backend: ModelBackend,
    items: Sequence[McqItem],
    contexts: Sequence[Sequence[tuple[Chunk, SearchHit]]] | None = None,
    *,
    concurrency: int = 4,
    strict_parse: bool = False,
) -> list[ItemResult]:
    """Answer every item; model failures mark the item errored, never skip it.

    contexts holds one list per item of its chunks and hits, best-ranked
    first, as retrieve_contexts returns them; without it every item gets the
    plain prompt. All prompts are rendered, then asked at once, then graded,
    so results come back in dataset order regardless of completion order.
    """
    if contexts is None:
        contexts = [()] * len(items)
    prompts = [augment(item, [c for c, _ in retrieved])
               for item, retrieved in zip(items, contexts, strict=True)]
    completions = ask(backend, prompts, concurrency)
    # item goes by keyword: the benchmark's tracer reads it from kwargs.
    return [answer_with_rag(completion, item=item, retrieved=retrieved, prompt=prompt,
                            strict_parse=strict_parse)
            for completion, item, retrieved, prompt in zip(completions, items, contexts, prompts)]


def write_audit_log(results: Sequence[ItemResult], path: str | Path) -> None:
    """One JSON line per item: retrieval audit plus the raw model output."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for res in results:
            rec = {
                "item_id": res.answer.item_id,
                "context_chunk_ids": list(res.context_chunk_ids),
                "scores": [round(s, 8) for s in res.context_scores],
                "prompt_token_estimate": res.prompt_token_estimate,
                "raw_model_output": res.answer.raw_text,
            }
            f.write(_encode_line(rec) + "\n")
