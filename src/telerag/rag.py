"""Retrieve-augment-generate orchestration.

Builds the retrieval query from an MCQ item, fetches top-k chunks within a
token budget, prepends them to the standard MCQ prompt, and runs the model.
With retrieval disabled the pipeline degrades to plain prompting with
byte-identical prompts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .corpus import Chunk, Tokenizer, count_tokens
from .embed import EmbeddingProviderConfig, embed_text
from .errors import DataError, FingerprintMismatchError
from .evalharness import McqItem, ModelAnswer, parse_answer_for_item, render_prompt
from .modelclient import ModelBackend, run_items

if TYPE_CHECKING:  # numpy comes with vstore; plain evaluation never loads it
    from .vstore import SearchHit, VectorStore

QUERY_MODES = ("question_only", "question_plus_options")
# One encoder for every audit line; json.dumps would build a new one per call.
_encode_line = json.JSONEncoder(ensure_ascii=False).encode


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
class AugmentedPrompt:
    """Final prompt text plus the chunk ids it embeds, in rank order."""

    context_chunk_ids: tuple[str, ...]
    prompt_text: str


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
    exceeds the budget. Each query is embedded on its own; all are scored
    in one search_many call.
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
    for hits in store.search_many(vectors, cfg.k):
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


def _retrieve_items(
    store: VectorStore | None,
    provider: EmbeddingProviderConfig | None,
    items: Sequence[McqItem],
    cfg: RagConfig,
    chunks: Mapping[str, Chunk] | None,
) -> list[list[tuple[Chunk, SearchHit]]]:
    if store is None:
        return [[] for _ in items]
    if provider is None or chunks is None:
        raise ValueError("retrieval needs provider and chunks alongside the store")
    queries = [build_query(item, cfg.query_mode) for item in items]
    return retrieve_many(store, provider, queries, cfg, chunks)


def augment(item: McqItem, context: Sequence[Chunk]) -> AugmentedPrompt:
    """Prepend context chunks (rank order, blank-line separated) to the MCQ prompt.

    With no context the result is exactly the plain MCQ prompt.
    """
    base = render_prompt(item)
    if not context:
        return AugmentedPrompt(context_chunk_ids=(), prompt_text=base)
    body = "\n\n".join(c.text for c in context)
    return AugmentedPrompt(
        context_chunk_ids=tuple(c.chunk_id for c in context),
        prompt_text=f"Context:\n{body}\n\n{base}",
    )


def answer_with_rag(
    backend: ModelBackend,
    store: VectorStore | None,
    provider: EmbeddingProviderConfig | None,
    item: McqItem,
    cfg: RagConfig | None = None,
    *,
    chunks: Mapping[str, Chunk] | None = None,
    tokenizer: Tokenizer | None = None,
    strict_parse: bool = False,
    retrieved: Sequence[tuple[Chunk, SearchHit]] | None = None,
) -> ItemResult:
    """Run one item through retrieve → augment → generate → parse.

    store=None disables retrieval and evaluates the plain prompt. A caller
    that already ran retrieve_many for this item passes its entry as
    retrieved, which then takes the place of the retrieval step.
    """
    cfg = cfg or RagConfig()
    if retrieved is None:
        retrieved = _retrieve_items(store, provider, [item], cfg, chunks)[0]
    prompt = augment(item, [c for c, _ in retrieved])
    completion = backend.complete(prompt.prompt_text)
    answer = parse_answer_for_item(completion.text, item, strict=strict_parse)
    return ItemResult(
        answer=answer,
        context_chunk_ids=prompt.context_chunk_ids,
        context_scores=tuple(hit.score for _, hit in retrieved),
        prompt_token_estimate=count_tokens(prompt.prompt_text, tokenizer),
    )


def run_evaluation(
    backend: ModelBackend,
    items: Sequence[McqItem],
    *,
    store: VectorStore | None = None,
    provider: EmbeddingProviderConfig | None = None,
    chunks: Mapping[str, Chunk] | None = None,
    cfg: RagConfig | None = None,
    concurrency: int = 4,
    tokenizer: Tokenizer | None = None,
    strict_parse: bool = False,
) -> list[ItemResult]:
    """Evaluate every item; model failures mark the item errored, never skip it.

    Results come back in dataset order regardless of completion order.
    Retrieval for all items runs first, in one batch.
    """
    cfg = cfg or RagConfig()
    contexts = _retrieve_items(store, provider, items, cfg, chunks)

    def one(pair: tuple[McqItem, list[tuple[Chunk, SearchHit]]]) -> ItemResult:
        item, retrieved = pair
        return answer_with_rag(
            backend,
            store,
            provider,
            item,
            cfg,
            chunks=chunks,
            tokenizer=tokenizer,
            strict_parse=strict_parse,
            retrieved=retrieved,
        )

    def errored(pair: tuple[McqItem, list[tuple[Chunk, SearchHit]]]) -> ItemResult:
        return ItemResult(
            answer=ModelAnswer(
                item_id=pair[0].item_id,
                raw_text="",
                parsed_index=None,
                parse_status="unparsed",
                errored=True,
            ),
            context_chunk_ids=(),
            context_scores=(),
            prompt_token_estimate=0,
        )

    return run_items(one, list(zip(items, contexts)), concurrency, errored)


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
