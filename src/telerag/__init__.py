"""telerag: retrieval-augmented evaluation toolkit for small language models.

Pipeline pieces: corpus chunking, pluggable embeddings, an exact top-k
vector store, RAG prompt assembly, an MCQ benchmark harness with
per-category accuracy reports, plus two telecom use cases (energy-model
fitting and a user-association reasoning probe).
"""

from .corpus import Chunk, Corpus, Document, chunk_document, count_tokens
from .embed import EmbeddingProviderConfig, cosine_similarity, embed_text, embed_texts
from .errors import (
    DataError,
    DegenerateDataError,
    DimensionMismatchError,
    DuplicateChunkError,
    FingerprintMismatchError,
    ModelError,
    ProviderError,
    StoreFormatError,
    TeleragError,
)
from .evalharness import (
    EvalReport,
    McqItem,
    ModelAnswer,
    load_dataset,
    render_prompt,
    score,
)
from .modelclient import Completion, ModelConfig, build_backend
from .rag import AugmentedPrompt, RagConfig, answer_with_rag, augment, build_query, run_evaluation
from .userassoc import AssocProblem, check_answer, generate_problem, oracle, render_problem_prompt

__version__ = "0.1.0"

# vstore imports numpy; it loads on first use of one of its names, so the
# commands that never touch a vector start without numpy.
_VSTORE_NAMES = ("SearchHit", "VectorRecord", "VectorStore")


def __getattr__(name: str):
    if name in _VSTORE_NAMES:
        from . import vstore

        return getattr(vstore, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AssocProblem",
    "AugmentedPrompt",
    "Chunk",
    "Completion",
    "Corpus",
    "DataError",
    "DegenerateDataError",
    "DimensionMismatchError",
    "Document",
    "DuplicateChunkError",
    "EmbeddingProviderConfig",
    "EvalReport",
    "FingerprintMismatchError",
    "McqItem",
    "ModelAnswer",
    "ModelConfig",
    "ModelError",
    "ProviderError",
    "RagConfig",
    "SearchHit",
    "StoreFormatError",
    "TeleragError",
    "VectorRecord",
    "VectorStore",
    "answer_with_rag",
    "augment",
    "build_backend",
    "build_query",
    "check_answer",
    "chunk_document",
    "cosine_similarity",
    "count_tokens",
    "embed_text",
    "embed_texts",
    "generate_problem",
    "load_dataset",
    "oracle",
    "render_problem_prompt",
    "render_prompt",
    "run_evaluation",
    "score",
]
