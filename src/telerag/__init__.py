"""telerag: retrieval-augmented evaluation toolkit for small language models.

Pipeline pieces: corpus chunking, pluggable embeddings, an exact top-k
vector store, RAG prompt assembly, an MCQ benchmark harness with
per-category accuracy reports, plus two telecom use cases (energy-model
fitting and a user-association reasoning probe).
"""

import importlib

__version__ = "0.1.0"

# Values the command-line parser shares with a command module; they live here
# so that building the parser imports no command module.
DEFAULT_CHUNK_SIZE = 512
MAX_STATIONS = 26
QUERY_MODES = ("question_only", "question_plus_options")

# Each public name's home module. A module loads the first time one of its names
# is used, so `import telerag` alone loads no submodule (and no numpy, which
# vstore brings).
_HOME = {
    name: module
    for module, names in {
        "corpus": ("Chunk", "Corpus", "Document", "chunk_document", "count_tokens"),
        "embed": ("EmbeddingProviderConfig", "cosine_similarity", "embed_text", "embed_texts"),
        "errors": (
            "DataError", "DegenerateDataError", "DimensionMismatchError", "DuplicateChunkError",
            "FingerprintMismatchError", "ModelError", "ProviderError", "StoreFormatError",
            "TeleragError",
        ),
        "evalharness": (
            "EvalReport", "McqItem", "ModelAnswer", "load_dataset", "render_prompt", "score",
        ),
        "modelclient": ("Completion", "ModelConfig", "build_backend"),
        "rag": ("RagConfig", "answer_with_rag", "augment", "build_query", "run_evaluation"),
        "userassoc": (
            "AssocProblem", "check_answer", "generate_problem", "oracle", "render_problem_prompt",
        ),
        "vstore": ("SearchHit", "VectorRecord", "VectorStore"),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
