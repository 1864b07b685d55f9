"""telerag: retrieval-augmented evaluation toolkit for small language models.

Pipeline pieces: corpus chunking, pluggable embeddings, an exact top-k
vector store, RAG prompt assembly, an MCQ benchmark harness with
per-category accuracy reports, plus two telecom use cases (energy-model
fitting and a user-association reasoning probe). Each name is imported from
its module (``from telerag.vstore import VectorStore``), so ``import telerag``
alone loads no submodule, and no numpy.
"""

__version__ = "0.1.0"

# Values the command-line parser shares with a command module; they live here
# so that building the parser imports no command module.
DEFAULT_CHUNK_SIZE = 512
MAX_STATIONS = 26
QUERY_MODES = ("question_only", "question_plus_options")

