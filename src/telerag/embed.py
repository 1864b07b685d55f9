"""Text embedding providers and similarity math.

Two providers: an HTTP provider for real embedding models, and a
seeded-hash test provider that maps text to a pseudo-random unit vector
so the whole pipeline runs deterministically offline. ``embed_texts``
returns a batch as one C-contiguous float32 (len(texts), dims) matrix, one
row per text, for both providers; ``embed_chunk_file`` does the same for a
whole chunk JSONL file, each block parsing its own lines. Both go through one
block loop in blocks of ``EMBED_BLOCK`` texts: the HTTP provider sends one
``modelclient.post_json`` request per block from this process, one after
another with one attempt each, and each reply is checked for its shape and
for finite values as a whole; the hash-test provider's blocks go through
``forkpool.fork_map``, so several blocks are computed by worker processes
forked from this one, because its SHA-256 calls on short inputs hold the GIL
and threads would not overlap. Similarity is cosine, computed in
float64. numpy and the fork pool are imported by the functions that use
them, so importing this module (as every command does) loads neither."""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DataError, ModelError, ProviderError
from .modelclient import post_json

if TYPE_CHECKING:
    import numpy as np

    from .corpus import ChunkFile

EMBED_BLOCK = 64  # texts per HTTP request and per worker task


@dataclass(frozen=True)
class EmbeddingProviderConfig:
    """Configuration for an embedding provider.

    kind is "http" (remote model, requires endpoint and model_name) or
    "hash-test" (deterministic offline provider; seed selects the space).
    """

    kind: str
    dims: int
    endpoint: str | None = None
    model_name: str | None = None
    seed: int = 0
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in ("http", "hash-test"):
            raise ValueError(f"unknown provider kind: {self.kind!r}")
        if self.dims < 1:
            raise ValueError("dims must be positive")
        if self.kind == "http" and not (self.endpoint and self.model_name):
            raise ValueError("http provider requires endpoint and model_name")
        if not 0 < self.timeout_s < math.inf:
            raise ValueError("timeout_s must be a finite number > 0")

    @property
    def fingerprint(self) -> str:
        """Identity of the vector space; stores reject queries from a different one."""
        if self.kind == "http":
            return f"http:{self.model_name}:{self.dims}"
        return f"hash-test:seed-{self.seed}:{self.dims}"


@functools.lru_cache(maxsize=8)
def _prefix_hashes(seed: int, dims: int) -> tuple:
    """SHA-256 states that have taken each counter prefix ``b"hv1|seed|dims|counter|"``.

    Copying one costs less than starting a new hash; callers only copy them.
    """
    return tuple(
        hashlib.sha256(b"hv1|%d|%d|%d|" % (seed, dims, counter))
        for counter in range(-(-dims // 4))
    )


def _hash_test_vectors(texts: Sequence[str], dims: int, seed: int) -> np.ndarray:
    """Pseudo-random unit vectors, one row per text, via counter-mode SHA-256.

    Row i is built from the digests of ``b"hv1|seed|dims|counter|"`` + text i,
    counters 0, 1, ...; generation is integer-only until the final
    normalization, so every row is bit-identical across runs, platforms and
    batches.
    """
    import numpy as np

    prefixes = _prefix_hashes(seed, dims)
    digests = []
    for text in texts:
        payload = text.encode("utf-8")
        for prefix in prefixes:
            h = prefix.copy()
            h.update(payload)
            digests.append(h.digest())
    blob = b"".join(digests)
    words = np.frombuffer(blob, dtype="<u8").reshape(len(texts), 4 * len(prefixes))[:, :dims]
    # The float64 cast rounds each word once and dividing by 2**63 is exact, so
    # every value equals the correctly rounded Python-int quotient word / 2**63.
    values = words.astype(np.float64) / 2.0**63 - 1.0
    norms = [math.sqrt(math.fsum(row)) for row in (values * values).tolist()]
    for i, norm in enumerate(norms):
        if norm == 0.0:
            values[i, 0] = norms[i] = 1.0
    return (values / np.array(norms)[:, None]).astype(np.float32)


def _embed_block(cfg: EmbeddingProviderConfig, texts: Sequence[str]) -> np.ndarray:
    """The rows of one block of texts; an http reply is checked as a whole."""
    if cfg.kind == "hash-test":
        return _hash_test_vectors(texts, cfg.dims, cfg.seed)
    import numpy as np

    payload = {"model": cfg.model_name, "input": list(texts)}
    try:
        reply, _ = post_json(cfg.endpoint, payload, timeout_s=cfg.timeout_s)
    except ModelError as exc:
        raise ProviderError(f"embedding request failed: {exc}") from exc
    try:
        vectors = np.asarray([item["embedding"] for item in reply["data"]], dtype=np.float32)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProviderError(f"malformed embedding response: {exc}") from exc
    if vectors.shape != (len(texts), cfg.dims):
        raise ProviderError(
            f"expected {len(texts)} embeddings of {cfg.dims} dims, got an array of shape "
            f"{vectors.shape}"
        )
    if not np.isfinite(vectors).all():
        raise ProviderError("embedding contains non-finite components")
    return vectors


def _embed_blocks(
    cfg: EmbeddingProviderConfig, rows: int, block: Callable[[int], tuple[list[str], Sequence[str]]]
) -> tuple[list[str], np.ndarray]:
    """The keys and the one C-contiguous float32 (rows, cfg.dims) matrix of rows
    texts in blocks of EMBED_BLOCK; block(i) gives block i's key (a list, joined
    in block order) and its texts. Hash-test blocks run on forkpool.fork_map (a
    worker process that dies raises ProviderError), http blocks here, one
    request after another."""
    import numpy as np

    from . import forkpool

    def task(i: int) -> tuple[list[str], np.ndarray]:
        key, texts = block(i)
        if not all(text.strip() for text in texts):
            raise ValueError("cannot embed empty text")
        return key, _embed_block(cfg, texts)

    n = -(-rows // EMBED_BLOCK)
    try:
        done = forkpool.fork_map(task, n) if cfg.kind == "hash-test" else map(task, range(n))
    except forkpool.WorkerDiedError as exc:
        raise ProviderError(f"an embedding worker process died (exit code {exc.exitcode})") from exc
    keys: list[str] = []
    out = np.empty((rows, cfg.dims), dtype=np.float32)
    for i, (key, vectors) in enumerate(done):
        out[i * EMBED_BLOCK : (i + 1) * EMBED_BLOCK] = vectors
        keys += key
    return keys, out


def embed_texts(cfg: EmbeddingProviderConfig, texts: Sequence[str]) -> np.ndarray:
    """Embed a batch of texts into one C-contiguous float32 (len(texts), cfg.dims)
    matrix; a text's row does not depend on the rest of the batch. An empty text
    raises ValueError."""
    return _embed_blocks(
        cfg, len(texts), lambda i: ([], texts[i * EMBED_BLOCK : (i + 1) * EMBED_BLOCK])
    )[1]


def embed_chunk_file(
    cfg: EmbeddingProviderConfig, chunk_file: ChunkFile
) -> tuple[list[str], np.ndarray]:
    """The chunk ids of a chunk JSONL file and their rows, one C-contiguous
    float32 (chunks, cfg.dims) matrix, in file order.

    Each block parses its own EMBED_BLOCK chunk lines, so the hash-test
    provider's workers share the parse as well as the digests and send back
    only ids and rows.
    """

    def block(i: int) -> tuple[list[str], list[str]]:
        chunks = chunk_file.chunks(i * EMBED_BLOCK, (i + 1) * EMBED_BLOCK)
        return [c.chunk_id for c in chunks], [c.text for c in chunks]

    return _embed_blocks(cfg, len(chunk_file), block)


def embed_text(cfg: EmbeddingProviderConfig, text: str) -> np.ndarray:
    """Embed one text into a vector of length cfg.dims."""
    return embed_texts(cfg, [text])[0]


def provider_from_fingerprint(fingerprint: str) -> EmbeddingProviderConfig:
    """Reconstruct a provider config from a store fingerprint.

    Only the hash-test provider is fully described by its fingerprint; http
    providers need their endpoint supplied via explicit config.
    """
    parts = fingerprint.split(":")
    if len(parts) == 3 and parts[0] == "hash-test" and parts[1].startswith("seed-"):
        try:
            return EmbeddingProviderConfig(
                kind="hash-test", dims=int(parts[2]), seed=int(parts[1][5:])
            )
        except ValueError:
            pass
    raise DataError(
        f"cannot reconstruct provider from fingerprint {fingerprint!r}; "
        "pass an explicit provider config"
    )


def cosine_similarity(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """Cosine similarity in [-1, 1], computed in float64."""
    import numpy as np

    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for zero-norm vectors")
    return min(1.0, max(-1.0, float(va @ vb) / (na * nb)))
