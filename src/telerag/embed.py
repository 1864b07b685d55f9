"""Text embedding providers and similarity math.

Two providers: an HTTP provider for real embedding models, and a
seeded-hash test provider that maps text to a pseudo-random unit vector
so the whole pipeline runs deterministically offline. Vectors are float32
numpy arrays; similarity is cosine, computed in float64. numpy is imported
by the functions that make or compare vectors, so importing this module
(as every command does) does not load it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import DataError, ProviderError
from .modelclient import json_headers

if TYPE_CHECKING:
    import numpy as np


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

    @property
    def fingerprint(self) -> str:
        """Identity of the vector space; stores reject queries from a different one."""
        if self.kind == "http":
            return f"http:{self.model_name}:{self.dims}"
        return f"hash-test:seed-{self.seed}:{self.dims}"


def _hash_test_vector(text: str, dims: int, seed: int) -> np.ndarray:
    """Pseudo-random unit vector derived from the text via counter-mode SHA-256.

    Generation is integer-only until the final normalization, so the result
    is bit-identical across runs and platforms.
    """
    import numpy as np

    payload = text.encode("utf-8")
    blob = b"".join(
        hashlib.sha256(b"hv1|%d|%d|%d|" % (seed, dims, counter) + payload).digest()
        for counter in range(-(-dims // 4))
    )
    # The float64 cast rounds each word once and dividing by 2**63 is exact, so
    # every value equals the correctly rounded Python-int quotient word / 2**63.
    values = np.frombuffer(blob, dtype="<u8", count=dims).astype(np.float64) / 2.0**63 - 1.0
    norm = math.sqrt(math.fsum((values * values).tolist()))
    if norm == 0.0:
        values[0] = 1.0
        norm = 1.0
    return (values / norm).astype(np.float32)


def _http_embed(cfg: EmbeddingProviderConfig, texts: Sequence[str]) -> list[np.ndarray]:
    import numpy as np
    import requests

    payload = {"model": cfg.model_name, "input": list(texts)}
    try:
        resp = requests.post(
            cfg.endpoint, json=payload, headers=json_headers(), timeout=cfg.timeout_s
        )
    except requests.RequestException as exc:
        raise ProviderError(f"embedding request failed: {exc}") from exc
    if resp.status_code != 200:
        raise ProviderError(f"embedding endpoint returned HTTP {resp.status_code}")
    try:
        data = resp.json()["data"]
        vectors = [np.asarray(item["embedding"], dtype=np.float32) for item in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise ProviderError(f"malformed embedding response: {exc}") from exc
    if len(vectors) != len(texts):
        raise ProviderError(f"expected {len(texts)} embeddings, got {len(vectors)}")
    for vec in vectors:
        if vec.shape != (cfg.dims,):
            raise ProviderError(f"embedding has {vec.shape[0]} dims, provider configured for {cfg.dims}")
        if not np.isfinite(vec).all():
            raise ProviderError("embedding contains non-finite components")
    return vectors


def embed_texts(cfg: EmbeddingProviderConfig, texts: Sequence[str]) -> list[np.ndarray]:
    """Embed a batch of texts; per-item results do not depend on batch order."""
    for text in texts:
        if not text.strip():
            raise ValueError("cannot embed empty text")
    if cfg.kind == "hash-test":
        return [_hash_test_vector(t, cfg.dims, cfg.seed) for t in texts]
    return _http_embed(cfg, texts)


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
