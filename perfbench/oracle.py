"""Retrieval oracle for the rag_eval workload, in numpy and independent of telerag.

It re-implements the hash-test embedding from its specification (counter-mode
SHA-256 words scaled to [-1, 1), norm by `math.fsum`, cast to float32), scores
every chunk by exact float64 cosine, breaks ties on ascending chunk_id and
applies the RagConfig token budget, keeping the rank-1 chunk always.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def hash_test_vectors(texts: list[str], dims: int, seed: int) -> np.ndarray:
    """float32 [len(texts), dims] matrix, bit-identical to the hash-test provider."""
    n_digests = -(-dims // 4)
    out = np.empty((len(texts), dims), dtype=np.float32)
    for row, text in enumerate(texts):
        payload = text.encode("utf-8")
        blob = b"".join(
            hashlib.sha256(b"hv1|%d|%d|%d|" % (seed, dims, c) + payload).digest()
            for c in range(n_digests)
        )
        values = np.frombuffer(blob, dtype="<u8")[:dims].astype(np.float64) / 2.0**63 - 1.0
        norm = math.sqrt(math.fsum((values * values).tolist()))
        if norm == 0.0:
            values[0], norm = 1.0, 1.0
        out[row] = (values / norm).astype(np.float32)
    return out


class Retrieval:
    """Exact top-k over a fixed chunk set."""

    def __init__(self, chunk_ids: list[str], texts: list[str], dims: int, seed: int) -> None:
        self.dims, self.seed = dims, seed
        self.token_counts = np.array([len(t.split()) for t in texts])
        # Equal texts get one row, so duplicates score exactly equal.
        unique: dict[str, int] = {}
        self.row_of = np.array([unique.setdefault(t, len(unique)) for t in texts])
        self.matrix = hash_test_vectors(list(unique), dims, seed).astype(np.float64)
        self.norms = np.linalg.norm(self.matrix, axis=1)
        order = sorted(range(len(chunk_ids)), key=chunk_ids.__getitem__)
        self.id_rank = np.empty(len(chunk_ids), dtype=np.int64)
        self.id_rank[order] = np.arange(len(chunk_ids))

    def top_k(
        self, queries: list[str], k: int, max_context_tokens: int, block: int = 64
    ) -> list[list[tuple[int, float]]]:
        """Per query, the kept (chunk position, clamped score) pairs in rank order."""
        q = hash_test_vectors(queries, self.dims, self.seed).astype(np.float64)
        qnorms = np.linalg.norm(q, axis=1)
        out = []
        for start in range(0, len(queries), block):
            sims = (q[start : start + block] @ self.matrix.T) / (
                qnorms[start : start + block, None] * self.norms[None, :]
            )
            for row in sims[:, self.row_of]:
                kth = -np.partition(-row, k - 1)[k - 1]
                cand = np.flatnonzero(row >= kth)
                ranked = cand[np.lexsort((self.id_rank[cand], -row[cand]))][:k]
                out.append(self._budget(ranked, row, max_context_tokens))
        return out

    def _budget(self, ranked: np.ndarray, row: np.ndarray, budget: int) -> list[tuple[int, float]]:
        kept = []
        for pos in ranked:
            if kept and budget < self.token_counts[pos]:
                break
            kept.append((int(pos), min(1.0, max(-1.0, float(row[pos])))))
            budget -= self.token_counts[pos]
        return kept
