"""Exact top-k vector store.

A brute-force inner-product scan in the style of FAISS ``IndexFlatIP``:
every query is scored against every record by float64 cosine similarity,
so results are exact and reproducible. The ranking contract:

- hits come in descending score order, and equal scores break on
  ascending chunk_id;
- records holding the same vector are scored once, so they always tie
  exactly, whatever the BLAS kernel does with their positions;
- ``search(q, k)`` is ``search_many([q], k)[0]``. A query's scores may
  differ in the last bits between batches of different sizes, because
  BLAS picks its kernel by shape.

``search_many`` scores its queries in blocks of rows, so that one block's
float64 query-by-record score matrix stays within ``SCORE_BLOCK_BYTES``
(at least one query per block). Its working memory is a small multiple of
that bound, whatever the number of queries. The float64 scoring matrix and
its norms are built once, under a lock, by the first search after the
records change.

The store file records the embedding provider fingerprint and rejects
queries embedded by a different provider. File layout (format version 1,
all little-endian):

    magic "TRVS" | version u32 | dims u32 | count u64 |
    fingerprint (u32 length + UTF-8) |
    count records of: chunk_id (u32 length + UTF-8) + dims float32

Records are written sorted by chunk_id, so the same record set always
produces byte-identical files.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .errors import (
    DataError,
    DimensionMismatchError,
    DuplicateChunkError,
    StoreFormatError,
)

MAGIC = b"TRVS"
FORMAT_VERSION = 1
# Cap on one block of float64 scores (queries x records) in search_many.
SCORE_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class VectorRecord:
    """One stored embedding, keyed by chunk id."""

    chunk_id: str
    embedding: np.ndarray


@dataclass(frozen=True)
class SearchHit:
    """A ranked search result; ranks are contiguous from 1."""

    chunk_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class _Scoring:
    """The records as search sees them: ids in ascending order, each mapped
    to its row of a float64 matrix that holds every distinct vector once."""

    ids: list[str]
    matrix: np.ndarray
    norms: np.ndarray
    row_of: np.ndarray


def _check_vectors(chunk_ids: Sequence[str], rows: np.ndarray) -> None:
    """Reject non-finite and zero vectors: cosine similarity is undefined for both."""
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise DataError(f"embedding for {chunk_ids[int(bad.argmax())]!r} has non-finite components")
    zero = ~rows.any(axis=1)
    if zero.any():
        raise DataError(f"embedding for {chunk_ids[int(zero.argmax())]!r} has zero norm")


def _top_k(sims: np.ndarray, k: int, ids: list[str]) -> list[list[SearchHit]]:
    """Per row of sims (one column per id, ids ascending): the k best columns
    by (-score, column), chosen among those scoring at least the k-th score."""
    n = sims.shape[1]
    kth = np.partition(sims, n - k, axis=1)[:, n - k, None]
    rows, cols = np.nonzero(sims >= kth)
    scores = sims[rows, cols]
    order = np.lexsort((cols, -scores, rows))
    rows, cols, scores = rows[order], cols[order], scores[order]
    hits = []
    for start in np.searchsorted(rows, np.arange(len(sims))).tolist():
        best = zip(cols[start : start + k].tolist(), scores[start : start + k].tolist())
        hits.append([
            SearchHit(chunk_id=ids[col], score=min(1.0, max(-1.0, score)), rank=rank)
            for rank, (col, score) in enumerate(best, start=1)
        ])
    return hits


class VectorStore:
    """In-memory vector store with exact cosine top-k search."""

    def __init__(self, dims: int, provider_fingerprint: str) -> None:
        if dims < 1:
            raise ValueError("dims must be positive")
        self.dims = dims
        self.provider_fingerprint = provider_fingerprint
        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        # float32 rows in insertion order; capacity grows by doubling.
        self._rows = np.empty((0, dims), dtype=np.float32)
        self._scoring: _Scoring | None = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ids)

    def insert(self, record: VectorRecord) -> None:
        """Add a record; duplicate ids, wrong dimensions and zero or
        non-finite vectors are rejected."""
        vec = np.asarray(record.embedding, dtype=np.float32)
        if vec.ndim != 1 or vec.shape[0] != self.dims:
            raise DimensionMismatchError(
                f"vector has {vec.shape[-1] if vec.ndim else 0} dims, store expects {self.dims}"
            )
        if not (np.isfinite(vec).all() and np.count_nonzero(vec)):  # cheaper than the block check
            _check_vectors([record.chunk_id], vec[None])
        with self._lock:
            if record.chunk_id in self._index:
                raise DuplicateChunkError(f"chunk id already in store: {record.chunk_id!r}")
            n = len(self._ids)
            if n == len(self._rows):
                grown = np.empty((max(64, 2 * n), self.dims), dtype=np.float32)
                grown[:n] = self._rows
                self._rows = grown
            self._rows[n] = vec
            self._index[record.chunk_id] = n
            self._ids.append(record.chunk_id)
            self._scoring = None

    def _prepare(self) -> _Scoring:
        with self._lock:
            if self._scoring is None:
                order = sorted(range(len(self._ids)), key=self._ids.__getitem__)
                distinct: dict[bytes, int] = {}
                row_of = np.fromiter(
                    (distinct.setdefault(self._rows[i].tobytes(), len(distinct)) for i in order),
                    dtype=np.intp,
                    count=len(order),
                )
                matrix = np.frombuffer(b"".join(distinct), dtype=np.float32)
                matrix = matrix.reshape(len(distinct), self.dims).astype(np.float64)
                norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
                self._scoring = _Scoring([self._ids[i] for i in order], matrix, norms, row_of)
            return self._scoring

    def search(self, query: Sequence[float] | np.ndarray, k: int) -> list[SearchHit]:
        """Exact top-k by cosine similarity; ties break on ascending chunk_id."""
        q = np.asarray(query, dtype=np.float64)
        if q.ndim != 1:
            raise DimensionMismatchError(
                f"query has {q.shape[-1] if q.ndim else 0} dims, store expects {self.dims}"
            )
        return self.search_many(q[None], k)[0]

    def search_many(
        self, queries: Sequence[Sequence[float]] | np.ndarray, k: int
    ) -> list[list[SearchHit]]:
        """search() for each row of queries, scored in blocks of rows."""
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != self.dims:
            raise DimensionMismatchError(
                f"queries have {q.shape[-1] if q.ndim else 0} dims, store expects {self.dims}"
            )
        if not np.isfinite(q).all():
            raise DataError("query vector has non-finite components")
        qnorms = np.sqrt(np.einsum("ij,ij->i", q, q))
        if not qnorms.all():
            raise DataError("query vector has zero norm")
        if not self._ids:
            return [[] for _ in range(len(q))]
        scoring = self._prepare()
        n = len(scoring.ids)
        step = max(1, SCORE_BLOCK_BYTES // (8 * n))
        hits: list[list[SearchHit]] = []
        for lo in range(0, len(q), step):
            sims = q[lo : lo + step] @ scoring.matrix.T
            sims /= scoring.norms
            sims /= qnorms[lo : lo + step, None]
            hits += _top_k(sims[:, scoring.row_of], min(k, n), scoring.ids)
        return hits

    def save(self, path: str | Path) -> None:
        """Write the store to disk in canonical (chunk_id-sorted) order."""
        with open(path, "wb") as f:
            self._write(f)

    def _write(self, f: BinaryIO) -> None:
        fp_bytes = self.provider_fingerprint.encode("utf-8")
        f.write(MAGIC)
        f.write(struct.pack("<IIQ", FORMAT_VERSION, self.dims, len(self._ids)))
        f.write(struct.pack("<I", len(fp_bytes)))
        f.write(fp_bytes)
        for chunk_id in sorted(self._ids):
            id_bytes = chunk_id.encode("utf-8")
            f.write(struct.pack("<I", len(id_bytes)))
            f.write(id_bytes)
            f.write(self._rows[self._index[chunk_id]].tobytes())

    @classmethod
    def read_header(cls, path: str | Path) -> tuple[int, int, int, str]:
        """(version, dims, count, fingerprint) without loading the records."""
        with open(path, "rb") as f:
            head = f.read(20)
            if len(head) < 20 or head[:4] != MAGIC:
                raise StoreFormatError(f"not a vector store file (bad magic): {path}")
            version, dims, count = struct.unpack("<IIQ", head[4:20])
            fp_len_raw = f.read(4)
            if len(fp_len_raw) < 4:
                raise StoreFormatError(f"truncated store file: {path}")
            (fp_len,) = struct.unpack("<I", fp_len_raw)
            fp_bytes = f.read(fp_len)
            if len(fp_bytes) < fp_len:
                raise StoreFormatError(f"truncated store file: {path}")
        return version, dims, count, fp_bytes.decode("utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "VectorStore":
        """Read a store file; wrong magic, version, or truncation raise StoreFormatError.

        Only the ids are parsed one by one; the vectors become one block,
        checked in one pass.
        """
        with open(path, "rb") as f:
            data = f.read()
        if data[:4] != MAGIC:
            raise StoreFormatError(f"not a vector store file (bad magic): {path}")
        if len(data) < 24:
            raise StoreFormatError(f"truncated store file: {path}")
        version, dims, count = struct.unpack_from("<IIQ", data, 4)
        if version != FORMAT_VERSION:
            raise StoreFormatError(f"unsupported store format version {version}")
        (fp_len,) = struct.unpack_from("<I", data, 20)
        pos = 24 + fp_len
        if pos > len(data):
            raise StoreFormatError(f"truncated store file: {path}")
        store = cls(dims=dims, provider_fingerprint=data[24:pos].decode("utf-8"))
        view = memoryview(data)
        vectors = []
        for i in range(count):
            if pos + 4 > len(data):
                raise StoreFormatError(f"truncated store file: {path}")
            (id_len,) = struct.unpack_from("<I", data, pos)
            id_end = pos + 4 + id_len
            pos = id_end + 4 * dims
            if pos > len(data):
                raise StoreFormatError(f"truncated store file: {path}")
            chunk_id = data[id_end - id_len : id_end].decode("utf-8")
            if store._index.setdefault(chunk_id, i) != i:
                raise DuplicateChunkError(f"chunk id already in store: {chunk_id!r}")
            store._ids.append(chunk_id)
            vectors.append(view[id_end:pos])
        if pos != len(data):
            raise StoreFormatError(f"trailing bytes after {count} records: {path}")
        rows = np.frombuffer(b"".join(vectors), dtype="<f4").reshape(count, dims)
        _check_vectors(store._ids, rows)
        store._rows = rows
        return store
