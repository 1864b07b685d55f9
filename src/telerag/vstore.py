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

``search_many`` scores its queries in blocks of rows, sized so that a block
of float64 scores with one column per record stays within
``SCORE_BLOCK_BYTES`` (at least one query per block); a block has one
column per distinct vector, so it is no larger. Top-k selection takes the
maximum over each group of ``GROUP`` adjacent columns and gathers only the
columns of groups that can hold a top-k record, so its working memory is one
score block plus its group maxima and the gathered candidates, whatever the
number of queries; the ranking contract above does not depend on it. The
float64 scoring matrix and its norms are built once, under a lock, by the
first search after the records change.

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
# Adjacent score columns per group whose maximum top-k selection looks at first.
GROUP = 64


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
    """The records as search sees them: ids in ascending order and a float64
    matrix that holds every distinct vector once. The positions in ids of
    the records holding matrix row r are members[starts[r] : starts[r + 1]],
    ascending."""

    ids: list[str]
    matrix: np.ndarray
    norms: np.ndarray
    members: np.ndarray
    starts: np.ndarray


def _check_vectors(chunk_ids: Sequence[str], rows: np.ndarray) -> None:
    """Reject non-finite and zero vectors: cosine similarity is undefined for both."""
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise DataError(f"embedding for {chunk_ids[int(bad.argmax())]!r} has non-finite components")
    zero = ~rows.any(axis=1)
    if zero.any():
        raise DataError(f"embedding for {chunk_ids[int(zero.argmax())]!r} has zero norm")


def _distinct(rows: np.ndarray, step: int) -> np.ndarray:
    """Number the distinct rows of rows, equal when their bytes are equal.

    Sorting the rows as void scalars puts copies side by side; neighbours are
    compared step rows at a time, so no copy of all the rows is made.
    """
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    perm = np.argsort(keys)
    new = np.ones(len(keys), dtype=bool)
    for lo in range(1, len(keys), step):
        hi = min(len(keys), lo + step)
        new[lo:hi] = keys[perm[lo:hi]] != keys[perm[lo - 1 : hi - 1]]
    numbers = np.empty(len(keys), dtype=np.intp)
    numbers[perm] = np.cumsum(new) - 1
    return numbers


def _top_k(sims: np.ndarray, k: int, scoring: _Scoring) -> list[list[SearchHit]]:
    """Per row of sims (one column per matrix row): the k best records by
    (-score, position in ids).

    At least k columns, and so at least k records, score at least t, the k-th
    largest of the maxima over groups of GROUP adjacent columns (the last
    group may be shorter). So the best k records are among those whose column
    scores at least t, and such columns sit only in groups whose maximum is at
    least t: only those groups are gathered.
    """
    m, n = sims.shape
    gmax = np.maximum.reduceat(sims, np.arange(0, n, GROUP), axis=1)
    ng = gmax.shape[1]
    if k <= ng:
        t = np.partition(gmax, ng - k, axis=1)[:, ng - k, None]
    else:
        t = np.full((m, 1), -np.inf)
    rows, groups = np.nonzero(gmax >= t)
    cols = (groups[:, None] * GROUP + np.arange(GROUP)).ravel()
    rows = np.repeat(rows, GROUP)
    inside = cols < n
    rows, cols = rows[inside], cols[inside]
    scores = sims[rows, cols]
    keep = scores >= t[rows, 0]
    rows, cols, scores = rows[keep], cols[keep], scores[keep]
    # Expand each kept column to the records holding its vector.
    counts = scoring.starts[cols + 1] - scoring.starts[cols]
    offsets = np.repeat(scoring.starts[cols] - (np.cumsum(counts) - counts), counts)
    recs = scoring.members[offsets + np.arange(len(offsets))]
    rows, scores = np.repeat(rows, counts), np.repeat(scores, counts)
    order = np.lexsort((recs, -scores, rows))
    rows, recs, scores = rows[order], recs[order], scores[order]
    hits = []
    for start in np.searchsorted(rows, np.arange(m)).tolist():
        best = zip(recs[start : start + k].tolist(), scores[start : start + k].tolist())
        hits.append([
            SearchHit(chunk_id=scoring.ids[rec], score=min(1.0, max(-1.0, score)), rank=rank)
            for rank, (rec, score) in enumerate(best, start=1)
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
                n = len(self._ids)
                order = np.array(sorted(range(n), key=self._ids.__getitem__), dtype=np.intp)
                step = max(1, SCORE_BLOCK_BYTES // (8 * self.dims))
                vec = _distinct(self._rows[:n], step)[order]  # per record, ids ascending
                # Matrix rows follow first occurrence in chunk_id order, so the
                # matrix (and so the BLAS bits) does not depend on insertion order.
                firsts = np.sort(np.unique(vec, return_index=True)[1])
                renumber = np.empty_like(firsts)
                renumber[vec[firsts]] = np.arange(len(firsts))
                row_of = renumber[vec]
                members = np.argsort(row_of, kind="stable")
                starts = np.zeros(len(firsts) + 1, dtype=np.intp)
                np.cumsum(np.bincount(row_of), out=starts[1:])
                matrix = np.empty((len(firsts), self.dims))
                for lo in range(0, len(firsts), step):
                    matrix[lo : lo + step] = self._rows[order[firsts[lo : lo + step]]]
                norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
                self._scoring = _Scoring(
                    [self._ids[i] for i in order], matrix, norms, members, starts
                )
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
            hits += _top_k(sims, min(k, n), scoring)
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
