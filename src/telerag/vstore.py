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
queries embedded by a different provider. It is bound to the corpus file its
records were embedded from: it holds the SHA-256 of that file's bytes and the
byte offset of each record's line in it, so a reader can check the corpus in
one hashing pass and then parse only the lines its hits name. A store never
bound to a corpus holds an all-zero digest, which no file hashes to. File
layout (format version 2, all little-endian):

    magic "TRVS" | version u32 | dims u32 | count u64 |
    fingerprint (u32 length + UTF-8) | corpus SHA-256 (32 bytes) |
    ids (u64 length + UTF-8 JSON array of count strings) |
    count u64 corpus line offsets | count x dims float32 vectors

The prefix up to the fingerprint is the one of format version 1, so
``read_header`` reads either; ``load`` refuses any version but 2. Records are
written sorted by chunk_id, so the same record set always produces
byte-identical files.
"""

from __future__ import annotations

import json
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
FORMAT_VERSION = 2
# The digest of a store that is not bound to a corpus file.
UNBOUND = bytes(32)
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
        self.corpus_sha256 = UNBOUND
        # Corpus line offset of each row, in insertion order; None when unbound.
        self._offsets: np.ndarray | None = None

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
            self.corpus_sha256, self._offsets = UNBOUND, None

    def bind_corpus(self, sha256: bytes, offsets: Sequence[int]) -> None:
        """Record the corpus file the records were embedded from: its SHA-256
        and the byte offset of each record's line, in insertion order.
        Inserting another record drops the binding."""
        if len(sha256) != 32 or len(offsets) != len(self._ids):
            raise ValueError("need a 32-byte digest and one offset per record")
        with self._lock:
            self.corpus_sha256 = bytes(sha256)
            self._offsets = np.array(offsets, dtype=np.uint64)

    def corpus_offsets(self) -> dict[str, int]:
        """chunk_id -> byte offset of its line in the bound corpus (0 when unbound)."""
        if self._offsets is None:
            return dict.fromkeys(self._ids, 0)
        return dict(zip(self._ids, self._offsets.tolist()))

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
        n = len(self._ids)
        order = np.array(sorted(range(n), key=self._ids.__getitem__), dtype=np.intp)
        fp_bytes = self.provider_fingerprint.encode("utf-8")
        ids = json.dumps([self._ids[i] for i in order], ensure_ascii=False, separators=(",", ":"))
        id_bytes = ids.encode("utf-8")
        offsets = np.zeros(n, dtype="<u8") if self._offsets is None else self._offsets[order]
        f.write(MAGIC + struct.pack("<IIQI", FORMAT_VERSION, self.dims, n, len(fp_bytes)))
        f.write(fp_bytes + self.corpus_sha256 + struct.pack("<Q", len(id_bytes)) + id_bytes)
        f.write(offsets.astype("<u8").tobytes())
        f.write(self._rows[order].astype("<f4").tobytes())

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
        """Read a store file; wrong magic or version, truncation, trailing
        bytes and an ids block that is not a list of count strings raise
        StoreFormatError.

        The ids are one JSON array and the offsets and vectors one block each,
        so no step loops over the records in Python.
        """
        with open(path, "rb") as f:
            data = f.read()
        if data[:4] != MAGIC:
            raise StoreFormatError(f"not a vector store file (bad magic): {path}")
        if len(data) < 24:
            raise StoreFormatError(f"truncated store file: {path}")
        version, dims, count, fp_len = struct.unpack_from("<IIQI", data, 4)
        if version != FORMAT_VERSION:
            raise StoreFormatError(
                f"unsupported store format version {version}; re-run telerag embed"
            )
        digest_at = 24 + fp_len
        ids_at = digest_at + 40
        if ids_at > len(data):
            raise StoreFormatError(f"truncated store file: {path}")
        (ids_len,) = struct.unpack_from("<Q", data, digest_at + 32)
        offsets_at = ids_at + ids_len
        vectors_at = offsets_at + 8 * count
        end = vectors_at + 4 * dims * count
        if end > len(data):
            raise StoreFormatError(f"truncated store file: {path}")
        if end < len(data):
            raise StoreFormatError(f"trailing bytes after {count} records: {path}")
        try:
            ids = json.loads(data[ids_at:offsets_at].decode("utf-8"))
        except ValueError as exc:
            raise StoreFormatError(f"malformed ids block in {path}: {exc}") from None
        if not isinstance(ids, list) or len(ids) != count or set(map(type, ids)) - {str}:
            raise StoreFormatError(f"ids block of {path} is not a list of {count} strings")
        store = cls(dims=dims, provider_fingerprint=data[24:digest_at].decode("utf-8"))
        store._index = dict(zip(ids, range(count)))
        if len(store._index) != count:
            dup = next(c for i, c in enumerate(ids) if store._index[c] != i)
            raise DuplicateChunkError(f"chunk id already in store: {dup!r}")
        rows = np.frombuffer(data, "<f4", count * dims, vectors_at).reshape(count, dims)
        _check_vectors(ids, rows)
        store._ids = ids
        store._rows = rows
        store.corpus_sha256 = data[digest_at:ids_at - 8]
        store._offsets = np.frombuffer(data, "<u8", count, offsets_at)
        return store
