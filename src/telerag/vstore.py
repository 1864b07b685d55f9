"""Exact top-k vector store.

A brute-force inner-product scan in the style of FAISS ``IndexFlatIP``:
every query is scored against every record, so results are exact and
reproducible. The ranking contract:

- a hit's score is the float64 cosine of the query and that record alone,
  (q . y) / |y| / |q| with y cast to float64, so it depends only on those
  two vectors: records holding the same vector always tie exactly, and a
  query gets bit-identical hits in every batch, so ``search(q, k)`` equals
  ``search_many([q], k)[0]``;
- a query's hits come as a list, best first: in descending score order,
  equal scores breaking on ascending chunk_id.

Each record's float64 norm is computed once, by the check that admits the
record to the store. Float64 scores are computed only for the few records a
float32 screen cannot rule out. Each ``search_many`` call builds the float32
unit rows fl32(y / |y|), normalised in float64 so that no component exceeds 1
however large the stored ones are, normalises each query the same way and
scores its queries in blocks of rows with one float32 matmul each, a block
sized so that its float32 scores, one column per record, stay within
``SCORE_BLOCK_BYTES`` (at least one query per block).

How far a screen score can sit from the cosine: with u = 2^-24, n = dims and
x, y the exact unit vectors, each screen component is x_i (1 + e_i) with
|e_i| <= u, so the exact dot product of the two screen rows is within
2u + u^2 of x . y (sum |x_i y_i| <= 1 by Cauchy-Schwarz); summing the n
products in float32, in any order, adds at most g_n (1 + u)^2 with
g_n = nu / (1 - nu). So every screen score is within
d = g_n (1 + u)^2 + 2u + u^2 of the cosine. Top-k takes t, the k-th largest
of the maxima over each group of ``GROUP`` adjacent columns (with fewer than
k groups, the k-th largest screen score): at least k records screen at or
above t, so their cosines, and so the k-th best cosine, are at least t - d.
A record in the exact top k therefore screens at or above t - 2d. The
candidates are the columns that screen at or above t - 2d - s, compared in
float64, where s = (n + 8) 2^-48 covers the float64 steps (the norms, the
normalising division, the rescoring and the subtraction, each a few n 2^-53)
and underflow of tiny components (at most n 2^-149). Only groups whose maximum reaches that bound are gathered, and the
candidates are rescored in float64 in slices of at most ``SCORE_BLOCK_BYTES``
of rows. A block has at most one candidate per score, so beside the unit rows
working memory stays within about 14 ``SCORE_BLOCK_BYTES`` whatever the
queries, k, dims or ties.

Records are held in one order, ascending chunk_id, in memory and in the
file, so the same record set always produces byte-identical files and equal
scores break on the column index. ``insert_many`` merges a block of rows in
with one sort of the ids and one gather of the rows, and checks all of it
(shape, finite non-zero rows, no id equal to its neighbour once sorted, the
error naming the smallest) before it changes anything; ``insert`` adds one
record through it.

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
``read_header`` reads either; ``load`` refuses any version but 2, and any file
whose ids do not ascend strictly, the order ``save`` writes.
"""

from __future__ import annotations

import io
import json
import math
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Mapping, Sequence

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
# Cap on one block of float32 screen scores (queries x records) in search_many.
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
    """One search result; a query's hits come best first, so a hit's rank is
    its position in that list."""

    chunk_id: str
    score: float


def _row_norms(chunk_ids: Sequence[str], rows: np.ndarray) -> np.ndarray:
    """The float64 norm of each float32 row. A non-finite or zero row raises,
    as cosine similarity is undefined for both: its norm is non-finite, or
    zero, exactly when the row is."""
    norms = np.empty(len(rows))
    step = max(1, SCORE_BLOCK_BYTES // (8 * rows.shape[1]))
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step].astype(np.float64)
        norms[lo : lo + step] = np.sqrt(np.einsum("ij,ij->i", block, block))
    bad = ~np.isfinite(norms)
    if bad.any():
        raise DataError(f"embedding for {chunk_ids[int(bad.argmax())]!r} has non-finite components")
    zero = norms == 0
    if zero.any():
        raise DataError(f"embedding for {chunk_ids[int(zero.argmax())]!r} has zero norm")
    return norms


def _sorted_ids(ids: list[str]) -> tuple[list[str], list[int]]:
    """ids in ascending order and the position each came from; an id equal to
    its neighbour raises DuplicateChunkError."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    ids = [ids[i] for i in order]
    dup = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
    if dup is not None:
        raise DuplicateChunkError(f"chunk id already in store: {dup!r}")
    return ids, order


def _margin(dims: int) -> float:
    """2d + s of the module docstring: how far below t a column may screen
    and still hold a top-k record."""
    u = 2.0**-24
    nu = dims * u
    if nu >= 1:
        return math.inf
    d = nu / (1 - nu) * (1 + u) ** 2 + 2 * u + u * u
    return 2 * d + (dims + 8) * 2.0**-48


def _top_k(
    sims: np.ndarray, q: np.ndarray, qnorms: np.ndarray, k: int,
    ids: list[str], vectors: np.ndarray, norms: np.ndarray,
) -> list[list[SearchHit]]:
    """Per row of sims (the screen scores of queries q, one column per
    record): the k best records by (-score, chunk_id).

    The candidates are the columns at or above t - _margin(dims), t the k-th
    largest of the maxima over groups of GROUP adjacent columns (the last may
    be shorter), or of the row with fewer than k groups, so each row has at
    least k. Such columns sit only in groups whose maximum reaches the same
    bound, so only those are gathered, and only they are rescored in float64.
    """
    m, n = sims.shape
    gmax = np.maximum.reduceat(sims, np.arange(0, n, GROUP), axis=1)
    ng = gmax.shape[1]
    pool, j = (gmax, ng - k) if k <= ng else (sims, n - k)
    t = np.partition(pool, j, axis=1)[:, j, None].astype(np.float64) - _margin(q.shape[1])
    rows, groups = np.nonzero(gmax >= t)
    cols = (groups[:, None] * GROUP + np.arange(GROUP)).ravel()
    rows = np.repeat(rows, GROUP)
    keep = (cols < n) & (sims[rows, np.minimum(cols, n - 1)] >= t[rows, 0])
    rows, cols = rows[keep], cols[keep]
    scores = np.empty(len(rows))
    step = max(1, SCORE_BLOCK_BYTES // (16 * q.shape[1]))
    for lo in range(0, len(rows), step):
        r, c = rows[lo : lo + step], cols[lo : lo + step]
        scores[lo : lo + step] = np.einsum("ij,ij->i", q[r], vectors[c].astype(np.float64))
    scores /= norms[cols]
    scores /= qnorms[rows]
    # rows ascends, so order keeps each row's candidates in the row's own span;
    # columns are in chunk_id order, so equal scores break on the column.
    order = np.lexsort((cols, -scores, rows))
    hits = []
    for start in np.searchsorted(rows, np.arange(m)).tolist():
        top = order[start : start + k]
        hits.append([
            SearchHit(chunk_id=ids[col], score=min(1.0, max(-1.0, score)))
            for col, score in zip(cols[top].tolist(), scores[top].tolist())
        ])
    return hits


def _read_header(f: BinaryIO, path: str | Path) -> tuple[int, int, int, str]:
    """(version, dims, count, fingerprint) from the start of store file f,
    leaving f just past the fingerprint."""
    head = f.read(24)
    if head[:4] != MAGIC:
        raise StoreFormatError(f"not a vector store file (bad magic): {path}")
    if len(head) < 24:
        raise StoreFormatError(f"truncated store file: {path}")
    version, dims, count, fp_len = struct.unpack("<IIQI", head[4:])
    fp_bytes = f.read(fp_len)
    if len(fp_bytes) < fp_len:
        raise StoreFormatError(f"truncated store file: {path}")
    try:
        return version, dims, count, fp_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StoreFormatError(f"provider fingerprint in {path} is not UTF-8: {exc.reason}") from None


class VectorStore:
    """In-memory vector store with exact cosine top-k search."""

    def __init__(self, dims: int, provider_fingerprint: str) -> None:
        if dims < 1:
            raise ValueError("dims must be positive")
        self.dims = dims
        self.provider_fingerprint = provider_fingerprint
        # Ascending chunk_ids, their float32 rows and float64 norms; inserts rebind all three.
        self._ids: list[str] = []
        self._rows = np.empty((0, dims), dtype=np.float32)
        self._norms = np.empty(0)
        self._lock = threading.Lock()
        self.corpus_sha256 = UNBOUND
        # Corpus line offset of each row; None when unbound.
        self._offsets: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def insert(self, record: VectorRecord) -> None:
        """Add one record; see insert_many."""
        self.insert_many([record.chunk_id], [record.embedding])

    def insert_many(
        self, chunk_ids: Sequence[str], rows: Sequence[Sequence[float]] | np.ndarray
    ) -> None:
        """Add one record per row of the (len(chunk_ids), dims) block rows.

        The whole block is checked before the store changes, so a wrong
        shape, a zero or non-finite row, or an id repeated in the block or
        already stored raises and adds nothing.
        """
        block = np.asarray(rows, dtype=np.float32)
        if block.ndim != 2 or block.shape[1] != self.dims:
            raise DimensionMismatchError(
                f"vector has {block.shape[-1] if block.ndim else 0} dims, store expects {self.dims}"
            )
        ids = list(chunk_ids)
        if len(ids) != len(block):
            raise ValueError(f"{len(ids)} chunk ids for {len(block)} vectors")
        norms = _row_norms(ids, block)
        with self._lock:
            # Into an empty store the block is gathered as it is, without a joined copy.
            joined = np.concatenate((self._rows, block)) if self._ids else block
            self._ids, order = _sorted_ids(self._ids + ids)
            self._rows = joined[order]
            self._norms = np.concatenate((self._norms, norms))[order]
            self.corpus_sha256, self._offsets = UNBOUND, None

    def bind_corpus(self, sha256: bytes, offsets: Mapping[str, int]) -> None:
        """Record the corpus file the records were embedded from: its SHA-256
        and, for every record, chunk_id -> byte offset of its line.
        Inserting another record drops the binding."""
        if len(sha256) != 32 or offsets.keys() != set(self._ids):
            raise ValueError("need a 32-byte digest and one offset per record")
        with self._lock:
            self.corpus_sha256 = bytes(sha256)
            self._offsets = np.array([offsets[c] for c in self._ids], dtype=np.uint64)

    def corpus_offsets(self) -> dict[str, int]:
        """chunk_id -> byte offset of its line in the bound corpus (0 when unbound)."""
        if self._offsets is None:
            return dict.fromkeys(self._ids, 0)
        return dict(zip(self._ids, self._offsets.tolist()))

    def search(self, query: Sequence[float] | np.ndarray, k: int) -> list[SearchHit]:
        """Exact top-k by cosine similarity; ties break on ascending chunk_id.

        Each call builds the unit rows of the whole store, so a caller with
        more than one query should pass them together to search_many."""
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
        huge = np.isinf(qnorms)
        if huge.any():
            # A finite row above about 1e154 squares past the float64 range. Scaling
            # it by a power of two is exact and leaves its cosines as they were.
            q = q.copy()
            q[huge] = np.ldexp(q[huge], -np.frexp(np.abs(q[huge]).max(axis=1))[1][:, None])
            qnorms[huge] = np.sqrt(np.einsum("ij,ij->i", q[huge], q[huge]))
        if not qnorms.all():
            raise DataError("query vector has zero norm")
        with self._lock:
            ids, vectors, norms = self._ids, self._rows, self._norms
        n = len(ids)
        if not n:
            return [[] for _ in range(len(q))]
        screen = np.divide(vectors, norms[:, None], out=np.empty_like(vectors), dtype=np.float64)
        unit = (q / qnorms[:, None]).astype(np.float32)
        step = max(1, SCORE_BLOCK_BYTES // (4 * n))
        hits: list[list[SearchHit]] = []
        for lo in range(0, len(q), step):
            sims = unit[lo : lo + step] @ screen.T
            hits += _top_k(sims, q[lo : lo + step], qnorms[lo : lo + step], min(k, n),
                           ids, vectors, norms)
        return hits

    def save(self, path: str | Path) -> None:
        """Write the store to disk, its records in chunk_id order."""
        with open(path, "wb") as f:
            self._write(f)

    def _write(self, f: BinaryIO) -> None:
        n = len(self._ids)
        fp_bytes = self.provider_fingerprint.encode("utf-8")
        ids = json.dumps(self._ids, ensure_ascii=False, separators=(",", ":"))
        id_bytes = ids.encode("utf-8")
        offsets = np.zeros(n, dtype="<u8") if self._offsets is None else self._offsets
        f.write(MAGIC + struct.pack("<IIQI", FORMAT_VERSION, self.dims, n, len(fp_bytes)))
        f.write(fp_bytes + self.corpus_sha256 + struct.pack("<Q", len(id_bytes)) + id_bytes)
        # Cast only where the native layout is not little-endian; write the buffers as they are.
        f.write(offsets.astype("<u8", copy=False))
        f.write(self._rows.astype("<f4", copy=False))

    @classmethod
    def read_header(cls, path: str | Path) -> tuple[int, int, int, str]:
        """(version, dims, count, fingerprint) without loading the records."""
        with open(path, "rb") as f:
            return _read_header(f, path)

    @classmethod
    def load(cls, path: str | Path) -> "VectorStore":
        """Read a store file; wrong magic or version, dims below 1, truncation,
        trailing bytes, an ids block that is not a list of count strings and
        ids that do not ascend raise StoreFormatError, an id given twice
        DuplicateChunkError. The offsets and vectors stay views of the file.
        """
        # One read: the blocks below are views of these bytes, which BytesIO shares.
        data = Path(path).read_bytes()
        head = io.BytesIO(data)
        version, dims, count, fingerprint = _read_header(head, path)
        if version != FORMAT_VERSION:
            raise StoreFormatError(
                f"unsupported store format version {version}; re-run telerag embed"
            )
        if dims < 1:
            raise StoreFormatError(f"store file {path} has dims {dims}; dims must be positive")
        digest_at = head.tell()
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
        pair = next(((a, b) for a, b in zip(ids, ids[1:]) if a >= b), None)
        if pair:  # save writes the ids strictly ascending
            error = DuplicateChunkError if pair[0] == pair[1] else StoreFormatError
            raise error(f"chunk id {pair[1]!r} follows {pair[0]!r} in {path}; ids must ascend")
        rows = np.frombuffer(data, "<f4", count * dims, vectors_at).reshape(count, dims)
        offsets = np.frombuffer(data, "<u8", count, offsets_at)
        norms = _row_norms(ids, rows)
        store = cls(dims=dims, provider_fingerprint=fingerprint)
        store._ids, store._rows, store._norms, store._offsets = ids, rows, norms, offsets
        store.corpus_sha256 = data[digest_at:ids_at - 8]
        return store
