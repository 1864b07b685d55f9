"""Plain-text ingestion and token-window chunking.

Documents are split into fixed-size token windows (default 512 tokens,
no overlap) which are the unit of embedding and retrieval. Tokens are
whitespace-separated and a chunk's text is its tokens joined by single
spaces, so chunk token streams concatenate back to the document's token
stream when overlap is zero.

``Corpus.write_jsonl`` chunks and encodes the documents in groups of about
``GROUP_CHARS`` characters, one ``forkpool.fork_map`` task per group, so a
large corpus is chunked on every usable CPU; the file's bytes do not depend
on the grouping.

A chunk JSONL file is read whole once, when it is embedded, into a
``ChunkFile``: the file's SHA-256 and each chunk line's byte offset, which the
vector store keeps, and the lines themselves, which the embedding tasks parse
a block at a time. Evaluation then checks the file against that digest and
reads only the lines its hits name, through ``CorpusLines``.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Mapping, Sequence, get_type_hints

from . import DEFAULT_CHUNK_SIZE
from .errors import JSON_ERRORS, DataError, lone_surrogate

# Characters of document text per task of Corpus.write_jsonl.
GROUP_CHARS = 1 << 20
# One encoder for every corpus and audit line; json.dumps would build a new one per call.
_encode_line = json.JSONEncoder(ensure_ascii=False).encode


@dataclass(frozen=True)
class Document:
    """A plain-text source document; doc_id is unique within a corpus."""

    doc_id: str
    source_name: str
    text: str


@dataclass(frozen=True)
class Chunk:
    """A token-bounded slice of a document; the retrieval unit."""

    chunk_id: str
    doc_id: str
    seq: int
    text: str
    token_count: int


def count_tokens(text: str) -> int:
    """Number of whitespace-separated tokens."""
    return len(text.split())


def _sanitize_doc_id(source_name: str) -> str:
    name = Path(source_name).name
    if "." in name:
        name = name.rsplit(".", 1)[0]
    cleaned = re.sub(r"[^a-z0-9_-]+", "_", name.lower()).strip("_")
    return cleaned or "doc"


class Corpus:
    """A set of ingested documents with collision-free doc ids."""

    def __init__(self) -> None:
        self.documents: list[Document] = []
        self._used_ids: set[str] = set()

    def ingest(self, source_name: str, text: str) -> Document:
        """Register a document under a doc id derived from source_name."""
        base = _sanitize_doc_id(source_name)
        doc_id = base
        suffix = 0
        while doc_id in self._used_ids:
            suffix += 1
            doc_id = f"{base}-{suffix}"
        self._used_ids.add(doc_id)
        doc = Document(doc_id=doc_id, source_name=source_name, text=text)
        self.documents.append(doc)
        return doc

    def chunk_all(self, chunk_size: int = DEFAULT_CHUNK_SIZE, overlap: int = 0) -> list[Chunk]:
        """Chunk every ingested document, in ingestion order."""
        chunks: list[Chunk] = []
        for doc in self.documents:
            chunks.extend(chunk_document(doc, chunk_size, overlap))
        return chunks

    def write_jsonl(
        self, path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE, overlap: int = 0
    ) -> list[int]:
        """Write the chunks of chunk_all() to path as write_chunks_jsonl does
        and return their token counts, in the same order.

        The documents go in groups of about GROUP_CHARS characters, each
        chunked and encoded by one task of forkpool.fork_map; the bytes are
        written in document order.
        """
        groups: list[list[Document]] = [[]]
        size = 0
        for doc in self.documents:
            if size >= GROUP_CHARS:
                groups.append([])
                size = 0
            groups[-1].append(doc)
            size += len(doc.text)

        def encode(i: int) -> tuple[bytes, list[int]]:
            chunks = [c for doc in groups[i] for c in chunk_document(doc, chunk_size, overlap)]
            return _jsonl_bytes(chunks), [c.token_count for c in chunks]

        from . import forkpool

        parts = forkpool.fork_map(encode, len(groups))
        with open(path, "wb") as f:
            for data, _ in parts:
                f.write(data)
        return [n for _, counts in parts for n in counts]


def chunk_document(
    doc: Document,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = 0,
) -> list[Chunk]:
    """Split a document into token windows of at most chunk_size tokens.

    Windows advance by (chunk_size - overlap) tokens; the last window may
    be shorter. An empty document yields no chunks; a non-empty document
    always yields at least one, so no content is ever dropped.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if overlap < 0 or overlap >= chunk_size:
        raise ValueError("overlap must satisfy 0 <= overlap < chunk_size")
    tokens = doc.text.split()
    if not tokens:
        return []
    stride = chunk_size - overlap
    chunks: list[Chunk] = []
    start = 0
    seq = 0
    while True:
        window = tokens[start : start + chunk_size]
        chunks.append(
            Chunk(
                chunk_id=f"{doc.doc_id}#{seq}",
                doc_id=doc.doc_id,
                seq=seq,
                text=" ".join(window),
                token_count=len(window),
            )
        )
        if start + chunk_size >= len(tokens):
            return chunks
        start += stride
        seq += 1


def _jsonl_bytes(chunks: Sequence[Chunk]) -> bytes:
    """The chunks as UTF-8 JSON lines with LF endings, keys in Chunk's field order."""
    return "".join(_encode_line(vars(c)) + "\n" for c in chunks).encode("utf-8")


def write_chunks_jsonl(chunks: Sequence[Chunk], path: str | Path) -> None:
    """Persist chunks as UTF-8 JSON lines with LF endings."""
    with open(path, "wb") as f:
        f.write(_jsonl_bytes(chunks))


_CHUNK_FIELDS = get_type_hints(Chunk)


def _chunk_from_line(line: bytes) -> Chunk:
    """Parse one chunk JSONL line; a ValueError says what is wrong with it."""
    try:
        rec = json.loads(line.decode("utf-8"))
        escaped = b"\\u" in line  # only a \u escape decodes to a lone surrogate
        for name, kind in _CHUNK_FIELDS.items():
            if type(rec[name]) is not kind:
                raise ValueError(f"field {name!r} is not of type {kind.__name__}")
            if escaped and kind is str and (code := lone_surrogate(rec[name])):
                raise ValueError(f"lone surrogate {code} in field {name!r}")
        if rec["token_count"] < 1:
            raise ValueError(f"token_count must be >= 1, got {rec['token_count']}")
        return Chunk(**{name: rec[name] for name in _CHUNK_FIELDS})
    except KeyError as exc:
        raise ValueError(f"chunk record lacks field {exc}") from None
    except (TypeError, *JSON_ERRORS) as exc:
        raise ValueError(f"malformed chunk record: {exc}") from None


class ChunkFile:
    """A chunk JSONL file read whole: the SHA-256 of its bytes and, for each
    chunk line in file order, its byte offset, its line number and its bytes.
    Lines end at b"\\n" only; blank lines hold no chunk and are skipped."""

    def __init__(self, path: str | Path) -> None:
        with open(path, "rb") as f:
            data = f.read()
        self.path = path
        self.sha256 = hashlib.sha256(data).digest()
        self.offsets: list[int] = []
        self._linenos: list[int] = []
        self._lines: list[bytes] = []
        offset = 0
        for lineno, line in enumerate(data.split(b"\n"), start=1):
            if line.strip():
                self.offsets.append(offset)
                self._linenos.append(lineno)
                self._lines.append(line)
            offset += len(line) + 1

    def __len__(self) -> int:
        return len(self._lines)

    def chunks(self, start: int = 0, stop: int | None = None) -> list[Chunk]:
        """Parse chunk lines start to stop (all by default); a malformed line
        raises DataError naming path:line."""
        chunks = []
        for line, lineno in zip(self._lines[start:stop], self._linenos[start:stop]):
            try:
                chunks.append(_chunk_from_line(line))
            except ValueError as exc:
                raise DataError(f"{self.path}:{lineno}: {exc}") from exc
        return chunks


def read_chunks_jsonl(path: str | Path) -> list[Chunk]:
    """Load chunks written by write_chunks_jsonl, through ChunkFile; a malformed
    line raises DataError naming path:line."""
    return ChunkFile(path).chunks()


def file_sha256(f: BinaryIO) -> bytes:
    """SHA-256 of the rest of an open binary file, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    for block in iter(lambda: f.read(1 << 20), b""):
        digest.update(block)
    return digest.digest()


class CorpusLines(Mapping[str, Chunk]):
    """Read-only chunk_id -> Chunk view of an open chunk JSONL file.

    offsets gives the byte offset of each chunk's line; a lookup parses that
    one line, under the same rules as read_chunks_jsonl, and checks that it
    holds the chunk asked for.
    """

    def __init__(self, f: BinaryIO, offsets: Mapping[str, int]) -> None:
        self._f = f
        self._offsets = offsets
        self._lock = threading.Lock()  # one seek and readline at a time

    def __getitem__(self, chunk_id: str) -> Chunk:
        offset = self._offsets[chunk_id]
        with self._lock:
            self._f.seek(offset)
            line = self._f.readline()
        where = f"{self._f.name} (line at byte {offset})"
        try:
            chunk = _chunk_from_line(line)
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
        if chunk.chunk_id != chunk_id:
            raise DataError(f"{where}: holds chunk {chunk.chunk_id!r}, not {chunk_id!r}")
        return chunk

    def __contains__(self, chunk_id: object) -> bool:
        return chunk_id in self._offsets

    def __iter__(self) -> Iterator[str]:
        return iter(self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)


def chunk_map(chunks: Sequence[Chunk]) -> dict[str, Chunk]:
    """Index chunks by chunk_id."""
    return {c.chunk_id: c for c in chunks}
