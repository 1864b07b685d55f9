"""Plain-text ingestion and token-window chunking.

Documents are split into fixed-size token windows (default 512 tokens,
no overlap) which are the unit of embedding and retrieval. The tokenizer
is pluggable; the default splits on whitespace and rejoins with single
spaces, so chunk token streams concatenate back to the document's token
stream when overlap is zero.

A chunk JSONL file is read whole once, when it is embedded; that read also
gives each line's byte offset and the file's SHA-256, which the vector store
keeps. Evaluation then checks the file against that digest and reads only the
lines its hits name, through ``CorpusLines``.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, Mapping, Protocol, Sequence

from .errors import DataError


class Tokenizer(Protocol):
    """Tokenize text and rejoin token windows into chunk text."""

    def tokenize(self, text: str) -> list[str]: ...

    def detokenize(self, tokens: Sequence[str]) -> str: ...


class WhitespaceTokenizer:
    """Default tokenizer: whitespace-separated tokens, joined by single spaces."""

    def tokenize(self, text: str) -> list[str]:
        return text.split()

    def detokenize(self, tokens: Sequence[str]) -> str:
        return " ".join(tokens)


DEFAULT_TOKENIZER = WhitespaceTokenizer()
DEFAULT_CHUNK_SIZE = 512


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


def count_tokens(text: str, tokenizer: Tokenizer | None = None) -> int:
    """Number of tokens under the given (default whitespace) tokenizer."""
    return len((tokenizer or DEFAULT_TOKENIZER).tokenize(text))


def _sanitize_doc_id(source_name: str) -> str:
    name = Path(source_name).name
    if "." in name:
        name = name.rsplit(".", 1)[0]
    cleaned = re.sub(r"[^a-z0-9_-]+", "_", name.lower()).strip("_")
    return cleaned or "doc"


class Corpus:
    """A set of ingested documents with collision-free doc ids."""

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self.tokenizer = tokenizer or DEFAULT_TOKENIZER
        self.documents: list[Document] = []
        self._used_ids: set[str] = set()

    def ingest(self, source_name: str, text: str | bytes) -> Document:
        """Register a document; bytes input must be valid UTF-8."""
        if isinstance(text, bytes):
            text = text.decode("utf-8")
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
            chunks.extend(chunk_document(doc, chunk_size, overlap, self.tokenizer))
        return chunks


def chunk_document(
    doc: Document,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = 0,
    tokenizer: Tokenizer | None = None,
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
    tok = tokenizer or DEFAULT_TOKENIZER
    tokens = tok.tokenize(doc.text)
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
                text=tok.detokenize(window),
                token_count=len(window),
            )
        )
        if start + chunk_size >= len(tokens):
            return chunks
        start += stride
        seq += 1


def write_chunks_jsonl(chunks: Sequence[Chunk], path: str | Path) -> None:
    """Persist chunks as UTF-8 JSON lines with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for c in chunks:
            record = {
                "chunk_id": c.chunk_id,
                "doc_id": c.doc_id,
                "seq": c.seq,
                "text": c.text,
                "token_count": c.token_count,
            }
            f.write(json.dumps(record, ensure_ascii=False) + "\n")


_CHUNK_FIELDS = {"chunk_id": str, "doc_id": str, "seq": int, "text": str, "token_count": int}


def _chunk_from_line(line: bytes) -> Chunk:
    """Parse one chunk JSONL line; a ValueError says what is wrong with it."""
    try:
        rec = json.loads(line.decode("utf-8"))
        for name, kind in _CHUNK_FIELDS.items():
            if type(rec[name]) is not kind:
                raise ValueError(f"field {name!r} is not of type {kind.__name__}")
        return Chunk(**{name: rec[name] for name in _CHUNK_FIELDS})
    except KeyError as exc:
        raise ValueError(f"chunk record lacks field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed chunk record: {exc}") from None


@dataclass
class CorpusIndex:
    """Where read_chunks_jsonl found its chunks: the byte offset of each
    chunk's line, in file order, and the SHA-256 of the file's bytes."""

    offsets: list[int] = field(default_factory=list)
    sha256: bytes = b""


def read_chunks_jsonl(path: str | Path, index: CorpusIndex | None = None) -> list[Chunk]:
    """Load chunks written by write_chunks_jsonl; a malformed line raises
    DataError naming path:line. Lines end at b"\\n" only; blank lines are
    skipped. When index is given, it receives the offsets and the digest."""
    with open(path, "rb") as f:
        data = f.read()
    chunks: list[Chunk] = []
    offsets: list[int] = []
    offset = 0
    try:
        for lineno, line in enumerate(data.split(b"\n"), start=1):
            if line.strip():
                chunks.append(_chunk_from_line(line))
                offsets.append(offset)
            offset += len(line) + 1
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from exc
    if index is not None:
        index.offsets, index.sha256 = offsets, hashlib.sha256(data).digest()
    return chunks


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
