"""Plain-text ingestion and token-window chunking.

Documents are split into fixed-size token windows (default 512 tokens,
no overlap) which are the unit of embedding and retrieval. The tokenizer
is pluggable; the default splits on whitespace and rejoins with single
spaces, so chunk token streams concatenate back to the document's token
stream when overlap is zero.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

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


def read_chunks_jsonl(path: str | Path) -> list[Chunk]:
    """Load chunks written by write_chunks_jsonl; a malformed line raises
    DataError naming path:line."""
    chunks: list[Chunk] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                chunk = Chunk(
                    chunk_id=rec["chunk_id"],
                    doc_id=rec["doc_id"],
                    seq=rec["seq"],
                    text=rec["text"],
                    token_count=rec["token_count"],
                )
            except KeyError as exc:
                raise DataError(f"{path}:{lineno}: chunk record lacks field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed chunk record: {exc}") from exc
            chunks.append(chunk)
    return chunks


def chunk_map(chunks: Sequence[Chunk]) -> dict[str, Chunk]:
    """Index chunks by chunk_id."""
    return {c.chunk_id: c for c in chunks}
