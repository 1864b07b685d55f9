from __future__ import annotations

import hashlib
import math
import random
import sys
import threading

import pytest

from telerag.errors import DataError
from telerag.corpus import (
    ChunkFile,
    Corpus,
    CorpusLines,
    Document,
    WhitespaceTokenizer,
    chunk_document,
    chunk_map,
    count_tokens,
    file_sha256,
    read_chunks_jsonl,
    write_chunks_jsonl,
)


def make_doc(n_tokens: int, doc_id: str = "doc") -> Document:
    text = " ".join(f"t{i}" for i in range(n_tokens))
    return Document(doc_id=doc_id, source_name=f"{doc_id}.txt", text=text)


def test_ingest_sanitizes_source_name():
    bank = Corpus()
    doc = bank.ingest("ts_38_331.txt", "spec text")
    assert doc.doc_id == "ts_38_331"


def test_ingest_collision_suffix():
    bank = Corpus()
    first = bank.ingest("a.txt", "")
    second = bank.ingest("a.txt", "x")
    assert first.doc_id == "a"
    assert second.doc_id == "a-1"


def test_ingest_messy_names():
    bank = Corpus()
    assert bank.ingest("TS 38.331 (v17).txt", "x").doc_id == "ts_38_331_v17"
    assert bank.ingest("...", "x").doc_id == "doc"


def test_ingest_rejects_invalid_utf8():
    bank = Corpus()
    with pytest.raises(UnicodeDecodeError):
        bank.ingest("bad.txt", b"\xff\xfe\x80 not utf8")


def test_chunk_sizes_1030_tokens():
    chunks = chunk_document(make_doc(1030), chunk_size=512, overlap=0)
    assert [c.token_count for c in chunks] == [512, 512, 6]


def test_chunk_empty_text():
    assert chunk_document(make_doc(0), chunk_size=512, overlap=0) == []


def test_chunk_exactly_one_window():
    chunks = chunk_document(make_doc(512), chunk_size=512, overlap=0)
    assert len(chunks) == 1
    assert chunks[0].token_count == 512


def test_chunk_overlap_windows():
    chunks = chunk_document(make_doc(10), chunk_size=4, overlap=2)
    texts = [c.text for c in chunks]
    assert texts[0] == "t0 t1 t2 t3"
    assert texts[1] == "t2 t3 t4 t5"
    assert texts[-1].split()[-1] == "t9"


def test_chunk_rejects_bad_overlap():
    with pytest.raises(ValueError):
        chunk_document(make_doc(10), chunk_size=4, overlap=4)
    with pytest.raises(ValueError):
        chunk_document(make_doc(10), chunk_size=0, overlap=0)


def test_chunk_ids_and_seq_contiguous():
    chunks = chunk_document(make_doc(1030, "spec"), chunk_size=512, overlap=0)
    assert [c.seq for c in chunks] == [0, 1, 2]
    assert [c.chunk_id for c in chunks] == ["spec#0", "spec#1", "spec#2"]


def test_count_tokens_empty():
    assert count_tokens("") == 0


def test_count_tokens_default_whitespace():
    assert count_tokens("base station load") == 3


def expected_chunk_count(n_tokens: int, chunk_size: int, overlap: int) -> int:
    # Independent oracle: ceil(max(T - overlap, 0) / (chunk_size - overlap)).
    if n_tokens == 0:
        return 0
    return math.ceil(max(n_tokens - overlap, 0) / (chunk_size - overlap))


def test_chunk_count_formula_random():
    rng = random.Random(101)
    for _ in range(300):
        n_tokens = rng.randint(0, 400)
        chunk_size = rng.randint(1, 64)
        overlap = rng.randint(0, chunk_size - 1)
        chunks = chunk_document(make_doc(n_tokens), chunk_size, overlap)
        if 0 < n_tokens <= overlap:
            # Degenerate corner: the document fits inside the overlap region;
            # one chunk is emitted so no content is lost.
            assert len(chunks) == 1
        else:
            assert len(chunks) == expected_chunk_count(n_tokens, chunk_size, overlap), (
                n_tokens, chunk_size, overlap,
            )


def test_round_trip_token_stream_random():
    tokenizer = WhitespaceTokenizer()
    rng = random.Random(202)
    words = ["alpha", "beta", "gamma", "delta", "5g", "gNB,", "x1/x2"]
    for _ in range(100):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 200)))
        doc = Document(doc_id="d", source_name="d.txt", text=text)
        chunk_size = rng.randint(1, 40)
        chunks = chunk_document(doc, chunk_size, overlap=0)
        stream = [tok for c in chunks for tok in tokenizer.tokenize(c.text)]
        assert stream == tokenizer.tokenize(text)
        assert sum(c.token_count for c in chunks) == count_tokens(text)


def test_chunking_deterministic():
    doc = make_doc(777)
    assert chunk_document(doc, 100, 25) == chunk_document(doc, 100, 25)


def test_chunk_invariants_hold():
    chunks = chunk_document(make_doc(999), chunk_size=128, overlap=32)
    for c in chunks:
        assert c.token_count <= 128
        assert c.chunk_id == f"{c.doc_id}#{c.seq}"


def test_jsonl_round_trip(tmp_path):
    chunks = chunk_document(make_doc(50, "näive"), chunk_size=16, overlap=0)
    path = tmp_path / "corpus.jsonl"
    write_chunks_jsonl(chunks, path)
    assert read_chunks_jsonl(path) == chunks
    raw = path.read_bytes()
    assert b"\r\n" not in raw
    assert raw.decode("utf-8").endswith("\n")


@pytest.mark.parametrize(
    "bad_line",
    [
        '{"chunk_id": "d#1", "doc_id": "d", "seq": 1, "text": "t"}',
        "[1, 2]",
        "{not json",
        '{"chunk_id": "d#1", "doc_id": "d", "seq": 1, "text": "t", "token_count": "1"}',
        '{"chunk_id": "d#1", "doc_id": "d", "seq": true, "text": "t", "token_count": 1}',
    ],
)
def test_read_chunks_jsonl_names_malformed_line(tmp_path, bad_line):
    chunks = chunk_document(make_doc(20, "d"), chunk_size=16, overlap=0)
    path = tmp_path / "corpus.jsonl"
    write_chunks_jsonl(chunks[:1], path)
    with open(path, "a", encoding="utf-8") as f:
        f.write(bad_line + "\n")
    with pytest.raises(DataError, match=f"corpus.jsonl:2: "):
        read_chunks_jsonl(path)


def test_chunk_map_keys():
    chunks = chunk_document(make_doc(100), chunk_size=30, overlap=0)
    mapping = chunk_map(chunks)
    assert set(mapping) == {c.chunk_id for c in chunks}


def write_indexed_corpus(tmp_path):
    chunks = chunk_document(make_doc(200, "näive"), chunk_size=16, overlap=0)
    path = tmp_path / "corpus.jsonl"
    write_chunks_jsonl(chunks, path)
    # A blank line and a CRLF line: offsets count bytes, lines end at b"\n".
    raw = path.read_bytes().replace(b"\n", b"\n\n", 1).replace(b"}\n", b"}\r\n", 2)
    path.write_bytes(raw)
    index = ChunkFile(path)
    assert index.chunks() == chunks and read_chunks_jsonl(path) == chunks
    return chunks, path, index


def test_read_chunks_jsonl_index_offsets_and_digest(tmp_path):
    chunks, path, index = write_indexed_corpus(tmp_path)
    raw = path.read_bytes()
    assert index.sha256 == hashlib.sha256(raw).digest()
    assert len(index.offsets) == len(chunks)
    for chunk, offset in zip(chunks, index.offsets):
        assert offset == 0 or raw[offset - 1 : offset] == b"\n"
        assert raw[offset:].startswith(b'{"chunk_id": "' + chunk.chunk_id.encode() + b'"')
    with open(path, "rb") as f:
        assert file_sha256(f) == index.sha256


def test_corpus_lines_parses_only_named_lines(tmp_path):
    chunks, path, index = write_indexed_corpus(tmp_path)
    offsets = {c.chunk_id: off for c, off in zip(chunks, index.offsets)}
    with open(path, "rb") as f:
        lines = CorpusLines(f, offsets)
        assert len(lines) == len(chunks) and list(lines) == list(offsets)
        assert dict(lines) == chunk_map(chunks)
        assert chunks[3].chunk_id in lines and "nope" not in lines
        with pytest.raises(KeyError):
            lines["nope"]
        swapped = CorpusLines(f, {chunks[0].chunk_id: index.offsets[1]})
        with pytest.raises(DataError, match="holds chunk 'näive#1', not 'näive#0'"):
            swapped[chunks[0].chunk_id]
        blank = CorpusLines(f, {chunks[1].chunk_id: index.offsets[1] - 1})
        with pytest.raises(DataError, match=r"corpus.jsonl \(line at byte \d+\): malformed"):
            blank[chunks[1].chunk_id]


def test_corpus_lines_concurrent_lookups(tmp_path):
    chunks, path, index = write_indexed_corpus(tmp_path)
    offsets = {c.chunk_id: off for c, off in zip(chunks, index.offsets)}
    want = chunk_map(chunks)
    errors = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with open(path, "rb") as f:
            lines = CorpusLines(f, offsets)

            def worker(seed):
                rng = random.Random(seed)
                for _ in range(200):
                    chunk_id = rng.choice(chunks).chunk_id
                    try:
                        if lines[chunk_id] != want[chunk_id]:
                            errors.append(chunk_id)
                    except DataError as exc:
                        errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
