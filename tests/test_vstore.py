from __future__ import annotations

import json
import os
import random
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from telerag.embed import cosine_similarity
from telerag.errors import DataError, DimensionMismatchError, DuplicateChunkError, StoreFormatError
from telerag.vstore import FORMAT_VERSION, MAGIC, VectorRecord, VectorStore


def random_store(n: int, dims: int, seed: int, fingerprint: str = "hash-test:seed-0:0"):
    rng = np.random.default_rng(seed)
    store = VectorStore(dims=dims, provider_fingerprint=fingerprint)
    vectors = {}
    for i in range(n):
        vec = rng.normal(size=dims).astype(np.float32)
        chunk_id = f"c{i:05d}"
        store.insert(VectorRecord(chunk_id=chunk_id, embedding=vec))
        vectors[chunk_id] = vec
    return store, vectors


def brute_force_top_k(vectors: dict[str, np.ndarray], query: np.ndarray, k: int):
    # Independent oracle: full sort over per-record cosine, same tie-break rule.
    scored = [(cosine_similarity(vec, query), chunk_id) for chunk_id, vec in vectors.items()]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [chunk_id for _, chunk_id in scored[:k]]


def test_self_retrieval_scores_one():
    store, vectors = random_store(5, 16, seed=1)
    hits = store.search(vectors["c00003"], k=1)
    assert hits[0].chunk_id == "c00003"
    assert hits[0].score == pytest.approx(1.0, abs=1e-12)


def test_duplicate_id_rejected_size_unchanged():
    store, vectors = random_store(3, 8, seed=2)
    with pytest.raises(DuplicateChunkError):
        store.insert(VectorRecord(chunk_id="c00001", embedding=vectors["c00002"]))
    assert len(store) == 3


def test_dimension_mismatch_rejected():
    store = VectorStore(dims=16, provider_fingerprint="fp")
    with pytest.raises(DimensionMismatchError):
        store.insert(VectorRecord(chunk_id="x", embedding=np.ones(8, dtype=np.float32)))
    store.insert(VectorRecord(chunk_id="x", embedding=np.ones(16, dtype=np.float32)))
    with pytest.raises(DimensionMismatchError):
        store.search(np.ones(8), k=1)


def test_k_clamped_to_store_size():
    store, vectors = random_store(3, 8, seed=3)
    hits = store.search(vectors["c00000"], k=10)
    assert sorted(h.chunk_id for h in hits) == ["c00000", "c00001", "c00002"]


def test_search_matches_brute_force_oracle():
    store, vectors = random_store(100, 24, seed=4)
    rng = np.random.default_rng(99)
    for _ in range(10):
        query = rng.normal(size=24)
        hits = store.search(query, k=5)
        assert [h.chunk_id for h in hits] == brute_force_top_k(vectors, query, 5)


def test_query_above_1e154_ranks_as_its_unscaled_copy():
    # Its squared norm overflows float64; the hits must not collapse to +-0 scores.
    store, _ = random_store(40, 16, seed=7)
    rng = np.random.default_rng(70)
    for _ in range(5):
        query = rng.normal(size=16)
        big = query * 1e160
        hits, big_hits = store.search(query, 3), store.search(big, 3)
        assert [h.chunk_id for h in big_hits] == [h.chunk_id for h in hits]
        for h, b in zip(hits, big_hits):
            assert abs(h.score - b.score) <= 1e-12
        many = store.search_many(np.stack([query, big]), 3)
        assert many == [hits, big_hits]
        assert np.array_equal(big, query * 1e160)  # the caller's array is not scaled


def test_equal_scores_tie_break_lexicographic():
    store = VectorStore(dims=4, provider_fingerprint="fp")
    vec = np.array([0.5, 0.5, 0.0, 0.0], dtype=np.float32)
    store.insert(VectorRecord(chunk_id="zzz", embedding=vec))
    store.insert(VectorRecord(chunk_id="aaa", embedding=2 * vec))
    hits = store.search(vec, k=2)
    assert [h.chunk_id for h in hits] == ["aaa", "zzz"]


def test_scores_monotone_nonincreasing():
    store, vectors = random_store(50, 12, seed=5)
    hits = store.search(vectors["c00000"], k=50)
    for first, second in zip(hits, hits[1:]):
        assert first.score >= second.score


def test_insertion_order_independence():
    rng = np.random.default_rng(6)
    records = [
        VectorRecord(chunk_id=f"r{i}", embedding=rng.normal(size=8).astype(np.float32))
        for i in range(30)
    ]
    query = rng.normal(size=8)
    forward = VectorStore(dims=8, provider_fingerprint="fp")
    backward = VectorStore(dims=8, provider_fingerprint="fp")
    for rec in records:
        forward.insert(rec)
    for rec in reversed(records):
        backward.insert(rec)
    assert forward.search(query, k=10) == backward.search(query, k=10)


def test_empty_store_search_returns_empty():
    store = VectorStore(dims=8, provider_fingerprint="fp")
    assert store.search(np.ones(8), k=3) == []


def test_save_load_round_trip_empty(tmp_path):
    store = VectorStore(dims=8, provider_fingerprint="hash-test:seed-0:8")
    path = tmp_path / "empty.vdb"
    store.save(path)
    loaded = VectorStore.load(path)
    assert len(loaded) == 0
    assert loaded.dims == 8
    assert loaded.provider_fingerprint == "hash-test:seed-0:8"


def test_save_load_round_trip_search_identical(tmp_path):
    store, _ = random_store(1000, 32, seed=7)
    path = tmp_path / "big.vdb"
    store.save(path)
    loaded = VectorStore.load(path)
    rng = np.random.default_rng(8)
    for _ in range(20):
        query = rng.normal(size=32)
        assert store.search(query, k=7) == loaded.search(query, k=7)


def test_save_is_byte_canonical(tmp_path):
    rng = np.random.default_rng(9)
    records = [
        VectorRecord(chunk_id=f"r{i}", embedding=rng.normal(size=6).astype(np.float32))
        for i in range(20)
    ]
    a = VectorStore(dims=6, provider_fingerprint="fp")
    b = VectorStore(dims=6, provider_fingerprint="fp")
    for rec in records:
        a.insert(rec)
    for rec in reversed(records):
        b.insert(rec)
    path_a, path_b, path_c = (tmp_path / n for n in ("a.vdb", "b.vdb", "c.vdb"))
    a.save(path_a)
    b.save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    VectorStore.load(path_a).save(path_c)
    assert path_c.read_bytes() == path_a.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.vdb"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(StoreFormatError):
        VectorStore.load(path)


def test_load_rejects_truncation_and_trailing(tmp_path):
    store, _ = random_store(5, 8, seed=10)
    path = tmp_path / "s.vdb"
    store.save(path)
    blob = path.read_bytes()
    truncated = tmp_path / "t.vdb"
    truncated.write_bytes(blob[:-3])
    with pytest.raises(StoreFormatError):
        VectorStore.load(truncated)
    padded = tmp_path / "p.vdb"
    padded.write_bytes(blob + b"xx")
    with pytest.raises(StoreFormatError):
        VectorStore.load(padded)


def test_read_header(tmp_path):
    store, _ = random_store(5, 8, seed=11, fingerprint="hash-test:seed-3:8")
    path = tmp_path / "s.vdb"
    store.save(path)
    version, dims, count, fingerprint = VectorStore.read_header(path)
    assert (version, dims, count, fingerprint) == (2, 8, 5, "hash-test:seed-3:8")


def test_concurrent_readers_get_identical_results():
    store, _ = random_store(200, 16, seed=12)
    query = np.random.default_rng(13).normal(size=16)
    expected = store.search(query, k=5)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: store.search(query, k=5), range(16)))
    assert all(res == expected for res in results)


def test_search_k_validation():
    store, vectors = random_store(3, 8, seed=14)
    with pytest.raises(ValueError):
        store.search(vectors["c00000"], k=0)


def test_random_sized_stores_match_oracle():
    rng = random.Random(15)
    for case in range(40):
        n = rng.randint(1, 60)
        dims = rng.randint(2, 48)
        store, vectors = random_store(n, dims, seed=1000 + case)
        query = np.random.default_rng(2000 + case).normal(size=dims)
        k = rng.randint(1, 8)
        hits = store.search(query, k=k)
        assert [h.chunk_id for h in hits] == brute_force_top_k(vectors, query, k)


def raw_store(dims, records, fingerprint=b"fp", digest=bytes(32), ids_block=None):
    # Store file (format v2) written byte by byte, bypassing insert's checks.
    if ids_block is None:
        ids_block = json.dumps([chunk_id.decode() for chunk_id, _ in records]).encode()
    blob = MAGIC + struct.pack("<IIQ", FORMAT_VERSION, dims, len(records))
    blob += struct.pack("<I", len(fingerprint)) + fingerprint + digest
    blob += struct.pack("<Q", len(ids_block)) + ids_block
    blob += b"".join(struct.pack("<Q", 100 * i) for i in range(len(records)))
    blob += b"".join(np.asarray(vec, "<f4").tobytes() for _, vec in records)
    return blob


def write_raw_store(path, dims, records, fingerprint=b"fp"):
    path.write_bytes(raw_store(dims, records, fingerprint))


def test_zero_norm_embedding_rejected(tmp_path):
    store = VectorStore(dims=4, provider_fingerprint="fp")
    with pytest.raises(DataError, match="zero norm"):
        store.insert(VectorRecord(chunk_id="a", embedding=np.zeros(4)))
    store.insert(VectorRecord(chunk_id="b", embedding=np.ones(4)))
    assert [(h.chunk_id, h.score) for h in store.search(np.ones(4), k=2)] == [("b", 1.0)]
    path = tmp_path / "zero.vdb"
    write_raw_store(path, 4, [(b"a", np.zeros(4)), (b"b", np.ones(4))])
    with pytest.raises(DataError, match="'a' has zero norm"):
        VectorStore.load(path)


@pytest.mark.parametrize("count", [0, 1])
def test_load_rejects_zero_dims(tmp_path, count):
    path = tmp_path / "zero_dims.vdb"
    write_raw_store(path, 0, [(b"a", [])][:count])
    with pytest.raises(StoreFormatError) as exc:
        VectorStore.load(path)
    assert str(exc.value) == f"store file {path} has dims 0; dims must be positive"


def test_load_rejects_non_finite_and_duplicate_records(tmp_path):
    path = tmp_path / "bad.vdb"
    write_raw_store(path, 2, [(b"a", [1.0, np.inf])])
    with pytest.raises(DataError, match="non-finite"):
        VectorStore.load(path)
    write_raw_store(path, 2, [(b"a", [1.0, 0.0]), (b"a", [0.0, 1.0])])
    with pytest.raises(DuplicateChunkError):
        VectorStore.load(path)


@pytest.mark.parametrize("rows, message", [
    ([[1, 1], [0, 0], [1, np.inf], [np.nan, 0], [0, 0]], "'c' has non-finite components"),
    ([[1, 1], [-np.inf, np.inf], [0, 0], [1, 1]], "'b' has non-finite components"),
    ([[1, 1], [0, -0.0], [0, 0], [1, 1]], "'b' has zero norm"),
    ([[1, 1], [1e-45, 0], [0, 0], [3e38, -3e38]], "'c' has zero norm"),
], ids=["nan-and-inf-after-zero", "opposite-infinities", "zeros", "extremes"])
def test_bad_row_message_names_the_first_bad_id(tmp_path, rows, message):
    # Any non-finite row is reported before any zero row, each by its first id;
    # the smallest subnormal and the largest float32 rows are admitted.
    ids = ["a", "b", "c", "d", "e"][: len(rows)]
    store = VectorStore(dims=2, provider_fingerprint="fp")
    with pytest.raises(DataError, match=f"^embedding for {message}$"):
        store.insert_many(ids, np.array(rows, dtype=np.float32))
    assert len(store) == 0
    path = tmp_path / "bad.vdb"
    write_raw_store(path, 2, [(c.encode(), row) for c, row in zip(ids, rows)])
    with pytest.raises(DataError, match=f"^embedding for {message}$"):
        VectorStore.load(path)


@pytest.mark.parametrize("order, error, named", [
    ("bab", StoreFormatError, "chunk id 'a' follows 'b'"),
    ("acb", StoreFormatError, "chunk id 'b' follows 'c'"),
    ("abb", DuplicateChunkError, "chunk id 'b' follows 'b'"),
], ids=["b-a-b", "a-c-b", "a-b-b"])
def test_load_refuses_ids_that_do_not_ascend(tmp_path, order, error, named):
    # save writes ids strictly ascending; load repairs no other order.
    path = tmp_path / "order.vdb"
    write_raw_store(path, 2, [(c.encode(), [1.0, float(i)]) for i, c in enumerate(order)])
    with pytest.raises(error, match=named):
        VectorStore.load(path)


def test_duplicate_error_names_the_smallest_duplicated_id():
    store = VectorStore(dims=2, provider_fingerprint="fp")
    with pytest.raises(DuplicateChunkError, match="'m'"):
        store.insert_many(["z", "m", "z", "m"], np.ones((4, 2), dtype=np.float32))
    assert len(store) == 0




def test_identical_vectors_tie_exactly():
    # Row-position-dependent BLAS kernels can score two copies of one vector
    # an ulp apart; copies must still tie and then rank by chunk_id.
    rng = np.random.default_rng(0)
    half, dims = 259, 26
    base = rng.normal(size=(half, dims)).astype(np.float32)
    store = VectorStore(dims=dims, provider_fingerprint="fp")
    for i, vec in enumerate(np.concatenate([base, base])):
        store.insert(VectorRecord(chunk_id=f"c{i:04d}", embedding=vec))
    for query in rng.normal(size=(20, dims)):
        hits = store.search(query, k=2 * half)
        score = {h.chunk_id: h.score for h in hits}
        rank = {h.chunk_id: position for position, h in enumerate(hits)}
        for i in range(half):
            first, copy = f"c{i:04d}", f"c{i + half:04d}"
            assert score[first] == score[copy]
            assert rank[copy] == rank[first] + 1


def test_package_import_loads_no_submodule():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = "import sys, telerag; print(sorted(m for m in sys.modules if m.startswith('telerag')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "['telerag']\n"), proc.stderr


def test_raw_store_layout_loads(tmp_path):
    # A file written byte by byte (offsets 0, 100, 200) loads as the store that
    # inserts and binds the same records, and saves to the same bytes.
    path = tmp_path / "raw.vdb"
    digest = bytes(range(32))
    path.write_bytes(raw_store(2, [(b"a", [0.0, 1.0]), (b"b", [1.0, 0.0]), (b"c", [1.0, 1.0])],
                               digest=digest))
    store = VectorStore.load(path)
    assert (len(store), store.dims, store.provider_fingerprint) == (3, 2, "fp")
    assert store.corpus_sha256 == digest
    assert store.corpus_offsets() == {"a": 0, "b": 100, "c": 200}
    assert [h.chunk_id for h in store.search([0.0, 1.0], k=1)] == ["a"]
    twin = VectorStore(dims=2, provider_fingerprint="fp")
    twin.insert_many(["c", "b", "a"], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    twin.bind_corpus(digest, {"a": 0, "b": 100, "c": 200})
    queries = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
    assert store.search_many(queries, 3) == twin.search_many(queries, 3)
    # a and b tie on [1, 1]; the tie breaks on chunk_id.
    assert [h.chunk_id for h in store.search([1.0, 1.0], k=3)] == ["c", "a", "b"]
    store.save(tmp_path / "loaded.vdb")
    twin.save(tmp_path / "twin.vdb")
    assert (tmp_path / "loaded.vdb").read_bytes() == (tmp_path / "twin.vdb").read_bytes()


@pytest.mark.parametrize(
    "ids_block",
    [b'["a"]', b'["a","b","c"]', b'{"a":1,"b":2}', b'["a",2]', b'"ab"', b"[not json", b"\xff"],
)
def test_load_rejects_bad_ids_block(tmp_path, ids_block):
    path = tmp_path / "ids.vdb"
    path.write_bytes(raw_store(2, [(b"a", [1.0, 0.0]), (b"b", [0.0, 1.0])], ids_block=ids_block))
    with pytest.raises(StoreFormatError):
        VectorStore.load(path)


def test_load_rejects_truncation_in_every_block_and_trailing_bytes(tmp_path):
    records = [(b"a", [1.0, 0.0]), (b"b", [0.0, 1.0])]
    ids_block = b'["a","b"]'
    blob = raw_store(2, records, fingerprint=b"fp", ids_block=ids_block)
    # Ends of the blocks: header, fingerprint, digest, ids length, ids, offsets, vectors.
    ends = [20, 24 + 2, 26 + 32, 58 + 8, 66 + len(ids_block), 75 + 16, 91 + 16]
    assert ends[-1] == len(blob)
    path = tmp_path / "cut.vdb"
    for end in ends:
        for cut in (end - 1, end - 2):
            path.write_bytes(blob[:cut])
            with pytest.raises(StoreFormatError):
                VectorStore.load(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(StoreFormatError, match="trailing bytes"):
        VectorStore.load(path)
    path.write_bytes(blob)
    assert len(VectorStore.load(path)) == 2


def test_load_refuses_format_version_1(tmp_path):
    blob = bytearray(raw_store(2, [(b"a", [1.0, 0.0])]))
    blob[4:8] = struct.pack("<I", 1)
    path = tmp_path / "v1.vdb"
    path.write_bytes(bytes(blob))
    with pytest.raises(StoreFormatError) as exc:
        VectorStore.load(path)
    assert str(exc.value) == "unsupported store format version 1; re-run telerag embed"
    assert VectorStore.read_header(path) == (1, 2, 1, "fp")


def test_bound_store_saves_digest_and_offsets_insert_unbinds(tmp_path):
    store, _ = random_store(3, 4, seed=16)
    assert store.corpus_sha256 == bytes(32)
    assert store.corpus_offsets() == dict.fromkeys(["c00000", "c00001", "c00002"], 0)
    store.bind_corpus(b"\x01" * 32, {"c00000": 30, "c00001": 10, "c00002": 20})
    path = tmp_path / "bound.vdb"
    store.save(path)
    loaded = VectorStore.load(path)
    assert loaded.corpus_sha256 == b"\x01" * 32
    assert loaded.corpus_offsets() == {"c00000": 30, "c00001": 10, "c00002": 20}
    with pytest.raises(ValueError):
        store.bind_corpus(b"\x01" * 32, {"c00000": 1, "c00001": 2})
    store.insert(VectorRecord(chunk_id="c9", embedding=np.ones(4, dtype=np.float32)))
    assert store.corpus_sha256 == bytes(32)
    assert set(store.corpus_offsets().values()) == {0}


def test_insert_many_matches_per_record_insert(tmp_path):
    rng = np.random.default_rng(41)
    rows = rng.normal(size=(150, 12)).astype(np.float32)
    rows[70] = rows[3]  # a repeated vector, as repeated chunk texts give
    ids = [f"c{i:04d}" for i in rng.permutation(150)]
    one, many = VectorStore(12, "fp"), VectorStore(12, "fp")
    for chunk_id, row in zip(ids, rows):
        one.insert(VectorRecord(chunk_id=chunk_id, embedding=row))
    for lo in range(0, 150, 64):  # blocks of 64, 64 and 22, as `embed` inserts them
        many.insert_many(ids[lo : lo + 64], rows[lo : lo + 64])
    one.save(tmp_path / "one.vdb")
    many.save(tmp_path / "many.vdb")
    assert (tmp_path / "one.vdb").read_bytes() == (tmp_path / "many.vdb").read_bytes()
    queries = rng.normal(size=(20, 12))
    assert many.search_many(queries, 7) == one.search_many(queries, 7)


@pytest.mark.parametrize(
    "ids, rows, error",
    [
        (["n0", "n1", "n0"], np.ones((3, 4), dtype=np.float32), DuplicateChunkError),
        (["n0", "c00001"], np.ones((2, 4), dtype=np.float32), DuplicateChunkError),
        (["n0", "n1"], np.array([[1, 0, 0, 0], [0, 0, 0, 0]], dtype=np.float32), DataError),
        (["n0", "n1"], np.array([[1, 0, 0, 0], [np.nan, 1, 0, 0]], dtype=np.float32), DataError),
        (["n0", "n1"], np.ones((2, 5), dtype=np.float32), DimensionMismatchError),
    ],
    ids=["duplicate-in-block", "already-stored", "zero-row", "nan-row", "wrong-width"],
)
def test_insert_many_rejects_whole_block(tmp_path, ids, rows, error):
    store, _ = random_store(3, 4, seed=43)
    store.save(tmp_path / "before.vdb")
    with pytest.raises(error):
        store.insert_many(ids, rows)
    assert len(store) == 3
    store.save(tmp_path / "after.vdb")
    assert (tmp_path / "after.vdb").read_bytes() == (tmp_path / "before.vdb").read_bytes()
    store.insert_many(["n0"], np.ones((1, 4), dtype=np.float32))  # the store still takes rows
    assert len(store) == 4
