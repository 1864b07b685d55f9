"""Property tests: exact top-k against a brute-force oracle, store file round
trips, and the hash-test provider against its loop reference."""

from __future__ import annotations

import hashlib
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telerag import vstore
from telerag.embed import _hash_test_vectors, cosine_similarity
from telerag.vstore import VectorRecord, VectorStore


def loop_hash_test_vector(text: str, dims: int, seed: int) -> np.ndarray:
    """The hash-test recipe one Python int at a time: the reference."""
    payload = text.encode("utf-8")
    values: list[float] = []
    counter = 0
    while len(values) < dims:
        digest = hashlib.sha256(b"hv1|%d|%d|%d|" % (seed, dims, counter) + payload).digest()
        for off in range(0, 32, 8):
            if len(values) == dims:
                break
            word = int.from_bytes(digest[off : off + 8], "little")
            values.append(word / 2**63 - 1.0)
        counter += 1
    norm = math.sqrt(math.fsum(v * v for v in values))
    if norm == 0.0:
        values[0] = 1.0
        norm = 1.0
    return (np.asarray(values, dtype=np.float64) / norm).astype(np.float32)


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(st.text(max_size=64), max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=6) if pool else st.just([])
    ),
    dims=st.integers(1, 400),
    seed=st.integers(0, 2**63),
)
@example(texts=[], dims=5, seed=0)
@example(texts=["abc"], dims=1, seed=0)
@example(texts=["abc", "abd", "abc"], dims=7, seed=0)
@example(texts=["3GPP TS 38.331"], dims=256, seed=0)
@example(texts=["3GPP TS 38.331", ""], dims=384, seed=7)
def test_hash_test_vector_bit_identical_to_loop(texts, dims, seed):
    """Each row of a batch (repeats allowed) is the loop reference's vector."""
    batch = _hash_test_vectors(texts, dims, seed)
    assert batch.shape == (len(texts), dims)
    assert batch.dtype == np.float32 and batch.flags.c_contiguous
    for text, row in zip(texts, batch):
        assert row.tobytes() == loop_hash_test_vector(text, dims, seed).tobytes()


def oracle_top_k(records: dict[str, np.ndarray], query: np.ndarray, k: int):
    scored = [(chunk_id, cosine_similarity(vec, query)) for chunk_id, vec in records.items()]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


@st.composite
def stores(draw):
    """Records drawn from a few distinct random vectors, so that repeated
    vectors (exact ties) are common, plus queries that are either a stored
    vector or a fresh one."""
    dims = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.normal(size=(draw(st.integers(1, 12)), dims)).astype(np.float32)
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=30))
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=len(picks),
                        max_size=len(picks), unique=True))
    records = {chunk_id: distinct[p] for chunk_id, p in zip(ids, picks)}
    queries = [
        distinct[p].astype(np.float64) if p >= 0 else rng.normal(size=dims)
        for p in draw(st.lists(st.integers(-1, len(distinct) - 1), min_size=1, max_size=7))
    ]
    return dims, records, np.array(queries)


def build(dims: int, records: dict[str, np.ndarray]) -> VectorStore:
    store = VectorStore(dims=dims, provider_fingerprint="hash-test:seed-0:0")
    for chunk_id, vec in records.items():
        store.insert(VectorRecord(chunk_id=chunk_id, embedding=vec))
    return store


def assert_matches_oracle(hits, records, query, k):
    want = oracle_top_k(records, query, k)
    assert [h.chunk_id for h in hits] == [chunk_id for chunk_id, _ in want]
    assert [h.rank for h in hits] == list(range(1, len(want) + 1))
    for hit, (_, score) in zip(hits, want):
        assert abs(hit.score - score) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(case=stores(), extra_k=st.integers(0, 3), per_block=st.integers(1, 3),
       group=st.sampled_from([vstore.GROUP, 1, 2, 3]), data=st.data())
def test_search_and_search_many_match_oracle(case, extra_k, per_block, group, data):
    dims, records, queries = case
    k = data.draw(st.integers(1, len(records))) + extra_k
    store = build(dims, records)
    # Small groups give full groups, a short last group, k above the group
    # count and copies of one vector in different groups on these small stores.
    with mock.patch.object(vstore, "GROUP", group):
        # Blocks of per_block queries, so a batch of up to 7 crosses block boundaries.
        with mock.patch.object(vstore, "SCORE_BLOCK_BYTES", 8 * len(records) * per_block):
            batched = store.search_many(queries, k)
        assert len(batched) == len(queries)
        for query, many_hits in zip(queries, batched):
            assert_matches_oracle(many_hits, records, query, k)
            assert_matches_oracle(store.search(query, k), records, query, k)


GROUPS = [1, 2, 3, vstore.GROUP]


@pytest.mark.parametrize("group", GROUPS)
def test_all_copies_of_one_vector_rank_by_chunk_id(group):
    vec = np.random.default_rng(1).normal(size=8).astype(np.float32)
    ids = [f"c{i:02d}" for i in range(10)]
    store = build(8, {chunk_id: vec for chunk_id in reversed(ids)})
    with mock.patch.object(vstore, "GROUP", group):
        for k in (1, 3, 10, 12):
            for query in (vec.astype(np.float64), -vec.astype(np.float64)):
                assert [h.chunk_id for h in store.search(query, k)] == ids[:k]


@pytest.mark.parametrize("group", GROUPS)
def test_best_vector_alone_in_last_group(group):
    rng = np.random.default_rng(2)
    distinct = rng.normal(size=(2 * group + 1, 8)).astype(np.float32)
    # Matrix rows follow chunk_id order, so the last id's vector is alone in the last group.
    records = {f"d{i:02d}": vec for i, vec in enumerate(distinct)}
    store = build(8, records)
    query = distinct[-1].astype(np.float64)
    with mock.patch.object(vstore, "GROUP", group):
        for k in range(1, len(records) + 1):
            hits = store.search(query, k)
            assert hits[0].chunk_id == f"d{2 * group:02d}"
            assert_matches_oracle(hits, records, query, k)


@pytest.mark.parametrize("group", GROUPS)
def test_k_equal_to_record_count_ranks_every_record(group):
    rng = np.random.default_rng(3)
    distinct = rng.normal(size=(4, 8)).astype(np.float32)
    records = {f"r{i:02d}": distinct[i % 4] for i in range(11)}
    store = build(8, records)
    queries = rng.normal(size=(3, 8))
    with mock.patch.object(vstore, "GROUP", group):
        for query, hits in zip(queries, store.search_many(queries, len(records))):
            assert len(hits) == len(records)
            assert_matches_oracle(hits, records, query, len(records))


@settings(max_examples=60, deadline=None)
@given(case=stores(), bound=st.booleans(), data=st.data())
def test_save_load_save_byte_identical(case, bound, data):
    dims, records, queries = case
    store = build(dims, records)
    digest, offsets = bytes(32), dict.fromkeys(records, 0)
    if bound:
        digest = data.draw(st.binary(min_size=32, max_size=32))
        drawn = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=len(records),
                                   max_size=len(records)))
        offsets = dict(zip(records, drawn))
        store.bind_corpus(digest, drawn)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.vdb"), Path(tmp, "b.vdb")
        store.save(first)
        loaded = VectorStore.load(first)
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()
    assert (loaded.corpus_sha256, loaded.corpus_offsets()) == (digest, offsets)
    assert loaded.search_many(queries, len(records)) == store.search_many(queries, len(records))
