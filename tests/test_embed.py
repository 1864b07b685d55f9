from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import sys
import threading

import numpy as np
import pytest
from fake_http import FakeResponse

from telerag import forkpool
from telerag.embed import (
    EmbeddingProviderConfig,
    cosine_similarity,
    embed_text,
    embed_texts,
    provider_from_fingerprint,
)
from telerag.errors import DataError, ProviderError

HASH8 = EmbeddingProviderConfig(kind="hash-test", dims=8)


def test_hash_provider_deterministic():
    assert np.array_equal(embed_text(HASH8, "abc"), embed_text(HASH8, "abc"))


def test_hash_provider_dims_and_norm():
    vec = embed_text(HASH8, "abc")
    assert vec.shape == (8,)
    assert vec.dtype == np.float32
    assert abs(float(np.linalg.norm(vec.astype(np.float64))) - 1.0) < 1e-6


def test_hash_provider_bit_reproducible_pin():
    # Regression pin: the generation recipe must never drift, or every stored
    # vector store becomes unreadable garbage for its fingerprint.
    vec = embed_text(HASH8, "abc")
    assert hashlib.sha256(vec.tobytes()).hexdigest() == (
        "fe4dd663ecd8bcaf42a9e57683a88039dd5d817a3b4a7d9b34bfc38ec32e63c7"
    )


def test_hash_provider_distinguishes_text_and_seed():
    other_seed = EmbeddingProviderConfig(kind="hash-test", dims=8, seed=1)
    assert not np.array_equal(embed_text(HASH8, "abc"), embed_text(HASH8, "abd"))
    assert not np.array_equal(embed_text(HASH8, "abc"), embed_text(other_seed, "abc"))


def test_embed_rejects_empty_text():
    with pytest.raises(ValueError):
        embed_text(HASH8, "   ")


def test_batch_order_does_not_affect_results():
    a, b = embed_texts(HASH8, ["first", "second"])
    b2, a2 = embed_texts(HASH8, ["second", "first"])
    assert np.array_equal(a, a2)
    assert np.array_equal(b, b2)


@pytest.mark.parametrize("dims", [1, 7, 256])
def test_batch_rows_equal_one_at_a_time(dims):
    cfg = EmbeddingProviderConfig(kind="hash-test", dims=dims, seed=3)
    texts = ["gNB", "PDSCH on the downlink", "gNB", "Ünïcode A3 event"]
    batch = embed_texts(cfg, texts)
    assert batch.shape == (4, dims) and batch.dtype == np.float32 and batch.flags.c_contiguous
    for text, row in zip(texts, batch):
        assert row.tobytes() == embed_text(cfg, text).tobytes()
    assert embed_texts(cfg, []).shape == (0, dims)


def test_http_provider_requires_endpoint_and_model():
    with pytest.raises(ValueError):
        EmbeddingProviderConfig(kind="http", dims=8)
    with pytest.raises(ValueError):
        EmbeddingProviderConfig(kind="bogus", dims=8)
    with pytest.raises(ValueError):
        EmbeddingProviderConfig(kind="hash-test", dims=0)


def test_http_provider_unreachable_endpoint():
    cfg = EmbeddingProviderConfig(
        kind="http", dims=8, endpoint="http://127.0.0.1:1/embed",
        model_name="m", timeout_s=0.5,
    )
    with pytest.raises(ProviderError):
        embed_text(cfg, "abc")


def test_http_provider_malformed_response(monkeypatch):
    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse(200, {"unexpected": []}))
    cfg = EmbeddingProviderConfig(
        kind="http", dims=8, endpoint="http://fake/embed", model_name="m"
    )
    with pytest.raises(ProviderError):
        embed_text(cfg, "abc")


def test_http_provider_happy_path(monkeypatch):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured["url"] = url
        captured["json"] = json
        return FakeResponse(200, {"data": [{"embedding": [1.0, 0.0, 0.0, 0.0]}]})

    monkeypatch.setattr("requests.post", fake_post)
    cfg = EmbeddingProviderConfig(
        kind="http", dims=4, endpoint="http://fake/embed", model_name="bge-base-en-v1.5"
    )
    vec = embed_text(cfg, "abc")
    assert vec.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert captured["json"] == {"model": "bge-base-en-v1.5", "input": ["abc"]}


def test_http_provider_sends_api_key_from_env(monkeypatch):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured["headers"] = headers
        return FakeResponse(200, {"data": [{"embedding": [0.0, 1.0]}]})

    monkeypatch.setattr("requests.post", fake_post)
    monkeypatch.setenv("MODEL_API_KEY", "sekrit")
    cfg = EmbeddingProviderConfig(kind="http", dims=2, endpoint="http://fake", model_name="m")
    embed_text(cfg, "abc")
    assert captured["headers"]["Authorization"] == "Bearer sekrit"


def test_cosine_identity_orthogonal_scale():
    vec = embed_text(HASH8, "xyz")
    assert cosine_similarity(vec, vec) == pytest.approx(1.0, abs=1e-12)
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine_similarity(vec, 2.0 * vec) == pytest.approx(1.0, abs=1e-9)


def test_cosine_symmetry_and_scale_invariance_random():
    rng = random.Random(33)
    for _ in range(200):
        dims = rng.randint(2, 32)
        a = np.array([rng.gauss(0, 1) for _ in range(dims)])
        b = np.array([rng.gauss(0, 1) for _ in range(dims)])
        scale = rng.uniform(0.01, 100.0)
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-12)
        assert cosine_similarity(a, scale * b) == pytest.approx(
            cosine_similarity(a, b), abs=1e-9
        )
        assert -1.0 <= cosine_similarity(a, b) <= 1.0


def test_cosine_rejects_mismatch_and_zero():
    with pytest.raises(ValueError):
        cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


def test_fingerprints_include_space_identity():
    assert HASH8.fingerprint == "hash-test:seed-0:8"
    http = EmbeddingProviderConfig(kind="http", dims=768, endpoint="http://x", model_name="bge")
    assert http.fingerprint == "http:bge:768"


def test_provider_from_fingerprint_round_trip():
    cfg = EmbeddingProviderConfig(kind="hash-test", dims=16, seed=9)
    rebuilt = provider_from_fingerprint(cfg.fingerprint)
    assert rebuilt.dims == 16 and rebuilt.seed == 9
    with pytest.raises(DataError):
        provider_from_fingerprint("http:bge:768")


def test_threads_share_prefix_hashes_safely():
    # Every thread copies the same cached prefix hashes; rows must not change.
    cfg = EmbeddingProviderConfig(kind="hash-test", dims=64, seed=11)
    texts = [f"chunk {i} of the RRC specification" for i in range(40)]
    expected = embed_texts(cfg, texts).tobytes()
    results: list[bytes] = []

    def work():
        for _ in range(20):
            results.append(embed_texts(cfg, texts).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 160 and set(results) == {expected}


def test_worker_processes_give_the_serial_rows(monkeypatch):
    from telerag import embed

    cfg = EmbeddingProviderConfig(kind="hash-test", dims=37, seed=2)
    texts = [f"text {i}" for i in range(3 * embed.EMBED_BLOCK + 5)]
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 1)
    serial = embed_texts(cfg, texts)
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 3)
    monkeypatch.setattr(os, "fork", counted_fork)
    pooled = embed_texts(cfg, texts)
    assert len(forks) == 3
    assert pooled.dtype == np.float32 and pooled.flags.c_contiguous
    assert pooled.tobytes() == serial.tobytes()
    assert multiprocessing.active_children() == []


def test_no_fork_while_other_threads_run(monkeypatch):
    from telerag import embed

    def no_fork():
        raise AssertionError("forked while another thread ran")

    cfg = EmbeddingProviderConfig(kind="hash-test", dims=16, seed=4)
    texts = [f"text {i}" for i in range(2 * embed.EMBED_BLOCK + 1)]
    expected = embed_texts(cfg, texts).tobytes()
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 3)
    monkeypatch.setattr(os, "fork", no_fork)
    results = []
    thread = threading.Thread(target=lambda: results.append(embed_texts(cfg, texts).tobytes()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and results == [expected]
