"""End-to-end acceptance checks.

Each test covers one release criterion at its stated tolerance and prints a
single [criterion] PASS/FAIL line (visible with pytest -s or in captured
output on failure).
"""

from __future__ import annotations

import functools
import json
import random
import time

import numpy as np

from telerag import userassoc
from telerag.cli import main as cli_main
from telerag.corpus import Chunk, Document, chunk_document, chunk_map, count_tokens
from telerag.embed import EmbeddingProviderConfig, cosine_similarity, embed_text
from telerag.energymodel import fit, generate_synthetic
from telerag.evalharness import McqItem, render_prompt, score, weighted_overall_accuracy
from telerag.modelclient import Completion, TranscriptBackend
from telerag.rag import RagConfig, build_query, retrieve_many, run_evaluation
from telerag.userassoc import (
    AssocProblem,
    RandomGuessBackend,
    check_answer,
    generate_problem,
    oracle,
    render_problem_prompt,
    run_curve,
)
from telerag.vstore import VectorRecord, VectorStore

TABLE_COUNTS = [500, 2000, 4500, 1000, 2000]


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion] {name}: FAIL")
                raise
            print(f"[criterion] {name}: PASS")

        return wrapper

    return decorate


@criterion("scoring arithmetic")
def test_scoring_arithmetic():
    start = time.perf_counter()
    gpt35 = weighted_overall_accuracy(TABLE_COUNTS, [82.20, 68.50, 70.42, 64.00, 56.97])
    phi2 = weighted_overall_accuracy(TABLE_COUNTS, [52.60, 58.38, 54.14, 48.04, 44.27])
    assert gpt35 == 67.29
    assert phi2 == 52.33
    assert abs(phi2 - 52.30) <= 0.05
    assert time.perf_counter() - start < 1.0


@criterion("retrieval exactness")
def test_retrieval_exactness():
    start = time.perf_counter()
    rng = random.Random(424242)
    for case in range(1000):
        n = rng.randint(1, 500)
        dims = rng.randint(8, 128)
        nprng = np.random.default_rng(case)
        store = VectorStore(dims=dims, provider_fingerprint="fp")
        vectors = {f"c{i:05d}": nprng.normal(size=dims).astype(np.float32) for i in range(n)}
        store.insert_many(list(vectors), list(vectors.values()))
        query = nprng.normal(size=dims)
        k = rng.randint(1, 10)
        hits = store.search(query, k=k)
        # Independent oracle: full sort over per-record cosine similarities.
        ranked = sorted(
            vectors,
            key=lambda cid: (-cosine_similarity(vectors[cid], query), cid),
        )[:k]
        assert [h.chunk_id for h in hits] == ranked, f"case {case}"
    assert time.perf_counter() - start < 30.0


@criterion("chunker formula and round-trip")
def test_chunker_properties():
    rng = random.Random(13579)
    vocabulary = ["nr", "gNB", "rrc,", "harq", "5g-nr", "x2/xn", "Σ", "s1ap"]
    for case in range(500):
        n_tokens = rng.randint(0, 1500)
        text = " ".join(rng.choice(vocabulary) for _ in range(n_tokens))
        doc = Document(doc_id=f"d{case}", source_name="d.txt", text=text)
        chunk_size = rng.randint(1, 600)
        overlap = rng.randint(0, chunk_size - 1)
        chunks = chunk_document(doc, chunk_size, overlap)
        if n_tokens == 0:
            expected = 0
        elif n_tokens <= overlap:
            expected = 1  # degenerate tiny-document corner: content is never dropped
        else:
            expected = -(-(n_tokens - overlap) // (chunk_size - overlap))
        assert len(chunks) == expected, (case, n_tokens, chunk_size, overlap)

        flat = chunk_document(doc, chunk_size, 0)
        stream = [tok for c in flat for tok in c.text.split()]
        assert stream == text.split(), f"round-trip failed in case {case}"


class PlantedFactBackend:
    """Answers correctly iff the item's gold chunk text is in the context block."""

    def __init__(self, items, gold_texts, seed=0):
        self._by_template = {render_prompt(item): item for item in items}
        self._gold_texts = gold_texts
        self._seed = seed

    def complete(self, prompt: str) -> Completion:
        for template, item in self._by_template.items():
            if prompt.endswith(template):
                context_block = prompt[: len(prompt) - len(template)]
                if self._gold_texts[item.item_id] in context_block:
                    picked = item.correct_index
                else:
                    rng = random.Random(userassoc.derive_seed("planted", self._seed, item.item_id))
                    picked = rng.randint(1, len(item.options))
                return Completion(text=f"{picked}. {item.options[picked - 1]}")
        raise AssertionError("prompt does not match any known item")


@criterion("RAG uplift on planted facts")
def test_rag_uplift_planted_facts():
    rng = random.Random(31337)
    provider = EmbeddingProviderConfig(kind="hash-test", dims=64, seed=0)
    items = []
    gold_texts = {}
    chunks = []
    for i in range(200):
        options = tuple(f"code-{i:03d}-{letter}" for letter in "abcd")
        item = McqItem(
            item_id=f"pf{i:03d}",
            category="Standards specifications",
            question=f"Which retrieval code belongs to secret record {i:03d}?",
            options=options,
            correct_index=rng.randint(1, 4),
        )
        items.append(item)
        gold_text = build_query(item, "question_plus_options")
        gold_texts[item.item_id] = gold_text
        chunks.append(
            Chunk(
                chunk_id=f"gold-{i:03d}",
                doc_id=f"gold-{i:03d}",
                seq=0,
                text=gold_text,
                token_count=count_tokens(gold_text),
            )
        )
    decoy_words = ["spectrum", "carrier", "paging", "beam", "uplink", "frame", "slot"]
    for j in range(300):
        text = " ".join(rng.choice(decoy_words) for _ in range(40))
        chunks.append(
            Chunk(
                chunk_id=f"decoy-{j:03d}",
                doc_id=f"decoy-{j:03d}",
                seq=0,
                text=text,
                token_count=count_tokens(text),
            )
        )
    store = VectorStore(dims=provider.dims, provider_fingerprint=provider.fingerprint)
    for chunk in chunks:
        store.insert(VectorRecord(chunk_id=chunk.chunk_id, embedding=embed_text(provider, chunk.text)))

    # Construction guarantee: the gold chunk ranks top-1 for >= 90% of items.
    cfg = RagConfig(k=3)
    top1 = sum(
        1
        for item in items
        if store.search(embed_text(provider, build_query(item, cfg.query_mode)), k=1)[0].chunk_id
        == f"gold-{item.item_id[2:]}"
    )
    assert top1 >= 0.90 * len(items)

    backend = PlantedFactBackend(items, gold_texts, seed=1)
    plain = score(items, [r.answer for r in run_evaluation(backend, items, concurrency=1)])
    queries = [build_query(item, cfg.query_mode) for item in items]
    augmented_results = run_evaluation(
        backend, items, contexts=retrieve_many(store, provider, queries, cfg, chunk_map(chunks)),
        concurrency=1,
    )
    augmented = score(items, [r.answer for r in augmented_results])
    uplift = augmented.overall.accuracy_percent - plain.overall.accuracy_percent
    assert uplift >= 30.0, f"uplift {uplift:.2f} below 30 points"


@criterion("energy model fitting")
def test_energy_fitting():
    start = time.perf_counter()
    true_params = {"PS": 0.31, "alpha": 0.18, "beta": 3.4}
    noiseless = generate_synthetic(90, true_params, noise_sd=0.0, seed=90)
    exact = fit(noiseless, "eq2")
    for key, value in true_params.items():
        assert abs(exact.params[key] - value) / abs(value) <= 1e-6
    assert exact.mape_percent <= 1e-6

    noisy = generate_synthetic(90, true_params, noise_sd=0.02, seed=91)
    affine = fit(noisy, "eq2")
    simple = fit(noisy, "eq1")
    assert affine.mape_percent < 10.0
    assert simple.mape_percent > 3.0 * affine.mape_percent
    assert time.perf_counter() - start < 1.0


@criterion("user-association oracle")
def test_user_association_oracle():
    rng = random.Random(808)
    for case in range(10000):
        n = 2 + case % 9
        problem = generate_problem(n, userassoc.derive_seed("acc", case))
        ranked = sorted(
            range(n), key=lambda i: problem.signals_dbm[i], reverse=True
        )
        assert oracle(problem) == ranked[1] + 1
        assert oracle(problem) != problem.forbidden_index
    for _ in range(1000):
        problem = generate_problem(rng.randint(2, 10), rng.randrange(2**32))
        offset = rng.randint(-1000, 1000)
        shifted = AssocProblem.from_signals(
            "shift", [s + offset for s in problem.signals_dbm]
        )
        assert oracle(shifted) == oracle(problem)


@criterion("curve replay and random-guess bounds")
def test_curve_replay():
    backend = TranscriptBackend(userassoc.reference_transcript_path())
    curve = run_curve(
        backend,
        [2, 4, 6, 8, 10],
        trials_per_n=userassoc.REFERENCE_TRANSCRIPT_TRIALS,
        seed=userassoc.REFERENCE_TRANSCRIPT_SEED,
    )
    assert [(n, s.correct) for n, s in curve] == [
        (2, 93), (4, 61), (6, 44), (8, 29), (10, 19),
    ]
    assert all(s.count == 100 and s.errored == 0 for _, s in curve)

    [(_, guesses)] = run_curve(RandomGuessBackend(seed=77), [4], trials_per_n=1000, seed=606)
    sigma = (0.25 * 0.75 / 1000) ** 0.5 * 100
    assert abs(guesses.accuracy_percent - 25.0) <= 3 * sigma


@criterion("prompt fidelity")
def test_prompt_fidelity():
    item = McqItem(
        item_id="q",
        category="Standards specifications",
        question="What is the SSB periodicity?",
        options=("5 ms", "20 ms", "80 ms"),
        correct_index=2,
    )
    assert render_prompt(item) == (
        "Instruct: Answer the following question. Your answer must start with "
        "the number of the correct answer followed by the text of the answer.\n"
        "What is the SSB periodicity?\n"
        "1. 5 ms\n"
        "2. 20 ms\n"
        "3. 80 ms\n"
        "Output:"
    )

    problem = AssocProblem.from_signals("reference", [-80, -62, -70])
    assert problem.forbidden_index == 2
    assert render_problem_prompt(problem) == (
        "Instruct: A mobile device receives signals from three different base "
        "stations. The signal strengths are as follows:\n"
        "- The signal strength from base station 1 is -80 dBm\n"
        "- The signal strength from base station 2 is -62 dBm\n"
        "- The signal strength from base station 3 is -70 dBm\n"
        "The device must connect to the base station providing the strongest "
        "signal but avoiding base station 2.\n"
        "Given these signal strengths, to which base station should the mobile "
        "device connect?\n"
        "Output:"
    )
    assert check_answer(problem, "The device should connect to base station 3").correct


def _run_pipeline(workdir) -> dict[str, bytes]:
    from telerag.evalharness import load_dataset
    from telerag.modelclient import write_transcript
    from telerag.rag import augment, retrieve_many
    from telerag.corpus import read_chunks_jsonl

    docs = workdir / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    for i in range(3):
        text = " ".join(f"term{i}x{j} definition{j}" for j in range(120))
        (docs / f"spec{i}.txt").write_text(text, encoding="utf-8")
    corpus_path = workdir / "corpus.jsonl"
    assert cli_main(["ingest", "--input", str(docs), "--out", str(corpus_path),
                     "--chunk-size", "64"]) == 0

    provider_cfg_path = workdir / "provider.json"
    provider_cfg_path.write_text(
        json.dumps({"kind": "hash-test", "dims": 32, "seed": 0}), encoding="utf-8"
    )
    store_path = workdir / "store.vdb"
    assert cli_main(["embed", "--corpus", str(corpus_path),
                     "--provider-config", str(provider_cfg_path),
                     "--out", str(store_path)]) == 0

    rows = []
    for i in range(25):
        rows.append({
            "item_id": f"q{i}",
            "category": "Standards specifications",
            "question": f"What does term{i % 3}x{i} mean?",
            "options": [f"sense {i}-{j}" for j in range(4)],
            "correct_index": (i % 4) + 1,
        })
    dataset_path = workdir / "dataset.jsonl"
    dataset_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")

    # Record replies against the exact augmented prompts this corpus produces.
    items = load_dataset(dataset_path)
    provider = EmbeddingProviderConfig(kind="hash-test", dims=32, seed=0)
    store = VectorStore.load(store_path)
    chunks = chunk_map(read_chunks_jsonl(corpus_path))
    cfg = RagConfig(k=2)
    entries = []
    for i, item in enumerate(items):
        query = build_query(item, cfg.query_mode)
        context = [c for c, _ in retrieve_many(store, provider, [query], cfg, chunks)[0]]
        prompt = augment(item, context)
        picked = item.correct_index if i % 2 == 0 else (item.correct_index % 4) + 1
        entries.append((prompt, f"{picked}. {item.options[picked - 1]}"))
    transcript_path = workdir / "transcript.jsonl"
    write_transcript(entries, transcript_path)

    model_cfg_path = workdir / "model.json"
    model_cfg_path.write_text(
        json.dumps({"kind": "mock_script", "script_path": str(transcript_path)}),
        encoding="utf-8",
    )
    report_path = workdir / "report.json"
    csv_path = workdir / "percat.csv"
    audit_path = workdir / "audit.jsonl"
    assert cli_main(["eval", "--dataset", str(dataset_path),
                     "--model-config", str(model_cfg_path),
                     "--rag", str(store_path), "--corpus", str(corpus_path), "--k", "2",
                     "--report", str(report_path), "--csv", str(csv_path),
                     "--audit", str(audit_path)]) == 0
    return {
        "corpus": corpus_path.read_bytes(),
        "store": store_path.read_bytes(),
        "report": report_path.read_bytes(),
        "csv": csv_path.read_bytes(),
        "audit": audit_path.read_bytes(),
    }


@criterion("pipeline determinism")
def test_pipeline_determinism(tmp_path):
    workdir = tmp_path / "run"
    first = _run_pipeline(workdir)
    second = _run_pipeline(workdir)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
