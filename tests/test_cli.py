from __future__ import annotations

import contextlib
import hashlib
import http.client
import importlib
import json
import multiprocessing
import os
import random
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from fake_http import FakeResponse

from telerag import corpus, embed, energymodel, forkpool, userassoc
from telerag.cli import main
from telerag.corpus import read_chunks_jsonl
from telerag.energymodel import ENERGY_CSV_COLUMNS, generate_synthetic
from telerag.errors import DataError, ProviderError, read_utf8
from telerag.evalharness import csv_text
from telerag.modelclient import write_transcript
from telerag.vstore import FORMAT_VERSION, MAGIC, VectorStore

HASH_PROVIDER = {"kind": "hash-test", "dims": 32, "seed": 0}
HTTP_PROVIDER = {"kind": "http", "dims": 4, "endpoint": "http://fake/embed", "model_name": "m"}


@pytest.fixture(autouse=True)
def no_lock_or_tmp_left(request, tmp_path):
    """Fails a test that leaves a .lock or .tmp file anywhere under its tmp_path,
    unless it is marked leaves_lock because it plants one on purpose."""
    yield
    if not request.node.get_closest_marker("leaves_lock"):
        assert [p for p in tmp_path.rglob("*") if p.suffix in (".lock", ".tmp")] == []


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def child_env() -> dict:
    """This environment with the repository's src first on PYTHONPATH, for a
    child process that runs telerag."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def make_docs_dir(tmp_path, sizes=(600, 400)):
    docs = tmp_path / "docs"
    docs.mkdir()
    for i, n_tokens in enumerate(sizes):
        text = " ".join(f"w{i}x{j}" for j in range(n_tokens))
        (docs / f"doc{i}.txt").write_text(text, encoding="utf-8")
    return docs


def make_dataset_jsonl(tmp_path, n_items=40, n_options=4, seed=0):
    rng = random.Random(seed)
    rows = []
    for i in range(n_items):
        rows.append(
            {
                "item_id": f"q{i}",
                "category": "Standards specifications",
                "question": f"Benchmark question number {i}?",
                "options": [f"choice {i}-{j}" for j in range(n_options)],
                "correct_index": rng.randint(1, n_options),
            }
        )
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path, rows


def run_ingest(tmp_path, docs, out_name="corpus.jsonl", chunk_size=512):
    out = tmp_path / out_name
    code = main(["ingest", "--input", str(docs), "--out", str(out),
                 "--chunk-size", str(chunk_size)])
    assert code == 0
    return out


def test_ingest_chunk_arithmetic(tmp_path, capsys):
    docs = make_docs_dir(tmp_path, sizes=(600, 400))
    out = run_ingest(tmp_path, docs)
    chunks = read_chunks_jsonl(out)
    assert len(chunks) == 3
    assert "3 chunks" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert manifest["command"] == "ingest"


def test_ingest_empty_dir_fails(tmp_path, capsys):
    docs = tmp_path / "empty"
    docs.mkdir()
    code = main(["ingest", "--input", str(docs), "--out", str(tmp_path / "c.jsonl")])
    assert code == 2
    assert "no .txt documents found" in capsys.readouterr().err


def test_ingest_names_the_file_that_is_not_utf8(tmp_path, capsys):
    docs = make_docs_dir(tmp_path)
    bad = docs / "doc1.txt"
    bad.write_bytes(b"PDSCH \xff slot")
    out = tmp_path / "c.jsonl"
    assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad} is not UTF-8: invalid start byte at byte 6\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["docs"]


@pytest.mark.parametrize("suffix", [".jsonl", ".json"])
def test_eval_names_the_dataset_that_is_not_utf8(tmp_path, capsys, suffix):
    _, rows = make_dataset_jsonl(tmp_path, n_items=2)
    dataset = tmp_path / f"bad{suffix}"
    first = (json.dumps(rows[0]) + "\n").encode()
    dataset.write_bytes(first + b"\xff" + json.dumps(rows[1]).encode() + b"\n")
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    report = tmp_path / "r.json"
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"error: {dataset} is not UTF-8: invalid start byte at byte {len(first)}\n")
    assert not report.exists()


def test_ingest_rerun_byte_identical(tmp_path):
    docs = make_docs_dir(tmp_path)
    first = run_ingest(tmp_path, docs, "c1.jsonl")
    second = run_ingest(tmp_path, docs, "c2.jsonl")
    assert first.read_bytes() == second.read_bytes()


def test_embed_counts_match_corpus(tmp_path, capsys):
    docs = make_docs_dir(tmp_path, sizes=(300, 200, 80))
    corpus_path = run_ingest(tmp_path, docs, chunk_size=64)
    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    store_path = tmp_path / "store.vdb"
    code = main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)])
    assert code == 0
    store = VectorStore.load(store_path)
    assert len(store) == len(read_chunks_jsonl(corpus_path))
    assert "embedded" in capsys.readouterr().out


def test_embed_refuses_provider_swap(tmp_path, capsys):
    docs = make_docs_dir(tmp_path, sizes=(50,))
    corpus_path = run_ingest(tmp_path, docs, chunk_size=64)
    provider_a = write_json(tmp_path / "a.json", HASH_PROVIDER)
    provider_b = write_json(tmp_path / "b.json", {"kind": "hash-test", "dims": 32, "seed": 5})
    store_path = tmp_path / "store.vdb"
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_a,
                 "--out", str(store_path)]) == 0
    code = main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_b,
                 "--out", str(store_path)])
    assert code == 2
    assert "provider" in capsys.readouterr().err
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_b,
                 "--out", str(store_path), "--force"]) == 0


def test_embed_and_eval_reject_malformed_corpus_line(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    first = json.dumps({"chunk_id": "d#0", "doc_id": "d", "seq": 0, "text": "t", "token_count": 1})
    good = json.dumps({"chunk_id": "d#1", "doc_id": "d", "seq": 1, "text": "u", "token_count": 1})
    bad = json.dumps({"chunk_id": "d#1", "doc_id": "d", "seq": 1, "text": "u"})
    corpus_path.write_text(first + "\n" + bad + "\n", encoding="utf-8")
    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    store_path = tmp_path / "store.vdb"
    code = main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "corpus.jsonl:2: chunk record lacks field 'token_count'" in err
    assert "Traceback" not in err
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=2)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    # Embed the valid corpus, then corrupt its line 2: eval sees the corpus
    # is no longer the one the store was embedded from.
    corpus_path.write_text(first + "\n" + good + "\n", encoding="utf-8")
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 0
    corpus_path.write_text(first + "\n" + bad + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--rag", str(store_path), "--corpus", str(corpus_path),
                 "--report", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "re-run telerag embed" in err


def embed_three_docs(tmp_path):
    docs = make_docs_dir(tmp_path, sizes=(40, 30, 20))
    corpus_path = run_ingest(tmp_path, docs, chunk_size=16)
    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    store_path = tmp_path / "store.vdb"
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 0
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=4)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    return corpus_path, store_path, ["eval", "--dataset", str(dataset), "--model-config",
                                     model_cfg, "--rag", str(store_path), "--corpus",
                                     str(corpus_path)]


def test_eval_rag_refuses_corpus_edited_after_embed(tmp_path, capsys):
    corpus_path, store_path, eval_args = embed_three_docs(tmp_path)
    lines = corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i in (0, 3):
        rec = json.loads(lines[i])
        rec["text"] = rec["text"].upper()
        lines[i] = json.dumps(rec, ensure_ascii=False) + "\n"
    corpus_path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert main(eval_args + ["--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err == (f"error: {corpus_path} is not the corpus {store_path} was embedded from; "
                   "re-run telerag embed\n")
    assert not report.exists()


def test_eval_rag_names_the_item_with_a_blank_question(tmp_path, capsys):
    _, _, eval_args = embed_three_docs(tmp_path)
    dataset = Path(eval_args[2])
    lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), "question": "  "}) + "\n"
    dataset.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert main(eval_args + ["--query-mode", "question_only", "--report", str(report)]) == 2
    assert capsys.readouterr().err == (f"error: invalid entry in {dataset}: "
                                       "line 2: blank question\n")
    assert not report.exists()


def test_eval_rag_refuses_other_query_provider(tmp_path, capsys):
    _, _, eval_args = embed_three_docs(tmp_path)
    other = write_json(tmp_path / "other.json", {**HASH_PROVIDER, "seed": 1})
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert main(eval_args + ["--provider-config", other, "--report", str(report)]) == 2
    assert capsys.readouterr().err == ("error: store was built with provider "
                                       "'hash-test:seed-0:32', query uses 'hash-test:seed-1:32'\n")
    assert not report.exists()


def test_eval_rag_without_corpus_is_usage_error_before_reading_dataset(tmp_path, capsys):
    missing = tmp_path / "no_such_dataset.jsonl"
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    assert main(["eval", "--dataset", str(missing), "--model-config", model_cfg,
                 "--rag", str(tmp_path / "s.vdb"), "--report", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == "usage error: --rag needs --corpus for the chunk texts\n"


@pytest.mark.parametrize(
    "flags",
    [["--corpus", "nope.jsonl"], ["--provider-config", "nope.json"], ["--k", "9"],
     ["--max-context-tokens", "64"], ["--query-mode", "question_only"]],
    ids=["corpus", "provider-config", "k", "max-context-tokens", "query-mode"],
)
def test_eval_retrieval_flag_without_rag_is_usage_error(tmp_path, capsys, flags):
    missing = tmp_path / "no_such_dataset.jsonl"
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    assert main(["eval", "--dataset", str(missing), "--model-config", model_cfg,
                 "--report", str(tmp_path / "r.json")] + flags) == 1
    assert capsys.readouterr().err == f"usage error: {flags[0]} needs --rag\n"
    assert not (tmp_path / "r.json").exists()


def test_manifest_and_report_record_k_only_with_rag(tmp_path):
    _, _, eval_args = embed_three_docs(tmp_path)
    for args, k in ((eval_args[:5], None), (eval_args, 3)):
        report = tmp_path / "r.json"
        assert main(args + ["--report", str(report)]) == 0
        manifest = json.loads(Path(str(report) + ".manifest.json").read_text())
        assert manifest["config"]["k"] == json.loads(report.read_text())["run"]["k"] == k


def test_eval_rag_refuses_format_v1_store(tmp_path, capsys):
    import struct

    corpus_path, store_path, eval_args = embed_three_docs(tmp_path)
    # A v1 store: the v2 prefix up to the fingerprint, then records of
    # (u32 id length, id, float32 vector).
    fp = b"hash-test:seed-0:32"
    v1 = b"TRVS" + struct.pack("<IIQI", 1, 2, 1, len(fp)) + fp
    v1 += struct.pack("<I", 3) + b"d#0" + struct.pack("<2f", 1.0, 0.0)
    store_path.write_bytes(v1)
    capsys.readouterr()
    assert main(eval_args + ["--report", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: unsupported store format version 1; re-run telerag embed\n"


@pytest.mark.parametrize("command", ["embed", "eval"])
def test_store_whose_fingerprint_is_not_utf8_exits_2(tmp_path, capsys, command):
    # embed reads the fingerprint of the store it would replace, eval --rag the one it loads.
    corpus_path, store_path, eval_args = embed_three_docs(tmp_path)
    blob = bytearray(store_path.read_bytes())
    blob[28] = 0xFF  # the first byte of the fingerprint, after magic, version, dims, count, length
    store_path.write_bytes(bytes(blob))
    args = {"embed": ["embed", "--corpus", str(corpus_path), "--provider-config",
                      str(tmp_path / "provider.json"), "--out", str(store_path)],
            "eval": eval_args + ["--report", str(tmp_path / "r.json")]}[command]
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: provider fingerprint in {store_path} is not UTF-8: invalid start byte\n")
    assert store_path.read_bytes() == blob
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("count", [0, 1])
def test_eval_rag_store_of_zero_dims_exits_2(tmp_path, capsys, count):
    _, store_path, eval_args = embed_three_docs(tmp_path)
    ids = json.dumps(["a"][:count]).encode()
    store_path.write_bytes(MAGIC + struct.pack("<IIQI", FORMAT_VERSION, 0, count, 2) + b"fp"
                           + bytes(32) + struct.pack("<Q", len(ids)) + ids + bytes(8 * count))
    capsys.readouterr()
    assert main(eval_args + ["--report", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: store file {store_path} has dims 0; dims must be positive\n")
    assert not (tmp_path / "r.json").exists()


def test_eval_run_block_records_rag_settings(tmp_path):
    corpus_path, store_path, eval_args = embed_three_docs(tmp_path)
    runs = {}
    for budget in ("16", "48"):
        report = tmp_path / f"r{budget}.json"
        assert main(eval_args + ["--max-context-tokens", budget, "--report", str(report)]) == 0
        manifest = json.loads(Path(str(report) + ".manifest.json").read_text())
        runs[budget] = json.loads(report.read_text())["run"]
        settings = {key: runs[budget][key] for key in
                    ("max_context_tokens", "query_mode", "provider_fingerprint", "corpus_sha256")}
        assert settings == {key: manifest["config"][key] for key in settings}
    assert runs["16"] != runs["48"]
    assert (runs["16"]["max_context_tokens"], runs["48"]["max_context_tokens"]) == (16, 48)
    assert runs["16"]["query_mode"] == "question_plus_options"
    assert runs["16"]["provider_fingerprint"] == "hash-test:seed-0:32"
    assert runs["16"]["corpus_sha256"] == hashlib.sha256(corpus_path.read_bytes()).hexdigest()
    plain = tmp_path / "plain.json"
    assert main(eval_args[:5] + ["--report", str(plain)]) == 0
    run = json.loads(plain.read_text())["run"]
    assert [run[key] for key in settings] == [None] * 4


_TELEQNA = {"question": "Q?", "option 1": "A", "option 2": "B",
            "answer": "option 1: A", "category": "Lexicon"}
_NORMALIZED = {"item_id": "a", "category": "Lexicon", "question": "Q?",
               "options": ["A", "B"], "correct_index": 1}


@pytest.mark.parametrize("name, text, failure", [
    ("d.json", json.dumps({"q0": {**_TELEQNA, "option 3": "C", "option 4": "D",
                                  "option 5": "E", "option 6": "F"}}),
     "item 'q0': expected 2-5 options, got 6"),
    ("d.json", json.dumps({"q0": {**_TELEQNA, "option 7": "G"}}),
     "item 'q0': non-contiguous option keys (gap before 'option 7')"),
    ("d.json", json.dumps([{**_TELEQNA, "id": ["a"]}]),
     "item 'q0': 'id' must be a string or an integer"),
    ("d.jsonl", json.dumps({**_NORMALIZED, "item_id": None}) + "\n",
     "line 1: 'item_id' must be a string or an integer"),
    ("d.json", json.dumps({"q0": {**_TELEQNA, "answer": "option " + "9" * 5000}}),
     "item 'q0': answer names option 999999999…, item has 2 options"),
    ("d.jsonl", '"item_id options correct_index category question"\n',
     "line 1: entry is not an object"),
    ("d.json", json.dumps(["oops"]), "item 'q0': entry is not an object"),
], ids=["six-options", "option-7-after-2", "list-id-array", "item-id-null",
        "answer-key-too-long", "line-not-object", "entry-not-object"])
def test_eval_rejects_entry_with_one_error_line(tmp_path, capsys, name, text, failure):
    dataset = tmp_path / name
    dataset.write_text(text, encoding="utf-8")
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    report = tmp_path / "r.json"
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"error: invalid entry in {dataset}: {failure}\n"
    assert not report.exists()


def test_eval_constant_guess_near_chance(tmp_path):
    n_items = 400
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=n_items, seed=11)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "percat.csv"
    code = main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(report_path), "--csv", str(csv_path)])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    sigma = (0.25 * 0.75 / n_items) ** 0.5 * 100
    assert abs(report["overall"]["accuracy_percent"] - 25.0) <= 3 * sigma
    assert csv_path.read_text().startswith("category,count,correct,errored,accuracy")
    audit_lines = (tmp_path / "report.json.audit.jsonl").read_text().splitlines()
    assert len(audit_lines) == n_items


def test_eval_rag_empty_store_matches_plain(tmp_path):
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=30, seed=12)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "2"})
    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    empty_corpus = tmp_path / "empty_corpus.jsonl"
    empty_corpus.write_text("", encoding="utf-8")
    store_path = tmp_path / "empty.vdb"
    assert main(["embed", "--corpus", str(empty_corpus), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 0
    plain_report = tmp_path / "plain.json"
    rag_report = tmp_path / "rag.json"
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(plain_report)]) == 0
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--rag", str(store_path), "--corpus", str(empty_corpus),
                 "--report", str(rag_report)]) == 0
    plain = json.loads(plain_report.read_text(encoding="utf-8"))
    augmented = json.loads(rag_report.read_text(encoding="utf-8"))
    assert augmented["categories"] == plain["categories"]
    assert augmented["overall"] == plain["overall"]
    assert augmented["dataset_fingerprint"] == plain["dataset_fingerprint"]


def test_eval_with_transcript_mock_hits_exact_accuracy(tmp_path):
    from telerag.evalharness import load_dataset, render_prompt

    dataset, _ = make_dataset_jsonl(tmp_path, n_items=20, seed=13)
    items = load_dataset(dataset)
    # Record correct replies for the first 15 items, wrong ones for the rest.
    entries = []
    for i, item in enumerate(items):
        picked = item.correct_index if i < 15 else (item.correct_index % len(item.options)) + 1
        entries.append((render_prompt(item), f"{picked}. {item.options[picked - 1]}"))
    transcript = tmp_path / "transcript.jsonl"
    write_transcript(entries, transcript)
    model_cfg = write_json(
        tmp_path / "model.json", {"kind": "mock_script", "script_path": str(transcript)}
    )
    report_path = tmp_path / "report.json"
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["overall"]["correct"] == 15
    assert report["overall"]["accuracy_percent"] == 75.0
    assert report["run"]["model"]["kind"] == "mock_script"


def test_usecase_energy_synthetic_defaults(tmp_path, capsys):
    out = tmp_path / "fit.json"
    plot = tmp_path / "plot.csv"
    code = main(["usecase-energy", "--synthetic", "--seed", "7", "--model", "both",
                 "--out", str(out), "--plot-csv", str(plot)])
    assert code == 0
    payload = json.loads(out.read_text())
    fits = {m["kind"]: m for m in payload["models"]}
    assert fits["eq2"]["mape_percent"] < fits["eq1"]["mape_percent"]
    assert fits["eq2"]["n_records"] == 90
    assert plot.read_text().splitlines()[0] == "L,E,eq1,eq2"
    assert "seed: 7" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--n-bs", "5"], ["--noise-sd", "0.9"], ["--seed", "4"]],
                         ids=["n-bs", "noise-sd", "seed"])
def test_usecase_energy_synthetic_flag_with_data_is_usage_error(tmp_path, capsys, flags):
    missing = tmp_path / "no_such_data.csv"
    assert main(["usecase-energy", "--data", str(missing), "--out", str(tmp_path / "fit.json")]
                + flags) == 1
    assert capsys.readouterr().err == f"usage error: {flags[0]} needs --synthetic\n"
    assert list(tmp_path.iterdir()) == []


def test_usecase_energy_noiseless_recovery(tmp_path):
    out = tmp_path / "fit.json"
    code = main(["usecase-energy", "--synthetic", "--seed", "3", "--noise-sd", "0",
                 "--model", "eq2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "eq2"
    assert payload["mape_percent"] <= 1e-6


def test_usecase_energy_missing_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("bs_id,L,MTX,E\nb,0.5,1.0,1.0\n", encoding="utf-8")
    code = main(["usecase-energy", "--data", str(bad), "--model", "both",
                 "--out", str(tmp_path / "fit.json")])
    assert code == 2
    assert "DSS" in capsys.readouterr().err


def test_usecase_energy_names_the_data_that_is_not_utf8(tmp_path, capsys):
    data = tmp_path / "energy.csv"
    data.write_bytes(b"bs_id,L,MTX,DSS,E\nb\xe9,0.5,1.0,0.5,1.0\n")
    out = tmp_path / "fit.json"
    assert main(["usecase-energy", "--data", str(data), "--model", "both",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {data} is not UTF-8: invalid continuation byte at byte 19\n")
    assert not out.exists()


@pytest.mark.parametrize("mtx", ["nan", "inf"])
def test_usecase_energy_rejects_non_finite_max_tx_power(tmp_path, capsys, mtx):
    data = tmp_path / "energy.csv"
    rows = [f"b{i},0.{i + 1},{10 + i},0.{9 - i},{20 + 3 * i}" for i in range(6)]
    data.write_text("bs_id,L,MTX,DSS,E\n" + "\n".join(rows + [f"odd,0.5,{mtx},0.5,25"]) + "\n",
                    encoding="utf-8")
    out = tmp_path / "fit.json"
    code = main(["usecase-energy", "--data", str(data), "--model", "both", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: odd: max_tx_power must be finite and >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 72.8 TiB for an array with shape (10000000000000,) and data type float64",
     "error: out of memory: Unable to allocate 72.8 TiB for an array with shape "
     "(10000000000000,) and data type float64\n"),
    ("", "error: out of memory\n"),
], ids=["message", "bare"])
def test_usecase_energy_fleet_too_large_exits_2(tmp_path, capsys, monkeypatch, message, line):
    def unable_to_allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(energymodel, "generate_synthetic", unable_to_allocate)
    code = main(["usecase-energy", "--synthetic", "--n-bs", "10000000000000", "--seed", "1",
                 "--out", str(tmp_path / "fit.json")])
    assert code == 2
    assert capsys.readouterr().err == line
    assert list(tmp_path.iterdir()) == []


def test_usecase_energy_reruns_are_byte_identical(tmp_path):
    data = tmp_path / "energy.csv"
    data.write_text(csv_text(ENERGY_CSV_COLUMNS, (
        [r.bs_id, repr(r.load), repr(r.max_tx_power), repr(r.shutdown_duration), repr(r.energy)]
        for r in generate_synthetic(60, noise_sd=0.05, seed=4))), encoding="utf-8")
    for name, source in [("synthetic", ["--synthetic", "--seed", "7"]),
                         ("data", ["--data", str(data)])]:
        runs = []
        for attempt in ("first", "second"):
            out, plot = tmp_path / f"{name}-{attempt}.json", tmp_path / f"{name}-{attempt}.csv"
            assert main(["usecase-energy", *source, "--model", "both", "--out", str(out),
                         "--plot-csv", str(plot)]) == 0
            runs.append((out.read_bytes(), plot.read_bytes()))
        assert runs[0] == runs[1], name


def test_usecase_assoc_oracle_mock(tmp_path):
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_oracle"})
    out = tmp_path / "curve.csv"
    code = main(["usecase-assoc", "--bs-counts", "2,4,6", "--trials", "10",
                 "--model-config", model_cfg, "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1:] == ["2,10,10,0,100.00", "4,10,10,0,100.00", "6,10,10,0,100.00"]


def test_usecase_assoc_reference_transcript_replay(tmp_path):
    model_cfg = write_json(
        tmp_path / "model.json",
        {"kind": "mock_script",
         "script_path": str(userassoc.reference_transcript_path())},
    )
    out = tmp_path / "curve.csv"
    code = main(["usecase-assoc", "--bs-counts", "2,4,6,8,10", "--trials", "100",
                 "--model-config", model_cfg,
                 "--seed", str(userassoc.REFERENCE_TRANSCRIPT_SEED), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1:] == [
        "2,100,93,0,93.00",
        "4,100,61,0,61.00",
        "6,100,44,0,44.00",
        "8,100,29,0,29.00",
        "10,100,19,0,19.00",
    ]


def test_usecase_assoc_curve_same_on_one_cpu_and_two(tmp_path, monkeypatch):
    # 13 counts x 100 trials: three blocks, two of them spanning two station counts.
    monkeypatch.setattr(userassoc, "CURVE_IN_PROCESS_MAX", userassoc.CURVE_BLOCK)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_random", "seed": 3})
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(forkpool, "_cpu_count", lambda: cpus)
        out = tmp_path / f"curve{cpus}.csv"
        problems = tmp_path / f"problems{cpus}.jsonl"
        assert main(["usecase-assoc", "--bs-counts", ",".join(map(str, range(2, 27, 2))),
                     "--trials", "100", "--seed", "9", "--model-config", model_cfg,
                     "--out", str(out), "--problems-out", str(problems)]) == 0
        assert multiprocessing.active_children() == []
        outputs.append((out.read_bytes(), problems.read_bytes()))
    assert outputs[0] == outputs[1]


def test_usecase_assoc_curve_same_under_one_cpu_affinity(tmp_path):
    # 13 counts x 1,000 trials fork; the child limited to one CPU runs the blocks itself.
    usable = os.sched_getaffinity(0)
    if len(usable) < 2:
        pytest.skip("needs 2 usable CPUs to compare a run on one CPU with one on several")
    model_cfg = write_json(tmp_path / "random.json", {"kind": "mock_random", "seed": 1})
    curves = []
    for name, limit in (("one_cpu", lambda: os.sched_setaffinity(0, {min(usable)})),
                        ("all_cpus", None)):
        out = tmp_path / f"curve_{name}.csv"
        subprocess.run([sys.executable, "-m", "telerag.cli", "usecase-assoc",
                        "--bs-counts", ",".join(map(str, range(2, 27, 2))), "--trials", "1000",
                        "--seed", "1", "--model-config", model_cfg, "--out", str(out)],
                       env=child_env(), preexec_fn=limit, capture_output=True, check=True,
                       timeout=120)
        curves.append(out.read_bytes())
    assert curves[0] == curves[1]
    assert len(curves[0].splitlines()) == 14


def test_ingest_and_embed_same_under_one_cpu_affinity(tmp_path):
    # Two ingest groups and more than one embedding block, so both commands fork;
    # the child limited to one CPU runs every task itself.
    usable = os.sched_getaffinity(0)
    if len(usable) < 2:
        pytest.skip("needs 2 usable CPUs to compare a run on one CPU with one on several")
    rng = random.Random(24)
    words = [f"w{i}" for i in range(5000)] + ["gNB", "PDSCH", "Ünïcode"]
    texts = [" ".join(rng.choices(words, k=120_000)) for _ in range(3)]
    assert len(texts[0]) + len(texts[1]) >= corpus.GROUP_CHARS
    docs = tmp_path / "docs"
    docs.mkdir()
    for i, text in enumerate(texts):
        (docs / f"spec{i}.txt").write_text(text, encoding="utf-8")
    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    outputs = []
    for name, limit in (("one_cpu", lambda: os.sched_setaffinity(0, {min(usable)})),
                        ("all_cpus", None)):
        corpus_path, store_path = tmp_path / f"corpus_{name}.jsonl", tmp_path / f"{name}.vdb"
        for argv in (["ingest", "--input", str(docs), "--out", str(corpus_path),
                      "--chunk-size", "512"],
                     ["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                      "--out", str(store_path)]):
            subprocess.run([sys.executable, "-m", "telerag.cli", *argv], env=child_env(),
                           preexec_fn=limit, capture_output=True, check=True, timeout=120)
        outputs.append((corpus_path.read_bytes(), store_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(VectorStore.load(tmp_path / "all_cpus.vdb")) > embed.EMBED_BLOCK
    assert [hashlib.sha256(data).hexdigest() for data in outputs[0]] == [
        "9cbff6bf27e579cd4ab8f12fa1d495fbb95463286ba0395aaed4ba094651e3b8",
        "748455e36c1da84fe14324d14bf9e0b83ed62b24b776c590388a6d45bf36fc3a",
    ]


def test_usecase_assoc_station_count_given_twice_gives_two_rows(tmp_path, monkeypatch):
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_random", "seed": 1})

    def rows(counts, trials, name):
        out = tmp_path / name
        assert main(["usecase-assoc", "--bs-counts", counts, "--trials", str(trials),
                     "--seed", "1", "--model-config", model_cfg, "--out", str(out)]) == 0
        return out.read_text().splitlines()[1:]

    assert rows("2,2,3", 50, "small.csv") == ["2,50,22,0,44.00", "2,50,22,0,44.00",
                                              "3,50,17,0,34.00"]
    # More than CURVE_IN_PROCESS_MAX problems run in fork_map blocks, some of which
    # span both rows of the repeated count.
    trials = userassoc.CURVE_IN_PROCESS_MAX // 3 + 1
    expected = rows("2", trials, "two.csv") * 2 + rows("3", trials, "three.csv")
    for cpus in (1, 2):
        monkeypatch.setattr(forkpool, "_cpu_count", lambda: cpus)
        assert rows("2,2,3", trials, f"forked{cpus}.csv") == expected
        assert multiprocessing.active_children() == []


def test_eval_stats_lines_name_errored_answers(tmp_path, capsys):
    from telerag.evalharness import load_dataset, render_prompt

    rows = [{"item_id": f"q{i}", "category": category, "question": f"Question {i}?",
             "options": [f"choice {i}-{j}" for j in range(4)], "correct_index": 2}
            for i, category in enumerate(["Lexicon", "Standards specifications"] * 2)]
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    items = load_dataset(dataset)
    # No reply for q0, so it is errored; q3 is answered wrongly.
    transcript = tmp_path / "transcript.jsonl"
    write_transcript([(render_prompt(it), "3" if it.item_id == "q3" else "2")
                      for it in items[1:]], transcript)
    model_cfg = write_json(tmp_path / "model.json",
                           {"kind": "mock_script", "script_path": str(transcript)})
    report = tmp_path / "report.json"
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(report)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Lexicon: 1/2 = 50.00% (1 errored)",
        "Standards specifications: 1/2 = 50.00%",
        "Overall: 2/4 = 50.00% (1 errored)",
        f"report written to {report}",
    ]


def test_eval_rag_audit_line_of_an_errored_item(tmp_path):
    from telerag import rag
    from telerag.evalharness import load_dataset

    corpus_path, store_path, eval_args = embed_three_docs(tmp_path)
    items = load_dataset(eval_args[2])
    queries = [rag.build_query(item) for item in items]
    contexts, _ = rag.retrieve_contexts(str(store_path), str(corpus_path), None, queries,
                                        rag.RagConfig())
    prompts = [rag.augment(item, [c for c, _ in ctx]) for item, ctx in zip(items, contexts)]
    # No reply for q1, so it is errored; q0 is answered.
    transcript = tmp_path / "transcript.jsonl"
    write_transcript([(prompt, "1") for item, prompt in zip(items, prompts)
                      if item.item_id != "q1"], transcript)
    model_cfg = write_json(tmp_path / "script.json",
                           {"kind": "mock_script", "script_path": str(transcript)})
    eval_args[4] = model_cfg
    report = tmp_path / "report.json"
    assert main([*eval_args, "--report", str(report)]) == 0
    lines = (tmp_path / "report.json.audit.jsonl").read_text(encoding="utf-8").splitlines()
    answered, errored = map(json.loads, lines[:2])
    assert len(contexts[0]) == 3
    assert answered == {"item_id": "q0",
                        "context_chunk_ids": [c.chunk_id for c, _ in contexts[0]],
                        "scores": [round(hit.score, 8) for _, hit in contexts[0]],
                        "prompt_token_estimate": len(prompts[0].split()),
                        "raw_model_output": "1"}
    assert errored == {"item_id": "q1", "context_chunk_ids": [], "scores": [],
                       "prompt_token_estimate": 0, "raw_model_output": ""}


def test_eval_thread_that_cannot_start_exits_2(tmp_path, capsys, monkeypatch):
    # Only an http model is asked on threads.
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=8)
    model_cfg = write_json(tmp_path / "model.json", {
        "kind": "http", "endpoint": "http://x/complete", "model_name": "m"})
    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse(200, {"text": "1"}))
    real_start = threading.Thread.start
    starts = []

    def start(thread):
        starts.append(thread)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(tmp_path / "r.json"), "--concurrency", "4"]) == 2
    monkeypatch.undo()
    assert capsys.readouterr().err == (
        "error: cannot start threads for width 4: can't start new thread\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.jsonl", "model.json"]


@pytest.mark.parametrize("kind", ["mock_script", "mock_constant"])
def test_eval_asks_a_local_model_on_no_thread(tmp_path, monkeypatch, kind):
    # --concurrency bounds an http model's calls; a local model is asked in this
    # thread, so every width gives the same bytes.
    from telerag.evalharness import load_dataset, render_prompt

    dataset, _ = make_dataset_jsonl(tmp_path, n_items=12)
    transcript = tmp_path / "transcript.jsonl"
    # Replies of each parse status, and none for q5, which is errored.
    replies = ["2", "The answer is 3", "It is choice {i}-1", "not sure", "4. choice {i}-3"]
    write_transcript([(render_prompt(it), replies[i % len(replies)].format(i=i))
                      for i, it in enumerate(load_dataset(dataset)) if it.item_id != "q5"],
                     transcript)
    config = ({"kind": kind, "script_path": str(transcript)} if kind == "mock_script"
              else {"kind": kind, "reply": "2"})
    model_cfg = write_json(tmp_path / "model.json", config)
    starts = []
    monkeypatch.setattr(threading.Thread, "start", starts.append)
    outputs = []
    for width in ("1", "8"):
        out = tmp_path / f"w{width}"
        out.mkdir()
        assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                     "--report", str(out / "r.json"), "--csv", str(out / "r.csv"),
                     "--concurrency", width]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("r.json", "r.json.audit.jsonl", "r.csv")])
    assert starts == []
    assert outputs[0] == outputs[1]


def test_usecase_assoc_worker_that_dies_exits_2(tmp_path, capsys, monkeypatch):
    here = os.getpid()
    real_check_answer = userassoc.check_answer

    def die_at_eight(problem, text):
        if problem.n == 8 and os.getpid() != here:
            os._exit(1)
        return real_check_answer(problem, text)

    monkeypatch.setattr(userassoc, "check_answer", die_at_eight)
    monkeypatch.setattr(userassoc, "CURVE_IN_PROCESS_MAX", userassoc.CURVE_BLOCK)
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)
    out = tmp_path / "curve.csv"
    assert main(["usecase-assoc", "--bs-counts", "2,4,8", "--trials", "400", "--seed", "1",
                 "--model-config", write_json(tmp_path / "model.json", {"kind": "mock_oracle"}),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: a worker process died (exit code 1)\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_eval_refuses_transcript_line_without_digest(tmp_path, capsys):
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=1)
    transcript = tmp_path / "transcript.jsonl"
    transcript.write_text('{"prompt_sha256": 5, "reply": "1"}\n', encoding="utf-8")
    model_cfg = write_json(tmp_path / "model.json",
                           {"kind": "mock_script", "script_path": str(transcript)})
    report = tmp_path / "report.json"
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: bad transcript line 1 in ") and err.count("\n") == 1
    assert "'prompt_sha256' must be 64 lowercase hex digits, got 5" in err
    assert not report.exists()


@pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
def test_eval_transcript_that_cannot_be_opened_exits_3(tmp_path, capsys, missing):
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=1)
    transcript = tmp_path / "transcript.jsonl"
    if not missing:
        transcript.mkdir()
    model_cfg = write_json(tmp_path / "model.json",
                           {"kind": "mock_script", "script_path": str(transcript)})
    report = tmp_path / "report.json"
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(report)]) == 3
    reason = "No such file or directory" if missing else "Is a directory"
    assert capsys.readouterr().err == f"error: cannot open transcript {transcript}: {reason}\n"
    assert not report.exists()


@pytest.mark.parametrize("name, content", [
    ("d.json", "{}"), ("d.json", "[]"), ("d.jsonl", ""), ("d.jsonl", "\n  \n"),
], ids=["dict", "list", "jsonl", "jsonl-blank-lines"])
def test_eval_dataset_without_items_exits_2(tmp_path, capsys, name, content):
    dataset = tmp_path / name
    dataset.write_text(content, encoding="utf-8")
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(tmp_path / "report.json")]) == 2
    assert capsys.readouterr().err == f"error: no items in {dataset}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "model.json"])


def test_usecase_assoc_problems_export(tmp_path):
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_strongest"})
    out = tmp_path / "curve.csv"
    problems = tmp_path / "problems.jsonl"
    code = main(["usecase-assoc", "--bs-counts", "3", "--trials", "4",
                 "--model-config", model_cfg, "--seed", "2", "--out", str(out),
                 "--problems-out", str(problems)])
    assert code == 0
    assert out.read_text().strip().split("\n")[1] == "3,4,0,0,0.00"
    assert len(problems.read_text().splitlines()) == 4


def test_manifest_differs_only_in_timestamps(tmp_path):
    docs = make_docs_dir(tmp_path, sizes=(20,))
    out = tmp_path / "c.jsonl"
    manifest_path = tmp_path / "c.jsonl.manifest.json"
    assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 0
    first = json.loads(manifest_path.read_text())
    assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 0
    second = json.loads(manifest_path.read_text())
    for key in ("started_at", "finished_at"):
        first.pop(key)
        second.pop(key)
    assert first == second


def finished_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=60)
    return child.pid


def test_tmp_left_by_killed_run_is_replaced_and_removed(tmp_path):
    # What a SIGKILL during a write leaves: the lock and a partial output.
    docs = make_docs_dir(tmp_path, sizes=(10,))
    out = tmp_path / "c.jsonl"
    (tmp_path / "c.jsonl.lock").write_text(f"{finished_pid()}\n", encoding="utf-8")
    (tmp_path / "c.jsonl.tmp").write_text('{"chunk_id": "partial', encoding="utf-8")
    assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 0
    assert [c.chunk_id for c in read_chunks_jsonl(out)] == ["doc0#0"]


# A run that holds the lock on argv[1] until it is killed; it creates argv[2] once inside.
HOLD_LOCK = """
import sys, time
from pathlib import Path
from telerag import cli
with cli._run("hold", [sys.argv[1]]):
    Path(sys.argv[2]).touch()
    time.sleep(600)
"""


@contextlib.contextmanager
def lock_holder(out: Path):
    """A child process inside cli._run for out, killed and waited for on exit."""
    held = out.parent / "held"
    child = subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(out), str(held)],
                             env=child_env())
    try:
        deadline = time.monotonic() + 60
        while not held.exists():
            assert time.monotonic() < deadline and child.poll() is None
            time.sleep(0.02)
        yield child
    finally:
        child.kill()
        child.wait()


@pytest.mark.leaves_lock
def test_lock_held_by_a_live_run_blocks(tmp_path, capsys):
    docs = make_docs_dir(tmp_path, sizes=(10,))
    out = tmp_path / "c.jsonl"
    lock = tmp_path / "c.jsonl.lock"
    with lock_holder(out):
        inode = lock.stat().st_ino
        assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: another run appears to be writing {out}\n"
        assert lock.stat().st_ino == inode and lock.stat().st_mode & 0o111 == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl.lock", "docs", "held"]


@pytest.mark.leaves_lock
def test_lock_is_taken_before_any_input_is_read(tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    dataset.write_text("{not json\n", encoding="utf-8")
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    report = tmp_path / "r.json"
    with lock_holder(report):
        assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                     "--report", str(report)]) == 2
    assert capsys.readouterr().err == f"error: another run appears to be writing {report}\n"


def test_lock_of_a_killed_run_is_taken_over(tmp_path):
    docs = make_docs_dir(tmp_path, sizes=(10,))
    out = tmp_path / "c.jsonl"
    with lock_holder(out) as child:
        child.kill()
        child.wait()
        assert (tmp_path / "c.jsonl.lock").exists()
        assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("content", ["own-pid", "empty"])
def test_lock_file_left_by_a_killed_run_blocks_nothing(tmp_path, content):
    # A killed run whose pid is now this process's, or one killed before it wrote its pid.
    docs = make_docs_dir(tmp_path, sizes=(10,))
    out = tmp_path / "c.jsonl"
    lock = tmp_path / "c.jsonl.lock"
    lock.write_text(f"{os.getpid()}\n" if content == "own-pid" else "", encoding="utf-8")
    assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 0
    assert out.exists()


def test_concurrent_reclaimers_never_overlap(tmp_path):
    from telerag import cli

    out = tmp_path / "c.txt"
    state = {"inside": 0, "most": 0, "runs": 0}
    guard = threading.Lock()
    start = threading.Barrier(8)

    def reclaim():
        start.wait(timeout=60)
        try:
            with cli._run("test", [out]):
                cli._tmp(out).write_text("x", encoding="utf-8")
                with guard:
                    state["inside"] += 1
                    state["most"] = max(state["most"], state["inside"])
                    state["runs"] += 1
                time.sleep(0.001)
                with guard:
                    state["inside"] -= 1
        except DataError:
            pass

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            (tmp_path / "c.txt.lock").write_text(f"{finished_pid()}\n", encoding="utf-8")
            threads = [threading.Thread(target=reclaim) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert state["most"] == 1
    assert state["runs"] >= 20


@pytest.mark.parametrize("then", ["gone", pytest.param("replaced", marks=pytest.mark.leaves_lock)])
def test_lock_file_unlinked_before_flock_refuses(tmp_path, monkeypatch, then):
    # The holder finishes, unlinking the file, between this run's open and its flock;
    # locking the orphaned file would let this run overlap one that locks a new file.
    import fcntl

    from telerag import cli

    out = tmp_path / "c.txt"
    lock = tmp_path / "c.txt.lock"
    real_flock = fcntl.flock

    def holder_finishes_first(fd, operation):
        lock.unlink()
        if then == "replaced":
            lock.touch()
        return real_flock(fd, operation)

    monkeypatch.setattr(fcntl, "flock", holder_finishes_first)
    with pytest.raises(DataError, match="another run appears to be writing"):
        with cli._run("test", [out]):
            cli._tmp(out).write_text("x", encoding="utf-8")
    assert lock.exists() == (then == "replaced")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_run_leaves_no_fd_open(tmp_path):
    from telerag import cli

    def open_fds() -> int:
        return len(os.listdir("/proc/self/fd"))

    out = tmp_path / "c.txt"
    before = open_fds()
    with cli._run("test", [out]):
        cli._tmp(out).write_text("x", encoding="utf-8")
    assert open_fds() == before
    with pytest.raises(ValueError):
        with cli._run("test", [out]):
            raise ValueError("fails inside the run")
    assert open_fds() == before
    with cli._run("test", [out]):
        inside = open_fds()
        with pytest.raises(DataError, match="another run appears to be writing"):
            with cli._run("test", [out]):
                cli._tmp(out).write_text("y", encoding="utf-8")
        assert open_fds() == inside
        cli._tmp(out).write_text("x", encoding="utf-8")
    assert open_fds() == before


def argv_with_every_output(tmp_path, command: str) -> list[str]:
    """A run of command that succeeds and writes every output it can, each named
    as in test_directory_as_output_is_data_error."""
    if command == "ingest":
        docs = make_docs_dir(tmp_path, sizes=(10,))
        return ["ingest", "--input", str(docs), "--out", str(tmp_path / "c.jsonl")]
    if command == "embed":
        corpus_path = run_ingest(tmp_path, make_docs_dir(tmp_path, sizes=(10,)))
        provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
        return ["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                "--out", str(tmp_path / "s.vdb")]
    if command == "eval":
        dataset, _ = make_dataset_jsonl(tmp_path, n_items=5)
        model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
        return ["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                "--report", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    if command == "usecase-energy":
        return ["usecase-energy", "--synthetic", "--seed", "1", "--out",
                str(tmp_path / "fit.json"), "--plot-csv", str(tmp_path / "plot.csv")]
    assoc_cfg = write_json(tmp_path / "assoc.json", {"kind": "mock_oracle"})
    return ["usecase-assoc", "--bs-counts", "2,3", "--trials", "2", "--seed", "1",
            "--model-config", assoc_cfg, "--out", str(tmp_path / "curve.csv"),
            "--problems-out", str(tmp_path / "p.jsonl")]


# (command, fault): a file that a second run finds a directory, or a flag and
# path the second run adds, whose parent is missing or is a file.
@pytest.mark.parametrize("command, fault", [
    ("ingest", "c.jsonl"),
    ("embed", "s.vdb"),
    ("eval", "r.json"),
    ("eval", "r.json.audit.jsonl"),
    ("eval", "r.csv"),
    ("eval", "r.json.manifest.json"),
    pytest.param("eval", "r.json.tmp", marks=pytest.mark.leaves_lock),
    ("eval", ("--audit", "nodir/a.jsonl")),
    ("eval", ("--csv", "r.json/r.csv")),
    ("usecase-energy", "fit.json"),
    ("usecase-energy", "plot.csv"),
    ("usecase-assoc", "curve.csv"),
    ("usecase-assoc", "p.jsonl"),
], ids=["ingest-out", "embed-out", "eval-report", "eval-audit", "eval-csv", "eval-manifest",
        "eval-tmp", "eval-audit-no-parent", "eval-csv-parent-is-file", "energy-out",
        "energy-plot-csv", "assoc-out", "assoc-problems-out"])
def test_directory_as_output_is_data_error(tmp_path, capsys, command, fault):
    argv = argv_with_every_output(tmp_path, command)
    assert main(argv) == 0
    if isinstance(fault, str):
        target = tmp_path / fault
        target.unlink(missing_ok=True)
        target.mkdir()
        why = "it is a directory"
    else:
        flag, name = fault
        target = tmp_path / name
        argv += [flag, str(target)]
        why = f"{target.parent} is not a directory"
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {target}: {why}\n"
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before
    assert list(tmp_path.rglob("*.lock")) == []


def test_failed_eval_replaces_no_output(tmp_path, monkeypatch):
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=12)
    report = tmp_path / "r.json"
    outputs = [report, tmp_path / "r.json.audit.jsonl", tmp_path / "r.csv",
               tmp_path / "r.json.manifest.json"]

    def run_eval(reply):
        model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": reply})
        return main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                     "--report", str(report), "--csv", str(tmp_path / "r.csv")])

    assert run_eval("1") == 0
    first = [p.read_bytes() for p in outputs]

    def failing_audit_log(results, path):
        Path(path).write_text("partial\n", encoding="utf-8")
        raise ValueError("audit log write failed")

    monkeypatch.setattr("telerag.rag.write_audit_log", failing_audit_log)
    assert run_eval("2") == 2
    assert [p.read_bytes() for p in outputs] == first


def write_chunk_corpus(path, texts):
    path.write_text("".join(
        json.dumps({"chunk_id": f"d#{i}", "doc_id": "d", "seq": i, "text": text,
                    "token_count": 2}) + "\n"
        for i, text in enumerate(texts)
    ), encoding="utf-8")
    return path


def test_failed_embed_keeps_earlier_store(tmp_path, capsys, monkeypatch):
    from telerag import embed as embed_mod

    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    store_path = tmp_path / "store.vdb"
    small = run_ingest(tmp_path, make_docs_dir(tmp_path, sizes=(100,)), "small.jsonl", 64)
    assert main(["embed", "--corpus", str(small), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 0
    outputs = [store_path, tmp_path / "store.vdb.manifest.json"]
    first = [p.read_bytes() for p in outputs]

    large = write_chunk_corpus(tmp_path / "large.jsonl", [f"text {i}" for i in range(150)])
    real_vectors = embed_mod._hash_test_vectors

    def fail_second_block(texts, dims, seed):
        # Runs in the forked workers, which inherit this patch.
        if texts[0] == "text 64":
            raise ProviderError("embedding endpoint returned HTTP 503")
        return real_vectors(texts, dims, seed)

    monkeypatch.setattr(embed_mod, "_hash_test_vectors", fail_second_block)
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)
    capsys.readouterr()
    assert main(["embed", "--corpus", str(large), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 3
    assert capsys.readouterr().err == "error: embedding endpoint returned HTTP 503\n"
    assert [p.read_bytes() for p in outputs] == first
    assert multiprocessing.active_children() == []


def test_embed_store_bytes_same_on_one_cpu_and_several(tmp_path, monkeypatch):
    corpus_path = write_chunk_corpus(
        tmp_path / "corpus.jsonl", [f"chunk {i} of the spec" for i in range(300)])
    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    stores = []
    for cpus in (1, 3):
        monkeypatch.setattr(forkpool, "_cpu_count", lambda: cpus)
        store_path = tmp_path / f"store{cpus}.vdb"
        assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                     "--out", str(store_path)]) == 0
        assert multiprocessing.active_children() == []
        stores.append(store_path.read_bytes())
    assert stores[0] == stores[1]
    assert len(VectorStore.load(tmp_path / "store3.vdb")) == 300


def test_embed_empty_text_in_later_block_exits_2(tmp_path, capsys, monkeypatch):
    texts = [f"text {i}" for i in range(150)]
    texts[140] = "   "
    corpus_path = write_chunk_corpus(tmp_path / "corpus.jsonl", texts)
    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)
    store_path = tmp_path / "store.vdb"
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 2
    assert capsys.readouterr().err == "error: cannot embed empty text\n"
    assert not store_path.exists()


def test_embed_worker_that_dies_exits_3(tmp_path, capsys, monkeypatch):
    from telerag import embed as embed_mod

    corpus_path = write_chunk_corpus(tmp_path / "corpus.jsonl", [f"text {i}" for i in range(150)])
    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    real_vectors = embed_mod._hash_test_vectors

    def die_on_last_block(texts, dims, seed):
        if texts[0] == "text 128":
            os._exit(1)
        return real_vectors(texts, dims, seed)

    monkeypatch.setattr(embed_mod, "_hash_test_vectors", die_on_last_block)
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)
    store_path = tmp_path / "store.vdb"
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: an embedding worker process died") and err.count("\n") == 1
    assert not store_path.exists()
    assert multiprocessing.active_children() == []


def test_embed_http_sends_64_text_requests_in_order(tmp_path, monkeypatch):
    corpus_path = write_chunk_corpus(tmp_path / "corpus.jsonl", [f"t{i}" for i in range(150)])
    sent = []

    def fake_post(url, json=None, headers=None, timeout=None):
        sent.append(json["input"])
        return FakeResponse(200, {"data": [{"embedding": [1.0, 0.0, 0.0, 0.0]}] * len(sent[-1])})

    monkeypatch.setattr("requests.post", fake_post)
    provider_cfg = write_json(tmp_path / "provider.json", HTTP_PROVIDER)
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(tmp_path / "store.vdb")]) == 0
    assert [len(texts) for texts in sent] == [64, 64, 22]
    assert sum(sent, []) == [f"t{i}" for i in range(150)]


def test_embed_http_503_is_one_request_and_exit_3(tmp_path, capsys, monkeypatch):
    corpus_path = write_chunk_corpus(tmp_path / "corpus.jsonl", ["t0", "t1"])
    posts = []
    monkeypatch.setattr("requests.post",
                        lambda *a, **k: posts.append(k["json"]) or FakeResponse(503))
    monkeypatch.setattr("time.sleep", lambda s: pytest.fail("an embedding request was retried"))
    provider_cfg = write_json(tmp_path / "provider.json", HTTP_PROVIDER)
    store_path = tmp_path / "store.vdb"
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 3
    assert posts == [{"model": "m", "input": ["t0", "t1"]}]
    err = capsys.readouterr().err
    assert err.startswith("error: embedding request failed: ") and err.count("\n") == 1
    assert "HTTP 503" in err
    assert not store_path.exists()


def make_mixed_docs_dir(tmp_path):
    """Documents that make many groups at a 200-character GROUP_CHARS: an empty
    one, non-ASCII text and names that sanitize to the same doc id."""
    docs = tmp_path / "mixed"
    docs.mkdir()
    rng = random.Random(5)
    words = ["gNB", "Übergabe", "κανάλι", "信道", "RRC", "handover", "PDCP", "ñ"]
    for i in range(12):
        (docs / f"spec{i:02d}.txt").write_text(
            " ".join(rng.choice(words) for _ in range(rng.randrange(1, 120))), encoding="utf-8")
    (docs / "empty.txt").write_text("", encoding="utf-8")
    (docs / "Spec 00.txt").write_text("\t gNB  RRC\n\nÜbergabe ", encoding="utf-8")
    (docs / "spec_00.txt").write_text("κανάλι " * 40, encoding="utf-8")
    return docs


def test_ingest_bytes_same_on_one_cpu_and_several(tmp_path, capsys, monkeypatch):
    from telerag import corpus as corpus_mod

    docs = make_mixed_docs_dir(tmp_path)
    monkeypatch.setattr(corpus_mod, "GROUP_CHARS", 200)
    outputs = []
    for cpus in (1, 3):
        monkeypatch.setattr(forkpool, "_cpu_count", lambda: cpus)
        out = tmp_path / f"corpus{cpus}.jsonl"
        assert main(["ingest", "--input", str(docs), "--out", str(out),
                     "--chunk-size", "16", "--overlap", "5"]) == 0
        assert multiprocessing.active_children() == []
        outputs.append((out.read_bytes(), capsys.readouterr().out.splitlines()[0]))
    assert outputs[0] == outputs[1]
    # The reference: every document chunked and written in one piece.
    bank = corpus_mod.Corpus()
    for path in sorted(docs.glob("*.txt")):
        bank.ingest(path.name, read_utf8(path))
    reference = tmp_path / "reference.jsonl"
    corpus_mod.write_chunks_jsonl(bank.chunk_all(chunk_size=16, overlap=5), reference)
    assert outputs[0][0] == reference.read_bytes()
    doc_ids = [c.doc_id for c in read_chunks_jsonl(reference)]
    assert "spec_00" in doc_ids and "spec_00-1" in doc_ids and "empty" not in doc_ids


def test_ingest_worker_that_dies_exits_2(tmp_path, capsys, monkeypatch):
    from telerag import corpus as corpus_mod

    docs = make_mixed_docs_dir(tmp_path)
    real_chunk_document = corpus_mod.chunk_document

    def die_on_last_doc(doc, *args):
        if doc.doc_id == "spec11":
            os._exit(1)
        return real_chunk_document(doc, *args)

    monkeypatch.setattr(corpus_mod, "GROUP_CHARS", 200)
    monkeypatch.setattr(corpus_mod, "chunk_document", die_on_last_doc)
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)
    out = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: a worker process died (exit code 1)\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_embed_malformed_line_in_later_block_names_path_line(tmp_path, capsys, monkeypatch):
    corpus_path = write_chunk_corpus(tmp_path / "corpus.jsonl", [f"text {i}" for i in range(200)])
    lines = corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[170] = lines[170].replace('"seq": 170', '"seq": "170"')
    corpus_path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(DataError) as expected:
        read_chunks_jsonl(corpus_path)
    assert "corpus.jsonl:171: " in str(expected.value)
    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)
    store_path = tmp_path / "store.vdb"
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 2
    assert capsys.readouterr().err == f"error: {expected.value}\n"
    assert not store_path.exists()


def test_embed_blank_lines_keep_stored_offsets(tmp_path, monkeypatch):
    corpus_path = write_chunk_corpus(tmp_path / "corpus.jsonl", [f"text {i}" for i in range(150)])
    lines = corpus_path.read_bytes().split(b"\n")
    for at in (140, 100, 64, 63, 1, 0):  # blank lines inside and across blocks
        lines.insert(at, b" \t" if at % 2 else b"")
    raw = b"\n".join(lines)
    corpus_path.write_bytes(raw)
    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)
    store_path = tmp_path / "store.vdb"
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 0
    offsets = VectorStore.load(store_path).corpus_offsets()
    assert len(offsets) == 150
    for chunk_id, offset in offsets.items():
        assert offset == 0 or raw[offset - 1 : offset] == b"\n"
        assert raw[offset:].startswith(b'{"chunk_id": "' + chunk_id.encode() + b'"')


@pytest.mark.parametrize(
    "command", ["ingest", "embed", "eval", "usecase-energy", "usecase-assoc"]
)
def test_manifest_lists_outputs_in_write_order(tmp_path, command):
    docs = make_docs_dir(tmp_path)
    corpus_path = run_ingest(tmp_path, docs, "corpus.jsonl")
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=5)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    assoc_cfg = write_json(tmp_path / "assoc.json", {"kind": "mock_oracle"})
    provider_cfg = write_json(tmp_path / "provider.json", HASH_PROVIDER)
    runs = {
        "ingest": (["--input", str(docs), "--out"], ["c.jsonl"]),
        "embed": (["--corpus", str(corpus_path), "--provider-config", provider_cfg, "--out"],
                  ["s.vdb"]),
        "eval": (["--dataset", str(dataset), "--model-config", model_cfg,
                  "--csv", str(tmp_path / "r.csv"), "--report"],
                 ["r.json", "r.json.audit.jsonl", "r.csv"]),
        "usecase-energy": (["--synthetic", "--seed", "1",
                            "--plot-csv", str(tmp_path / "plot.csv"), "--out"],
                           ["fit.json", "plot.csv"]),
        "usecase-assoc": (["--bs-counts", "2,3", "--trials", "2", "--seed", "1",
                           "--model-config", assoc_cfg,
                           "--problems-out", str(tmp_path / "p.jsonl"), "--out"],
                          ["curve.csv", "p.jsonl"]),
    }
    args, names = runs[command]
    primary = tmp_path / names[0]
    assert main([command, *args, str(primary)]) == 0
    manifest = json.loads(Path(str(primary) + ".manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] == [str(tmp_path / name) for name in names]


@pytest.mark.parametrize("command, flags, clash", [
    ("eval", ["--report", "r.json", "--audit", "r.json"], "r.json"),
    ("eval", ["--report", "r.json", "--csv", "r.json"], "r.json"),
    ("eval", ["--report", "r.json", "--csv", "r.json.manifest.json"], "r.json.manifest.json"),
    pytest.param("eval", ["--report", "r.json", "--csv", "r.json.lock"], "r.json.lock",
                 marks=pytest.mark.leaves_lock),
    ("usecase-assoc", ["--out", "c.csv", "--problems-out", "c.csv"], "c.csv"),
    ("usecase-energy", ["--out", "fit.json", "--plot-csv", "fit.json"], "fit.json"),
], ids=["eval-audit", "eval-csv", "eval-csv-manifest", "eval-csv-lock", "assoc-problems",
        "energy-plot"])
def test_output_path_given_twice_is_usage_error(tmp_path, capsys, command, flags, clash):
    # Every input is missing: the clash is found before any input is read or model asked.
    missing = str(tmp_path / "missing")
    inputs = {
        "eval": ["--dataset", missing, "--model-config", missing],
        "usecase-assoc": ["--model-config", missing, "--seed", "1"],
        "usecase-energy": ["--data", missing],
    }[command]
    (tmp_path / clash).write_text("earlier\n", encoding="utf-8")
    argv = [command, *inputs] + [
        str(tmp_path / f) if i % 2 else f for i, f in enumerate(flags)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"usage error: {tmp_path / clash} names a file that another output "
                   "of this run uses\n")
    assert [p.name for p in tmp_path.iterdir()] == [clash]
    assert (tmp_path / clash).read_text(encoding="utf-8") == "earlier\n"


def write_every_input(tmp_path) -> None:
    """One valid input of each kind that a command reads, all in tmp_path."""
    docs = make_docs_dir(tmp_path)
    run_ingest(tmp_path, docs)
    write_json(tmp_path / "provider.json", HASH_PROVIDER)
    assert main(["embed", "--corpus", str(tmp_path / "corpus.jsonl"), "--provider-config",
                 str(tmp_path / "provider.json"), "--out", str(tmp_path / "store.vdb")]) == 0
    make_dataset_jsonl(tmp_path, n_items=5)
    write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    write_json(tmp_path / "assoc.json", {"kind": "mock_oracle"})
    rows = ([r.bs_id, r.load, r.max_tx_power, r.shutdown_duration, r.energy]
            for r in generate_synthetic(20, seed=1))
    (tmp_path / "energy.csv").write_text(csv_text(ENERGY_CSV_COLUMNS, rows), encoding="utf-8")


RAG_INPUTS = "--rag {t}/store.vdb --corpus {t}/corpus.jsonl --provider-config {t}/provider.json"


@pytest.mark.parametrize("argv, named", [
    ("eval --dataset {t}/dataset.jsonl --model-config {t}/model.json --report {t}/dataset.jsonl",
     "dataset.jsonl"),
    ("eval --dataset {t}/dataset.jsonl --model-config {t}/model.json --report {t}/r.json "
     "--csv {t}/model.json", "model.json"),
    ("eval --dataset {t}/dataset.jsonl --model-config {t}/model.json --report {t}/r.json "
     f"{RAG_INPUTS} --audit {{t}}/store.vdb", "store.vdb"),
    ("eval --dataset {t}/dataset.jsonl --model-config {t}/model.json --report {t}/corpus.jsonl "
     f"{RAG_INPUTS}", "corpus.jsonl"),
    ("eval --dataset {t}/dataset.jsonl --model-config {t}/model.json --report {t}/provider.json "
     f"{RAG_INPUTS}", "provider.json"),
    ("ingest --input {t}/docs --out {t}/docs/doc0.txt", "docs/doc0.txt"),
    ("embed --corpus {t}/corpus.jsonl --provider-config {t}/provider.json --out {t}/corpus.jsonl "
     "--force", "corpus.jsonl"),
    ("embed --corpus {t}/corpus.jsonl --provider-config {t}/provider.json "
     "--out {t}/provider.json --force", "provider.json"),
    ("usecase-energy --data {t}/energy.csv --out {t}/energy.csv", "energy.csv"),
    ("usecase-assoc --model-config {t}/assoc.json --seed 1 --out {t}/assoc.json", "assoc.json"),
    ("usecase-assoc --model-config {t}/assoc.json --seed 1 --out {t}/c.csv "
     "--problems-out {t}/assoc.json", "assoc.json"),
    ("usecase-assoc --model-config {t}/c.manifest.json --seed 1 --out {t}/c", "c.manifest.json"),
    pytest.param("usecase-assoc --model-config {t}/c.lock --seed 1 --out {t}/c", "c.lock",
                 marks=pytest.mark.leaves_lock),
    pytest.param("usecase-assoc --model-config {t}/c.tmp --seed 1 --out {t}/c", "c.tmp",
                 marks=pytest.mark.leaves_lock),
], ids=["eval-report-dataset", "eval-csv-model", "eval-audit-store", "eval-report-corpus",
        "eval-report-provider", "ingest-document", "embed-corpus", "embed-provider",
        "energy-data", "assoc-model", "assoc-problems-model", "assoc-manifest-model",
        "assoc-lock-model", "assoc-tmp-model"])
def test_output_naming_an_input_is_usage_error(tmp_path, capsys, argv, named):
    write_every_input(tmp_path)
    if not (tmp_path / named).exists():  # a model config named like the manifest, lock or .tmp
        write_json(tmp_path / named, {"kind": "mock_oracle"})
    before = (tmp_path / named).read_bytes()
    capsys.readouterr()
    assert main(argv.format(t=tmp_path).split()) == 1
    assert capsys.readouterr().err == f"usage error: {tmp_path / named} names an input of this run\n"
    assert (tmp_path / named).read_bytes() == before


def test_model_api_key_forwarded(tmp_path, monkeypatch):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured["headers"] = headers
        return FakeResponse(200, {"text": "1"})

    monkeypatch.setattr("requests.post", fake_post)
    monkeypatch.setenv("MODEL_API_KEY", "sekrit")
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=2)
    model_cfg = write_json(
        tmp_path / "model.json",
        {"kind": "http", "endpoint": "http://fake/c", "model_name": "m"},
    )
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(tmp_path / "r.json")]) == 0
    assert captured["headers"]["Authorization"] == "Bearer sekrit"


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1
    assert main(["eval"]) == 1


@pytest.mark.parametrize("flag, command", [("--rag", "eval"), ("--csv", "eval"),
                                           ("--problems-out", "usecase-assoc"), ("--out", "ingest")])
def test_empty_path_flag_is_usage_error_before_reading_inputs(tmp_path, capsys, flag, command):
    missing = str(tmp_path / "missing")
    argv = {
        "eval": ["eval", "--dataset", missing, "--model-config", missing,
                 "--report", str(tmp_path / "r.json")],
        "usecase-assoc": ["usecase-assoc", "--model-config", missing, "--seed", "1",
                          "--out", str(tmp_path / "curve.csv")],
        "ingest": ["ingest", "--input", missing],
    }[command]
    assert main(argv + [flag, ""]) == 1
    err = capsys.readouterr().err
    assert err == (f"usage error: argument {flag}: must be a non-empty path that UTF-8 can "
                   f"encode, got ''\n")
    assert list(tmp_path.iterdir()) == []


def test_missing_dataset_file_is_data_error(tmp_path):
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    code = main(["eval", "--dataset", str(tmp_path / "nope.json"),
                 "--model-config", model_cfg, "--report", str(tmp_path / "r.json")])
    assert code == 2


def test_model_config_concurrency_key_is_data_error(tmp_path, capsys):
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=3)
    model_cfg = write_json(tmp_path / "model.json",
                           {"kind": "mock_constant", "reply": "1", "concurrency": 4})
    code = main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown model config key(s): concurrency\n"


HTTP_MODEL = {"kind": "http", "endpoint": "http://fake/complete", "model_name": "m"}


@pytest.mark.parametrize(
    "command, config",
    [
        ("embed", {"kind": "hash-test", "dims": 3.5}),
        ("embed", {"kind": "hash-test", "dims": True}),
        ("embed", {"kind": "hash-test", "dims": 4, "seed": "x"}),
        ("embed", {"kind": "hash-test", "dims": 4, "seed": 1.5}),
        ("embed", {**HTTP_PROVIDER, "timeout_s": 0}),
        ("eval", {"kind": "mock_constant", "reply": 5}),
        ("eval", {"kind": "mock_script", "script_path": 5}),
        ("eval", {**HTTP_MODEL, "temperature": "hot"}),
        ("eval", {**HTTP_MODEL, "max_attempts": 0}),
        ("eval", {**HTTP_MODEL, "backoff_s": -1}),
        ("eval", {**HTTP_MODEL, "timeout_s": 0}),
        ("usecase-assoc", {"kind": "mock_random", "seed": 1.9, "extra": 5}),
        ("usecase-assoc", {"kind": "mock_random", "seed": 1.9}),
        ("eval", {"kind": "mock_constant", "reply": "1", "temperature": float("nan")}),
    ],
)
def test_mistyped_or_out_of_range_config_exits_2(tmp_path, capsys, monkeypatch, command, config):
    def fake_post(url, json=None, headers=None, timeout=None):
        rows = [{"embedding": [1.0, 0.0, 0.0, 0.0]}] * len(json.get("input", []))
        return FakeResponse(200, {"text": "1", "data": rows})

    monkeypatch.setattr("requests.post", fake_post)
    config_path = write_json(tmp_path / "config.json", config)
    out = tmp_path / "out"
    if command == "embed":
        corpus_path = write_chunk_corpus(tmp_path / "corpus.jsonl", ["t0", "t1"])
        argv = ["--corpus", str(corpus_path), "--provider-config", config_path, "--out", str(out)]
    elif command == "eval":
        dataset, _ = make_dataset_jsonl(tmp_path, n_items=2)
        argv = ["--dataset", str(dataset), "--model-config", config_path, "--report", str(out)]
    else:
        argv = ["--bs-counts", "2", "--trials", "2", "--seed", "1", "--model-config", config_path,
                "--out", str(out)]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("out")]


@pytest.mark.parametrize("command, config, error", [
    ("eval", json.dumps({**HTTP_MODEL, "timeout_s": 1e300}),
     "invalid model config: timeout_s must be > 0 and at most "),
    ("eval", json.dumps({**HTTP_MODEL, "backoff_s": 1e300, "max_attempts": 2}),
     "invalid model config: backoff_s must be >= 0 and its longest wait, "),
    ("eval", json.dumps({**HTTP_MODEL, "backoff_s": 1, "max_attempts": 36}),
     "invalid model config: backoff_s must be >= 0 and its longest wait, "),
    ("embed", json.dumps({**HTTP_PROVIDER, "timeout_s": 1e300}),
     "invalid provider config: timeout_s must be > 0 and at most "),
    ("eval", '{"kind": "mock_constant", "reply": "1", "temperature": 1e400}',
     "malformed JSON config {config}: 1e400 is not a finite number"),
    ("embed", '{"kind": "hash-test", "dims": 4, "timeout_s": -1e400}',
     "malformed JSON config {config}: -1e400 is not a finite number"),
], ids=["model-timeout", "backoff", "backoff-doubled-past-the-bound", "provider-timeout",
        "model-number-overflows", "provider-number-overflows"])
def test_config_number_beyond_its_bound_exits_2(tmp_path, capsys, monkeypatch, command, config,
                                                error):
    # A wait longer than time.sleep or socket.settimeout takes, or a number that
    # overflows to infinity, is refused before any request.
    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse(503))
    monkeypatch.setattr("time.sleep", lambda s: None)
    config_path = tmp_path / "config.json"
    config_path.write_text(config, encoding="utf-8")
    out = tmp_path / "out"
    if command == "embed":
        corpus_path = write_chunk_corpus(tmp_path / "corpus.jsonl", ["t0"])
        argv = ["--corpus", str(corpus_path), "--provider-config", str(config_path),
                "--out", str(out)]
    else:
        dataset, _ = make_dataset_jsonl(tmp_path, n_items=1)
        argv = ["--dataset", str(dataset), "--model-config", str(config_path),
                "--report", str(out)]
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + error.format(config=config_path)) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, config, key", [
    ("eval", '{"kind": "mock_constant", "reply": "1", "reply": "2"}', "reply"),
    ("usecase-assoc", '{"kind": "mock_random", "seed": 0, "seed": 1}', "seed"),
    ("embed", '{"kind": "hash-test", "dims": 4, "seed": 0, "dims": 8}', "dims"),
], ids=["model", "assoc-model", "provider"])
def test_config_with_a_key_given_twice_exits_2(tmp_path, capsys, command, config, key):
    # Which value would count depends on key order, so neither does.
    config_path = tmp_path / "config.json"
    config_path.write_text(config, encoding="utf-8")
    out = tmp_path / "out"
    if command == "embed":
        corpus_path = write_chunk_corpus(tmp_path / "corpus.jsonl", ["t0"])
        argv = ["--corpus", str(corpus_path), "--provider-config", str(config_path),
                "--out", str(out)]
    elif command == "eval":
        dataset, _ = make_dataset_jsonl(tmp_path, n_items=1)
        argv = ["--dataset", str(dataset), "--model-config", str(config_path),
                "--report", str(out)]
    else:
        argv = ["--trials", "2", "--seed", "1", "--model-config", str(config_path),
                "--out", str(out)]
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err == f"error: duplicate key {key!r} in config {config_path}\n"
    assert not out.exists()


@pytest.mark.parametrize("backoff_s, max_attempts, waits", [
    (0.0, 2000, [0.0] * 1999),
    (1, 35, [float(2**n) for n in range(34)]),
], ids=["zero-backoff", "longest-wait-allowed"])
def test_every_backoff_wait_suits_time_sleep(tmp_path, capsys, monkeypatch, backoff_s,
                                             max_attempts, waits):
    # A zero backoff never overflows however many attempts are left (0.0 * 2**1024
    # would), and the longest wait the config check allows here, 2**33 s, is one
    # that time.sleep takes.
    posts, sleeps = [], []
    monkeypatch.setattr("requests.post", lambda *a, **k: posts.append(1) or FakeResponse(503))
    monkeypatch.setattr("time.sleep", sleeps.append)
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=1)
    model_cfg = write_json(tmp_path / "model.json",
                           {**HTTP_MODEL, "backoff_s": backoff_s, "max_attempts": max_attempts})
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(tmp_path / "r.json")]) == 0
    assert len(posts) == max_attempts
    assert sleeps == waits
    assert "Overall: 0/1 = 0.00% (1 errored)" in capsys.readouterr().out


DEEP = "[" * 100_000 + "]" * 100_000  # nested too deep for json's parser


@pytest.mark.parametrize("kind, code, error", [
    ("dataset-json", 2, "malformed JSON in {t}/deep.json: "),
    ("dataset-jsonl", 2, "invalid entry in {t}/deep.jsonl: line 1: "),
    ("model-config", 2, "malformed JSON config {t}/deep.json: "),
    ("provider-config", 2, "malformed JSON config {t}/deep.json: "),
    ("transcript", 3, "bad transcript line 1 in {t}/deep.jsonl: "),
    ("embed-corpus", 2, "{t}/deep.jsonl:1: malformed chunk record: "),
    ("eval-corpus", 2, "{t}/deep.jsonl (line at byte 0): malformed chunk record: "),
    ("store", 2, "malformed ids block in {t}/bad.vdb: "),
    ("embedding-reply", 3, "embedding request failed: reply from http://fake/embed is not JSON: "),
], ids=["dataset-json", "dataset-jsonl", "model-config", "provider-config", "transcript",
        "embed-corpus", "eval-corpus", "store", "embedding-reply"])
def test_json_nested_too_deep_exits_with_one_line(tmp_path, capsys, monkeypatch, kind, code,
                                                  error):
    t = tmp_path
    (t / "deep.json").write_text(DEEP, encoding="utf-8")
    (t / "deep.jsonl").write_text(DEEP + "\n", encoding="utf-8")
    dataset, _ = make_dataset_jsonl(t, n_items=1)
    model_cfg = write_json(t / "model.json", {"kind": "mock_constant", "reply": "1"})
    script_cfg = write_json(t / "script.json",
                            {"kind": "mock_script", "script_path": str(t / "deep.jsonl")})
    provider_cfg = write_json(t / "provider.json", HASH_PROVIDER)
    http_cfg = write_json(t / "http.json", HTTP_PROVIDER)
    corpus_path = write_chunk_corpus(t / "corpus.jsonl", ["t0"])
    # A store bound to deep.jsonl, so eval --rag parses its one line, and a store
    # whose ids block is nested too deep.
    bound = VectorStore(dims=32, provider_fingerprint="hash-test:seed-0:32")
    bound.insert_many(["d#0"], [[1.0] * 32])
    bound.bind_corpus(hashlib.sha256((t / "deep.jsonl").read_bytes()).digest(), {"d#0": 0})
    bound.save(t / "bound.vdb")
    (t / "bad.vdb").write_bytes(MAGIC + struct.pack("<IIQI", FORMAT_VERSION, 1, 1, 2) + b"fp"
                                + bytes(32) + struct.pack("<Q", len(DEEP)) + DEEP.encode()
                                + bytes(8 + 4))
    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse(200, text=DEEP))
    deep_json, deep_jsonl, dataset = str(t / "deep.json"), str(t / "deep.jsonl"), str(dataset)
    embed = ["embed", "--out", str(t / "out")]
    evaluate = ["eval", "--report", str(t / "out")]
    argv = {
        "dataset-json": evaluate + ["--dataset", deep_json, "--model-config", model_cfg],
        "dataset-jsonl": evaluate + ["--dataset", deep_jsonl, "--model-config", model_cfg],
        "model-config": evaluate + ["--dataset", dataset, "--model-config", deep_json],
        "provider-config": embed + ["--corpus", str(corpus_path), "--provider-config", deep_json],
        "transcript": evaluate + ["--dataset", dataset, "--model-config", script_cfg],
        "embed-corpus": embed + ["--corpus", deep_jsonl, "--provider-config", provider_cfg],
        "eval-corpus": evaluate + ["--dataset", dataset, "--model-config", model_cfg,
                                   "--rag", str(t / "bound.vdb"), "--corpus", deep_jsonl],
        "store": evaluate + ["--dataset", dataset, "--model-config", model_cfg,
                             "--rag", str(t / "bad.vdb"), "--corpus", str(corpus_path)],
        "embedding-reply": embed + ["--corpus", str(corpus_path), "--provider-config", http_cfg],
    }[kind]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " + error.format(t=t)) and err.count("\n") == 1
    assert not (t / "out").exists()


def test_model_reply_nested_too_deep_is_an_errored_item(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse(200, text=DEEP))
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=1)
    model_cfg = write_json(tmp_path / "model.json", HTTP_MODEL)
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(tmp_path / "r.json")]) == 0
    assert "Overall: 0/1 = 0.00% (1 errored)" in capsys.readouterr().out


@pytest.mark.parametrize("kind, escape, code, error", [
    ("dataset-json", r"\ud800", 2,
     "invalid entry in {t}/d.json: item 'q0': lone surrogate U+D800 in question"),
    ("dataset-jsonl", r"\udfff", 2,
     "invalid entry in {t}/d.jsonl: line 1: lone surrogate U+DFFF in question"),
    ("corpus-chunk-id", r"\ud800", 2,
     "{t}/c.jsonl:1: malformed chunk record: lone surrogate U+D800 in field 'chunk_id'"),
    ("corpus-text", r"\udc00", 2,
     "{t}/c.jsonl:1: malformed chunk record: lone surrogate U+DC00 in field 'text'"),
    ("transcript", r"\ud800", 3, "bad transcript line 1 in {t}/t.jsonl: "
                                  "lone surrogate U+D800 in 'reply'"),
    ("constant-reply", r"\ud800", 2, "lone surrogate U+D800 in model config key 'reply'"),
    ("dataset-json", r"\ud83d\ude00", 0, None),
], ids=["dataset-json", "dataset-jsonl", "corpus-chunk-id", "corpus-text", "transcript",
        "constant-reply", "escaped-pair"])
def test_lone_surrogate_escape_exits_with_one_line(tmp_path, capsys, kind, escape, code, error):
    # UTF-8 cannot encode a lone surrogate, so the reader refuses it before any work
    # is done; JSON decodes an escaped pair into one code point, which passes.
    def esc(target: str) -> str:  # the escape goes into the one file the row names
        return escape if kind == target else ""

    t = tmp_path
    (t / "d.json").write_text(json.dumps({"q0": _TELEQNA}).replace(
        "Q?", f"Q {esc('dataset-json')}?"), encoding="utf-8")
    (t / "d.jsonl").write_text(json.dumps(_NORMALIZED).replace(
        "Q?", f"Q {esc('dataset-jsonl')}?") + "\n", encoding="utf-8")
    (t / "c.jsonl").write_text(
        '{"chunk_id": "d#0%s", "doc_id": "d", "seq": 0, "text": "t0%s", "token_count": 1}\n'
        % (esc("corpus-chunk-id"), esc("corpus-text")), encoding="utf-8")
    (t / "t.jsonl").write_text('{"prompt_sha256": "%s", "reply": "1 %s"}\n'
                               % ("0" * 64, esc("transcript")), encoding="utf-8")
    (t / "model.json").write_text('{"kind": "mock_constant", "reply": "1 %s"}'
                                  % esc("constant-reply"), encoding="utf-8")
    script_cfg = write_json(t / "script.json",
                            {"kind": "mock_script", "script_path": str(t / "t.jsonl")})
    evaluate = ["eval", "--report", str(t / "out"), "--dataset", str(t / "d.json"),
                "--model-config", str(t / "model.json")]
    embed = ["embed", "--corpus", str(t / "c.jsonl"), "--out", str(t / "out"),
             "--provider-config", write_json(t / "provider.json", HASH_PROVIDER)]
    argv = {"dataset-jsonl": evaluate + ["--dataset", str(t / "d.jsonl")],
            "corpus-chunk-id": embed, "corpus-text": embed,
            "transcript": evaluate + ["--model-config", script_cfg]}.get(kind, evaluate)
    assert main(argv) == code
    err = capsys.readouterr().err
    if error is None:
        assert err == "" and (t / "out").exists()
    else:
        assert err == "error: " + error.format(t=t) + "\n"
        assert not (t / "out").exists()


def test_model_reply_with_lone_surrogate_is_an_errored_item(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("requests.post",
                        lambda *a, **k: FakeResponse(200, text=r'{"text": "1 \ud800"}'))
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=1)
    model_cfg = write_json(tmp_path / "model.json", HTTP_MODEL)
    report = tmp_path / "r.json"
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(report)]) == 0
    assert "Overall: 0/1 = 0.00% (1 errored)" in capsys.readouterr().out
    audit = json.loads(Path(f"{report}.audit.jsonl").read_text(encoding="utf-8"))
    assert audit["raw_model_output"] == ""


@pytest.mark.parametrize(
    "config, recorded",
    [
        ({"kind": "mock_oracle"}, {"kind": "mock_oracle"}),
        ({"kind": "mock_strongest", "seed": 5}, {"kind": "mock_strongest"}),
        ({"kind": "mock_random", "seed": 5}, {"kind": "mock_random", "seed": 5}),
        ({"kind": "mock_random"}, {"kind": "mock_random", "seed": 0}),
    ],
)
def test_usecase_assoc_manifest_records_mock_config(tmp_path, config, recorded):
    out = tmp_path / "curve.csv"
    assert main(["usecase-assoc", "--bs-counts", "2", "--trials", "2", "--seed", "1",
                 "--model-config", write_json(tmp_path / "model.json", config),
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert manifest["config"]["model"] == recorded


def test_eval_rejects_assoc_only_model_kind(tmp_path, capsys):
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=3)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_oracle"})
    report = tmp_path / "r.json"
    code = main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unknown model kind: 'mock_oracle'" in err
    assert not report.exists()


def test_commands_without_vectors_do_not_import_numpy(tmp_path):
    docs = make_docs_dir(tmp_path)
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=5)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    assoc_cfg = write_json(tmp_path / "assoc.json", {"kind": "mock_oracle"})
    # Each argv, the telerag modules it must load (None: not pinned) and those it must not.
    cases = [
        (["--help"], {"telerag", "cli", "errors", "modelclient"}, set()),
        (["ingest", "--input", str(docs), "--out", str(tmp_path / "corpus.jsonl")],
         None, {"rag", "userassoc", "vstore"}),
        (["eval", "--dataset", str(dataset), "--model-config", model_cfg,
          "--report", str(tmp_path / "report.json")],
         None, {"userassoc", "forkpool", "vstore"}),
        (["usecase-assoc", "--bs-counts", "2,3", "--trials", "4", "--seed", "1",
          "--model-config", assoc_cfg, "--out", str(tmp_path / "curve.csv")],
         None, {"corpus", "embed", "rag", "vstore"}),
    ]
    script = (
        "import json, sys\n"
        "from telerag.cli import main\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'telerag'\n"
        "                or m in ('numpy', 'multiprocessing', 'concurrent.futures'))\n"
        "print(json.dumps([code, loaded]), file=sys.stderr)\n"
    )
    for argv, loads, avoids in cases:
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                              capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stderr.strip().splitlines()[-1])
        modules = {m.removeprefix("telerag.") for m in loaded if m.split(".")[0] == "telerag"}
        assert code == 0, argv
        assert len(modules) == len(loaded), (argv, loaded)  # no numpy, no process pools
        assert loads is None or modules == loads, (argv, modules)
        assert not modules & avoids, (argv, modules)


@pytest.mark.parametrize("reply, picked", [
    ("9" * 5000, None),
    ("The answer is choice 0-1 " + "9" * 5000, 2),
])
def test_eval_grades_digit_runs_too_long_for_int(tmp_path, reply, picked):
    dataset, rows = make_dataset_jsonl(tmp_path, n_items=1)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": reply})
    report = tmp_path / "report.json"
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(report)]) == 0
    overall = json.loads(report.read_text(encoding="utf-8"))["overall"]
    assert (overall["count"], overall["correct"]) == (1, int(rows[0]["correct_index"] == picked))


@pytest.fixture
def pinned_inputs(tmp_path):
    """A fixed three-document corpus embedded into its store, a three-item
    dataset over it and a constant-reply model config, as the paths
    (corpus, store, dataset, model config). Chunks a#0..a#2 repeat one text,
    and dims 37 is not a multiple of the 4 words per digest."""
    docs = tmp_path / "docs"
    docs.mkdir()
    texts = {
        "a.txt": "The gNB schedules PDSCH transmissions on the downlink. " * 3,
        "b.txt": "Uplink power control in NR uses closed-loop TPC commands; "
                 "the UE applies them per slot.",
        "c.txt": "Handover between cells is triggered by measurement event A3. "
                 "Ünïcode tokens stay intact.",
    }
    for name, text in texts.items():
        (docs / name).write_text(text, encoding="utf-8")
    provider_cfg = write_json(tmp_path / "p.json", {"kind": "hash-test", "dims": 37, "seed": 5})
    corpus_path = run_ingest(tmp_path, docs, chunk_size=8)
    store_path = tmp_path / "store.vdb"
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 0
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(row) + "\n" for row in [
        {"item_id": "h", "category": "Standards specifications",
         "question": "Which measurement event triggers handover?",
         "options": ["A3", "B1", "TPC"], "correct_index": 1},
        {"item_id": "p", "category": "Standards overview",
         "question": "What does the UE apply per slot?",
         "options": ["TPC commands", "PDSCH", "Ünïcode"], "correct_index": 1},
        {"item_id": "s", "category": "Lexicon",
         "question": "Who schedules PDSCH?", "options": ["gNB", "UE"], "correct_index": 1},
    ]), encoding="utf-8")
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "2"})
    return corpus_path, store_path, dataset, model_cfg


def test_embed_store_bytes_pinned(tmp_path, pinned_inputs):
    # Golden digests of the pinned corpus and its store, recorded before
    # embedding moved to one float32 block per 64-text batch.
    corpus_path, store_path, dataset, model_cfg = pinned_inputs
    assert len(VectorStore.load(store_path)) == 7
    assert hashlib.sha256(corpus_path.read_bytes()).hexdigest() == (
        "e3bd5dd6c1ab3e8ac43d35170531e4d217b924ca096bee5bf089593a0cdd1636"
    )
    assert hashlib.sha256(store_path.read_bytes()).hexdigest() == (
        "cf30358bd4d08fb8da42146f96dde005a5f018dbf9a7432a4ecbdb220eba7221"
    )
    # A RAG eval over that store, pinned to the digests recorded before retrieval
    # moved out of cli into rag: a tight budget cuts some contexts below k.
    report = tmp_path / "r.json"
    assert main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--rag", str(store_path), "--corpus", str(corpus_path), "--k", "3",
                 "--max-context-tokens", "20", "--report", str(report)]) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (report, tmp_path / "r.json.audit.jsonl")]
    assert digests == [
        "cbb0d410a665393408eb786d000f19e345cd5524c9ea28a99f8b52e4dbfef719",
        "90f9995a3df5964cba99cffe4dd3967bb73ea30b1aca9cc64c76a48fc56551c9",
    ]


@pytest.mark.parametrize("rag", [False, True], ids=["plain", "rag"])
def test_eval_same_under_one_cpu_affinity_and_concurrency(tmp_path, pinned_inputs, rag):
    # One run on one CPU asking one prompt at a time, one on every usable CPU
    # with up to 4 prompts in flight: report, audit and CSV are the same bytes.
    usable = os.sched_getaffinity(0)
    if len(usable) < 2:
        pytest.skip("needs 2 usable CPUs to compare a run on one CPU with one on several")
    corpus_path, store_path, dataset, model_cfg = pinned_inputs
    retrieval = (["--rag", str(store_path), "--corpus", str(corpus_path), "--k", "3",
                  "--max-context-tokens", "20"] if rag else [])
    outputs = []
    for name, limit, concurrency in (
            ("one_cpu", lambda: os.sched_setaffinity(0, {min(usable)}), "1"),
            ("all_cpus", None, "4")):
        report, csv = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        subprocess.run([sys.executable, "-m", "telerag.cli", "eval", "--dataset", str(dataset),
                        "--model-config", model_cfg, *retrieval, "--report", str(report),
                        "--csv", str(csv), "--concurrency", concurrency],
                       env=child_env(), preexec_fn=limit, capture_output=True, check=True,
                       timeout=120)
        audit = tmp_path / f"{name}.json.audit.jsonl"
        outputs.append([hashlib.sha256(p.read_bytes()).hexdigest() for p in (report, audit, csv)])
    assert outputs[0] == outputs[1]
    # Report, audit and CSV digests. The RAG report and audit are the ones
    # test_embed_store_bytes_pinned pins; no reply of "2" is correct, so both
    # CSVs read 0 of 3.
    csv_digest = "3b4101fad7d760e3878a361728966778bf01ffe20f95315d89a0ac76bd4de0bc"
    assert outputs[0] == {
        False: ["c0a2ca17c32b9ac2eee45a18bb07d4f43d6e9a7539da05b43c430d7bbb41803b",
                "311a2af8d11d2e839e11601e39742f041e5b0c3238c7b89ea66052164fbc5ce2", csv_digest],
        True: ["cbb0d410a665393408eb786d000f19e345cd5524c9ea28a99f8b52e4dbfef719",
               "90f9995a3df5964cba99cffe4dd3967bb73ea30b1aca9cc64c76a48fc56551c9", csv_digest],
    }[rag]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["rag_eval", "plain_eval"])
def test_benchmark_eval_same_on_one_cpu(tmp_path, monkeypatch, name):
    # The benchmark's own eval at the smoke seed, with its own inputs and checks:
    # run here with several prompts in flight it gives what the benchmark expects,
    # and run on one CPU asking one prompt at a time it gives the same bytes.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    usable = os.sched_getaffinity(0)
    workload = workloads.WORKLOADS[name](tmp_path, 1, max(2, len(usable)))
    workload.prepare()
    for argv in workload.setup_argvs():
        assert main(argv) == 0
    one_cpu = tmp_path / "one_cpu.json"
    pairs = [(workload.report, one_cpu), (workload.audit, tmp_path / "one_cpu.json.audit.jsonl"),
             (tmp_path / "all_cpus.csv", tmp_path / "one_cpu.csv")]
    assert main(workload.eval_argv() + ["--csv", str(pairs[2][0])]) == 0
    assert workload.check() == (0, [])
    # Flags given again override the workload's own values.
    subprocess.run([sys.executable, "-m", "telerag.cli", *workload.eval_argv(),
                    "--report", str(one_cpu), "--csv", str(pairs[2][1]), "--concurrency", "1"],
                   env=child_env(), preexec_fn=lambda: os.sched_setaffinity(0, {min(usable)}),
                   capture_output=True, check=True, timeout=120)
    for ours, theirs in pairs:
        assert ours.read_bytes() == theirs.read_bytes(), theirs.name


@pytest.mark.parametrize(
    "command, flags",
    [
        ("ingest", ["--chunk-size", "0"]),
        ("ingest", ["--overlap", "-1"]),
        ("ingest", ["--chunk-size", "8", "--overlap", "8"]),
        ("eval", ["--k", "0"]),
        ("eval", ["--max-context-tokens", "0"]),
        ("eval", ["--concurrency", "0"]),
        ("eval", ["--concurrency", "-2"]),
        ("usecase-energy", ["--n-bs", "0"]),
        ("usecase-energy", ["--noise-sd", "-1"]),
        ("usecase-energy", ["--seed", "-1"]),
        ("usecase-assoc", ["--trials", "0"]),
        ("usecase-assoc", ["--bs-counts", "1"]),
        ("usecase-assoc", ["--bs-counts", "2,27"]),
        ("usecase-assoc", ["--bs-counts", "2,x"]),
        # A path that UTF-8 cannot encode (a byte that is not UTF-8 in argv), which the
        # manifest could not record.
        ("ingest", ["--input", "d\udcff"]),
        ("ingest", ["--out", "o\udcff.jsonl"]),
        ("eval", ["--dataset", "d\udcff.json"]),
    ],
    ids=["chunk-size", "overlap-negative", "overlap-not-below-chunk-size", "k",
         "max-context-tokens", "concurrency-0", "concurrency-negative", "n-bs", "noise-sd",
         "seed-negative", "trials", "bs-counts-below-2", "bs-counts-above-max",
         "bs-counts-not-integer", "input-not-utf8", "out-not-utf8", "dataset-not-utf8"],
)
def test_bad_numeric_flag_is_usage_error(tmp_path, capsys, command, flags):
    docs = make_docs_dir(tmp_path, sizes=(40,))
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=3)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    base = {
        "ingest": ["ingest", "--input", str(docs), "--out", str(tmp_path / "c.jsonl")],
        "eval": ["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--report", str(tmp_path / "r.json")],
        "usecase-energy": ["usecase-energy", "--synthetic", "--seed", "1",
                           "--out", str(tmp_path / "fit.json")],
        "usecase-assoc": ["usecase-assoc", "--model-config", model_cfg, "--seed", "1",
                          "--out", str(tmp_path / "curve.csv")],
    }[command]
    capsys.readouterr()
    assert main(base + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert flags[-2] in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.jsonl", "docs", "model.json"]


@pytest.mark.parametrize(
    "n_texts, data",
    [
        (1, [{"embedding": 1.0}]),  # a scalar
        (2, [{"embedding": [1.0, 0.0, 0.0, 0.0]}, {"embedding": [1.0, 0.0]}]),  # ragged rows
        (2, [{"embedding": [1.0, 0.0, 0.0, 0.0]}]),  # one embedding for two texts
        (2, [{"embedding": [1.0, 0.0, 0.0]}, {"embedding": [0.0, 1.0, 0.0]}]),  # 3 dims, not 4
        (2, [{"embedding": [1.0, 0.0, 0.0, 0.0]}, {"embedding": [float("nan"), 1.0, 0.0, 0.0]}]),
    ],
    ids=["scalar", "ragged", "wrong-count", "wrong-dims", "nan"],
)
def test_embed_bad_http_embeddings_exit_3(tmp_path, capsys, monkeypatch, n_texts, data):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(
        json.dumps({"chunk_id": f"d#{i}", "doc_id": "d", "seq": i, "text": f"t{i}",
                    "token_count": 1}) + "\n"
        for i in range(n_texts)
    ), encoding="utf-8")
    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse(200, {"data": data}))
    provider_cfg = write_json(tmp_path / "provider.json", HTTP_PROVIDER)
    store_path = tmp_path / "store.vdb"
    code = main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not store_path.exists()


LOOPBACK_MODEL = Path(__file__).resolve().parent / "loopback_model.py"


@contextlib.contextmanager
def loopback_model(tmp_path, *flags):
    """The port of a loopback_model.py server started with flags, killed on exit."""
    port_file = tmp_path / "port"
    stub = subprocess.Popen([sys.executable, str(LOOPBACK_MODEL), str(port_file), *flags])
    try:
        deadline = time.monotonic() + 30
        while not port_file.exists():
            assert time.monotonic() < deadline and stub.poll() is None
            time.sleep(0.02)
        yield int(port_file.read_text())
    finally:
        stub.kill()
        stub.wait()


def test_http_association_curve_same_on_one_cpu_and_two(tmp_path, monkeypatch):
    # 200 problems in blocks of 50 that another backend would fork on two CPUs. The
    # model answers HTTP 429 to a request that overlaps another, and with one attempt
    # per prompt such an answer leaves the problem errored.
    monkeypatch.setattr(userassoc, "CURVE_IN_PROCESS_MAX", 50)
    monkeypatch.setattr(userassoc, "CURVE_BLOCK", 50)
    curves = []
    with loopback_model(tmp_path, "--one-at-a-time") as port:
        model_cfg = write_json(tmp_path / "http_model.json", {
            "kind": "http", "endpoint": f"http://127.0.0.1:{port}/complete",
            "model_name": "stub", "max_attempts": 1})
        for cpus in (1, 2):
            monkeypatch.setattr(forkpool, "_cpu_count", lambda: cpus)
            out = tmp_path / f"http_{cpus}.csv"
            assert main(["usecase-assoc", "--bs-counts", "2,3", "--trials", "100", "--seed", "1",
                         "--model-config", model_cfg, "--out", str(out)]) == 0
            curves.append(out.read_text(encoding="utf-8"))
    assert curves[0] == curves[1]
    rows = [line.split(",") for line in curves[0].splitlines()[1:]]
    assert [(n_bs, trials, errored) for n_bs, trials, _, errored, _ in rows] == [
        ("2", "100", "0"), ("3", "100", "0")]


def _stop_an_http_eval(tmp_path, signum) -> None:
    """Send signum to an http eval once the model has had 20 requests: the run
    stops asking, prints one line, exits 130 and leaves no report, .tmp or lock."""
    # A loopback model that answers after 50 ms: 400 items at concurrency 4 take 5 s.
    with loopback_model(tmp_path, "--delay", "0.05") as port:
        def received() -> int:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/")
            count = json.loads(conn.getresponse().read())
            conn.close()
            return count

        dataset, _ = make_dataset_jsonl(tmp_path, n_items=400)
        model_cfg = write_json(tmp_path / "model.json", {
            "kind": "http", "endpoint": f"http://127.0.0.1:{port}/complete",
            "model_name": "stub", "max_attempts": 1})
        report = tmp_path / "report.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "telerag.cli", "eval", "--dataset", str(dataset),
             "--model-config", model_cfg, "--report", str(report), "--concurrency", "4"],
            env=child_env(), stderr=subprocess.PIPE, text=True)
        try:
            while (at_signal := received()) < 20:
                assert proc.poll() is None
                time.sleep(0.01)
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=60)
            at_exit = received()
            time.sleep(0.3)
            assert received() == at_exit
            assert at_exit <= at_signal + 12  # the 4 calls in flight, and a few that raced the signal
            assert (proc.returncode, err) == (130, "interrupted\n")
            assert not report.exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def test_ctrl_c_stops_an_http_eval(tmp_path):
    _stop_an_http_eval(tmp_path, signal.SIGINT)


def test_sigterm_stops_an_http_eval(tmp_path):
    _stop_an_http_eval(tmp_path, signal.SIGTERM)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states from /proc")
def test_ctrl_c_from_a_forked_worker_prints_one_line(tmp_path):
    # Ctrl-C reaches the whole process group, the curve's forked workers too: here
    # the worker with block 0 sends it. The caller takes it 0.5 s late, so a worker
    # that met it on its own would have printed by then. Only the caller says so,
    # once its workers have finished the blocks in flight; it prints no curve and
    # leaves no output, .tmp, lock or worker.
    pids = tmp_path / "pids"
    script = (
        "import os, signal, sys, time\n"
        "from telerag import cli, forkpool, userassoc\n"
        "forkpool._cpu_count = lambda: 2\n"
        "pids = sys.argv.pop(1)\n"
        "def record():\n"
        "    with open(pids, 'a') as f:\n"
        "        f.write(f'{os.getpid()}\\n')\n"
        "os.register_at_fork(after_in_child=record)\n"
        "caller = os.getpid()\n"
        "def late_interrupt(signum, frame):  # the caller reacts 0.5 s late\n"
        "    if os.getpid() == caller:\n"
        "        time.sleep(0.5)\n"
        "    raise KeyboardInterrupt\n"
        "signal.signal(signal.SIGINT, late_interrupt)\n"
        "real_problem_set = userassoc._problem_set\n"
        "def problem_set(n_values, trials_per_n, seed, flat=None):\n"
        "    if flat is not None and flat[0] == 0:\n"
        "        time.sleep(0.2)  # the other worker has long reached its loop\n"
        "        os.killpg(0, signal.SIGINT)\n"
        "    return real_problem_set(n_values, trials_per_n, seed, flat)\n"
        "userassoc._problem_set = problem_set\n"
        "cli.entry()\n"
    )
    model_cfg = write_json(tmp_path / "assoc.json", {"kind": "mock_oracle"})
    out = tmp_path / "curve.csv"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(pids), "usecase-assoc", "--bs-counts", "2,3",
         "--trials", "3000", "--seed", "1", "--model-config", model_cfg, "--out", str(out)],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    workers = []
    try:
        stdout, stderr = proc.communicate(timeout=120)
        workers = [int(p) for p in pids.read_text().split()]
        assert (proc.returncode, stdout, stderr) == (130, "seed: 1\n", "interrupted\n")
        assert len(workers) == 2 and not any(map(_alive, workers))
        assert not out.exists()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)
