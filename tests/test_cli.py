from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from telerag import forkpool, userassoc
from telerag.cli import main
from telerag.corpus import read_chunks_jsonl
from telerag.errors import DataError, ProviderError
from telerag.modelclient import write_transcript
from telerag.vstore import VectorStore

HASH_PROVIDER = {"kind": "hash-test", "dims": 32, "seed": 0}


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


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
    assert not (tmp_path / "corpus.jsonl.lock").exists()


def test_ingest_empty_dir_fails(tmp_path, capsys):
    docs = tmp_path / "empty"
    docs.mkdir()
    code = main(["ingest", "--input", str(docs), "--out", str(tmp_path / "c.jsonl")])
    assert code == 2
    assert "no .txt documents found" in capsys.readouterr().err


def test_ingest_rerun_byte_identical(tmp_path):
    docs = make_docs_dir(tmp_path)
    first = run_ingest(tmp_path, docs, "c1.jsonl")
    second = run_ingest(tmp_path, docs, "c2.jsonl")
    assert first.read_bytes() == second.read_bytes()


def test_ingest_rejects_non_utf8(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "bad.txt").write_bytes(b"\xff\xfe broken")
    code = main(["ingest", "--input", str(docs), "--out", str(tmp_path / "c.jsonl")])
    assert code == 2


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
    assert leftovers(tmp_path) == []


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
    assert leftovers(tmp_path) == []


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


def test_eval_non_object_dataset_entry_is_data_error(tmp_path, capsys):
    dataset = write_json(tmp_path / "dataset.json", ["oops"])
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    code = main(["eval", "--dataset", dataset, "--model-config", model_cfg,
                 "--report", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "item 'q0': entry is not an object" in err


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
    assert leftovers(tmp_path) == []


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
    assert not out.exists() and leftovers(tmp_path) == []
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
    assert not report.exists() and leftovers(tmp_path) == []


def test_usecase_assoc_rejects_count_below_two(tmp_path, capsys):
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_oracle"})
    code = main(["usecase-assoc", "--bs-counts", "1", "--model-config", model_cfg,
                 "--out", str(tmp_path / "c.csv")])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


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


def test_lock_file_blocks_concurrent_writer(tmp_path):
    docs = make_docs_dir(tmp_path, sizes=(10,))
    out = tmp_path / "c.jsonl"
    lock = tmp_path / "c.jsonl.lock"
    lock.touch()
    code = main(["ingest", "--input", str(docs), "--out", str(out)])
    assert code == 2
    lock.unlink()
    assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 0


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir() if p.suffix in (".tmp", ".lock"))


def finished_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait(timeout=60)
    return child.pid


def test_stale_lock_of_dead_process_is_reclaimed(tmp_path):
    docs = make_docs_dir(tmp_path, sizes=(10,))
    out = tmp_path / "c.jsonl"
    (tmp_path / "c.jsonl.lock").write_text(f"{finished_pid()}\n", encoding="utf-8")
    assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 0
    assert out.exists()
    assert leftovers(tmp_path) == []


def test_tmp_left_by_killed_run_is_replaced_and_removed(tmp_path):
    # What a SIGKILL during a write leaves: the lock and a partial output.
    docs = make_docs_dir(tmp_path, sizes=(10,))
    out = tmp_path / "c.jsonl"
    (tmp_path / "c.jsonl.lock").write_text(f"{finished_pid()}\n", encoding="utf-8")
    (tmp_path / "c.jsonl.tmp").write_text('{"chunk_id": "partial', encoding="utf-8")
    assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 0
    assert [c.chunk_id for c in read_chunks_jsonl(out)] == ["doc0#0"]
    assert leftovers(tmp_path) == []


def test_lock_of_live_process_blocks(tmp_path, capsys):
    docs = make_docs_dir(tmp_path, sizes=(10,))
    out = tmp_path / "c.jsonl"
    lock = tmp_path / "c.jsonl.lock"
    lock.write_text(f"{os.getpid()}\n", encoding="utf-8")
    assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 2
    assert "another run appears to be writing" in capsys.readouterr().err
    assert lock.read_text(encoding="utf-8") == f"{os.getpid()}\n"
    assert not out.exists()


def test_concurrent_reclaimers_never_overlap(tmp_path, monkeypatch):
    from telerag import cli

    out = tmp_path / "c.txt"
    state = {"inside": 0, "most": 0, "runs": 0}
    guard = threading.Lock()
    real_kill = os.kill

    def slow_kill(pid, sig):  # widen the gap between reading a pid and removing the lock
        time.sleep(0.002)
        return real_kill(pid, sig)

    monkeypatch.setattr(os, "kill", slow_kill)
    start = threading.Barrier(8)

    def reclaim():
        start.wait(timeout=60)
        try:
            with cli._run(out, "test", {}):
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
    assert leftovers(tmp_path) == []


def test_directory_as_output_is_data_error(tmp_path, capsys):
    docs = make_docs_dir(tmp_path, sizes=(10,))
    out = tmp_path / "some_dir"
    out.mkdir()
    assert main(["ingest", "--input", str(docs), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out.is_dir() and leftovers(tmp_path) == []


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
    assert leftovers(tmp_path) == []


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
    assert leftovers(tmp_path) == []
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
    assert not store_path.exists() and leftovers(tmp_path) == []


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
    assert not store_path.exists() and leftovers(tmp_path) == []
    assert multiprocessing.active_children() == []


def test_embed_http_sends_64_text_requests_in_order(tmp_path, monkeypatch):
    corpus_path = write_chunk_corpus(tmp_path / "corpus.jsonl", [f"t{i}" for i in range(150)])
    sent = []

    class FakeResponse:
        status_code = 200

        def __init__(self, n):
            self.n = n

        def json(self):
            return {"data": [{"embedding": [1.0, 0.0, 0.0, 0.0]}] * self.n}

    def fake_post(url, json=None, headers=None, timeout=None):
        sent.append(json["input"])
        return FakeResponse(len(json["input"]))

    monkeypatch.setattr("requests.post", fake_post)
    provider_cfg = write_json(tmp_path / "provider.json", {
        "kind": "http", "dims": 4, "endpoint": "http://fake/embed", "model_name": "m"})
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(tmp_path / "store.vdb")]) == 0
    assert [len(texts) for texts in sent] == [64, 64, 22]
    assert sum(sent, []) == [f"t{i}" for i in range(150)]


def test_embed_http_503_is_one_request_and_exit_3(tmp_path, capsys, monkeypatch):
    corpus_path = write_chunk_corpus(tmp_path / "corpus.jsonl", ["t0", "t1"])
    posts = []

    class Unavailable:
        status_code = 503

    monkeypatch.setattr("requests.post", lambda *a, **k: posts.append(k["json"]) or Unavailable())
    monkeypatch.setattr("time.sleep", lambda s: pytest.fail("an embedding request was retried"))
    provider_cfg = write_json(tmp_path / "provider.json", {
        "kind": "http", "dims": 4, "endpoint": "http://fake/embed", "model_name": "m"})
    store_path = tmp_path / "store.vdb"
    assert main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 3
    assert posts == [{"model": "m", "input": ["t0", "t1"]}]
    err = capsys.readouterr().err
    assert err.startswith("error: embedding request failed: ") and err.count("\n") == 1
    assert "HTTP 503" in err
    assert not store_path.exists() and leftovers(tmp_path) == []


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
        bank.ingest(path.name, path.read_bytes())
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
    assert not out.exists() and leftovers(tmp_path) == []
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
    assert not store_path.exists() and leftovers(tmp_path) == []


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
    assert leftovers(tmp_path) == []


def test_eval_rag_requires_corpus(tmp_path, capsys):
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=5)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    provider_cfg = write_json(tmp_path / "p.json", HASH_PROVIDER)
    empty_corpus = tmp_path / "c.jsonl"
    empty_corpus.write_text("", encoding="utf-8")
    store_path = tmp_path / "s.vdb"
    assert main(["embed", "--corpus", str(empty_corpus), "--provider-config", provider_cfg,
                 "--out", str(store_path)]) == 0
    code = main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                 "--rag", str(store_path), "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert "--corpus" in capsys.readouterr().err


def test_model_api_key_forwarded(tmp_path, monkeypatch):
    captured = {}

    class FakeResponse:
        status_code = 200

        @staticmethod
        def json():
            return {"text": "1"}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured["headers"] = headers
        return FakeResponse()

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


def test_missing_dataset_file_is_data_error(tmp_path):
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    code = main(["eval", "--dataset", str(tmp_path / "nope.json"),
                 "--model-config", model_cfg, "--report", str(tmp_path / "r.json")])
    assert code == 2


def test_eval_concurrency_below_one_is_usage_error(tmp_path, capsys):
    dataset, _ = make_dataset_jsonl(tmp_path, n_items=3)
    model_cfg = write_json(tmp_path / "model.json", {"kind": "mock_constant", "reply": "1"})
    report = tmp_path / "r.json"
    for value in ("0", "-2"):
        code = main(["eval", "--dataset", str(dataset), "--model-config", model_cfg,
                     "--report", str(report), "--concurrency", value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "--concurrency" in err
    assert not report.exists()


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
        ("embed", {"kind": "http", "dims": 4, "endpoint": "http://fake/embed",
                   "model_name": "m", "timeout_s": 0}),
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
    class Reply:
        status_code = 200

        def __init__(self, payload):
            self.payload = payload

        def json(self):
            return self.payload

    def fake_post(url, json=None, headers=None, timeout=None):
        rows = [{"embedding": [1.0, 0.0, 0.0, 0.0]}] * len(json.get("input", []))
        return Reply({"text": "1", "data": rows})

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
    assert _leftovers(tmp_path) == []


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
    argvs = [
        ["--help"],
        ["ingest", "--input", str(docs), "--out", str(tmp_path / "corpus.jsonl")],
        ["eval", "--dataset", str(dataset), "--model-config", model_cfg,
         "--report", str(tmp_path / "report.json")],
        ["usecase-assoc", "--bs-counts", "2,3", "--trials", "4", "--seed", "1",
         "--model-config", assoc_cfg, "--out", str(tmp_path / "curve.csv")],
    ]
    script = (
        "import json, sys\n"
        "from telerag.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m for m in ('numpy', 'multiprocessing', 'concurrent.futures')\n"
        "                if m in sys.modules)\n"
        "print(json.dumps([codes, loaded]), file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert loaded == []


def test_embed_store_bytes_pinned(tmp_path):
    # Golden digests of a fixed three-document corpus and its store, recorded
    # before embedding moved to one float32 block per 64-text batch. Chunks a#0..a#2
    # repeat one text, and dims 37 is not a multiple of the 4 words per digest.
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
    assert len(VectorStore.load(store_path)) == 7
    assert hashlib.sha256(corpus_path.read_bytes()).hexdigest() == (
        "e3bd5dd6c1ab3e8ac43d35170531e4d217b924ca096bee5bf089593a0cdd1636"
    )
    assert hashlib.sha256(store_path.read_bytes()).hexdigest() == (
        "cf30358bd4d08fb8da42146f96dde005a5f018dbf9a7432a4ecbdb220eba7221"
    )


def _leftovers(root: Path) -> list[Path]:
    return [p for p in root.rglob("*") if p.suffix in (".lock", ".tmp")]


@pytest.mark.parametrize(
    "command, flags",
    [
        ("ingest", ["--chunk-size", "0"]),
        ("ingest", ["--overlap", "-1"]),
        ("ingest", ["--chunk-size", "8", "--overlap", "8"]),
        ("eval", ["--k", "0"]),
        ("eval", ["--max-context-tokens", "0"]),
        ("usecase-energy", ["--n-bs", "0"]),
        ("usecase-energy", ["--noise-sd", "-1"]),
        ("usecase-assoc", ["--trials", "0"]),
        ("usecase-assoc", ["--bs-counts", "1"]),
        ("usecase-assoc", ["--bs-counts", "2,27"]),
        ("usecase-assoc", ["--bs-counts", "2,x"]),
    ],
    ids=["chunk-size", "overlap-negative", "overlap-not-below-chunk-size", "k",
         "max-context-tokens", "n-bs", "noise-sd", "trials", "bs-counts-below-2",
         "bs-counts-above-max", "bs-counts-not-integer"],
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
    assert not _leftovers(tmp_path)
    assert not any((tmp_path / name).exists() for name in ("c.jsonl", "fit.json", "curve.csv"))


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

    class FakeResponse:
        status_code = 200

        @staticmethod
        def json():
            return {"data": data}

    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse())
    provider_cfg = write_json(tmp_path / "provider.json", {
        "kind": "http", "dims": 4, "endpoint": "http://fake/embed", "model_name": "m"})
    store_path = tmp_path / "store.vdb"
    code = main(["embed", "--corpus", str(corpus_path), "--provider-config", provider_cfg,
                 "--out", str(store_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not store_path.exists() and not _leftovers(tmp_path)
