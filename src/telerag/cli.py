"""Command-line surface for batch runs.

Subcommands: ingest (txt -> chunk JSONL), embed (chunks -> vector store),
eval (MCQ benchmark, plain or RAG-augmented), usecase-energy (fit the energy
formulas), usecase-assoc (association accuracy curve). Every run writes a
manifest next to its primary output and replaces its outputs only when it
succeeds; reruns with the same inputs and seed produce byte-identical outputs.

Exit codes: 0 ok, 1 usage, 2 data/validation, 3 provider/model failure.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import corpus as corpus_mod
from . import embed as embed_mod
# vstore and energymodel pull in numpy, so only the commands that use them import them.
from . import evalharness, rag, userassoc
from .errors import DataError, FingerprintMismatchError, ModelError, ProviderError, TeleragError
from .modelclient import ModelConfig, build_backend

_ASSOC_MOCK_KINDS = ("mock_oracle", "mock_strongest", "mock_random")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise _UsageError(message)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _tmp(path: Path) -> Path:
    return Path(str(path) + ".tmp")


@dataclass
class _Outputs:
    """The files one command run writes, in the order it writes them."""

    paths: list[Path] = field(default_factory=list)
    dataset_fingerprint: str | None = None

    def output(self, path: str | Path) -> Path:
        """Record path as an output; return the file to write it to (`<path>.tmp`)."""
        self.paths.append(Path(path))
        return _tmp(self.paths[-1])


def _remove_stale_lock(lock_path: Path) -> bool:
    """Remove lock_path if the pid it holds names no running process.

    Reclaimers take an flock on the lock file they read and remove it only
    while it is still the file at lock_path, so a lock that another reclaimer
    has taken since is never removed.
    """
    try:
        f = open(lock_path, "rb")
    except FileNotFoundError:
        return True
    with f:
        fcntl.flock(f, fcntl.LOCK_EX)
        try:
            pid = int(f.read())
            if pid <= 0 or os.stat(lock_path).st_ino != os.fstat(f.fileno()).st_ino:
                return False
            os.kill(pid, 0)
        except ProcessLookupError:
            lock_path.unlink()
            return True
        except (ValueError, OSError):  # no readable pid, lock gone, or owner of another user
            return False
    return False


@contextlib.contextmanager
def _run(primary_out: Path, command: str, config: dict, seed: int | None = None):
    """Lock primary_out for one command run and yield its _Outputs.

    The lock file `<primary_out>.lock` holds this process's pid; a lock whose
    pid names no running process is reclaimed once.

    Writers write to the paths `output()` hands back. When the block succeeds
    the manifest is written as one more output and every output is moved into
    place in order, the manifest last; when it raises nothing is replaced.
    Leftover .tmp files and the lock are always removed.
    """
    lock_path = Path(str(primary_out) + ".lock")
    for reclaim in (True, False):
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if reclaim and _remove_stale_lock(lock_path):
                continue
            raise DataError(
                f"another run appears to be writing {primary_out} (remove {lock_path} if stale)"
            ) from None
        with os.fdopen(fd, "w") as f:
            f.write(f"{os.getpid()}\n")
        break
    started_at = _utcnow()
    run = _Outputs()
    try:
        yield run
        manifest = {
            "command": command,
            "config": config,
            "dataset_fingerprint": run.dataset_fingerprint,
            "seed": seed,
            "started_at": started_at,
            "finished_at": _utcnow(),
            "outputs": [str(p) for p in run.paths],
        }
        with open(run.output(str(primary_out) + ".manifest.json"), "w",
                  encoding="utf-8", newline="\n") as f:
            json.dump(manifest, f, ensure_ascii=False, sort_keys=True, indent=2)
            f.write("\n")
        for path in dict.fromkeys(run.paths):  # a path given twice is moved once
            _tmp(path).replace(path)
    finally:
        for path in run.paths:
            _tmp(path).unlink(missing_ok=True)
        lock_path.unlink(missing_ok=True)


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except ValueError as exc:
        raise DataError(f"malformed JSON config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"config {path} must be a JSON object")
    return data


def _provider_from_file(path: str) -> embed_mod.EmbeddingProviderConfig:
    data = _load_json_file(path)
    allowed = {"kind", "dims", "endpoint", "model_name", "seed", "timeout_s"}
    unknown = set(data) - allowed
    if unknown:
        raise DataError(f"unknown provider config key(s): {', '.join(sorted(unknown))}")
    try:
        return embed_mod.EmbeddingProviderConfig(**data)
    except (TypeError, ValueError) as exc:
        raise DataError(f"invalid provider config {path}: {exc}") from exc


def _model_config_from_dict(data: dict, path: str) -> ModelConfig:
    allowed = {
        "kind", "endpoint", "model_name", "temperature", "max_tokens", "api_shape",
        "script_path", "reply", "max_attempts", "backoff_s", "timeout_s",
    }
    unknown = set(data) - allowed
    if unknown:
        raise DataError(f"unknown model config key(s): {', '.join(sorted(unknown))}")
    try:
        return ModelConfig(**data)
    except (TypeError, ValueError) as exc:
        raise DataError(f"invalid model config {path}: {exc}") from exc


def _positive_int(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _resolve_seed(arg_seed: int | None) -> int:
    seed = random.randrange(2**32) if arg_seed is None else arg_seed
    print(f"seed: {seed}")
    return seed


def _seq_stats(values: list[int]) -> str:
    if not values:
        return "0 tokens"
    return (
        f"{sum(values)} tokens "
        f"(chunk min {min(values)}, max {max(values)}, mean {sum(values) / len(values):.1f})"
    )


def cmd_ingest(args, parser: _Parser) -> int:
    if not 0 <= args.overlap < args.chunk_size:
        parser.error(f"--overlap must be >= 0 and < --chunk-size {args.chunk_size}, "
                     f"got {args.overlap}")
    input_dir = Path(args.input)
    txt_files = sorted(input_dir.glob("*.txt")) if input_dir.is_dir() else []
    if not txt_files:
        raise DataError(f"no .txt documents found in {input_dir}")
    out = Path(args.out)
    config = {"input": str(input_dir), "chunk_size": args.chunk_size, "overlap": args.overlap}
    with _run(out, "ingest", config) as run:
        bank = corpus_mod.Corpus()
        for path in txt_files:
            bank.ingest(path.name, path.read_bytes())
        token_counts = bank.write_jsonl(run.output(out), args.chunk_size, args.overlap)
    print(
        f"ingested {len(bank.documents)} documents -> {len(token_counts)} chunks, "
        + _seq_stats(token_counts)
    )
    print(f"corpus written to {out}")
    return 0


def cmd_embed(args) -> int:
    from . import vstore

    chunk_file = corpus_mod.ChunkFile(args.corpus)
    provider = _provider_from_file(args.provider_config)
    out = Path(args.out)
    if out.exists() and not args.force:
        _, _, _, existing_fp = vstore.VectorStore.read_header(out)
        if existing_fp != provider.fingerprint:
            raise FingerprintMismatchError(
                f"{out} was built with provider {existing_fp!r}; refusing to replace it "
                f"with {provider.fingerprint!r} (use --force to override)"
            )
    config = {"corpus": args.corpus, "provider_fingerprint": provider.fingerprint}
    with _run(out, "embed", config) as run:
        store = vstore.VectorStore(dims=provider.dims, provider_fingerprint=provider.fingerprint)
        store.insert_many(*embed_mod.embed_chunk_file(provider, chunk_file))
        store.bind_corpus(chunk_file.sha256, chunk_file.offsets)
        store.save(run.output(out))
    print(f"embedded {len(store)} chunks -> {out} (provider {provider.fingerprint})")
    return 0


def cmd_eval(args) -> int:
    items = evalharness.load_dataset(args.dataset)
    model_cfg = _model_config_from_dict(_load_json_file(args.model_config), args.model_config)
    backend = build_backend(model_cfg)
    cfg = rag.RagConfig(
        k=args.k, max_context_tokens=args.max_context_tokens, query_mode=args.query_mode
    )
    if args.rag and not args.corpus:
        raise DataError("--rag needs --corpus for the chunk texts")
    with open(args.corpus, "rb") if args.rag else contextlib.nullcontext() as corpus_file:
        store = provider = chunks_by_id = None
        # Every setting that shapes a RAG answer; all None on plain eval.
        settings = dict.fromkeys(
            ("max_context_tokens", "query_mode", "provider_fingerprint", "corpus_sha256")
        )
        if args.rag:
            from . import vstore

            store = vstore.VectorStore.load(args.rag)
            if corpus_mod.file_sha256(corpus_file) != store.corpus_sha256:
                raise DataError(
                    f"{args.corpus} is not the corpus {args.rag} was embedded from; "
                    "re-run telerag embed"
                )
            chunks_by_id = corpus_mod.CorpusLines(corpus_file, store.corpus_offsets())
            if args.provider_config:
                provider = _provider_from_file(args.provider_config)
            else:
                provider = embed_mod.provider_from_fingerprint(store.provider_fingerprint)
            settings = {
                "max_context_tokens": cfg.max_context_tokens,
                "query_mode": cfg.query_mode,
                "provider_fingerprint": provider.fingerprint,
                "corpus_sha256": store.corpus_sha256.hex(),
            }

        report_path = Path(args.report)
        audit_path = args.audit or str(report_path) + ".audit.jsonl"
        config = {
            "dataset": args.dataset,
            "model_config": args.model_config,
            "rag": args.rag,
            "k": cfg.k,
            "strict_parse": args.strict_parse,
            **settings,
        }
        with _run(report_path, "eval", config) as run:
            results = rag.run_evaluation(
                backend,
                items,
                store=store,
                provider=provider,
                chunks=chunks_by_id,
                cfg=cfg,
                concurrency=args.concurrency,
                strict_parse=args.strict_parse,
            )
            run_meta = {
                "model": model_cfg.summary(),
                "rag_enabled": args.rag is not None,
                "k": cfg.k if args.rag else None,
                **settings,
            }
            report = evalharness.score(items, [r.answer for r in results], run_meta=run_meta)
            run.dataset_fingerprint = report.dataset_fingerprint
            evalharness.write_report_json(report, run.output(report_path))
            rag.write_audit_log(results, run.output(audit_path))
            if args.csv:
                run.output(args.csv).write_text(evalharness.report_csv(report), encoding="utf-8")
    for cat, stats in report.categories.items():
        print(f"{cat}: {stats.correct}/{stats.count} = {stats.accuracy_percent:.2f}%"
              + (f" ({stats.errored} errored)" if stats.errored else ""))
    print(f"Overall: {report.overall.correct}/{report.overall.count} "
          f"= {report.overall.accuracy_percent:.2f}%")
    print(f"report written to {report_path}")
    return 0


def cmd_usecase_energy(args, parser: _Parser) -> int:
    if not 0.0 <= args.noise_sd < math.inf:
        parser.error(f"--noise-sd must be a finite number >= 0, got {args.noise_sd}")
    from . import energymodel

    kinds = ["eq1", "eq2"] if args.model == "both" else [args.model]
    out = Path(args.out)
    seed = None
    if args.data:
        records = energymodel.read_records_csv(args.data)
        source = {"data": args.data}
    else:
        seed = _resolve_seed(args.seed)
        records = energymodel.generate_synthetic(args.n_bs, noise_sd=args.noise_sd, seed=seed)
        source = {"synthetic": {"n_bs": args.n_bs, "noise_sd": args.noise_sd}}
    with _run(out, "usecase-energy", {"source": source, "models": kinds}, seed=seed) as run:
        models = [energymodel.fit(records, kind) for kind in kinds]
        fitted = [
            {
                "kind": m.kind,
                "params": {k: round(v, 12) for k, v in m.params.items()},
                "mape_percent": round(m.mape_percent, 6),
                "n_records": m.n_records,
            }
            for m in models
        ]
        payload = fitted[0] if len(fitted) == 1 else {"models": fitted}
        with open(run.output(out), "w", encoding="utf-8", newline="\n") as f:
            json.dump(payload, f, ensure_ascii=False, sort_keys=True, indent=2)
            f.write("\n")
        if args.plot_csv:
            energymodel.write_plot_csv(records, models, run.output(args.plot_csv))
    for m in models:
        print(f"{m.kind}: mape={m.mape_percent:.3f}% params={m.params}")
    print(f"fit written to {out}")
    return 0


def _assoc_backend(args):
    data = _load_json_file(args.model_config)
    kind = data.get("kind")
    if kind in _ASSOC_MOCK_KINDS:
        if kind == "mock_oracle":
            return userassoc.OracleBackend(), {"kind": kind}
        if kind == "mock_strongest":
            return userassoc.StrongestBackend(), {"kind": kind}
        return (
            userassoc.RandomGuessBackend(seed=int(data.get("seed", 0))),
            {"kind": kind, "seed": int(data.get("seed", 0))},
        )
    cfg = _model_config_from_dict(data, args.model_config)
    return build_backend(cfg), cfg.summary()


def cmd_usecase_assoc(args, parser: _Parser) -> int:
    try:
        counts = [int(part) for part in args.bs_counts.split(",") if part.strip()]
    except ValueError:
        parser.error(f"--bs-counts must be comma-separated integers, got {args.bs_counts!r}")
    if not counts or any(c < 2 for c in counts):
        parser.error("--bs-counts values must be >= 2")
    if any(c > userassoc.MAX_STATIONS for c in counts):
        parser.error(f"--bs-counts values must be <= {userassoc.MAX_STATIONS}")
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    backend, model_summary = _assoc_backend(args)
    seed = _resolve_seed(args.seed)
    out = Path(args.out)
    config = {"bs_counts": counts, "trials": args.trials, "model": model_summary}
    with _run(out, "usecase-assoc", config, seed=seed) as run:
        curve = userassoc.run_curve(backend, counts, trials_per_n=args.trials, seed=seed)
        run.output(out).write_text(userassoc.curve_csv(curve), encoding="utf-8")
        if args.problems_out:
            userassoc.export_problems_jsonl(counts, args.trials, seed, run.output(args.problems_out))
    for p in curve.points:
        print(f"n={p.n_bs}: {p.correct}/{p.trials} = {p.accuracy_percent:.2f}%"
              + (f" ({p.errored} errored)" if p.errored else ""))
    print(f"curve written to {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="telerag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="chunk .txt documents into a corpus JSONL")
    p.add_argument("--input", required=True, help="directory of .txt files")
    p.add_argument("--out", required=True, help="output corpus JSONL path")
    p.add_argument("--chunk-size", type=_positive_int, default=corpus_mod.DEFAULT_CHUNK_SIZE)
    p.add_argument("--overlap", type=int, default=0)

    p = sub.add_parser("embed", help="embed a corpus into a vector store")
    p.add_argument("--corpus", required=True)
    p.add_argument("--provider-config", required=True, help="embedding provider JSON config")
    p.add_argument("--out", required=True, help="output store path")
    p.add_argument("--force", action="store_true", help="replace a store built by another provider")

    p = sub.add_parser("eval", help="run the MCQ benchmark")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model-config", required=True, help="model backend JSON config")
    p.add_argument("--rag", default=None, help="vector store path; enables retrieval")
    p.add_argument("--corpus", default=None, help="corpus JSONL (required with --rag)")
    p.add_argument("--provider-config", default=None, help="embedding provider JSON config")
    p.add_argument("--k", type=_positive_int, default=3)
    p.add_argument("--max-context-tokens", type=_positive_int, default=1536)
    p.add_argument("--query-mode", choices=rag.QUERY_MODES, default="question_plus_options")
    p.add_argument("--report", required=True, help="output report JSON path")
    p.add_argument("--csv", default=None, help="output per-category CSV path")
    p.add_argument("--audit", default=None, help="audit JSONL path (default: <report>.audit.jsonl)")
    p.add_argument("--concurrency", type=_positive_int, default=4)
    p.add_argument("--strict-parse", action="store_true",
                   help="only accept answers that start with the option number")

    p = sub.add_parser("usecase-energy", help="fit the energy formulas")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", default=None, help="CSV with columns bs_id,L,MTX,DSS,E")
    src.add_argument("--synthetic", action="store_true", help="generate seeded synthetic records")
    p.add_argument("--n-bs", type=_positive_int, default=90)
    p.add_argument("--noise-sd", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--model", choices=["eq1", "eq2", "both"], default="both")
    p.add_argument("--out", required=True, help="output fit JSON path")
    p.add_argument("--plot-csv", default=None, help="load/truth/prediction CSV path")

    p = sub.add_parser("usecase-assoc", help="association accuracy curve")
    p.add_argument("--bs-counts", default="2,4,6,8,10")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--model-config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output curve CSV path")
    p.add_argument("--problems-out", default=None, help="export the problem set as JSONL")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        if args.command == "ingest":
            return cmd_ingest(args, parser)
        if args.command == "embed":
            return cmd_embed(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "usecase-energy":
            return cmd_usecase_energy(args, parser)
        if args.command == "usecase-assoc":
            return cmd_usecase_assoc(args, parser)
        raise AssertionError(f"unhandled command {args.command}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ProviderError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, UnicodeDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TeleragError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
