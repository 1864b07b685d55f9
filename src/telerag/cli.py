"""Command-line surface for batch runs.

Subcommands: ingest (txt -> chunk JSONL), embed (chunks -> vector store),
eval (MCQ benchmark, plain or RAG-augmented), usecase-energy (fit the energy
formulas), usecase-assoc (association accuracy curve). Every cmd_* names its
inputs and outputs once, in its _run call, which checks them and takes the
run's lock before any input is read. Every run writes a manifest next to its
primary output and replaces its outputs only when it succeeds; reruns with the
same inputs and seed produce byte-identical outputs.

Each subcommand's parser names its cmd_* function, and each flag's argparse
type checks its value; a bad value (among them an empty path, or one that UTF-8
cannot encode, which the manifest could not record), --overlap not below
--chunk-size, --rag without --corpus, a retrieval flag without --rag, a
synthetic-fleet flag without --synthetic, two outputs naming one file and an
output naming one of the run's input files are usage errors. An output that is
a directory, or whose parent is not one, is a data error. Exit codes: 0 ok,
1 usage, 2 data or out of memory, 3 provider/model, 130 interrupted (Ctrl-C,
or SIGTERM).

An http model never runs in a forkpool worker, and a local one (transcript or
constant) never runs on a thread: eval's --concurrency bounds the calls in
flight to an http model only.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import math
import os
import signal
import sys
import typing
from datetime import datetime, timezone
from pathlib import Path

# Each command imports only the modules it runs, so start-up and --help load none
# of them (vstore and energymodel bring numpy).
from . import DEFAULT_CHUNK_SIZE, MAX_STATIONS, QUERY_MODES
from .errors import (JSON_ERRORS, DataError, FingerprintMismatchError, ModelError,
                     ProviderError, TeleragError, lone_surrogate, read_utf8)
from .modelclient import ModelConfig, build_backend

T = typing.TypeVar("T")
_JSON_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", type(None): "null"}
# eval flags that set RagConfig fields; each is None unless given, so RagConfig keeps its default
_RAG_TUNING = ("k", "max_context_tokens", "query_mode")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise _UsageError(message)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _tmp(path: str | Path) -> Path:
    return Path(f"{path}.tmp")


@contextlib.contextmanager
def _run(command: str, outputs: typing.Sequence[str | Path | None],
         inputs: typing.Iterable[str | Path | None] = ()):
    """Check, lock and record one command run's files; yield its manifest, whose
    config, seed and dataset_fingerprint the command fills in.

    outputs are the files the run writes, primary first, in the order it writes
    them; None stands for an output flag that was not given. Before anything is
    read, the outputs, the manifest, their .tmp files and the .lock must all be
    different files and none of them one of the run's inputs (a usage error),
    and no output, manifest or .tmp may be a directory or lie outside one (a
    DataError).

    The lock is an flock on `<primary>.lock`, held for the whole run; a run
    that finds it held exits 2. The kernel drops the lock when the process
    ends, however it ends, so a lock file left behind blocks no later run.
    Forked fork_map workers share the locked file, so a worker of a run that
    was killed outright holds the lock until its task ends. Deleting a held
    lock file would let a second run lock a new file beside the first.

    The block reads the inputs and writes each output to `_tmp(output)`. When
    it succeeds every output is moved into place in order, then the manifest;
    when it raises nothing is replaced. The .tmp files and the lock file are
    always removed.
    """
    from .evalharness import write_json

    paths = [Path(path) for path in outputs if path]
    primary = paths[0]
    lock_path, manifest_path = Path(f"{primary}.lock"), Path(f"{primary}.manifest.json")
    read = {os.path.realpath(path) for path in inputs if path}
    if os.path.realpath(lock_path) in read:
        raise _UsageError(f"{lock_path} names an input of this run")
    files = [file for path in (primary, manifest_path, *paths[1:]) for file in (path, _tmp(path))]
    seen = {os.path.realpath(lock_path)}
    for file in files:
        name = os.path.realpath(file)
        if name in read:
            raise _UsageError(f"{file} names an input of this run")
        if name in seen:
            raise _UsageError(f"{file} names a file that another output of this run uses")
        seen.add(name)
    for file in files:
        if file.is_dir():
            raise DataError(f"cannot write {file}: it is a directory")
        if not file.parent.is_dir():
            raise DataError(f"cannot write {file}: {file.parent} is not a directory")
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        # The file is gone, or is a new one, when a run that just finished unlinked it.
        if os.stat(lock_path).st_ino != os.fstat(fd).st_ino:
            raise BlockingIOError
    except BaseException as exc:
        os.close(fd)
        if isinstance(exc, (BlockingIOError, FileNotFoundError)):
            raise DataError(f"another run appears to be writing {primary}") from None
        raise
    manifest = {"command": command, "config": None, "dataset_fingerprint": None, "seed": None,
                "started_at": _utcnow(), "outputs": [str(path) for path in paths]}
    try:
        yield manifest
        write_json({**manifest, "finished_at": _utcnow()}, _tmp(manifest_path))
        for path in (*paths, manifest_path):
            _tmp(path).replace(path)
    finally:
        for path in (*paths, manifest_path):
            _tmp(path).unlink(missing_ok=True)
        lock_path.unlink(missing_ok=True)
        os.close(fd)


def _finite_number(text: str) -> float:
    """json's hook for NaN, Infinity and -Infinity, which strict JSON does not
    allow, and for every number with a fraction or exponent, which must not
    overflow to infinity (1e400)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _load_json_file(path: str) -> dict:
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        # A key given twice would otherwise silently take its last value.
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise DataError(f"duplicate key {key!r} in config {path}")
            obj[key] = value
        return obj

    try:
        data = json.loads(read_utf8(path), object_pairs_hook=unique_keys,
                          parse_constant=_finite_number, parse_float=_finite_number)
    except JSON_ERRORS as exc:
        raise DataError(f"malformed JSON config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"config {path} must be a JSON object")
    return data


def _config_from_dict(data: dict, cls: type[T], label: str) -> T:
    """cls(**data), with data's keys and value types checked against cls's annotations:
    an int passes for a float, a bool never for a number, null only where None may,
    and no string may hold a lone surrogate. Any failure is a DataError."""
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise DataError(f"unknown {label} config key(s): {', '.join(sorted(unknown))}")
    for key, value in data.items():
        types = typing.get_args(hints[key]) or (hints[key],)
        if type(value) not in types and not (float in types and type(value) is int):
            names = " or ".join(_JSON_TYPE_NAMES[t] for t in types)
            raise DataError(f"{label} config key {key!r} must be {names}, got {json.dumps(value)}")
        if type(value) is str and (code := lone_surrogate(value)):
            raise DataError(f"lone surrogate {code} in {label} config key {key!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise DataError(f"invalid {label} config: {exc}") from exc


def _provider_config(path: str):
    from .embed import EmbeddingProviderConfig

    return _config_from_dict(_load_json_file(path), EmbeddingProviderConfig, "provider")


def _flag_type(convert: typing.Callable[[str], T], valid: typing.Callable[[T], bool],
               wanted: str) -> typing.Callable[[str], T]:
    """An argparse type: convert(text) if that succeeds and is valid, else a usage
    error saying the flag must be `wanted`."""
    def check(text: str) -> T:
        try:
            value = convert(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
    return check


_positive_int = _flag_type(int, lambda v: v >= 1, "an integer >= 1")
_non_negative_int = _flag_type(int, lambda v: v >= 0, "an integer >= 0")
_non_negative_float = _flag_type(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
# The manifest records each path flag, so UTF-8 must be able to encode it.
_path = _flag_type(str, lambda p: bool(p) and not lone_surrogate(p),
                   "a non-empty path that UTF-8 can encode")
_station_counts = _flag_type(
    lambda text: [int(part) for part in text.split(",") if part.strip()],
    lambda counts: bool(counts) and all(2 <= c <= MAX_STATIONS for c in counts),
    f"comma-separated integers from 2 to {MAX_STATIONS}",
)


def _given(args, keys: typing.Sequence[str], switch: str) -> list[str]:
    """The keys of args that were given (are not None); a usage error naming the
    first of them when the flag --switch is off."""
    given = [key for key in keys if getattr(args, key) is not None]
    if given and not getattr(args, switch):
        raise _UsageError(f"--{given[0].replace('_', '-')} needs --{switch}")
    return given


def _resolve_seed(arg_seed: int | None) -> int:
    import random

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


def _stats_line(label: str, stats) -> str:
    """One printed line of accuracy stats, naming errored answers when there are any."""
    return (f"{label}: {stats.correct}/{stats.count} = {stats.accuracy_percent:.2f}%"
            + (f" ({stats.errored} errored)" if stats.errored else ""))


def cmd_ingest(args) -> int:
    from . import corpus

    if not 0 <= args.overlap < args.chunk_size:
        raise _UsageError(f"--overlap must be >= 0 and < --chunk-size {args.chunk_size}, "
                          f"got {args.overlap}")
    input_dir = Path(args.input)
    txt_files = sorted(input_dir.glob("*.txt")) if input_dir.is_dir() else []
    out = Path(args.out)
    with _run("ingest", (out,), inputs=txt_files) as run:
        if not txt_files:
            raise DataError(f"no .txt documents found in {input_dir}")
        run["config"] = {"input": str(input_dir), "chunk_size": args.chunk_size,
                         "overlap": args.overlap}
        bank = corpus.Corpus()
        for path in txt_files:
            bank.ingest(path.name, read_utf8(path))
        token_counts = bank.write_jsonl(_tmp(out), args.chunk_size, args.overlap)
    print(
        f"ingested {len(bank.documents)} documents -> {len(token_counts)} chunks, "
        + _seq_stats(token_counts)
    )
    print(f"corpus written to {out}")
    return 0


def cmd_embed(args) -> int:
    from . import corpus, embed, vstore

    out = Path(args.out)
    with _run("embed", (out,), inputs=(args.corpus, args.provider_config)) as run:
        chunk_file = corpus.ChunkFile(args.corpus)
        provider = _provider_config(args.provider_config)
        if out.exists() and not args.force:
            _, _, _, existing_fp = vstore.VectorStore.read_header(out)
            if existing_fp != provider.fingerprint:
                raise FingerprintMismatchError(
                    f"{out} was built with provider {existing_fp!r}; refusing to replace it "
                    f"with {provider.fingerprint!r} (use --force to override)"
                )
        run["config"] = {"corpus": args.corpus, "provider_fingerprint": provider.fingerprint}
        store = vstore.VectorStore(dims=provider.dims, provider_fingerprint=provider.fingerprint)
        ids, rows = embed.embed_chunk_file(provider, chunk_file)
        store.insert_many(ids, rows)
        store.bind_corpus(chunk_file.sha256, dict(zip(ids, chunk_file.offsets)))
        store.save(_tmp(out))
    print(f"embedded {len(store)} chunks -> {out} (provider {provider.fingerprint})")
    return 0


def cmd_eval(args) -> int:
    from . import evalharness, rag

    given = _given(args, ("corpus", "provider_config", *_RAG_TUNING), "rag")
    if args.rag and not args.corpus:
        raise _UsageError("--rag needs --corpus for the chunk texts")
    report_path = Path(args.report)
    audit_path = args.audit or f"{report_path}.audit.jsonl"
    with _run("eval", (report_path, audit_path, args.csv), inputs=(
            args.dataset, args.model_config, args.rag, args.corpus, args.provider_config)) as run:
        items = evalharness.load_dataset(args.dataset)
        model_cfg = _config_from_dict(_load_json_file(args.model_config), ModelConfig, "model")
        backend = build_backend(model_cfg)
        # Every setting that shapes a RAG answer; all None on plain eval.
        contexts, settings = None, dict.fromkeys(rag.SETTINGS)
        if args.rag:
            cfg = rag.RagConfig(**{key: getattr(args, key) for key in _RAG_TUNING if key in given})
            provider = _provider_config(args.provider_config) if args.provider_config else None
            queries = [rag.build_query(item, cfg.query_mode) for item in items]
            contexts, settings = rag.retrieve_contexts(args.rag, args.corpus, provider, queries,
                                                       cfg)
        run["config"] = {"dataset": args.dataset, "model_config": args.model_config,
                         "rag": args.rag, "strict_parse": args.strict_parse, **settings}
        # Threads only help a model that waits on the network; a local one would
        # only contend for the GIL.
        width = args.concurrency if model_cfg.kind == "http" else 1
        results = rag.run_evaluation(backend, items, contexts, concurrency=width,
                                     strict_parse=args.strict_parse)
        run_meta = {"model": model_cfg.summary(), "rag_enabled": bool(args.rag), **settings}
        report = evalharness.score(items, [r.answer for r in results], run_meta=run_meta)
        run["dataset_fingerprint"] = report.dataset_fingerprint
        evalharness.write_report_json(report, _tmp(report_path))
        rag.write_audit_log(results, _tmp(audit_path))
        if args.csv:
            _tmp(args.csv).write_text(evalharness.report_csv(report), encoding="utf-8")
    for cat, stats in report.categories.items():
        print(_stats_line(cat, stats))
    print(_stats_line("Overall", report.overall))
    print(f"report written to {report_path}")
    return 0


def cmd_usecase_energy(args) -> int:
    from . import energymodel, evalharness

    _given(args, ("n_bs", "noise_sd", "seed"), "synthetic")
    kinds = list(energymodel.MODEL_KINDS) if args.model == "both" else [args.model]
    out = Path(args.out)
    with _run("usecase-energy", (out, args.plot_csv), inputs=(args.data,)) as run:
        if args.data:
            records = energymodel.read_records_csv(args.data)
            source = {"data": args.data}
        else:
            seed = run["seed"] = _resolve_seed(args.seed)
            n_bs = 90 if args.n_bs is None else args.n_bs
            noise_sd = 0.02 if args.noise_sd is None else args.noise_sd
            records = energymodel.generate_synthetic(n_bs, noise_sd=noise_sd, seed=seed)
            source = {"synthetic": {"n_bs": n_bs, "noise_sd": noise_sd}}
        run["config"] = {"source": source, "models": kinds}
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
        evalharness.write_json(fitted[0] if len(fitted) == 1 else {"models": fitted}, _tmp(out))
        if args.plot_csv:
            energymodel.write_plot_csv(records, models, _tmp(args.plot_csv))
    for m in models:
        print(f"{m.kind}: mape={m.mape_percent:.3f}% params={m.params}")
    print(f"fit written to {out}")
    return 0


def cmd_usecase_assoc(args) -> int:
    from . import userassoc

    out = Path(args.out)
    with _run("usecase-assoc", (out, args.problems_out), inputs=(args.model_config,)) as run:
        data = _load_json_file(args.model_config)
        mock = data.get("kind") in userassoc.MOCK_KINDS
        model_cfg = _config_from_dict(data, userassoc.MockConfig if mock else ModelConfig, "model")
        backend = model_cfg.backend() if mock else build_backend(model_cfg)
        seed = run["seed"] = _resolve_seed(args.seed)
        counts = args.bs_counts
        run["config"] = {"bs_counts": counts, "trials": args.trials, "model": model_cfg.summary()}
        curve = userassoc.run_curve(backend, counts, trials_per_n=args.trials, seed=seed)
        _tmp(out).write_text(userassoc.curve_csv(curve), encoding="utf-8")
        if args.problems_out:
            userassoc.export_problems_jsonl(counts, args.trials, seed, _tmp(args.problems_out))
    for n, stats in curve:
        print(_stats_line(f"n={n}", stats))
    print(f"curve written to {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="telerag", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="chunk .txt documents into a corpus JSONL")
    p.set_defaults(run=cmd_ingest)
    p.add_argument("--input", type=_path, required=True, help="directory of .txt files")
    p.add_argument("--out", type=_path, required=True, help="output corpus JSONL path")
    p.add_argument("--chunk-size", type=_positive_int, default=DEFAULT_CHUNK_SIZE)
    p.add_argument("--overlap", type=int, default=0)

    p = sub.add_parser("embed", help="embed a corpus into a vector store")
    p.set_defaults(run=cmd_embed)
    p.add_argument("--corpus", type=_path, required=True)
    p.add_argument("--provider-config", type=_path, required=True,
                   help="embedding provider JSON config")
    p.add_argument("--out", type=_path, required=True, help="output store path")
    p.add_argument("--force", action="store_true", help="replace a store built by another provider")

    p = sub.add_parser("eval", help="run the MCQ benchmark")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--dataset", type=_path, required=True)
    p.add_argument("--model-config", type=_path, required=True, help="model backend JSON config")
    p.add_argument("--rag", type=_path, default=None, help="vector store path; enables retrieval")
    p.add_argument("--corpus", type=_path, default=None, help="corpus JSONL (required with --rag)")
    p.add_argument("--provider-config", type=_path, default=None,
                   help="embedding provider JSON config")
    p.add_argument("--k", type=_positive_int, default=None)
    p.add_argument("--max-context-tokens", type=_positive_int, default=None)
    p.add_argument("--query-mode", choices=QUERY_MODES, default=None)
    p.add_argument("--report", type=_path, required=True, help="output report JSON path")
    p.add_argument("--csv", type=_path, default=None, help="output per-category CSV path")
    p.add_argument("--audit", type=_path, default=None,
                   help="audit JSONL path (default: <report>.audit.jsonl)")
    p.add_argument("--concurrency", type=_positive_int, default=4,
                   help="calls in flight to an http model")
    p.add_argument("--strict-parse", action="store_true",
                   help="only accept answers that start with the option number")

    p = sub.add_parser("usecase-energy", help="fit the energy formulas")
    p.set_defaults(run=cmd_usecase_energy)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", type=_path, default=None, help="CSV with columns bs_id,L,MTX,DSS,E")
    src.add_argument("--synthetic", action="store_true", help="generate seeded synthetic records")
    p.add_argument("--n-bs", type=_positive_int, default=None,
                   help="synthetic stations (default 90)")
    p.add_argument("--noise-sd", type=_non_negative_float, default=None,
                   help="synthetic noise standard deviation (default 0.02)")
    p.add_argument("--seed", type=_non_negative_int, default=None, help="synthetic fleet seed")
    p.add_argument("--model", choices=["eq1", "eq2", "both"], default="both")
    p.add_argument("--out", type=_path, required=True, help="output fit JSON path")
    p.add_argument("--plot-csv", type=_path, default=None, help="load/truth/prediction CSV path")

    p = sub.add_parser("usecase-assoc", help="association accuracy curve")
    p.set_defaults(run=cmd_usecase_assoc)
    p.add_argument("--bs-counts", type=_station_counts, default="2,4,6,8,10")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--model-config", type=_path, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=_path, required=True, help="output curve CSV path")
    p.add_argument("--problems-out", type=_path, default=None,
                   help="export the problem set as JSONL")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except KeyboardInterrupt:  # Ctrl-C, or SIGTERM under entry()
        print("interrupted", file=sys.stderr)
        return 130
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ProviderError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TeleragError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a synthetic fleet too large to allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


def entry() -> None:
    # SIGTERM stops a run the way Ctrl-C does, so _run's clean-up removes its .tmp files and lock.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())


if __name__ == "__main__":
    entry()
