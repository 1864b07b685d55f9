"""The benchmark workloads: inputs, set-up, the timed command and its expected outputs.

Each workload writes its inputs under its own work directory, knows the
`telerag` command it times, and checks that command's outputs against
expectations it computed itself. Failed items are counted, never skipped.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import random
from pathlib import Path

import inputs
from oracle import Retrieval
from telerag.modelclient import write_transcript

HASH_PROVIDER = {"kind": "hash-test", "dims": 256, "seed": 0}
PHI2_CURVE = {2: 93, 4: 61, 6: 44, 8: 29, 10: 19}
# The program's start-up: a fresh process that imports telerag (numpy too) and
# prints the usage. It is the set-up of workloads whose timed command reads
# nothing that a telerag command builds.
START_UP = ["--help"]


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


class Workload:
    """One workload; `prepare` writes the inputs (untimed), `setup_argvs` are
    the timed set-up's telerag commands."""

    name: str
    setup_reps: int

    def __init__(self, work: Path, seed: int, concurrency: int) -> None:
        self.work, self.seed, self.concurrency = work, seed, concurrency
        self.rng = random.Random(f"{self.name}:{seed}")
        self.model_config = work / "model.json"
        self.transcript = work / "transcript.jsonl"
        _write_json(self.model_config, {"kind": "mock_script", "script_path": str(self.transcript)})

    def setup_argvs(self) -> list[list[str]]:
        return [START_UP]

    def setup_outputs(self) -> dict[str, Path]:
        """What the set-up commands build; nothing for the start-up."""
        return {}

    def preflight(self, run_cli) -> list[str]:
        """Checks made once before timing; returns the problems found."""
        return []

    def expected_status_counts(self) -> dict[str, int]:
        return {}


class EvalWorkload(Workload):
    """Shared by the two `telerag eval` workloads. `prepare` sets, per item,
    the planted pick (None when the reply is unparsable), the reply and the
    expected context as (chunk_id, score, text)."""

    items: list[inputs.Item]
    picks: list[int | None]
    replies: list[str]
    contexts: list[list[tuple[str, float, str]]]

    def __init__(self, work: Path, seed: int, concurrency: int) -> None:
        super().__init__(work, seed, concurrency)
        self.dataset = work / "dataset.json"
        self.report = work / "report.json"
        self.audit = work / "report.json.audit.jsonl"

    def _write_inputs(self) -> None:
        inputs.write_teleqna_json(self.items, self.dataset)
        write_transcript(
            [(inputs.render_prompt(it, [text for *_, text in ctx]), reply)
             for it, ctx, reply in zip(self.items, self.contexts, self.replies)],
            self.transcript,
        )

    def eval_argv(self) -> list[str]:
        return ["eval", "--dataset", str(self.dataset), "--model-config", str(self.model_config),
                "--report", str(self.report), "--concurrency", str(self.concurrency)]

    def eval_outputs(self) -> dict[str, Path]:
        return {"report": self.report, "audit": self.audit}

    @property
    def n_items(self) -> int:
        return len(self.items)

    def check(self) -> tuple[int, list[str]]:
        """(failed items, problems) for the outputs of the last timed command."""
        problems = []
        with open(self.audit, encoding="utf-8") as f:
            audit = [json.loads(line) for line in f if line.strip()]
        if len(audit) != len(self.items):
            problems.append(f"audit has {len(audit)} lines for {len(self.items)} items")
        failed_ids = {it.item_id for it in self.items[len(audit):]}
        for it, ctx, reply, line in zip(self.items, self.contexts, self.replies, audit):
            scores_ok = len(line["scores"]) == len(ctx) and all(
                abs(got - want) <= 2e-8 for got, (_, want, _) in zip(line["scores"], ctx))
            if (line["item_id"] != it.item_id or not scores_ok
                    or line["context_chunk_ids"] != [cid for cid, *_ in ctx]
                    or line["raw_model_output"] != reply):
                failed_ids.add(it.item_id)
        if failed_ids:
            problems.append(f"{len(failed_ids)} audit lines differ from the expectation, "
                            f"first {sorted(failed_ids)[0]!r}")
        expected: dict[str, list[int]] = {}
        for it, pick in zip(self.items, self.picks):
            tally = expected.setdefault(it.category, [0, 0, 0])
            tally[0] += 1
            tally[1] += pick == it.correct_index
        report = json.loads(self.report.read_text(encoding="utf-8"))
        off = 0
        for cat, want in expected.items():
            d = report["categories"].get(cat, {"count": 0, "correct": 0, "errored": 0})
            got = [d["count"], d["correct"], d["errored"]]
            off += abs(got[1] - want[1]) + got[2]
            if got != want:
                problems.append(f"{cat}: count/correct/errored {got}, want {want}")
        return min(len(self.items), max(len(failed_ids), off)), problems


class RagEval(EvalWorkload):
    """500 MCQs retrieved against a 20,000-chunk spec corpus, k=3."""

    name = "rag_eval"
    counts = {"Lexicon": 25, "Research overview": 100, "Research publications": 225,
              "Standards overview": 50, "Standards specifications": 100}
    planted_share = 0.4
    chunks_per_doc, chunk_tokens = 100, 128
    # Two full chunks fit the budget; a third fits only next to a short one.
    k, max_context_tokens = 3, 320
    setup_reps = 3

    def prepare(self) -> None:
        rng = self.rng
        per_doc = self.chunks_per_doc
        spec = inputs.write_spec_corpus(
            rng, self.work / "specs", n_docs=200, chunks_per_doc=per_doc,
            chunk_tokens=self.chunk_tokens, tail_tokens=(16, 120), n_boilerplate=100, copies=(2, 5))
        items = inputs.make_items(rng, self.counts, (10, 20))
        # Planted items ask exactly a chunk's text. A quarter of them point at one
        # copy of a repeated chunk, so whether it is in context depends on the tie
        # rule and the budget; a quarter at a short last chunk of a document, so
        # whether a third chunk fits depends on the budget.
        dup = {p for g in spec.duplicate_groups for p in g}
        short = range(per_doc - 1, len(spec.texts), per_doc)
        singles = [p for p in range(len(spec.texts)) if p not in dup and p % per_doc != per_doc - 1]
        gold: dict[int, int] = {}
        for idx in rng.sample(range(len(items)), round(self.planted_share * len(items))):
            kind = len(gold) % 4
            if kind == 0:
                gold[idx] = rng.choice(rng.choice(spec.duplicate_groups))
            elif kind == 1:
                gold[idx] = rng.choice(short)
            else:
                gold[idx] = rng.choice(singles)
            items[idx] = dataclasses.replace(items[idx], question=spec.texts[gold[idx]])
        retrieval = Retrieval(spec.chunk_ids, spec.texts, HASH_PROVIDER["dims"], HASH_PROVIDER["seed"])
        kept = retrieval.top_k([it.question for it in items], self.k, self.max_context_tokens)
        self.items = items
        self.contexts = [[(spec.chunk_ids[p], s, spec.texts[p]) for p, s in ctx] for ctx in kept]
        self.picks = [
            it.correct_index if gold.get(idx) in {p for p, _ in ctx} else inputs.wrong_pick(rng, it)
            for idx, (it, ctx) in enumerate(zip(items, kept))
        ]
        self.replies = [inputs.reply_for(it, "leading_number", pick)
                        for it, pick in zip(items, self.picks)]
        self.facts = {
            "chunks": len(spec.texts), "items": len(items), "planted": len(gold),
            "gold_in_context": sum(gold.get(i) in {p for p, _ in c} for i, c in enumerate(kept)),
            "items_with_tied_context": sum(len({s for _, s in c}) < len(c) for c in kept),
            "items_cut_by_budget": sum(len(c) < self.k for c in kept),
            "duplicate_chunks": len(dup),
        }
        self.corpus = self.work / "corpus.jsonl"
        self.store = self.work / "store.vdb"
        self.provider_config = self.work / "provider.json"
        _write_json(self.provider_config, HASH_PROVIDER)
        self._write_inputs()

    def setup_argvs(self) -> list[list[str]]:
        return [
            ["ingest", "--input", str(self.work / "specs"), "--out", str(self.corpus),
             "--chunk-size", str(self.chunk_tokens)],
            ["embed", "--corpus", str(self.corpus), "--provider-config", str(self.provider_config),
             "--out", str(self.store)],
        ]

    def setup_outputs(self) -> dict[str, Path]:
        return {"corpus": self.corpus, "store": self.store}

    def eval_argv(self) -> list[str]:
        return super().eval_argv() + [
            "--rag", str(self.store), "--corpus", str(self.corpus), "--k", str(self.k),
            "--max-context-tokens", str(self.max_context_tokens), "--query-mode", "question_only"]


class PlainEval(EvalWorkload):
    """10,000 MCQs without retrieval; replies spread over the four parse statuses."""

    name = "plain_eval"
    counts = {"Lexicon": 500, "Research overview": 2000, "Research publications": 4500,
              "Standards overview": 1000, "Standards specifications": 2000}
    status_mix = {"leading_number": 0.4, "embedded_number": 0.3, "text_match": 0.2, "unparsed": 0.1}
    correct_share = 0.7
    setup_reps = 9

    def prepare(self) -> None:
        rng = self.rng
        self.items = inputs.make_items(rng, self.counts, (8, 16))
        n = len(self.items)
        self.statuses = [s for s, share in self.status_mix.items() for _ in range(round(share * n))]
        n_right = round(self.correct_share * n)
        rights = [True] * n_right + [False] * (n - n_right)
        rng.shuffle(self.statuses)
        rng.shuffle(rights)
        picks = [it.correct_index if right else inputs.wrong_pick(rng, it)
                 for it, right in zip(self.items, rights)]
        self.replies = [inputs.reply_for(it, status, pick)
                        for it, status, pick in zip(self.items, self.statuses, picks)]
        self.picks = [None if status == "unparsed" else pick
                      for status, pick in zip(self.statuses, picks)]
        self.contexts = [[] for _ in self.items]
        self.facts = {"items": n, "parse_status_mix": self.expected_status_counts()}
        self._write_inputs()

    def expected_status_counts(self) -> dict[str, int]:
        return {s: self.statuses.count(s) for s in self.status_mix}


class AssocCurve(Workload):
    """The association probe over 2..26 stations, 1,000 problems per count."""

    name = "assoc_curve"
    counts = list(range(2, 27, 2))
    trials = 1000
    setup_reps = 9

    def __init__(self, work: Path, seed: int, concurrency: int) -> None:
        # usecase-assoc has no --concurrency flag; run_curve runs serially.
        super().__init__(work, seed, 1)
        self.curve = work / "curve.csv"

    @property
    def n_items(self) -> int:
        return len(self.counts) * self.trials

    def prepare(self) -> None:
        """Write the replay transcript and the curve it must give.

        Problems come from the program's seeded generator, as usecase-assoc
        draws them. At n=2 there are only 61*60 distinct problems, so some of
        the 1,000 repeat: each distinct prompt gets one reply, fixed where it
        first occurs, and the expected counts include the repeats.
        """
        from telerag.userassoc import derive_seed, generate_problem, render_problem_prompt

        # Per station count, the share of first-seen problems answered right.
        shares = {n: self.rng.uniform(0.1, 1.0) for n in self.counts}
        replies: dict[str, tuple[int, bool]] = {}
        self.targets = {}
        for n in self.counts:
            right = 0
            for i in range(self.trials):
                problem = generate_problem(n, derive_seed(self.seed, n, i))
                prompt = render_problem_prompt(problem)
                if prompt not in replies:
                    ranked = sorted(range(n), key=problem.signals_dbm.__getitem__)
                    good = i < shares[n] * self.trials
                    replies[prompt] = (ranked[-2 if good else -1] + 1, good)
                right += replies[prompt][1]
            self.targets[n] = right
        self.facts = {"problems": self.n_items, "targets": self.targets}
        write_transcript(
            [(prompt, f"The device should connect to base station {station}.")
             for prompt, (station, _) in replies.items()],
            self.transcript,
        )

    def eval_argv(self) -> list[str]:
        return ["usecase-assoc", "--bs-counts", ",".join(map(str, self.counts)),
                "--trials", str(self.trials), "--seed", str(self.seed),
                "--model-config", str(self.model_config), "--out", str(self.curve)]

    def eval_outputs(self) -> dict[str, Path]:
        return {"curve": self.curve}

    def check(self) -> tuple[int, list[str]]:
        return check_curve(self.curve, self.targets, self.trials)

    def preflight(self, run_cli) -> list[str]:
        """Replay the bundled Phi-2 transcript; it must give the recorded curve."""
        from telerag import userassoc

        config = self.work / "phi2_model.json"
        out = self.work / "phi2_curve.csv"
        _write_json(config, {"kind": "mock_script",
                             "script_path": str(userassoc.reference_transcript_path())})
        run_cli(["usecase-assoc", "--bs-counts", ",".join(map(str, PHI2_CURVE)), "--trials", "100",
                 "--seed", "2024", "--model-config", str(config), "--out", str(out)])
        _, problems = check_curve(out, PHI2_CURVE, 100)
        return [f"Phi-2 replay: {p}" for p in problems]


def check_curve(path: Path, targets: dict[int, int], trials: int) -> tuple[int, list[str]]:
    """(failed problems, problems found) of a curve CSV against per-n correct counts."""
    with open(path, encoding="utf-8") as f:
        rows = {int(r["n_bs"]): r for r in csv.DictReader(f)}
    failed, problems = 0, []
    for n, want in targets.items():
        row = rows.get(n)
        if row is None:
            failed += trials
            problems.append(f"n={n}: missing from the curve")
            continue
        got = (int(row["trials"]), int(row["correct"]), int(row["errored"]), row["accuracy"])
        expected = (trials, want, 0, f"{100 * want / trials:.2f}")
        failed += abs(got[1] - want) + got[2]
        if got != expected:
            problems.append(f"n={n}: trials/correct/errored/accuracy {got}, want {expected}")
    return failed, problems


WORKLOADS = {cls.name: cls for cls in (RagEval, PlainEval, AssocCurve)}
