"""MCQ benchmark harness: dataset loading, prompting, answer parsing, scoring.

Datasets follow the TeleQnA layout (entries with "question", "option 1"…
"option 5", "answer", "category", "explanation") or a normalized JSONL
schema. Accuracy is reported per category and overall, with unparsed and
errored answers counted against accuracy but tallied separately.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Literal, Sequence

from .errors import DataError

CATEGORIES = (
    "Lexicon",
    "Research overview",
    "Research publications",
    "Standards overview",
    "Standards specifications",
)

_CATEGORY_ALIASES = {
    "lexicon": "Lexicon",
    "researchoverview": "Research overview",
    "researchpublications": "Research publications",
    "standardsoverview": "Standards overview",
    "standardoverview": "Standards overview",
    "standardsspecifications": "Standards specifications",
    "standardspecifications": "Standards specifications",
}

MCQ_INSTRUCTION = (
    "Instruct: Answer the following question. Your answer must start with the "
    "number of the correct answer followed by the text of the answer."
)

ParseStatus = Literal["leading_number", "embedded_number", "text_match", "unparsed"]


def normalize_category(raw: str) -> str:
    """Map category spellings (case, spaces, singular/plural) to canonical names."""
    key = re.sub(r"[^a-z]", "", raw.lower())
    if key not in _CATEGORY_ALIASES:
        raise DataError(f"unknown category: {raw!r}")
    return _CATEGORY_ALIASES[key]


@dataclass(frozen=True)
class McqItem:
    """One multiple-choice question with a single correct option."""

    item_id: str
    category: str
    question: str
    options: tuple[str, ...]
    correct_index: int
    explanation: str | None = None

    def __post_init__(self) -> None:
        problems = validate_item_fields(
            self.category, self.options, self.correct_index
        )
        if problems:
            raise DataError(f"invalid item {self.item_id!r}: " + "; ".join(problems))


def validate_item_fields(
    category: str, options: Sequence[str], correct_index: int
) -> list[str]:
    """Return a list of invariant violations (empty if the fields are valid)."""
    problems = []
    if category not in CATEGORIES:
        problems.append(f"unknown category {category!r}")
    if not (2 <= len(options) <= 5):
        problems.append(f"expected 2-5 options, got {len(options)}")
    if len(set(options)) != len(options):
        problems.append("duplicate options")
    if not (1 <= correct_index <= len(options)):
        problems.append(f"correct_index {correct_index} out of range")
    return problems


@dataclass(frozen=True)
class ModelAnswer:
    """A parsed model reply for one item; errored marks backend failures."""

    item_id: str
    raw_text: str
    parsed_index: int | None
    parse_status: ParseStatus
    errored: bool = False


@dataclass(frozen=True)
class CategoryStats:
    count: int
    correct: int
    errored: int
    accuracy_percent: float


@dataclass
class EvalReport:
    """Per-category and overall accuracy plus run metadata."""

    categories: dict[str, CategoryStats]
    overall: CategoryStats
    dataset_fingerprint: str
    run: dict = field(default_factory=dict)


def round_percent(value: float) -> float:
    """Round to 2 decimals, half-up, matching how accuracies are presented."""
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def dataset_fingerprint(items: Sequence[McqItem]) -> str:
    """SHA-256 over the canonicalized items (explanations excluded)."""
    canonical = [
        {
            "item_id": it.item_id,
            "category": it.category,
            "question": it.question,
            "options": list(it.options),
            "correct_index": it.correct_index,
        }
        for it in sorted(items, key=lambda it: it.item_id)
    ]
    blob = json.dumps(canonical, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_ANSWER_KEY_RE = re.compile(r"^\s*option\s+(\d+)\s*(?::\s*(.*))?$", re.IGNORECASE | re.DOTALL)


def _squash(text: str) -> str:
    return " ".join(text.split()).casefold()


def _resolve_answer(answer: str, options: Sequence[str]) -> int:
    """Map a TeleQnA answer string ("option k: text" or bare text) to a 1-based index."""
    match = _ANSWER_KEY_RE.match(answer)
    if match:
        idx = int(match.group(1))
        if not (1 <= idx <= len(options)):
            raise DataError(f"answer names option {idx}, item has {len(options)} options")
        trailing = (match.group(2) or "").strip()
        if trailing and _squash(trailing) != _squash(options[idx - 1]):
            raise DataError(f"answer text does not match option {idx}")
        return idx
    matches = [i for i, opt in enumerate(options, start=1) if _squash(opt) == _squash(answer)]
    if len(matches) != 1:
        raise DataError(f"answer {answer!r} does not uniquely match an option")
    return matches[0]


def _item_from_raw_entry(item_id: str, entry: dict) -> McqItem:
    if "question" not in entry:
        raise DataError("missing 'question'")
    options = []
    for i in range(1, 6):
        key = f"option {i}"
        if key in entry:
            if len(options) != i - 1:
                raise DataError(f"non-contiguous option keys (gap before {key!r})")
            options.append(str(entry[key]))
    if "answer" not in entry:
        raise DataError("missing 'answer'")
    if "category" not in entry:
        raise DataError("missing 'category'")
    category = normalize_category(str(entry["category"]))
    problems = validate_item_fields(category, options, 1)
    if problems:
        raise DataError("; ".join(problems))
    correct = _resolve_answer(str(entry["answer"]), options)
    return McqItem(
        item_id=item_id,
        category=category,
        question=str(entry["question"]),
        options=tuple(options),
        correct_index=correct,
        explanation=str(entry["explanation"]) if entry.get("explanation") else None,
    )


def _item_from_normalized(rec: dict) -> McqItem:
    for key in ("item_id", "category", "question", "options", "correct_index"):
        if key not in rec:
            raise DataError(f"missing {key!r}")
    return McqItem(
        item_id=str(rec["item_id"]),
        category=normalize_category(str(rec["category"])),
        question=str(rec["question"]),
        options=tuple(str(o) for o in rec["options"]),
        correct_index=int(rec["correct_index"]),
        explanation=rec.get("explanation"),
    )


def load_dataset(path: str | Path) -> list[McqItem]:
    """Load MCQ items from a .json (TeleQnA layout) or .jsonl (normalized) file.

    All invalid entries are collected and reported together, keyed by item id
    or line number, so a bad file fails loudly with actionable diagnostics.
    """
    path = Path(path)
    items: list[McqItem] = []
    failures: list[str] = []
    if path.suffix == ".jsonl":
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    items.append(_item_from_normalized(json.loads(line)))
                except (DataError, ValueError, TypeError) as exc:
                    failures.append(f"line {lineno}: {exc}")
    else:
        with open(path, "r", encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except ValueError as exc:
                raise DataError(f"malformed JSON in {path}: {exc}") from exc
        if isinstance(raw, dict):
            entries = list(raw.items())
        elif isinstance(raw, list):
            entries = [
                (str(e.get("id", f"q{i}")) if isinstance(e, dict) else f"q{i}", e)
                for i, e in enumerate(raw)
            ]
        else:
            raise DataError(f"dataset root must be an object or array, got {type(raw).__name__}")
        for item_id, entry in entries:
            try:
                if not isinstance(entry, dict):
                    raise DataError("entry is not an object")
                items.append(_item_from_raw_entry(item_id, entry))
            except DataError as exc:
                failures.append(f"item {item_id!r}: {exc}")
    if len(failures) == 1:
        raise DataError(f"invalid entry in {path}: {failures[0]}")
    if failures:
        shown = "\n  ".join(failures[:20])
        more = f"\n  … and {len(failures) - 20} more" if len(failures) > 20 else ""
        raise DataError(f"{len(failures)} invalid entries in {path}:\n  {shown}{more}")
    seen: set[str] = set()
    for it in items:
        if it.item_id in seen:
            raise DataError(f"duplicate item_id {it.item_id!r} in {path}")
        seen.add(it.item_id)
    return items


def render_prompt(item: McqItem) -> str:
    """Instantiate the MCQ prompt template for one item.

    Options are trimmed of trailing whitespace and listed one per line as
    "<i>. <text>"; the prompt ends with the bare "Output:" cue.
    """
    lines = [MCQ_INSTRUCTION, item.question]
    for i, option in enumerate(item.options, start=1):
        lines.append(f"{i}. {option.rstrip()}")
    lines.append("Output:")
    return "\n".join(lines)


_INT_RE = re.compile(r"\d+")


def parse_answer(raw: str, n_options: int, strict: bool = False) -> ModelAnswer:
    """Extract the selected option number from a model reply.

    Cascade: (1) leading integer, (2) first in-range integer in the first
    line, (3) unique case-insensitive containment of one option's text.
    strict=True applies rule 1 only. Use parse_answer_for_item to enable
    rule 3, which needs the option texts.
    """
    return _parse(raw, n_options, options=None, strict=strict, item_id="")


def parse_answer_for_item(raw: str, item: McqItem, strict: bool = False) -> ModelAnswer:
    """parse_answer with the item's option texts available for rule 3."""
    return _parse(raw, len(item.options), options=item.options, strict=strict, item_id=item.item_id)


def _parse(
    raw: str,
    n_options: int,
    options: Sequence[str] | None,
    strict: bool,
    item_id: str,
) -> ModelAnswer:
    if n_options < 2:
        raise ValueError("n_options must be >= 2")

    def answer(idx: int | None, status: ParseStatus) -> ModelAnswer:
        return ModelAnswer(item_id=item_id, raw_text=raw, parsed_index=idx, parse_status=status)

    lead = re.match(r"\s*(\d+)", raw)
    if lead and 1 <= int(lead.group(1)) <= n_options:
        return answer(int(lead.group(1)), "leading_number")
    if strict:
        return answer(None, "unparsed")
    lines = raw.strip().splitlines()
    first_line = lines[0] if lines else ""
    for match in _INT_RE.finditer(first_line):
        idx = int(match.group(0))
        if 1 <= idx <= n_options:
            return answer(idx, "embedded_number")
    if options is not None:
        lowered = raw.casefold()
        contained = [
            i
            for i, opt in enumerate(options, start=1)
            if opt.strip() and opt.strip().casefold() in lowered
        ]
        if len(contained) == 1:
            return answer(contained[0], "text_match")
    return answer(None, "unparsed")


def weighted_overall_accuracy(
    counts: Sequence[int], accuracies_percent: Sequence[float]
) -> float:
    """Count-weighted mean of per-category accuracies, rounded half-up to 2 decimals."""
    if len(counts) != len(accuracies_percent) or not counts:
        raise ValueError("counts and accuracies must be non-empty and equal length")
    total = sum(counts)
    weighted = sum(c * a for c, a in zip(counts, accuracies_percent))
    return round_percent(weighted / total)


def score(
    items: Sequence[McqItem],
    answers: Iterable[ModelAnswer],
    run_meta: dict | None = None,
) -> EvalReport:
    """Score answers against items; unparsed and errored count as incorrect."""
    by_item: dict[str, McqItem] = {}
    for it in items:
        by_item[it.item_id] = it
    seen: dict[str, ModelAnswer] = {}
    for ans in answers:
        if ans.item_id not in by_item:
            raise DataError(f"answer references unknown item_id {ans.item_id!r}")
        if ans.item_id in seen:
            raise DataError(f"duplicate answer for item_id {ans.item_id!r}")
        seen[ans.item_id] = ans
    missing = [it.item_id for it in items if it.item_id not in seen]
    if missing:
        raise DataError(f"{len(missing)} items without answers (first: {missing[0]!r})")

    tallies: dict[str, list[int]] = {}
    for it in items:
        tally = tallies.setdefault(it.category, [0, 0, 0])
        ans = seen[it.item_id]
        tally[0] += 1
        if ans.errored:
            tally[2] += 1
        elif ans.parsed_index == it.correct_index:
            tally[1] += 1

    categories: dict[str, CategoryStats] = {}
    for cat in CATEGORIES:
        if cat not in tallies:
            continue
        count, correct, errored = tallies[cat]
        categories[cat] = CategoryStats(
            count=count,
            correct=correct,
            errored=errored,
            accuracy_percent=round_percent(100.0 * correct / count),
        )
    total = sum(s.count for s in categories.values())
    total_correct = sum(s.correct for s in categories.values())
    total_errored = sum(s.errored for s in categories.values())
    overall = CategoryStats(
        count=total,
        correct=total_correct,
        errored=total_errored,
        accuracy_percent=round_percent(100.0 * total_correct / total) if total else 0.0,
    )
    return EvalReport(
        categories=categories,
        overall=overall,
        dataset_fingerprint=dataset_fingerprint(items),
        run=dict(run_meta or {}),
    )


def report_from_dict(data: dict) -> EvalReport:
    def stats(d: dict) -> CategoryStats:
        return CategoryStats(
            count=d["count"],
            correct=d["correct"],
            errored=d.get("errored", 0),
            accuracy_percent=d["accuracy_percent"],
        )

    return EvalReport(
        categories={cat: stats(d) for cat, d in data["categories"].items()},
        overall=stats(data["overall"]),
        dataset_fingerprint=data["dataset_fingerprint"],
        run=data.get("run", {}),
    )


def write_report_json(report: EvalReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(dataclasses.asdict(report), f, ensure_ascii=False, sort_keys=True, indent=2)
        f.write("\n")


def read_report_json(path: str | Path) -> EvalReport:
    with open(path, "r", encoding="utf-8") as f:
        return report_from_dict(json.load(f))


def csv_text(header: Sequence[object], rows: Iterable[Sequence[object]]) -> str:
    """CSV text with LF line endings: the header row, then rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def report_csv(report: EvalReport) -> str:
    """Per-category CSV (category,count,correct,errored,accuracy) plus an Overall row."""
    stats = [(cat, report.categories[cat]) for cat in CATEGORIES if cat in report.categories]
    stats.append(("Overall", report.overall))
    return csv_text(
        ["category", "count", "correct", "errored", "accuracy"],
        ([cat, s.count, s.correct, s.errored, f"{s.accuracy_percent:.2f}"] for cat, s in stats),
    )


def compare_runs(report_a: EvalReport, report_b: EvalReport) -> list[dict]:
    """Per-category and overall accuracy deltas (b - a) for two runs on one dataset."""
    if report_a.dataset_fingerprint != report_b.dataset_fingerprint:
        raise DataError("reports were produced from different datasets")
    rows: list[dict] = []
    for cat in CATEGORIES:
        if cat in report_a.categories and cat in report_b.categories:
            a = report_a.categories[cat].accuracy_percent
            b = report_b.categories[cat].accuracy_percent
            rows.append(
                {"category": cat, "accuracy_a": a, "accuracy_b": b, "delta": round_percent(b - a)}
            )
    a = report_a.overall.accuracy_percent
    b = report_b.overall.accuracy_percent
    rows.append(
        {"category": "Overall", "accuracy_a": a, "accuracy_b": b, "delta": round_percent(b - a)}
    )
    return rows


def delta_csv(rows: Sequence[dict]) -> str:
    return csv_text(
        ["category", "accuracy_a", "accuracy_b", "delta"],
        (
            [
                row["category"],
                f"{row['accuracy_a']:.2f}",
                f"{row['accuracy_b']:.2f}",
                f"{row['delta']:+.2f}",
            ]
            for row in rows
        ),
    )
