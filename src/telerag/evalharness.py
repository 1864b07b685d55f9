"""MCQ benchmark harness: dataset loading, prompting, answer parsing, scoring.

Datasets follow the TeleQnA layout (entries with "question", "option 1"…
"option 5", "answer" and "category") or a normalized JSONL schema; any other
key, such as TeleQnA's "explanation", is ignored. Both probes ask and grade
through ask_and_grade into one record, ModelAnswer. score takes one record per
item, in item order, and reports accuracy per category and overall. tally,
which gives the association curve's stats too, counts the records' verdicts
and errored ones also on their own; stats_csv writes both probes' stats.
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
from typing import Callable, Hashable, Iterable, Literal, Sequence

from .errors import JSON_ERRORS, DataError, lone_surrogate, read_utf8
from .modelclient import ModelBackend, ask

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
    if raw in CATEGORIES:
        return raw
    key = re.sub(r"[^a-z]", "", raw.lower())
    if key not in _CATEGORY_ALIASES:
        raise DataError(f"unknown category: {raw!r}")
    return _CATEGORY_ALIASES[key]


class InvalidItemError(DataError):
    """An McqItem breaks the item rules; .rules lists them without naming the item."""

    def __init__(self, item_id: str, rules: str) -> None:
        super().__init__(f"invalid item {item_id!r}: {rules}")
        self.rules = rules


@dataclass(frozen=True)
class McqItem:
    """One multiple-choice question with a single correct option.

    Construction is the one place the item rules are checked: a canonical
    category, a question that is not blank, 2-5 distinct options,
    correct_index among them and no lone surrogate in any text.
    """

    item_id: str
    category: str
    question: str
    options: tuple[str, ...]
    correct_index: int

    def __post_init__(self) -> None:
        n = len(self.options)
        problems = []
        if self.category not in CATEGORIES:
            problems.append(f"unknown category {self.category!r}")
        if not self.question.strip():
            problems.append("blank question")
        if not (2 <= n <= 5):
            problems.append(f"expected 2-5 options, got {n}")
        if len(set(self.options)) != n:
            problems.append("duplicate options")
        if not (1 <= self.correct_index <= n):
            problems.append(f"correct_index {self.correct_index} out of range")
        # All the texts are scanned at once; one at a time only to name those that fail.
        if lone_surrogate("".join((self.item_id, self.question, *self.options))):
            named = [("item_id", self.item_id), ("question", self.question),
                     *((f"option {i}", o) for i, o in enumerate(self.options, start=1))]
            problems += [f"lone surrogate {code} in {name}"
                         for name, text in named if (code := lone_surrogate(text))]
        if problems:
            raise InvalidItemError(self.item_id, "; ".join(problems))


@dataclass(frozen=True)
class ModelAnswer:
    """The graded reply to one MCQ item or association problem; errored marks
    backend failures, and correct is the verdict."""

    item_id: str
    raw_text: str
    parsed_index: int | None
    parse_status: ParseStatus
    errored: bool = False
    correct: bool = False


def ask_and_grade(backend: ModelBackend, prompts: Sequence[str], ids: Sequence[str],
                  grade: Callable[[int, str], ModelAnswer],
                  concurrency: int) -> list[ModelAnswer]:
    """grade(i, text) of the reply to each prompts[i], asked through
    modelclient.ask with width concurrency. A failed completion is never graded:
    its record (id ids[i]) is errored and wrong, with no text, so its audit line
    has no context and a token estimate of 0."""
    completions = ask(backend, prompts, concurrency)
    return [ModelAnswer(ids[i], "", None, "unparsed", errored=True) if c is None
            else grade(i, c.text) for i, c in enumerate(completions)]


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
    """SHA-256 of one JSON array of the items' fields, keys sorted, in item_id order."""
    canonical = [vars(it) for it in sorted(items, key=lambda it: it.item_id)]
    blob = json.dumps(canonical, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_ANSWER_KEY_RE = re.compile(r"^\s*option\s+(\d+)\s*(?::\s*(.*))?$", re.IGNORECASE | re.DOTALL)
_OPTION_KEY_RE = re.compile(r"option [1-9]\d*")


def _squash(text: str) -> str:
    return " ".join(text.split()).casefold()


def _resolve_answer(answer: str, options: Sequence[str]) -> int:
    """Map a TeleQnA answer string ("option k: text" or bare text) to a 1-based index."""
    match = _ANSWER_KEY_RE.match(answer)
    if match:
        idx = _in_range(match, len(options))
        if idx is None:
            key = match.group(1)
            shown = key if len(key) <= 9 else key[:9] + "…"
            raise DataError(f"answer names option {shown}, item has {len(options)} options")
        trailing, option = (match.group(2) or "").strip(), options[idx - 1]
        if trailing not in ("", option) and _squash(trailing) != _squash(option):
            raise DataError(f"answer text does not match option {idx}")
        return idx
    matches = [i for i, opt in enumerate(options, start=1) if _squash(opt) == _squash(answer)]
    if len(matches) != 1:
        raise DataError(f"answer {answer!r} does not uniquely match an option")
    return matches[0]


_TEXT = ((str,), "a string")  # (the JSON types a field may have, how a message names them)


def _field(entry: dict, key: str, expect: tuple[tuple[type, ...], str] = _TEXT) -> object:
    """entry[key] if its type is one that expect allows; an absent key reads as null."""
    types, described = expect
    value = entry.get(key)
    if type(value) not in types:
        raise DataError(f"{key!r} must be {described}" if key in entry else f"missing {key!r}")
    return value


_ITEM_ID = ((str, int), "a string or an integer")
_ENTRY_TEXTS = ("question", "answer", "category")
# The keys of a TeleQnA entry besides its options; an entry with any other key is
# searched for an option key out of sequence.
_ENTRY_KEYS = frozenset((*_ENTRY_TEXTS, "explanation"))


def _item_from_raw_entry(item_id: str, entry: object) -> McqItem:
    """Map a TeleQnA entry onto an McqItem: options are "option 1", "option 2", … without gaps."""
    if not isinstance(entry, dict):
        raise DataError("entry is not an object")
    keys = []
    while (key := f"option {len(keys) + 1}") in entry:
        keys.append(key)
    if len(entry) > len(keys) + len(_ENTRY_KEYS & entry.keys()):
        stray = next((k for k in entry if k not in keys and _OPTION_KEY_RE.fullmatch(k)), None)
        if stray is not None:
            raise DataError(f"non-contiguous option keys (gap before {stray!r})")
    fields = (*_ENTRY_TEXTS, *keys)
    texts = list(map(entry.get, fields))
    if set(map(type, texts)) != {str}:
        for key in fields:  # raises for the first that is not a string
            _field(entry, key)
    question, answer, category = texts[:3]
    options = tuple(texts[3:])
    return McqItem(item_id, normalize_category(category), question, options,
                   _resolve_answer(answer, options))


def _item_from_normalized(line: str) -> McqItem:
    """Map one normalized JSONL line onto an McqItem."""
    try:
        rec = json.loads(line)
    except JSON_ERRORS as exc:
        raise DataError(str(exc)) from None
    if not isinstance(rec, dict):
        raise DataError("entry is not an object")
    item_id = str(_field(rec, "item_id", _ITEM_ID))
    options = _field(rec, "options", ((list,), "a JSON array of strings"))
    correct_index = _field(rec, "correct_index", ((int,), "an integer"))
    category, question = _field(rec, "category"), _field(rec, "question")
    if not all(type(o) is str for o in options):
        raise DataError("'options' must be a JSON array of strings")
    return McqItem(item_id, normalize_category(category), question, tuple(options),
                   correct_index)


def load_dataset(path: str | Path) -> list[McqItem]:
    """Load MCQ items from a .json (TeleQnA layout) or .jsonl (normalized) file.

    All invalid entries are collected and reported together, each named once
    by item id or line number, so a bad file fails loudly with actionable
    diagnostics. A file without items raises DataError too.
    """
    path = Path(path)
    items: list[McqItem] = []
    failures: list[str] = []
    if path.suffix == ".jsonl":
        # Lines split as a text-mode file splits them, at \n, \r\n and \r.
        for lineno, line in enumerate(io.StringIO(read_utf8(path), newline=None), start=1):
            if not line.strip():
                continue
            try:
                items.append(_item_from_normalized(line))
            except DataError as exc:
                failures.append(f"line {lineno}: {getattr(exc, 'rules', exc)}")
    else:
        try:
            raw = json.loads(read_utf8(path))
        except JSON_ERRORS as exc:
            raise DataError(f"malformed JSON in {path}: {exc}") from exc
        if isinstance(raw, dict):
            entries = raw.items()
        elif isinstance(raw, list):
            entries = ((f"q{i}", e) for i, e in enumerate(raw))
        else:
            raise DataError(f"dataset root must be an object or array, got {type(raw).__name__}")
        for item_id, entry in entries:
            try:
                if isinstance(raw, list) and isinstance(entry, dict) and "id" in entry:
                    item_id = str(_field(entry, "id", _ITEM_ID))
                items.append(_item_from_raw_entry(item_id, entry))
            except DataError as exc:
                failures.append(f"item {item_id!r}: {getattr(exc, 'rules', exc)}")
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
    if not items:
        raise DataError(f"no items in {path}")
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


_LEAD_RE = re.compile(r"\A\s*(\d+)")
_INT_RE = re.compile(r"(\d+)")


def _in_range(match: re.Match | None, n: int) -> int | None:
    """Group 1 of match if it is an integer from 1 to n, else None."""
    if match is None:
        return None
    try:
        idx = int(match.group(1))
    except ValueError:  # a digit run past int()'s length limit names nothing
        return None
    return idx if 1 <= idx <= n else None


def first_in_range(pattern: re.Pattern, text: str, n: int) -> int | None:
    """Group 1 of the first match of pattern in text that is an integer from 1 to n."""
    for match in pattern.finditer(text):
        if (idx := _in_range(match, n)) is not None:
            return idx
    return None


def parse_answer_for_item(raw: str, item: McqItem, strict: bool = False) -> ModelAnswer:
    """Extract the selected option number from a model reply to item.

    Cascade: (1) leading integer, (2) first in-range integer in the first
    line, (3) unique case-insensitive containment of one option's text.
    strict=True applies rule 1 only.
    """
    n_options = len(item.options)

    def answer(idx: int | None, status: ParseStatus) -> ModelAnswer:
        return ModelAnswer(item.item_id, raw, idx, status, correct=idx == item.correct_index)

    lead = _in_range(_LEAD_RE.match(raw), n_options)
    if lead is not None:
        return answer(lead, "leading_number")
    if strict:
        return answer(None, "unparsed")
    lines = raw.strip().splitlines()
    embedded = first_in_range(_INT_RE, lines[0] if lines else "", n_options)
    if embedded is not None:
        return answer(embedded, "embedded_number")
    lowered = raw.casefold()
    contained = [
        i
        for i, opt in enumerate(item.options, start=1)
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


def tally(outcomes: Iterable[tuple[Hashable, bool, bool]]) -> dict[Hashable, CategoryStats]:
    """CategoryStats per group over (group, correct, errored) outcomes, as
    ModelAnswer gives them (never both), groups in first-seen order."""
    counts: dict[Hashable, list[int]] = {}
    for group, correct, errored in outcomes:
        c = counts.setdefault(group, [0, 0, 0])
        c[0] += 1
        c[1] += correct
        c[2] += errored
    return {group: _stats(*c) for group, c in counts.items()}


def _stats(count: int, correct: int, errored: int) -> CategoryStats:
    return CategoryStats(count, correct, errored,
                         round_percent(100.0 * correct / count) if count else 0.0)


def score(
    items: Sequence[McqItem],
    answers: Sequence[ModelAnswer],
    run_meta: dict | None = None,
) -> EvalReport:
    """Tally the answers' verdicts per category of their items.

    answers holds one record per item, in item order, as run_evaluation grades
    them; any other list is a DataError. Categories come from tally, in
    CATEGORIES order, and overall is their sum.
    """
    if len(answers) != len(items) or any(a.item_id != it.item_id for it, a in zip(items, answers)):
        raise DataError(f"{len(answers)} answers for {len(items)} items: "
                        "score needs one answer per item, in item order")
    by_category = tally((it.category, ans.correct, ans.errored) for it, ans in zip(items, answers))
    categories = {cat: by_category[cat] for cat in CATEGORIES if cat in by_category}
    totals = [sum(getattr(s, key) for s in categories.values())
              for key in ("count", "correct", "errored")]
    return EvalReport(
        categories=categories,
        overall=_stats(*totals),
        dataset_fingerprint=dataset_fingerprint(items),
        run=dict(run_meta or {}),
    )


def write_report_json(report: EvalReport, path: str | Path) -> None:
    write_json(dataclasses.asdict(report), path)


def write_json(obj: object, path: str | Path) -> None:
    """obj as UTF-8 JSON with sorted keys, two-space indents and a final LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(obj, f, ensure_ascii=False, sort_keys=True, indent=2)
        f.write("\n")


def csv_text(header: Sequence[object], rows: Iterable[Sequence[object]]) -> str:
    """CSV text with LF line endings: the header row, then rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def stats_csv(names: Sequence[str], rows: Iterable[tuple[object, CategoryStats]]) -> str:
    """CSV of (group, stats) rows under the header names: the group, count,
    correct, errored and the accuracy to 2 decimals."""
    return csv_text(names, ([group, s.count, s.correct, s.errored, f"{s.accuracy_percent:.2f}"]
                            for group, s in rows))


def report_csv(report: EvalReport) -> str:
    """Per-category CSV (category,count,correct,errored,accuracy) plus an Overall row."""
    return stats_csv(["category", "count", "correct", "errored", "accuracy"],
                     [*report.categories.items(), ("Overall", report.overall)])
