from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telerag.errors import DataError
from telerag.evalharness import (
    CATEGORIES,
    CategoryStats,
    McqItem,
    ModelAnswer,
    dataset_fingerprint,
    load_dataset,
    normalize_category,
    parse_answer_for_item,
    render_prompt,
    report_csv,
    round_percent,
    score,
    tally,
    weighted_overall_accuracy,
)

TABLE_COUNTS = [500, 2000, 4500, 1000, 2000]
GPT35_ACCURACIES = [82.20, 68.50, 70.42, 64.00, 56.97]
PHI2_ACCURACIES = [52.60, 58.38, 54.14, 48.04, 44.27]


def make_item(i: int = 0, category: str = "Lexicon", n_options: int = 4,
              correct: int = 2) -> McqItem:
    return McqItem(
        item_id=f"q{i}",
        category=category,
        question=f"What does acronym {i} stand for?",
        options=tuple(f"meaning {i}-{j}" for j in range(n_options)),
        correct_index=correct,
    )


def answer_for(item: McqItem, index: int | None, errored: bool = False) -> ModelAnswer:
    return ModelAnswer(
        item_id=item.item_id,
        raw_text="" if index is None else str(index),
        parsed_index=index,
        parse_status="unparsed" if index is None else "leading_number",
        errored=errored,
    )


def test_normalize_category_variants():
    assert normalize_category("lexicon") == "Lexicon"
    assert normalize_category("Research Overview") == "Research overview"
    assert normalize_category("ResearchPublications") == "Research publications"
    assert normalize_category("Standard overview") == "Standards overview"
    assert normalize_category("standards_specifications") == "Standards specifications"
    with pytest.raises(DataError):
        normalize_category("vibes")


def test_item_validation():
    with pytest.raises(DataError, match="q9"):
        McqItem(item_id="q9", category="Lexicon", question="?",
                options=("a", "a"), correct_index=1)
    with pytest.raises(DataError):
        make_item(correct=9)
    with pytest.raises(DataError):
        McqItem(item_id="q1", category="Gossip", question="?",
                options=("a", "b"), correct_index=1)
    with pytest.raises(DataError):
        McqItem(item_id="q1", category="Lexicon", question="?",
                options=("a",), correct_index=1)


def test_load_teleqna_layout(tmp_path):
    data = {
        "question 0": {
            "question": "What is an SSB?",
            "option 1": "A synchronization signal block",
            "option 2": "A base station",
            "option 3": "A scheduler",
            "option 4": "A channel code",
            "answer": "option 2: A base station",
            "explanation": "see spec",
            "category": "Standards specifications",
        }
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    items = load_dataset(path)
    assert len(items) == 1
    assert items[0].item_id == "question 0"
    assert items[0].correct_index == 2
    assert items[0].category == "Standards specifications"


def test_load_rejects_bad_entries_with_ids(tmp_path):
    data = {
        "question 0": {
            "question": "dup options",
            "option 1": "same",
            "option 2": "same",
            "answer": "option 1: same",
            "category": "Lexicon",
        },
        "question 1": {
            "question": "bad answer",
            "option 1": "a",
            "option 2": "b",
            "answer": "option 7: nope",
            "category": "Lexicon",
        },
        "question 2": {
            "question": "mismatched answer text",
            "option 1": "a",
            "option 2": "b",
            "answer": "option 1: b",
            "category": "Lexicon",
        },
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    message = str(err.value)
    assert "question 0" in message and "question 1" in message and "question 2" in message


def test_load_bare_text_answer(tmp_path):
    data = {
        "question 0": {
            "question": "?",
            "option 1": "alpha",
            "option 2": "beta",
            "answer": "beta",
            "category": "Lexicon",
        }
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert load_dataset(path)[0].correct_index == 2


def test_load_normalized_jsonl(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [
        {"item_id": "a", "category": "Lexicon", "question": "?",
         "options": ["x", "y"], "correct_index": 1},
        {"item_id": "b", "category": "Research overview", "question": "??",
         "options": ["x", "y", "z"], "correct_index": 3, "explanation": "e"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    items = load_dataset(path)
    assert [it.item_id for it in items] == ["a", "b"]
    assert items[1].correct_index == 3


@pytest.mark.parametrize(
    "field, value",
    [("options", "ABCD"), ("correct_index", 1.9), ("correct_index", True)],
)
def test_load_normalized_rejects_mistyped_fields(tmp_path, field, value):
    row = {"item_id": "a", "category": "Lexicon", "question": "?",
           "options": ["A", "B", "C", "D"], "correct_index": 1}
    row[field] = value
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"line 1: '{field}' must be"):
        load_dataset(path)


@pytest.mark.parametrize(
    "suffix, field, value",
    [
        (".jsonl", "question", None),
        (".jsonl", "category", 5),
        (".json", "option 1", None),
        (".json", "question", ["Q?"]),
        (".json", "option 2", 7),
        (".json", "answer", 1),
        (".json", "category", None),
    ],
)
def test_load_rejects_non_string_text_fields(tmp_path, suffix, field, value):
    if suffix == ".jsonl":
        entry = {"item_id": "a", "category": "Lexicon", "question": "Q?",
                 "options": ["A", "B"], "correct_index": 1}
    else:
        entry = {"question": "Q?", "option 1": "A", "option 2": "B",
                 "answer": "option 1: A", "category": "Lexicon"}
    entry[field] = value
    path = tmp_path / f"d{suffix}"
    text = json.dumps(entry) + "\n" if suffix == ".jsonl" else json.dumps({"q0": entry})
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=f"'{field}' must be a string"):
        load_dataset(path)


def test_load_malformed_json(tmp_path):
    path = tmp_path / "d.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(path)


def test_load_duplicate_item_ids(tmp_path):
    path = tmp_path / "d.jsonl"
    row = {"item_id": "a", "category": "Lexicon", "question": "?",
           "options": ["x", "y"], "correct_index": 1}
    path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(path)


def test_render_prompt_template_exact():
    item = McqItem(
        item_id="q",
        category="Lexicon",
        question="What is X?",
        options=("Alpha", "Beta ", "Gamma"),
        correct_index=1,
    )
    assert render_prompt(item) == (
        "Instruct: Answer the following question. Your answer must start with "
        "the number of the correct answer followed by the text of the answer.\n"
        "What is X?\n"
        "1. Alpha\n"
        "2. Beta\n"
        "3. Gamma\n"
        "Output:"
    )
    assert render_prompt(item) == render_prompt(item)


def test_parse_answer_leading_number():
    item = make_item(n_options=4)
    ans = parse_answer_for_item("3. The SSB periodicity", item)
    assert ans.parsed_index == 3
    assert ans.parse_status == "leading_number"
    assert ans.item_id == item.item_id
    assert parse_answer_for_item("  2) yes", item).parsed_index == 2


def test_parse_answer_embedded_number():
    item = make_item(n_options=4)
    ans = parse_answer_for_item("The answer is 2", item)
    assert ans.parsed_index == 2
    assert ans.parse_status == "embedded_number"
    # Only the first line counts for embedded numbers.
    assert parse_answer_for_item("no digits here\n2", item).parsed_index is None


def test_parse_answer_out_of_range_unparsed():
    for raw in ("7", "9" * 5000):  # int() refuses a digit run over 4300 digits
        ans = parse_answer_for_item(raw, make_item(n_options=4))
        assert ans.parsed_index is None
        assert ans.parse_status == "unparsed"


def test_parse_answer_skips_out_of_range_embedded():
    ans = parse_answer_for_item("Of the 7 options, 2 is right", make_item(n_options=4))
    assert ans.parsed_index == 2


def test_parse_answer_text_match():
    item = McqItem(
        item_id="q",
        category="Lexicon",
        question="Which waveform?",
        options=("alpha waveform", "beta waveform", "gamma waveform"),
        correct_index=2,
    )
    for raw in ("The standard mandates the BETA waveform.",
                "9" * 5000 + " is the beta waveform",
                "The answer is beta waveform " + "9" * 5000):
        ans = parse_answer_for_item(raw, item)
        assert ans.parsed_index == 2
        assert ans.parse_status == "text_match"
    # Ambiguous containment stays unparsed.
    two = parse_answer_for_item("alpha waveform or beta waveform", item)
    assert two.parse_status == "unparsed"


def test_parse_answer_strict_mode():
    item = make_item(n_options=4)
    assert parse_answer_for_item("The answer is 2", item, strict=True).parsed_index is None
    assert parse_answer_for_item("2. yes", item, strict=True).parsed_index == 2
    assert parse_answer_for_item("9" * 5000, item, strict=True).parse_status == "unparsed"


def test_parse_answer_never_out_of_range_fuzz():
    rng = random.Random(77)
    alphabet = "0123456789 .):answer option\n"
    for _ in range(500):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        n = rng.randint(2, 5)
        ans = parse_answer_for_item(raw, make_item(n_options=n, correct=1))
        if ans.parsed_index is not None:
            assert 1 <= ans.parsed_index <= n
        assert (ans.parsed_index is None) == (ans.parse_status == "unparsed")


def test_round_percent_half_up():
    assert round_percent(52.325) == 52.33
    assert round_percent(67.293) == 67.29
    assert round_percent(12.360000000000003) == 12.36


def test_weighted_overall_matches_reference_columns():
    assert weighted_overall_accuracy(TABLE_COUNTS, GPT35_ACCURACIES) == 67.29
    assert weighted_overall_accuracy(TABLE_COUNTS, PHI2_ACCURACIES) == 52.33


def test_score_all_correct():
    items = [make_item(i, category=CATEGORIES[i % 5]) for i in range(10)]
    answers = [answer_for(it, it.correct_index) for it in items]
    report = score(items, answers)
    assert report.overall.accuracy_percent == 100.00
    for stats in report.categories.values():
        assert stats.accuracy_percent == 100.00


def test_score_counts_unparsed_and_errored_against_accuracy():
    items = [make_item(i) for i in range(4)]
    answers = [
        answer_for(items[0], items[0].correct_index),
        answer_for(items[1], None),
        answer_for(items[2], None, errored=True),
        answer_for(items[3], 1),  # wrong pick
    ]
    report = score(items, answers)
    assert report.overall.count == 4
    assert report.overall.correct == 1
    assert report.overall.errored == 1
    assert report.overall.accuracy_percent == 25.00


def test_score_validates_coverage():
    items = [make_item(0), make_item(1)]
    with pytest.raises(DataError):
        score(items, [answer_for(items[0], 1)])
    stray = ModelAnswer(item_id="ghost", raw_text="", parsed_index=None,
                        parse_status="unparsed")
    with pytest.raises(DataError):
        score(items, [answer_for(items[0], 1), answer_for(items[1], 1), stray])
    with pytest.raises(DataError):
        score(items, [answer_for(items[0], 1), answer_for(items[0], 1)])


def test_score_rejects_answers_out_of_item_order():
    items = [make_item(i, category=CATEGORIES[i % 5]) for i in range(25)]
    answers = [answer_for(it, (i % 4) + 1) for i, it in enumerate(items)]
    assert score(items, answers).overall.count == 25
    shuffled = list(answers)
    random.Random(5).shuffle(shuffled)
    assert shuffled != answers
    with pytest.raises(DataError, match="in item order"):
        score(items, shuffled)


def test_tally_groups_in_first_seen_order():
    stats = tally([("b", True, False), ("a", False, False), ("b", True, True),
                   ("b", False, True), ("a", True, False), ("c", False, False)])
    assert list(stats) == ["b", "a", "c"]
    assert stats["b"] == CategoryStats(count=3, correct=1, errored=2, accuracy_percent=33.33)
    assert stats["a"] == CategoryStats(count=2, correct=1, errored=0, accuracy_percent=50.0)
    assert stats["c"] == CategoryStats(count=1, correct=0, errored=0, accuracy_percent=0.0)
    assert tally([]) == {}


def test_weighted_mean_identity_on_scored_report():
    rng = random.Random(8)
    items = [make_item(i, category=CATEGORIES[rng.randrange(5)]) for i in range(200)]
    answers = [answer_for(it, rng.randint(1, 4)) for it in items]
    report = score(items, answers)
    weighted = sum(
        s.count * (100.0 * s.correct / s.count) for s in report.categories.values()
    ) / report.overall.count
    assert round_percent(weighted) == report.overall.accuracy_percent


def test_dataset_fingerprint_order_invariant():
    items = [make_item(i) for i in range(6)]
    assert dataset_fingerprint(items) == dataset_fingerprint(list(reversed(items)))
    other = [make_item(i) for i in range(5)]
    assert dataset_fingerprint(items) != dataset_fingerprint(other)


def test_report_csv_shape():
    items = [make_item(i, category="Lexicon") for i in range(4)]
    answers = [answer_for(it, it.correct_index if i < 3 else 1)
               for i, it in enumerate(items)]
    text = report_csv(score(items, answers))
    lines = text.strip().split("\n")
    assert lines[0] == "category,count,correct,errored,accuracy"
    assert lines[1] == "Lexicon,4,3,0,75.00"
    assert lines[2] == "Overall,4,3,0,75.00"
    items.append(make_item(4, category="Research overview"))
    answers.append(answer_for(items[4], items[4].correct_index, errored=True))
    assert report_csv(score(items, answers)) == (
        "category,count,correct,errored,accuracy\n"
        "Lexicon,4,3,0,75.00\n"
        "Research overview,1,0,1,0.00\n"
        "Overall,5,3,1,60.00\n"
    )


def test_load_10k_dataset_with_reference_category_counts(tmp_path):
    rng = random.Random(42)
    data = {}
    idx = 0
    for cat, count in zip(CATEGORIES, TABLE_COUNTS):
        for _ in range(count):
            options = [f"choice {idx}-{j}" for j in range(4)]
            correct = rng.randint(1, 4)
            data[f"question {idx}"] = {
                "question": f"Question number {idx}?",
                "option 1": options[0],
                "option 2": options[1],
                "option 3": options[2],
                "option 4": options[3],
                "answer": f"option {correct}: {options[correct - 1]}",
                "category": cat,
            }
            idx += 1
    path = tmp_path / "teleqna.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    items = load_dataset(path)
    assert len(items) == 10000
    counts = {cat: 0 for cat in CATEGORIES}
    for it in items:
        counts[it.category] += 1
    assert [counts[cat] for cat in CATEGORIES] == TABLE_COUNTS


# --- Loader messages: one case per kind of invalid entry, in both layouts ---

def _mutated(entry: dict, changes) -> dict:
    """A copy of entry with each (key, value) of changes set; a value of ... drops the key."""
    entry = dict(entry)
    for key, value in changes:
        if value is ...:
            entry.pop(key, None)
        else:
            entry[key] = value
    return entry


def _teleqna(**changes) -> dict:
    """A valid TeleQnA entry with changes; "_" in a name stands for a space."""
    entry = {"question": "Q?", "option 1": "A", "option 2": "B",
             "answer": "option 1: A", "category": "Lexicon"}
    return _mutated(entry, ((key.replace("_", " "), v) for key, v in changes.items()))


def _jsonl(**changes) -> str:
    """A valid normalized JSONL line with changes."""
    row = {"item_id": "a", "category": "Lexicon", "question": "Q?",
           "options": ["A", "B"], "correct_index": 1}
    return json.dumps(_mutated(row, changes.items()))


LONG_KEY = "9" * 5000

# (case id, layout, payload, the failure the loader reports for the entry).
# Layout "dict" writes {"q0": payload} and "list" writes [payload] as .json;
# "jsonl" writes payload as the only line of a .jsonl file.
LOADER_FAILURES = [
    ("not-object", "dict", ["Q?"], "item 'q0': entry is not an object"),
    ("list-not-object", "list", "Q?", "item 'q0': entry is not an object"),
    ("missing-question", "dict", _teleqna(question=...), "item 'q0': missing 'question'"),
    ("missing-answer", "dict", _teleqna(answer=...), "item 'q0': missing 'answer'"),
    ("missing-category", "dict", _teleqna(category=...), "item 'q0': missing 'category'"),
    ("question-type", "dict", _teleqna(question=7), "item 'q0': 'question' must be a string"),
    ("option-type", "dict", _teleqna(option_2=7), "item 'q0': 'option 2' must be a string"),
    ("option-gap", "dict", _teleqna(option_2=..., option_3="C"),
     "item 'q0': non-contiguous option keys (gap before 'option 3')"),
    ("option-7-after-2", "dict", _teleqna(option_7="G"),
     "item 'q0': non-contiguous option keys (gap before 'option 7')"),
    ("six-options", "dict",
     _teleqna(option_3="C", option_4="D", option_5="E", option_6="F"),
     "item 'q0': expected 2-5 options, got 6"),
    ("one-option", "dict", _teleqna(option_2=...), "item 'q0': expected 2-5 options, got 1"),
    ("no-options", "dict", _teleqna(option_1=..., option_2=...),
     "item 'q0': answer names option 1, item has 0 options"),
    ("duplicate-options", "dict", _teleqna(option_2="A"), "item 'q0': duplicate options"),
    ("duplicate-options-text-answer", "dict", _teleqna(option_2="A", answer="A"),
     "item 'q0': answer 'A' does not uniquely match an option"),
    ("unknown-category", "dict", _teleqna(category="Gossip"),
     "item 'q0': unknown category: 'Gossip'"),
    ("answer-out-of-range", "dict", _teleqna(answer="option 7"),
     "item 'q0': answer names option 7, item has 2 options"),
    ("answer-key-too-long", "dict", _teleqna(answer=f"option {LONG_KEY}"),
     "item 'q0': answer names option 999999999…, item has 2 options"),
    ("answer-text-mismatch", "dict", _teleqna(answer="option 1: B"),
     "item 'q0': answer text does not match option 1"),
    ("answer-no-match", "dict", _teleqna(answer="C"),
     "item 'q0': answer 'C' does not uniquely match an option"),
    ("list-id-null", "list", {**_teleqna(), "id": None},
     "item 'q0': 'id' must be a string or an integer"),
    ("list-id-array", "list", {**_teleqna(), "id": ["a"]},
     "item 'q0': 'id' must be a string or an integer"),
    ("jsonl-malformed", "jsonl", "{not json",
     "line 1: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("jsonl-string", "jsonl", '"item_id"', "line 1: entry is not an object"),
    ("jsonl-string-naming-keys", "jsonl", '"item_id options correct_index category question"',
     "line 1: entry is not an object"),
    ("jsonl-array", "jsonl", "[1]", "line 1: entry is not an object"),
    ("jsonl-number", "jsonl", "5", "line 1: entry is not an object"),
    ("jsonl-missing-item-id", "jsonl", _jsonl(item_id=...), "line 1: missing 'item_id'"),
    ("jsonl-missing-options", "jsonl", _jsonl(options=...), "line 1: missing 'options'"),
    ("jsonl-missing-correct", "jsonl", _jsonl(correct_index=...),
     "line 1: missing 'correct_index'"),
    ("jsonl-missing-question", "jsonl", _jsonl(question=...), "line 1: missing 'question'"),
    ("jsonl-item-id-null", "jsonl", _jsonl(item_id=None),
     "line 1: 'item_id' must be a string or an integer"),
    ("jsonl-item-id-array", "jsonl", _jsonl(item_id=["a"]),
     "line 1: 'item_id' must be a string or an integer"),
    ("jsonl-category-type", "jsonl", _jsonl(category=5), "line 1: 'category' must be a string"),
    ("jsonl-options-type", "jsonl", _jsonl(options="AB"),
     "line 1: 'options' must be a JSON array of strings"),
    ("jsonl-correct-type", "jsonl", _jsonl(correct_index="1"),
     "line 1: 'correct_index' must be an integer"),
    ("jsonl-correct-too-long", "jsonl",
     _jsonl(correct_index=0).replace('"correct_index": 0', f'"correct_index": {LONG_KEY}'),
     "line 1: Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ("jsonl-unknown-category", "jsonl", _jsonl(category="Gossip"),
     "line 1: unknown category: 'Gossip'"),
    ("jsonl-one-option", "jsonl", _jsonl(options=["A"]), "line 1: expected 2-5 options, got 1"),
    ("jsonl-duplicate-options", "jsonl", _jsonl(options=["A", "A"]),
     "line 1: duplicate options"),
    ("jsonl-correct-out-of-range", "jsonl", _jsonl(correct_index=3),
     "line 1: correct_index 3 out of range"),
    ("jsonl-two-rules", "jsonl", _jsonl(options=["A"], correct_index=2),
     "line 1: expected 2-5 options, got 1; correct_index 2 out of range"),
]


def _write_case(tmp_path, layout: str, payload) -> Path:
    if layout == "jsonl":
        path = tmp_path / "d.jsonl"
        path.write_text(payload + "\n", encoding="utf-8")
    else:
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"q0": payload} if layout == "dict" else [payload]),
                        encoding="utf-8")
    return path


@pytest.mark.parametrize("layout, payload, failure",
                         [case[1:] for case in LOADER_FAILURES],
                         ids=[case[0] for case in LOADER_FAILURES])
def test_loader_message_for_each_invalid_entry(tmp_path, layout, payload, failure):
    path = _write_case(tmp_path, layout, payload)
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert str(err.value) == f"invalid entry in {path}: {failure}"


@pytest.mark.parametrize("layout, payload", [
    ("dict", _teleqna(explanation=[1])),
    ("dict", _teleqna(explanation={"text": "e"})),
    ("list", _teleqna(explanation=None)),
    ("jsonl", _jsonl(explanation=3)),
    ("jsonl", _jsonl(explanation=[1, 2])),
    ("jsonl", _jsonl(explanation="see spec")),
], ids=["dict-array", "dict-object", "list-null", "jsonl-integer", "jsonl-array",
        "jsonl-string"])
def test_explanation_of_any_type_is_ignored(tmp_path, layout, payload):
    path = _write_case(tmp_path, layout, payload)
    (tmp_path / "bare").mkdir()
    bare = _write_case(tmp_path / "bare", layout, _jsonl() if layout == "jsonl" else _teleqna())
    assert load_dataset(path) == load_dataset(bare)


def test_item_rules_run_once_per_loaded_entry(tmp_path, monkeypatch):
    checked = []
    rules = McqItem.__post_init__
    monkeypatch.setattr(McqItem, "__post_init__",
                        lambda item: checked.append(item.item_id) or rules(item))
    teleqna = {f"q{i}": _teleqna(option_3=f"C{i}", answer=f"C{i}") for i in range(3)}
    teleqna["q3"] = _teleqna(option_2="A")  # breaks a rule
    teleqna["q4"] = _teleqna(question=...)  # fails before the rules
    path = tmp_path / "d.json"
    path.write_text(json.dumps(teleqna), encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(path)
    assert checked == ["q0", "q1", "q2", "q3"]
    checked.clear()
    path = tmp_path / "d.jsonl"
    path.write_text("".join(_jsonl(item_id=f"n{i}") + "\n" for i in range(4)),
                    encoding="utf-8")
    assert len(load_dataset(path)) == 4
    assert checked == ["n0", "n1", "n2", "n3"]


_KEYS = ["question", "answer", "category", "explanation", "id", "item_id", "options",
         "correct_index", "option 0", "option 01", *(f"option {i}" for i in range(1, 8))]
_STRINGS = ["", "A", "B", "C", "Lexicon", "research overview", "Gossip", "option 1",
            "option 2: B", "option 7", "option 1: B", f"option {LONG_KEY}"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.sampled_from(_STRINGS) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_MUTATIONS = st.lists(st.tuples(st.sampled_from(_KEYS), st.just(...) | _JSON_VALUES), max_size=4)
_RAW_LINES = ["", "{", "null", "5", '"item_id"', "[1]", "1e999", f"{LONG_KEY}",
              '{"item_id": "a", "correct_index": ' + LONG_KEY + "}"]


@settings(max_examples=300, deadline=None)
@given(layout=st.sampled_from(["dict", "list", "jsonl"]),
       entries=st.lists(st.tuples(_MUTATIONS, st.none() | st.sampled_from(_RAW_LINES)),
                        min_size=1, max_size=3))
@example(layout="dict", entries=[([("option 6", "F")], None)])
@example(layout="dict", entries=[([("option 3", "C"), ("option 4", "D"), ("option 5", "E"),
                                   ("option 6", "F")], None)])
@example(layout="list", entries=[([("id", ["a"])], None)])
@example(layout="jsonl", entries=[([("item_id", None)], None)])
@example(layout="dict", entries=[([("answer", f"option {LONG_KEY}")], None)])
@example(layout="jsonl", entries=[([], '"item_id options correct_index category question"')])
def test_load_dataset_raises_only_data_error(layout, entries):
    """Mutated TeleQnA entries and JSONL lines load or fail with DataError, nothing else."""
    with tempfile.TemporaryDirectory() as tmp:
        if layout == "jsonl":
            lines = [raw if raw is not None else _jsonl(**dict(m)) for m, raw in entries]
            path = Path(tmp) / "d.jsonl"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            mutated = [_mutated(_teleqna(), m) if raw is None else raw for m, raw in entries]
            path = Path(tmp) / "d.json"
            root = dict(zip(map("q{}".format, range(3)), mutated)) if layout == "dict" else mutated
            path.write_text(json.dumps(root), encoding="utf-8")
        try:
            items = load_dataset(path)
        except DataError:
            return
        assert all(isinstance(it, McqItem) for it in items)
