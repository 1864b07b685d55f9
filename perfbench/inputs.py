"""Seeded synthetic inputs for the benchmark workloads.

Everything here is derived from the workload seed with `random.Random`, so the
same seed always gives byte-identical input files. Prompts are rendered from
the benchmark's own copy of the MCQ template, not from the program: a change
to the program's prompt text shows up as transcript misses.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

CATEGORIES = (
    "Lexicon",
    "Research overview",
    "Research publications",
    "Standards overview",
    "Standards specifications",
)
MCQ_INSTRUCTION = (
    "Instruct: Answer the following question. Your answer must start with the "
    "number of the correct answer followed by the text of the answer."
)
UNPARSED_REPLY = "I am not sure which of these applies."
_TEXT_FRAME = "It should be the one about "

_SPEC_WORDS = (
    "ue gnb amf smf upf rrc pdcp rlc mac phy harq pucch pusch pdcch pdsch prach csi srs "
    "ssb bwp numerology slot symbol carrier beam handover measurement report timer "
    "procedure shall should may configure indicate transmit receive resource block "
    "allocation grant uplink downlink sidelink paging registration session bearer qos "
    "flow identifier parameter field value message layer entity protocol"
).split()


@dataclass(frozen=True)
class Item:
    """One MCQ item as the benchmark knows it (1-based correct index)."""

    item_id: str
    category: str
    question: str
    options: tuple[str, ...]
    correct_index: int


@dataclass(frozen=True)
class SpecCorpus:
    """Chunk ids and texts in ingestion order, plus the duplicate groups."""

    chunk_ids: list[str]
    texts: list[str]
    duplicate_groups: list[list[int]]


def _word(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=rng.randint(4, 9)))


def make_vocabulary(rng: random.Random, size: int = 4000) -> list[str]:
    """Spec-like vocabulary: fixed protocol terms plus seeded pseudo-words."""
    words = set(_SPEC_WORDS)
    while len(words) < size:
        words.add(_word(rng))
    return sorted(words)


def write_spec_corpus(
    rng: random.Random,
    out_dir: Path,
    *,
    n_docs: int,
    chunks_per_doc: int,
    chunk_tokens: int,
    tail_tokens: tuple[int, int],
    n_boilerplate: int,
    copies: tuple[int, int],
) -> SpecCorpus:
    """Write `n_docs` .txt specs whose token windows are known chunk by chunk.

    Every document holds `chunks_per_doc - 1` windows of `chunk_tokens` tokens
    and a last, shorter window of `tail_tokens` tokens, so chunking with
    `chunk_tokens` and no overlap cuts it exactly at the window boundaries.
    `n_boilerplate` full windows are repeated `copies` times each at random
    places, as spec boilerplate repeats, so equal scores occur.
    """
    vocab = make_vocabulary(rng)
    n_chunks = n_docs * chunks_per_doc
    texts: list[str | None] = [None] * n_chunks
    for last in range(chunks_per_doc - 1, n_chunks, chunks_per_doc):
        texts[last] = " ".join(rng.choices(vocab, k=rng.randint(*tail_tokens)))
    free = [pos for pos in range(n_chunks) if texts[pos] is None]
    rng.shuffle(free)
    groups: list[list[int]] = []
    for _ in range(n_boilerplate):
        text = " ".join(rng.choices(vocab, k=chunk_tokens))
        group = sorted(free.pop() for _ in range(rng.randint(*copies)))
        for pos in group:
            texts[pos] = text
        groups.append(group)
    for pos in range(n_chunks):
        if texts[pos] is None:
            texts[pos] = " ".join(rng.choices(vocab, k=chunk_tokens))
    out_dir.mkdir(parents=True, exist_ok=True)
    chunk_ids = []
    for d in range(n_docs):
        doc_id = f"spec_{d:03d}"
        windows = texts[d * chunks_per_doc : (d + 1) * chunks_per_doc]
        (out_dir / f"{doc_id}.txt").write_text(_wrap_lines(windows), encoding="utf-8")
        chunk_ids.extend(f"{doc_id}#{s}" for s in range(chunks_per_doc))
    return SpecCorpus(chunk_ids=chunk_ids, texts=texts, duplicate_groups=groups)


def _wrap_lines(windows: list[str]) -> str:
    # Line breaks inside the text do not move token boundaries, so chunks are
    # unchanged; they only make the files look like converted specs.
    tokens = " ".join(windows).split(" ")
    return "\n".join(" ".join(tokens[i : i + 16]) for i in range(0, len(tokens), 16)) + "\n"


def make_options(rng: random.Random, vocab: list[str], n: int = 4) -> tuple[str, ...]:
    """`n` three-word options such that each text_match reply names exactly its
    own option and the unparsed reply names none."""
    while True:
        options = tuple(" ".join(rng.sample(vocab, 3)) for _ in range(n))
        folded = [o.casefold() for o in options]
        replies = [(_TEXT_FRAME + o + ".").casefold() for o in folded] + [UNPARSED_REPLY.casefold()]
        if [[o for o in folded if o in r] for r in replies] == [[o] for o in folded] + [[]]:
            return options


def make_items(
    rng: random.Random, counts: dict[str, int], question_words: tuple[int, int]
) -> list[Item]:
    """Items in the given per-category counts, shuffled, with random stems."""
    vocab = make_vocabulary(rng, 2000)
    cats = [c for c in CATEGORIES for _ in range(counts[c])]
    rng.shuffle(cats)
    items = []
    for i, cat in enumerate(cats):
        question = " ".join(rng.choices(vocab, k=rng.randint(*question_words))) + "?"
        options = make_options(rng, vocab)
        items.append(Item(f"question {i}", cat, question, options, rng.randint(1, len(options))))
    return items


def write_teleqna_json(items: list[Item], path: Path) -> None:
    """Dataset in the TeleQnA layout: entries keyed by id with "option k" fields."""
    data = {}
    for it in items:
        entry = {"question": it.question}
        for i, opt in enumerate(it.options, start=1):
            entry[f"option {i}"] = opt
        entry["answer"] = f"option {it.correct_index}: {it.options[it.correct_index - 1]}"
        entry["explanation"] = ""
        entry["category"] = it.category
        data[it.item_id] = entry
    path.write_text(json.dumps(data, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")


def render_prompt(item: Item, context: list[str] = ()) -> str:
    """The MCQ prompt, with retrieved chunk texts prepended as the RAG prompt does."""
    lines = [MCQ_INSTRUCTION, item.question]
    lines += [f"{i}. {opt.rstrip()}" for i, opt in enumerate(item.options, start=1)]
    lines.append("Output:")
    base = "\n".join(lines)
    if not context:
        return base
    return "Context:\n" + "\n\n".join(context) + "\n\n" + base


def reply_for(item: Item, status: str, pick: int) -> str:
    """A reply that the parse cascade classifies as `status`, choosing option `pick`."""
    if status == "leading_number":
        return f"{pick}. {item.options[pick - 1]}"
    if status == "embedded_number":
        return f"The answer is option {pick}."
    if status == "text_match":
        return f"{_TEXT_FRAME}{item.options[pick - 1]}."
    return UNPARSED_REPLY


def wrong_pick(rng: random.Random, item: Item) -> int:
    return rng.choice([i for i in range(1, len(item.options) + 1) if i != item.correct_index])
