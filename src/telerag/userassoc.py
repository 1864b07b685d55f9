"""Avoid-the-strongest user-association reasoning probe.

Each problem lists per-station signal strengths in dBm; the device must
connect to the strongest station *except* the globally strongest one, i.e.
the second strongest. Problems are generated with distinct integer signals,
so the correct answer is always unique. Deterministic mock backends solve,
sabotage, or randomly guess the problems, and a transcript backend replays
recorded model answers for exact curve reproduction.

A curve's problems are numbered in one order. A curve of more than
CURVE_IN_PROCESS_MAX problems runs in blocks of CURVE_BLOCK on forkpool.fork_map
unless its backend is an http model: each worker generates, asks (modelclient.ask)
and grades its own block, so a backend must answer each prompt from that prompt
alone. Outcomes are tallied by position in that order (evalharness.tally): a
curve is one (station count, CategoryStats) pair per entry of the station
counts, so a count given twice gives two pairs.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from . import MAX_STATIONS, forkpool
from .errors import DataError
from .evalharness import CategoryStats, first_in_range, stats_csv, tally
from .modelclient import Completion, HttpBackend, ModelBackend, ask, write_transcript

SIGNAL_RANGE_DBM = (-110, -50)
MOCK_KINDS = ("mock_oracle", "mock_strongest", "mock_random")
CURVE_BLOCK = 500  # problems per fork_map task of run_curve
# A curve of at most this many problems runs in one task, in this process: on
# two CPUs, forking cost more than it saved up to about 2,000-5,000 problems.
CURVE_IN_PROCESS_MAX = 5000

_NUMBER_WORDS = {
    2: "two", 3: "three", 4: "four", 5: "five", 6: "six", 7: "seven",
    8: "eight", 9: "nine", 10: "ten", 11: "eleven", 12: "twelve",
    13: "thirteen", 14: "fourteen", 15: "fifteen", 16: "sixteen",
    17: "seventeen", 18: "eighteen", 19: "nineteen", 20: "twenty",
    21: "twenty-one", 22: "twenty-two", 23: "twenty-three",
    24: "twenty-four", 25: "twenty-five", 26: "twenty-six",
}

# Recorded Phi-2 accuracy (percent correct out of 100 trials) per station
# count on this probe; the bundled replay transcript encodes these outcomes.
PHI2_REFERENCE_CURVE = {2: 93, 4: 61, 6: 44, 8: 29, 10: 19}
REFERENCE_TRANSCRIPT_SEED = 2024
REFERENCE_TRANSCRIPT_TRIALS = 100


@dataclass(frozen=True)
class AssocProblem:
    """One association instance: signals, then the station to avoid (the strongest)
    and the answer (the second strongest), 1-based and derived from the signals."""

    problem_id: str
    signals_dbm: tuple[int, ...]
    forbidden_index: int = field(init=False)
    correct_index: int = field(init=False)

    @property
    def n(self) -> int:
        return len(self.signals_dbm)

    def __post_init__(self) -> None:
        strongest, second = _rank_top_two(self.problem_id, self.signals_dbm)
        object.__setattr__(self, "forbidden_index", strongest)
        object.__setattr__(self, "correct_index", second)

    @classmethod
    def from_signals(cls, problem_id: str, signals_dbm: Sequence[int]) -> "AssocProblem":
        """A problem over any sequence of signals."""
        return cls(problem_id, tuple(signals_dbm))


def _rank_top_two(problem_id: str, signals: Sequence[int]) -> tuple[int, int]:
    """1-based indices of the strongest and the second strongest station."""
    if len(signals) < 2:
        raise DataError(f"{problem_id}: need at least 2 stations")
    if len(set(signals)) != len(signals):
        raise DataError(f"{problem_id}: signals must be pairwise distinct")
    ranked = sorted(range(len(signals)), key=signals.__getitem__)
    return ranked[-1] + 1, ranked[-2] + 1


def derive_seed(*parts) -> int:
    """Stable sub-seed from heterogeneous parts (hash-based, platform-independent)."""
    blob = "|".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


def generate_problem(n: int, seed: int) -> AssocProblem:
    """Seeded problem with n distinct integer signals uniform in [-110, -50] dBm."""
    if not (2 <= n <= MAX_STATIONS):
        raise ValueError(f"n must be in [2, {MAX_STATIONS}], got {n}")
    rng = random.Random(seed)
    low, high = SIGNAL_RANGE_DBM
    return AssocProblem(f"assoc-n{n}-s{seed}", tuple(rng.sample(range(low, high + 1), k=n)))


def _problem_set(
    n_values: Sequence[int], trials_per_n: int, seed: int, flat: range | None = None
) -> list[AssocProblem]:
    """The problems a curve run poses, trials_per_n seeded ones per station count.

    Problem p has station count n_values[p // trials_per_n] and trial
    p % trials_per_n; flat picks a range of these numbers (default: all).
    """
    if flat is None:
        flat = range(len(n_values) * trials_per_n)
    problems = []
    for p in flat:
        n = n_values[p // trials_per_n]
        problems.append(generate_problem(n, derive_seed(seed, n, p % trials_per_n)))
    return problems


def render_problem_prompt(problem: AssocProblem) -> str:
    """Instantiate the association prompt for the problem's station count."""
    n = problem.n
    count_word = _NUMBER_WORDS[n]
    lines = [
        f"Instruct: A mobile device receives signals from {count_word} different "
        "base stations. The signal strengths are as follows:"
    ]
    for i, signal in enumerate(problem.signals_dbm, start=1):
        lines.append(f"- The signal strength from base station {i} is {signal} dBm")
    lines.append(
        "The device must connect to the base station providing the strongest "
        f"signal but avoiding base station {problem.forbidden_index}."
    )
    lines.append("Given these signal strengths, to which base station should the mobile device connect?")
    lines.append("Output:")
    return "\n".join(lines)


def oracle(problem: AssocProblem) -> int:
    """Ground truth: the station with the strongest signal excluding the strongest."""
    return problem.correct_index


_STATION_PHRASE_RE = re.compile(r"base\s+station\s+(\d+)", re.IGNORECASE)
_INT_RE = re.compile(r"(-?\d+)")


@dataclass(frozen=True)
class CheckedAnswer:
    chosen: int | None
    correct: bool


def check_answer(problem: AssocProblem, raw_model_text: str) -> CheckedAnswer:
    """Extract the chosen station from a model reply and grade it.

    Cascade: first in-range "base station k" phrase, then the first bare
    integer in [1, n]. Unextractable replies are incorrect.
    """
    chosen = first_in_range(_STATION_PHRASE_RE, raw_model_text, problem.n)
    if chosen is None:
        chosen = first_in_range(_INT_RE, raw_model_text, problem.n)
    return CheckedAnswer(chosen=chosen, correct=chosen == oracle(problem))


def parse_problem_prompt(prompt: str) -> AssocProblem:
    """Reconstruct a problem from its rendered prompt (used by mock backends)."""
    signals = [int(m.group(1)) for m in re.finditer(r"station \d+ is (-?\d+) dBm", prompt)]
    avoid = re.search(r"avoiding base station (\d+)", prompt)
    if not signals or not avoid:
        raise DataError("prompt does not look like an association problem")
    problem = AssocProblem.from_signals("parsed", signals)
    if problem.forbidden_index != int(avoid.group(1)):
        raise DataError("avoid clause does not name the strongest station")
    return problem


class OracleBackend:
    """Mock model that always connects to the second strongest station."""

    def complete(self, prompt: str) -> Completion:
        problem = parse_problem_prompt(prompt)
        return Completion(text=f"The device should connect to base station {oracle(problem)}.")


class StrongestBackend:
    """Mock model that ignores the avoid clause and picks the strongest station."""

    def complete(self, prompt: str) -> Completion:
        problem = parse_problem_prompt(prompt)
        return Completion(text=f"Connect to base station {problem.forbidden_index}.")


class RandomGuessBackend:
    """Mock model that picks a station uniformly at random, seeded per prompt."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def complete(self, prompt: str) -> Completion:
        problem = parse_problem_prompt(prompt)
        rng = random.Random(derive_seed("guess", self.seed, prompt))
        return Completion(text=f"base station {rng.randint(1, problem.n)}")


@dataclass(frozen=True)
class MockConfig:
    """A mock association model: kind is one of MOCK_KINDS; seed seeds mock_random."""

    kind: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MOCK_KINDS:
            raise ValueError(f"unknown mock kind: {self.kind!r}")

    def backend(self) -> ModelBackend:
        if self.kind == "mock_random":
            return RandomGuessBackend(seed=self.seed)
        return OracleBackend() if self.kind == "mock_oracle" else StrongestBackend()

    def summary(self) -> dict:
        """Deterministic snapshot for manifests; only mock_random names its seed."""
        return asdict(self) if self.kind == "mock_random" else {"kind": self.kind}


def run_curve(
    backend: ModelBackend,
    n_values: Sequence[int],
    trials_per_n: int = 100,
    seed: int = 0,
) -> list[tuple[int, CategoryStats]]:
    """(station count, CategoryStats) per entry of n_values, in n_values order,
    over trials_per_n seeded problems each.

    Problem p counts in pair p // trials_per_n (evalharness.tally), so a
    station count given twice gives two pairs. An http model, and any curve
    of at most CURVE_IN_PROCESS_MAX problems, runs in this process, one problem
    after another. A larger curve of another backend runs in blocks of CURVE_BLOCK
    on forkpool.fork_map, on every usable CPU: each task generates, asks
    (modelclient.ask) and grades its block and sends back one (correct, errored)
    pair per problem, so backend state kept across calls stays in one worker.
    The curve is the same on any CPU count for a backend that answers each
    prompt the same way.
    """
    if trials_per_n < 1:
        raise ValueError("trials_per_n must be >= 1")

    total = len(n_values) * trials_per_n
    forked = total > CURVE_IN_PROCESS_MAX and not isinstance(backend, HttpBackend)
    size = CURVE_BLOCK if forked else max(total, 1)

    def block(b: int) -> list[tuple[bool, bool]]:
        flat = range(b * size, min(total, (b + 1) * size))
        problems = _problem_set(n_values, trials_per_n, seed, flat)
        completions = ask(backend, [render_problem_prompt(p) for p in problems], 1)
        return [(False, True) if c is None else (check_answer(p, c.text).correct, False)
                for p, c in zip(problems, completions)]

    outcomes = enumerate(o for done in forkpool.fork_map(block, -(-total // size)) for o in done)
    by_pair = tally((p // trials_per_n, ok, err) for p, (ok, err) in outcomes)
    return [(n_values[k], stats) for k, stats in by_pair.items()]


def curve_csv(curve: Sequence[tuple[int, CategoryStats]]) -> str:
    return stats_csv(["n_bs", "trials", "correct", "errored", "accuracy"], curve)


def export_problems_jsonl(
    n_values: Sequence[int], trials_per_n: int, seed: int, path: str | Path
) -> None:
    """Write the exact problem set a curve run would use, for transcript building."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for p in _problem_set(n_values, trials_per_n, seed):
            rec = {
                "problem_id": p.problem_id,
                "n": p.n,
                "signals_dbm": list(p.signals_dbm),
                "forbidden_index": p.forbidden_index,
                "correct_index": p.correct_index,
            }
            f.write(json.dumps(rec) + "\n")


def write_curve_transcript(
    path: str | Path,
    correct_by_n: Mapping[int, int] | None = None,
    trials_per_n: int = REFERENCE_TRANSCRIPT_TRIALS,
    seed: int = REFERENCE_TRANSCRIPT_SEED,
) -> None:
    """Synthesize a replay transcript hitting the given correct count per n.

    The first `correct` trials of each station count answer with the oracle
    station, the rest with the forbidden one. Defaults encode the recorded
    Phi-2 reference curve. A problem that repeats (few distinct problems
    exist at small n) must need the same reply each time; otherwise the
    replay could not hit the targets and ValueError is raised.
    """
    targets = dict(PHI2_REFERENCE_CURVE if correct_by_n is None else correct_by_n)
    entries: list[tuple[str, str]] = []
    replies: dict[str, str] = {}
    for n, correct in targets.items():
        if not (0 <= correct <= trials_per_n):
            raise ValueError(f"correct count {correct} out of range for {trials_per_n} trials")
        for i, problem in enumerate(_problem_set([n], trials_per_n, seed)):
            station = oracle(problem) if i < correct else problem.forbidden_index
            reply = f"The device should connect to base station {station}."
            prompt = render_problem_prompt(problem)
            if replies.setdefault(prompt, reply) != reply:
                raise ValueError(
                    f"{problem.problem_id} (n={n}, trial {i}) repeats an earlier problem "
                    "that needs the other reply; no transcript can hit these targets"
                )
            entries.append((prompt, reply))
    write_transcript(entries, path)


def reference_transcript_path() -> Path:
    """Location of the bundled Phi-2 replay transcript."""
    return Path(__file__).parent / "data" / "phi2_assoc_transcript.jsonl"
