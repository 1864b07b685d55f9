from __future__ import annotations

import json
import multiprocessing
import os
import random

import pytest
from fake_http import FakeResponse

from telerag import forkpool, userassoc
from telerag.errors import DataError, ModelError
from telerag.evalharness import ModelAnswer
from telerag.modelclient import Completion, HttpBackend, ModelConfig, TranscriptBackend
from telerag.userassoc import (
    CURVE_BLOCK,
    PHI2_REFERENCE_CURVE,
    REFERENCE_TRANSCRIPT_SEED,
    AssocProblem,
    OracleBackend,
    RandomGuessBackend,
    StrongestBackend,
    check_answer,
    curve_csv,
    derive_seed,
    export_problems_jsonl,
    generate_problem,
    oracle,
    parse_problem_prompt,
    render_problem_prompt,
    run_curve,
    write_curve_transcript,
)

REFERENCE_EXAMPLE = AssocProblem.from_signals("reference", [-80, -62, -70])

REFERENCE_EXAMPLE_PROMPT = (
    "Instruct: A mobile device receives signals from three different base "
    "stations. The signal strengths are as follows:\n"
    "- The signal strength from base station 1 is -80 dBm\n"
    "- The signal strength from base station 2 is -62 dBm\n"
    "- The signal strength from base station 3 is -70 dBm\n"
    "The device must connect to the base station providing the strongest "
    "signal but avoiding base station 2.\n"
    "Given these signal strengths, to which base station should the mobile "
    "device connect?\n"
    "Output:"
)


def sort_based_second_max(signals) -> int:
    # Independent oracle: sort descending, take the second entry's index.
    ranked = sorted(range(len(signals)), key=lambda i: signals[i], reverse=True)
    return ranked[1] + 1


def test_reference_example_indices():
    assert REFERENCE_EXAMPLE.forbidden_index == 2
    assert REFERENCE_EXAMPLE.correct_index == 3
    assert oracle(REFERENCE_EXAMPLE) == 3


def test_reference_example_prompt_byte_exact():
    assert render_problem_prompt(REFERENCE_EXAMPLE) == REFERENCE_EXAMPLE_PROMPT


def test_two_station_problem_forced():
    problem = AssocProblem.from_signals("p", [-90, -60])
    assert problem.forbidden_index == 2
    assert problem.correct_index == 1


def test_problem_validation():
    with pytest.raises(DataError):
        AssocProblem.from_signals("p", [-80, -80, -70])
    with pytest.raises(DataError):
        AssocProblem.from_signals("p", [-80])
    with pytest.raises(TypeError):  # the indices are derived, never given
        AssocProblem(problem_id="p", signals_dbm=(-80, -62, -70),
                     forbidden_index=1, correct_index=3)


def test_generate_problem_ranks_signals_once(monkeypatch):
    calls = []
    rank = userassoc._rank_top_two
    monkeypatch.setattr(userassoc, "_rank_top_two", lambda *a: calls.append(a) or rank(*a))
    problems = [generate_problem(n, seed) for n in (2, 5, 26) for seed in range(10)]
    assert len(calls) == len(problems) == 30
    assert [p.problem_id for p in problems] == [pid for pid, _ in calls]


def test_generate_problem_invariants_against_sort_oracle():
    rng = random.Random(1)
    for _ in range(2000):
        n = rng.randint(2, 10)
        problem = generate_problem(n, rng.randrange(2**32))
        assert len(set(problem.signals_dbm)) == n
        assert all(-110 <= s <= -50 for s in problem.signals_dbm)
        assert problem.forbidden_index == max(
            range(n), key=lambda i: problem.signals_dbm[i]
        ) + 1
        assert oracle(problem) == sort_based_second_max(problem.signals_dbm)
        assert oracle(problem) != problem.forbidden_index


def test_generate_problem_deterministic_and_validated():
    assert generate_problem(6, 123) == generate_problem(6, 123)
    assert generate_problem(6, 123) != generate_problem(6, 124)
    with pytest.raises(ValueError):
        generate_problem(1, 0)
    with pytest.raises(ValueError):
        generate_problem(27, 0)


def test_oracle_strictly_decreasing_signals():
    problem = AssocProblem.from_signals("p", [-51, -60, -70, -80])
    assert oracle(problem) == 2


def test_oracle_shift_invariance():
    rng = random.Random(2)
    for _ in range(200):
        problem = generate_problem(rng.randint(2, 10), rng.randrange(2**32))
        offset = rng.randint(-500, 500)
        shifted = AssocProblem.from_signals(
            "shifted", [s + offset for s in problem.signals_dbm]
        )
        assert oracle(shifted) == oracle(problem)


def test_render_prompt_n5_lines_in_index_order():
    problem = generate_problem(5, 99)
    prompt = render_problem_prompt(problem)
    lines = prompt.split("\n")
    assert lines[0].startswith("Instruct: A mobile device receives signals from five ")
    for i in range(5):
        assert lines[1 + i] == (
            f"- The signal strength from base station {i + 1} is "
            f"{problem.signals_dbm[i]} dBm"
        )
    assert render_problem_prompt(problem) == prompt


def test_check_answer_cascade():
    sentence = check_answer(REFERENCE_EXAMPLE, "The device should connect to base station 3")
    assert sentence == ModelAnswer(REFERENCE_EXAMPLE.problem_id,
                                   "The device should connect to base station 3", 3,
                                   "text_match", correct=True)
    picked_forbidden = check_answer(REFERENCE_EXAMPLE, "2")
    assert picked_forbidden.parsed_index == 2
    assert picked_forbidden.parse_status == "embedded_number"
    assert not picked_forbidden.correct
    gibberish = check_answer(REFERENCE_EXAMPLE, "the strongest allowed signal wins")
    assert gibberish.parsed_index is None
    assert gibberish.parse_status == "unparsed"
    assert not gibberish.correct


def test_check_answer_ignores_negative_numbers():
    answer = check_answer(REFERENCE_EXAMPLE, "-70 dBm is strongest allowed, so station 3")
    assert answer.parsed_index == 3
    assert answer.correct


def test_check_answer_skips_digit_runs_too_long_for_int():
    huge = "9" * 5000
    assert check_answer(REFERENCE_EXAMPLE, huge).parsed_index is None
    assert check_answer(REFERENCE_EXAMPLE,
                        f"base station {huge}, no: base station 3").parsed_index == 3
    assert check_answer(REFERENCE_EXAMPLE, f"{huge} or 3").parsed_index == 3


def test_parse_problem_prompt_round_trip():
    problem = generate_problem(7, 4242)
    parsed = parse_problem_prompt(render_problem_prompt(problem))
    assert parsed.signals_dbm == problem.signals_dbm
    assert parsed.forbidden_index == problem.forbidden_index


def test_oracle_backend_is_perfect():
    curve = run_curve(OracleBackend(), [2, 4, 6, 8, 10], trials_per_n=25, seed=3)
    assert [n for n, _ in curve] == [2, 4, 6, 8, 10]
    assert all(s.accuracy_percent == 100.0 for _, s in curve)
    assert all(s.errored == 0 for _, s in curve)


def test_strongest_backend_is_always_wrong():
    curve = run_curve(StrongestBackend(), [2, 4, 6], trials_per_n=25, seed=3)
    assert all(s.accuracy_percent == 0.0 for _, s in curve)


def test_random_guess_backend_near_uniform():
    [(_, stats)] = run_curve(RandomGuessBackend(seed=1), [4], trials_per_n=1000, seed=4)
    # 3 sigma binomial band around 25%.
    sigma = (0.25 * 0.75 / 1000) ** 0.5 * 100
    assert abs(stats.accuracy_percent - 25.0) <= 3 * sigma


def test_run_curve_counts_model_errors():
    class FlakyBackend:
        def __init__(self):
            self.calls = 0

        def complete(self, prompt: str) -> Completion:
            self.calls += 1
            if self.calls % 2 == 0:
                raise ModelError("boom")
            problem = parse_problem_prompt(prompt)
            return Completion(text=f"base station {oracle(problem)}")

    [(_, stats)] = run_curve(FlakyBackend(), [4], trials_per_n=10, seed=5)
    assert stats.errored == 5
    assert stats.correct == 5
    assert stats.accuracy_percent == 50.0


def test_curve_csv_shape():
    curve = run_curve(OracleBackend(), [2, 4], trials_per_n=5, seed=6)
    lines = curve_csv(curve).strip().split("\n")
    assert lines[0] == "n_bs,trials,correct,errored,accuracy"
    assert lines[1] == "2,5,5,0,100.00"
    assert lines[2] == "4,5,5,0,100.00"
    repeated = run_curve(RandomGuessBackend(seed=1), [2, 2], trials_per_n=50, seed=1)
    assert repeated[0] == repeated[1]
    assert curve_csv(repeated) == ("n_bs,trials,correct,errored,accuracy\n"
                                   "2,50,22,0,44.00\n2,50,22,0,44.00\n")
    replay = run_curve(TranscriptBackend(userassoc.reference_transcript_path()),
                       [2, 4, 6, 8, 10], trials_per_n=100, seed=REFERENCE_TRANSCRIPT_SEED)
    assert curve_csv(replay) == (
        "n_bs,trials,correct,errored,accuracy\n"
        "2,100,93,0,93.00\n4,100,61,0,61.00\n6,100,44,0,44.00\n"
        "8,100,29,0,29.00\n10,100,19,0,19.00\n"
    )


def test_transcript_replay_reproduces_targets(tmp_path):
    path = tmp_path / "replay.jsonl"
    targets = {3: 7, 5: 2}
    write_curve_transcript(path, targets, trials_per_n=10, seed=77)
    curve = run_curve(TranscriptBackend(path), [3, 5], trials_per_n=10, seed=77)
    assert [(n, s.correct) for n, s in curve] == [(3, 7), (5, 2)]


def test_reference_curve_targets():
    assert PHI2_REFERENCE_CURVE == {2: 93, 4: 61, 6: 44, 8: 29, 10: 19}
    assert REFERENCE_TRANSCRIPT_SEED == 2024


def test_bundled_transcript_matches_generator(tmp_path):
    from telerag.userassoc import reference_transcript_path

    regenerated = tmp_path / "reference.jsonl"
    write_curve_transcript(regenerated)
    assert regenerated.read_bytes() == reference_transcript_path().read_bytes()


def test_export_problems_jsonl(tmp_path):
    path = tmp_path / "problems.jsonl"
    export_problems_jsonl([2, 3], trials_per_n=4, seed=8, path=path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 8
    regenerated = generate_problem(2, derive_seed(8, 2, 0))
    assert rows[0]["signals_dbm"] == list(regenerated.signals_dbm)
    assert rows[0]["correct_index"] == regenerated.correct_index


def test_derive_seed_stable():
    assert derive_seed(1, 2, "x") == derive_seed(1, 2, "x")
    assert derive_seed(1, 2, "x") != derive_seed(1, 2, "y")


def test_write_curve_transcript_rejects_conflicting_repeat(tmp_path):
    # At n=2 the 1,000 problems repeat; trial 914 repeats an earlier problem
    # that was answered right, so 914 right answers cannot be replayed.
    path = tmp_path / "replay.jsonl"
    with pytest.raises(ValueError, match="trial 914"):
        write_curve_transcript(path, {2: 914}, trials_per_n=1000, seed=1)
    assert not path.exists()


def test_run_curve_propagates_non_model_errors():
    class BrokenBackend:
        def complete(self, prompt: str) -> Completion:
            raise RuntimeError("bug, not a model failure")

    with pytest.raises(RuntimeError, match="bug"):
        run_curve(BrokenBackend(), [3], trials_per_n=5, seed=1)


# 1,200 problems: three blocks; the first spans n=2 and n=3, the second n=3, 5 and 8.
BLOCK_COUNTS, BLOCK_TRIALS = [2, 3, 5, 8], 300


@pytest.fixture
def forked_curves(monkeypatch):
    """Curves of more than one block fork, so these tests stay small."""
    monkeypatch.setattr(userassoc, "CURVE_IN_PROCESS_MAX", CURVE_BLOCK)


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks fork_map makes."""
    made = []
    real_fork = os.fork

    def counted_fork():
        made.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return made


class NoFiveStations:
    """Answers like the oracle, but every prompt with five stations is a model error."""

    def complete(self, prompt: str) -> Completion:
        problem = parse_problem_prompt(prompt)
        if problem.n == 5:
            raise ModelError("no reply")
        return Completion(text=f"base station {oracle(problem)}")


@pytest.mark.usefixtures("forked_curves")
@pytest.mark.parametrize("make", ["oracle", "random", "transcript", "errors"])
def test_forked_curve_equals_serial(tmp_path, monkeypatch, forks, make):
    assert len(BLOCK_COUNTS) * BLOCK_TRIALS > 2 * CURVE_BLOCK
    path = tmp_path / "replay.jsonl"
    write_curve_transcript(path, {2: 300, 3: 120, 5: 77, 8: 31}, trials_per_n=BLOCK_TRIALS,
                           seed=12)
    backend = {
        "oracle": OracleBackend,
        "random": lambda: RandomGuessBackend(seed=7),
        "transcript": lambda: TranscriptBackend(path),
        "errors": NoFiveStations,
    }[make]
    curves = []
    for cpus in (1, 2):
        monkeypatch.setattr(forkpool, "_cpu_count", lambda: cpus)
        curves.append(run_curve(backend(), BLOCK_COUNTS, trials_per_n=BLOCK_TRIALS, seed=12))
        assert len(forks) == (0 if cpus == 1 else 2)
        assert multiprocessing.active_children() == []
    assert curves[0] == curves[1]
    stats = [s for _, s in curves[0]]
    if make == "transcript":
        assert [s.correct for s in stats] == [300, 120, 77, 31]
    if make == "errors":
        assert [(s.correct, s.errored) for s in stats] == [(300, 0), (300, 0), (0, 300), (300, 0)]


@pytest.mark.usefixtures("forked_curves")
def test_error_in_a_worker_is_raised_here(monkeypatch, forks):
    class BrokenAtEight:
        def complete(self, prompt: str) -> Completion:
            if parse_problem_prompt(prompt).n == 8:
                raise RuntimeError("bug at eight stations")
            return OracleBackend().complete(prompt)

    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="^bug at eight stations$"):
        run_curve(BrokenAtEight(), BLOCK_COUNTS, trials_per_n=BLOCK_TRIALS, seed=12)
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("forked_curves")
def test_worker_that_dies_raises_worker_died_error(monkeypatch):
    here = os.getpid()

    class DiesAtEight:
        def complete(self, prompt: str) -> Completion:
            if parse_problem_prompt(prompt).n == 8 and os.getpid() != here:
                os._exit(9)
            return OracleBackend().complete(prompt)

    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)
    with pytest.raises(forkpool.WorkerDiedError, match="exit code 9"):
        run_curve(DiesAtEight(), BLOCK_COUNTS, trials_per_n=BLOCK_TRIALS, seed=12)
    assert multiprocessing.active_children() == []


def test_curve_forks_only_above_the_cutoff(monkeypatch, forks):
    monkeypatch.setattr(userassoc, "CURVE_IN_PROCESS_MAX", 600)
    monkeypatch.setattr(forkpool, "_cpu_count", lambda: 2)
    at_cutoff = run_curve(OracleBackend(), [2, 3], trials_per_n=300, seed=4)
    assert forks == [] and [s.correct for _, s in at_cutoff] == [300, 300]
    above = run_curve(OracleBackend(), [2, 3], trials_per_n=301, seed=4)
    assert len(forks) == 2 and [s.correct for _, s in above] == [301, 301]
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("forked_curves")
def test_http_curve_above_the_cutoff_never_forks(monkeypatch):
    here = os.getpid()
    asked = []

    def fake_post(url, json=None, headers=None, timeout=None):
        asked.append((os.getpid(), json["prompt"]))
        return FakeResponse(200, {"text": RandomGuessBackend(seed=3).complete(json["prompt"]).text})

    def no_fork():
        raise AssertionError("an http curve forked")

    monkeypatch.setattr("requests.post", fake_post)
    monkeypatch.setattr(os, "fork", no_fork)
    backend = HttpBackend(ModelConfig(kind="http", endpoint="http://stub/complete",
                                      model_name="m", max_attempts=1))
    assert len(BLOCK_COUNTS) * BLOCK_TRIALS > userassoc.CURVE_IN_PROCESS_MAX
    curves = []
    for cpus in (2, 1):
        monkeypatch.setattr(forkpool, "_cpu_count", lambda: cpus)
        curves.append(run_curve(backend, BLOCK_COUNTS, trials_per_n=BLOCK_TRIALS, seed=12))
    prompts = [render_problem_prompt(p)
               for p in userassoc._problem_set(BLOCK_COUNTS, BLOCK_TRIALS, 12)]
    assert asked == [(here, prompt) for prompt in prompts * 2]
    assert curves[0] == curves[1] == run_curve(RandomGuessBackend(seed=3), BLOCK_COUNTS,
                                               trials_per_n=BLOCK_TRIALS, seed=12)
