from __future__ import annotations

import json
import random

import pytest

from telerag.errors import DataError, ModelError
from telerag.modelclient import Completion, TranscriptBackend
from telerag.userassoc import (
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
    with pytest.raises(DataError):
        AssocProblem(problem_id="p", signals_dbm=(-80, -62, -70),
                     forbidden_index=1, correct_index=3)


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
    assert check_answer(REFERENCE_EXAMPLE, "The device should connect to base station 3") == \
        check_answer(REFERENCE_EXAMPLE, "base station 3")
    assert check_answer(REFERENCE_EXAMPLE, "base station 3").correct
    picked_forbidden = check_answer(REFERENCE_EXAMPLE, "2")
    assert picked_forbidden.chosen == 2
    assert not picked_forbidden.correct
    gibberish = check_answer(REFERENCE_EXAMPLE, "the strongest allowed signal wins")
    assert gibberish.chosen is None
    assert not gibberish.correct


def test_check_answer_ignores_negative_numbers():
    answer = check_answer(REFERENCE_EXAMPLE, "-70 dBm is strongest allowed, so station 3")
    assert answer.chosen == 3
    assert answer.correct


def test_parse_problem_prompt_round_trip():
    problem = generate_problem(7, 4242)
    parsed = parse_problem_prompt(render_problem_prompt(problem))
    assert parsed.signals_dbm == problem.signals_dbm
    assert parsed.forbidden_index == problem.forbidden_index


def test_oracle_backend_is_perfect():
    curve = run_curve(OracleBackend(), [2, 4, 6, 8, 10], trials_per_n=25, seed=3)
    assert all(p.accuracy_percent == 100.0 for p in curve.points)
    assert all(p.errored == 0 for p in curve.points)


def test_strongest_backend_is_always_wrong():
    curve = run_curve(StrongestBackend(), [2, 4, 6], trials_per_n=25, seed=3)
    assert all(p.accuracy_percent == 0.0 for p in curve.points)


def test_random_guess_backend_near_uniform():
    curve = run_curve(RandomGuessBackend(seed=1), [4], trials_per_n=1000, seed=4)
    point = curve.points[0]
    # 3 sigma binomial band around 25%.
    sigma = (0.25 * 0.75 / 1000) ** 0.5 * 100
    assert abs(point.accuracy_percent - 25.0) <= 3 * sigma


def test_run_curve_counts_model_errors():
    class FlakyBackend:
        def __init__(self):
            self.calls = 0

        def complete(self, prompt: str) -> Completion:
            self.calls += 1
            if self.calls % 2 == 0:
                raise ModelError("boom")
            problem = parse_problem_prompt(prompt)
            return Completion(text=f"base station {oracle(problem)}", latency_ms=0,
                              attempt_count=1)

    curve = run_curve(FlakyBackend(), [4], trials_per_n=10, seed=5)
    point = curve.points[0]
    assert point.errored == 5
    assert point.correct == 5
    assert point.accuracy_percent == 50.0


def test_curve_csv_shape():
    curve = run_curve(OracleBackend(), [2, 4], trials_per_n=5, seed=6)
    lines = curve_csv(curve).strip().split("\n")
    assert lines[0] == "n_bs,trials,correct,errored,accuracy"
    assert lines[1] == "2,5,5,0,100.00"
    assert lines[2] == "4,5,5,0,100.00"


def test_transcript_replay_reproduces_targets(tmp_path):
    path = tmp_path / "replay.jsonl"
    targets = {3: 7, 5: 2}
    write_curve_transcript(path, targets, trials_per_n=10, seed=77)
    curve = run_curve(TranscriptBackend(path), [3, 5], trials_per_n=10, seed=77)
    assert [(p.n_bs, p.correct) for p in curve.points] == [(3, 7), (5, 2)]


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


def test_run_curve_threads_match_serial():
    class HashFlakyBackend:
        """Random guesses, with ModelError on some prompts."""

        def __init__(self):
            self.guess = RandomGuessBackend(seed=3)

        def complete(self, prompt: str) -> Completion:
            if derive_seed("fail", prompt) % 4 == 0:
                raise ModelError("flaky")
            return self.guess.complete(prompt)

    serial = run_curve(HashFlakyBackend(), [2, 5, 9], trials_per_n=40, seed=12)
    threaded = run_curve(HashFlakyBackend(), [2, 5, 9], trials_per_n=40, seed=12, concurrency=4)
    assert threaded == serial
    assert [p.n_bs for p in threaded.points] == [2, 5, 9]
    assert all(p.errored > 0 and p.correct > 0 for p in serial.points)


def test_run_curve_propagates_non_model_errors():
    class BrokenBackend:
        def complete(self, prompt: str) -> Completion:
            raise RuntimeError("bug, not a model failure")

    for concurrency in (1, 3):
        with pytest.raises(RuntimeError, match="bug"):
            run_curve(BrokenBackend(), [3], trials_per_n=5, seed=1, concurrency=concurrency)
