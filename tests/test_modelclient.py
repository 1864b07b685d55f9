from __future__ import annotations

import json
import re
import signal
import sys
import threading
import time

import pytest
from fake_http import FakeResponse

from telerag.errors import (
    ModelError,
    ModelProtocolError,
    ModelUnavailableError,
    TranscriptMissError,
)
from telerag.modelclient import (
    Completion,
    ConstantBackend,
    HttpBackend,
    ModelConfig,
    TranscriptBackend,
    ask,
    build_backend,
    prompt_sha256,
    write_transcript,
)

HTTP_CFG = ModelConfig(
    kind="http", endpoint="http://fake/complete", model_name="m", backoff_s=0.0
)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(kind="telepathy")
    with pytest.raises(ValueError):
        ModelConfig(kind="http", endpoint="http://x")
    with pytest.raises(ValueError):
        ModelConfig(kind="mock_script")
    with pytest.raises(ValueError):
        ModelConfig(kind="mock_constant")
    with pytest.raises(ValueError):
        ModelConfig(kind="mock_constant", reply="1", max_tokens=8)


def test_constant_backend():
    backend = ConstantBackend("1. whatever")
    out = backend.complete("any prompt")
    assert out == Completion(text="1. whatever", latency_ms=0, attempt_count=1)


def test_empty_prompt_rejected():
    with pytest.raises(ValueError):
        ConstantBackend("x").complete("")
    with pytest.raises(ValueError):
        HttpBackend(HTTP_CFG).complete("")


def test_transcript_backend_replays(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript([("prompt one", "reply one"), ("prompt two", "reply two")], path)
    backend = TranscriptBackend(path)
    assert backend.complete("prompt one").text == "reply one"
    assert backend.complete("prompt one").text == "reply one"
    assert backend.complete("prompt two").text == "reply two"
    with pytest.raises(TranscriptMissError):
        backend.complete("prompt three")


@pytest.mark.parametrize(
    "line, reason",
    [('{"prompt_sha256": "x"}', "'reply'"),
     (json.dumps({"prompt_sha256": prompt_sha256("p"), "reply": 5}),
      "'reply' must be a string"),
     ('{"prompt_sha256": 5, "reply": "1"}', "'prompt_sha256' must be 64 lowercase hex"),
     ('{"prompt_sha256": "x", "reply": "1"}', "'prompt_sha256' must be 64 lowercase hex"),
     (json.dumps({"prompt_sha256": prompt_sha256("p").upper(), "reply": "1"}),
      "'prompt_sha256' must be 64 lowercase hex"),
     (json.dumps({"prompt_sha256": prompt_sha256("p") + "0", "reply": "1"}),
      "'prompt_sha256' must be 64 lowercase hex"),
     (b'{"prompt_sha256": "' + prompt_sha256("p").encode() + b'", "reply": "\xff"}',
      "'utf-8' codec can't decode byte 0xff")],
    ids=["no-reply", "reply-not-a-string", "digest-not-a-string", "digest-not-hex",
         "digest-uppercase", "digest-too-long", "not-utf-8"],
)
def test_transcript_rejects_malformed_line(tmp_path, line, reason):
    path = tmp_path / "bad.jsonl"
    path.write_bytes((line if isinstance(line, bytes) else line.encode("utf-8")) + b"\n")
    with pytest.raises(ModelProtocolError, match=f"line 1 .*{re.escape(reason)}"):
        TranscriptBackend(path)


def _record(prompt: str, reply: str = "1", **extra) -> str:
    return json.dumps({"prompt_sha256": prompt_sha256(prompt), "reply": reply, **extra})


_A, _B = _record("a"), _record("b")
_NESTED = _record("c", x=[[1]])[:-len("]]}")]  # the record goes on past its line


# (case id, the transcript's lines, the line a reader of one line at a time names
# and what it says about it). Joined into one JSON array by commas alone, with no
# line feeds, the lines of each "split-…-and-…" case give as many values as lines.
TRANSCRIPT_LINE_FAILURES = [
    ("two-values-on-one-line", [_A, f"{_B} {_record('c')}"], 2,
     "Extra data: line 1 column 101 (char 100)"),
    ("record-split-over-two-lines", [_A, _B[:40], _B[40:]], 2,
     "Invalid control character at: line 1 column 41 (char 40)"),
    ("blank-line-before-the-bad-one", [_A, "", "  ", '{"reply": "2"}'], 4, "'prompt_sha256'"),
    ("not-utf-8-on-a-later-line", [_A, _B, _record("c", "X").replace("X", "\udcff")], 3,
     "'utf-8' codec can't decode byte 0xff in position 96: invalid start byte"),
    ("record-split-at-a-comma", [_A, _NESTED, "2]]}"], 2,
     "Expecting ',' delimiter: line 2 column 1 (char 109)"),
    ("split-record-and-two-on-one-line", [_NESTED, f"2]]}}, {_A}"], 1,
     "Expecting ',' delimiter: line 2 column 1 (char 109)"),
    ("split-record-and-a-number-on-one-line", [_NESTED, "2]]}, 5"], 1,
     "Expecting ',' delimiter: line 2 column 1 (char 109)"),
    ("split-string-and-two-on-one-line", [_A[:-1] + ', "x": "}', f'{{"}}, {_B}'], 1,
     "Invalid control character at: line 1 column 108 (char 107)"),
]


@pytest.mark.parametrize("lines, lineno, reason",
                         [case[1:] for case in TRANSCRIPT_LINE_FAILURES],
                         ids=[case[0] for case in TRANSCRIPT_LINE_FAILURES])
def test_transcript_names_its_first_bad_line(tmp_path, lines, lineno, reason):
    path = tmp_path / "bad.jsonl"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    with pytest.raises(ModelProtocolError) as caught:
        TranscriptBackend(path)
    assert str(caught.value) == f"bad transcript line {lineno} in {path}: {reason}"


def test_transcript_parses_its_lines_with_one_call(tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    write_transcript([(f"prompt {i}", f"{i % 5 + 1}. {{reply}} {i}") for i in range(50)], path)
    loads = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: loads.append(1) or real_loads(*a, **k))
    backend = TranscriptBackend(path)
    assert len(loads) == 1
    assert backend.complete("prompt 7").text == "3. {reply} 7"


def test_transcript_reply_that_reads_as_two_records(tmp_path):
    # A line's "}, {" inside a string is no break between records.
    path = tmp_path / "t.jsonl"
    path.write_text("\r\n".join([_A, "", _record("b", '}, {"reply": "3"}'), _A]) + "\r\n",
                    encoding="utf-8")
    backend = TranscriptBackend(path)
    assert backend.complete("a").text == "1"
    assert backend.complete("b").text == '}, {"reply": "3"}'


def test_transcript_file_format(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript([("p", "r")], path)
    rec = json.loads(path.read_text().strip())
    assert rec == {"prompt_sha256": prompt_sha256("p"), "reply": "r"}


def test_http_retries_then_succeeds(monkeypatch):
    responses = [FakeResponse(500), FakeResponse(200, {"text": "ok"})]
    sleeps = []
    monkeypatch.setattr("requests.post", lambda *a, **k: responses.pop(0))
    monkeypatch.setattr("time.sleep", sleeps.append)
    out = HttpBackend(ModelConfig(kind="http", endpoint="http://x", model_name="m",
                                  backoff_s=1.0)).complete("p")
    assert out.text == "ok"
    assert out.attempt_count == 2
    assert sleeps == [1.0]


def test_http_retries_rate_limit_then_succeeds(monkeypatch):
    responses = [FakeResponse(429), FakeResponse(200, {"text": "ok"})]
    sleeps = []
    monkeypatch.setattr("requests.post", lambda *a, **k: responses.pop(0))
    monkeypatch.setattr("time.sleep", sleeps.append)
    out = HttpBackend(ModelConfig(kind="http", endpoint="http://x", model_name="m",
                                  backoff_s=1.0)).complete("p")
    assert out.text == "ok"
    assert out.attempt_count == 2
    assert sleeps == [1.0]


def test_http_exhausts_retries(monkeypatch):
    calls = []
    sleeps = []
    monkeypatch.setattr("requests.post", lambda *a, **k: calls.append(1) or FakeResponse(503))
    monkeypatch.setattr("time.sleep", sleeps.append)
    with pytest.raises(ModelUnavailableError):
        HttpBackend(ModelConfig(kind="http", endpoint="http://x", model_name="m",
                                backoff_s=1.0)).complete("p")
    assert len(calls) == 3
    assert sleeps == [1.0, 2.0]


def test_http_client_error_no_retry(monkeypatch):
    calls = []
    monkeypatch.setattr("requests.post", lambda *a, **k: calls.append(1) or FakeResponse(401))
    with pytest.raises(ModelError):
        HttpBackend(HTTP_CFG).complete("p")
    assert len(calls) == 1


def test_http_malformed_response(monkeypatch):
    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse(200, {"nope": 1}))
    with pytest.raises(ModelProtocolError):
        HttpBackend(HTTP_CFG).complete("p")
    monkeypatch.setattr("requests.post", lambda *a, **k: FakeResponse(200, {"text": 42}))
    with pytest.raises(ModelProtocolError):
        HttpBackend(HTTP_CFG).complete("p")


def test_http_payload_shapes(monkeypatch):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured["payload"] = json
        return FakeResponse(200, {"text": "ok"})

    monkeypatch.setattr("requests.post", fake_post)
    HttpBackend(HTTP_CFG).complete("hello")
    assert captured["payload"]["prompt"] == "hello"
    assert captured["payload"]["temperature"] == 0.0
    chat_cfg = ModelConfig(
        kind="http", endpoint="http://x", model_name="m", api_shape="chat", backoff_s=0.0
    )
    HttpBackend(chat_cfg).complete("hello")
    assert captured["payload"]["messages"] == [{"role": "user", "content": "hello"}]
    assert "prompt" not in captured["payload"]


def test_build_backend_factory(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript([("p", "r")], path)
    assert isinstance(build_backend(ModelConfig(kind="mock_script", script_path=str(path))),
                      TranscriptBackend)
    assert isinstance(build_backend(ModelConfig(kind="mock_constant", reply="1")),
                      ConstantBackend)
    with pytest.raises(ValueError):
        build_backend(ModelConfig(kind="mock_oracle"))


def test_two_runs_identical_with_transcript(tmp_path):
    path = tmp_path / "t.jsonl"
    prompts = [f"prompt {i}" for i in range(20)]
    write_transcript([(p, f"reply {i}") for i, p in enumerate(prompts)], path)
    backend = TranscriptBackend(path)
    first = [backend.complete(p).text for p in prompts]
    second = [backend.complete(p).text for p in prompts]
    assert first == second


def test_transcript_rejects_conflicting_repeat(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript([("p", "one"), ("q", "two"), ("p", "three")], path)
    with pytest.raises(ModelProtocolError, match=r"line 3 in .*different reply"):
        TranscriptBackend(path)


def test_transcript_allows_same_reply_repeat(tmp_path):
    path = tmp_path / "t.jsonl"
    write_transcript([("p", "one"), ("q", "two"), ("p", "one")], path)
    backend = TranscriptBackend(path)
    assert [backend.complete(p).text for p in ("p", "q")] == ["one", "two"]


# The tests named test_run_items_* test ask; they keep the name of the loop ask
# replaced, so their test IDs stay the same.


class IndexBackend:
    """Answers the prompt str(i) with the text str(reply(i)); reply may sleep or raise."""

    def __init__(self, reply):
        self.reply = reply

    def complete(self, prompt: str) -> Completion:
        return Completion(text=str(self.reply(int(prompt))))


def _prompts(n: int) -> list[str]:
    return [str(i) for i in range(n)]


def _texts(completions) -> list[str | None]:
    return [None if c is None else c.text for c in completions]


@pytest.mark.parametrize("concurrency", [1, 2, 5, 64])
def test_run_items_in_order_and_equal_to_serial(concurrency):
    def reply(item):
        time.sleep(0.001 * (item % 3))  # later prompts can finish first
        return item * item

    out = ask(IndexBackend(reply), _prompts(40), concurrency)
    assert _texts(out) == [str(i * i) for i in range(40)]


@pytest.mark.parametrize("concurrency", [1, 3])
def test_run_items_model_error_marks_item_errored(concurrency):
    def reply(item):
        if item % 4 == 0:
            raise TranscriptMissError("no reply")
        return item

    out = ask(IndexBackend(reply), _prompts(10), concurrency)
    assert _texts(out) == [None if i % 4 == 0 else str(i) for i in range(10)]


@pytest.mark.parametrize("concurrency", [1, 3])
def test_run_items_other_exception_propagates(concurrency):
    calls = []

    def reply(item):
        calls.append(item)
        if item == 5:
            raise KeyError("not a model failure")
        return item

    with pytest.raises(KeyError, match="not a model failure"):
        ask(IndexBackend(reply), _prompts(200), concurrency)
    assert len(calls) < 200  # the threads stop taking prompts after the failure


@pytest.mark.parametrize("concurrency", [1, 4])
def test_run_items_raises_the_failure_a_serial_run_raises(concurrency):
    def reply(item):
        if item == 1:
            time.sleep(0.2)
            raise KeyError("item 1")
        if item == 3:
            raise ValueError("item 3")
        return item

    with pytest.raises(KeyError, match="item 1"):
        ask(IndexBackend(reply), _prompts(8), concurrency)


@pytest.mark.parametrize("concurrency", [1, 4])
def test_ask_returns_each_backends_own_completion(concurrency):
    made = [Completion(text=f"reply {i}", latency_ms=10 + i, attempt_count=1 + i % 3)
            for i in range(12)]

    class Recorded:
        def complete(self, prompt: str) -> Completion:
            time.sleep(0.001 * (int(prompt) % 3))  # later prompts can finish first
            return made[int(prompt)]

    out = ask(Recorded(), _prompts(12), concurrency)
    assert all(got is want for got, want in zip(out, made, strict=True))
    assert [(c.latency_ms, c.attempt_count) for c in out] == [
        (10 + i, 1 + i % 3) for i in range(12)]


class SleepingBackend:
    """Counts the calls in flight; each call sleeps so calls can overlap."""

    def __init__(self, sleep_s: float = 0.03):
        self.sleep_s = sleep_s
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def complete(self, prompt: str) -> Completion:
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        time.sleep(self.sleep_s)
        with self.lock:
            self.in_flight -= 1
        return Completion(text=prompt)


@pytest.mark.parametrize("concurrency, n_items, expected", [(1, 4, 1), (3, 12, 3), (8, 3, 3)])
def test_run_items_keeps_concurrency_calls_in_flight(concurrency, n_items, expected):
    backend = SleepingBackend()
    prompts = [f"p{i}" for i in range(n_items)]
    assert _texts(ask(backend, prompts, concurrency)) == prompts
    assert backend.max_in_flight == expected


def test_run_items_ctrl_c_stops_handing_out_items():
    # A SIGINT sent to the main thread, as Ctrl-C is, while it waits for the
    # workers. (_thread.interrupt_main only sets a flag, which a thread blocked in
    # Thread.join does not see until the thread it waits for ends.)
    calls = []
    main = threading.main_thread().ident

    def reply(item):
        calls.append(item)
        if len(calls) == 5:
            signal.pthread_kill(main, signal.SIGINT)
        time.sleep(0.02)
        return item

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        ask(IndexBackend(reply), _prompts(100), 3)
    assert threading.active_count() == before
    time.sleep(0.1)
    assert len(calls) <= 8


def test_ask_stops_the_started_workers_when_a_thread_cannot_start(monkeypatch):
    calls = []

    def reply(item):
        calls.append(item)
        time.sleep(0.01)
        return item

    real_start = threading.Thread.start
    starts = []

    def start(thread):
        starts.append(thread)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        real_start(thread)

    before = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(OSError, match="^cannot start threads for width 3: can't start new thread$"):
        ask(IndexBackend(reply), _prompts(200), 3)
    monkeypatch.undo()
    assert threading.active_count() == before
    asked = len(calls)
    time.sleep(0.1)
    assert len(calls) == asked < 200


def test_ask_ctrl_c_waits_for_the_call_of_the_first_worker():
    # The first worker's call outlasts the Ctrl-C. Before Python 3.13, a
    # Thread.join that KeyboardInterrupt breaks marks the thread it waits for
    # as stopped, so a later join of that worker returns while it still runs.
    main = threading.main_thread().ident
    ended = []

    def reply(item):
        if item == 0:
            time.sleep(0.3)
        elif item == 1:
            time.sleep(0.05)
            signal.pthread_kill(main, signal.SIGINT)
        ended.append(item)
        return item

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        ask(IndexBackend(reply), _prompts(3), 3)
    assert threading.active_count() == before
    assert sorted(ended) == [0, 1, 2]


def test_run_items_stress_takes_each_index_once():
    calls = []

    def reply(item):
        calls.append(item)
        return -item

    items = list(range(5000))
    out = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: out.append(_texts(ask(IndexBackend(reply), _prompts(5000), 16))))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not runner.is_alive()
    assert out == [[str(-i) for i in items]]
    assert sorted(calls) == items
