"""Uniform completion interface over remote models and deterministic mocks.

`post_json` is the one HTTP transport: the http backend (completion- or chat-
shaped) uses it with retry-and-backoff, http embedding with one attempt. The
transcript backend replays recorded replies keyed by the SHA-256 of the exact
prompt, which is how evaluation runs stay reproducible without any live
model. `ordered` is the one ordered thread loop, which `ask` and
forkpool.fork_map share. `ask` is the one concurrent completion loop: evaluation
and the association curve render their prompts, ask them, then grade them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Protocol, Sequence, TypeVar

from .errors import (JSON_ERRORS, ModelError, ModelProtocolError, ModelUnavailableError,
                     TranscriptMissError, lone_surrogate)

API_KEY_ENV = "MODEL_API_KEY"

MODEL_KINDS = ("http", "mock_script", "mock_constant")
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")
# A comma between two JSON objects on one line.
_TWO_OBJECTS = re.compile(r"}[ \t\r]*,[ \t\r]*{")
# The longest wait, in seconds, that both time.sleep and socket.settimeout accept.
MAX_WAIT_S = threading.TIMEOUT_MAX
T = TypeVar("T")


@dataclass(frozen=True)
class ModelConfig:
    """Backend selection plus decoding/transport parameters.

    Evaluation runs keep temperature at 0 so reruns are comparable.
    mock_script replays a transcript file; mock_constant always returns
    `reply`.
    """

    kind: str
    endpoint: str | None = None
    model_name: str | None = None
    temperature: float = 0.0
    max_tokens: int = 256
    api_shape: str = "completion"
    script_path: str | None = None
    reply: str | None = None
    max_attempts: int = 3
    backoff_s: float = 1.0
    timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind: {self.kind!r}")
        if self.max_tokens < 16:
            raise ValueError("max_tokens must be >= 16")
        if self.api_shape not in ("completion", "chat"):
            raise ValueError(f"unknown api_shape: {self.api_shape!r}")
        if self.kind == "http" and not (self.endpoint and self.model_name):
            raise ValueError("http model requires endpoint and model_name")
        if self.kind == "mock_script" and not self.script_path:
            raise ValueError("mock_script model requires script_path")
        if self.kind == "mock_constant" and self.reply is None:
            raise ValueError("mock_constant model requires reply")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0 <= self.backoff_s <= math.ldexp(MAX_WAIT_S, min(0, 2 - self.max_attempts)):
            raise ValueError("backoff_s must be >= 0 and its longest wait, backoff_s * "
                             f"2**(max_attempts - 2), at most {MAX_WAIT_S:.0f} s")
        if not 0 < self.timeout_s <= MAX_WAIT_S:
            raise ValueError(f"timeout_s must be > 0 and at most {MAX_WAIT_S:.0f}")

    def summary(self) -> dict:
        """Deterministic snapshot for reports and manifests."""
        return {
            "kind": self.kind,
            "model_name": self.model_name,
            "endpoint": self.endpoint,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "script_path": self.script_path,
        }


@dataclass(frozen=True)
class Completion:
    """One model reply, with the latency and attempts an http model measures."""

    text: str
    latency_ms: int = 0
    attempt_count: int = 1


class ModelBackend(Protocol):
    def complete(self, prompt: str) -> Completion: ...


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def post_json(url: str, payload: dict, *, timeout_s: float, max_attempts: int = 1,
              backoff_s: float = 0.0) -> tuple[Any, int]:
    """POST payload as JSON to url, with a Bearer token from API_KEY_ENV if set;
    return the decoded reply and the number of attempts made.

    Connection errors, HTTP 429 and 5xx are retried, sleeping backoff_s *
    2**(n - 1) after attempt n, and raise ModelUnavailableError once
    max_attempts are spent. Any other status but 200 raises ModelError, and a
    reply that is not JSON ModelProtocolError."""
    import requests

    headers = {"Content-Type": "application/json"}
    if api_key := os.environ.get(API_KEY_ENV):
        headers["Authorization"] = f"Bearer {api_key}"
    for attempt in range(1, max_attempts + 1):
        if attempt > 1:
            # ldexp scales without forming 2**(attempt - 2), so a zero backoff never overflows.
            time.sleep(math.ldexp(backoff_s, attempt - 2))
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=timeout_s)
        except requests.RequestException as exc:
            failure = str(exc)
            continue
        if resp.status_code == 429 or resp.status_code >= 500:  # rate limited or server error
            failure = f"HTTP {resp.status_code}"
            continue
        if resp.status_code != 200:
            raise ModelError(f"{url} returned HTTP {resp.status_code}")
        try:
            return resp.json(), attempt
        except JSON_ERRORS as exc:
            raise ModelProtocolError(f"reply from {url} is not JSON: {exc}") from exc
    raise ModelUnavailableError(f"{url} unavailable after {max_attempts} attempt(s): {failure}")


class HttpBackend:
    """Remote model over post_json, with the config's attempts and backoff."""

    def __init__(self, cfg: ModelConfig) -> None:
        if cfg.kind != "http":
            raise ValueError("HttpBackend requires kind='http'")
        self.cfg = cfg

    def complete(self, prompt: str) -> Completion:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        cfg = self.cfg
        payload: dict = {"model": cfg.model_name, "temperature": cfg.temperature,
                         "max_tokens": cfg.max_tokens}
        if cfg.api_shape == "chat":
            payload["messages"] = [{"role": "user", "content": prompt}]
        else:
            payload["prompt"] = prompt
        start = time.monotonic()
        reply, attempts = post_json(cfg.endpoint, payload, timeout_s=cfg.timeout_s,
                                    max_attempts=cfg.max_attempts, backoff_s=cfg.backoff_s)
        text = reply.get("text") if isinstance(reply, dict) else None
        if not isinstance(text, str):
            raise ModelProtocolError("malformed model response: no string 'text'")
        if code := lone_surrogate(text):
            raise ModelProtocolError(f"malformed model response: lone surrogate {code} in 'text'")
        latency_ms = max(0, int(round((time.monotonic() - start) * 1000)))
        return Completion(text=text, latency_ms=latency_ms, attempt_count=attempts)


def _one_object_per_line(lines: Sequence[bytes]) -> list | None:
    """[json.loads(line) for line in lines] if each line holds one JSON object,
    else None, from one json.loads of the lines joined by commas into one JSON
    array. Lines that keep their line feeds let the search below tell their own
    commas from the joining ones."""
    try:
        text = b",".join(lines).decode("utf-8")
        values = json.loads(f"[{text}]")
    except JSON_ERRORS:
        return None
    # With as many objects as lines, and no line holding a comma between two
    # objects, every comma that joins two lines parts two values.
    if (len(values) == len(lines) and set(map(type, values)) <= {dict}
            and not _TWO_OBJECTS.search(text)):
        return values
    return None


class TranscriptBackend:
    """Replays recorded replies from a JSONL transcript of {prompt_sha256, reply}.

    The non-blank lines are parsed with one json.loads, as one JSON array, unless
    that fails or does not give one object per line: then each line is parsed on
    its own, so that an error names the line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self._replies: dict[str, str] = {}
        try:
            f = open(path, "rb")
        except OSError as exc:
            raise ModelError(f"cannot open transcript {path}: {exc.strerror}") from exc
        with f:
            lines = [(lineno, line) for lineno, line in enumerate(f, start=1) if line.strip()]
        records = _one_object_per_line([line for _, line in lines])
        for i, (lineno, line) in enumerate(lines):
            try:
                rec = json.loads(line.decode("utf-8")) if records is None else records[i]
                digest, reply = rec["prompt_sha256"], rec["reply"]
                if not (isinstance(digest, str) and _SHA256_HEX.fullmatch(digest)):
                    raise TypeError("'prompt_sha256' must be 64 lowercase hex digits, "
                                    f"got {json.dumps(digest)}")
                if not isinstance(reply, str):
                    raise TypeError(f"'reply' must be a string, got {json.dumps(reply)}")
                if code := lone_surrogate(reply):
                    raise ValueError(f"lone surrogate {code} in 'reply'")
                known = self._replies.setdefault(digest, reply)
            except (KeyError, TypeError, *JSON_ERRORS) as exc:
                raise ModelProtocolError(
                    f"bad transcript line {lineno} in {path}: {exc}"
                ) from exc
            if known != reply:
                raise ModelProtocolError(
                    f"transcript line {lineno} in {path} gives prompt {digest[:12]}… "
                    "a different reply than an earlier line"
                )

    def complete(self, prompt: str) -> Completion:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        digest = prompt_sha256(prompt)
        if digest not in self._replies:
            raise TranscriptMissError(f"no recorded reply for prompt {digest[:12]}… in {self.path}")
        return Completion(text=self._replies[digest])


def write_transcript(entries: list[tuple[str, str]], path: str | Path) -> None:
    """Record (prompt, reply) pairs as a transcript file."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for prompt, reply in entries:
            f.write(json.dumps({"prompt_sha256": prompt_sha256(prompt), "reply": reply}) + "\n")


class ConstantBackend:
    """Always returns the same reply; handy for degenerate baselines."""

    def __init__(self, reply: str) -> None:
        self.reply = reply

    def complete(self, prompt: str) -> Completion:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        return Completion(text=self.reply)


def build_backend(cfg: ModelConfig) -> ModelBackend:
    """Construct the backend that cfg.kind names."""
    if cfg.kind == "http":
        return HttpBackend(cfg)
    if cfg.kind == "mock_script":
        assert cfg.script_path is not None
        return TranscriptBackend(cfg.script_path)
    assert cfg.reply is not None
    return ConstantBackend(cfg.reply)


def ordered(call: Callable[[int, int], T], n: int, width: int) -> list[T]:
    """[call(slot, 0), ..., call(slot, n - 1)], in index order, where slot
    (0 <= slot < width) names the thread that makes the call, so a caller can
    give each thread a resource of its own.

    width <= 1, or n <= 1, is a plain serial loop in this thread, with slot 0.
    Otherwise min(width, n) threads each take the next index in ascending order,
    so at most width calls run at once. A call that raises stops the threads
    from taking more indices; once the calls in flight finish, the exception of
    the lowest failed index is raised here, the one a serial run would raise.
    An exception here while threads start or run (Ctrl-C, or a thread that
    cannot start, raised as OSError) stops them too; it is raised once the calls
    in flight end.
    """
    if width <= 1 or n <= 1:
        return [call(0, i) for i in range(n)]
    results: list = [None] * n
    pending = iter(range(n))
    lock = threading.Lock()
    failures: dict[int, BaseException] = {}

    def take() -> int | None:
        with lock:
            return None if failures else next(pending, None)

    def work(slot: int, done: threading.Event) -> None:
        while (i := take()) is not None:
            try:
                results[i] = call(slot, i)
            except BaseException as exc:
                with lock:
                    failures[i] = exc
        done.set()

    dones = [threading.Event() for _ in range(min(width, n))]
    threads = [threading.Thread(target=work, args=slot_done) for slot_done in enumerate(dones)]
    try:
        for thread in threads:
            try:
                thread.start()
            except RuntimeError as exc:
                raise OSError(f"cannot start threads for width {width}: {exc}") from None
        for done in dones:
            done.wait()
    except BaseException:
        with lock:
            pending = iter(())
        raise
    finally:
        # A worker is joined once it has set done: before Python 3.13, a join that
        # KeyboardInterrupt breaks marks its thread stopped while it still runs.
        for thread, done in zip(threads, dones):
            if thread.is_alive():  # one that never started cannot be joined
                done.wait()
                thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def ask(backend: ModelBackend, prompts: Sequence[str],
        concurrency: int) -> list[Completion | None]:
    """backend.complete(prompt) for every prompt, in prompt order, through ordered
    with width concurrency; None where it raised ModelError."""

    def one(_slot: int, i: int) -> Completion | None:
        try:
            return backend.complete(prompts[i])
        except ModelError:
            return None

    return ordered(one, len(prompts), concurrency)
