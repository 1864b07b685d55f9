"""Uniform completion interface over remote models and deterministic mocks.

The http backend speaks a minimal JSON protocol (completion- or chat-shaped)
with retry-and-backoff. The transcript backend replays recorded replies keyed
by the SHA-256 of the exact prompt, which is how evaluation runs stay
reproducible without any live model. `run_items` is the one concurrent
completion loop that evaluation and the association curve share.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence, TypeVar

from .errors import ModelError, ModelProtocolError, ModelUnavailableError, TranscriptMissError

API_KEY_ENV = "MODEL_API_KEY"

MODEL_KINDS = ("http", "mock_script", "mock_constant")

T = TypeVar("T")
R = TypeVar("R")


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
    """One model reply, with transport bookkeeping."""

    text: str
    latency_ms: int
    attempt_count: int


class ModelBackend(Protocol):
    def complete(self, prompt: str) -> Completion: ...


def json_headers() -> dict[str, str]:
    """Headers for a JSON POST, with a Bearer token when API_KEY_ENV is set."""
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    return headers


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class HttpBackend:
    """Remote model over POST JSON; retries transient failures with backoff."""

    def __init__(self, cfg: ModelConfig) -> None:
        if cfg.kind != "http":
            raise ValueError("HttpBackend requires kind='http'")
        self.cfg = cfg

    def _payload(self, prompt: str) -> dict:
        base = {
            "model": self.cfg.model_name,
            "temperature": self.cfg.temperature,
            "max_tokens": self.cfg.max_tokens,
        }
        if self.cfg.api_shape == "chat":
            base["messages"] = [{"role": "user", "content": prompt}]
        else:
            base["prompt"] = prompt
        return base

    def _request_once(self, prompt: str) -> str:
        import requests

        try:
            resp = requests.post(
                self.cfg.endpoint,
                json=self._payload(prompt),
                headers=json_headers(),
                timeout=self.cfg.timeout_s,
            )
        except requests.RequestException as exc:
            raise _Retryable(str(exc)) from exc
        if resp.status_code == 429 or resp.status_code >= 500:  # rate limited or server error
            raise _Retryable(f"HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise ModelError(f"model endpoint returned HTTP {resp.status_code}")
        try:
            text = resp.json()["text"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelProtocolError(f"malformed model response: {exc}") from exc
        if not isinstance(text, str):
            raise ModelProtocolError("model response 'text' is not a string")
        return text

    def complete(self, prompt: str) -> Completion:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        start = time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            try:
                text = self._request_once(prompt)
            except _Retryable as exc:
                if attempt >= self.cfg.max_attempts:
                    raise ModelUnavailableError(
                        f"model unavailable after {attempt} attempts: {exc}"
                    ) from exc
                time.sleep(self.cfg.backoff_s * 2 ** (attempt - 1))
                continue
            latency_ms = max(0, int(round((time.monotonic() - start) * 1000)))
            return Completion(text=text, latency_ms=latency_ms, attempt_count=attempt)


class _Retryable(Exception):
    """Internal marker for transient transport failures."""


class TranscriptBackend:
    """Replays recorded replies from a JSONL transcript of {prompt_sha256, reply}."""

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self._replies: dict[str, str] = {}
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    digest, reply = rec["prompt_sha256"], rec["reply"]
                    known = self._replies.setdefault(digest, reply)
                except (ValueError, KeyError, TypeError) as exc:
                    raise ModelProtocolError(
                        f"bad transcript line {lineno} in {path}: {exc}"
                    ) from exc
                if known != reply:
                    raise ModelProtocolError(
                        f"transcript line {lineno} in {path} gives prompt {str(digest)[:12]}… "
                        "a different reply than an earlier line"
                    )

    def __len__(self) -> int:
        return len(self._replies)

    def complete(self, prompt: str) -> Completion:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        digest = prompt_sha256(prompt)
        if digest not in self._replies:
            raise TranscriptMissError(f"no recorded reply for prompt {digest[:12]}… in {self.path}")
        return Completion(text=self._replies[digest], latency_ms=0, attempt_count=1)


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
        return Completion(text=self.reply, latency_ms=0, attempt_count=1)


def build_backend(cfg: ModelConfig) -> ModelBackend:
    """Construct the backend that cfg.kind names."""
    if cfg.kind == "http":
        return HttpBackend(cfg)
    if cfg.kind == "mock_script":
        assert cfg.script_path is not None
        return TranscriptBackend(cfg.script_path)
    assert cfg.reply is not None
    return ConstantBackend(cfg.reply)


def run_items(
    call: Callable[[T], R],
    items: Sequence[T],
    concurrency: int,
    errored: Callable[[T], R],
) -> list[R]:
    """call(item) for every item, in item order; a ModelError gives errored(item).

    concurrency <= 1 is a plain serial loop. Otherwise min(concurrency,
    len(items)) threads each take the next index from a shared iterator and
    fill that slot, so at most `concurrency` calls run at once. Any other
    exception stops the threads from taking more items and is raised here.
    """

    def one(item: T) -> R:
        try:
            return call(item)
        except ModelError:
            return errored(item)

    if concurrency <= 1 or len(items) <= 1:
        return [one(item) for item in items]
    results: list = [None] * len(items)
    pending = iter(range(len(items)))
    lock = threading.Lock()
    failures: list[BaseException] = []

    def take() -> int | None:
        with lock:
            return None if failures else next(pending, None)

    def work() -> None:
        try:
            while (i := take()) is not None:
                results[i] = one(items[i])
        except BaseException as exc:
            with lock:
                failures.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(concurrency, len(items)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return results
