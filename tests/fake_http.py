"""A stand-in for the `requests.Response` that `requests.post` returns, for tests
that patch `requests.post`: a status code and a body that `json()` decodes as
requests does, so a body that is not JSON raises what requests would raise."""

from __future__ import annotations

import json


class FakeResponse:
    """A reply with status_code whose body is payload as JSON, or the raw text."""

    def __init__(self, status_code: int, payload=None, *, text: str | None = None) -> None:
        self.status_code = status_code
        self.text = json.dumps(payload) if text is None else text

    def json(self):
        return json.loads(self.text)
