"""Uniform chat-completion access with retries and a record/replay cache.

Every LLM call is a ``ChatGateway.ask``, the one retry loop; each of its
attempts is one ``complete``, which is one transport call outside replay.

Modes:
  live     - HTTP round trip, or a constructor-injected ``transport`` in its
             place (tests, offline runs).
  record   - live, plus every exchange is appended to a JSONL cache, which
             is opened once, when the gateway is built.
  replay   - answers come from the cache only; any network use is a bug.

The cache key is a sha256 over (model_id, prompt, temperature), so a recorded
experiment replays byte-identically on any machine. Credentials come from an
environment variable and are never written to the cache.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time
import weakref
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, TypeVar

GATEWAY_MODES = ("live", "record", "replay")

# ``ask`` sleeps BACKOFF_BASE * BACKOFF_FACTOR**k seconds (1, 2, 4, ...) when
# the transport fails on its attempt k, counted from 0, and another follows.
BACKOFF_BASE = 1.0
BACKOFF_FACTOR = 2.0

T = TypeVar("T")


class GatewayError(Exception):
    """Base class for gateway failures."""


class GatewaySettingError(GatewayError):
    """The gateway's mode cannot work with one of its settings; ``setting``
    names the constructor argument (and the ``gateway`` config key)."""

    def __init__(self, setting: str, message: str) -> None:
        super().__init__(message)
        self.setting = setting


class TransportError(GatewayError):
    """A transport call failed or returned no text; ``ask`` tries again."""


class ReplyParseError(ValueError):
    """A reply holds no answer; what the parse function of an ``ask`` raises."""


class ReplayMissError(GatewayError):
    """A replayed run hit a prompt absent from the cache. Fatal by design:
    silently diverging from the recorded experiment would be worse."""


class CacheCorruptError(GatewayError):
    """A cache line other than a torn trailing write failed to parse."""


@dataclass(frozen=True)
class ChatRequest:
    """One self-contained prompt for a chat-completion endpoint."""

    model_id: str
    prompt: str
    temperature: float = 0.7
    max_tokens: int = 512

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    @classmethod
    def of(cls, section, prompt: str) -> ChatRequest:
        """``prompt`` under the model id, temperature and token cap of an
        LLM config section (``tax_agent`` or ``household_llm``)."""
        return cls(section.model_id, prompt, section.temperature, section.max_tokens)


# Every byte but the 32 control bytes, which a JSON string must escape.
_NOT_CONTROL = bytes(range(0x20, 0x100))
_SHORT_ESCAPES = {8: b"\\b", 9: b"\\t", 10: b"\\n", 12: b"\\f", 13: b"\\r"}


def _json_string_body(text: str) -> bytes:
    """``text`` between the quotes of its compact JSON spelling, in UTF-8,
    as ``json.dumps(..., ensure_ascii=False)`` writes it. Escaping bytes
    rather than characters is exact: the bytes of a multi-byte UTF-8
    sequence are never ASCII."""
    data = text.encode("utf-8").replace(b"\\", b"\\\\").replace(b'"', b'\\"')
    for byte in set(data.translate(None, _NOT_CONTROL)):
        data = data.replace(bytes((byte,)), _SHORT_ESCAPES.get(byte) or b"\\u%04x" % byte)
    return data


def _json_float(value: float) -> bytes:
    """A float as ``json.dumps`` spells it, non-finite values included."""
    if math.isfinite(value):
        return repr(value).encode()
    return b"NaN" if value != value else b"Infinity" if value > 0 else b"-Infinity"


@lru_cache(maxsize=64)
def _key_prefix(model_id: str):
    """The hash state after ``["<model_id>","``, the part of a key that
    only the model id sets; each key hashes on from a copy. Keyed by the
    model id alone: ``0.0`` and ``-0.0`` share a dict slot but spell apart,
    so the temperature is spelled on every call."""
    return hashlib.sha256(b'["' + _json_string_body(model_id) + b'","')


def exchange_key(model_id: str, prompt: str, temperature: float) -> str:
    """Deterministic, platform-stable cache key for a request: the sha256 of
    the UTF-8 bytes of ``json.dumps([model_id, prompt, float(temperature)],
    ensure_ascii=False, separators=(",", ":"))``. The strings are escaped
    with whole-string replaces, which cost less than the JSON encoder's
    escaping of a prompt one character at a time, and fed to the hash piece
    by piece, so no joined copy of the prompt is made."""
    key = _key_prefix(model_id).copy()
    key.update(_json_string_body(prompt))
    key.update(b'",' + _json_float(float(temperature)) + b"]")
    return key.hexdigest()


# What a cache line that is not a whole record raises; ValueError covers
# JSONDecodeError and the UnicodeDecodeError of a write torn inside a character.
_BAD_RECORD = (ValueError, KeyError, TypeError)


def _parse_record(line: str | bytes) -> tuple[str, str]:
    record = json.loads(line)
    return record["key"], record["response"]


def _lines(fh) -> Iterator[bytes]:
    """The lines of a binary file, broken where ``bytes.splitlines`` of the
    whole file breaks them: at LF, at CRLF and at a lone CR. Bytes, not
    decoded text: str.splitlines would also break a record at a U+2028
    inside a reply. A line with no CR keeps its LF, which json.loads and
    strip ignore, so it is not copied again."""
    for chunk in fh:
        if b"\r" in chunk:
            yield from chunk.splitlines()
        else:
            yield chunk


def load_cache(path: str | Path) -> dict[str, str]:
    """Load a JSONL exchange cache into a key -> response map, one line at a
    time.

    A torn trailing line (interrupted append) is dropped; corruption anywhere
    else raises. When a key appears twice the later record wins.
    """
    entries: dict[str, str] = {}
    bad: Exception | None = None
    with open(path, "rb") as fh:
        for number, line in enumerate(_lines(fh), 1):
            if bad is not None:
                raise CacheCorruptError(f"{path}: bad record on line {number - 1}") from bad
            if not line.strip():
                continue
            try:
                key, response = _parse_record(line)
            except _BAD_RECORD as exc:
                bad = exc  # tolerated only if no line follows
                continue
            entries[key] = response
    return entries


# How far ``_end_torn_tail`` reads back from the end at a time.
_TAIL_BLOCK = 1 << 16


def _end_torn_tail(path: Path) -> None:
    """Make an existing cache end on a line break before anything is
    appended to it: a last record missing only its newline gets one, and a
    torn fragment is cut off. Otherwise the next append would be glued onto
    the fragment and lost. Only the last line is read, block by block from
    the end."""
    if not path.exists():
        return
    with open(path, "r+b") as fh:
        start = end = fh.seek(0, os.SEEK_END)
        tail = b""
        while start and b"\n" not in tail:
            step = min(_TAIL_BLOCK, start)
            start -= step
            fh.seek(start)
            tail = fh.read(step) + tail
        if not tail or tail.endswith(b"\n"):
            return
        cut = tail.rfind(b"\n") + 1
        try:
            _parse_record(tail[cut:])
        except _BAD_RECORD:
            fh.truncate(start + cut)
        else:
            fh.seek(end)
            fh.write(b"\n")


def http_chat_transport(
    endpoint: str, api_key: str, timeout: float = 30.0
) -> Callable[[ChatRequest], str]:
    """Build the default OpenAI-style HTTP transport."""
    import requests

    url = endpoint.rstrip("/") + "/chat/completions"

    def send(request: ChatRequest) -> str:
        response = requests.post(
            url,
            json={
                "model": request.model_id,
                "messages": [{"role": "user", "content": request.prompt}],
                "temperature": request.temperature,
                "max_tokens": request.max_tokens,
            },
            headers={"Authorization": f"Bearer {api_key}"},
            timeout=timeout,
        )
        response.raise_for_status()
        return response.json()["choices"][0]["message"]["content"]

    return send


_SURROGATE = re.compile("[\ud800-\udfff]")


def _without_surrogates(text: str) -> str:
    """``text`` with each surrogate code point replaced by U+FFFD; an
    all-ASCII text, the common case, is returned after one ``isascii``."""
    return text if text.isascii() else _SURROGATE.sub("\ufffd", text)


class ChatGateway:
    """Mode-switched chat access. Safe for concurrent ``ask`` calls:
    cache appends are serialized, replay lookups are read-only after load."""

    def __init__(
        self,
        mode: str,
        *,
        cache_path: str | Path | None = None,
        transport: Callable[[ChatRequest], str] | None = None,
        endpoint: str = "",
        api_key_env: str = "TAXSIM_API_KEY",
        timeout: float = 30.0,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if mode not in GATEWAY_MODES:
            raise ValueError(f"unknown gateway mode {mode!r}")
        self.mode = mode
        path = Path(cache_path) if cache_path else None
        self._transport = transport
        self._sleep = sleeper
        self._lock = threading.Lock()
        self._replay_cache: dict[str, str] = {}

        # Every setting is checked before the cache is read or repaired.
        if mode in ("replay", "record") and path is None:
            raise GatewaySettingError("cache_path", f"{mode} mode requires a cache path")
        if mode == "replay" and not path.is_file():
            raise GatewaySettingError("cache_path", "replay needs an existing cache file")
        if mode == "record" and path.is_dir():
            raise GatewaySettingError("cache_path", "record needs a cache file, not a directory")
        if mode in ("live", "record") and self._transport is None:
            if not endpoint:
                raise GatewaySettingError("endpoint", f"{mode} mode requires an endpoint")
            api_key = os.environ.get(api_key_env, "")
            if not api_key:
                raise GatewaySettingError(
                    "api_key_env", f"{mode} mode requires a credential in ${api_key_env}"
                )
            self._transport = http_chat_transport(endpoint, api_key, timeout)
        if mode == "replay":
            self._replay_cache = load_cache(path)
        if mode == "record":
            # Opened once, so that each exchange is one os.write with no
            # mkdir, open or close; the descriptor lives as long as the gateway.
            try:
                _end_torn_tail(path)
                path.parent.mkdir(parents=True, exist_ok=True)
                flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT | getattr(os, "O_BINARY", 0)
                self._fd = os.open(path, flags)
            except OSError as exc:
                raise GatewaySettingError("cache_path", f"cannot open the cache: {exc}") from None
            weakref.finalize(self, os.close, self._fd)

    def ask(self, section, prompt: str, parse: Callable[[str], T]) -> T | None:
        """``parse`` of the first reply to ``prompt`` that it accepts, or
        None when none does. ``section``, an LLM config section, sets the
        request's model id, temperature and token cap, and its
        ``max_retries`` attempts; replay makes one, since the same request
        always gets the same cached reply back. An attempt is one
        ``complete``; a ``ReplyParseError`` or a ``TransportError`` ends it,
        the latter followed by the backoff unless it was the last, and every
        other error, a replay miss included, propagates."""
        request = ChatRequest.of(section, prompt)
        attempts = 1 if self.mode == "replay" else section.max_retries
        for attempt in range(attempts):
            try:
                return parse(self.complete(request))
            except ReplyParseError:
                continue
            except TransportError:
                if attempt < attempts - 1:
                    self._sleep(BACKOFF_BASE * BACKOFF_FACTOR**attempt)
        return None

    def complete(self, request: ChatRequest) -> str:
        """Resolve one request to a response text according to the mode:
        outside replay, one transport call, whose error (other than a
        ``GatewayError``) or non-``str`` reply is a ``TransportError``.
        Each lone surrogate code point of a reply (a reply cut inside an
        escaped surrogate pair holds one) becomes U+FFFD, in every mode, so
        the reply can be recorded and put into later prompts, and live,
        record and replay return the same text."""
        if self.mode == "replay":
            key = exchange_key(request.model_id, request.prompt, request.temperature)
            try:
                return _without_surrogates(self._replay_cache[key])
            except KeyError:
                raise ReplayMissError(
                    f"no cached exchange for key {key}; the cache does not cover "
                    "this prompt"
                ) from None
        try:
            text = self._transport(request)
        except GatewayError:
            raise
        except Exception as exc:
            raise TransportError(f"transport failed: {exc!r}") from exc
        if not isinstance(text, str):
            raise TransportError(f"transport returned {type(text).__name__}, not text")
        text = _without_surrogates(text)
        if self.mode == "record":
            self._append_exchange(request, text)
        return text

    def _append_exchange(self, request: ChatRequest, response_text: str) -> None:
        record = {
            "key": exchange_key(request.model_id, request.prompt, request.temperature),
            "model_id": request.model_id,
            "prompt": request.prompt,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
            "response": response_text,
            "timestamp": time.time(),
        }
        data = memoryview((json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8"))
        with self._lock:  # one whole line at a time, short writes retried
            while data:
                data = data[os.write(self._fd, data) :]
