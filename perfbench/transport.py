"""Deterministic chat transport for the benchmark's LLM workloads.

Every reply and every latency is a function of the sha256 of the prompt, so
a run's outputs depend only on the seed that shaped its prompts. A fixed
share of decision and planner prompts gets a malformed first reply and a
valid retry; a smaller share stays malformed on every attempt, so the
program's fallback path runs. Reflection replies are always plain notes.

The transport keeps per-prompt attempt counts under a lock, so it may be
called from several threads at once.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time

DECISION = "decision"
REFLECTION = "reflection"
PLANNER = "planner"

# Shares of decision/planner prompts, in 1/65536 units of a 16-bit hash slice.
PERSISTENT_MALFORMED = 655  # ~1 %: malformed on every attempt
RETRY_MALFORMED = 3277  # ~5 % (including the 1 %): malformed first attempt
TAIL_SHARE = 1311  # ~2 % of prompts answer four times slower


def prompt_kind(prompt: str) -> str:
    if prompt.startswith("You are a tax planner"):
        return PLANNER
    if prompt.startswith("You are reviewing your household finances"):
        return REFLECTION
    return DECISION


class BenchTransport:
    """Callable ``ChatRequest -> str`` with hash-derived replies and latency.

    ``latency_ms`` is the base round trip; each prompt waits 0.8-1.2 times
    the base, and the tail share four times the base. Zero disables waiting.
    """

    def __init__(self, latency_ms: float = 0.0) -> None:
        self._base_s = latency_ms / 1000.0
        self._lock = threading.Lock()
        # prompt digest -> [kind, attempts, served a valid reply]
        self._keys: dict[bytes, list] = {}

    def __call__(self, request) -> str:
        digest = hashlib.sha256(request.prompt.encode("utf-8")).digest()
        kind = prompt_kind(request.prompt)
        with self._lock:
            entry = self._keys.setdefault(digest, [kind, 0, False])
            attempt = entry[1]
            entry[1] += 1
        malformed_draw = int.from_bytes(digest[8:10], "big")
        malformed = kind != REFLECTION and (
            malformed_draw < PERSISTENT_MALFORMED
            or (malformed_draw < RETRY_MALFORMED and attempt == 0)
        )
        if malformed:
            reply = _malformed_reply(kind, digest)
        else:
            reply = _valid_reply(kind, digest)
            with self._lock:
                entry[2] = True
        if self._base_s:
            time.sleep(self._latency_s(digest))
        return reply

    def _latency_s(self, digest: bytes) -> float:
        if int.from_bytes(digest[10:12], "big") < TAIL_SHARE:
            return 4.0 * self._base_s
        return self._base_s * (0.8 + 0.4 * digest[12] / 255.0)

    def fallbacks(self) -> int:
        """Decision or planner prompts that never received a valid reply."""
        with self._lock:
            return sum(1 for e in self._keys.values() if e[0] != REFLECTION and not e[2])


def _valid_reply(kind: str, digest: bytes) -> str:
    if kind == PLANNER:
        return str([round((digest[i] % 41 + 5) / 100.0, 2) for i in range(7)])
    if kind == REFLECTION:
        return (
            f"Review {digest[:4].hex()}: keep working steadily and trim "
            "spending when prices climb."
        )
    work = round(0.02 * (digest[0] % 16 + 25), 2)
    consumption = round(0.02 * (digest[1] % 11 + 3), 2)
    return json.dumps({"work": work, "consumption": consumption})


def _malformed_reply(kind: str, digest: bytes) -> str:
    if kind == PLANNER:
        return f"I would set [0.1, 0.2, 0.{digest[0] % 10}] for now."
    return f'Sure! {{"work": 0.{digest[0] % 10}, "consumption"'
