"""Household LLM calls fan out over a thread pool in live and record runs.

Outputs must not depend on the order in which those calls complete, the
pool's threads must not outlive ``run``, and replay and scripted runs must
stay on the calling thread.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from conftest import FIXTURES
from helpers import deterministic_reply, panicking_transport
from taxsim.config import SimConfig, load_config
from taxsim.gateway import ChatGateway, GatewayError
from taxsim.personas import load_personas, roster_for
from taxsim.simulation import run

CONFIG = SimConfig(
    n_households=6,
    months=4,
    seed=5,
    tax_system="tax_agent",
    household_backend="llm",
)
OUTPUT_FILES = ("monthly.csv", "annual.csv", "households.csv", "summary.json")
MALFORMED = '{"work": 0.5, "consumption"'


class ThreadLoggingGateway(ChatGateway):
    """A gateway that notes which thread makes each call."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.threads: list[int] = []

    def complete(self, request):
        self.threads.append(threading.get_ident())
        return super().complete(request)


class ReversingTransport:
    """Answers like ``deterministic_reply``, but a decision prompt of
    household i waits (n - i) * ``delay`` seconds, so within a month later
    households finish first. Household 0's decision prompt in month 2 gets a
    malformed first reply and a valid retry."""

    def __init__(self, config: SimConfig, delay: float, failing: tuple[int, ...] = ()) -> None:
        personas = roster_for(config.n_households, load_personas())
        self._household = {f"You're {p.name}, ": i for i, p in enumerate(personas)}
        self._n = config.n_households
        self._delay = delay
        self._failing = failing
        self._lock = threading.Lock()
        self.attempts: Counter = Counter()
        self.finished: list[tuple[str, int]] = []  # (date, household) of decisions
        self.retried = ""

    def __call__(self, request) -> str:
        prompt = request.prompt
        with self._lock:
            attempt = self.attempts[prompt]
            self.attempts[prompt] += 1
        i = next((i for prefix, i in self._household.items() if prompt.startswith(prefix)), None)
        if i is None:
            return deterministic_reply(request)
        time.sleep((self._n - i) * self._delay)
        if i in self._failing:
            raise GatewayError(f"household {i} refused")
        date = prompt.split("Now it's ", 1)[1][:7]
        with self._lock:
            self.finished.append((date, i))
        if i == 0 and date == "2001.02" and attempt == 0:
            self.retried = prompt
            return MALFORMED
        return deterministic_reply(request)


def outputs(result, out_dir) -> dict[str, bytes]:
    result.write_outputs(out_dir)
    return {name: (out_dir / name).read_bytes() for name in OUTPUT_FILES}


def test_outputs_do_not_depend_on_completion_order(tmp_path):
    threads_before = threading.active_count()
    slow = ReversingTransport(CONFIG, delay=0.01)
    gateway = ThreadLoggingGateway("record", cache_path=tmp_path / "slow.jsonl", transport=slow)
    recorded = outputs(run(CONFIG, gateway=gateway), tmp_path / "slow")
    assert threading.active_count() == threads_before

    # The calls overlapped and completed out of household order.
    assert set(gateway.threads) - {threading.get_ident()}
    month_1 = [i for date, i in slow.finished if date == "2001.01"]
    assert month_1.index(CONFIG.n_households - 1) < month_1.index(0)
    assert slow.retried and slow.attempts[slow.retried] == 2

    instant = ReversingTransport(CONFIG, delay=0.0)
    gateway = ChatGateway("record", cache_path=tmp_path / "instant.jsonl", transport=instant)
    assert outputs(run(CONFIG, gateway=gateway), tmp_path / "instant") == recorded

    gateway = ChatGateway("replay", cache_path=tmp_path / "slow.jsonl", transport=panicking_transport)
    assert outputs(run(CONFIG, gateway=gateway), tmp_path / "replay") == recorded


def test_worker_error_is_raised_in_household_order_and_threads_end(tmp_path):
    threads_before = threading.active_count()
    # Household 4 fails first in time; household 2 comes first in order.
    transport = ReversingTransport(CONFIG, delay=0.01, failing=(2, 4))
    gateway = ChatGateway("record", cache_path=tmp_path / "cache.jsonl", transport=transport)
    with pytest.raises(GatewayError, match="household 2 refused"):
        run(CONFIG, gateway=gateway)
    assert threading.active_count() == threads_before


def test_scripted_and_replay_runs_stay_on_the_calling_thread():
    config = replace(CONFIG, months=1, tax_system="us_federal")
    works = [0.1 * (i + 1) for i in range(config.n_households)]
    replies = [f'{{"work": {w:.2f}, "consumption": 0.5}}' for w in works]
    gateway = ThreadLoggingGateway("scripted", scripted_replies=replies)
    result = run(config, gateway=gateway)
    assert result.households["work_propensity"][0].tolist() == pytest.approx(works)
    assert set(gateway.threads) == {threading.get_ident()}

    gateway = ThreadLoggingGateway(
        "replay", cache_path=FIXTURES / "replay_cache.jsonl", transport=panicking_transport
    )
    run(load_config(FIXTURES / "replay_config.json"), gateway=gateway)
    assert gateway.threads and set(gateway.threads) == {threading.get_ident()}
