"""LLM calls fan out over a thread pool in live and record runs, and the
next proposal overlaps a quarter's reflections.

Outputs must not depend on the order in which those calls complete, the
pool's threads must not outlive ``run``, and replay runs must stay on the
calling thread and keep the serial call order.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

import taxsim.simulation as simulation
from conftest import FIXTURES
from helpers import deterministic_reply, panicking_transport
from taxsim.config import SimConfig, load_config
from taxsim.gateway import ChatGateway, GatewayError
from taxsim.personas import load_personas, roster_for
from taxsim.simulation import FAN_OUT_WORKERS, run, sweep

CONFIG = SimConfig(
    n_households=6,
    months=4,
    seed=5,
    tax_system="tax_agent",
    household_backend="llm",
)
OUTPUT_FILES = ("monthly.csv", "annual.csv", "households.csv", "summary.json")
MALFORMED = '{"work": 0.5, "consumption"'


def kind_of(prompt: str) -> str:
    if prompt.startswith("You are a tax planner"):
        return "planner"
    if prompt.startswith("You are reviewing your household finances"):
        return "reflection"
    return "decision"


def runs_of(kinds: list[str]) -> list[tuple[str, int]]:
    """``kinds`` run-length encoded: [("planner", 1), ("decision", 18), ...]."""
    return [(kind, len(list(group))) for kind, group in itertools.groupby(kinds)]


class ThreadLoggingGateway(ChatGateway):
    """A gateway that notes the prompt of each call and the thread that
    makes it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls: list[tuple[str, int]] = []

    @property
    def threads(self) -> list[int]:
        return [thread for _, thread in self.calls]

    @property
    def kinds(self) -> list[str]:
        return [kind_of(prompt) for prompt, _ in self.calls]

    def complete(self, request):
        self.calls.append((request.prompt, threading.get_ident()))
        return super().complete(request)


class InFlightTransport:
    """Answers like ``deterministic_reply`` and logs, as each request
    starts, its kind and the kinds of the requests then in flight.

    The second planner request (month 4's proposal) waits until ``n``
    reflections are in flight, and a reflection waits until that planner
    request has started. So when a run lets month 3's reflections overlap
    month 4's proposal, the planner request finds all ``n`` in flight; when
    it does not, both waits time out and the log shows no overlap."""

    def __init__(self, n: int, timeout: float = 5.0) -> None:
        self._n = n
        self._timeout = timeout
        self._cond = threading.Condition()
        self._in_flight: Counter = Counter()
        self.started: Counter = Counter()
        self.log: list[tuple[str, Counter]] = []

    def __call__(self, request) -> str:
        kind = kind_of(request.prompt)
        with self._cond:
            if kind == "planner" and self.started["planner"] == 1:
                self._cond.wait_for(lambda: self._in_flight["reflection"] == self._n, self._timeout)
            self.log.append((kind, +self._in_flight))
            self.started[kind] += 1
            self._in_flight[kind] += 1
            self._cond.notify_all()
            if kind == "reflection":
                self._cond.wait_for(lambda: self.started["planner"] >= 2, self._timeout)
        try:
            return deterministic_reply(request)
        finally:
            with self._cond:
                self._in_flight[kind] -= 1
                self._cond.notify_all()


class RefusingTransport:
    """Answers like ``deterministic_reply``, except that the kinds in
    ``refused`` raise a ``GatewayError``: every planner request after the
    first (month 1's proposal runs alone), and every reflection after
    ``delay`` seconds, so an overlapped planner refuses first in time."""

    def __init__(self, refused: set[str], delay: float = 0.05) -> None:
        self._refused = refused
        self._delay = delay
        self._lock = threading.Lock()
        self.started: Counter = Counter()

    def __call__(self, request) -> str:
        kind = kind_of(request.prompt)
        with self._lock:
            self.started[kind] += 1
            first = self.started[kind] == 1
        if kind not in self._refused or (kind == "planner" and first):
            return deterministic_reply(request)
        if kind == "reflection":
            time.sleep(self._delay)
        raise GatewayError(f"{kind} refused")


class PeakTransport:
    """Answers like ``deterministic_reply`` and tracks the most requests in
    flight at once. Each request of a kind in ``waiting`` waits (up to
    ``timeout``) until that peak has reached ``width``, so every worker the
    pool allows is in flight together, then lingers ``hold`` seconds more,
    so a worker past ``width`` would be seen. By default planner requests do
    not wait: month 1's runs alone in an LLM-household run."""

    def __init__(
        self,
        width: int,
        hold: float = 0.01,
        timeout: float = 5.0,
        waiting: tuple[str, ...] = ("decision", "reflection"),
    ) -> None:
        self._width = width
        self._hold = hold
        self._timeout = timeout
        self._waiting = waiting
        self._cond = threading.Condition()
        self._in_flight = 0
        self.peak = 0

    def __call__(self, request) -> str:
        with self._cond:
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
            self._cond.notify_all()
            if kind_of(request.prompt) in self._waiting:
                self._cond.wait_for(lambda: self.peak >= self._width, self._timeout)
        try:
            time.sleep(self._hold)
            return deterministic_reply(request)
        finally:
            with self._cond:
                self._in_flight -= 1


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


def assert_outputs_do_not_depend_on_completion_order(config, tmp_path):
    threads_before = threading.active_count()
    slow = ReversingTransport(config, delay=0.01)
    gateway = ThreadLoggingGateway("record", cache_path=tmp_path / "slow.jsonl", transport=slow)
    recorded = outputs(run(config, gateway=gateway), tmp_path / "slow")
    assert threading.active_count() == threads_before

    # The calls overlapped and completed out of household order.
    assert set(gateway.threads) - {threading.get_ident()}
    month_1 = [i for date, i in slow.finished if date == "2001.01"]
    assert month_1.index(config.n_households - 1) < month_1.index(0)
    assert slow.retried and slow.attempts[slow.retried] == 2

    instant = ReversingTransport(config, delay=0.0)
    gateway = ChatGateway("record", cache_path=tmp_path / "instant.jsonl", transport=instant)
    assert outputs(run(config, gateway=gateway), tmp_path / "instant") == recorded

    gateway = ChatGateway("replay", cache_path=tmp_path / "slow.jsonl", transport=panicking_transport)
    assert outputs(run(config, gateway=gateway), tmp_path / "replay") == recorded


def test_outputs_do_not_depend_on_completion_order(tmp_path):
    assert_outputs_do_not_depend_on_completion_order(CONFIG, tmp_path)


def test_outputs_do_not_depend_on_completion_order_when_cadences_differ(tmp_path):
    config = replace(CONFIG, months=6, adjust_period_months=2, reflection_period_months=3)
    assert_outputs_do_not_depend_on_completion_order(config, tmp_path)


def test_next_proposal_is_in_flight_with_the_quarters_reflections(tmp_path):
    config = replace(CONFIG, months=6)  # both cadences at 3
    threads_before = threading.active_count()
    transport = InFlightTransport(config.n_households)
    gateway = ChatGateway("record", cache_path=tmp_path / "cache.jsonl", transport=transport)
    recorded = outputs(run(config, gateway=gateway), tmp_path / "record")
    assert threading.active_count() == threads_before

    planner_calls = [in_flight for kind, in_flight in transport.log if kind == "planner"]
    # Month 1's proposal runs alone; month 4's runs with month 3's reflections.
    assert planner_calls == [Counter(), Counter(reflection=config.n_households)]
    # No proposal follows month 6, the last.
    assert transport.started["planner"] == 2

    # A serial run of the recorded cache makes the same calls per kind.
    gateway = ThreadLoggingGateway(
        "replay", cache_path=tmp_path / "cache.jsonl", transport=panicking_transport
    )
    assert outputs(run(config, gateway=gateway), tmp_path / "replay") == recorded
    assert Counter(gateway.kinds) == transport.started


def test_worker_error_is_raised_in_household_order_and_threads_end(tmp_path):
    threads_before = threading.active_count()
    # Household 4 fails first in time; household 2 comes first in order.
    transport = ReversingTransport(CONFIG, delay=0.01, failing=(2, 4))
    gateway = ChatGateway("record", cache_path=tmp_path / "cache.jsonl", transport=transport)
    with pytest.raises(GatewayError, match="household 2 refused"):
        run(CONFIG, gateway=gateway)
    assert threading.active_count() == threads_before


def test_worker_errors_follow_the_serial_order_and_threads_end(tmp_path):
    threads_before = threading.active_count()
    # Month 4's planner refuses first in time; month 3's reflections come
    # first in the serial order.
    transport = RefusingTransport({"reflection", "planner"})
    gateway = ChatGateway("record", cache_path=tmp_path / "both.jsonl", transport=transport)
    with pytest.raises(GatewayError, match="reflection refused"):
        run(CONFIG, gateway=gateway)
    assert transport.started["planner"] == 2
    assert threading.active_count() == threads_before

    transport = RefusingTransport({"planner"})
    gateway = ChatGateway("record", cache_path=tmp_path / "planner.jsonl", transport=transport)
    with pytest.raises(GatewayError, match="planner refused"):
        run(CONFIG, gateway=gateway)
    assert threading.active_count() == threads_before


def test_no_more_than_fan_out_workers_calls_at_once(tmp_path):
    config = replace(CONFIG, n_households=40)  # month 4's proposal joins 40 reflections
    transport = PeakTransport(FAN_OUT_WORKERS)
    gateway = ChatGateway("record", cache_path=tmp_path / "cache.jsonl", transport=transport)
    run(config, gateway=gateway)
    assert transport.peak == FAN_OUT_WORKERS


def test_replay_runs_stay_on_the_calling_thread():
    config = load_config(FIXTURES / "replay_config.json")
    gateway = ThreadLoggingGateway(
        "replay", cache_path=FIXTURES / "replay_cache.jsonl", transport=panicking_transport
    )
    run(config, gateway=gateway)
    n = config.n_households
    quarter = [("planner", 1), ("decision", 3 * n), ("reflection", n)]
    assert runs_of(gateway.kinds) == [*quarter * 4, ("planner", 1), ("decision", 2 * n)]
    assert gateway.threads and set(gateway.threads) == {threading.get_ident()}


def test_planner_calls_of_rule_based_runs_fan_out():
    # A live planner fans out whatever the household backend.
    config = replace(CONFIG, household_backend="rule_based")
    seeds = (0, 1, 2)
    transport = PeakTransport(len(seeds), timeout=1.0, waiting=("planner",))
    gateway = ThreadLoggingGateway("live", transport=transport)
    sweep(config, ["tax_agent"], seeds, gateway=gateway)
    assert transport.peak == len(seeds)
    # Months 1 and 4's proposals of each run, all on pool threads.
    assert gateway.kinds == ["planner"] * 2 * len(seeds)
    assert threading.get_ident() not in gateway.threads


def test_only_runs_that_make_llm_calls_get_a_gateway_and_fan_out(monkeypatch):
    log: list[tuple[bool, bool]] = []  # (whether the ensemble has a gateway, fan-out)
    simulate, llm_map = simulation._simulate, simulation._llm_map

    def noting_simulate(configs, gateway, *args, **kwargs):
        log.append((gateway is not None, None))
        return simulate(configs, gateway, *args, **kwargs)

    def noting_map(fan_out):
        log[-1] = (log[-1][0], fan_out)
        return llm_map(fan_out)

    monkeypatch.setattr(simulation, "_simulate", noting_simulate)
    monkeypatch.setattr(simulation, "_llm_map", noting_map)
    gateway = ChatGateway("live", transport=deterministic_reply)
    base = replace(CONFIG, household_backend="rule_based")
    sweep(base, ["free", "us_federal", "saez"], [0], gateway=gateway)
    sweep(base, ["us_federal", "tax_agent"], [0], gateway=gateway)
    assert log == [(False, False), (True, True)]
