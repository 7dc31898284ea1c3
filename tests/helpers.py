"""Shared test utilities: independent oracles for the tax, gini, and
optimal-rate computations, the loop form of the Saez schedule,
per-household reference loops for the columnar kernels and a builder of
their per-run market, deterministic offline LLM stand-ins, and the
golden-output cases."""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import Counter, deque
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

from taxsim.config import config_from_dict, load_config
from taxsim.economy import MarketState, TaxSchedule
from taxsim.gateway import ChatGateway, ChatRequest, GatewayError
from taxsim.policies import DegenerateIncomesError, EmptyTailError
from taxsim.simulation import run


def tax_by_cent_integration(
    thresholds: tuple[float, ...], rates: tuple[float, ...], income: float
) -> float:
    """Integrate marginal rates cent by cent over [0, income).

    Exact whenever the thresholds and the income sit on whole cents, since
    the marginal rate is then constant inside every cent interval. Cent i
    (midpoint (i + 0.5) / 100) lies in bracket k exactly when
    c_k <= i < c_k+1, with c_k the threshold in cents, so the per-cent
    rates are each rate repeated over its bracket's cents: the array, and
    so the pairwise sum, of ``tax_by_cent_midpoints``.
    """
    n_cents = int(round(income * 100))
    if n_cents <= 0:
        return 0.0
    cents = np.minimum(np.round(np.asarray(thresholds) * 100).astype(np.int64), n_cents)
    per_cent = np.repeat(np.asarray(rates), np.diff(cents, append=n_cents))
    return float(per_cent.sum() * 0.01)


def tax_by_cent_midpoints(
    thresholds: tuple[float, ...], rates: tuple[float, ...], income: float
) -> float:
    """``tax_by_cent_integration`` with each cent's bracket found from its
    midpoint by ``searchsorted``: the reference for the repeat form."""
    n_cents = int(round(income * 100))
    if n_cents <= 0:
        return 0.0
    midpoints = (np.arange(n_cents) + 0.5) / 100.0
    bracket_of = np.searchsorted(np.asarray(thresholds), midpoints, side="right") - 1
    return float(np.asarray(rates)[bracket_of].sum() * 0.01)


def random_cent_schedule(rng: np.random.Generator, max_threshold: float = 1000.0):
    """Random valid schedule with 2..8 brackets, thresholds on whole cents
    spread log-uniformly up to ``max_threshold`` dollars."""
    n_brackets = int(rng.integers(2, 9))
    raw = 10.0 ** rng.uniform(0.0, np.log10(max_threshold * 100.0), n_brackets - 1)
    cents = sorted(set(int(c) for c in raw if int(c) >= 1))
    thresholds = (0.0, *(c / 100.0 for c in cents))
    rates = tuple(float(r) for r in rng.uniform(0.0, 1.0, len(thresholds)))
    return TaxSchedule(thresholds, rates)


def random_cent_income(rng: np.random.Generator, max_income: float = 1000.0) -> float:
    """Log-uniform income on the cent grid, occasionally exactly zero."""
    if rng.random() < 0.02:
        return 0.0
    return round(float(10.0 ** rng.uniform(-1.0, np.log10(max_income))), 2)


def decimal_quantize(value: float, step: str = "0.02") -> float:
    """Reference quantizer: clamp to [0, 1], then round the decimal repr
    half-up onto the grid through Decimal, one value at a time."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot quantize non-finite value {value!r}")
    clamped = min(max(value, 0.0), 1.0)
    quantum = Decimal(step)
    ticks = (Decimal(repr(clamped)) / quantum).quantize(Decimal("1"), rounding=ROUND_HALF_UP)
    return float(ticks * quantum)


def bracket_loop_tax(schedule: TaxSchedule, income: float) -> float:
    """Reference tax: walk the brackets in order, adding each slice's tax."""
    tax = 0.0
    thresholds = schedule.thresholds
    for k, rate in enumerate(schedule.rates):
        lower = thresholds[k]
        upper = thresholds[k + 1] if k + 1 < len(thresholds) else math.inf
        if income > upper:
            tax += rate * (upper - lower)
        elif income > lower:
            tax += rate * (income - lower)
    return tax


def reference_bracket_table(schedule: TaxSchedule) -> np.ndarray:
    """Reference cumulative tax below each threshold, numpy's ``cumsum``
    of each bracket's ``rate * (hi - lo)``."""
    thresholds, rates = np.array(schedule.thresholds), np.array(schedule.rates)
    return np.concatenate(([0.0], rates[:-1] * np.diff(thresholds))).cumsum()


def sequential_consumption(savings, propensities, price, inventory, rng):
    """Reference consumption round: households buy one by one in the rng's
    shuffled order, each capped by the remaining inventory and by its
    savings. Returns (spent, savings after, inventory after, total demand)."""
    savings = [float(s) for s in savings]
    demands = [float(c) * s / price for c, s in zip(propensities, savings)]
    spent = [0.0] * len(savings)
    for idx in rng.permutation(len(savings)):
        filled = min(demands[idx], inventory)
        cost = min(filled * price, savings[idx])
        savings[idx] = float(max(savings[idx] - cost, 0.0))
        inventory = float(max(inventory - filled, 0.0))
        spent[idx] = float(cost)
    return spent, savings, inventory, float(sum(demands))


def sequential_adjustment(wages, price, mismatch, params, rng):
    """Reference wage and price step: one U(0, max_wage_step * |m|) draw
    per household in order, then one U(0, max_price_step * |m|) for the
    price, each applied as x * (1 + sign(m) * step). Returns (wages after,
    price after)."""
    direction = float(np.sign(mismatch))
    magnitude = abs(float(mismatch))
    wages = [
        float(w) * (1.0 + direction * rng.uniform(0.0, params.max_wage_step * magnitude))
        for w in wages
    ]
    step = rng.uniform(0.0, params.max_price_step * magnitude)
    return wages, float(price) * (1.0 + direction * step)


def adjustment_draws(generators, n: int) -> np.ndarray:
    """The wage and price draws of one adjustment step, one row per
    Generator: its N wage draws, then its price draw."""
    return np.array([generator.random(n + 1) for generator in generators]).reshape(-1, n + 1)


def market_of(price, inventory=0.0, interest_rate=0.0, productivity=1.0) -> MarketState:
    """A ``MarketState`` of one run per price (one run for a scalar price);
    a scalar inventory or interest rate is every run's value."""
    price = np.atleast_1d(np.array(price, dtype=float))
    inventory, interest_rate = (
        np.broadcast_to(np.asarray(x, dtype=float), price.shape).copy()
        for x in (inventory, interest_rate)
    )
    return MarketState(price, inventory, interest_rate, productivity)


def pairwise_gini(values) -> float:
    """Brute-force gini: absolute pairwise differences summed over
    2 * N * total, which equals 2 * N^2 * mean without dividing a subnormal
    total by N (that underflows: [0.0, 5e-324] would give inf)."""
    arr = np.asarray(values, dtype=float)
    total = arr.sum()
    if total == 0:
        return 0.0
    diffs = np.abs(arr[:, None] - arr[None, :]).sum()
    return float(diffs / (2 * arr.size * total))


def oracle_saez_rates(incomes, brackets, elasticity, previous_top=None):
    """Independent optimal-rate assembly with pure-Python counting for the
    empirical CDF and the bracket-histogram density."""
    positive = sorted(z for z in incomes if z > 0)
    m = len(positive)
    assert m >= 2, "oracle needs two positive incomes"
    e = 0.0 if positive[0] == positive[-1] else elasticity

    def cdf(z):
        return sum(1 for x in positive if x <= z) / m

    rates = []
    for k in range(len(brackets) - 1):
        lo, hi = brackets[k], brackets[k + 1]
        share = sum(1 for x in positive if lo <= x < hi) / m
        density = share / (hi - lo)
        mid = (lo + hi) / 2.0
        raw = ((1.0 - cdf(mid)) + e * mid * density) / (1.0 + e * density)
        rates.append(min(max(raw, 0.0), 1.0))
    tail = [x for x in positive if x > brackets[-1]]
    if tail:
        tail_mean = sum(tail) / len(tail)
        pareto = tail_mean / (tail_mean - brackets[-1])
        rates.append(1.0 / (1.0 + pareto * e))
    else:
        assert previous_top is not None, "tail empty and no previous top rate"
        rates.append(previous_top)
    return rates


def reference_marginal_rate(cdf_value, density_value, elasticity, income):
    """``policies.marginal_rate`` before its NaN-rejecting checks: a NaN
    density or income gets through here, and must not there."""
    if not 0.0 <= cdf_value <= 1.0:
        raise ValueError("cdf_value must lie in [0, 1]")
    if density_value < 0:
        raise ValueError("density_value must be >= 0")
    if income < 0:
        raise ValueError("income must be >= 0")
    raw = ((1.0 - cdf_value) + elasticity * income * density_value) / (
        1.0 + elasticity * density_value
    )
    return min(max(raw, 0.0), 1.0)


def reference_saez_schedule(incomes, brackets, params, previous=None) -> TaxSchedule:
    """``policies.saez_schedule`` as a loop over the brackets with scalar
    formulas: the CDF at each midpoint from its own ``searchsorted``, each
    rate clamped with ``min``/``max``, and the tail mean a builtin ``sum``.
    ``saez_schedule`` must return the same schedule, bit for bit, or raise
    the same exception type."""

    def pareto(values, tail_threshold):
        tail = [z for z in values if z > tail_threshold]
        if not tail:
            raise EmptyTailError(f"no incomes above {tail_threshold}")
        tail_mean = sum(tail) / len(tail)
        if tail_mean <= tail_threshold:
            raise EmptyTailError("tail mean does not exceed the threshold")
        return tail_mean / (tail_mean - tail_threshold)

    def top(pareto_param, elasticity):
        if pareto_param <= 0:
            raise ValueError("pareto parameter must be > 0")
        if elasticity < 0:
            raise ValueError("elasticity must be >= 0")
        return 1.0 / (1.0 + pareto_param * elasticity)

    brackets = tuple(float(b) for b in brackets)
    positive = np.sort(np.asarray([z for z in incomes if z > 0], dtype=float))
    if positive.size < 2:
        raise DegenerateIncomesError("need at least two positive incomes")
    count = positive.size
    elasticity = params.elasticity
    if positive[0] == positive[-1]:
        elasticity = 0.0
    edge_index = np.searchsorted(positive, brackets, side="left")
    rates = []
    for k in range(len(brackets) - 1):
        width = brackets[k + 1] - brackets[k]
        share = (edge_index[k + 1] - edge_index[k]) / count
        midpoint = (brackets[k] + brackets[k + 1]) / 2.0
        cdf_mid = np.searchsorted(positive, midpoint, side="right") / count
        rates.append(reference_marginal_rate(cdf_mid, share / width, elasticity, midpoint))
    tail_threshold = (
        params.tail_threshold if params.tail_threshold is not None else brackets[-1]
    )
    try:
        rates.append(top(pareto(positive, tail_threshold), elasticity))
    except EmptyTailError:
        if previous is None:
            raise
        rates.append(previous.rates[-1])
    return TaxSchedule(brackets, tuple(rates))


def deterministic_reply(request: ChatRequest) -> str:
    """Offline transport: a reply derived from the prompt hash, valid for
    whichever template produced the prompt."""
    digest = hashlib.sha256(request.prompt.encode("utf-8")).digest()
    if request.prompt.startswith("You are a tax planner"):
        rates = [round(((digest[i] % 46) + 5) / 100.0, 2) for i in range(7)]
        return str(rates)
    if request.prompt.startswith("You are reviewing your household finances"):
        return "Keep working steadily and trim spending when prices climb."
    work = round(((digest[0] % 41) + 30) / 100.0, 2)
    consumption = round(((digest[1] % 41) + 20) / 100.0, 2)
    return json.dumps({"work": work, "consumption": consumption})


def scripted_gateway(replies) -> ChatGateway:
    """A live gateway whose transport answers with ``replies`` in call
    order, for serial callers only. A call past the last reply, or from a
    thread other than the one that built the gateway (a fanned-out run),
    raises a GatewayError, which no caller falls back from."""
    queue = deque(replies)
    owner = threading.get_ident()

    def send(request: ChatRequest) -> str:
        if threading.get_ident() != owner:
            raise GatewayError("an ordered reply queue cannot answer a fanned-out call")
        if not queue:
            raise GatewayError("scripted reply queue is empty")
        return queue.popleft()

    return ChatGateway("live", transport=send)


class PromptedGateway(ChatGateway):
    """A live gateway whose transport answers ``reply(prompt, attempt)``,
    ``attempt`` being how many times the prompt was asked before. Its
    replies follow from the prompt, not from the order of the calls, so a
    fanned-out run may use it. ``asked`` counts the calls per prompt."""

    def __init__(self, reply) -> None:
        self._reply = reply
        self._lock = threading.Lock()
        self.asked: Counter = Counter()
        super().__init__("live", transport=self._send)

    @property
    def calls(self) -> int:
        return sum(self.asked.values())

    def _send(self, request: ChatRequest) -> str:
        with self._lock:
            attempt = self.asked[request.prompt]
            self.asked[request.prompt] += 1
        return self._reply(request.prompt, attempt)


class FlakyTransport:
    """Raises a ConnectionError on its first ``failures`` calls, then
    answers ``reply``; ``calls`` counts every call."""

    def __init__(self, reply: str, failures: int) -> None:
        self.reply = reply
        self.failures = failures
        self.calls = 0

    def __call__(self, request: ChatRequest) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError("down")
        return self.reply


def panicking_transport(request: ChatRequest) -> str:
    raise AssertionError("transport must not be touched in this mode")


# JSON file paths that cannot be read: a directory, a file that is not UTF-8,
# and one nested deeper than the parser's recursion limit.
UNREADABLE_JSON = ("directory", "not_utf8", "too_deep")


def unreadable_json(tmp_path: Path, kind: str) -> Path:
    """A path of one of the ``UNREADABLE_JSON`` kinds under ``tmp_path``."""
    path = tmp_path / f"{kind}.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b'["\xff"]')
    else:
        path.write_text("[" * 100_000)
    return path


class CountingGateway(ChatGateway):
    """A gateway that counts its ``complete`` calls and keeps their prompts."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = 0
        self.prompts: list[str] = []

    def complete(self, request: ChatRequest) -> str:
        self.calls += 1
        self.prompts.append(request.prompt)
        return super().complete(request)


FIXTURES = Path(__file__).parent / "fixtures"
# The sha256 of comparison.csv for free, us_federal and saez x seeds 0 and 1
# at N=50 x 120; never re-bless it to make a change pass.
COMPARISON_CSV_SHA256 = "ea8e3733ee7de4c57372e03c5f040908354a4bbbe219b85f179999c5ecb2c7ee"
OUTPUT_FILES = ("monthly.csv", "annual.csv", "households.csv", "summary.json")
REPLAY_CASE = "fixture_replay"
# Config overrides per golden case; REPLAY_CASE replays the committed fixture.
# The productivity-0.005 case is the one that reaches the partial fill of
# execute_consumption (inventory below total demand). The tail-2000 case is
# the one whose saez proposals estimate the top rate (30 of 39 at seed 0;
# the other 9 find the tail empty and keep the previous top rate).
GOLDEN_CASES = {
    "free_n50_m120_s0": {"tax_system": "free", "n_households": 50, "months": 120, "seed": 0},
    "us_federal_n50_m120_s0": {"tax_system": "us_federal", "n_households": 50, "months": 120, "seed": 0},
    "saez_n50_m120_s0": {"tax_system": "saez", "n_households": 50, "months": 120, "seed": 0},
    "saez_n1_m30_s1": {"tax_system": "saez", "n_households": 1, "months": 30, "seed": 1},
    "saez_n50_m120_s0_low_productivity": {
        "tax_system": "saez",
        "n_households": 50,
        "months": 120,
        "seed": 0,
        "productivity": 0.005,
    },
    "saez_n50_m120_s0_tail2000": {
        "tax_system": "saez",
        "n_households": 50,
        "months": 120,
        "seed": 0,
        "saez": {"tail_threshold": 2000.0},
    },
    # The proposal period against the run's length: a last period cut short
    # (13 months, period 5), a proposal every month, and a period longer than
    # the run, so that only the month-0 proposal is made.
    "saez_n20_m13_s7_period5": {
        "tax_system": "saez",
        "n_households": 20,
        "months": 13,
        "seed": 7,
        "adjust_period_months": 5,
    },
    "saez_n20_m14_s3_period1": {
        "tax_system": "saez",
        "n_households": 20,
        "months": 14,
        "seed": 3,
        "adjust_period_months": 1,
    },
    "free_n10_m7_s2_period12": {
        "tax_system": "free",
        "n_households": 10,
        "months": 7,
        "seed": 2,
        "adjust_period_months": 12,
    },
    REPLAY_CASE: None,
}


def golden_digests(case: str, out_dir: Path) -> dict[str, str]:
    """Run one golden case, write its outputs under ``out_dir`` and return
    the sha256 of each output file."""
    if case == REPLAY_CASE:
        config = load_config(FIXTURES / "replay_config.json")
        gateway = ChatGateway(
            "replay", cache_path=FIXTURES / "replay_cache.jsonl", transport=panicking_transport
        )
    else:
        config = config_from_dict(GOLDEN_CASES[case])
        gateway = None
    run(config, gateway=gateway).write_outputs(out_dir)
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES
    }
