"""Government-side tax policies.

Two policies, each with a ``propose`` method that maps an observation of
the economy to a full bracketed schedule. Every schedule uses the
``DEFAULT_BRACKETS`` thresholds; policies only move the rates.

  SaezOptimalPolicy - elasticity-based optimal rates re-estimated from the
                      current income distribution each period.
  TaxAgentPolicy    - an LLM planner prompted with incomes, wealth, and the
                      metric history; replies are parsed and validated, and
                      any failure keeps the previous schedule in force.

The two fixed systems are schedules, not policies, since they never
propose: zero rates for the free market (``free_market_schedule``) and the
seven federal marginal rates (``us_federal_schedule``).

``marginal_rate`` is the scalar formula, floats in and a float out.
``saez_schedule`` uses numpy only for the work that grows with the number
of households: the filter and sort of the positive incomes, the
``searchsorted`` calls for the bracket edges and midpoints, and the Pareto
tail; its six finite-bracket rates are ``marginal_rate`` calls on floats.
An observation's incomes and wealth are read-only float arrays, copied
from the run's rows, so a proposal never sees a later month.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from taxsim.config import SaezParams, TaxAgentConfig
from taxsim.economy import TaxSchedule, quantize_fraction
from taxsim.gateway import ChatGateway, ReplyParseError

# Monthly income bracket thresholds shared by every policy, and the federal
# marginal rates used both as a baseline system and as the bootstrap schedule.
DEFAULT_BRACKETS = (0.0, 808.33, 3289.58, 7016.67, 13393.75, 17008.33, 42525.0)
US_FEDERAL_RATES = (0.10, 0.12, 0.22, 0.24, 0.32, 0.35, 0.37)


class EmptyTailError(ValueError):
    """No incomes above the tail threshold; the Pareto tail is undefined."""


class DegenerateIncomesError(ValueError):
    """Too few positive incomes to estimate a distribution."""


class TaxReplyParseError(ReplyParseError):
    """The planner reply contained no well-formed list of seven rates."""


def free_market_schedule() -> TaxSchedule:
    return TaxSchedule(DEFAULT_BRACKETS, (0.0,) * len(DEFAULT_BRACKETS))


def us_federal_schedule() -> TaxSchedule:
    return TaxSchedule(DEFAULT_BRACKETS, US_FEDERAL_RATES)


@dataclass(frozen=True, eq=False)
class PolicyObservation:
    """What a policy sees when asked for new rates: last month's pre-tax
    incomes (zeros for non-workers) and current wealth, one read-only float
    array each, and the per-month schedule (ending with the one in force),
    productivity and equality histories, aligned by month. Not comparable:
    arrays have no single truth value, so ``==`` could not work."""

    month: int
    incomes: np.ndarray
    wealth: np.ndarray
    schedule_history: tuple[TaxSchedule, ...]
    productivity_history: tuple[float, ...]
    equality_history: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.incomes) != len(self.wealth):
            raise ValueError("incomes and wealth must have equal length")
        if not self.schedule_history:
            raise ValueError("schedule_history must end with the schedule in force")


def pareto_parameter(incomes, tail_threshold: float) -> float:
    """Tail-thickness statistic a = mean_tail / (mean_tail - z*) over incomes
    (a sequence or an array) strictly above the threshold z*, the tail mean
    a left-to-right sum in input order over the tail's size. Raises
    EmptyTailError when nothing lies above it."""
    incomes = np.asarray(incomes, dtype=float)
    tail = incomes[incomes > tail_threshold]
    if not tail.size:
        raise EmptyTailError(f"no incomes above {tail_threshold}")
    tail_mean = float(tail.cumsum()[-1]) / tail.size
    if tail_mean <= tail_threshold:
        raise EmptyTailError("tail mean does not exceed the threshold")
    return tail_mean / (tail_mean - tail_threshold)


def top_rate(pareto_param: float, elasticity: float) -> float:
    """Revenue-maximizing top marginal rate 1 / (1 + a * e), in (0, 1]."""
    # Written so that NaN fails too: every comparison with NaN is false.
    if not pareto_param > 0:
        raise ValueError("pareto parameter must be > 0")
    if not elasticity >= 0:
        raise ValueError("elasticity must be >= 0")
    return 1.0 / (1.0 + pareto_param * elasticity)


def marginal_rate(
    cdf_value: float, density_value: float, elasticity: float, income: float
) -> float:
    """Optimal marginal rate ((1 - G) + e*z*g) / (1 + e*g) at income z, given
    the income CDF value G and density g there, clamped into [0, 1] by
    ``min(max(raw, 0.0), 1.0)``, which keeps a ``raw`` of -0.0 (a negative
    elasticity can give one) and NaN."""
    # Written so that NaN fails too: every comparison with NaN is false.
    if not 0.0 <= cdf_value <= 1.0:
        raise ValueError("cdf_value must lie in [0, 1]")
    if not density_value >= 0:
        raise ValueError("density_value must be >= 0")
    if not income >= 0:
        raise ValueError("income must be >= 0")
    raw = ((1.0 - cdf_value) + elasticity * income * density_value) / (
        1.0 + elasticity * density_value
    )
    return min(max(raw, 0.0), 1.0)


def saez_schedule(
    incomes: Sequence[float],
    brackets: Sequence[float],
    params: SaezParams,
    previous: TaxSchedule | None = None,
) -> TaxSchedule:
    """Assemble a full schedule from the current positive incomes.

    Each finite bracket's rate is the optimal marginal rate at the bracket
    midpoint, using the empirical CDF and a bracket-histogram density. The
    top bracket uses the Pareto-tail formula at the top threshold; when the
    tail is empty the previous schedule's top rate carries over. A
    degenerate distribution (all positive incomes equal) falls back to the
    zero-elasticity reduction 1 - G(z).
    """
    brackets = tuple(float(b) for b in brackets)
    incomes = np.asarray(incomes, dtype=float)
    positive = incomes[incomes > 0]
    positive.sort()
    if positive.size < 2:
        raise DegenerateIncomesError("need at least two positive incomes")
    count = positive.size
    elasticity = params.elasticity
    if positive[0] == positive[-1]:
        elasticity = 0.0  # point mass: density is meaningless

    # Share of incomes in each half-open bracket [b_k, b_k+1); the top
    # bracket takes the remainder. Densities are share / width.
    edge_index = positive.searchsorted(brackets, side="left").tolist()
    bounds = list(zip(brackets, brackets[1:]))
    midpoints = [(lo + hi) / 2.0 for lo, hi in bounds]
    below_mid = positive.searchsorted(midpoints, side="right").tolist()
    rates = [
        marginal_rate(below / count, (end - start) / count / (hi - lo), elasticity, mid)
        for below, start, end, (lo, hi), mid in zip(
            below_mid, edge_index, edge_index[1:], bounds, midpoints
        )
    ]

    tail_threshold = (
        params.tail_threshold if params.tail_threshold is not None else brackets[-1]
    )
    try:
        rates.append(top_rate(pareto_parameter(positive, tail_threshold), elasticity))
    except EmptyTailError:
        if previous is None:
            raise
        rates.append(previous.rates[-1])
    return TaxSchedule(brackets, tuple(rates))


class _HistoryEntries(dict):
    """Each month's productivity or equality entry of the planner prompt,
    by value, rendered on the first prompt that shows it and kept: a month's
    value never changes once recorded, and every later prompt of the run
    shows it again. Only a float with a fraction is kept: ``0.0`` and
    ``-0.0`` are one key and render apart, and so are ``1.0`` and ``1``.
    The memo is emptied when it reaches ``limit`` entries, so a long
    process keeps it small."""

    limit = 4096

    def __missing__(self, value: float) -> str:
        text = f" ({round(value, 2)})"
        if type(value) is float and not value.is_integer():
            if len(self) >= self.limit:
                self.clear()
            self[value] = text
        return text


_HISTORY_ENTRIES = _HistoryEntries()


def build_tax_prompt(observation: PolicyObservation) -> str:
    """Render the planner prompt: fixed brackets, last month's incomes and
    current wealth, the past schedules, and the metric histories, ending
    with the JSON list-of-seven instruction."""
    bracket_text = "[" + ", ".join(f"{b:.2f}" for b in DEFAULT_BRACKETS) + "]"
    income_text = "[" + ", ".join(str(round(z, 2)) for z in observation.incomes.tolist()) + "]"
    wealth_text = "[" + ", ".join(str(round(w, 2)) for w in observation.wealth.tolist()) + "]"
    schedule_text = (
        "[([" + ", ".join(s.planner_text for s in observation.schedule_history) + "])]"
    )
    entry = _HISTORY_ENTRIES.__getitem__
    productivity_text = "[" + ", ".join(map(entry, observation.productivity_history)) + "]"
    equality_text = "[" + ", ".join(map(entry, observation.equality_history)) + "]"
    return (
        "You are a tax planner in charge of adjusting the tax rates of each "
        "income brackets. You will decide the tax rate in next period applied "
        f"cumulatively to the income of agents in the seven {bracket_text} "
        "income brackets. Last month, the incomes and wealth of individuals "
        f"living in your society were ${income_text} and ${wealth_text}. "
        f"The tax rates you set in the past months were {schedule_text}. "
        "The average per-capita productivity in the last months were "
        f"{productivity_text}: the past months' equality performances were "
        f"{equality_text}(the higher, the more equal). Adjust the tax rates "
        "to build a society that you consider best for society. You have the "
        "total freedom to adjust the rates! Provide your decision in a JSON "
        "format. The decision should be a list with seven values (each value "
        "between 0 and 1 with intervals of 0.01). Please only provide me a "
        "list with seven values between 0 and 1! Do not provide anything "
        "else! Keep the thinking process to yourself."
    )


_BRACKETED_GROUP = re.compile(r"\[([^\[\]]*)\]")


def parse_tax_reply(text: str) -> tuple[float, ...]:
    """Extract the first bracketed list of exactly seven numbers from a
    reply, clamp each into [0, 1], and snap to the 0.01 grid. Surrounding
    chatter is ignored; anything else raises TaxReplyParseError."""
    for match in _BRACKETED_GROUP.finditer(text):
        parts = [p.strip() for p in match.group(1).split(",")]
        if len(parts) != 7:
            continue
        try:
            values = [float(p) for p in parts]
        except ValueError:
            continue
        try:
            return tuple(quantize_fraction(v, "0.01") for v in values)
        except ValueError:
            continue  # non-finite entries
    raise TaxReplyParseError("reply contains no list of seven rates")


class SaezOptimalPolicy:
    """Re-derives optimal rates from the observed income distribution; any
    estimation failure keeps the previous schedule."""

    def __init__(self, params: SaezParams | None = None) -> None:
        self.params = params or SaezParams()

    def propose(self, observation: PolicyObservation) -> TaxSchedule:
        previous = observation.schedule_history[-1]
        try:
            return saez_schedule(
                observation.incomes, DEFAULT_BRACKETS, self.params, previous=previous
            )
        except (DegenerateIncomesError, EmptyTailError):
            return previous


class TaxAgentPolicy:
    """LLM-backed planner: the gateway's ``ask``, which retries a reply
    that does not parse or a failed transport; when no reply parses the
    previous schedule stays in force. A replay cache miss is fatal and
    propagates."""

    def __init__(self, gateway: ChatGateway, config: TaxAgentConfig | None = None) -> None:
        self.gateway = gateway
        self.config = config or TaxAgentConfig()

    def propose(self, observation: PolicyObservation) -> TaxSchedule:
        rates = self.gateway.ask(self.config, build_tax_prompt(observation), parse_tax_reply)
        if rates is None:
            return observation.schedule_history[-1]
        return TaxSchedule(DEFAULT_BRACKETS, rates)
