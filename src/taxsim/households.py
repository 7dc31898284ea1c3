"""Household decision backends.

Each month a household picks a work propensity and a consumption propensity,
both on a 0.02 grid. The LLM backend renders a persona-grounded prompt over
the household's economic situation and parses a two-key JSON reply, one
household at a time. The rule-based decision is a deterministic offline
stand-in computed for the whole population in one array pass. Quarterly, LLM
households distill their memory of past months into a free-text reflection
note that is appended to later prompts.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Collection

import numpy as np

from taxsim.config import HouseholdLLMConfig
from taxsim.economy import Persona, TaxSchedule, quantize_fraction
from taxsim.gateway import ChatGateway, ReplyParseError

INCREASED = "increased"
DECREASED = "decreased"
UNCHANGED = "unchanged"

_INCOME_PHRASES = {
    INCREASED: "increased compared to last month due to inflation of the labor market",
    DECREASED: "decreased compared to last month due to deflation of the labor market",
    UNCHANGED: "is unchanged compared to last month",
}
_PRICE_PHRASES = {
    INCREASED: "Inflation has led to a price increase in the consumption market",
    DECREASED: "Deflation has led to a price decrease in the consumption market",
    UNCHANGED: "The price level in the consumption market is unchanged",
}


class DecisionError(ReplyParseError):
    """The backend could not produce a usable decision."""


@dataclass(frozen=True)
class Decision:
    """A (work, consumption) propensity pair on the 0.02 grid."""

    work_propensity: float
    consumption_propensity: float


DEFAULT_DECISION = Decision(0.6, 0.4)  # month-0 fallback before any history


@dataclass(frozen=True)
class DecisionMonth:
    """What every household observes alike in one month: the date, last
    month's and this month's schedules, the average price and its direction,
    and the interest rate. An LLM run builds one a month, so its checks
    run and its prompt texts render once a month, not once a household."""

    date: str  # "YYYY.MM"
    previous_schedule: TaxSchedule
    current_schedule: TaxSchedule
    average_price: float
    interest_rate: float
    price_direction: str = UNCHANGED

    def __post_init__(self) -> None:
        if not self.average_price > 0:  # NaN fails too
            raise ValueError("average_price must be > 0")
        if self.price_direction not in _PRICE_PHRASES:
            raise ValueError(f"unknown price_direction {self.price_direction!r}")

    @cached_property
    def prompt_texts(self) -> tuple[str, str]:
        """The decision prompt's text from "Part of your income" through
        "savings account balance is $", and from ". Interest rates" to the
        end: the same in every household's prompt of the month."""
        brackets, _, new_rates = self.current_schedule.prompt_texts
        old_rates = self.previous_schedule.prompt_texts[1]
        return (
            "Part of your income last month was witheld as income tax. Last "
            f"month, the tax brackets are: {brackets} and their corresponding "
            f"rates are: {old_rates}. Income earned within each bracket is taxed "
            "only at that bracket's rate. This month, according to the tax "
            "planner, the brackets are not changed. But the planner updated "
            f"corresponding rates: {new_rates}. Income earned within each "
            "bracket is taxed at that bracket's rate. Pay attention to the tax "
            "rates because they may be different from the previous ones and you "
            "need to make your decision based on the current rates "
            f"{_PRICE_PHRASES[self.price_direction]}, with the average price of "
            f"essential goods now at ${self.average_price:.2f}. Your current "
            "savings account balance is $",
            ". Interest rates, as set by your bank, stand at "
            f"{self.interest_rate * 100:.2f}%. Considering aspects like your "
            "living costs, future aspirations, broader economic trends, and the "
            "tax you need to pay, how is your willingness to work this month? How "
            "would you plan your expenditures on essential goods? Provide your "
            "decisions in a JSON format. The format should have two keys: 'work' "
            "(a value between 0 and 1 with intervals of 0.02, indicating the "
            "willingness or propensity to work) and 'consumption' (a value "
            "between 0 and 1 with intervals of 0.02, indicating the proportion of "
            "all your savings and income you intend to spend on essential goods). "
            "Keep in mind, only provide your decisions in a JSON format with two "
            "keys and two values. Do not contain any other content in your "
            "response. Keep the thinking process to yourself. I only need two "
            "key-value pairs.",
        )


def memory_line(
    date: str,
    work_propensity: float,
    consumption_propensity: float,
    pretax_income: float,
    posttax_income: float,
    consumption: float,
) -> str:
    """One month's line of the quarterly self-review prompt, all the review
    reads of the month. It is rendered once, when the month ends: a line
    stays in memory for up to four reviews, and nearly every line reaches
    one. A household's memory is a ``deque(maxlen=12)`` of its lines, oldest first."""
    return (
        f"{date}: work propensity {work_propensity:.2f}, consumption "
        f"propensity {consumption_propensity:.2f}, pre-tax income "
        f"${pretax_income:.2f}, post-tax income ${posttax_income:.2f}, "
        f"spent ${consumption:.2f}"
    )


def build_household_prompt(
    month: DecisionMonth,
    persona: Persona,
    expected_income: float,
    savings: float,
    income_direction: str,
    last_consumption: float,
    reflection_note: str = "",
) -> str:
    """Render the monthly decision prompt of one household, field for
    field: persona, date, expected income and its direction, last
    consumption, old and new tax schedules, price, savings, interest rate,
    and the two-key JSON instruction on the 0.02 grid. A non-empty
    reflection note is appended. The persona's and the month's texts are
    rendered once each; only the household's own values are rendered here.
    The amounts are not checked: the month checks them for every household
    at once (``_LLMHouseholds.decide``)."""
    try:
        income = _INCOME_PHRASES[income_direction]
    except KeyError:
        raise ValueError(f"unknown income_direction {income_direction!r}") from None
    head, occupation = persona.prompt_texts
    taxes, interest = month.prompt_texts
    note = reflection_note
    return (
        f"{head}{month.date}{occupation}{expected_income:.2f}, which {income}. "
        f"Besides, your consumption was ${last_consumption:.2f}. "
        f"{taxes}{savings:.2f}{interest}"
        f"{f' Your reflection on your earlier decisions: {note}' if note else ''}"
    )


def build_reflection_prompt(memory: Collection[str]) -> str:
    """Render the quarterly self-review prompt from the memory lines."""
    return (
        "You are reviewing your household finances. Here is your record of "
        "recent months:\n" + "\n".join(memory) + "\n"
        "Write a short note to yourself (two or three sentences) with lessons "
        "from these months to guide your upcoming work and spending "
        "decisions. Reply with the note only."
    )


_JSON_OBJECT = re.compile(r"\{[^{}]*\}", re.DOTALL)

# What ``json.loads`` raises on a text that is no JSON (JSONDecodeError is a
# ValueError), and on one nested deeper than the decoder goes.
_NOT_JSON = (ValueError, RecursionError)


def parse_decision_reply(text: str) -> Decision:
    """Parse a {"work": x, "consumption": y} reply into a grid-valid
    Decision; values are clamped and snapped (a -0.0 reads as 0.0), and
    anything unparsable raises DecisionError. The whole text is read as
    JSON, or else each brace pair in it with no brace inside; the first that
    holds a numeric "work" and "consumption" wins."""
    candidates = []
    try:
        candidates.append(json.loads(text))
    except _NOT_JSON:
        candidates.extend(_JSON_OBJECT.findall(text))
    for candidate in candidates:
        payload = candidate
        if isinstance(payload, str):
            try:
                payload = json.loads(payload)
            except _NOT_JSON:
                continue
        if not isinstance(payload, dict):
            continue
        work = payload.get("work")
        consumption = payload.get("consumption")
        if isinstance(work, bool) or isinstance(consumption, bool):
            continue
        if not isinstance(work, (int, float)) or not isinstance(
            consumption, (int, float)
        ):
            continue
        try:
            return Decision(quantize_fraction(work) + 0.0, quantize_fraction(consumption) + 0.0)
        except ValueError:
            continue  # non-finite numbers
    raise DecisionError("reply contains no work/consumption object")


def rule_based_decide(tax, expected_income, savings, price: float) -> tuple:
    """Deterministic offline decision rule, for one household (scalars) or
    the whole population (arrays); returns (work, consumption) propensities
    on the 0.02 grid. ``tax`` is ``compute_tax`` of the expected income
    under the schedule in force, which the month computes once and
    taxation reuses.

    Work appetite falls linearly with the average tax rate on the expected
    income (floor 0.2 at full confiscation); the consumption share targets
    roughly three units of the good out of reachable wealth, capped at 0.95.
    """
    average_rate = tax / np.maximum(expected_income, 1.0)
    work = quantize_fraction(0.2 + 0.8 * (1.0 - average_rate))
    reachable = savings + expected_income * (1.0 - average_rate)
    consumption = quantize_fraction(
        np.minimum(0.95, 3.0 * price / np.maximum(reachable, price))
    )
    return work, consumption


class LLMBackend:
    """LLM-driven decisions and reflections through a chat gateway.

    Each is the gateway's ``ask``. A decision asks a rendered prompt and
    raises DecisionError for the caller's fallback when no reply parses; a
    reflection takes any text and returns None when no attempt gets one. A
    replay cache miss propagates.
    """

    def __init__(
        self, gateway: ChatGateway, config: HouseholdLLMConfig | None = None
    ) -> None:
        self.gateway = gateway
        self.config = config or HouseholdLLMConfig()

    def decide(self, prompt: str) -> Decision:
        decision = self.gateway.ask(self.config, prompt, parse_decision_reply)
        if decision is None:
            raise DecisionError("no parsable decision after retries")
        return decision

    def reflect(self, memory: Collection[str]) -> str | None:
        return self.gateway.ask(self.config, build_reflection_prompt(memory), str.strip)


def decide(
    backend: LLMBackend,
    prompt: str,
    fallback: Decision = DEFAULT_DECISION,
) -> Decision:
    """Total decision step: the backend's parsed decision on a rendered
    prompt, or when no reply parses, transport failures included, the
    fallback (the household's previous decision, or the documented month-0
    default). Both are on the grid already: the parser snaps every reply."""
    try:
        return backend.decide(prompt)
    except DecisionError:
        return fallback


def reflect(backend: LLMBackend, memory: Collection[str], previous: str = "") -> str:
    """Total reflection step: empty memory yields an empty note, and a
    reflection that gets no reply keeps the previous note."""
    if not memory:
        return ""
    note = backend.reflect(memory)
    return previous if note is None else note
