from __future__ import annotations

import math
from collections import deque
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taxsim.households as households_module
from helpers import (
    CountingGateway,
    FlakyTransport,
    PromptedGateway,
    bracket_loop_tax,
    deterministic_reply,
    scripted_gateway,
)
from taxsim.config import SimConfig
from taxsim.economy import Persona, TaxSchedule
from taxsim.gateway import ChatGateway, ReplayMissError
from taxsim.households import (
    _INCOME_PHRASES,
    _PRICE_PHRASES,
    DECREASED,
    DEFAULT_DECISION,
    INCREASED,
    UNCHANGED,
    Decision,
    DecisionError,
    DecisionMonth,
    HouseholdLLMConfig,
    LLMBackend,
    build_household_prompt,
    build_reflection_prompt,
    decide,
    memory_line,
    parse_decision_reply,
    reflect,
    rule_based_decide,
)
from taxsim.personas import load_personas
from taxsim.policies import DEFAULT_BRACKETS, US_FEDERAL_RATES, free_market_schedule
from taxsim.simulation import _Ensemble, month_label, run

ADAM = Persona("Adam Mills", 58, "San Antonio, Texas", "Newspaper Delivery")
FEDERAL = TaxSchedule(DEFAULT_BRACKETS, US_FEDERAL_RATES)


MONTH_FIELDS = tuple(f.name for f in fields(DecisionMonth))


# Adam's March 2001: the month's and the household's values.
ADAM_MARCH = dict(
    date="2001.03",
    persona=ADAM,
    expected_income=567.18,
    previous_schedule=FEDERAL,
    current_schedule=FEDERAL,
    average_price=126.78,
    savings=13072.25,
    interest_rate=0.03,
    income_direction="decreased",
    price_direction="decreased",
    last_consumption=544.68,
)


def context(**overrides) -> dict:
    """Adam's ``build_household_prompt`` arguments for March 2001; an
    override of a month field goes to their DecisionMonth."""
    base = {**ADAM_MARCH, **overrides}
    month = DecisionMonth(**{name: base.pop(name) for name in MONTH_FIELDS})
    return dict(month=month, **base)


def prompt(**overrides) -> str:
    """Adam's March 2001 prompt, with ``context``'s overrides."""
    return build_household_prompt(**context(**overrides))


def template_prompt(
    date,
    persona,
    expected_income,
    previous_schedule,
    current_schedule,
    average_price,
    savings,
    interest_rate,
    income_direction="unchanged",
    price_direction="unchanged",
    last_consumption=0.0,
    reflection_note="",
) -> str:
    """The decision prompt as one template renders it whole, every field
    formatted inline: the oracle of the renderer that reuses the persona's
    and the month's texts."""

    brackets = "[" + ", ".join(f"{b:.2f}" for b in current_schedule.thresholds) + "]"
    old_rates = "[" + ", ".join(f"{r:.2f}" for r in previous_schedule.rates) + "]"
    new_rates = "[" + ", ".join(f"{r * 100:.2f}%" for r in current_schedule.rates) + "]"
    prompt = (
        f"You're {persona.name}, a {persona.age}-year-old individual living in "
        f"{persona.city}. A tax planner adjusts your tax rates periodically. "
        f"Now it's {date}. Last month, you worked as a(an) "
        f"{persona.occupation}. If you continue working this month, your "
        f"expected income will be ${expected_income:.2f}, which "
        f"{_INCOME_PHRASES[income_direction]}. Besides, your "
        f"consumption was ${last_consumption:.2f}. Part of your income "
        "last month was witheld as income tax. Last month, the tax brackets "
        f"are: {brackets} and their corresponding rates are: {old_rates}. "
        "Income earned within each bracket is taxed only at that bracket's "
        "rate. This month, according to the tax planner, the brackets are not "
        f"changed. But the planner updated corresponding rates: {new_rates}. "
        "Income earned within each bracket is taxed at that bracket's rate. "
        "Pay attention to the tax rates because they may be different from "
        "the previous ones and you need to make your decision based on the "
        f"current rates {_PRICE_PHRASES[price_direction]}, with the "
        f"average price of essential goods now at ${average_price:.2f}. "
        f"Your current savings account balance is ${savings:.2f}. "
        f"Interest rates, as set by your bank, stand at "
        f"{interest_rate * 100:.2f}%. Considering aspects like your "
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
        "key-value pairs."
    )
    if reflection_note:
        prompt += f" Your reflection on your earlier decisions: {reflection_note}"
    return prompt


# Values on or beside a 0.005 rounding boundary of {:.2f}, as amounts and, for
# rates, also of {r * 100:.2f}.
BOUNDARY_AMOUNTS = st.sampled_from([0.005, 0.125, 0.135, 2.675, 1.005, 808.335, 7016.665])
BOUNDARY_RATES = st.sampled_from(
    [0.0, 0.005, 0.015, 0.125, 0.135, 0.145, 0.995, 1.0, 0.00005, 0.12345, 0.99995]
)
# Persona and note text with quotes, backslashes, non-ASCII and line breaks.
PERSONA_TEXT = st.text(
    st.one_of(st.sampled_from(list("a Z'\"\\\n\r\t{}%$é中\u2028😀")), st.characters()),
    min_size=1,
    max_size=12,
)


class TestBuildHouseholdPrompt:
    def test_golden_prompt(self, fixtures_dir):
        expected = (fixtures_dir / "household_prompt_golden.txt").read_text()[:-1]
        assert prompt() == expected

    def test_required_fields_present(self):
        text = prompt()
        assert "[0.00, 808.33, 3289.58, 7016.67, 13393.75, 17008.33, 42525.00]" in text
        assert "intervals of 0.02" in text
        assert "[0.10, 0.12, 0.22, 0.24, 0.32, 0.35, 0.37]" in text
        assert "[10.00%, 12.00%, 22.00%, 24.00%, 32.00%, 35.00%, 37.00%]" in text
        assert "Provide your decisions in a JSON format." in text
        assert "the brackets are not changed" in text

    def test_income_direction_phrases(self):
        assert "decreased compared to last month" in prompt(income_direction="decreased")
        assert "increased compared to last month" in prompt(income_direction="increased")
        assert "is unchanged compared to last month" in prompt(income_direction="unchanged")

    def test_price_direction_phrases(self):
        assert "Deflation has led to a price decrease" in prompt(price_direction="decreased")
        assert "Inflation has led to a price increase" in prompt(price_direction="increased")

    def test_reflection_note_appended_when_present(self):
        note = "save more when prices rise"
        assert prompt(reflection_note=note).endswith(note)
        assert note not in prompt()

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="income_direction"):
            prompt(income_direction="sideways")
        with pytest.raises(ValueError, match="price_direction"):
            context(price_direction="sideways")

    @pytest.mark.parametrize("price", [math.nan, 0.0, -1.0])
    def test_month_rejects_nan_or_nonpositive_price(self, price):
        with pytest.raises(ValueError, match="average_price"):
            context(average_price=price)

    # Each amount a prompt shows, by the ensemble array that holds it.
    @pytest.mark.parametrize(
        "array",
        ["expected", "savings", "spent"],
        ids=["expected_income", "savings", "last_consumption"],
    )
    @pytest.mark.parametrize("value", [math.nan, -1.0, -0.01])
    def test_month_rejects_nan_or_negative_currency(self, array, value):
        # Checked once a month over the whole ensemble, before any call.
        gateway = CountingGateway("live", transport=deterministic_reply)
        config = SimConfig(n_households=3, months=1, household_backend="llm")
        state = _Ensemble([config], gateway, load_personas(), False)
        state.map = map
        state.expected = np.full_like(state.wage, 567.18)
        getattr(state, array)[0, 1] = value
        with pytest.raises(ValueError, match="currency"):
            state.households.decide(state, 1)
        assert gateway.calls == 0

    @given(
        persona=st.builds(
            Persona,
            name=PERSONA_TEXT,
            age=st.integers(1, 120),
            city=PERSONA_TEXT,
            occupation=PERSONA_TEXT,
        ),
        date=st.sampled_from(["2001.01", "2001.03", "2010.12"]),
        amounts=st.lists(st.one_of(BOUNDARY_AMOUNTS, st.floats(0, 1e7)), min_size=3, max_size=3),
        average_price=st.one_of(BOUNDARY_AMOUNTS, st.floats(1e-3, 1e6)),
        interest_rate=st.one_of(BOUNDARY_RATES, st.floats(-1, 1)),
        rates=st.lists(st.lists(BOUNDARY_RATES, min_size=7, max_size=7), min_size=2, max_size=2),
        directions=st.lists(st.sampled_from([INCREASED, DECREASED, UNCHANGED]), min_size=2, max_size=2),
        reflection_note=st.one_of(st.just(""), PERSONA_TEXT),
    )
    @settings(max_examples=300, deadline=None)
    def test_prompt_matches_whole_template(
        self, persona, date, amounts, average_price, interest_rate, rates, directions, reflection_note
    ):
        values = dict(
            date=date,
            persona=persona,
            expected_income=amounts[0],
            previous_schedule=TaxSchedule(DEFAULT_BRACKETS, rates[0]),
            current_schedule=TaxSchedule(DEFAULT_BRACKETS, rates[1]),
            average_price=average_price,
            savings=amounts[1],
            interest_rate=interest_rate,
            income_direction=directions[0],
            price_direction=directions[1],
            last_consumption=amounts[2],
            reflection_note=reflection_note,
        )
        assert prompt(**values) == template_prompt(**values)

    @given(
        gaps=st.lists(st.one_of(BOUNDARY_AMOUNTS, st.floats(1e-3, 1e6)), max_size=7),
        rates=st.lists(st.one_of(BOUNDARY_RATES, st.floats(0, 1)), min_size=8, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_schedule_texts_match_inline_formatting(self, gaps, rates):
        thresholds = [0.0]
        for gap in gaps:
            thresholds.append(thresholds[-1] + gap)
        schedule = TaxSchedule(tuple(thresholds), tuple(rates[: len(thresholds)]))
        # The schedule texts as the prompt formatted them inline, per prompt.
        assert schedule.prompt_texts == (
            "[" + ", ".join(f"{b:.2f}" for b in schedule.thresholds) + "]",
            "[" + ", ".join(f"{r:.2f}" for r in schedule.rates) + "]",
            "[" + ", ".join(f"{r * 100:.2f}%" for r in schedule.rates) + "]",
        )


# A reply nested deeper than the JSON decoder goes, whole and as the value of
# a "{...}" candidate in chatter.
NESTED_REPLIES = ["[" * 100_000, 'Sure! {"work": ' + "[" * 100_000 + ', "consumption": 0.5}']


class TestParseDecisionReply:
    def test_plain_json(self):
        decision = parse_decision_reply('{"work": 0.8, "consumption": 0.6}')
        assert decision == Decision(0.8, 0.6)

    def test_off_grid_value_quantized_half_up(self):
        decision = parse_decision_reply('{"work": 0.83, "consumption": 0.6}')
        assert decision.work_propensity == pytest.approx(0.84)

    def test_json_with_chatter(self):
        text = 'Sure thing. {"work": 0.5, "consumption": 0.22} That is my answer.'
        assert parse_decision_reply(text) == Decision(0.5, 0.22)

    def test_free_text_rejected(self):
        with pytest.raises(DecisionError):
            parse_decision_reply("I think 1.5 work")

    def test_out_of_range_values_clamped(self):
        decision = parse_decision_reply('{"work": 1.5, "consumption": -2.0}')
        assert decision == Decision(1.0, 0.0)

    @pytest.mark.parametrize("chatter", ["", "Sure! "])
    def test_negative_zero_reads_as_zero(self, chatter):
        # A -0.0 propensity would be written as "-0.000000" in households.csv.
        decision = parse_decision_reply(chatter + '{"work": -0.0, "consumption": -0.0}')
        assert decision == Decision(0.0, 0.0)
        signs = [math.copysign(1.0, p) for p in astuple(decision)]
        assert signs == [1.0, 1.0]

    def test_missing_key_rejected(self):
        with pytest.raises(DecisionError):
            parse_decision_reply('{"work": 0.5}')

    def test_non_numeric_values_rejected(self):
        with pytest.raises(DecisionError):
            parse_decision_reply('{"work": "lots", "consumption": 0.5}')
        with pytest.raises(DecisionError):
            parse_decision_reply('{"work": true, "consumption": 0.5}')

    def test_repeated_reply_parses_to_an_equal_decision(self):
        text = '{"work": 0.42, "consumption": 0.58}'
        first = parse_decision_reply(text)
        assert first == Decision(0.42, 0.58)
        for copy in (text, "".join(list(text))):
            assert parse_decision_reply(copy) == first

    @pytest.mark.parametrize("chatter", ["", "Sure! "])
    def test_integer_beyond_float_range_rejected(self, chatter):
        with pytest.raises(DecisionError):
            parse_decision_reply(chatter + '{"work": 1' + "0" * 400 + ', "consumption": 0.5}')

    def test_malformed_reply_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(DecisionError):
                parse_decision_reply("no decision here")
            with pytest.raises(DecisionError):
                parse_decision_reply('{"work": NaN, "consumption": 0.5}')

    @given(
        work=st.floats(min_value=-3, max_value=3, allow_nan=False),
        consumption=st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_numeric_reply_lands_on_grid(self, work, consumption):
        decision = parse_decision_reply(
            f'{{"work": {work}, "consumption": {consumption}}}'
        )
        for p in (decision.work_propensity, decision.consumption_propensity):
            assert 0.0 <= p <= 1.0
            assert abs(p * 50 - round(p * 50)) < 1e-9

    @pytest.mark.parametrize("text", NESTED_REPLIES, ids=["bare", "in_an_object"])
    def test_reply_nested_past_the_decoder_rejected(self, text):
        with pytest.raises(DecisionError):
            parse_decision_reply(text)


def rule_decision(ctx: dict) -> Decision:
    """The rule-based decision for one household's ``context``."""
    month, expected = ctx["month"], ctx["expected_income"]
    tax = bracket_loop_tax(month.current_schedule, expected)
    return Decision(*rule_based_decide(tax, expected, ctx["savings"], month.average_price))


class TestRuleBasedDecide:
    def test_zero_tax_case(self):
        ctx = context(
            current_schedule=free_market_schedule(),
            expected_income=1000.0,
            savings=0.0,
            average_price=100.0,
        )
        decision = rule_decision(ctx)
        assert decision.work_propensity == 1.0
        assert decision.consumption_propensity == pytest.approx(0.3)

    def test_full_confiscation_floors_work(self):
        flat_100 = TaxSchedule((0.0, 100.0), (1.0, 1.0))
        ctx = context(current_schedule=flat_100, expected_income=1000.0)
        assert rule_decision(ctx).work_propensity == pytest.approx(0.2)

    def test_large_savings_target_subsistence_consumption(self):
        ctx = context(
            current_schedule=free_market_schedule(),
            expected_income=0.0,
            savings=15_000.0,
            average_price=100.0,
        )
        decision = rule_decision(ctx)
        assert decision.consumption_propensity == pytest.approx(0.02)
        # the implied spend is about three units of the good
        assert decision.consumption_propensity * ctx["savings"] == pytest.approx(
            3 * ctx["month"].average_price, rel=0.5
        )

    def test_deterministic(self):
        assert rule_decision(context()) == rule_decision(context())

    def test_work_nonincreasing_in_tax_burden(self):
        last = 1.0
        for top in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            schedule = TaxSchedule((0.0,), (top,))
            ctx = context(current_schedule=schedule, expected_income=2000.0)
            work = rule_decision(ctx).work_propensity
            assert work <= last + 1e-12
            last = work


class TestDecide:
    def test_scripted_llm_decision(self):
        backend = LLMBackend(
            scripted_gateway(['{"work": 0.8, "consumption": 0.6}']),
            HouseholdLLMConfig(max_retries=1),
        )
        assert decide(backend, prompt()) == Decision(0.8, 0.6)

    def test_parse_failure_returns_fallback(self):
        backend = LLMBackend(
            scripted_gateway(["nonsense"]), HouseholdLLMConfig(max_retries=1)
        )
        previous = Decision(0.44, 0.38)
        assert decide(backend, prompt(), fallback=previous) == previous

    def test_huge_integer_reply_returns_fallback(self):
        reply = '{"work": 0.5, "consumption": 1' + "0" * 400 + "}"
        backend = LLMBackend(scripted_gateway([reply]), HouseholdLLMConfig(max_retries=1))
        previous = Decision(0.44, 0.38)
        assert decide(backend, prompt(), fallback=previous) == previous

    def test_default_fallback_is_documented_constant(self):
        backend = LLMBackend(
            scripted_gateway(["nonsense"]), HouseholdLLMConfig(max_retries=1)
        )
        assert decide(backend, prompt()) == DEFAULT_DECISION == Decision(0.6, 0.4)

    def test_retry_consumes_next_reply(self):
        backend = LLMBackend(
            scripted_gateway(["bad", '{"work": 0.5, "consumption": 0.5}']),
            HouseholdLLMConfig(max_retries=2),
        )
        assert decide(backend, prompt()) == Decision(0.5, 0.5)

    def test_failed_complete_is_retried(self):
        # One attempt is one transport call: the first fails, the second answers.
        transport = FlakyTransport('{"work": 0.8, "consumption": 0.6}', 1)
        gateway = CountingGateway("live", transport=transport, sleeper=lambda _: None)
        assert decide(LLMBackend(gateway), prompt()) == Decision(0.8, 0.6)
        assert gateway.calls == transport.calls == 2

    def test_reply_that_is_not_text_returns_fallback(self):
        sleeps: list[float] = []
        gateway = CountingGateway("live", transport=lambda request: None, sleeper=sleeps.append)
        previous = Decision(0.44, 0.38)
        assert decide(LLMBackend(gateway), prompt(), fallback=previous) == previous
        assert gateway.calls == HouseholdLLMConfig().max_retries
        assert sleeps == [1.0, 2.0]

    def test_null_http_content_returns_fallback(self, monkeypatch):
        # An OpenAI-style reply whose message content is null.
        import requests

        class NullContent:
            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"role": "assistant", "content": None}}]}

        posts = []
        monkeypatch.setattr(requests, "post", lambda *a, **kw: posts.append(kw) or NullContent())
        monkeypatch.setenv("TAXSIM_API_KEY", "key")
        sleeps: list[float] = []
        gateway = ChatGateway("live", endpoint="http://example.invalid", sleeper=sleeps.append)
        previous = Decision(0.44, 0.38)
        assert decide(LLMBackend(gateway), prompt(), fallback=previous) == previous
        assert len(posts) == HouseholdLLMConfig().max_retries
        assert sleeps == [1.0, 2.0]

    def test_parse_function_is_looked_up_when_called(self, monkeypatch):
        # What lets a tracer replace it in the module's namespace.
        seen = []

        def parse(text):
            seen.append(text)
            return parse_decision_reply(text)

        monkeypatch.setattr(households_module, "parse_decision_reply", parse)
        reply = '{"work": 0.8, "consumption": 0.6}'
        assert LLMBackend(scripted_gateway([reply])).decide(prompt()) == Decision(0.8, 0.6)
        assert seen == [reply]

    def test_replayed_malformed_reply_is_asked_for_once(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        previous = Decision(0.44, 0.38)
        recorder = CountingGateway("record", cache_path=cache, transport=lambda request: "bad")
        assert decide(LLMBackend(recorder), prompt(), fallback=previous) == previous
        assert recorder.calls == HouseholdLLMConfig().max_retries
        # Asking the cache again would only return the same reply.
        replayer = CountingGateway("replay", cache_path=cache)
        assert decide(LLMBackend(replayer), prompt(), fallback=previous) == previous
        assert replayer.calls == 1

    @pytest.mark.parametrize("reply", NESTED_REPLIES, ids=["bare", "in_an_object"])
    def test_nested_reply_falls_back_in_a_live_run(self, reply):
        gateway = PromptedGateway(lambda prompt, attempt: reply)
        config = SimConfig(n_households=2, months=1, household_backend="llm")
        households = run(config, gateway=gateway).households
        assert households["work_propensity"].tolist() == [[0.6, 0.6]]
        assert households["consumption_propensity"].tolist() == [[0.4, 0.4]]
        assert gateway.calls == 2 * HouseholdLLMConfig().max_retries

    def test_replay_miss_propagates(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("")
        backend = LLMBackend(ChatGateway("replay", cache_path=cache))
        with pytest.raises(ReplayMissError):
            decide(backend, prompt())


# Twelve months whose values sit on or beside a 0.005 rounding boundary, so
# the golden pins how {:.2f} spells each of them:
# (work, consumption, pre-tax income, post-tax income, spent).
GOLDEN_MEMORY_ROWS = [
    (0.6, 0.4, 4000.0, 3600.0, 1500.0),
    (0.005, 0.995, 4000.005, 3600.125, 1500.375),
    (0.015, 0.985, 2.675, 1.005, 0.125),
    (0.125, 0.875, 0.135, 0.145, 0.375),
    (0.135, 0.865, 1234.565, 999.995, 0.005),
    (0.145, 0.855, 12345.675, 10000.015, 0.015),
    (0.375, 0.625, 0.0, 0.0, 0.0),
    (1.0, 0.0, 808.335, 7016.665, 42525.005),
    (0.0, 1.0, 0.004999, 0.005001, 0.994999),
    (0.98, 0.02, 1e7 + 0.005, 123456.785, 3289.585),
    (0.02, 0.98, 5.015, 5.025, 5.035),
    (0.995, 0.005, 17008.335, 13393.755, 0.995),
]


def golden_memory() -> deque[str]:
    return deque(
        memory_line(f"2001.{month:02d}", *row)
        for month, row in enumerate(GOLDEN_MEMORY_ROWS, 1)
    )


def make_memory(months=3) -> deque[str]:
    return deque(
        memory_line(
            date=f"2001.{m:02d}",
            work_propensity=0.6,
            consumption_propensity=0.4,
            pretax_income=4000.0,
            posttax_income=3600.0,
            consumption=1500.0,
        )
        for m in range(1, months + 1)
    )


class TestReflect:
    def test_empty_memory_gives_empty_note(self):
        assert reflect(LLMBackend(scripted_gateway([])), deque()) == ""

    def test_scripted_note_passes_through_verbatim(self):
        backend = LLMBackend(scripted_gateway(["save more when prices rise"]))
        assert reflect(backend, make_memory()) == "save more when prices rise"

    def test_transport_failure_keeps_previous_note(self):
        sleeps: list[float] = []
        transport = FlakyTransport("never read", 10**9)
        gateway = CountingGateway("live", transport=transport, sleeper=sleeps.append)
        backend = LLMBackend(gateway)
        assert reflect(backend, make_memory(), previous="old note") == "old note"
        # A review asks like a decision: max_retries attempts, with backoff.
        assert gateway.calls == transport.calls == HouseholdLLMConfig().max_retries
        assert sleeps == [1.0, 2.0]

    def test_failed_complete_is_retried(self):
        transport = FlakyTransport("  save more when prices rise\n", 1)
        gateway = CountingGateway("live", transport=transport, sleeper=lambda _: None)
        note = reflect(LLMBackend(gateway), make_memory(), previous="old note")
        assert note == "save more when prices rise"
        assert gateway.calls == 2

    def test_reflection_prompt_includes_every_month(self):
        prompt = build_reflection_prompt(make_memory(3))
        for month in ("2001.01", "2001.02", "2001.03"):
            assert month in prompt

    def test_golden_reflection_prompt(self, fixtures_dir):
        expected = (fixtures_dir / "reflection_prompt_golden.txt").read_text()[:-1]
        assert build_reflection_prompt(golden_memory()) == expected


class TestMemory:
    def test_review_reads_the_last_twelve_months(self):
        # Month 15's reviews are the run's last; each household's memory
        # then holds 2001.04 through 2002.03, its oldest trimmed.
        gateway = CountingGateway("live", transport=deterministic_reply)
        run(SimConfig(n_households=2, months=16, household_backend="llm"), gateway=gateway)
        reviews = [p for p in gateway.prompts if p.startswith("You are reviewing")]
        assert len(reviews) == 2 * 5
        want = [month_label(m) for m in range(4, 16)]
        for prompt in reviews[-2:]:
            dates = [line.split(":")[0] for line in prompt.splitlines()[1:-1]]
            assert dates == want
            assert "2001.03:" not in prompt
