from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import taxsim.policies as policies_module
from helpers import (
    CountingGateway,
    FlakyTransport,
    oracle_saez_rates,
    reference_marginal_rate,
    reference_saez_schedule,
    scripted_gateway,
)
from taxsim.economy import TaxSchedule
from taxsim.gateway import ChatGateway, ReplayMissError
from taxsim.policies import (
    DEFAULT_BRACKETS,
    US_FEDERAL_RATES,
    DegenerateIncomesError,
    EmptyTailError,
    PolicyObservation,
    SaezOptimalPolicy,
    SaezParams,
    TaxAgentConfig,
    TaxAgentPolicy,
    TaxReplyParseError,
    build_tax_prompt,
    free_market_schedule,
    marginal_rate,
    pareto_parameter,
    parse_tax_reply,
    saez_schedule,
    top_rate,
    us_federal_schedule,
)


def observation(incomes=(), wealth=None, schedules=None, prod=(0.0,), eq=(0.0,), month=0):
    """An observation whose schedule history defaults to the federal
    schedule alone, the one in force before a run's first proposal."""
    schedules = (us_federal_schedule(),) if schedules is None else schedules
    incomes = np.array(incomes, dtype=float)
    wealth = np.array(wealth, dtype=float) if wealth is not None else np.full(incomes.size, 1000.0)
    return PolicyObservation(
        month=month,
        incomes=incomes,
        wealth=wealth,
        schedule_history=tuple(schedules),
        productivity_history=tuple(prod),
        equality_history=tuple(eq),
    )


class TestPolicyObservation:
    def test_empty_schedule_history_rejected(self):
        # A history always ends with the schedule in force, so no policy
        # needs a bootstrap of its own.
        with pytest.raises(ValueError, match="schedule_history"):
            observation(incomes=[1.0], schedules=())

    def test_incomes_and_wealth_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            observation(incomes=[1.0, 2.0], wealth=[1.0])


class TestFixedPolicies:
    def test_free_market_rates_are_all_zero(self):
        schedule = free_market_schedule()
        assert schedule.rates == (0.0,) * 7
        assert schedule.thresholds == DEFAULT_BRACKETS

    def test_us_federal_rates(self):
        schedule = us_federal_schedule()
        assert schedule.rates == US_FEDERAL_RATES
        assert schedule.thresholds == DEFAULT_BRACKETS


class TestParetoParameter:
    def test_tail_mean_double_threshold(self):
        assert pareto_parameter([80_000.0, 10.0], 40_000.0) == pytest.approx(2.0)

    def test_tail_mean_1p5x_threshold(self):
        assert pareto_parameter([60_000.0], 40_000.0) == pytest.approx(3.0)

    def test_huge_tail_mean_approaches_one(self):
        assert pareto_parameter([1e13], 40_000.0) == pytest.approx(1.0, abs=1e-6)

    def test_empty_tail_raises(self):
        with pytest.raises(EmptyTailError):
            pareto_parameter([100.0, 200.0], 40_000.0)

    def test_tail_mean_rounded_down_to_the_threshold_raises(self):
        # Every income lies one ulp above 0.1, but their float sum rounds
        # down, so the tail mean is 0.1 itself and a = m / (m - z*) would
        # divide by zero.
        with pytest.raises(EmptyTailError, match="tail mean does not exceed"):
            pareto_parameter([math.nextafter(0.1, math.inf)] * 7, 0.1)


class TestTopRate:
    def test_worked_example(self):
        assert top_rate(2.0, 0.25) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_elasticity_gives_full_rate(self):
        assert top_rate(2.0, 0.0) == 1.0
        assert top_rate(17.3, 0.0) == 1.0

    def test_second_example(self):
        assert top_rate(1.5, 0.5) == pytest.approx(1.0 / 1.75)

    @pytest.mark.parametrize(
        "pareto_param,elasticity", [(math.nan, 0.25), (2.0, math.nan), (0.0, 0.25), (2.0, -0.1)]
    )
    def test_nan_or_out_of_range_rejected(self, pareto_param, elasticity):
        with pytest.raises(ValueError):
            top_rate(pareto_param, elasticity)

    @given(
        a=st.floats(min_value=1.0, max_value=100.0),
        e1=st.floats(min_value=0.0, max_value=2.0),
        e2=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_in_elasticity(self, a, e1, e2):
        assume(e2 - e1 > 1e-6)
        assert top_rate(a, e1) > top_rate(a, e2)

    @given(
        a1=st.floats(min_value=1.0, max_value=100.0),
        a2=st.floats(min_value=1.0, max_value=100.0),
        e=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_in_pareto_parameter(self, a1, a2, e):
        assume(a2 - a1 > 1e-6)
        assert top_rate(a1, e) > top_rate(a2, e)


class TestMarginalRate:
    def test_zero_elasticity_reduces_to_one_minus_cdf(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = float(rng.uniform(0, 1))
            density = float(rng.uniform(0, 0.01))
            z = float(rng.uniform(0, 50_000))
            assert marginal_rate(g, density, 0.0, z) == pytest.approx(1.0 - g, abs=1e-12)

    def test_worked_example(self):
        value = marginal_rate(0.9, 0.0001, 0.25, 10_000.0)
        assert value == pytest.approx((0.1 + 0.25) / 1.000025, abs=1e-9)
        assert value == pytest.approx(0.34999, abs=1e-5)

    def test_clamp_boundaries(self):
        assert marginal_rate(1.0, 0.0, 0.7, 100.0) == 0.0  # 1 - G = 0
        assert marginal_rate(0.0, 0.0, 0.0, 0.0) == 1.0

    @pytest.mark.parametrize(
        "args,name",
        [
            ((math.nan, 1e-4, 0.25, 10.0), "cdf_value"),
            ((1.5, 1e-4, 0.25, 10.0), "cdf_value"),
            ((0.5, math.nan, 0.25, 10.0), "density_value"),
            ((0.5, -1e-4, 0.25, 10.0), "density_value"),
            ((0.5, 1e-4, 0.25, math.nan), "income"),
            ((0.5, 1e-4, 0.25, -1.0), "income"),
        ],
    )
    def test_nan_or_out_of_range_rejected(self, args, name):
        with pytest.raises(ValueError, match=name):
            marginal_rate(*args)

    def test_clamp_keeps_negative_zero(self):
        # a negative elasticity makes the denominator negative: raw is -0.0,
        # which min(max(raw, 0.0), 1.0) keeps
        rate = marginal_rate(1.0, 1.0, -2.0, 0.0)
        assert math.copysign(1.0, rate) == -1.0
        assert type(rate) is float

    @given(
        cdf=st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
        density=st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1e6),
        elasticity=st.sampled_from((-2.0, -1.0, 0.0, 0.25)) | st.floats(-3.0, 3.0),
        income=st.sampled_from((0.0, *DEFAULT_BRACKETS)) | st.floats(0.0, 1e9),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference_formula_bit_for_bit(self, cdf, density, elasticity, income):
        def outcome(fn):
            try:
                return np.float64(fn(cdf, density, elasticity, income)).view(np.int64)
            except ZeroDivisionError as exc:  # 1 + e*g is 0 for some e < 0
                return type(exc)

        assert outcome(marginal_rate) == outcome(reference_marginal_rate)


class TestSaezSchedule:
    def test_two_point_distribution_matches_oracle(self):
        incomes = [1000.0] * 25 + [50_000.0] * 25
        params = SaezParams(elasticity=0.25)
        schedule = saez_schedule(incomes, DEFAULT_BRACKETS, params)
        expected = oracle_saez_rates(incomes, DEFAULT_BRACKETS, 0.25)
        assert schedule.thresholds == DEFAULT_BRACKETS
        for mine, want in zip(schedule.rates, expected):
            assert mine == pytest.approx(want, abs=1e-9)

    def test_random_distributions_match_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            incomes = rng.lognormal(8.5, 1.2, 60).tolist()
            schedule = saez_schedule(
                incomes, DEFAULT_BRACKETS, SaezParams(elasticity=0.4),
                previous=us_federal_schedule(),
            )
            expected = oracle_saez_rates(
                incomes, DEFAULT_BRACKETS, 0.4, previous_top=US_FEDERAL_RATES[-1]
            )
            for mine, want in zip(schedule.rates, expected):
                assert mine == pytest.approx(want, abs=1e-9)

    def test_uniform_incomes_zero_elasticity_tracks_cdf(self):
        rng = np.random.default_rng(5)
        incomes = rng.uniform(0.0, 42_525.0, 20_000).tolist()
        schedule = saez_schedule(
            incomes, DEFAULT_BRACKETS, SaezParams(elasticity=0.0),
            previous=us_federal_schedule(),
        )
        for k in range(6):
            midpoint = (DEFAULT_BRACKETS[k] + DEFAULT_BRACKETS[k + 1]) / 2.0
            assert schedule.rates[k] == pytest.approx(1.0 - midpoint / 42_525.0, abs=0.02)

    def test_empty_tail_keeps_previous_top_rate(self):
        incomes = [500.0, 700.0, 900.0]
        previous = us_federal_schedule()
        schedule = saez_schedule(incomes, DEFAULT_BRACKETS, SaezParams(), previous=previous)
        assert schedule.rates[-1] == previous.rates[-1]

    def test_empty_tail_without_previous_raises(self):
        with pytest.raises(EmptyTailError):
            saez_schedule([500.0, 700.0], DEFAULT_BRACKETS, SaezParams())

    def test_degenerate_incomes_use_zero_elasticity(self):
        incomes = [5000.0] * 10
        schedule = saez_schedule(incomes, DEFAULT_BRACKETS, SaezParams(elasticity=0.5),
                                 previous=us_federal_schedule())
        # all mass sits in bracket 2; below it 1 - G = 1, above it 1 - G = 0
        assert schedule.rates[0] == pytest.approx(1.0)
        assert schedule.rates[3] == pytest.approx(0.0)

    def test_fewer_than_two_positive_incomes_raises(self):
        with pytest.raises(DegenerateIncomesError):
            saez_schedule([0.0, 0.0, 123.0], DEFAULT_BRACKETS, SaezParams())

    def test_policy_falls_back_to_previous_schedule(self):
        policy = SaezOptimalPolicy()
        previous = us_federal_schedule()
        obs = observation(incomes=[0.0] * 5, wealth=[1.0] * 5, schedules=[previous])
        assert policy.propose(obs) == previous

    def test_policy_reestimates_each_period(self):
        policy = SaezOptimalPolicy(SaezParams(elasticity=0.25))
        obs_low = observation(
            incomes=[900.0] * 20 + [50_000.0] * 5,
            schedules=[us_federal_schedule()],
        )
        obs_high = observation(
            incomes=[30_000.0] * 20 + [90_000.0] * 5,
            schedules=[us_federal_schedule()],
        )
        assert policy.propose(obs_low).rates != policy.propose(obs_high).rates


# Incomes that sit on a bracket edge or midpoint, so that ties with the
# edges, the midpoints and a tail threshold drawn from them are common.
EDGE_INCOMES = sorted(
    {*DEFAULT_BRACKETS}
    | {(lo + hi) / 2.0 for lo, hi in zip(DEFAULT_BRACKETS, DEFAULT_BRACKETS[1:])}
)


@st.composite
def saez_inputs(draw):
    """Incomes with zeros, ties, a point mass, or a spread; a tail threshold
    that is None, arbitrary, or one of the incomes; and a previous schedule
    or None."""
    kind = draw(st.sampled_from(("spread", "ties", "point_mass")))
    if kind == "point_mass":
        mass = draw(st.floats(1e-3, 1e5))
        incomes = [mass] * draw(st.integers(0, 30)) + [0.0] * draw(st.integers(0, 5))
    else:
        value = st.sampled_from([0.0, -0.0, *EDGE_INCOMES]) if kind == "ties" else st.one_of(
            st.just(0.0), st.sampled_from(EDGE_INCOMES), st.floats(-1e3, 1e5)
        )
        incomes = draw(st.lists(value, max_size=60))
    tail = draw(
        st.one_of(
            st.none(),
            st.floats(1e-3, 6e4),
            st.sampled_from([z for z in incomes if z > 0] or [1.0]),
        )
    )
    elasticity = draw(st.sampled_from((0.0, 0.25)) | st.floats(0.0, 3.0))
    previous = draw(st.sampled_from((None, us_federal_schedule())))
    container = draw(st.sampled_from((list, tuple)))
    return container(incomes), SaezParams(elasticity=elasticity, tail_threshold=tail), previous


def saez_outcome(fn, incomes, params, previous):
    """The schedule's thresholds and rate bits, or the exception type."""
    try:
        schedule = fn(incomes, DEFAULT_BRACKETS, params, previous=previous)
    except ValueError as exc:
        return type(exc)
    return schedule.thresholds, np.array(schedule.rates).view(np.int64).tolist()


class TestSaezScheduleMatchesLoop:
    @given(case=saez_inputs())
    @settings(max_examples=400, deadline=None)
    def test_same_schedule_or_same_exception(self, case):
        assert saez_outcome(saez_schedule, *case) == saez_outcome(reference_saez_schedule, *case)


# Rates on the 0.005 rounding boundaries of the 0.01 grid and one step of a
# float either side of them, with both ends of [0, 1].
HALF_CENT_RATES = st.sampled_from(
    [0.0, 1.0]
    + [
        math.nextafter(boundary, toward)
        for boundary in (0.005, 0.015, 0.125, 0.135, 0.145, 0.285, 0.995)
        for toward in (0.0, boundary, 1.0)
    ]
)


class TestBuildTaxPrompt:
    def test_golden_prompt(self, fixtures_dir):
        data = json.loads((fixtures_dir / "planner_observation.json").read_text())
        obs = PolicyObservation(
            month=data["month"],
            incomes=np.array(data["incomes"]),
            wealth=np.array(data["wealth"]),
            schedule_history=tuple(
                TaxSchedule(DEFAULT_BRACKETS, rates)
                for rates in data["schedule_rates_history"]
            ),
            productivity_history=tuple(data["productivity_history"]),
            equality_history=tuple(data["equality_history"]),
        )
        expected = (fixtures_dir / "planner_prompt_golden.txt").read_text()[:-1]
        assert build_tax_prompt(obs) == expected

    @given(
        rates=st.lists(
            st.lists(st.one_of(HALF_CENT_RATES, st.floats(0, 1)), min_size=7, max_size=7),
            min_size=1,
            max_size=4,
        ),
        months=st.lists(st.integers(0, 3), min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_history_text_matches_nested_list_spelling(self, rates, months):
        schedules = [TaxSchedule(DEFAULT_BRACKETS, r) for r in rates]
        # Months share schedule objects, as a run's history does.
        history = [schedules[m % len(schedules)] for m in months]
        prompt = build_tax_prompt(observation(incomes=[1.0], schedules=history))
        # The history as the prompt spelled it before schedules kept their text.
        nested = "[(" + str([[round(r, 2) for r in s.rates] for s in history]) + ")]"
        assert f"The tax rates you set in the past months were {nested}. " in prompt

    def test_required_fields_present(self):
        obs = observation(incomes=[0.0, 1200.5], wealth=[100.0, 200.0],
                          schedules=[us_federal_schedule()])
        prompt = build_tax_prompt(obs)
        assert "[0.00, 808.33, 3289.58, 7016.67, 13393.75, 17008.33, 42525.00]" in prompt
        assert "intervals of 0.01" in prompt
        assert "Provide your decision in a JSON format." in prompt
        assert "$[0.0, 1200.5]" in prompt

    def test_month_zero_histories_render_with_leading_zero(self):
        obs = observation(incomes=[0.0] * 3, wealth=[5.0] * 3,
                          schedules=[us_federal_schedule()], prod=[0.0], eq=[0.0])
        prompt = build_tax_prompt(obs)
        assert "[ (0.0)]" in prompt

    @pytest.mark.parametrize("values", [(0.0, -0.0), (-0.0, 0.0)])
    def test_sign_of_zero_history_entries_render_apart(self, values):
        for value in values:
            obs = observation(incomes=[1.0], schedules=[us_federal_schedule()], prod=[value], eq=[value])
            prompt = build_tax_prompt(obs)
            assert f"were [ ({value!r})]: the past" in prompt
            assert f"were [ ({value!r})](the higher" in prompt

    @given(
        histories=st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from(
                        [0.0, -0.0, 0, 1.0, 1, True, 0.004, -0.004, 0.005, 0.015, -0.015, 2.675]
                    ),
                    st.floats(),
                    st.integers(-3, 3),
                ),
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_history_entries_match_inline_spelling(self, histories):
        # Prompts in a row share values, as a run's later histories do.
        for values in histories:
            prompt = build_tax_prompt(observation(incomes=[1.0], prod=values, eq=values[::-1]))
            prod = "[" + ", ".join(f" ({round(v, 2)})" for v in values) + "]"
            eq = "[" + ", ".join(f" ({round(v, 2)})" for v in values[::-1]) + "]"
            assert f"were {prod}: the past months' equality performances were {eq}(the" in prompt

    def test_history_memo_emptied_at_its_limit(self, monkeypatch):
        monkeypatch.setattr(policies_module._HistoryEntries, "limit", 3)
        values = [0.125, 0.25, 0.375, 0.5, 0.625, 1.125, 0.125]
        for end in range(1, len(values) + 1):
            prompt = build_tax_prompt(observation(incomes=[1.0], prod=values[:end]))
            prod = "[" + ", ".join(f" ({round(v, 2)})" for v in values[:end]) + "]"
            assert f"were {prod}: the past" in prompt
            assert len(policies_module._HISTORY_ENTRIES) <= 3

    def test_non_worker_incomes_render_as_zero_point_zero(self):
        obs = observation(incomes=[0.0, 810.0, 0.0], wealth=[1.0, 2.0, 3.0],
                          schedules=[us_federal_schedule()])
        assert "$[0.0, 810.0, 0.0]" in build_tax_prompt(obs)


class TestParseTaxReply:
    def test_plain_list(self):
        rates = parse_tax_reply("[0.1, 0.15, 0.25, 0.3, 0.35, 0.4, 0.45]")
        assert rates == (0.1, 0.15, 0.25, 0.3, 0.35, 0.4, 0.45)

    def test_list_with_chatter(self):
        rates = parse_tax_reply(
            "sure! [0.10,0.12,0.22,0.24,0.32,0.35,0.37] hope this helps"
        )
        assert rates == US_FEDERAL_RATES

    def test_wrong_arity_rejected(self):
        with pytest.raises(TaxReplyParseError):
            parse_tax_reply("[0.1, 0.2]")

    def test_no_numbers_rejected(self):
        with pytest.raises(TaxReplyParseError):
            parse_tax_reply("I would rather not set any taxes today.")

    def test_out_of_range_values_clamped(self):
        rates = parse_tax_reply("[-0.5, 1.5, 0.5, 0.5, 0.5, 0.5, 0.5]")
        assert rates[0] == 0.0
        assert rates[1] == 1.0

    @pytest.mark.parametrize("zero", ["-0", "-0.0", "-0e5", "-0.000"])
    def test_negative_zero_reads_as_zero(self, zero):
        # A -0.0 rate would render as "-0.00%" in the household prompt.
        rates = parse_tax_reply(f"[{zero}, 0.1, 0.1, 0.1, 0.1, 0.1, {zero}]")
        assert [math.copysign(1.0, r) for r in rates] == [1.0] * 7
        assert rates == (0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.0)

    def test_numbers_read_as_python_floats(self):
        # float() takes digit-group underscores: ten, clamped to 1.0.
        assert parse_tax_reply("[1_0, 0, 0, 0, 0, 0, 0]") == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_values_snapped_to_001_grid(self):
        rates = parse_tax_reply("[0.123, 0.456, 0.1, 0.1, 0.1, 0.1, 0.1]")
        assert rates[0] == pytest.approx(0.12)
        assert rates[1] == pytest.approx(0.46)

    def test_first_length_seven_list_wins(self):
        text = "[1, 2] then [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1] then [0.9]*7"
        assert parse_tax_reply(text) == (0.1,) * 7

    @pytest.mark.parametrize(
        "first",
        [
            "[a, b, c, d, e, f, g]",  # words fail float()
            "[nan, 0, 0, 0, 0, 0, 0]",  # non-finite numbers fail the snap
            "[0, 0, 0, inf, 0, 0, 0]",
            "[0, 0, 0, 0, 0, 0, -inf]",
            "[1e400, 0, 0, 0, 0, 0, 0]",
            "[0, 0, 0, 0, 0, 0, 0,]",  # a trailing comma: eight parts
            "[0, 0, 0, 0, 0, 0,]",  # seven parts, the last empty
        ],
    )
    def test_list_that_is_no_rates_is_skipped(self, first):
        text = f"{first} or rather [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]"
        assert parse_tax_reply(text) == (0.1,) * 7

    @pytest.mark.parametrize(
        "text", ["[a, b, c, d, e, f, g]", "[nan, 0, 0, 0, 0, 0, 0] [0, 0, 0, 0, 0, 0, inf]"]
    )
    def test_only_lists_that_are_no_rates_rejected(self, text):
        with pytest.raises(TaxReplyParseError):
            parse_tax_reply(text)

    def test_json_object_wrapped_list(self):
        text = '{"decision": [0.05, 0.1, 0.2, 0.25, 0.3, 0.35, 0.4]}'
        assert parse_tax_reply(text) == (0.05, 0.1, 0.2, 0.25, 0.3, 0.35, 0.4)

    @given(st.lists(st.integers(0, 100), min_size=7, max_size=7))
    @settings(max_examples=100, deadline=None)
    def test_render_parse_round_trip_on_grid(self, cents):
        rates = [c / 100.0 for c in cents]
        rendered = "[" + ", ".join(f"{r:.2f}" for r in rates) + "]"
        parsed = parse_tax_reply(rendered)
        for got, want in zip(parsed, rates):
            assert got == pytest.approx(want, abs=1e-12)


class TestTaxAgentPolicy:
    def test_scripted_reply_becomes_schedule(self):
        gateway = scripted_gateway(["[0.1, 0.15, 0.25, 0.3, 0.35, 0.4, 0.45]"])
        policy = TaxAgentPolicy(gateway, TaxAgentConfig(max_retries=1))
        schedule = policy.propose(observation(incomes=[1.0], wealth=[1.0],
                                              schedules=[us_federal_schedule()]))
        assert schedule.rates == (0.1, 0.15, 0.25, 0.3, 0.35, 0.4, 0.45)
        assert schedule.thresholds == DEFAULT_BRACKETS

    def test_malformed_replies_fall_back_to_previous(self):
        gateway = scripted_gateway(["nope", "[1,2]", "still no"])
        policy = TaxAgentPolicy(gateway, TaxAgentConfig(max_retries=3))
        previous = free_market_schedule()
        obs = observation(incomes=[1.0], wealth=[1.0], schedules=[previous])
        assert policy.propose(obs) == previous

    def test_lists_that_are_no_rates_fall_back_to_previous(self):
        replies = ["[a, b, c, d, e, f, g]", "[nan, 0, 0, 0, 0, 0, 0]", "[0, 0, 0, 0, 0, 0, inf]"]
        policy = TaxAgentPolicy(scripted_gateway(replies), TaxAgentConfig(max_retries=3))
        previous = free_market_schedule()
        obs = observation(incomes=[1.0], wealth=[1.0], schedules=[previous])
        assert policy.propose(obs) == previous

    def test_retry_consumes_next_scripted_reply(self):
        gateway = scripted_gateway(["garbage", "[0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2]"])
        policy = TaxAgentPolicy(gateway, TaxAgentConfig(max_retries=2))
        obs = observation(incomes=[1.0], wealth=[1.0], schedules=[us_federal_schedule()])
        assert policy.propose(obs).rates == (0.2,) * 7

    def test_failed_complete_is_retried(self):
        # One attempt is one transport call: the first fails, the second answers.
        transport = FlakyTransport("[0.1, 0.15, 0.25, 0.3, 0.35, 0.4, 0.45]", 1)
        gateway = CountingGateway("live", transport=transport, sleeper=lambda _: None)
        obs = observation(incomes=[1.0], wealth=[1.0], schedules=[us_federal_schedule()])
        assert TaxAgentPolicy(gateway).propose(obs).rates == (0.1, 0.15, 0.25, 0.3, 0.35, 0.4, 0.45)
        assert gateway.calls == transport.calls == 2

    def test_parse_function_is_looked_up_when_called(self, monkeypatch):
        # What lets a tracer replace it in the module's namespace.
        seen = []

        def parse(text):
            seen.append(text)
            return parse_tax_reply(text)

        monkeypatch.setattr(policies_module, "parse_tax_reply", parse)
        reply = "[0.1, 0.15, 0.25, 0.3, 0.35, 0.4, 0.45]"
        obs = observation(incomes=[1.0], wealth=[1.0], schedules=[us_federal_schedule()])
        assert TaxAgentPolicy(scripted_gateway([reply])).propose(obs).rates[0] == 0.1
        assert seen == [reply]

    def test_replayed_malformed_reply_is_asked_for_once(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        previous = free_market_schedule()
        obs = observation(incomes=[1.0], wealth=[1.0], schedules=[previous])
        recorder = CountingGateway("record", cache_path=cache, transport=lambda request: "[1,2]")
        assert TaxAgentPolicy(recorder).propose(obs) == previous
        assert recorder.calls == TaxAgentConfig().max_retries
        replayer = CountingGateway("replay", cache_path=cache)
        assert TaxAgentPolicy(replayer).propose(obs) == previous
        assert replayer.calls == 1

    def test_replay_miss_propagates(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("")
        gateway = ChatGateway("replay", cache_path=cache)
        policy = TaxAgentPolicy(gateway, TaxAgentConfig(max_retries=3))
        obs = observation(incomes=[1.0], wealth=[1.0], schedules=[us_federal_schedule()])
        with pytest.raises(ReplayMissError):
            policy.propose(obs)


class TestScheduleInvariants:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_proposal_is_a_valid_schedule(self, seed):
        rng = np.random.default_rng(seed)
        incomes = rng.lognormal(8.0, 1.5, 30).tolist()
        obs = observation(incomes=incomes, wealth=incomes,
                          schedules=[us_federal_schedule()])
        schedule = SaezOptimalPolicy().propose(obs)
        assert schedule.thresholds == DEFAULT_BRACKETS
        assert all(0.0 <= r <= 1.0 for r in schedule.rates)
