from __future__ import annotations

import csv
import json
import tempfile
import threading
from collections import Counter
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taxsim.simulation as simulation
from conftest import FIXTURES
from helpers import (
    OUTPUT_FILES,
    PHASES,
    CountingGateway,
    PromptedGateway,
    call_log,
    deterministic_reply,
    panicking_transport,
    phase_log,
    planner_reply,
    prompt_kind,
)
from taxsim import metrics
from taxsim.config import AdjustmentParams, ConfigError, GatewayConfig, SimConfig, load_config
from taxsim.economy import TaxSchedule, sequential_sum
from taxsim.gateway import GATEWAY_MODES, ChatGateway
from taxsim.personas import load_personas, roster_for
from taxsim.policies import US_FEDERAL_RATES, PolicyObservation
from taxsim.results import MonthRecord
from taxsim.simulation import (
    ComparisonResult,
    ComparisonRow,
    build_gateway,
    build_policy,
    compare,
    initial_schedule,
    month_label,
    run,
    sweep,
)

SMALL = SimConfig(n_households=6, months=13, seed=11)


def read_outputs(result, tmp_path, name):
    out = result.write_outputs(tmp_path / name)
    return (out / "monthly.csv").read_bytes(), (out / "annual.csv").read_bytes()


class TestMonthLabel:
    @pytest.mark.parametrize(
        "month,label",
        [(1, "2001.01"), (3, "2001.03"), (12, "2001.12"), (13, "2002.01"), (120, "2010.12")],
    )
    def test_labels(self, month, label):
        assert month_label(month) == label


class TestInitialSchedule:
    def test_free_market_starts_at_zero(self):
        assert initial_schedule("free").rates == (0.0,) * 7

    def test_other_systems_start_federal(self):
        for system in ("us_federal", "saez", "tax_agent"):
            assert initial_schedule(system).rates == US_FEDERAL_RATES


class TestDeterminism:
    def test_rule_based_runs_are_byte_identical(self, tmp_path):
        first = read_outputs(run(SMALL), tmp_path, "a")
        second = read_outputs(run(SMALL), tmp_path, "b")
        assert first == second

    def test_different_seeds_differ(self, tmp_path):
        first = read_outputs(run(SMALL), tmp_path, "a")
        second = read_outputs(run(replace(SMALL, seed=12)), tmp_path, "b")
        assert first != second

    def test_replay_runs_are_byte_identical(self, tmp_path):
        config = load_config(FIXTURES / "replay_config.json")
        cache = FIXTURES / "replay_cache.jsonl"

        def replay_gateway():
            return ChatGateway("replay", cache_path=cache, transport=panicking_transport)

        first = read_outputs(run(config, gateway=replay_gateway()), tmp_path, "a")
        second = read_outputs(run(config, gateway=replay_gateway()), tmp_path, "b")
        assert first == second

    def test_record_then_replay_agree(self, tmp_path):
        config = replace(SMALL, months=7, household_backend="llm", tax_system="tax_agent")
        cache = tmp_path / "cache.jsonl"
        recorded = run(
            config,
            gateway=ChatGateway("record", cache_path=cache, transport=deterministic_reply),
        )
        replayed = run(
            config,
            gateway=ChatGateway("replay", cache_path=cache, transport=panicking_transport),
        )
        assert read_outputs(recorded, tmp_path, "rec") == read_outputs(
            replayed, tmp_path, "rep"
        )


class TestSystems:
    def test_us_federal_rates_every_month(self):
        result = run(replace(SMALL, tax_system="us_federal"))
        for record in result.month_records:
            assert record.rates == US_FEDERAL_RATES

    def test_free_market_collects_no_tax(self):
        result = run(replace(SMALL, tax_system="free"))
        assert not result.households["tax_paid"].any()
        for record in result.month_records:
            assert record.rates == (0.0,) * 7

    def test_saez_runs_and_stays_valid(self):
        result = run(replace(SMALL, tax_system="saez", months=14))
        for record in result.month_records:
            assert all(0.0 <= r <= 1.0 for r in record.rates)

    def test_tax_agent_with_scripted_gateway(self):
        config = replace(SMALL, tax_system="tax_agent", months=6)
        gateway = PromptedGateway(lambda prompt, attempt: "[0.1, 0.15, 0.25, 0.3, 0.35, 0.4, 0.45]")
        result = run(config, gateway=gateway)
        # proposals at months 1 and 4; the scripted schedule is in force throughout
        assert gateway.calls == 2
        for record in result.month_records:
            assert record.rates == (0.1, 0.15, 0.25, 0.3, 0.35, 0.4, 0.45)

    @pytest.mark.parametrize("tax_system", ["saez", "us_federal", "free"])
    def test_total_productivity_is_n_times_per_capita(self, tax_system):
        # The metric is read only by the records (and a planner's prompt), so
        # the dynamics are those of a per-capita run: total / N is its
        # productivity bit for bit, and the social outcome follows.
        base = replace(SMALL, months=14, seed=3, tax_system=tax_system)
        per_capita = run(base)
        total = run(replace(base, productivity_metric="total"))
        assert total.annual_records == per_capita.annual_records
        n = base.n_households
        for got, want in zip(total.month_records, per_capita.month_records, strict=True):
            assert replace(got, productivity=0.0, social_outcome=0.0) == replace(
                want, productivity=0.0, social_outcome=0.0
            )
            assert (got.productivity / n).hex() == want.productivity.hex()
            assert got.social_outcome == got.equality * got.productivity


@pytest.fixture
def proposals(monkeypatch) -> list[tuple[PolicyObservation, TaxSchedule]]:
    """The observation and the schedule of each ``_Run.propose`` call."""
    made = []
    original = simulation._Run.propose

    def noting(r, observation):
        schedule = original(r, observation)
        made.append((observation, schedule))
        return schedule

    monkeypatch.setattr(simulation._Run, "propose", noting)
    return made


class TestStepOrder:
    def test_every_month_runs_its_phases_in_order(self, monkeypatch):
        log = phase_log(monkeypatch)
        run(replace(SMALL, months=13))
        assert log == [(month, phase) for month in range(1, 14) for phase in PHASES]

    @pytest.mark.parametrize("months,period,made", [(9, 3, [0, 3, 6]), (6, 2, [0, 2, 4])])
    def test_proposals_follow_the_adjustment_cadence(self, proposals, months, period, made):
        # Each proposal observes the month before the one it takes force in;
        # none is made after the last month.
        config = replace(SMALL, months=months, tax_system="saez", adjust_period_months=period)
        records = run(config).month_records
        assert [observation.month for observation, _ in proposals] == made
        schedules = {observation.month: schedule for observation, schedule in proposals}
        for record in records:
            assert record.rates == schedules[(record.month - 1) // period * period].rates

    def test_reflection_cadence(self, monkeypatch):
        # Decisions are mapped once a month, so each reflect call's place
        # among them is its month: 3 and 6, not the adjustment months, and
        # not month 9, the last, whose notes no month would read.
        log = call_log(monkeypatch)
        config = replace(
            SMALL,
            months=9,
            household_backend="llm",
            reflection_period_months=3,
            adjust_period_months=2,
        )
        run(config, gateway=ChatGateway("live", transport=deterministic_reply))
        want = (["decide"] * 3 + ["reflect"]) * 2 + ["decide"] * 3
        assert [name for _, name in log if name != "propose"] == want

    @pytest.mark.parametrize("months,reflections", [(6, 1), (7, 2)])
    def test_no_reflection_after_the_last_month(self, months, reflections):
        # At period 3 month 6 reflects only when a month 7 follows to read
        # the notes.
        config = replace(
            SMALL, months=months, household_backend="llm", reflection_period_months=3
        )
        gateway = CountingGateway("live", transport=deterministic_reply)
        run(config, gateway=gateway)
        asked = Counter(map(prompt_kind, gateway.prompts))
        assert asked["reflect"] == reflections * config.n_households
        assert asked["decide"] == months * config.n_households

    def test_a_year_end_proposal_reads_the_wealth_after_interest(self, proposals):
        # A high natural rate keeps the Taylor rule's update above its floor of 0.
        adjustment = AdjustmentParams(natural_rate=0.5)
        config = replace(
            SMALL, months=13, tax_system="saez", adjustment=adjustment, write_households=True
        )
        result = run(config)
        wealth = {observation.month: observation.wealth for observation, _ in proposals}
        savings = result.households["savings"][11]  # at the end of month 12
        rate = result.month_records[12].interest_rate  # month 12's annual update
        assert rate > 0
        np.testing.assert_array_equal(wealth[12], savings * (1.0 + rate))

    @pytest.mark.parametrize("mode", ["record", "replay"])
    def test_each_llm_round_is_made_inside_the_phase_that_submits_it(
        self, monkeypatch, tmp_path, mode
    ):
        # tax_agent planner, LLM households, both cadences 3, 14 months.
        config = load_config(FIXTURES / "replay_config.json")
        log = phase_log(monkeypatch)
        placed = []

        class PlacingGateway(ChatGateway):
            def complete(self, request):
                placed.append((log.running, prompt_kind(request.prompt)))
                return super().complete(request)

        if mode == "record":
            cache, transport = tmp_path / "cache.jsonl", deterministic_reply
        else:
            cache, transport = FIXTURES / "replay_cache.jsonl", panicking_transport
        run(config, PlacingGateway(mode, cache_path=cache, transport=transport))
        # Month 1's proposal before month 1; a quarter's reflections and the
        # next proposal inside its reflect, in that order when serial.
        want = [(None, "propose")]
        for month in range(1, config.months + 1):
            want += [((month, "decide"), "decide")] * config.n_households
            if month % 3 == 0:
                want += [((month, "reflect"), "reflect")] * config.n_households
                want.append(((month, "reflect"), "propose"))
        if mode == "replay":
            assert placed == want
        else:  # fanned out: a round's calls complete in any order
            assert Counter(placed) == Counter(want)


class TestInvariants:
    def test_run_invariants(self):
        result = run(replace(SMALL, months=26))
        n = SMALL.n_households
        for record in result.month_records:
            assert record.inventory >= 0.0
            assert record.interest_rate >= 0.0
            assert 0.0 <= record.equality <= (n - 1) / n + 1e-12
        assert (result.households["savings"] >= 0.0).all()
        for annual in result.annual_records:
            assert 0.0 <= annual.unemployment <= 1.0

    def test_metrics_recomputable_from_household_rows(self):
        result = run(SMALL)
        for record in result.month_records:
            wealth = result.households["savings"][record.month - 1].tolist()
            assert metrics.gini(wealth) == record.gini
            assert metrics.equality(wealth) == record.equality
            assert metrics.productivity(wealth) == record.productivity

    def test_annual_records_on_year_boundaries(self):
        result = run(replace(SMALL, months=26))
        assert [a.year for a in result.annual_records] == [1, 2]
        assert result.annual_records[0].inflation == 0.0  # no prior year

    def test_budget_balance_every_month(self):
        # redistribution returns all taxes, so each month's post-tax incomes
        # add up to its pretax incomes
        households = run(replace(SMALL, months=12)).households
        pretax = sequential_sum(households["pretax_income"])
        posttax = sequential_sum(households["posttax_income"])
        assert pretax.shape == (12,)
        np.testing.assert_allclose(posttax, pretax, rtol=1e-12, atol=0.0)


class TestGatewayUsage:
    def test_rule_based_run_touches_no_network(self, monkeypatch):
        import requests

        def forbidden(*args, **kwargs):
            raise AssertionError("network call during an offline run")

        monkeypatch.setattr(requests, "post", forbidden)
        result = run(SMALL)
        assert len(result.month_records) == SMALL.months

    def test_rule_based_run_builds_no_persona_roster(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("rule-based households read no persona")

        monkeypatch.setattr(simulation, "roster_for", refuse)
        assert len(run(SMALL).month_records) == SMALL.months

    def test_llm_config_without_gateway_config_fails_cleanly(self):
        config = replace(SMALL, household_backend="llm")  # replay mode, no cache path
        with pytest.raises(ConfigError, match="gateway.cache_path"):
            run(config)

    @pytest.mark.parametrize("mode", GATEWAY_MODES)
    def test_every_gateway_mode_builds_from_a_config(self, mode, tmp_path, monkeypatch):
        # Each mode can be set from a file; building one makes no call.
        cache = tmp_path / "cache.jsonl"
        cache.write_text("")
        monkeypatch.setenv("TAXSIM_API_KEY", "secret")
        config = GatewayConfig(mode=mode, endpoint="http://example.invalid", cache_path=str(cache))
        assert build_gateway(config).mode == mode

    def test_malformed_scripted_replies_never_crash_the_run(self):
        config = replace(
            SMALL,
            n_households=3,
            months=6,
            tax_system="tax_agent",
            household_backend="llm",
            tax_agent=replace(SMALL.tax_agent, max_retries=1),
            household_llm=replace(SMALL.household_llm, max_retries=1),
        )
        # decisions 3*6=18, reflections 3*1=3, proposals 2 -> 23 calls, all junk
        gateway = ChatGateway("live", transport=lambda request: "junk reply")
        result = run(config, gateway=gateway)
        assert len(result.month_records) == 6
        for record in result.month_records:
            assert record.rates == US_FEDERAL_RATES  # fallback keeps the bootstrap
        assert (result.households["work_propensity"] == 0.6).all()  # documented fallback
        assert (result.households["consumption_propensity"] == 0.4).all()

    def test_dead_endpoint_costs_max_retries_calls_per_household(self):
        config = SimConfig(n_households=4, months=1, household_backend="llm")
        calls, sleeps = [], []

        def down(request):
            calls.append(request)
            raise ConnectionError("down")

        gateway = ChatGateway("live", transport=down, sleeper=sleeps.append)
        result = run(config, gateway=gateway)
        retries = config.household_llm.max_retries
        assert len(calls) == config.n_households * retries
        assert sorted(sleeps) == sorted([1.0, 2.0] * config.n_households)
        assert (result.households["work_propensity"] == 0.6).all()  # documented fallback
        assert (result.households["consumption_propensity"] == 0.4).all()

    def test_transport_failing_every_third_call_completes_the_run(self):
        config = SimConfig(
            n_households=4, months=6, tax_system="tax_agent", household_backend="llm"
        )
        lock = threading.Lock()
        calls = []

        def flaky(request):
            with lock:
                calls.append(request)
                if len(calls) % 3 == 0:
                    raise ConnectionError("blip")
            return deterministic_reply(request)

        asks = []

        def answering(request):
            asks.append(request)  # every reply parses: one call an ask
            return deterministic_reply(request)

        run(config, gateway=ChatGateway("live", transport=answering))
        gateway = ChatGateway("live", transport=flaky, sleeper=lambda _: None)
        assert len(run(config, gateway=gateway).month_records) == config.months
        assert len(calls) > len(asks)


def surrogate_reply(request) -> str:
    """A fixed reply of the prompt's kind, ending in a lone surrogate for a
    decision or a reflection, as a reply cut inside an escaped pair does."""
    if request.prompt.startswith("You are a tax planner"):
        return "[0.1, 0.12, 0.22, 0.24, 0.32, 0.35, 0.37]"
    if request.prompt.startswith("You are reviewing your household finances"):
        return "Spend less. \ud800"
    return '{"work": 0.5, "consumption": 0.3} \ud800'


class TestLoneSurrogateReplies:
    def test_live_record_and_replay_write_the_same_bytes(self, tmp_path):
        config = replace(SMALL, months=4, tax_system="tax_agent", household_backend="llm")
        cache = tmp_path / "cache.jsonl"

        def written(gateway) -> list[bytes]:
            out = run(config, gateway=gateway).write_outputs(tmp_path / gateway.mode)
            return [(out / name).read_bytes() for name in OUTPUT_FILES]

        live = CountingGateway("live", transport=surrogate_reply)
        assert written(live) == written(
            ChatGateway("record", cache_path=cache, transport=surrogate_reply)
        ) == written(ChatGateway("replay", cache_path=cache, transport=panicking_transport))

        # Month 4's decision prompts carry month 3's notes, the surrogate
        # replaced; the cache holds the replaced replies.
        prompts = live.prompts
        assert sum("\ufffd" in prompt for prompt in prompts) == config.n_households
        assert not any("\ud800" in prompt for prompt in prompts)
        replies = [json.loads(line)["response"] for line in cache.read_text("utf-8").splitlines()]
        # four months of decisions and one quarter's reflections
        want = (config.months + 1) * config.n_households
        assert sum(reply.endswith(" \ufffd") for reply in replies) == want


class TestPolicyObservations:
    """Every observation a policy receives holds read-only copies of its
    run's income and wealth rows of that month, unchanged after the run.
    A planner's holds its run's metric histories through that month, and a
    Saez policy's none, alone as in an ensemble."""

    @pytest.fixture
    def kept(self, monkeypatch):
        # ``_Run.propose`` is wrapped, not the policy, so that the ensemble
        # still sees which of its runs are planners.
        kept: dict[tuple[str, int], list] = {}
        propose = simulation._Run.propose

        def keeping(r, observation):
            copies = observation.incomes.copy(), observation.wealth.copy()
            kept.setdefault((r.config.tax_system, r.config.seed), []).append(
                (observation, copies)
            )
            return propose(r, observation)

        monkeypatch.setattr(simulation._Run, "propose", keeping)
        return kept

    @staticmethod
    def assert_snapshots(observations, result):
        # 11 months: no year end, whose interest accrues after the record.
        config, households = result.config, result.households
        months = range(0, config.months, config.adjust_period_months)
        assert [obs.month for obs, _ in observations] == list(months)
        records = result.month_records
        for obs, (incomes, wealth) in observations:
            assert not obs.incomes.flags.writeable and not obs.wealth.flags.writeable
            assert obs.incomes.tobytes() == incomes.tobytes()
            assert obs.wealth.tobytes() == wealth.tobytes()
            for history, name in (
                (obs.productivity_history, "productivity"),
                (obs.equality_history, "equality"),
            ):
                if config.tax_system != "tax_agent":
                    assert history == ()
                    continue
                want = [0.0, *(getattr(m, name) for m in records[: obs.month])]
                assert np.array(history).tobytes() == np.array(want).tobytes()
            if obs.month == 0:
                assert not obs.incomes.any()
                continue
            assert incomes.tobytes() == households["pretax_income"][obs.month - 1].tobytes()
            assert wealth.tobytes() == households["savings"][obs.month - 1].tobytes()

    def test_rule_based_saez_ensemble(self, kept):
        base = replace(SMALL, months=11, tax_system="saez")
        seeds = (3, 4, 5)
        sweep(base, ["saez"], seeds)
        ensemble = {seed: kept.pop(("saez", seed)) for seed in seeds}
        for seed in seeds:
            result = run(replace(base, seed=seed, write_households=True))
            self.assert_snapshots(ensemble[seed], result)

    @pytest.mark.parametrize("period", [1, 2, 3, 5])
    def test_metric_histories_over_proposal_periods(self, kept, period):
        # The metrics of a period are recorded at its end, before the next
        # proposal reads them; the fixed-schedule runs between the planner
        # and Saez runs of the ensemble make no proposal.
        base = replace(SMALL, months=11, adjust_period_months=period)
        seeds = (3, 4)
        systems = ["free", "tax_agent", "us_federal", "saez"]
        sweep(base, systems, seeds, gateway=PromptedGateway(planner_reply))
        ensemble = {(s, seed): kept.pop((s, seed)) for s in ("tax_agent", "saez") for seed in seeds}
        assert not kept
        for (system, seed), observations in ensemble.items():
            config = replace(base, tax_system=system, seed=seed, write_households=True)
            result = run(config, gateway=PromptedGateway(planner_reply))
            self.assert_snapshots(observations, result)

    def test_tax_agent_fanned_out_over_a_live_transport(self, kept):
        config = replace(
            SMALL, months=11, tax_system="tax_agent", household_backend="llm",
            write_households=True,
        )
        result = run(config, gateway=ChatGateway("live", transport=deterministic_reply))
        self.assert_snapshots(kept[("tax_agent", SMALL.seed)], result)


class TestMetricsWhereRead:
    """The wealth metrics are computed where something reads them: a run
    keeps every month's record, and a planner reads every period's in its
    prompt, so each computes them once a proposal period; a comparison with
    no planner reads only its final rows, so it computes them once."""

    @pytest.fixture
    def gini_blocks(self, monkeypatch) -> list[tuple[int, ...]]:
        """The (months, runs) of the wealth block of each ``gini`` call."""
        blocks = []
        gini = metrics.gini

        def counting(wealth):
            blocks.append(wealth.shape[:-1])
            return gini(wealth)

        monkeypatch.setattr(metrics, "gini", counting)
        return blocks

    # SMALL's 13 months in periods of 3: months 3, 6, 9 and 12 end a period,
    # and month 13 is the last.
    PERIODS = [3, 3, 3, 3, 1]

    def test_a_planner_free_sweep_once_per_ensemble(self, gini_blocks):
        sweep(SMALL, ["free", "us_federal", "saez"], [1, 2])
        assert gini_blocks == [(1, 6)]

    def test_compare_once_per_config(self, gini_blocks):
        compare([replace(SMALL, tax_system=system) for system in ("free", "saez")])
        assert gini_blocks == [(1, 1), (1, 1)]

    @pytest.mark.parametrize("system", ["free", "saez", "tax_agent"])
    def test_a_run_once_per_period(self, gini_blocks, system):
        run(replace(SMALL, tax_system=system), gateway=PromptedGateway(planner_reply))
        assert gini_blocks == [(months, 1) for months in self.PERIODS]

    def test_a_sweep_with_a_planner_once_per_period(self, gini_blocks):
        systems = ["free", "saez", "tax_agent"]
        sweep(SMALL, systems, [1, 2], gateway=PromptedGateway(planner_reply))
        assert gini_blocks == [(months, 6) for months in self.PERIODS]


class TestFixedSchedules:
    """A fixed schedule's proposal would be the schedule in force, so its
    run has no policy and makes none: no observation is built."""

    def test_only_saez_is_observed(self, monkeypatch):
        import taxsim.simulation as simulation

        months: list[int] = []

        def counting(**fields):
            months.append(fields["month"])
            return PolicyObservation(**fields)

        monkeypatch.setattr(simulation, "PolicyObservation", counting)
        sweep(SMALL, ["free", "us_federal", "saez"], [SMALL.seed])
        assert months == [0, 3, 6, 9, 12]

    def test_rows_unchanged_when_fixed_policies_cannot_propose(self):
        for system in ("free", "us_federal"):
            assert build_policy(replace(SMALL, tax_system=system), None) is None
        rows = sweep(SMALL, ["free", "us_federal"], [11, 12])
        # The rows of this sweep when every fixed schedule still proposed.
        assert rows == [
            ComparisonRow(*values)
            for values in (
                ("free", 11, 0.24199213323527463, 0.6316732223039379,
                 139807.1666356406, 88312.44344991869),
                ("us_federal", 11, 0.21616620912903722, 0.6531948257258023,
                 129907.55353938293, 84854.94179462257),
                ("free", 12, 0.20358852514968775, 0.6636762290419269,
                 143286.9816942997, 95096.16368167243),
                ("us_federal", 12, 0.15232204141754385, 0.7063982988187134,
                 126603.04970378744, 89432.17893601647),
            )
        ]


class TestCompare:
    def test_no_config_runs_no_month(self, monkeypatch):
        log = phase_log(monkeypatch)
        assert sweep(SMALL, [], [1, 2]) == []
        assert sweep(SMALL, ["free", "saez"], []) == []
        assert compare([]).rows == []
        assert log == []

    @pytest.mark.parametrize("fault", ["absent_roster", "missing_replay_cache"])
    def test_bad_second_config_fails_before_any_month(self, fault, tmp_path, monkeypatch):
        # compare prepares every config, its roster and gateway included,
        # before the first config's first month.
        missing = str(tmp_path / "missing.json")
        bad, key = {
            "absent_roster": (replace(SMALL, persona_path=missing), "persona_path"),
            "missing_replay_cache": (
                replace(
                    SMALL,
                    household_backend="llm",
                    gateway=GatewayConfig(mode="replay", cache_path=missing),
                ),
                "gateway.cache_path",
            ),
        }[fault]
        log = phase_log(monkeypatch)
        with pytest.raises(ConfigError, match=key):
            compare([SMALL, bad])
        assert log == []

    def test_single_config_degenerate_table(self):
        result = compare([SMALL])
        assert len(result.rows) == 1
        assert result.rows[0].tax_system == "us_federal"

    def test_four_system_sweep_shape(self):
        config = replace(SMALL, months=8)
        planner = PromptedGateway(lambda prompt, attempt: "[0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.4]")
        rows = sweep(
            config,
            systems=("free", "us_federal", "saez", "tax_agent"),
            seeds=(1, 2),
            gateway=planner,
        )
        assert planner.calls == 2 * 3  # proposals at months 1, 4 and 7 of each seed
        assert len(rows) == 8
        means = {}
        for row in rows:
            means.setdefault(row.tax_system, []).append(row.final_social_outcome)
        assert set(means) == {"free", "us_federal", "saez", "tax_agent"}

    def test_mean_social_outcomes_add_left_to_right(self):
        # Nine seeds per system: from eight values up, np.mean's pairwise sum
        # often differs in the last bit from the left-to-right sum that
        # CPython 3.11's sum(values) / len(values) computes.
        rng = np.random.default_rng(0)
        systems = ("free", "us_federal", "saez")
        for _ in range(20):
            outcomes = {system: rng.uniform(5e4, 3e5, 9).tolist() for system in systems}
            rows = [
                ComparisonRow(system, seed, 0.0, 0.0, 0.0, outcomes[system][seed])
                for seed in range(9)
                for system in systems
            ]
            expected = {}
            for system, values in outcomes.items():
                total = 0.0
                for value in values:
                    total += value
                expected[system] = total / len(values)
            assert ComparisonResult(rows).mean_social_outcomes() == expected


class TestOutputs:
    def test_monthly_csv_columns(self, tmp_path):
        out = run(SMALL).write_outputs(tmp_path)
        header = (out / "monthly.csv").read_text().splitlines()[0]
        assert header == (
            "month,price,inventory,interest_rate,"
            "rate_1,rate_2,rate_3,rate_4,rate_5,rate_6,rate_7,"
            "gini,equality,productivity,social_outcome"
        )
        rows = (out / "monthly.csv").read_text().splitlines()[1:]
        assert len(rows) == SMALL.months

    def test_month_record_is_a_monthly_csv_row(self, tmp_path):
        result = run(SMALL)
        lines = (result.write_outputs(tmp_path) / "monthly.csv").read_text().splitlines()
        names = [f.name for f in fields(MonthRecord)]
        at = names.index("rates")
        rates = [f"rate_{k + 1}" for k in range(len(result.month_records[0].rates))]
        assert lines[0].split(",") == names[:at] + rates + names[at + 1 :]
        assert len(lines) == len(result.month_records) + 1
        for line, record in zip(lines[1:], result.month_records):
            month, *values = astuple(record)
            values[at - 1 : at] = record.rates
            assert line == ",".join([f"{month:d}", *(f"{v:.6f}" for v in values)])

    def test_annual_csv_columns(self, tmp_path):
        out = run(SMALL).write_outputs(tmp_path)
        lines = (out / "annual.csv").read_text().splitlines()
        assert lines[0] == "year,inflation,unemployment"
        assert len(lines) == 2  # one complete year in 13 months

    def test_households_csv_optional(self, tmp_path):
        run(replace(SMALL, write_households=False)).write_outputs(tmp_path / "no")
        assert not (tmp_path / "no" / "households.csv").exists()
        run(SMALL).write_outputs(tmp_path / "yes")
        assert (tmp_path / "yes" / "households.csv").exists()

    def test_summary_contents(self, tmp_path):
        result = run(SMALL)
        summary = result.summary
        final = result.month_records[-1]
        assert summary["final_equality"] == round(final.equality, 6)
        assert summary["final_social_outcome"] == round(final.social_outcome, 6)
        assert summary["months"] == SMALL.months


class TestConfigErrors:
    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(ConfigError):
            run(replace(SMALL, months=0))

    def test_missing_persona_roster_is_fatal(self, tmp_path, monkeypatch):
        config = replace(SMALL, persona_path=str(tmp_path / "absent.json"))
        log = phase_log(monkeypatch)
        with pytest.raises(ConfigError, match="persona_path"):
            run(config)
        assert log == []

    @pytest.mark.parametrize(
        "record,problem",
        [
            ({"name": "Sam Roe", "age": 41, "city": "Reno"}, "has no 'occupation'"),
            ({"name": "Sam", "age": "thirty", "city": "Reno", "occupation": "Baker"}, "thirty"),
            (
                {"name": "Ann\ud800", "age": 30, "city": "Reno", "occupation": "Baker"},
                "not valid UTF-8",
            ),
        ],
    )
    def test_bad_persona_record_fails_before_month_1(self, tmp_path, monkeypatch, record, problem):
        good = {"name": "Pat Doe", "age": 30, "city": "Reno", "occupation": "Baker"}
        path = tmp_path / "roster.json"
        path.write_text(json.dumps([good, record]))
        log = phase_log(monkeypatch)
        with pytest.raises(ConfigError, match=rf"persona_path .*: record 1\b.*{problem}"):
            run(replace(SMALL, persona_path=str(path)))
        assert log == []

    def test_lone_surrogate_persona_fails_a_record_run_before_its_first_call(
        self, tmp_path, monkeypatch
    ):
        good = {"name": "Pat Doe", "age": 30, "city": "Reno", "occupation": "Baker"}
        path = tmp_path / "roster.json"
        path.write_text(json.dumps([good, {**good, "name": "Ann\ud800"}]))
        config = replace(SMALL, household_backend="llm", persona_path=str(path))
        cache = tmp_path / "cache.jsonl"
        gateway = CountingGateway("record", cache_path=cache, transport=surrogate_reply)
        log = phase_log(monkeypatch)
        with pytest.raises(ConfigError, match=r"persona_path .*: record 1 .*not valid UTF-8"):
            run(config, gateway=gateway)
        assert log == [] and gateway.prompts == []
        assert not cache.exists() or cache.read_bytes() == b""

    @pytest.mark.parametrize("cache_path", ["", "missing.jsonl"])
    def test_replay_without_a_cache_file_fails_before_month_1(
        self, tmp_path, monkeypatch, cache_path
    ):
        config = load_config(FIXTURES / "replay_config.json")
        path = str(tmp_path / cache_path) if cache_path else ""
        config = replace(config, gateway=replace(config.gateway, cache_path=path))
        log = phase_log(monkeypatch)
        with pytest.raises(ConfigError, match="gateway.cache_path"):
            run(config)
        assert log == []

    def test_replay_miss_is_fatal_not_a_fallback(self, tmp_path):
        from taxsim.gateway import ReplayMissError

        cache = tmp_path / "empty.jsonl"
        cache.write_text("")
        config = replace(SMALL, household_backend="llm")
        gateway = ChatGateway("replay", cache_path=cache, transport=panicking_transport)
        with pytest.raises(ReplayMissError):
            run(config, gateway=gateway)


def read_table(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_whole_run_invariants(config: SimConfig, out: Path, gateway_factory=lambda: None):
    """Run ``config`` twice, writing under ``out``, and check what the files
    show: the same bytes both times, every month's budget balanced, savings
    and inventory never negative, equality within [0, (N-1)/N]."""
    for name in ("a", "b"):
        run(config, gateway=gateway_factory()).write_outputs(out / name)
    for name in OUTPUT_FILES:
        assert (out / "a" / name).read_bytes() == (out / "b" / name).read_bytes(), name
    n = config.n_households
    monthly = read_table(out / "a" / "monthly.csv")
    assert [int(row["month"]) for row in monthly] == list(range(1, config.months + 1))
    for row in monthly:
        assert float(row["inventory"]) >= 0.0
        assert 0.0 <= float(row["equality"]) <= (n - 1) / n + 1e-6  # six decimals
    pretax = [0.0] * config.months
    posttax = [0.0] * config.months
    for row in read_table(out / "a" / "households.csv"):
        month = int(row["month"]) - 1
        assert float(row["savings"]) >= 0.0
        pretax[month] += float(row["pretax_income"])
        posttax[month] += float(row["posttax_income"])
    for pre, post in zip(pretax, posttax):
        assert abs(post - pre) <= 1e-6 * n + 1e-9 * abs(pre)  # taxes all come back


class TestPersonaRoster:
    def test_rule_based_runs_load_no_roster(self, monkeypatch):
        # Only LLM households read the roster, so a rule-based run or sweep
        # with no persona_path set never loads the packaged one.
        def unread(path=None):
            raise AssertionError("the roster was loaded")

        monkeypatch.setattr(simulation, "load_personas", unread)
        run(SMALL)
        systems = ["free", "us_federal", "saez", "tax_agent"]
        sweep(SMALL, systems, [1, 2], gateway=PromptedGateway(planner_reply))


class TestWholeRunProperties:
    @given(
        system=st.sampled_from(["free", "us_federal", "saez"]),
        n=st.integers(1, 8),
        months=st.integers(1, 15),
        seed=st.integers(0, 2**32 - 1),
        productivity=st.sampled_from([0.005, 0.3, 1.0, 4.0]),
        adjust=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_rule_based_systems(self, system, n, months, seed, productivity, adjust):
        config = SimConfig(
            n_households=n,
            months=months,
            seed=seed,
            tax_system=system,
            productivity=productivity,
            adjust_period_months=adjust,
        )
        with tempfile.TemporaryDirectory() as out:
            assert_whole_run_invariants(config, Path(out))

    def test_tax_agent_with_scripted_llm_households(self, tmp_path):
        config = replace(
            SMALL, n_households=5, months=14, tax_system="tax_agent", household_backend="llm"
        )
        # Decisions fan out, so each is scripted by its prompt's date and
        # persona rather than by call order.
        names = [p.name for p in roster_for(config.n_households, load_personas())]
        rng = np.random.default_rng(8)
        decisions = {}
        for month in range(1, config.months + 1):
            for name in names:
                work, spend = (0.02 * rng.integers(10, 50, 2)).tolist()
                decisions[month_label(month), name] = round(work, 2), round(spend, 2)

        def reply(request):
            prompt = request.prompt
            if not prompt.startswith("You're "):
                return deterministic_reply(request)  # planner or reflection
            name = prompt[len("You're "):].split(",", 1)[0]
            work, spend = decisions[prompt.split("Now it's ", 1)[1][:7], name]
            return json.dumps({"work": work, "consumption": spend})

        assert_whole_run_invariants(
            config, tmp_path, lambda: ChatGateway("live", transport=reply)
        )
        rows = read_table(tmp_path / "a" / "households.csv")
        assert [float(row["work_propensity"]) for row in rows] == [
            work for work, _ in decisions.values()
        ]
