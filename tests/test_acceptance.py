"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -s`` to see every
line; tolerances are pinned here and nowhere else."""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import FIXTURES
from helpers import (
    PromptedGateway,
    oracle_saez_rates,
    pairwise_gini,
    panicking_transport,
    random_cent_income,
    random_cent_schedule,
    tax_by_cent_integration,
)
from taxsim.config import SimConfig, load_config
from taxsim.economy import (
    AdjustmentParams,
    ScheduleRows,
    apply_taxation,
    compute_tax,
    update_interest_rate,
)
from taxsim.gateway import ChatGateway
from taxsim.households import DecisionMonth, build_household_prompt
from taxsim.metrics import equality, gini
from taxsim.policies import (
    DEFAULT_BRACKETS,
    US_FEDERAL_RATES,
    PolicyObservation,
    SaezParams,
    build_tax_prompt,
    marginal_rate,
    saez_schedule,
    top_rate,
    us_federal_schedule,
)
from taxsim.economy import Persona, TaxSchedule
from taxsim.simulation import run, sweep


def check(number: int, description: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_tax_oracle_equivalence():
    rng = np.random.default_rng(20240101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        schedule = random_cent_schedule(rng)
        income = random_cent_income(rng)
        expected = tax_by_cent_integration(schedule.thresholds, schedule.rates, income)
        got = compute_tax(ScheduleRows([schedule]), np.array([[income]]))[0, 0]
        worst = max(worst, abs(got - expected) / max(abs(expected), 1e-12))
    elapsed = time.perf_counter() - start
    check(
        1,
        f"tax vs cent-integration oracle, 10^4 pairs (worst rel {worst:.2e}, "
        f"{elapsed:.2f}s)",
        worst <= 1e-9 and elapsed < 5.0,
    )


def test_criterion_2_budget_balance():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(1_000):
        n = int(rng.integers(1, 201))
        incomes = rng.uniform(0.0, 60_000.0, n).tolist()
        schedule = random_cent_schedule(rng)
        posttax, _, _ = apply_taxation(ScheduleRows([schedule]), np.array([incomes]))
        ok = ok and abs(sum(posttax[0]) - sum(incomes)) <= 1e-9 * sum(incomes)
    check(2, "budget balance over 10^3 random income vectors (N <= 200)", ok)


def test_criterion_3_metric_fixtures():
    ok = (
        gini([1.0, 1.0, 1.0, 1.0]) == 0.0
        and abs(gini([0.0, 0.0, 0.0, 5.0]) - 0.75) < 1e-12
        and abs(equality([1.0, 1.0, 1.0, 1.0]) - 0.75) < 1e-12
        and abs(equality([0.0, 0.0, 0.0, 5.0]) - 0.1875) < 1e-12
        and abs(equality([123.0] * 50) - 0.98) < 1e-12
    )
    rng = np.random.default_rng(3)
    for _ in range(1_000):
        values = rng.uniform(0.0, 1e6, int(rng.integers(1, 101)))
        ok = ok and abs(gini(values) - pairwise_gini(values)) <= 1e-9
    check(3, "gini/equality fixtures and 10^3-vector pairwise oracle", ok)


def test_criterion_4_saez_formulas():
    ok = abs(top_rate(2.0, 0.25) - 2.0 / 3.0) <= 1e-12
    rng = np.random.default_rng(4)
    for _ in range(100):
        ok = ok and top_rate(float(rng.uniform(1.0, 50.0)), 0.0) == 1.0
    for _ in range(1_000):
        g = float(rng.uniform(0.0, 1.0))
        density = float(rng.uniform(0.0, 0.01))
        z = float(rng.uniform(0.0, 50_000.0))
        ok = ok and abs(marginal_rate(g, density, 0.0, z) - (1.0 - g)) < 1e-12
    incomes = [1000.0] * 25 + [50_000.0] * 25
    schedule = saez_schedule(incomes, DEFAULT_BRACKETS, SaezParams(elasticity=0.25))
    expected = oracle_saez_rates(incomes, DEFAULT_BRACKETS, 0.25)
    for got, want in zip(schedule.rates, expected):
        ok = ok and abs(got - want) <= 1e-9
    check(4, "top-rate fixture, zero-elasticity identities, two-point oracle", ok)


def test_criterion_5_taylor_rule():
    params = AdjustmentParams(
        natural_rate=0.01,
        target_inflation=0.02,
        inflation_response=0.5,
        unemployment_response=0.5,
        natural_unemployment=0.04,
    )
    ok = abs(update_interest_rate(params, 0.08, 0.04) - 0.06) <= 1e-12
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        inflation = float(rng.uniform(-1.0, 1.0))
        unemployment = float(rng.uniform(0.0, 1.0))
        ok = ok and update_interest_rate(params, inflation, unemployment) >= 0.0
    ok = ok and update_interest_rate(params, -1.0, 0.04) == 0.0
    check(5, "Taylor worked example and nonnegativity over 10^4 inputs", ok)


def test_criterion_6_determinism(tmp_path):
    config = SimConfig(n_households=10, months=25, seed=77)

    def output_bytes(result, name):
        out = result.write_outputs(tmp_path / name)
        return (out / "monthly.csv").read_bytes(), (out / "annual.csv").read_bytes()

    rule_ok = output_bytes(run(config), "r1") == output_bytes(run(config), "r2")

    replay_config = load_config(FIXTURES / "replay_config.json")
    cache = FIXTURES / "replay_cache.jsonl"

    def replay_once(name):
        gateway = ChatGateway("replay", cache_path=cache, transport=panicking_transport)
        return output_bytes(run(replay_config, gateway=gateway), name)

    replay_ok = replay_once("p1") == replay_once("p2")
    check(
        6,
        "byte-identical outputs: rule-based twice, and replay twice over the "
        "committed cache",
        rule_ok and replay_ok,
    )


def test_criterion_7_golden_prompts():
    federal = TaxSchedule(DEFAULT_BRACKETS, US_FEDERAL_RATES)
    household_prompt = build_household_prompt(
        month=DecisionMonth(
            date="2001.03",
            previous_schedule=federal,
            current_schedule=federal,
            average_price=126.78,
            interest_rate=0.03,
            price_direction="decreased",
        ),
        persona=Persona("Adam Mills", 58, "San Antonio, Texas", "Newspaper Delivery"),
        expected_income=567.18,
        savings=13072.25,
        income_direction="decreased",
        last_consumption=544.68,
    )
    household_golden = (FIXTURES / "household_prompt_golden.txt").read_text()[:-1]

    data = json.loads((FIXTURES / "planner_observation.json").read_text())
    observation = PolicyObservation(
        month=data["month"],
        incomes=np.array(data["incomes"]),
        wealth=np.array(data["wealth"]),
        schedule_history=tuple(
            TaxSchedule(DEFAULT_BRACKETS, rates) for rates in data["schedule_rates_history"]
        ),
        productivity_history=tuple(data["productivity_history"]),
        equality_history=tuple(data["equality_history"]),
    )
    planner_prompt = build_tax_prompt(observation)
    planner_golden = (FIXTURES / "planner_prompt_golden.txt").read_text()[:-1]

    brackets_text = "[0.00, 808.33, 3289.58, 7016.67, 13393.75, 17008.33, 42525.00]"
    ok = (
        household_prompt == household_golden
        and planner_prompt == planner_golden
        and brackets_text in household_prompt
        and brackets_text in planner_prompt
        and "intervals of 0.02" in household_prompt
        and "intervals of 0.01" in planner_prompt
        and "Provide your decisions in a JSON format." in household_prompt
        and "Provide your decision in a JSON format." in planner_prompt
    )
    check(7, "household and planner prompts match the golden templates", ok)


MALFORMED_REPLIES = [
    "[0.1, 0.2]",  # wrong arity
    "[1, 2, 3]",
    "[]",
    "sure, happy to help!",
    "I think 1.5 work",
    "",
    "{}",
    '{"work": 0.5}',  # missing key
    '{"consumption": 0.5}',
    '{"work": "lots", "consumption": 0.2}',  # non-numeric
    '{"work": true, "consumption": false}',
    '{"work": NaN, "consumption": 0.2}',
    "work=0.5 consumption=0.5",
    "[0.1 0.2 0.3 0.4 0.5 0.6 0.7]",  # missing commas
    "{[0.1, 0.2, 0.3]}",
    "(0.1, 0.2)",
    "rates: one two three four five six seven",
    '{"work": 5.0, "consumption": -1.0}',  # out of range -> clamped
    "[-1, 2, -3, 4, -5, 6, -7]",  # out of range rates -> clamped
    "[0.1, 0.1, 0.1, 0.1, 0.1, 0.1]",  # six values
    "[0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]",  # eight values
    "null",
    "0.5, 0.5",
    "<decision>0.5</decision>",
    "the brackets look fine as they are",
    '{"work": 0.5, "consumption"',  # truncated json
]


def test_criterion_8_parser_robustness():
    assert len(MALFORMED_REPLIES) >= 20
    config = SimConfig(
        n_households=3,
        months=9,
        seed=8,
        tax_system="tax_agent",
        household_backend="llm",
    )
    config = replace(
        config,
        tax_agent=replace(config.tax_agent, max_retries=1),
        household_llm=replace(config.household_llm, max_retries=1),
    )
    # decisions 3*9, reflections 3*3, proposals 3 -> 39 calls, which cycle
    # through the corpus in whatever order the fanned-out calls arrive
    corpus = itertools.cycle(MALFORMED_REPLIES)
    lock = threading.Lock()

    def malformed(request):
        with lock:
            return next(corpus)

    result = run(config, gateway=ChatGateway("live", transport=malformed))
    ok = len(result.month_records) == config.months
    for record in result.month_records:
        ok = ok and all(0.0 <= r <= 1.0 for r in record.rates)
    for name in ("work_propensity", "consumption_propensity"):
        for p in result.households[name].ravel().tolist():
            ok = ok and 0.0 <= p <= 1.0 and abs(p * 50 - round(p * 50)) < 1e-9
    check(8, f"{len(MALFORMED_REPLIES)}-reply malformed corpus, run completes", ok)


def test_criterion_9_structural_invariants():
    ok = True
    for seed in range(1, 6):
        result = run(SimConfig(seed=seed))  # defaults: N=50, P=120, rule-based
        n = result.config.n_households
        for record in result.month_records:
            ok = ok and record.inventory >= 0.0
            ok = ok and 0.0 <= record.equality <= (n - 1) / n + 1e-12
        ok = ok and bool((result.households["savings"] >= 0.0).all())
        for annual in result.annual_records:
            ok = ok and 0.0 <= annual.unemployment <= 1.0
    check(9, "inventory/savings/equality/unemployment invariants over 5 seeds", ok)


def test_criterion_10_directional_desk_scale():
    planner = PromptedGateway(lambda prompt, attempt: "[0.1, 0.15, 0.25, 0.3, 0.35, 0.4, 0.45]")
    start = time.perf_counter()
    rows = sweep(
        SimConfig(),
        systems=("free", "us_federal", "saez", "tax_agent"),
        seeds=(1, 2, 3, 4, 5),
        gateway_factory=lambda cfg: planner if cfg.tax_system == "tax_agent" else None,
    )
    elapsed = time.perf_counter() - start
    assert planner.calls == 5 * 40  # one proposal every 3 of the 120 months, per seed
    final_gini = {(r.tax_system, r.seed): r.final_gini for r in rows}
    wins = sum(
        final_gini[("free", seed)] >= final_gini[("us_federal", seed)]
        for seed in (1, 2, 3, 4, 5)
    )
    check(
        10,
        f"free-market gini >= federal gini in {wins}/5 seeds, sweep {elapsed:.1f}s",
        wins >= 3 and elapsed < 30.0,
    )


def test_criterion_11_us_federal_fidelity():
    result = run(SimConfig(n_households=20, months=36, seed=6, tax_system="us_federal"))
    ok = all(
        record.rates == (0.10, 0.12, 0.22, 0.24, 0.32, 0.35, 0.37)
        for record in result.month_records
    )
    ok = ok and us_federal_schedule().rates == US_FEDERAL_RATES
    check(11, "federal rates exactly in force every month", ok)
