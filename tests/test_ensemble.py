"""The lockstep ensemble: on (runs x N) arrays, the kernels that also take
one run's 1-D array (the metrics and ``sequential_sum``) give each row the
bits of the 1-D call on that row alone; the ensemble-only kernels
(``compute_tax``, ``apply_taxation``, ``execute_consumption`` and
``adjust_wages_and_price``) give each row the bits of the per-household
reference loop on that row; and every row of a sweep equals ``run()`` of
its config alone."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PromptedGateway,
    adjustment_draws,
    bracket_loop_tax,
    market_of,
    sequential_adjustment,
    sequential_consumption,
)
from taxsim.config import SimConfig
from taxsim.economy import (
    AdjustmentParams,
    ScheduleError,
    ScheduleRows,
    TaxSchedule,
    adjust_wages_and_price,
    apply_taxation,
    compute_tax,
    execute_consumption,
    sequential_sum,
)
from taxsim.metrics import equality, gini, productivity
from taxsim.policies import DEFAULT_BRACKETS, US_FEDERAL_RATES
from taxsim.simulation import ComparisonRow, compare, run, sweep


def assert_bits_equal(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_shapes(count: int, seed: int):
    """``count`` (runs, N) shapes with runs <= 11 and N <= 599, the
    smallest and largest first."""
    rng = np.random.default_rng(seed)
    yield from ((1, 1), (11, 599), (11, 1), (1, 599))
    for _ in range(count - 4):
        yield int(rng.integers(1, 12)), int(rng.integers(1, 600))


def wealth_rows(rng: np.random.Generator, shape) -> np.ndarray:
    """Log-normal wealth of several spreads, with some exact zeros and, now
    and then, an all-zero row."""
    values = rng.lognormal(np.log(5e4), rng.uniform(0.0, 2.5), shape)
    values[rng.random(shape) < 0.1] = 0.0
    values[rng.random(shape[0]) < 0.1] = 0.0
    return values


def random_rates_schedule(rng: np.random.Generator) -> TaxSchedule:
    rates = rng.uniform(0.0, 1.0, len(DEFAULT_BRACKETS))
    rates[rng.random(len(DEFAULT_BRACKETS)) < 0.2] = 0.0
    return TaxSchedule(DEFAULT_BRACKETS, tuple(rates.tolist()))


class TestRowKernelsMatchOneRowAlone:
    def test_gini_equality_productivity(self):
        rng = np.random.default_rng(1)
        for shape in random_shapes(300, seed=2):
            values = wealth_rows(rng, shape)
            rows = list(values)
            assert_bits_equal(gini(values), [gini(row) for row in rows])
            assert_bits_equal(equality(values), [equality(row) for row in rows])
            assert_bits_equal(equality(values, gini(values)), [equality(row) for row in rows])
            for per_capita in (True, False):
                assert_bits_equal(
                    productivity(values, per_capita=per_capita),
                    [productivity(row, per_capita=per_capita) for row in rows],
                )

    def test_gini_equality_productivity_of_a_stack(self):
        # The month loop hands the metrics k months of (runs x N) wealth
        # rows at once, a strided view of its (k x 4 x runs x N) buffer, and
        # takes the four totals of each row as the last of a cumsum.
        rng = np.random.default_rng(7)
        for runs, n in random_shapes(60, seed=8):
            k = int(rng.integers(1, 6))
            buffer = wealth_rows(rng, (k * 4 * runs, n)).reshape(k, 4, runs, n)
            stack = buffer[:, 3]
            months = [list(month) for month in stack]
            assert_bits_equal(gini(stack), [[gini(row) for row in m] for m in months])
            assert_bits_equal(equality(stack), [[equality(row) for row in m] for m in months])
            assert_bits_equal(
                equality(stack, gini(stack)), [[equality(row) for row in m] for m in months]
            )
            for per_capita in (True, False):
                assert_bits_equal(
                    productivity(stack, per_capita=per_capita),
                    [[productivity(row, per_capita=per_capita) for row in m] for m in months],
                )
            assert_bits_equal(
                buffer.cumsum(axis=-1)[..., -1],
                [[sequential_sum(total) for total in month] for month in buffer],
            )

    def test_sequential_sum(self):
        rng = np.random.default_rng(3)
        for shape in random_shapes(300, seed=4):
            values = rng.normal(0.0, 10.0 ** rng.uniform(-3, 12), shape)
            assert_bits_equal(sequential_sum(values), [sequential_sum(row) for row in values])

    def test_rows_without_households(self):
        empty = np.empty((3, 0))
        assert_bits_equal(sequential_sum(empty), [0.0, 0.0, 0.0])
        prices, inventories = [10.0, 20.0, 30.0], [5.0, 0.0, 7.0]
        mismatches = np.array([0.5, 0.0, -1.0])
        params = AdjustmentParams()
        market = market_of(prices, inventories)
        generators = [np.random.default_rng(r) for r in range(3)]
        spent, demand = execute_consumption(empty, empty, market, generators)
        draws = adjustment_draws(generators, 0)
        wages = adjust_wages_and_price(empty, market, mismatches, params, draws)
        assert spent.shape == wages.shape == (3, 0)
        assert_bits_equal(demand, [0.0, 0.0, 0.0])
        assert_bits_equal(market.inventory, inventories)
        for r in range(3):
            generator = np.random.default_rng(r)
            sequential_consumption([], [], prices[r], inventories[r], generator)
            _, price = sequential_adjustment([], prices[r], mismatches[r], params, generator)
            assert_bits_equal(market.price[r], price)
        assert market.price[1] == 20.0

    def test_compute_tax_and_taxation(self):
        rng = np.random.default_rng(5)
        thresholds = np.array(DEFAULT_BRACKETS)
        neighbours = (np.nextafter(thresholds, np.inf), np.nextafter(thresholds[1:], 0.0))
        edges = np.concatenate(([0.0], thresholds, *neighbours))
        for shape in random_shapes(300, seed=6):
            schedules = [random_rates_schedule(rng) for _ in range(shape[0])]
            incomes = rng.lognormal(np.log(4000.0), 1.5, shape)
            incomes[rng.random(shape) < 0.1] = 0.0
            picks = rng.random(shape) < 0.2
            incomes[picks] = rng.choice(edges, int(picks.sum()))
            table = ScheduleRows(schedules)
            want = [
                [bracket_loop_tax(s, z) for z in row]
                for s, row in zip(schedules, incomes.tolist())
            ]
            assert_bits_equal(compute_tax(table, incomes), want)
            posttax, taxes, redistribution = apply_taxation(table, incomes)
            shares = [sequential_sum(row) / len(row) for row in want]
            assert_bits_equal(taxes, want)
            assert_bits_equal(redistribution, shares)
            assert_bits_equal(
                posttax,
                [
                    [z - t + share for z, t in zip(row, taxes_of_row)]
                    for row, taxes_of_row, share in zip(incomes.tolist(), want, shares)
                ],
            )

    def test_schedules_of_an_ensemble_share_thresholds(self):
        other = TaxSchedule((0.0, 100.0), (0.1, 0.2))
        with pytest.raises(ScheduleError):
            ScheduleRows([TaxSchedule(DEFAULT_BRACKETS, US_FEDERAL_RATES), other])

    @pytest.mark.parametrize("seed", range(12))
    def test_consumption_and_adjustment_draw_per_run(self, seed):
        # Each row draws from its own Generator and matches the
        # per-household loops on that row; some rows run short of
        # inventory and some do not.
        rng = np.random.default_rng(50 + seed)
        runs, n = int(rng.integers(1, 8)), int(rng.integers(1, 40))
        savings = rng.lognormal(np.log(5e4), 0.6, (runs, n))
        propensities = rng.integers(0, 51, (runs, n)) * 0.02
        prices = rng.uniform(50.0, 200.0, runs)
        demand = sequential_sum(propensities * savings / prices[:, None])
        inventories = demand * rng.uniform(0.0, 1.5, runs)
        mismatches = rng.uniform(-1.0, 1.0, runs)
        mismatches[rng.random(runs) < 0.3] = 0.0
        wages = rng.lognormal(np.log(25.0), 0.8, (runs, n))
        params = AdjustmentParams()

        market = market_of(prices, inventories)
        generators = [np.random.default_rng([seed, r]) for r in range(runs)]
        spent, total_demand = execute_consumption(savings, propensities, market, generators)
        draws = adjustment_draws(generators, n)
        new_wages = adjust_wages_and_price(wages, market, mismatches, params, draws)

        for r in range(runs):
            generator = np.random.default_rng([seed, r])
            spent_r, savings_r, inventory_r, demand_r = sequential_consumption(
                savings[r], propensities[r], prices[r], inventories[r], generator
            )
            assert_bits_equal(spent[r], spent_r)
            assert_bits_equal(savings[r] - spent[r], savings_r)
            assert_bits_equal(total_demand[r], demand_r)
            assert_bits_equal(market.inventory[r], inventory_r)
            wages_r, price_r = sequential_adjustment(
                wages[r], prices[r], mismatches[r], params, generator
            )
            assert_bits_equal(new_wages[r], wages_r)
            assert_bits_equal(market.price[r], price_r)


def planner_reply(seed: int):
    """Scripted planner replies for a tax_agent run: rate lists drawn from
    the seed and the prompt, and the first reply to about every fourth
    prompt junk (a retry)."""

    def reply(prompt: str, attempt: int) -> str:
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        if attempt == 0 and digest[0] % 4 == 3:
            return "no rates this time"
        rng = np.random.default_rng([seed, int.from_bytes(digest[:8], "big")])
        return str(np.round(rng.uniform(0, 0.6, 7), 2).tolist())

    return reply


def scripted_planner(config: SimConfig):
    if config.tax_system == "tax_agent":
        return PromptedGateway(planner_reply(config.seed))
    return None


def row_of_run_alone(config: SimConfig) -> ComparisonRow:
    final = run(config, gateway=scripted_planner(config)).month_records[-1]
    return ComparisonRow(
        config.tax_system,
        config.seed,
        final.gini,
        final.equality,
        final.productivity,
        final.social_outcome,
    )


class TestEnsembleEqualsSingleRuns:
    @given(
        systems=st.lists(
            st.sampled_from(["free", "us_federal", "saez", "tax_agent"]),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        n=st.integers(1, 12),
        months=st.integers(1, 30),
        productivity=st.sampled_from([0.005, 1.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_sweep_row_equals_run_alone(self, systems, seeds, n, months, productivity):
        # Productivity 0.005 reaches the partial consumption fill and the
        # Saez fallbacks.
        base = SimConfig(n_households=n, months=months, productivity=productivity)
        planners = []

        def planner(config):
            planners.append(scripted_planner(config))
            return planners[-1]

        rows = sweep(base, systems, seeds, gateway_factory=planner)
        configs = [replace(base, tax_system=s, seed=seed) for seed in seeds for s in systems]
        assert rows == [row_of_run_alone(config) for config in configs]
        # One prompt a proposal, every 3 months before the last; a junk
        # first reply asks once more.
        for gateway in filter(None, planners):
            assert len(gateway.asked) == len(range(0, months, 3))
            assert set(gateway.asked.values()) <= {1, 2}

    def test_configs_that_differ_elsewhere_run_apart(self):
        # A different productivity puts a config in an ensemble of its own;
        # the rows still come back in config order.
        base = SimConfig(n_households=7, months=14, seed=3)
        configs = [
            replace(base, tax_system="saez"),
            replace(base, tax_system="free", productivity=0.3),
            replace(base, tax_system="us_federal"),
        ]
        assert compare(configs).rows == [row_of_run_alone(config) for config in configs]

    def test_household_arrays_kept_only_for_households_csv(self):
        config = SimConfig(n_households=4, months=5, seed=1)
        assert run(replace(config, write_households=False)).households == {}
        kept = run(config).households
        assert {name: column.shape for name, column in kept.items()} == {
            name: (5, 4) for name in kept
        }
