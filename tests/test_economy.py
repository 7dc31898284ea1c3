from __future__ import annotations

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    adjustment_draws,
    bracket_loop_tax,
    decimal_quantize,
    left_to_right_sum,
    market_of,
    random_cent_income,
    random_cent_schedule,
    reference_bracket_table,
    sequential_adjustment,
    sequential_consumption,
    tax_by_cent_integration,
    tax_by_cent_midpoints,
)
from taxsim.economy import (
    AdjustmentParams,
    MarketState,
    ScheduleError,
    ScheduleRows,
    TaxSchedule,
    adjust_wages_and_price,
    apply_taxation,
    compute_mismatch,
    compute_tax,
    execute_consumption,
    produce,
    quantize_fraction,
    sequential_sum,
    update_interest_rate,
)
from taxsim.policies import DEFAULT_BRACKETS, SaezParams, saez_schedule


def one_run_tax(schedule: TaxSchedule, incomes) -> np.ndarray:
    """``compute_tax`` of a run of one under ``schedule``: the taxes of
    ``incomes``, a sequence, as one row."""
    return compute_tax(ScheduleRows([schedule]), np.array([incomes], dtype=float))[0]


def one_run_taxation(schedule: TaxSchedule, incomes) -> tuple:
    """``apply_taxation`` of a run of one under ``schedule``: (posttax
    incomes, taxes, redistribution) of ``incomes``, a sequence."""
    posttax, taxes, redistribution = apply_taxation(
        ScheduleRows([schedule]), np.array([incomes], dtype=float)
    )
    return posttax[0], taxes[0], redistribution[0]


def assert_bits_equal(got, want):
    """Equal as IEEE doubles, bit for bit: -0.0 differs from 0.0."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- schedules


class TestTaxSchedule:
    def test_valid_schedule_coerces_to_tuples(self):
        s = TaxSchedule([0.0, 100.0], [0.1, 0.2])
        assert s.thresholds == (0.0, 100.0)

    @pytest.mark.parametrize(
        "thresholds,rates",
        [
            ([0.0, 100.0], [0.1]),  # length mismatch
            ([10.0, 100.0], [0.1, 0.2]),  # must start at 0
            ([0.0, 100.0, 100.0], [0.1, 0.2, 0.3]),  # not strictly increasing
            ([0.0, math.nan], [0.1, 0.2]),  # NaN threshold
            ([0.0, 100.0], [0.1, 1.2]),  # rate above 1
            ([0.0, 100.0], [-0.1, 0.2]),  # negative rate
            ([], []),  # empty
        ],
    )
    def test_invalid_schedules_rejected(self, thresholds, rates):
        with pytest.raises(ScheduleError):
            TaxSchedule(thresholds, rates)


# The default thresholds and one float step either side of each, so that
# bracket widths differ from the defaults' in their last bits.
NEAR_DEFAULT_THRESHOLDS = sorted(
    {math.nextafter(b, toward) for b in DEFAULT_BRACKETS[1:] for toward in (0.0, b, math.inf)}
)


@st.composite
def schedules_near_defaults(draw):
    """Schedules whose thresholds lie on or one ulp beside the defaults,
    with arbitrary ones mixed in, and rates of 0.0, 1.0 or in between."""
    threshold = st.sampled_from(NEAR_DEFAULT_THRESHOLDS) | st.floats(1e-3, 1e6)
    thresholds = draw(st.lists(threshold, max_size=9, unique=True))
    thresholds = [0.0, *sorted(thresholds)]
    rate = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
    rates = draw(st.lists(rate, min_size=len(thresholds), max_size=len(thresholds)))
    return TaxSchedule(thresholds, rates)


class TestBracketTableMatchesCumsum:
    @given(schedule=schedules_near_defaults())
    @settings(max_examples=300, deadline=None)
    def test_float_sum_is_the_cumsum_bit_for_bit(self, schedule):
        want = reference_bracket_table(schedule).view(np.int64).tolist()
        assert np.array(schedule.tax_below).view(np.int64).tolist() == want
        for runs in (1, 2):
            rows = ScheduleRows([schedule] * runs).bracket_table[2]
            assert rows.view(np.int64).tolist() == [want] * runs


# ------------------------------------------------------------------- market


def market_fields(**overrides) -> dict:
    """Valid ``MarketState`` fields of three runs, with ``overrides``."""
    fields = {
        "price": np.array([1.0, 2.0, 3.0]),
        "inventory": np.array([0.0, 5.0, 0.0]),
        "interest_rate": np.array([0.0, 0.01, 0.02]),
        "productivity": 1.0,
    }
    return {**fields, **overrides}


def one_bad_run(field: str, value: float) -> dict:
    """``field`` with ``value`` in its middle run and valid values elsewhere."""
    array = market_fields()[field].copy()
    array[1] = value
    return {field: array}


class TestMarketState:
    def test_per_run_arrays_accepted(self):
        market = MarketState(**market_fields())
        assert market.price.tolist() == [1.0, 2.0, 3.0]
        assert MarketState(np.empty(0), np.empty(0), np.empty(0)).productivity == 1.0

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (one_bad_run("price", 0.0), "price"),
            (one_bad_run("price", -1.0), "price"),
            (one_bad_run("price", math.nan), "price"),
            (one_bad_run("inventory", -1e-9), "inventory"),
            (one_bad_run("inventory", math.nan), "inventory"),
            (one_bad_run("interest_rate", -1e-9), "interest_rate"),
            (one_bad_run("interest_rate", math.nan), "interest_rate"),
            ({"productivity": 0.0}, "productivity"),
            ({"productivity": -1.0}, "productivity"),
            ({"productivity": math.nan}, "productivity"),
            ({"price": 100.0}, "price"),  # a scalar
            ({"price": np.array(100.0)}, "price"),  # a 0-d array
            ({"price": [1.0, 2.0, 3.0]}, "price"),  # a list
            ({"inventory": 0.0}, "inventory"),
            ({"interest_rate": np.float64(0.0)}, "interest_rate"),
            ({"inventory": np.zeros(2)}, "inventory"),  # a mismatched length
            ({"interest_rate": np.zeros(4)}, "interest_rate"),
            ({"inventory": np.zeros((3, 1))}, "inventory"),  # two dimensions
        ],
    )
    def test_bad_field_rejected_by_name(self, overrides, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            MarketState(**market_fields(**overrides))


class TestProduce:
    def test_supply_from_two_of_three_workers(self):
        market = market_of(100.0)
        incomes = produce(np.array([[1, 0, 1]]), np.full((1, 3), 10.0), market)
        assert market.inventory.tolist() == [336.0]
        assert incomes[0, 1] == 0.0

    def test_no_workers_leaves_inventory_unchanged(self):
        market = market_of(100.0, inventory=5.0)
        incomes = produce(np.zeros((1, 3), dtype=int), np.full((1, 3), 10.0), market)
        assert market.inventory.tolist() == [5.0]
        assert incomes.tolist() == [[0.0, 0.0, 0.0]]

    def test_monthly_income_is_hours_times_wage(self):
        ((income,),) = produce(np.array([[1]]), np.array([[3.376]]), market_of(100.0))
        assert income == pytest.approx(567.17, abs=0.01)
        assert income == pytest.approx(168 * 3.376)

    def test_each_run_stocks_its_own_inventory(self):
        market = market_of([100.0, 100.0], inventory=[0.0, 5.0], productivity=0.5)
        produce(np.array([[1, 0, 1], [0, 0, 1]]), np.full((2, 3), 10.0), market)
        assert market.inventory.tolist() == [168.0, 89.0]


# ----------------------------------------------------------------- taxation


class TestComputeTax:
    def test_income_inside_first_bracket(self, federal_schedule):
        assert one_run_tax(federal_schedule, [500.0]) == pytest.approx([50.0])

    def test_income_spanning_two_brackets(self, federal_schedule):
        expected = 0.10 * 808.33 + 0.12 * (1000.0 - 808.33)
        (tax,) = one_run_tax(federal_schedule, [1000.0])
        assert tax == pytest.approx(expected)
        assert tax == pytest.approx(103.83, abs=0.01)

    def test_matches_cent_integration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            schedule = random_cent_schedule(rng)
            income = round(float(rng.uniform(0, 1000)), 2)
            expected = tax_by_cent_integration(schedule.thresholds, schedule.rates, income)
            assert one_run_tax(schedule, [income]) == pytest.approx(
                [expected], rel=1e-9, abs=1e-12
            )

    def test_cent_oracle_repeat_form_equals_midpoint_form(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            schedule = random_cent_schedule(rng)
            income = random_cent_income(rng)
            args = schedule.thresholds, schedule.rates, income
            assert_bits_equal(tax_by_cent_integration(*args), tax_by_cent_midpoints(*args))

    @given(
        income=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_tax_never_exceeds_income(self, income, seed):
        schedule = random_cent_schedule(np.random.default_rng(seed))
        assert one_run_tax(schedule, [income])[0] <= income + 1e-9

    def test_nondecreasing_and_continuous_at_thresholds(self, federal_schedule):
        for b in federal_schedule.thresholds[1:]:
            below, at, above = one_run_tax(federal_schedule, [b - 1e-6, b, b + 1e-6])
            assert below <= at <= above
            assert above - below < 1e-5


class TestApplyTaxation:
    def test_two_household_redistribution(self, federal_schedule):
        posttax, taxes, redistribution = one_run_taxation(federal_schedule, [1000.0, 0.0])
        tax = bracket_loop_tax(federal_schedule, 1000.0)
        assert taxes == pytest.approx([tax, 0.0])
        assert redistribution == pytest.approx(tax / 2)
        assert posttax == pytest.approx([1000.0 - tax / 2, tax / 2])

    def test_zero_rate_schedule_is_identity(self):
        schedule = TaxSchedule((0.0, 100.0), (0.0, 0.0))
        incomes = [12.5, 900.0, 0.0]
        posttax, taxes, redistribution = one_run_taxation(schedule, incomes)
        assert posttax.tolist() == incomes
        assert taxes.tolist() == [0.0, 0.0, 0.0]
        assert redistribution == 0.0

    def test_equal_incomes_stay_equal(self, federal_schedule):
        posttax, _, _ = one_run_taxation(federal_schedule, [4000.0] * 5)
        assert all(p == pytest.approx(4000.0) for p in posttax)

    @pytest.mark.parametrize("runs", [1, 3])
    def test_no_income_rejected(self, federal_schedule, runs):
        with pytest.raises(ValueError, match="need at least one income"):
            apply_taxation(ScheduleRows([federal_schedule] * runs), np.empty((runs, 0)))

    @given(
        incomes=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_budget_balance(self, incomes, seed):
        schedule = random_cent_schedule(np.random.default_rng(seed))
        posttax, _, _ = one_run_taxation(schedule, incomes)
        assert abs(sum(posttax) - sum(incomes)) <= 1e-9 * max(sum(incomes), 1.0)

    @given(
        incomes=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=2, max_size=50
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_income_ranking_preserved(self, incomes, seed):
        schedule = random_cent_schedule(np.random.default_rng(seed))
        posttax, _, _ = one_run_taxation(schedule, incomes)
        for i in range(len(incomes)):
            for j in range(len(incomes)):
                if incomes[i] < incomes[j]:
                    assert posttax[i] <= posttax[j] + 1e-9


# -------------------------------------------------------------- consumption


def consume(savings, propensities, price, inventory, seed=0):
    """One consumption round of a one-run ensemble; returns its row's
    (spent, savings after, inventory after, demand)."""
    savings = np.array([savings], dtype=float)
    market = market_of(price, inventory)
    spent, demand = execute_consumption(
        savings, np.array([propensities], dtype=float), market, [np.random.default_rng(seed)]
    )
    return spent[0], (savings - spent)[0], market.inventory[0], demand[0]


class TestDemandAndConsumption:
    def test_planned_demand(self):
        _, _, _, demand = consume([1000.0], [0.5], 126.78, 1e6)
        assert demand == pytest.approx(3.9439, abs=1e-4)

    def test_zero_propensity_zero_demand(self):
        _, _, _, demand = consume([1000.0], [0.0], 100.0, 1e6)
        assert demand == 0.0

    def test_zero_savings_zero_demand(self):
        _, _, _, demand = consume([0.0], [0.5], 100.0, 1e6)
        assert demand == 0.0

    def test_consumption_bounded_by_inventory(self):
        spent, savings, inventory, demand = consume([1000.0], [0.5], 126.78, 2.0)
        assert demand == pytest.approx(3.9439, abs=1e-4)
        assert spent[0] == pytest.approx(253.56)
        assert inventory == 0.0
        assert savings[0] == pytest.approx(1000.0 - 253.56)

    def test_empty_inventory_changes_nothing(self):
        spent, savings, _, _ = consume([500.0], [0.8], 10.0, 0.0)
        assert spent.tolist() == [0.0]
        assert savings[0] == 500.0

    def test_identical_households_consume_identically_when_supplied(self):
        spent, savings, _, _ = consume([400.0, 400.0], [0.5, 0.5], 10.0, 1e6, seed=7)
        assert spent[0] == spent[1]
        assert savings[0] == savings[1]

    def test_total_consumed_never_exceeds_starting_inventory(self):
        rng = np.random.default_rng(3)
        savings = rng.uniform(0, 5000, (1, 20))
        market = market_of(50.0, inventory=30.0)
        spent, _ = execute_consumption(savings, np.full((1, 20), 0.9), market, [rng])
        assert market.inventory[0] >= 0.0
        assert sum(spent[0]) / 50.0 <= 30.0 + 1e-9
        assert (savings - spent >= 0.0).all()


class TestMismatch:
    @pytest.mark.parametrize(
        "demand,inventory,expected",
        [(100.0, 50.0, 0.5), (50.0, 100.0, -0.5), (0.0, 0.0, 0.0), (7.0, 7.0, 0.0)],
    )
    def test_values(self, demand, inventory, expected):
        assert compute_mismatch(demand, inventory) == pytest.approx(expected)

    @given(
        demand=st.floats(min_value=0, max_value=1e12, allow_nan=False),
        inventory=st.floats(min_value=0, max_value=1e12, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_within_unit_interval(self, demand, inventory):
        assert -1.0 <= compute_mismatch(demand, inventory) <= 1.0

    @pytest.mark.parametrize(
        "demand,inventory", [(-1.0, 5.0), (5.0, -1.0), (math.nan, 5.0), (5.0, math.nan)]
    )
    def test_negative_or_nan_rejected(self, demand, inventory):
        with pytest.raises(ValueError):
            compute_mismatch(demand, inventory)


# -------------------------------------------------------------- adjustments


def adjust(wages, price, mismatch, params, rng):
    """One wage and price step of a one-run ensemble; returns its row's
    (wages after, price after)."""
    market = market_of(price)
    wages = np.array([wages], dtype=float)
    draws = adjustment_draws([rng], wages.shape[1])
    new_wages = adjust_wages_and_price(wages, market, np.array([mismatch]), params, draws)
    return new_wages[0], market.price[0]


class TestAdjustWagesAndPrice:
    def test_zero_mismatch_changes_nothing(self):
        params = AdjustmentParams()
        wages, price = adjust(np.full(4, 12.0), 100.0, 0.0, params, np.random.default_rng(0))
        assert all(w == 12.0 for w in wages)
        assert price == 100.0

    def test_wage_multipliers_bounded_over_many_draws(self):
        params = AdjustmentParams(max_wage_step=0.1)
        wages, _ = adjust(np.ones(10_000), 100.0, 0.5, params, np.random.default_rng(1))
        assert wages.min() >= 1.0
        assert wages.max() <= 1.05

    def test_price_multiplier_bounded_over_many_draws(self):
        params = AdjustmentParams(max_price_step=0.2)
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            _, price = adjust(np.empty(0), 1.0, -0.5, params, rng)
            assert 0.9 <= price <= 1.0

    def test_sign_follows_mismatch(self):
        params = AdjustmentParams()
        wages, price = adjust(np.full(50, 10.0), 100.0, -0.8, params, np.random.default_rng(5))
        assert all(w <= 10.0 for w in wages)
        assert price <= 100.0

    @pytest.mark.parametrize("mismatch", [-0.8, -0.0, 0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_matches_sequential_loop(self, mismatch, n):
        params = AdjustmentParams(max_wage_step=0.07, max_price_step=0.11)
        start = np.random.default_rng(n).lognormal(np.log(25.0), 0.8, n)
        wages, price = adjust(start, 123.4, mismatch, params, np.random.default_rng(9))
        ref_wages, ref_price = sequential_adjustment(
            start, 123.4, mismatch, params, np.random.default_rng(9)
        )
        assert_bits_equal(wages, ref_wages)
        assert_bits_equal(price, ref_price)


class TestTaylorRule:
    def test_worked_example(self):
        params = AdjustmentParams(
            natural_rate=0.01,
            target_inflation=0.02,
            inflation_response=0.5,
            unemployment_response=0.5,
            natural_unemployment=0.04,
        )
        assert update_interest_rate(params, 0.08, 0.04) == pytest.approx(0.06, abs=1e-12)

    def test_on_target_equals_natural_plus_target(self):
        params = AdjustmentParams()
        rate = update_interest_rate(params, params.target_inflation, params.natural_unemployment)
        assert rate == pytest.approx(params.natural_rate + params.target_inflation)

    def test_extreme_deflation_floors_at_zero(self):
        assert update_interest_rate(AdjustmentParams(), -1.0, 0.04) == 0.0

    @given(
        inflation=st.floats(min_value=-5, max_value=5, allow_nan=False),
        unemployment=st.floats(min_value=0, max_value=1, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_negative(self, inflation, unemployment):
        assert update_interest_rate(AdjustmentParams(), inflation, unemployment) >= 0.0

    def test_monotone_in_inflation_and_unemployment(self):
        params = AdjustmentParams()
        assert update_interest_rate(params, 0.10, 0.04) >= update_interest_rate(params, 0.02, 0.04)
        assert update_interest_rate(params, 0.02, 0.02) >= update_interest_rate(params, 0.02, 0.20)


# ------------------------------------------------------------- quantization


class TestQuantizeFraction:
    @pytest.mark.parametrize(
        "raw,expected",
        [(0.83, 0.84), (0.5, 0.5), (0.01, 0.02), (0.009, 0.0), (1.7, 1.0), (-0.3, 0.0)],
    )
    def test_half_up_on_002_grid(self, raw, expected):
        assert quantize_fraction(raw) == pytest.approx(expected, abs=1e-12)

    def test_001_grid(self):
        assert quantize_fraction(0.125, "0.01") == pytest.approx(0.13)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quantize_fraction(float("nan"))

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_integer_beyond_float_range_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            quantize_fraction(value)

    @given(st.floats(min_value=-2, max_value=3, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_result_always_on_grid(self, raw):
        snapped = quantize_fraction(raw)
        assert 0.0 <= snapped <= 1.0
        assert abs(snapped * 50 - round(snapped * 50)) < 1e-9


# ------------------------------------------- columnar kernels vs loops


def grid_midpoint_corpus(step: str) -> np.ndarray:
    """Every decimal midpoint of the grid as its nearest float, with both
    float neighbours, plus hand-picked ties and values off the grid."""
    quantum = Decimal(step)
    count = int(Decimal(1) / quantum)
    midpoints = np.array([float((2 * k + 1) * quantum / 2) for k in range(count)])
    ties = [0.01, 0.03, 0.83, 0.125, 0.0, -0.0, 1.0, -1e-300, -0.3, 1.7, 1e308, -1e308]
    return np.concatenate(
        (
            midpoints,
            np.nextafter(midpoints, np.inf),
            np.nextafter(midpoints, -np.inf),
            ties,
        )
    )


class TestQuantizeMatchesDecimal:
    @pytest.mark.parametrize("step", ["0.02", "0.01"])
    def test_midpoints_neighbours_and_ties(self, step):
        corpus = grid_midpoint_corpus(step)
        assert_bits_equal(
            quantize_fraction(corpus, step), [decimal_quantize(v, step) for v in corpus]
        )

    @pytest.mark.parametrize("step", ["0.02", "0.01"])
    def test_scalars_return_floats(self, step):
        for value in grid_midpoint_corpus(step).tolist():
            got = quantize_fraction(value, step)
            assert type(got) is float
            assert_bits_equal(got, decimal_quantize(value, step))

    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
        step=st.sampled_from(["0.02", "0.01"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_corpus(self, values, step):
        want = [decimal_quantize(v, step) for v in values]
        assert_bits_equal(quantize_fraction(np.array(values), step), want)
        assert_bits_equal([quantize_fraction(v, step) for v in values], want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_an_array_rejected(self, bad):
        with pytest.raises(ValueError):
            quantize_fraction(np.array([0.5, bad]))
        with pytest.raises(ValueError):
            quantize_fraction(bad, "0.01")


def saez_test_schedule() -> TaxSchedule:
    incomes = np.random.default_rng(11).lognormal(np.log(4000.0), 1.0, 500)
    return saez_schedule(incomes.tolist(), DEFAULT_BRACKETS, SaezParams())


class TestComputeTaxMatchesBracketLoop:
    @pytest.mark.parametrize("which", ["federal", "saez"])
    def test_thresholds_neighbours_and_lognormal_incomes(self, which, federal_schedule):
        schedule = federal_schedule if which == "federal" else saez_test_schedule()
        thresholds = np.array(schedule.thresholds)
        incomes = np.concatenate(
            (
                [0.0],
                thresholds,
                np.nextafter(thresholds, np.inf),
                np.nextafter(thresholds[1:], -np.inf),
                np.random.default_rng(0).lognormal(np.log(4000.0), 1.2, 2000),
            )
        )
        want = [bracket_loop_tax(schedule, z) for z in incomes.tolist()]
        assert_bits_equal(one_run_tax(schedule, incomes), want)

    def test_zero_income_in_an_array_pays_zero(self, federal_schedule):
        assert one_run_tax(federal_schedule, [0.0] * 3).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("income", [-1.0, math.nan])
    def test_negative_income_in_an_array_rejected(self, federal_schedule, income):
        with pytest.raises(ValueError):
            one_run_tax(federal_schedule, [100.0, income])
        with pytest.raises(ValueError):
            one_run_taxation(federal_schedule, [100.0, income])


# Threshold sets shared by the schedules of one ensemble: the policies'
# brackets, a single bracket, and two brackets off the cent grid.
THRESHOLD_SETS = (DEFAULT_BRACKETS, (0.0,), (0.0, 1.5, 2.25))


@st.composite
def schedule_rows_and_incomes(draw):
    """Up to four schedules sharing one threshold set, and a (runs x N)
    income matrix mixing 0.0, -0.0, each threshold, its neighbours one ulp
    either side and arbitrary incomes."""
    thresholds = draw(st.sampled_from(THRESHOLD_SETS))
    runs = draw(st.integers(1, 4))
    rates = st.lists(st.floats(0.0, 1.0), min_size=len(thresholds), max_size=len(thresholds))
    schedules = [TaxSchedule(thresholds, draw(rates)) for _ in range(runs)]
    edges = np.array(thresholds)
    specials = [0.0, -0.0, *edges, *np.nextafter(edges, np.inf), *np.nextafter(edges[1:], 0.0)]
    income = st.one_of(st.sampled_from(specials), st.floats(0.0, 1e6))
    n = draw(st.integers(1, 12))
    incomes = [draw(st.lists(income, min_size=n, max_size=n)) for _ in range(runs)]
    return schedules, np.array(incomes)


class TestScheduleRowsMatchBracketLoop:
    @given(case=schedule_rows_and_incomes())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_per_row(self, case):
        schedules, incomes = case
        got = compute_tax(ScheduleRows(schedules), incomes)
        want = np.array(
            [[bracket_loop_tax(s, z) for z in row] for s, row in zip(schedules, incomes.tolist())]
        )
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestGeneratorStreams:
    """The draws the kernels and the month loop make into buffers are the
    draws of the calls they replace, and leave each stream where those
    calls leave it."""

    @pytest.mark.parametrize("n", [0, 1, 50])
    def test_random_into_a_row_is_random_n(self, n):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        rows = np.empty((2, n))
        b.random(out=rows[1])
        assert_bits_equal(rows[1], a.random(n))
        assert a.random() == b.random()

    @pytest.mark.parametrize("n", [0, 1, 50])
    def test_adjustment_and_next_labor_in_one_call(self, n):
        # The month loop makes a month's N + 1 wage and price draws and the
        # next month's N labor draws with one call into a row.
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        rows = np.empty((2, 2 * n + 1))
        b.random(out=rows[1])
        assert_bits_equal(rows[1], np.concatenate((a.random(n + 1), a.random(n))))
        assert a.random() == b.random()

    @pytest.mark.parametrize("scale", [0.0, 5e-324, 0.0123, 0.5])
    def test_scaled_random_is_uniform_from_zero(self, scale):
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        want = [*a.uniform(0.0, scale, 20), a.uniform(0.0, 2 * scale)]
        draws = b.random(21)
        assert_bits_equal(np.append(draws[:-1] * scale, draws[-1] * (2 * scale)), want)
        assert a.random() == b.random()

    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_shuffled_offset_row_is_offset_permutation(self, n):
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        row = np.arange(3 * n, 4 * n)
        b.shuffle(row)
        assert row.tolist() == (a.permutation(n) + 3 * n).tolist()
        assert a.random() == b.random()


class TestConsumptionMatchesSequentialLoop:
    def check(self, savings, propensities, price, inventory, seed):
        spent, after, left, demand = consume(savings, propensities, price, inventory, seed)
        ref_spent, ref_after, ref_inventory, ref_demand = sequential_consumption(
            savings, propensities, price, inventory, np.random.default_rng(seed)
        )
        assert_bits_equal(spent, ref_spent)
        assert_bits_equal(after, ref_after)
        assert_bits_equal(left, ref_inventory)
        assert_bits_equal(demand, ref_demand)
        return spent

    @pytest.mark.parametrize("seed", range(20))
    def test_inventory_below_total_demand(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 60))
        savings = rng.lognormal(np.log(50_000.0), 0.6, n)
        propensities = rng.integers(0, 51, n) * 0.02
        price = float(rng.uniform(50.0, 200.0))
        total = sequential_sum(propensities * savings / price)
        inventory = float(total * rng.uniform(0.0, 1.2))
        self.check(savings, propensities, price, inventory, seed)

    def test_buyer_demand_equal_to_remaining_inventory(self):
        # Dyadic values keep the arithmetic exact: the third buyer in the
        # shuffled order wants exactly what the first two leave.
        savings = np.array([64.0, 32.0, 16.0, 8.0, 4.0, 2.0])
        propensities = np.full(6, 0.5)
        order = np.random.default_rng(9).permutation(6)
        inventory = float(sum(0.5 * savings[i] for i in order[:3]))
        spent = self.check(savings, propensities, 1.0, inventory, seed=9)
        assert spent[order[2]] == 0.5 * savings[order[2]]
        assert all(spent[i] == 0.0 for i in order[3:])

    def test_sequential_sum_is_left_to_right(self):
        assert sequential_sum([0.1] * 10) == 0.9999999999999999
        assert sequential_sum(np.array([1e16, 1.0, -1e16])) == 0.0
        assert sequential_sum([]) == 0.0

    def test_oracle_sum_is_left_to_right(self):
        # The oracles' own sum: the builtin sum gives 1.0 here from CPython 3.12 on.
        assert left_to_right_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_to_right_sum([0.1] * 10) == 0.9999999999999999
