"""Core domain types and the four market mechanisms: production, bracketed
taxation with even redistribution, inventory-bounded consumption, and the
financial channel (Taylor-rule rate setting, mismatch-driven wage/price
adjustment).

The population is columnar: every household quantity is a (runs x N)
numpy array, one row per run of an ensemble and one column per household,
and each mechanism is one array pass per month. A single run is an ensemble
of one. ``MarketState``, ``produce``, ``execute_consumption`` and
``adjust_wages_and_price`` take that shape only: the market holds one value
per run, ``execute_consumption`` takes one numpy Generator per row, and
``adjust_wages_and_price`` takes each row's uniform draws, made by the
caller.
``compute_tax`` and ``apply_taxation`` take that shape too, with the runs'
schedules in one ``ScheduleRows``, and so does ``redistribute``.
``quantize_fraction`` takes a scalar (one LLM reply) or an array, and
``sequential_sum`` a vector or rows; a scalar gives a float. Functions
return new arrays; the only mutation is of the ``MarketState`` passed in.

The simulation taxes each household once a month: ``compute_tax`` on its
full-time income before the decisions, which the rule-based decision reads,
and taxation then charges that tax times employment (0 or 1), since a
worker's pre-tax income is the same float; ``redistribute`` then shares
each run's taxes evenly. ``apply_taxation`` is the two steps in one call,
which no run makes.

Every total is a ``sequential_sum`` along its row and every kernel repeats
the float operations of a per-household loop in the same order, so the
results are bit-identical to that loop's, row by row.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from taxsim.config import AdjustmentParams

HOURS_PER_MONTH = 168  # 21 eight-hour working days


class ScheduleError(ValueError):
    """A tax schedule failed validation."""


def sequential_sum(values):
    """Left-to-right float sum, ``0.0`` when empty; of a 2-D array, the sum
    of each row.

    Bit-equal to the builtin ``sum`` of CPython 3.11 on floats. ``np.sum``
    adds pairwise and CPython 3.12's ``sum`` is compensated; either would
    move the last bits of the outputs.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        return values.cumsum(axis=1)[:, -1] if values.shape[1] else np.zeros(len(values))
    return float(values.cumsum()[-1]) if values.size else 0.0


@lru_cache(maxsize=None)
def _quantize_tables(step: str) -> tuple:
    """For the grid of ``step``: the float nearest each decimal midpoint
    (2k+1)*step/2 below 1, and the grid values float(k*step), each as a
    tuple (for bisect) and as a read-only array (for searchsorted)."""
    quantum = Decimal(step)
    top = int((Decimal(1) / quantum).quantize(Decimal("1"), rounding=ROUND_HALF_UP))
    midpoints = tuple(float((2 * k + 1) * quantum / 2) for k in range(top))
    grid = tuple(float(k * quantum) for k in range(top + 1))
    arrays = np.array(midpoints), np.array(grid)
    for array in arrays:
        array.setflags(write=False)
    return midpoints, grid, *arrays


def quantize_fraction(value, step: str = "0.02"):
    """Clamp ``value`` to [0, 1] and round half-up onto a decimal grid.

    ``step`` is given as a decimal string ("0.02", "0.01") so the grid is
    exact; binary-float division would misround values like 0.83. Rounding
    is half-up on the decimal ``repr`` of the value: a float x is at or
    above a decimal midpoint m exactly when x >= float(m), so the tick is
    the count of midpoint floats at or below x. That count is 0 below the
    grid and the top tick above it, which is the clamp. An input of -0.0
    stays -0.0, as it does through Decimal.

    An array (the rule-based population) is snapped in one numpy pass and
    gives an array; a scalar (one LLM reply) takes a bisect, which is
    several times cheaper than numpy's per-call overhead, and gives a float.
    An infinite value, NaN, or an integer too large for a float raises
    ``ValueError``.
    """
    midpoints, grid, midpoint_array, grid_array = _quantize_tables(step)
    if isinstance(value, np.ndarray):
        if not np.isfinite(value).all():
            raise ValueError(f"cannot quantize non-finite values in {value!r}")
        ticks = midpoint_array.searchsorted(value, side="right")
        return np.where(value == 0.0, value, grid_array.take(ticks))
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"cannot quantize non-finite value {value!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"cannot quantize non-finite value {value!r}")
    return value if value == 0.0 else grid[bisect_right(midpoints, value)]


@dataclass(frozen=True)
class Persona:
    """Identity card of one household: who they are and what they do."""

    name: str
    age: int
    city: str
    occupation: str

    def __post_init__(self) -> None:
        for attr in ("name", "city", "occupation"):
            value = getattr(self, attr)
            if not isinstance(value, str) or not value:
                raise ValueError(f"persona {attr} must be a non-empty string, not {value!r}")
        if type(self.age) is not int or not 1 <= self.age <= 150:  # a bool is no age
            raise ValueError(f"persona age must be an integer from 1 to 150, not {self.age!r}")

    @cached_property
    def prompt_texts(self) -> tuple[str, str]:
        """The household decision prompt's text before the date, and from
        the date to the expected income, rendered on the persona's first
        prompt and kept: a household's persona is the same every month."""
        return (
            f"You're {self.name}, a {self.age}-year-old individual living in "
            f"{self.city}. A tax planner adjusts your tax rates periodically. "
            "Now it's ",
            f". Last month, you worked as a(an) {self.occupation}. If you "
            "continue working this month, your expected income will be $",
        )


@dataclass(frozen=True)
class TaxSchedule:
    """Bracketed marginal tax schedule: income inside bracket k, i.e. between
    thresholds[k] and thresholds[k+1], is taxed at rates[k]; the top bracket
    is open-ended."""

    thresholds: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(map(float, self.thresholds)))
        object.__setattr__(self, "rates", tuple(map(float, self.rates)))
        if len(self.thresholds) != len(self.rates):
            raise ScheduleError("thresholds and rates must have equal length")
        if not self.thresholds:
            raise ScheduleError("schedule must have at least one bracket")
        if self.thresholds[0] != 0.0:
            raise ScheduleError("lowest bracket must start at 0")
        for lo, hi in zip(self.thresholds, self.thresholds[1:]):
            if not hi > lo:
                raise ScheduleError("thresholds must be strictly increasing")
        for rate in self.rates:
            if not 0.0 <= rate <= 1.0:
                raise ScheduleError("every rate must lie in [0, 1]")

    @cached_property
    def tax_below(self) -> tuple[float, ...]:
        """Full tax of the brackets below each threshold: each bracket's
        ``rate * (hi - lo)`` added left to right in floats, the bits of
        numpy's ``cumsum`` of them."""
        below = [0.0]
        for lo, hi, rate in zip(self.thresholds, self.thresholds[1:], self.rates):
            below.append(below[-1] + rate * (hi - lo))
        return tuple(below)

    @cached_property
    def prompt_texts(self) -> tuple[str, str, str]:
        """(thresholds, rates, rates in percent) as the household prompt
        spells them, rendered on the schedule's first prompt and kept: every
        household's prompt of a month shows the same schedules."""
        return (
            "[" + ", ".join(f"{b:.2f}" for b in self.thresholds) + "]",
            "[" + ", ".join(f"{r:.2f}" for r in self.rates) + "]",
            "[" + ", ".join(f"{r * 100:.2f}%" for r in self.rates) + "]",
        )

    @cached_property
    def planner_text(self) -> str:
        """The rates as the planner prompt's history spells them, rendered on
        the schedule's first planner prompt and kept: a schedule stays in
        force for a whole proposal period, so it fills many months of
        every later history."""
        return str([round(r, 2) for r in self.rates])


class ScheduleRows:
    """The schedules in force in the runs of an ensemble, one per row of its
    (runs x N) arrays. They share thresholds, so ``compute_tax`` finds every
    bracket with one ``searchsorted`` and gathers each row's rates and
    cumulative tax from ``bracket_table`` at the flat positions of its row,
    bracket k of row r at ``k + row_offsets[r]``. Each row holds its
    schedule's float rows, written by ``set_row``, which rewrites the row of
    a run whose schedule changes."""

    def __init__(self, schedules: Sequence[TaxSchedule]) -> None:
        self.thresholds = thresholds = schedules[0].thresholds
        shape = len(schedules), len(thresholds)
        self.bracket_table = np.array(thresholds), np.empty(shape), np.empty(shape)
        self.row_offsets = len(thresholds) * np.arange(len(schedules))[:, None]
        for row, schedule in enumerate(schedules):
            self.set_row(row, schedule)

    def set_row(self, row: int, schedule: TaxSchedule) -> None:
        """Put ``schedule`` in force in row ``row``; it must share the
        thresholds of row 0's."""
        if schedule.thresholds != self.thresholds:
            raise ScheduleError("the schedules of an ensemble must share thresholds")
        _, rates, below = self.bracket_table
        rates[row], below[row] = schedule.rates, schedule.tax_below


@dataclass
class MarketState:
    """Aggregate market state for the single consumption good, one value per
    run of the ensemble: price, inventory and interest rate are 1-D arrays
    of equal length, element r for row r of the household arrays."""

    price: np.ndarray
    inventory: np.ndarray
    interest_rate: np.ndarray
    productivity: float = 1.0

    def __post_init__(self) -> None:
        runs = np.shape(self.price)
        for name in ("price", "inventory", "interest_rate"):
            value = getattr(self, name)
            if not isinstance(value, np.ndarray) or value.ndim != 1 or value.shape != runs:
                raise ValueError(f"{name} must be a 1-D array, one value per run")
        # Written so that NaN fails too: every comparison with NaN is false.
        if not (self.price > 0).all():
            raise ValueError("price must be > 0")
        if not (self.inventory >= 0).all():
            raise ValueError("inventory must be >= 0")
        if not (self.interest_rate >= 0).all():
            raise ValueError("interest_rate must be >= 0")
        if not self.productivity > 0:
            raise ValueError("productivity must be > 0")


def produce(employed: np.ndarray, wages: np.ndarray, market: MarketState) -> np.ndarray:
    """Run the month's production round of every run.

    Every employed household (``employed`` is 0 or 1) supplies 168 hours of
    labor; output is hours times productivity, added to its run's
    inventory. Returns the pre-tax incomes: hours times the household's own
    wage, zero when not working.
    """
    hours = employed * HOURS_PER_MONTH
    market.inventory = market.inventory + sequential_sum(hours * market.productivity)
    return hours * wages


def compute_tax(schedules: ScheduleRows, incomes: np.ndarray) -> np.ndarray:
    """Tax owed on each of the (runs x N) ``incomes``, row r under schedule
    r: each bracket's slice is taxed at that bracket's marginal rate only, so
    the total is continuous and nondecreasing in income.

    The tax is the full tax of every bracket below the income's, summed
    bracket by bracket, plus the marginal rate on the part inside it. A zero
    income (0.0 or -0.0) lies in bracket 0 and pays ``0.0 + rate * ±0.0``,
    which is 0.0.
    """
    if not (incomes >= 0).all():  # NaN fails too
        raise ValueError("income must be >= 0")
    thresholds, rates, below = schedules.bracket_table
    # bracket k holds incomes in (thresholds[k], thresholds[k + 1]], and zero
    k = thresholds[1:].searchsorted(incomes, side="left")
    lower = thresholds.take(k)
    k = k + schedules.row_offsets  # row r pays the schedule of run r
    return below.take(k) + rates.take(k) * (incomes - lower)


def apply_taxation(
    schedules: ScheduleRows, pretax_incomes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tax the (runs x N) incomes and redistribute each run's proceeds
    evenly within the run.

    Post-tax income is ``z - T(z) + mean(T)``; the even lump-sum transfer
    balances the budget exactly, so total post-tax equals total pre-tax.

    Returns (posttax incomes, taxes, per-household redistribution of each
    run).

    The month loop does not call this: it computes each tax once, on the
    full-time income before the decisions, with ``compute_tax``, and then
    credits it with ``redistribute``. This function stays because
    perfbench's tracer times it by name.
    """
    if not pretax_incomes.size:
        raise ValueError("need at least one income")
    taxes = compute_tax(schedules, pretax_incomes)
    posttax, redistribution = redistribute(pretax_incomes, taxes)
    return posttax, taxes, redistribution


def redistribute(
    pretax_incomes: np.ndarray, taxes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Credit every income net of its tax plus an even share of its run's
    taxes: ``z - T + mean(T)``, the mean a ``sequential_sum`` over N.

    Returns (posttax incomes, per-household redistribution of each run).
    """
    redistribution = sequential_sum(taxes) / taxes.shape[1]
    return pretax_incomes - taxes + redistribution[:, None], redistribution


def execute_consumption(
    savings: np.ndarray,
    propensities: np.ndarray,
    market: MarketState,
    rng: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Let the households of every run buy goods in a random order until
    their run's inventory runs out.

    Intended demand is the consumption propensity applied to start-of-round
    wealth (post-tax income already credited), divided by the price. Each
    purchase is capped by the remaining inventory: buyers before the one who
    would take inventory below zero get their full demand, that buyer gets
    what remains, and later buyers get nothing. Spending is further capped
    by the buyer's savings, which only binds at float rounding, so
    ``savings - spent`` is never negative. Inventory is updated in place.
    Each run (row) shuffles with its own Generator, ``rng[r]``, and buys
    from its own inventory.

    Returns (amount spent, each run's total intended demand).
    """
    price = market.price[:, None]
    demands = propensities * savings / price
    # Each run's shuffle of its own row, as flat positions in the ensemble:
    # shuffling row r of the flat positions in place makes the draws of
    # ``permutation(N)`` and gives its result plus r * N.
    order = np.arange(demands.size).reshape(demands.shape)
    for generator, row in zip(rng, order):
        generator.shuffle(row)
    wanted = demands.take(order)
    # remaining[:, k] is the inventory left before the k-th buyer in order;
    # demands are >= 0 (so are savings and propensities), so it never rises
    # and a run fell short iff its last entry is negative
    remaining = np.subtract.accumulate(
        np.concatenate((market.inventory[:, None], wanted), axis=1), axis=1
    )
    short = remaining[:, 1:] < 0
    filled_in_order = np.where(short, 0.0, wanted)
    partial = remaining[:, -1] < 0
    if partial.any():
        first = np.argmax(short[partial], axis=1)  # each partial run's first short buyer
        filled_in_order[partial, first] = remaining[partial, first]
    market.inventory = np.where(partial, 0.0, remaining[:, -1])
    filled = np.empty_like(demands)
    filled.put(order, filled_in_order)
    return np.minimum(filled * price, savings), sequential_sum(demands)


def compute_mismatch(demand: float, inventory: float) -> float:
    """Demand-supply mismatch in [-1, 1]: (D - G) / max(D, G).

    An empty market (D = G = 0) exerts no pressure and returns 0.
    """
    if not (demand >= 0 and inventory >= 0):  # NaN fails too
        raise ValueError("demand and inventory must be >= 0")
    if demand == 0.0 and inventory == 0.0:
        return 0.0
    return float((demand - inventory) / max(demand, inventory))


def adjust_wages_and_price(
    wages: np.ndarray,
    market: MarketState,
    mismatch: np.ndarray,
    params: AdjustmentParams,
    draws: np.ndarray,
) -> np.ndarray:
    """Nudge every wage and each run's price toward the sign of the run's
    mismatch.

    Each multiplier is 1 + sign(mismatch) * U(0, cap * |mismatch|), drawn
    independently per wage and once for the price. Row r of ``draws`` holds
    run r's N + 1 ``random()`` draws, its wage draws in household order and
    then its price draw; they are drawn even at zero mismatch, which leaves
    everything unchanged, so the rng stream layout stays fixed. Run r uses
    ``mismatch[r]``. Returns the new wages; the price is updated in place.
    """
    direction = np.sign(mismatch)
    magnitude = np.abs(mismatch)
    # ``uniform(0.0, c)`` is ``0.0 + c * random()``, which is
    # ``c * random()`` for c >= 0.
    wage_steps = draws[:, :-1] * (params.max_wage_step * magnitude)[:, None]
    price_steps = draws[:, -1] * (params.max_price_step * magnitude)
    market.price = market.price * (1.0 + direction * price_steps)
    return wages * (1.0 + direction[:, None] * wage_steps)


def update_interest_rate(
    params: AdjustmentParams, inflation: float, unemployment: float
) -> float:
    """Taylor-rule interest rate, floored at zero.

    Rises with inflation above target and falls as unemployment exceeds its
    natural level.
    """
    rate = (
        params.natural_rate
        + params.target_inflation
        + params.inflation_response * (inflation - params.target_inflation)
        + params.unemployment_response * (params.natural_unemployment - unemployment)
    )
    return max(rate, 0.0)
