"""Core domain types and the four market mechanisms: production, bracketed
taxation with even redistribution, inventory-bounded consumption, and the
financial channel (Taylor-rule rate setting, mismatch-driven wage/price
adjustment).

The population is columnar: every household quantity is a numpy array
indexed by household id, and each mechanism is one array pass per month.
Functions return new arrays; the only mutation is of the ``MarketState``
passed in. Stochastic operations take an explicit numpy Generator.

Every total is a ``sequential_sum`` and every kernel repeats the float
operations of a per-household loop in the same order, so the results are
bit-identical to that loop's.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import lru_cache

import numpy as np

HOURS_PER_MONTH = 168  # 21 eight-hour working days


class ScheduleError(ValueError):
    """A tax schedule failed validation."""


def sequential_sum(values) -> float:
    """Left-to-right float sum, ``0.0`` when empty.

    Bit-equal to the builtin ``sum`` of CPython 3.11 on floats. ``np.sum``
    adds pairwise and CPython 3.12's ``sum`` is compensated; either would
    move the last bits of the outputs.
    """
    values = np.asarray(values, dtype=float)
    return float(np.cumsum(values)[-1]) if values.size else 0.0


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
    """
    midpoints, grid, midpoint_array, grid_array = _quantize_tables(step)
    if isinstance(value, np.ndarray):
        if not np.isfinite(value).all():
            raise ValueError(f"cannot quantize non-finite values in {value!r}")
        ticks = np.searchsorted(midpoint_array, value, side="right")
        return np.where(value == 0.0, value, grid_array[ticks])
    value = float(value)
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
            if not getattr(self, attr):
                raise ValueError(f"persona {attr} must be non-empty")
        if self.age <= 0:
            raise ValueError("persona age must be a positive integer")


@dataclass(frozen=True)
class TaxSchedule:
    """Bracketed marginal tax schedule: income inside bracket k, i.e. between
    thresholds[k] and thresholds[k+1], is taxed at rates[k]; the top bracket
    is open-ended."""

    thresholds: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(float(b) for b in self.thresholds))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.thresholds) != len(self.rates):
            raise ScheduleError("thresholds and rates must have equal length")
        if not self.thresholds:
            raise ScheduleError("schedule must have at least one bracket")
        if self.thresholds[0] != 0.0:
            raise ScheduleError("lowest bracket must start at 0")
        for lo, hi in zip(self.thresholds, self.thresholds[1:]):
            if hi <= lo:
                raise ScheduleError("thresholds must be strictly increasing")
        for rate in self.rates:
            if not 0.0 <= rate <= 1.0:
                raise ScheduleError("every rate must lie in [0, 1]")

    @property
    def num_brackets(self) -> int:
        return len(self.rates)


@dataclass
class MarketState:
    """Aggregate market state for the single consumption good."""

    price: float
    inventory: float = 0.0
    interest_rate: float = 0.0
    productivity: float = 1.0

    def __post_init__(self) -> None:
        if self.price <= 0:
            raise ValueError("price must be > 0")
        if self.inventory < 0:
            raise ValueError("inventory must be >= 0")
        if self.interest_rate < 0:
            raise ValueError("interest_rate must be >= 0")
        if self.productivity <= 0:
            raise ValueError("productivity must be > 0")


@dataclass(frozen=True)
class AdjustmentParams:
    """Wage/price adjustment caps and Taylor-rule coefficients."""

    max_wage_step: float = 0.05
    max_price_step: float = 0.10
    natural_rate: float = 0.01
    target_inflation: float = 0.02
    inflation_response: float = 0.5
    unemployment_response: float = 0.5
    natural_unemployment: float = 0.04

    def __post_init__(self) -> None:
        for attr in ("max_wage_step", "max_price_step"):
            step = getattr(self, attr)
            if not 0.0 < step <= 1.0:
                raise ValueError(f"{attr} must lie in (0, 1]")


def produce(employed: np.ndarray, wages: np.ndarray, market: MarketState) -> np.ndarray:
    """Run the month's production round.

    Every employed household (``employed`` is 0 or 1) supplies 168 hours of
    labor; output is hours times productivity, added to inventory. Returns
    the pre-tax incomes: hours times the household's own wage, zero when
    not working.
    """
    hours = employed * HOURS_PER_MONTH
    market.inventory += sequential_sum(hours * market.productivity)
    return hours * wages


def compute_tax(schedule: TaxSchedule, income):
    """Tax owed on ``income`` (a scalar, giving a float, or an array):
    each bracket's slice is taxed at that bracket's marginal rate only, so
    the total is continuous and nondecreasing in income.

    The tax is the full tax of every bracket below the income's, summed
    bracket by bracket, plus the marginal rate on the part inside it.
    """
    incomes = np.asarray(income, dtype=float)
    if (incomes < 0).any():
        raise ValueError("income must be >= 0")
    thresholds = np.array(schedule.thresholds)
    rates = np.array(schedule.rates)
    below = np.cumsum(np.concatenate(([0.0], rates[:-1] * np.diff(thresholds))))
    # bracket j holds incomes in (thresholds[j], thresholds[j + 1]]; -1 is zero income
    j = np.searchsorted(thresholds, incomes, side="left") - 1
    inside = np.maximum(j, 0)
    tax = np.where(
        j < 0, 0.0, below[inside] + rates[inside] * (incomes - thresholds[inside])
    )
    return float(tax) if tax.ndim == 0 else tax


def apply_taxation(
    schedule: TaxSchedule, pretax_incomes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Tax every income and redistribute the proceeds evenly.

    Post-tax income is ``z - T(z) + mean(T)``; the even lump-sum transfer
    balances the budget exactly, so total post-tax equals total pre-tax.

    Returns (posttax incomes, taxes, per-household redistribution).
    """
    pretax_incomes = np.asarray(pretax_incomes, dtype=float)
    if not pretax_incomes.size:
        raise ValueError("need at least one income")
    taxes = compute_tax(schedule, pretax_incomes)
    redistribution = sequential_sum(taxes) / taxes.size
    return pretax_incomes - taxes + redistribution, taxes, redistribution


def execute_consumption(
    savings: np.ndarray,
    propensities: np.ndarray,
    market: MarketState,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Let households buy goods in a random order until inventory runs out.

    Intended demand is the consumption propensity applied to start-of-round
    wealth (post-tax income already credited), divided by the price. Each
    purchase is capped by the remaining inventory: buyers before the one who
    would take inventory below zero get their full demand, that buyer gets
    what remains, and later buyers get nothing. Spending is further capped
    by the buyer's savings, which only binds at float rounding, so
    ``savings - spent`` is never negative. Inventory is updated in place.

    Returns (amount spent by household id, total intended demand).
    """
    demands = propensities * savings / market.price
    order = rng.permutation(savings.size)
    wanted = demands[order]
    # remaining[k] is the inventory left before the k-th buyer in order
    remaining = np.subtract.accumulate(np.concatenate(([market.inventory], wanted)))
    short = remaining[1:] < 0
    filled_in_order = np.where(short, 0.0, wanted)
    if short.any():
        first = int(np.argmax(short))
        filled_in_order[first] = remaining[first]
        market.inventory = 0.0
    else:
        market.inventory = float(remaining[-1])
    filled = np.empty_like(demands)
    filled[order] = filled_in_order
    return np.minimum(filled * market.price, savings), sequential_sum(demands)


def compute_mismatch(demand: float, inventory: float) -> float:
    """Demand-supply mismatch in [-1, 1]: (D - G) / max(D, G).

    An empty market (D = G = 0) exerts no pressure and returns 0.
    """
    if demand < 0 or inventory < 0:
        raise ValueError("demand and inventory must be >= 0")
    if demand == 0.0 and inventory == 0.0:
        return 0.0
    return float((demand - inventory) / max(demand, inventory))


def adjust_wages_and_price(
    wages: np.ndarray,
    market: MarketState,
    mismatch: float,
    params: AdjustmentParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Nudge every wage and the price toward the mismatch sign.

    Each multiplier is 1 + sign(mismatch) * U(0, cap * |mismatch|), drawn
    independently per wage and once for the price; wages draw first, in
    household order. Zero mismatch leaves everything unchanged (the draws
    still occur, keeping the rng stream layout fixed). Returns the new
    wages; the price is updated in place.
    """
    mismatch = float(mismatch)
    direction = 1 if mismatch > 0 else -1 if mismatch < 0 else 0
    magnitude = abs(mismatch)
    wage_steps = rng.uniform(0.0, params.max_wage_step * magnitude, len(wages))
    price_step = rng.uniform(0.0, params.max_price_step * magnitude)
    market.price = float(market.price * (1.0 + direction * price_step))
    return wages * (1.0 + direction * wage_steps)


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
