"""Monthly simulation loop, result records, CSV outputs, and the
multi-system comparison harness.

Each month runs, in order: (1) policy proposal on the adjustment cadence,
(2) household decisions, (3) labor realization and production, (4) taxation
and income crediting, (5) consumption in a shuffled order, (6) mismatch-driven
wage/price adjustment, (7) recording, (8) quarterly reflection, (9) annual
inflation/unemployment, Taylor-rule update, and interest accrual.

The population is columnar: wage, savings, propensities, employment and
the month's flows are numpy arrays indexed by household id, and phases 3-7
and 9 are each one array pass over all households. Rule-based decisions are
one array pass too. LLM households keep a per-household path: each builds a
``DecisionContext`` from its array elements and asks the backend, and only
they keep a memory and a reflection note, since the note feeds prompts
alone. Every month is recorded into months x N arrays
(``SimulationResult.households``).

Determinism: a single numpy Generator seeded from the config drives every
draw in a fixed order (initial wages, initial savings, then per month: labor
in household order, the consumption shuffle, wage steps in household order,
the price step). Each array pass repeats the float operations of a
per-household loop in the same order, and every total is a left-to-right
``sequential_sum`` rather than numpy's pairwise sum, so the output bits do
not depend on how the work is vectorised or on the interpreter's ``sum``.
With the rule-based backend, or an LLM backend in replay or scripted mode,
two runs produce byte-identical outputs.

When LLM households reach a transport (live or record mode), a month's
decisions and a quarter's reflections each depend only on start-of-step
state, so they run concurrently on up to ``FAN_OUT_WORKERS`` threads. Their
results are applied in household order, so no output depends on the order in
which calls complete; only the record cache's line order does. Replay and
scripted runs call households one by one on the calling thread.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from taxsim import metrics
from taxsim.config import ConfigError, GatewayConfig, SimConfig
from taxsim.economy import (
    HOURS_PER_MONTH,
    MarketState,
    TaxSchedule,
    adjust_wages_and_price,
    apply_taxation,
    compute_mismatch,
    execute_consumption,
    produce,
    sequential_sum,
    update_interest_rate,
)
from taxsim.gateway import ChatGateway
from taxsim.households import (
    DEFAULT_DECISION,
    DECREASED,
    INCREASED,
    UNCHANGED,
    Decision,
    DecisionContext,
    LLMBackend,
    MemoryEntry,
    MemoryPool,
    decide,
    reflect,
    rule_based_decide,
)
from taxsim.metrics import MetricSnapshot
from taxsim.personas import load_personas, roster_for
from taxsim.policies import (
    FixedPolicy,
    PolicyObservation,
    SaezOptimalPolicy,
    TaxAgentPolicy,
    TaxPolicy,
    free_market_schedule,
    us_federal_schedule,
)
from taxsim.tables import write_records, write_rows, write_tuples

START_YEAR = 2001  # month 1 renders as "2001.01"
FAN_OUT_WORKERS = 12  # concurrent household LLM calls in live/record runs


@dataclass
class MonthRecord:
    """End-of-month snapshot of the market, the schedule in force, and the
    aggregate flows of the month."""

    month: int
    price: float
    inventory: float
    interest_rate: float
    rates: tuple[float, ...]
    total_pretax_income: float
    total_tax: float
    total_consumption: float
    total_wealth: float
    metrics: MetricSnapshot


@dataclass
class AnnualRecord:
    year: int
    inflation: float
    unemployment: float


# Per-household columns recorded every month, in households.csv order.
HOUSEHOLD_COLUMNS = (
    "hourly_wage",
    "savings",
    "work_propensity",
    "consumption_propensity",
    "employed",
    "pretax_income",
    "tax_paid",
    "posttax_income",
    "consumption_spent",
)


@dataclass
class SimulationResult:
    """Every record of one run. ``households`` maps each name in
    ``HOUSEHOLD_COLUMNS`` to a months x N array: row m holds month m + 1,
    column i household i, as recorded at the end of the month."""

    config: SimConfig
    month_records: list[MonthRecord]
    annual_records: list[AnnualRecord]
    households: dict[str, np.ndarray]
    summary: dict

    def write_outputs(self, out_dir: str | Path) -> Path:
        """Write monthly.csv, annual.csv, summary.json, and (when enabled)
        households.csv under ``out_dir``; numbers carry six decimals."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # monthly.csv flattens each record's rates and metrics; it leaves out
        # the month's totals.
        n_rates = len(self.month_records[0].rates)
        write_tuples(
            out / "monthly.csv",
            ["month", "price", "inventory", "interest_rate"]
            + [f"rate_{k + 1}" for k in range(n_rates)]
            + ["gini", "equality", "productivity", "social_outcome"],
            ["%d"] + ["%.6f"] * (3 + n_rates + 4),
            [
                (
                    r.month, r.price, r.inventory, r.interest_rate, *r.rates,
                    r.metrics.gini, r.metrics.equality,
                    r.metrics.productivity, r.metrics.social_outcome,
                )
                for r in self.month_records
            ],
        )
        write_records(out / "annual.csv", AnnualRecord, self.annual_records)
        if self.config.write_households:
            months, n = self.households["savings"].shape
            flat = [self.households[c].ravel() for c in HOUSEHOLD_COLUMNS]

            def household_block(start: int, stop: int) -> list[np.ndarray]:
                # Row r is month r // n + 1, household r % n; values are views.
                row = np.arange(start, stop)
                return [row // n + 1, row % n, *(column[start:stop] for column in flat)]

            write_rows(
                out / "households.csv",
                ["month", "household_id", *HOUSEHOLD_COLUMNS],
                ["%d", "%d", *("%d" if c == "employed" else "%.6f" for c in HOUSEHOLD_COLUMNS)],
                months * n,
                household_block,
            )
        (out / "summary.json").write_text(
            json.dumps(self.summary, indent=2) + "\n", encoding="utf-8"
        )
        return out


def month_label(month: int) -> str:
    """Calendar label for 1-based simulation month m, e.g. 3 -> "2001.03"."""
    year = START_YEAR + (month - 1) // 12
    return f"{year}.{(month - 1) % 12 + 1:02d}"


def _direction(current: float, previous: float | None) -> str:
    if previous is None or current == previous:
        return UNCHANGED
    return INCREASED if current > previous else DECREASED


def initial_schedule(tax_system: str) -> TaxSchedule:
    """Schedule in force before the first proposal: zero rates for the free
    market, the federal rates for every other system."""
    return free_market_schedule() if tax_system == "free" else us_federal_schedule()


def build_policy(config: SimConfig, gateway: ChatGateway | None) -> TaxPolicy:
    if config.tax_system in ("free", "us_federal"):
        return FixedPolicy(initial_schedule(config.tax_system))
    if config.tax_system == "saez":
        return SaezOptimalPolicy(config.saez)
    if config.tax_system == "tax_agent":
        if gateway is None:
            raise ConfigError("tax_agent needs a chat gateway")
        return TaxAgentPolicy(gateway, config.tax_agent)
    raise ConfigError(f"unknown tax system {config.tax_system!r}")


def build_backend(config: SimConfig, gateway: ChatGateway | None) -> LLMBackend | None:
    """The LLM backend, or None for rule-based households, whose decisions
    ``run`` computes for the whole population at once."""
    if config.household_backend == "rule_based":
        return None
    if gateway is None:
        raise ConfigError("llm household backend needs a chat gateway")
    return LLMBackend(gateway, config.household_llm)


def build_gateway(config: GatewayConfig) -> ChatGateway:
    if config.mode == "scripted":
        raise ConfigError(
            "scripted gateways hold an in-memory queue; construct one directly "
            "and pass it to run()"
        )
    return ChatGateway(
        config.mode,
        cache_path=config.cache_path or None,
        endpoint=config.endpoint,
        api_key_env=config.api_key_env,
        timeout=config.timeout_seconds,
    )


@contextmanager
def _household_map(fan_out: bool) -> Iterator[Callable]:
    """Yield the ``map`` that runs one household step over all households:
    the builtin on the calling thread, or that of a pool of
    ``FAN_OUT_WORKERS`` threads that are all joined when the block exits,
    even on error. Both return results, and ``pool.map`` re-raises a
    worker's exception, in household order."""
    if not fan_out:
        yield map
        return
    # Imported here: concurrent.futures pulls in logging, about 10 ms of
    # imports that runs which never fan out should not pay.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=FAN_OUT_WORKERS) as pool:
        yield pool.map


def run(
    config: SimConfig,
    gateway: ChatGateway | None = None,
    event_log: list[tuple[int, str]] | None = None,
) -> SimulationResult:
    """Execute a full simulation and return every record.

    ``gateway`` is only consulted when the config needs LLM calls (tax_agent
    system or llm household backend); passing one in overrides the config's
    gateway section. ``event_log`` (for tests) receives (month, step) pairs
    in execution order.
    """
    config.validate()
    needs_gateway = (
        config.tax_system == "tax_agent" or config.household_backend == "llm"
    )
    if needs_gateway and gateway is None:
        gateway = build_gateway(config.gateway)

    personas = roster_for(config.n_households, load_personas(config.persona_path or None))
    rng = np.random.default_rng(config.seed)
    n = config.n_households

    # The population, one array per quantity, indexed by household id.
    wage = rng.lognormal(math.log(config.initial.wage_median), config.initial.wage_sigma, n)
    savings = rng.lognormal(
        math.log(config.initial.savings_median), config.initial.savings_sigma, n
    )
    work = np.full(n, DEFAULT_DECISION.work_propensity)
    consumption = np.full(n, DEFAULT_DECISION.consumption_propensity)
    spent = np.zeros(n)
    market = MarketState(
        price=config.initial.price,
        inventory=config.initial.inventory,
        interest_rate=config.initial.interest_rate,
        productivity=config.productivity,
    )
    policy = build_policy(config, gateway)
    backend = build_backend(config, gateway)
    params = config.adjustment
    per_capita = config.productivity_metric == "per_capita"

    schedule = initial_schedule(config.tax_system)
    schedule_history: list[TaxSchedule] = [schedule]  # month-0 bootstrap entry
    productivity_history = [0.0]
    equality_history = [0.0]
    last_incomes = np.zeros(n)

    price_history: list[float] = []
    month_records: list[MonthRecord] = []
    annual_records: list[AnnualRecord] = []
    households = {
        name: np.empty((config.months, n), dtype=int if name == "employed" else float)
        for name in HOUSEHOLD_COLUMNS
    }
    # Only LLM households keep memories and notes: they feed prompts alone.
    memories = [MemoryPool() for _ in range(n)] if backend is not None else []
    notes = [""] * n
    previous_expected: list[float | None] = [None] * n
    previous_price: float | None = None

    def log(month: int, step: str) -> None:
        if event_log is not None:
            event_log.append((month, step))

    # Only live and record gateways wait on a transport, so only they gain
    # from overlapping calls; scripted replies must also pop in household order.
    fan_out = backend is not None and backend.gateway.mode in ("live", "record")
    with _household_map(fan_out) as map_households:
        for month in range(1, config.months + 1):
            date = month_label(month)

            # (1) policy proposal on the adjustment cadence, observing last month
            if (month - 1) % config.adjust_period_months == 0:
                observation = PolicyObservation(
                    month=month - 1,
                    incomes=tuple(last_incomes.tolist()),
                    wealth=tuple(savings.tolist()),
                    schedule_history=tuple(schedule_history),
                    productivity_history=tuple(productivity_history),
                    equality_history=tuple(equality_history),
                )
                schedule = policy.propose(observation)
                log(month, "propose")

            # (2) household decisions from start-of-month state
            expected = HOURS_PER_MONTH * wage
            if backend is None:
                work, consumption = rule_based_decide(schedule, expected, savings, market.price)
            else:
                expected_list = expected.tolist()
                contexts = [
                    DecisionContext(
                        date=date,
                        persona=personas[i],
                        expected_income=expected_list[i],
                        previous_schedule=schedule_history[-1],
                        current_schedule=schedule,
                        average_price=market.price,
                        savings=wealth_i,
                        interest_rate=market.interest_rate,
                        income_direction=_direction(expected_list[i], previous_expected[i]),
                        price_direction=_direction(market.price, previous_price),
                        last_consumption=spent_i,
                        reflection_note=notes[i],
                    )
                    for i, (wealth_i, spent_i) in enumerate(zip(savings.tolist(), spent.tolist()))
                ]
                decisions = list(
                    map_households(
                        partial(decide, backend),
                        contexts,
                        list(map(Decision, work.tolist(), consumption.tolist())),
                    )
                )
                work = np.array([d.work_propensity for d in decisions])
                consumption = np.array([d.consumption_propensity for d in decisions])
                previous_expected = expected_list
                previous_price = market.price
            log(month, "decide")

            # (3) labor realization, then production
            employed = (rng.random(n) < work).astype(int)
            pretax = produce(employed, wage, market)
            log(month, "produce")

            # (4) taxation with even redistribution; credit post-tax income
            posttax, tax, _ = apply_taxation(schedule, pretax)
            savings = savings + posttax
            log(month, "tax")

            # (5) consumption against post-production inventory
            available_supply = market.inventory
            spent, total_demand = execute_consumption(savings, consumption, market, rng)
            savings = savings - spent
            log(month, "consume")

            # (6) mismatch uses intended demand vs the pre-consumption inventory
            mismatch = compute_mismatch(total_demand, available_supply)
            wage = adjust_wages_and_price(wage, market, mismatch, params, rng)
            log(month, "adjust")

            # (7) record end-of-month state and metrics over wealth
            equality_score = metrics.equality(savings)
            productivity_score = metrics.productivity(savings, per_capita=per_capita)
            snapshot = MetricSnapshot(
                month=month,
                gini=metrics.gini(savings),
                equality=equality_score,
                productivity=productivity_score,
                social_outcome=metrics.social_outcome(equality_score, productivity_score),
            )
            month_records.append(
                MonthRecord(
                    month=month,
                    price=market.price,
                    inventory=market.inventory,
                    interest_rate=market.interest_rate,
                    rates=schedule.rates,
                    total_pretax_income=sequential_sum(pretax),
                    total_tax=sequential_sum(tax),
                    total_consumption=sequential_sum(spent),
                    total_wealth=sequential_sum(savings),
                    metrics=snapshot,
                )
            )
            columns = (wage, savings, work, consumption, employed, pretax, tax, posttax, spent)
            for name, column in zip(HOUSEHOLD_COLUMNS, columns):
                households[name][month - 1] = column
            if backend is not None:
                entries = map(
                    partial(MemoryEntry, date),
                    work.tolist(),
                    consumption.tolist(),
                    pretax.tolist(),
                    posttax.tolist(),
                    spent.tolist(),
                )
                for memory, entry in zip(memories, entries):
                    memory.add(entry)
            schedule_history.append(schedule)
            productivity_history.append(snapshot.productivity)
            equality_history.append(snapshot.equality)
            price_history.append(market.price)
            last_incomes = pretax
            log(month, "record")

            # (8) quarterly reflection
            if month % config.reflection_period_months == 0:
                if backend is not None:
                    notes = list(map_households(partial(reflect, backend), memories, notes))
                log(month, "reflect")

            # (9) annual metrics, Taylor-rule update, interest accrual
            if month % 12 == 0:
                inflation = metrics.annual_inflation(price_history)
                last_year = households["employed"][month - 12 : month]
                unemployment = metrics.annual_unemployment(last_year)
                market.interest_rate = update_interest_rate(params, inflation, unemployment)
                savings = savings * (1.0 + market.interest_rate)
                annual_records.append(
                    AnnualRecord(
                        year=month // 12, inflation=inflation, unemployment=unemployment
                    )
                )
                snapshot.inflation = inflation
                snapshot.unemployment = unemployment
                log(month, "annual")

    final = month_records[-1].metrics
    summary = {
        "tax_system": config.tax_system,
        "household_backend": config.household_backend,
        "seed": config.seed,
        "n_households": config.n_households,
        "months": config.months,
        "final_gini": round(final.gini, 6),
        "final_equality": round(final.equality, 6),
        "final_productivity": round(final.productivity, 6),
        "final_social_outcome": round(final.social_outcome, 6),
        "mean_annual_inflation": round(
            float(np.mean([a.inflation for a in annual_records])) if annual_records else 0.0, 6
        ),
        "mean_annual_unemployment": round(
            float(np.mean([a.unemployment for a in annual_records])) if annual_records else 0.0, 6
        ),
    }
    return SimulationResult(
        config=config,
        month_records=month_records,
        annual_records=annual_records,
        households=households,
        summary=summary,
    )


@dataclass
class ComparisonRow:
    tax_system: str
    seed: int
    final_gini: float
    final_equality: float
    final_productivity: float
    final_social_outcome: float


@dataclass
class ComparisonResult:
    rows: list[ComparisonRow]

    def mean_social_outcomes(self) -> dict[str, float]:
        """Each system's mean final social outcome, systems in first-seen
        order."""
        by_system: dict[str, list[float]] = {}
        for row in self.rows:
            by_system.setdefault(row.tax_system, []).append(row.final_social_outcome)
        return {
            system: sequential_sum(values) / len(values)
            for system, values in by_system.items()
        }

    def write_csv(self, path: str | Path) -> None:
        """Write comparison.csv: one row per run, numbers with six decimals."""
        write_records(Path(path), ComparisonRow, self.rows)


def compare(
    configs: Sequence[SimConfig],
    gateway_factory: Callable[[SimConfig], ChatGateway | None] | None = None,
) -> ComparisonResult:
    """Run several configs that share (n_households, months, seed) and
    collect their final metrics side by side."""
    if not configs:
        raise ValueError("compare needs at least one config")
    head = configs[0]
    for cfg in configs[1:]:
        if (
            cfg.n_households != head.n_households
            or cfg.months != head.months
            or cfg.seed != head.seed
        ):
            raise ValueError("compared configs must share n_households, months, seed")
    result = ComparisonResult(rows=[])
    for cfg in configs:
        gateway = gateway_factory(cfg) if gateway_factory else None
        sim = run(cfg, gateway=gateway)
        final = sim.month_records[-1].metrics
        result.rows.append(
            ComparisonRow(
                tax_system=cfg.tax_system,
                seed=cfg.seed,
                final_gini=final.gini,
                final_equality=final.equality,
                final_productivity=final.productivity,
                final_social_outcome=final.social_outcome,
            )
        )
    return result


def sweep(
    base: SimConfig,
    systems: Sequence[str],
    seeds: Sequence[int],
    gateway_factory: Callable[[SimConfig], ChatGateway | None] | None = None,
) -> list[ComparisonRow]:
    """Cross systems with seeds, one comparison per seed, rows flattened."""
    rows: list[ComparisonRow] = []
    for seed in seeds:
        configs = [
            replace(base, tax_system=system, seed=seed) for system in systems
        ]
        rows.extend(compare(configs, gateway_factory=gateway_factory).rows)
    return rows
