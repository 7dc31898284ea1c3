"""Monthly simulation loop, result records, CSV outputs, and the
multi-system comparison harness.

Each month runs, in order: (1) policy proposal on the adjustment cadence,
(2) household decisions, (3) labor realization and production, (4) taxation
and income crediting, (5) consumption in a shuffled order, (6) mismatch-driven
wage/price adjustment, (7) recording, (8) quarterly reflection, (9) annual
inflation/unemployment, Taylor-rule update, and interest accrual.

(7) records each month's price, inventory and interest rate, which the
annual inflation and the LLM households' month read, and keeps the month's
pretax, tax, spent and savings rows. The totals and the metrics over wealth
are one pass over the kept rows of a proposal period, made at its end,
before the next proposal observes them, and at the last month. A run whose
policy is a ``FixedPolicy`` makes no proposal: its schedule never changes.

One loop advances an ensemble of runs in lockstep. ``run(config)`` is the
ensemble of one. ``sweep`` and ``compare`` put every rule-based config into
one ensemble with the others that differ from it only in tax system, seed
and the policy sections (``saez``, ``tax_agent``, ``gateway``); a config
with LLM households is an ensemble of one.

Shared: the population is columnar, one (runs x N) array per quantity
(wage, savings, propensities, employment, the month's flows), row r for run
r and column i for household i, and phases 2-7 and 9 are each one pass over
those arrays. Every schedule uses the ``DEFAULT_BRACKETS`` thresholds, so a
``ScheduleRows`` lets one ``compute_tax`` call find every bracket with one
``searchsorted`` and gather each run's rates. That call is made once a
month, on every household's full-time income before (2): the rule-based
decision reads it, and (4) charges it times employment. Totals and metrics
reduce along the rows.

Per run: a numpy Generator seeded from the run's config; a policy that
proposes from an observation of the run's own row; the market scalars
(price, inventory and interest rate, one array element each); and the
schedule, metric and price histories and the records. LLM households ask
their backend one household at a time from their row's elements, and only
they keep a memory and a reflection note, since the note feeds prompts
alone. The months x N household arrays (``SimulationResult.households``)
are kept only when ``households.csv`` is to be written; the annual
unemployment reads a 12 x N employment window per run instead.

Determinism: a run's Generator drives every draw of that run, and no other,
in a fixed order (initial wages, initial savings, then per month: labor in
household order, the consumption shuffle, wage steps in household order,
the price step). A month's wage and price draws and the next month's labor
draws are adjacent in that order, so they are one ``random`` call into a
row of 2N + 1 values; month 1's labor draws are made before the loop, and
the last month's go unused. Each array pass repeats the float operations
of a per-household loop in the same order on every element, and every
total is a left-to-right ``sequential_sum`` rather than numpy's pairwise
sum. numpy reduces along the last axis of an array whose rows are each
contiguous as it would reduce that row alone, so the row reductions
(``sequential_sum``, the ``cumsum`` of the four totals, ``gini``,
``productivity``) give each run's month the bits of its own 1-D reduction,
whether over one month's rows or a proposal period's stack of them, and
each annual unemployment reduces the run's contiguous 12 x N window as
before. So the output bits of
a run do not depend on how the work is vectorised, on which runs share its
ensemble, or on the interpreter's ``sum``. With the rule-based backend, or
an LLM backend in replay mode, two runs produce byte-identical outputs.

Each proposal is submitted at the end of the month before it, after (9):
it observes that month's incomes and the wealth after interest, which is
what step (1) would see, and no reflection note. So it can overlap the
reflections of (8), whose notes are collected only after the proposal is
submitted; no proposal is made after the last month.

When LLM households reach a transport (live or record mode), a month's
decisions, and a quarter's reflections together with the next proposal,
each depend only on state that is fixed before they start, so they run
concurrently on up to ``FAN_OUT_WORKERS`` threads. Their results are
applied in a fixed order (household order, then the proposal), so no output
depends on the order in which calls complete; only the record cache's line
order does. Every other run (rule-based or replay) makes each call on the
calling thread when its result is read, which keeps the serial order: a
quarter's reflections, then the next proposal, then the next month's
decisions.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from taxsim import metrics
from taxsim.config import ConfigError, GatewayConfig, SimConfig
from taxsim.economy import (
    HOURS_PER_MONTH,
    MarketState,
    ScheduleRows,
    TaxSchedule,
    adjust_wages_and_price,
    compute_mismatch,
    compute_tax,
    execute_consumption,
    produce,
    redistribute,
    update_interest_rate,
)
from taxsim.gateway import ChatGateway, GatewaySettingError
from taxsim.households import (
    DEFAULT_DECISION,
    DECREASED,
    INCREASED,
    UNCHANGED,
    DecisionContext,
    DecisionMonth,
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
from taxsim.results import (
    HOUSEHOLD_COLUMNS,
    AnnualRecord,
    ComparisonResult,
    ComparisonRow,
    MonthRecord,
    SimulationResult,
)

START_YEAR = 2001  # month 1 renders as "2001.01"
FAN_OUT_WORKERS = 32  # concurrent LLM calls in live/record runs


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
    """The policy of a validated config; ``_prepared`` has supplied the
    gateway when the system needs one."""
    if config.tax_system == "saez":
        return SaezOptimalPolicy(config.saez)
    if config.tax_system == "tax_agent":
        return TaxAgentPolicy(gateway, config.tax_agent)
    return FixedPolicy(initial_schedule(config.tax_system))


def build_backend(config: SimConfig, gateway: ChatGateway | None) -> LLMBackend | None:
    """The LLM backend, or None for rule-based households, whose decisions
    ``run`` computes for the whole population at once."""
    if config.household_backend == "rule_based":
        return None
    return LLMBackend(gateway, config.household_llm)


def build_gateway(config: GatewayConfig) -> ChatGateway:
    """The gateway of the config's gateway section; a setting its mode
    cannot work with is a ConfigError naming the key, before month 1."""
    try:
        return ChatGateway(
            config.mode,
            cache_path=config.cache_path or None,
            endpoint=config.endpoint,
            api_key_env=config.api_key_env,
            timeout=config.timeout_seconds,
        )
    except GatewaySettingError as exc:
        value = getattr(config, exc.setting)
        raise ConfigError(f"gateway.{exc.setting} {value!r}: {exc}") from None


class _Runner(NamedTuple):
    """How a run makes its LLM calls: ``map(fn, *iterables)`` yields
    ``fn``'s results in input order, and ``submit(fn, *args)`` returns a
    callable that returns ``fn(*args)``. Reading a result re-raises its
    call's exception."""

    map: Callable
    submit: Callable


@contextmanager
def _household_map(fan_out: bool) -> Iterator[_Runner]:
    """Yield the runner of the LLM calls of one household step or one
    proposal. Serially, ``map`` is the builtin and ``submit`` is ``partial``:
    each call runs on the calling thread when its result is read, so calls
    happen in the order their results are read. Fanned out, both hand their
    calls at once to a pool of ``FAN_OUT_WORKERS`` threads that are all
    joined when the block exits, even on error."""
    if not fan_out:
        yield _Runner(map, partial)
        return
    # Imported here: concurrent.futures pulls in logging, about 10 ms of
    # imports that runs which never fan out should not pay.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=FAN_OUT_WORKERS) as pool:
        yield _Runner(pool.map, lambda fn, *args: pool.submit(fn, *args).result)


# A month's scalars of each run, in the order of the rows of ``_Run.monthly``.
_MONTH_VALUES = (
    "price",
    "inventory",
    "interest_rate",
    "total_pretax_income",
    "total_tax",
    "total_consumption",
    "total_wealth",
    "gini",
    "equality",
    "productivity",
    "social_outcome",
)
_PRICE = _MONTH_VALUES.index("price")
_TOTALS = _MONTH_VALUES.index("total_pretax_income")  # the four totals follow
_GINI = _MONTH_VALUES.index("gini")  # the metric scores follow, in MetricSnapshot order


@dataclass
class _Run:
    """What one run of an ensemble keeps for itself: its Generator, its
    policy and schedules, its annual records, ``monthly``, its view of the
    ensemble's month values (months x ``_MONTH_VALUES``), and the metric
    histories its policy observes."""

    config: SimConfig
    rng: np.random.Generator
    policy: TaxPolicy
    schedule: TaxSchedule  # in force this month
    schedule_history: list[TaxSchedule]  # one per past month, after the month-0 bootstrap
    monthly: np.ndarray
    annual_records: list[AnnualRecord] = field(default_factory=list)
    households: dict[str, np.ndarray] = field(default_factory=dict)  # when kept
    # The metric histories a policy observes: 0.0 for month 0, then one
    # float a month, so that no observation converts ``monthly`` again.
    productivity_history: list[float] = field(default_factory=lambda: [0.0])
    equality_history: list[float] = field(default_factory=lambda: [0.0])

    def observation(
        self, months_done: int, incomes: np.ndarray, wealth: np.ndarray
    ) -> PolicyObservation:
        return PolicyObservation(
            month=months_done,
            incomes=incomes,
            wealth=wealth,
            schedule_history=tuple(self.schedule_history),
            productivity_history=tuple(self.productivity_history),
            equality_history=tuple(self.equality_history),
        )

    def final_row(self) -> ComparisonRow:
        """The run's final metrics, read from its last month's values."""
        scores = self.monthly[-1, _GINI:].tolist()
        return ComparisonRow(self.config.tax_system, self.config.seed, *scores)

    def result(self) -> SimulationResult:
        """The run's result, its month records built from ``monthly``."""
        config, annual = self.config, self.annual_records
        year_ends = {12 * a.year: a for a in annual}
        month_records = []
        rows = zip(self.monthly.tolist(), self.schedule_history[1:])
        for month, (values, schedule) in enumerate(rows, start=1):
            price, inventory, interest_rate, *totals = values[:_GINI]
            snapshot = MetricSnapshot(month, *values[_GINI:])
            if month in year_ends:
                snapshot.inflation = year_ends[month].inflation
                snapshot.unemployment = year_ends[month].unemployment
            month_records.append(
                MonthRecord(
                    month, price, inventory, interest_rate, schedule.rates, *totals, snapshot
                )
            )
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
                float(np.mean([a.inflation for a in annual])) if annual else 0.0, 6
            ),
            "mean_annual_unemployment": round(
                float(np.mean([a.unemployment for a in annual])) if annual else 0.0, 6
            ),
        }
        return SimulationResult(config, month_records, annual, self.households, summary)


# What may differ between the runs of one ensemble: each run draws from its
# own seed and proposes through its own policy and gateway. Every other
# setting is shared.
_PER_RUN_FIELDS = ("tax_system", "seed", "saez", "tax_agent", "gateway")
_SHARED_FIELDS = tuple(f.name for f in fields(SimConfig) if f.name not in _PER_RUN_FIELDS)


def _shared_settings(config: SimConfig) -> list:
    return [getattr(config, name) for name in _SHARED_FIELDS]


def _prepared(config: SimConfig, gateway: ChatGateway | None):
    """Validate ``config`` and pair it with its gateway: the one passed in,
    or, when the run makes LLM calls, one built from the gateway section."""
    config.validate()
    if gateway is None and (
        config.tax_system == "tax_agent" or config.household_backend == "llm"
    ):
        gateway = build_gateway(config.gateway)
    return config, gateway


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
    config, gateway = _prepared(config, gateway)
    (only,) = _simulate([config], [gateway], config.write_households, event_log)
    return only.result()


def _simulate(
    configs: Sequence[SimConfig],
    gateways: Sequence[ChatGateway | None],
    keep_households: bool,
    event_log: list[tuple[int, str]] | None = None,
) -> list[_Run]:
    """Advance an ensemble of validated runs in lockstep and return the
    runs in order; see the module docstring. ``configs`` differ at most in
    ``_PER_RUN_FIELDS``, and LLM households run alone.
    ``keep_households`` keeps the months x N household arrays."""
    head = configs[0]
    n = head.n_households
    personas = roster_for(n, load_personas(head.persona_path or None))
    backend = build_backend(head, gateways[0])
    params = head.adjustment
    per_capita = head.productivity_metric == "per_capita"

    # Month m's values of run r are monthly[m - 1, :, r].
    monthly = np.empty((head.months, len(_MONTH_VALUES), len(configs)))
    runs: list[_Run] = []
    initial_wages, initial_savings = [], []
    for i, (config, gateway) in enumerate(zip(configs, gateways)):
        rng = np.random.default_rng(config.seed)
        init = config.initial
        initial_wages.append(rng.lognormal(math.log(init.wage_median), init.wage_sigma, n))
        initial_savings.append(rng.lognormal(math.log(init.savings_median), init.savings_sigma, n))
        schedule = initial_schedule(config.tax_system)
        policy = build_policy(config, gateway)
        runs.append(_Run(config, rng, policy, schedule, [schedule], monthly[:, :, i]))
    rngs = [r.rng for r in runs]

    # The population, one (runs x N) array per quantity: row r is run r,
    # column i household i.
    shape = (len(runs), n)
    wage, savings = np.array(initial_wages), np.array(initial_savings)
    work = np.full(shape, DEFAULT_DECISION.work_propensity)
    consumption = np.full(shape, DEFAULT_DECISION.consumption_propensity)
    spent = np.zeros(shape)
    last_incomes = np.zeros(shape)
    # Row r, from run r's Generator: its N wage draws and price draw of
    # month m, then its N labor draws of month m + 1, which follow them in
    # the stream. Month 1's labor draws are made here.
    draws = np.empty((len(runs), 2 * n + 1))
    labor_draws = draws[:, n + 1 :]
    for rng, row in zip(rngs, labor_draws):
        rng.random(out=row)
    # The rows the metrics read, (pretax, tax, spent, savings) of every run,
    # month m at [(m - 1) % span]: the metrics of a proposal period are one
    # pass over its months, made at its end, before the next proposal reads
    # them, and at the last month.
    span = min(head.adjust_period_months, head.months)
    metric_rows = np.empty((span, 4, len(runs), n))
    # Employment of the last 12 months, month m at [:, (m - 1) % 12]: at
    # each year end every run's 12 x N window is in month order.
    employment = np.empty((len(runs), 12, n))
    market = MarketState(
        price=np.full(len(runs), head.initial.price),
        inventory=np.full(len(runs), head.initial.inventory),
        interest_rate=np.full(len(runs), head.initial.interest_rate),
        productivity=head.productivity,
    )
    schedules = ScheduleRows([r.schedule for r in runs])
    households = {
        name: np.empty((head.months, *shape), dtype=int if name == "employed" else float)
        for name in HOUSEHOLD_COLUMNS
    } if keep_households else {}
    # Only LLM households keep memories and notes: they feed prompts alone.
    memories = [MemoryPool() for _ in range(n)] if backend is not None else []
    notes = [""] * n
    previous_expected: list[float | None] = [None] * n
    previous_price: float | None = None
    # Each LLM household's last decision, its fallback when a reply fails.
    decisions = [DEFAULT_DECISION] * n if backend is not None else []

    def log(month: int, step: str) -> None:
        if event_log is not None:
            event_log.append((month, step))

    # A fixed schedule's proposal is the schedule in force, so only the
    # other runs propose.
    proposers = [i for i, r in enumerate(runs) if not isinstance(r.policy, FixedPolicy)]

    def submit_proposals(
        runner: _Runner, months_done: int, incomes: np.ndarray, wealth: np.ndarray
    ) -> list[tuple[_Run, Callable]] | None:
        """Each proposing run's proposal for the next month, when there is a
        next month and the cadence asks for one (None otherwise), submitted
        with the run's observation of its own last month. Its incomes and
        wealth are rows of one read-only copy of the proposers' rows, so a
        proposal in flight on a pool thread never sees a later month."""
        if months_done == head.months or months_done % head.adjust_period_months:
            return None
        incomes, wealth = incomes[proposers], wealth[proposers]
        incomes.setflags(write=False)
        wealth.setflags(write=False)
        proposing = (runs[k] for k in proposers)
        return [
            (r, runner.submit(r.policy.propose, r.observation(months_done, i, w)))
            for r, i, w in zip(proposing, incomes, wealth)
        ]

    def record_metrics(month: int, rows: np.ndarray) -> None:
        """The totals and metrics of the months up to ``month`` whose rows
        ``rows`` holds, one (4 x runs x N) block a month, into ``monthly``
        and each run's metric histories."""
        wealth = rows[:, 3]
        gini = metrics.gini(wealth)
        equality = metrics.equality(wealth, gini)
        productivity = metrics.productivity(wealth, per_capita=per_capita)
        block = monthly[month - len(rows) : month]
        # the four totals of every run, each a left-to-right sum of its row,
        # summed in place: the rows are not read again
        block[:, _TOTALS:_GINI] = rows.cumsum(axis=-1, out=rows)[..., -1]
        block[:, _GINI:] = np.stack(
            (gini, equality, productivity, metrics.social_outcome(equality, productivity)),
            axis=1,
        )
        for r, run_productivity, run_equality in zip(
            runs, productivity.T.tolist(), equality.T.tolist()
        ):
            r.productivity_history.extend(run_productivity)
            r.equality_history.extend(run_equality)

    # Only live and record gateways wait on a transport, so only they gain
    # from overlapping calls.
    fan_out = backend is not None and backend.gateway.mode != "replay"
    with _household_map(fan_out) as runner:
        proposals = submit_proposals(runner, 0, last_incomes, savings)
        for month in range(1, head.months + 1):
            date = month_label(month)

            # (1) on the cadence, each proposing run's proposal, submitted at
            # the end of the month before, takes force
            if proposals is not None:
                for r, proposal in proposals:
                    r.schedule = proposal()
                if proposals:
                    schedules = ScheduleRows([r.schedule for r in runs])
                log(month, "propose")

            # (2) household decisions from start-of-month state; the tax on
            # full-time income is computed once, for the decision and (4)
            expected = HOURS_PER_MONTH * wage
            full_time_tax = compute_tax(schedules, expected)
            if backend is None:
                work, consumption = rule_based_decide(
                    full_time_tax, expected, savings, market.price[:, None]
                )
            else:
                # LLM households: the ensemble is this one run, row 0
                (only,) = runs
                price, interest_rate = market.price.item(), market.interest_rate.item()
                expected_list = expected[0].tolist()
                # What every household sees alike this month, checked and
                # rendered once for all of them.
                shared = DecisionMonth(
                    date=date,
                    previous_schedule=only.schedule_history[-1],
                    current_schedule=only.schedule,
                    average_price=price,
                    interest_rate=interest_rate,
                    price_direction=_direction(price, previous_price),
                )
                contexts = map(
                    partial(DecisionContext, shared),
                    personas,
                    expected_list,
                    savings[0].tolist(),
                    map(_direction, expected_list, previous_expected),
                    spent[0].tolist(),
                    notes,
                )
                decisions = list(runner.map(partial(decide, backend), contexts, decisions))
                work = np.array([[d.work_propensity for d in decisions]])
                consumption = np.array([[d.consumption_propensity for d in decisions]])
                previous_expected = expected_list
                previous_price = price
            log(month, "decide")

            # (3) labor realization, then production
            employed = (labor_draws < work).astype(int)
            pretax = produce(employed, wage, market)
            log(month, "produce")

            # (4) taxation with even redistribution; credit post-tax income.
            # A worker's pre-tax income is its full-time income, the same
            # float, and a non-worker's is 0.0, which pays 0.0.
            tax = full_time_tax * employed
            posttax, _ = redistribute(pretax, tax)
            savings = savings + posttax
            log(month, "tax")

            # (5) consumption against post-production inventory
            available_supply = market.inventory
            spent, total_demand = execute_consumption(savings, consumption, market, rngs)
            savings = savings - spent
            log(month, "consume")

            # (6) mismatch uses intended demand vs the pre-consumption inventory
            mismatch = np.array(
                list(map(compute_mismatch, total_demand.tolist(), available_supply.tolist()))
            )
            for rng, row in zip(rngs, draws):
                rng.random(out=row)
            wage = adjust_wages_and_price(wage, market, mismatch, params, draws[:, : n + 1])
            log(month, "adjust")

            # (7) record end-of-month state; the totals and the metrics over
            # wealth at the end of a proposal period and at the last month
            monthly[month - 1, :_TOTALS] = market.price, market.inventory, market.interest_rate
            for r in runs:
                r.schedule_history.append(r.schedule)
            slot = (month - 1) % span
            np.concatenate((pretax, tax, spent, savings), out=metric_rows[slot].reshape(-1, n))
            if slot == span - 1 or month == head.months:
                record_metrics(month, metric_rows[: slot + 1])
            if households:
                columns = (wage, savings, work, consumption, employed, pretax, tax, posttax, spent)
                for name, column in zip(HOUSEHOLD_COLUMNS, columns):
                    households[name][month - 1] = column
            employment[:, (month - 1) % 12] = employed
            if backend is not None:
                entries = map(
                    partial(MemoryEntry, date),
                    work[0].tolist(),
                    consumption[0].tolist(),
                    pretax[0].tolist(),
                    posttax[0].tolist(),
                    spent[0].tolist(),
                )
                for memory, entry in zip(memories, entries):
                    memory.add(entry)
            last_incomes = pretax
            log(month, "record")

            # (8) quarterly reflection, submitted now and collected after
            # the next month's proposal is submitted
            reflecting = month % head.reflection_period_months == 0
            if reflecting and backend is not None:
                next_notes = runner.map(partial(reflect, backend), memories, notes)

            # (9) annual metrics and Taylor-rule update per run, then one
            # interest accrual over the ensemble
            if month % 12 == 0:
                for i, r in enumerate(runs):
                    inflation = metrics.annual_inflation(r.monthly[:month, _PRICE].tolist())
                    unemployment = metrics.annual_unemployment(employment[i])
                    market.interest_rate[i] = update_interest_rate(params, inflation, unemployment)
                    r.annual_records.append(AnnualRecord(month // 12, inflation, unemployment))
                savings = savings * (1.0 + market.interest_rate[:, None])
                log(month, "annual")

            # The next month's proposal reads no note, so it overlaps (8).
            proposals = submit_proposals(runner, month, last_incomes, savings)
            if reflecting:
                if backend is not None:
                    notes = list(next_notes)
                log(month, "reflect")

    for i, r in enumerate(runs):
        r.households = {name: column[:, i] for name, column in households.items()}
    return runs


def _comparison_rows(
    configs: Sequence[SimConfig],
    gateway_factory: Callable[[SimConfig], ChatGateway | None] | None,
) -> list[ComparisonRow]:
    """One row of final metrics per config, in order. Rule-based configs
    that differ only in ``_PER_RUN_FIELDS`` run as one ensemble; LLM
    households run alone. Every config is validated, and its gateway built,
    before any month runs; no household arrays are kept."""
    prepared = [
        _prepared(cfg, gateway_factory(cfg) if gateway_factory else None) for cfg in configs
    ]
    ensembles: list[list[int]] = []
    for i, (cfg, _) in enumerate(prepared):
        shared = _shared_settings(cfg)
        for members in ensembles:
            if cfg.household_backend == "rule_based" and shared == _shared_settings(
                prepared[members[0]][0]
            ):
                members.append(i)
                break
        else:
            ensembles.append([i])
    rows: list[ComparisonRow] = [None] * len(configs)  # type: ignore[list-item]
    for members in ensembles:
        ensemble = [prepared[i] for i in members]
        runs = _simulate([c for c, _ in ensemble], [g for _, g in ensemble], False)
        for i, r in zip(members, runs):
            rows[i] = r.final_row()
    return rows


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
    return ComparisonResult(rows=_comparison_rows(configs, gateway_factory))


def sweep(
    base: SimConfig,
    systems: Sequence[str],
    seeds: Sequence[int],
    gateway_factory: Callable[[SimConfig], ChatGateway | None] | None = None,
) -> list[ComparisonRow]:
    """Cross systems with seeds: one row per (seed, system), seed-major."""
    configs = [replace(base, tax_system=system, seed=seed) for seed in seeds for system in systems]
    return _comparison_rows(configs, gateway_factory)
