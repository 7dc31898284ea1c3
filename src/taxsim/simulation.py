"""Monthly simulation loop and the multi-system comparison harness. The
records a run returns, and the files written from them, live in
``results.py``, and the CSV writer in ``tables.py``.

``_simulate`` advances an ensemble of runs in lockstep through its one
gateway, None when no run makes LLM calls. ``run(config)`` is the ensemble
of one; ``sweep`` puts all its configs, which differ only in ``tax_system``
and ``seed``, into one ensemble, whatever their household backend, and
``compare`` runs each config alone, all prepared before any month runs.
``_Ensemble`` holds the state, one (runs x N) array per household quantity,
and each month calls its phases in order: ``decide``, ``produce``, ``tax``,
``consume``, ``adjust``, ``record``, ``annual`` and ``reflect``. The
households are ``_RuleBasedHouseholds``, one array pass, or
``_LLMHouseholds``, one call per household of every run, which alone keep
memories and notes.

Determinism: a run's Generator drives every draw of that run, and no other,
in a fixed order (initial wages, initial savings, then per month: labor in
household order, the consumption shuffle, wage steps in household order,
the price step). A month's wage and price draws and the next month's labor
draws are adjacent in that order, so they are one ``random`` call into a
row of 2N + 1 values; month 1's labor draws are made before the loop, and
the last month's go unused. Each array pass repeats the float operations
of a per-household loop in the same order on every element, and every
total is a left-to-right sum rather than numpy's pairwise sum. numpy
reduces along the last axis of an array whose rows are each contiguous as
it would reduce that row alone, so the row reductions (``sequential_sum``,
``gini``, ``productivity``) give each run's month the bits of its own 1-D
reduction, whether over one month's rows or a proposal period's stack of
them. A year end is one pass too: the annual inflation of every run's price
history and the unemployment of every run's 12 x N window, each stack
copied to C order first. So the output bits of a run do not depend on how
the work is vectorised, on which runs share its ensemble, or on the
interpreter's ``sum``. With the rule-based backend, or an LLM backend in
replay mode, two runs produce byte-identical outputs.

Each proposal is made at the end of the month before it, in ``reflect``,
after ``annual``, and takes force there: it observes that month's incomes
and the wealth after interest, and no reflection note. No proposal and no
reflection is made after the last month, since no month would read them.
A proposal is enacted by rewriting its run's row of the ensemble's
``ScheduleRows``.

The wealth metrics are computed where something reads them. ``run`` keeps
every month's record, and the planner's prompt reads the metric histories,
so a run, or an ensemble with a ``TaxAgentPolicy`` run, computes them at
each proposal period's end for all of its months, and at the last month.
Any other ensemble, as a ``sweep`` or ``compare`` of the offline systems,
is read only for its final rows, so it computes them at the last month
alone, from that month's savings.

Every LLM call goes through the one ``map`` that ``_llm_map`` yields, and
every round of calls is made and read inside the phase that submits it: a
month's decisions in ``decide``, a quarter's reflections together with the
next proposals in ``reflect``. Each round depends only on state that is
fixed before it starts, so an ensemble fans it out on up to
``FAN_OUT_WORKERS`` threads when its gateway is a live or record one,
whatever its household backend. Results are applied in a fixed order (run
by run, households in order, then the proposals), so no output depends on
the order in which calls complete; only the record cache's line order
does. An ensemble whose calls are replayed makes them serially in that
order: reflections, proposals, then decisions.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

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
    DecisionMonth,
    LLMBackend,
    build_household_prompt,
    decide,
    memory_line,
    reflect,
    rule_based_decide,
)
from taxsim.personas import load_personas, roster_for
from taxsim.policies import (
    PolicyObservation,
    SaezOptimalPolicy,
    TaxAgentPolicy,
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


def build_policy(
    config: SimConfig, gateway: ChatGateway | None
) -> SaezOptimalPolicy | TaxAgentPolicy | None:
    """The policy of a validated config (None for a fixed schedule);
    ``_prepared`` has supplied the gateway when the system needs one."""
    if config.tax_system == "saez":
        return SaezOptimalPolicy(config.saez)
    if config.tax_system == "tax_agent":
        return TaxAgentPolicy(gateway, config.tax_agent)
    return None


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


@contextmanager
def _llm_map(fan_out: bool) -> Iterator[Callable]:
    """Yield the ``map(fn, *iterables)`` that makes an ensemble's LLM calls:
    it yields ``fn``'s results in input order, and reading a result
    re-raises its call's exception. Serially it is the builtin, which is
    lazy: each call runs on the calling thread when its result is read, so
    calls happen in the order their results are read. Fanned out it is the
    ``map`` of a pool of ``FAN_OUT_WORKERS`` threads, which hands all its
    calls to the pool at once; the threads are all joined when the block
    exits, even on error."""
    if not fan_out:
        yield map
        return
    # Imported here: concurrent.futures pulls in logging, about 10 ms of
    # imports that runs which never fan out should not pay.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=FAN_OUT_WORKERS) as pool:
        yield pool.map


# A month's scalars of each run, in the order of the rows of ``_Run.monthly``:
# the fields of its ``MonthRecord`` but the month and the rates.
_MONTH_VALUES = (
    "price",
    "inventory",
    "interest_rate",
    "gini",
    "equality",
    "productivity",
    "social_outcome",
)
_PRICE = _MONTH_VALUES.index("price")
_GINI = _MONTH_VALUES.index("gini")  # the metric scores follow, in MonthRecord order
_EQUALITY = _MONTH_VALUES.index("equality")  # productivity follows


@dataclass
class _Run:
    """What one run of an ensemble keeps for itself: its policy and
    schedules, its annual records, and ``monthly``, its view of the
    ensemble's month values (months x ``_MONTH_VALUES``)."""

    config: SimConfig
    policy: SaezOptimalPolicy | TaxAgentPolicy | None  # None for a fixed schedule
    schedule: TaxSchedule  # in force this month
    schedule_history: list[TaxSchedule]  # one per past month, after the month-0 bootstrap
    monthly: np.ndarray
    annual_records: list[AnnualRecord] = field(default_factory=list)
    households: dict[str, np.ndarray] = field(default_factory=dict)  # when kept

    @property
    def planner(self) -> bool:
        """Whether the policy is the LLM planner, the one reader of the
        metric histories."""
        return isinstance(self.policy, TaxAgentPolicy)

    def observation(
        self, months_done: int, incomes: np.ndarray, wealth: np.ndarray
    ) -> PolicyObservation:
        """What the policy sees after ``months_done`` months. Only the
        planner's holds the metric histories, each 0.0 for month 0, then one
        value a month; a Saez policy's are empty."""
        histories = {}
        if self.planner:
            scores = self.monthly[:months_done, _EQUALITY : _EQUALITY + 2]
            equality, productivity = scores.T.tolist()
            histories = dict(
                productivity_history=(0.0, *productivity), equality_history=(0.0, *equality)
            )
        return PolicyObservation(
            month=months_done,
            incomes=incomes,
            wealth=wealth,
            schedule_history=tuple(self.schedule_history),
            **histories,
        )

    def propose(self, observation: PolicyObservation) -> TaxSchedule:
        return self.policy.propose(observation)

    def final_row(self) -> ComparisonRow:
        """The run's final metrics, read from its last month's values, the
        only month whose metrics every ensemble computes."""
        scores = self.monthly[-1, _GINI:].tolist()
        return ComparisonRow(self.config.tax_system, self.config.seed, *scores)

    def result(self) -> SimulationResult:
        """The run's result, its month records built from ``monthly``."""
        config, annual = self.config, self.annual_records
        month_records = [
            MonthRecord(month, *values[:_GINI], schedule.rates, *values[_GINI:])
            for month, (values, schedule) in enumerate(
                zip(self.monthly.tolist(), self.schedule_history[1:]), start=1
            )
        ]
        final = month_records[-1]
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


def _prepared(
    configs: Sequence[SimConfig], gateway: ChatGateway | None
) -> tuple[ChatGateway | None, list]:
    """Validate every config of an ensemble, then return the ensemble's one
    gateway and its persona roster. The gateway is None when no run makes
    LLM calls, else the one passed in, else one built from the configs'
    shared gateway section. A set ``persona_path`` is read and checked
    whatever the backend; the packaged roster is loaded only for LLM
    households, its one reader, and the roster is empty otherwise."""
    for config in configs:
        config.validate()
    head = configs[0]
    if not any(config.makes_llm_calls for config in configs):
        gateway = None
    elif gateway is None:
        gateway = build_gateway(head.gateway)
    reads_roster = head.persona_path or head.household_backend == "llm"
    return gateway, load_personas(head.persona_path or None) if reads_roster else []


def run(config: SimConfig, gateway: ChatGateway | None = None) -> SimulationResult:
    """Execute a full simulation and return every record.

    ``gateway`` is only consulted when the config needs LLM calls (tax_agent
    system or llm household backend); passing one in overrides the config's
    gateway section.
    """
    (only,) = _simulate([config], *_prepared([config], gateway), True)
    return only.result()


class _RuleBasedHouseholds:
    """Households that decide by ``rule_based_decide`` over the ensemble's
    arrays; they keep no memory and write no note."""

    def decide(self, state: _Ensemble, month: int) -> tuple[np.ndarray, np.ndarray]:
        price = state.market.price[:, None]
        return rule_based_decide(state.full_time_tax, state.expected, state.savings, price)

    def remember(self, *_) -> None:
        pass

    submit_reflections = collect_reflections = remember


class _LLMHouseholds:
    """What only LLM households keep, since it feeds their prompts alone:
    the ensemble's backend, and personas, memories, reflection notes, last
    decisions and last month's expected incomes and prices, which the
    prompts compare against: one per household of every run, run by run, as
    in the ensemble's raveled (runs x N) arrays, and one price per run."""

    def __init__(self, config: SimConfig, k: int, gateway: ChatGateway, personas: list) -> None:
        n = config.n_households
        self.backend = LLMBackend(gateway, config.household_llm)
        self.personas = roster_for(n, personas) * k
        self.memories = [deque(maxlen=12) for _ in range(k * n)]  # the last 12 months
        self.notes = [""] * (k * n)
        self.previous_expected: list[float | None] = [None] * (k * n)
        self.previous_price: list[float | None] = [None] * k
        # Each household's last decision, its fallback when a reply fails.
        self.decisions = [DEFAULT_DECISION] * (k * n)

    def decide(self, state: _Ensemble, month: int) -> tuple[np.ndarray, np.ndarray]:
        """Each household's decision on its rendered prompt. The amounts a
        prompt shows are checked for the whole ensemble at once; written so
        that NaN fails too, as every comparison with NaN is false."""
        amounts = state.expected, state.savings, state.spent
        if not all((amount >= 0).all() for amount in amounts):
            raise ValueError("currency fields must be >= 0")
        prices, rates = state.market.price.tolist(), state.market.interest_rate.tolist()
        expected, date = state.expected.ravel().tolist(), month_label(month)
        # What every household of a run sees alike this month, in
        # ``DecisionMonth``'s field order, checked and rendered once.
        shared = [
            DecisionMonth(date, r.schedule_history[-1], r.schedule, p, rate, _direction(p, last))
            for r, p, rate, last in zip(state.runs, prices, rates, self.previous_price)
        ]
        prompts = map(
            build_household_prompt,
            [view for view in shared for _ in range(state.n)],
            self.personas,
            expected,
            state.savings.ravel().tolist(),
            map(_direction, expected, self.previous_expected),
            state.spent.ravel().tolist(),
            self.notes,
        )
        decisions = list(state.map(decide, repeat(self.backend), prompts, self.decisions))
        self.decisions, self.previous_expected, self.previous_price = decisions, expected, prices
        work = np.array([d.work_propensity for d in decisions])
        consumption = np.array([d.consumption_propensity for d in decisions])
        return work.reshape(state.wage.shape), consumption.reshape(state.wage.shape)

    def remember(self, state: _Ensemble, month: int) -> None:
        rows = state.work, state.consumption, state.pretax, state.posttax, state.spent
        columns = [row.ravel().tolist() for row in rows]
        lines = map(memory_line, repeat(month_label(month)), *columns)
        for memory, line in zip(self.memories, lines):
            memory.append(line)

    def submit_reflections(self, state: _Ensemble) -> None:
        self.next_notes = state.map(reflect, repeat(self.backend), self.memories, self.notes)

    def collect_reflections(self) -> None:
        self.notes = list(self.next_notes)


class _Ensemble:
    """The state of an ensemble of runs that advance in lockstep, and the
    eight phases of its month, each a method of the month."""

    def __init__(self, configs, gateway, personas, records) -> None:
        head = self.head = configs[0]
        self.n = n = head.n_households
        k = len(configs)
        # Month m's values of run r are monthly[m - 1, :, r].
        monthly = self.monthly = np.empty((head.months, len(_MONTH_VALUES), k))
        runs: list[_Run] = []
        wages, savings = [], []
        self.rngs = [np.random.default_rng(config.seed) for config in configs]
        for i, (config, rng) in enumerate(zip(configs, self.rngs)):
            init = config.initial
            wages.append(rng.lognormal(math.log(init.wage_median), init.wage_sigma, n))
            savings.append(rng.lognormal(math.log(init.savings_median), init.savings_sigma, n))
            schedule = initial_schedule(config.tax_system)
            policy = build_policy(config, gateway)
            runs.append(_Run(config, policy, schedule, [schedule], monthly[:, :, i]))
        self.runs = runs
        self.proposers = np.flatnonzero([r.policy is not None for r in runs])
        # The population, one (runs x N) array per quantity: row r is run r,
        # column i household i.
        self.wage, self.savings = np.array(wages), np.array(savings)
        self.spent = np.zeros((k, n))
        self.pretax = np.zeros((k, n))  # last month's incomes, which proposals observe
        # Row r, from run r's Generator: its N wage draws and price draw of
        # month m, then its N labor draws of month m + 1, which follow them in
        # the stream. Month 1's labor draws are made here.
        self.draws = np.empty((k, 2 * n + 1))
        self.labor_draws = self.draws[:, n + 1 :]
        for rng, row in zip(self.rngs, self.labor_draws):
            rng.random(out=row)
        # The wealth the metrics read, every run's savings, month m at
        # [(m - 1) % span]: the metrics of a proposal period are one pass
        # over its months, made at its end, before the next proposal reads
        # them, and at the last month. Only when the caller keeps every
        # month's record or a planner reads them; else ``record`` computes
        # the last month's alone, for the final rows.
        self.every_period = records or any(r.planner for r in runs)
        if self.every_period:
            self.span = min(head.adjust_period_months, head.months)
            self.wealth_rows = np.empty((self.span, k, n))
        # Employment of the last 12 months, month m at [:, (m - 1) % 12]: at
        # each year end every run's 12 x N window is in month order.
        self.employment = np.empty((k, 12, n))
        init = head.initial
        prices = np.full(k, init.price), np.full(k, init.inventory), np.full(k, init.interest_rate)
        self.market = MarketState(*prices, head.productivity)
        self.schedules = ScheduleRows([r.schedule for r in runs])
        self.columns = {
            name: np.empty((head.months, k, n), dtype=int if name == "employed" else float)
            for name in HOUSEHOLD_COLUMNS
        } if records and head.write_households else {}
        llm = head.household_backend == "llm"
        self.households = (
            _LLMHouseholds(head, k, gateway, personas) if llm else _RuleBasedHouseholds()
        )

    def submit_proposals(self, months_done: int) -> Iterable[tuple[int, TaxSchedule]]:
        """Each proposing run's row paired with its proposal for the next
        month, when there is a next month and the cadence asks for one (none
        otherwise), submitted with the run's observation of its own last
        month; the caller reads them. Its incomes and wealth are rows of one
        read-only copy of the proposers' rows, so a proposal in flight on a
        pool thread never sees a later month."""
        if months_done == self.head.months or months_done % self.head.adjust_period_months:
            return ()
        incomes, wealth = self.pretax[self.proposers], self.savings[self.proposers]
        incomes.setflags(write=False)
        wealth.setflags(write=False)
        rows = self.proposers.tolist()
        proposing = [self.runs[row] for row in rows]
        observations = [
            r.observation(months_done, i, w) for r, i, w in zip(proposing, incomes, wealth)
        ]
        return zip(rows, self.map(_Run.propose, proposing, observations))

    def enact(self, proposals: Iterable[tuple[int, TaxSchedule]]) -> None:
        """Read the proposals; each takes force in its run's row from the
        next month."""
        for row, schedule in proposals:
            self.runs[row].schedule = schedule
            self.schedules.set_row(row, schedule)

    def decide(self, month: int) -> None:
        """Decisions from start-of-month state. The tax on full-time income
        is computed once, for the decision and ``tax``."""
        self.expected = HOURS_PER_MONTH * self.wage
        self.full_time_tax = compute_tax(self.schedules, self.expected)
        self.work, self.consumption = self.households.decide(self, month)

    def produce(self, month: int) -> None:
        """Labor realization, then production."""
        self.employed = (self.labor_draws < self.work).astype(int)
        self.pretax = produce(self.employed, self.wage, self.market)

    def tax(self, month: int) -> None:
        """Taxation with even redistribution; post-tax income is credited. A
        worker pays the tax on its full-time income, a non-worker 0.0."""
        self.tax_paid = self.full_time_tax * self.employed
        self.posttax, _ = redistribute(self.pretax, self.tax_paid)
        self.savings = self.savings + self.posttax

    def consume(self, month: int) -> None:
        """Consumption against the post-production inventory, and the
        mismatch of the intended demand with that inventory."""
        supply = self.market.inventory
        spent, demand = execute_consumption(self.savings, self.consumption, self.market, self.rngs)
        self.spent, self.savings = spent, self.savings - spent
        self.mismatch = np.array(list(map(compute_mismatch, demand.tolist(), supply.tolist())))

    def adjust(self, month: int) -> None:
        """Wage and price steps, drawn with the next month's labor."""
        for rng, row in zip(self.rngs, self.draws):
            rng.random(out=row)
        params, steps = self.head.adjustment, self.draws[:, : self.n + 1]
        self.wage = adjust_wages_and_price(self.wage, self.market, self.mismatch, params, steps)

    def record(self, month: int) -> None:
        """End-of-month state; the metrics over wealth at the end of a
        proposal period and at the last month, or, when no month but the
        last is read, at the last month alone."""
        market = self.market
        self.monthly[month - 1, :_GINI] = market.price, market.inventory, market.interest_rate
        for r in self.runs:
            r.schedule_history.append(r.schedule)
        if self.every_period:
            slot = (month - 1) % self.span
            self.wealth_rows[slot] = self.savings
            if slot == self.span - 1 or month == self.head.months:
                self.record_metrics(month, self.wealth_rows[: slot + 1])
        elif month == self.head.months:
            self.record_metrics(month, self.savings[None])
        if self.columns:
            columns = self.wage, self.savings, self.work, self.consumption, self.employed
            columns += (self.pretax, self.tax_paid, self.posttax, self.spent)
            for name, column in zip(HOUSEHOLD_COLUMNS, columns):
                self.columns[name][month - 1] = column
        self.employment[:, (month - 1) % 12] = self.employed
        self.households.remember(self, month)

    def record_metrics(self, month: int, wealth: np.ndarray) -> None:
        """The metrics of the months up to ``month``, whose wealth ``wealth``
        holds as one (runs x N) block a month, into ``monthly``."""
        gini = metrics.gini(wealth)
        equality = metrics.equality(wealth, gini)
        per_capita = self.head.productivity_metric == "per_capita"
        productivity = metrics.productivity(wealth, per_capita=per_capita)
        scores = gini, equality, productivity, metrics.social_outcome(equality, productivity)
        self.monthly[month - len(wealth) : month, _GINI:] = np.stack(scores, axis=1)

    def annual(self, month: int) -> None:
        """At a year end, the annual metrics of every run in one pass, each
        run's Taylor-rule update, then one interest accrual over the
        ensemble."""
        if month % 12:
            return
        inflation = metrics.annual_inflation(self.monthly[:month, _PRICE].T).tolist()
        unemployment = metrics.annual_unemployment(self.employment).tolist()
        rates, params = self.market.interest_rate, self.head.adjustment
        for i, r in enumerate(self.runs):
            rates[i] = update_interest_rate(params, inflation[i], unemployment[i])
            r.annual_records.append(AnnualRecord(month // 12, inflation[i], unemployment[i]))
        self.savings = self.savings * (1.0 + rates[:, None])

    def reflect(self, month: int) -> None:
        """On the cadence, when a later month follows, the reflections are
        submitted, then the next month's proposals, which read no note and so
        overlap them; the notes are collected, then the proposals are read
        and enacted. After the last month no note would be read, so none is
        asked for."""
        reflecting = month < self.head.months and month % self.head.reflection_period_months == 0
        if reflecting:
            self.households.submit_reflections(self)
        proposals = self.submit_proposals(month)
        if reflecting:
            self.households.collect_reflections()
        self.enact(proposals)


def _simulate(
    configs: Sequence[SimConfig],
    gateway: ChatGateway | None,
    personas: list,
    records: bool,
) -> list[_Run]:
    """Advance validated runs in lockstep, and return them in order. The
    configs differ only in ``tax_system`` and ``seed``, and share the
    ensemble's gateway, None when no run makes an LLM call, and the persona
    roster. ``records`` keeps every month's record, and the months x N
    household arrays when the config writes them; without it only the last
    month's metrics are computed, unless a planner reads every period's."""
    state = _Ensemble(configs, gateway, personas, records)
    # Only live and record gateways wait on a transport, so only they gain from fanning out.
    fan_out = gateway is not None and gateway.mode != "replay"
    with _llm_map(fan_out) as state.map:
        state.enact(state.submit_proposals(0))
        for month in range(1, state.head.months + 1):
            state.decide(month)
            state.produce(month)
            state.tax(month)
            state.consume(month)
            state.adjust(month)
            state.record(month)
            state.annual(month)
            state.reflect(month)
    for i, r in enumerate(state.runs):
        r.households = {name: column[:, i] for name, column in state.columns.items()}
    return state.runs


def compare(configs: Sequence[SimConfig]) -> ComparisonResult:
    """Run each config alone and collect their final metrics side by side,
    in order. Every config is prepared alone (validated, its gateway built,
    its roster read as ``_prepared`` says) before any month runs. Only the
    final rows are kept: a run with no planner computes its metrics at its
    last month alone, and no household arrays are kept."""
    prepared = [([config], *_prepared([config], None)) for config in configs]
    runs = (_simulate(*ensemble, False) for ensemble in prepared)
    return ComparisonResult(rows=[only.final_row() for (only,) in runs])


def sweep(
    base: SimConfig,
    systems: Sequence[str],
    seeds: Sequence[int],
    gateway: ChatGateway | None = None,
) -> list[ComparisonRow]:
    """Cross systems with seeds: one row per (seed, system), seed-major, all
    run as one ensemble, whose ``gateway`` is consulted as ``run``'s. Every
    config is validated, the gateway built and the roster read as
    ``_prepared`` says, before any month runs. Only the final rows are kept:
    the metrics are computed at the last month alone unless a run is a
    planner, and no household arrays are kept. No system or no seed runs
    nothing."""
    configs = [replace(base, tax_system=system, seed=seed) for seed in seeds for system in systems]
    if not configs:
        return []
    return [r.final_row() for r in _simulate(configs, *_prepared(configs, gateway), False)]
