"""The benchmark's workloads and the checks on their outputs.

Each workload builds its inputs from the seed and drives the program through
its public calls only: ``run``, ``sweep``, ``SimulationResult.write_outputs``
and ``ChatGateway``. ``setup`` is what ``setup_s`` times; ``rep`` runs one
timed repetition and checks it outside the timed section.

taxsim is imported inside ``setup`` so that a set-up probe can time the
import itself.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from transport import BenchTransport

OUTPUT_FILES = ("monthly.csv", "annual.csv", "households.csv", "summary.json")
SWEEP_SYSTEMS = ("free", "us_federal", "saez")


@dataclass
class Rep:
    """One timed repetition: its wall time, output digest, operations
    attempted, operations that ended in a fallback, and failed checks."""

    wall_s: float
    digest: str
    ops: int
    fallbacks: int = 0
    problems: list[str] = field(default_factory=list)
    cache_bytes: int = 0
    scaled_wall_s: float = 0.0  # wall_s at the reference CPU speed (calibrate.py)


def _identity(value):
    return value


@dataclass
class State:
    """What set-up leaves for the repetitions."""

    taxsim: object
    seed: int
    config: object
    gateway: object = None
    recording: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    # Applied to each repetition's transport; the traced run wraps it in a span.
    wrap_transport: Callable = _identity


def _import_taxsim():
    import taxsim
    import taxsim.personas

    return taxsim


def _build_roster(taxsim, count: int) -> list:
    return taxsim.personas.roster_for(count, taxsim.personas.load_personas())


def digest_outputs(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        path = out_dir / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def output_problems(out_dir: Path, n: int) -> list[str]:
    """Budget balance every month, savings and inventory never negative,
    equality within [0, (N-1)/N], all read from the written outputs."""
    problems = [f"{name} missing" for name in OUTPUT_FILES if not (out_dir / name).exists()]
    if problems:
        return problems
    upper = (n - 1) / n + 1e-6  # the files carry six decimals
    with open(out_dir / "monthly.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if float(row["inventory"]) < 0:
                problems.append(f"month {row['month']}: inventory < 0")
            if not 0.0 <= float(row["equality"]) <= upper:
                problems.append(f"month {row['month']}: equality out of range")
    pretax: dict[str, float] = {}
    posttax: dict[str, float] = {}
    with open(out_dir / "households.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        i_month, i_savings = col["month"], col["savings"]
        i_pre, i_post = col["pretax_income"], col["posttax_income"]
        for row in reader:
            month = row[i_month]
            if float(row[i_savings]) < 0:
                problems.append(f"month {month}: savings < 0")
            pretax[month] = pretax.get(month, 0.0) + float(row[i_pre])
            posttax[month] = posttax.get(month, 0.0) + float(row[i_post])
    for month, total in pretax.items():
        if abs(posttax[month] - total) > 1e-6 * n + 1e-9 * total:
            problems.append(f"month {month}: budget does not balance")
    return problems[:10]


def _llm_ops(config) -> int:
    """Decisions, reflections and planner proposals in one run."""
    n, months = config.n_households, config.months
    return (
        n * months
        + n * (months // config.reflection_period_months)
        + math.ceil(months / config.adjust_period_months)
    )


class Workload:
    name = ""
    households = 0
    months = 0
    runs_per_rep = 1
    min_reps = 3
    # Scale wall time to the reference CPU speed; off where waiting dominates.
    cpu_bound = True

    def prepare(self, seed: int, work: Path) -> None:
        """Make inputs that set-up reads; runs before any set-up is timed."""

    def setup(self, seed: int, work: Path) -> State:
        raise NotImplementedError

    def rep(self, state: State, rep_dir: Path) -> Rep:
        raise NotImplementedError

    def ops_per_rep(self, state: State) -> int:
        return self.runs_per_rep

    def verify(self, state: State, work: Path) -> tuple[int, list[str]]:
        """Checks run once after measuring: (operations, problems)."""
        return 0, []


class SweepDefault(Workload):
    name = "sweep_default"
    households = 50
    months = 120
    seeds_per_rep = 3
    runs_per_rep = len(SWEEP_SYSTEMS) * seeds_per_rep

    def setup(self, seed, work):
        taxsim = _import_taxsim()
        base = taxsim.SimConfig()
        base.validate()
        _build_roster(taxsim, base.n_households)
        return State(taxsim, seed, base)

    def _seeds(self, state):
        return range(self.seeds_per_rep * state.seed, self.seeds_per_rep * (state.seed + 1))

    def rep(self, state, rep_dir):
        start = perf_counter()
        rows = state.taxsim.sweep(state.config, SWEEP_SYSTEMS, self._seeds(state))
        wall_s = perf_counter() - start
        payload = json.dumps([dataclasses.asdict(row) for row in rows], sort_keys=True)
        state.rows = rows
        problems = []
        if len(rows) != self.runs_per_rep:
            problems.append(f"sweep returned {len(rows)} rows")
        upper = (self.households - 1) / self.households
        problems += [
            f"{row.tax_system}/{row.seed}: equality out of range"
            for row in rows
            if not 0.0 <= row.final_equality <= upper
        ]
        digest = hashlib.sha256(payload.encode()).hexdigest()
        return Rep(wall_s, digest, self.runs_per_rep, problems=problems)

    def verify(self, state, work):
        """Re-run every swept config through ``run`` and check its outputs
        and that the sweep row matches the run's summary."""
        problems = []
        for row in state.rows:
            config = dataclasses.replace(state.config, tax_system=row.tax_system, seed=row.seed)
            out = work / "verify" / f"{row.tax_system}-{row.seed}"
            state.taxsim.run(config).write_outputs(out)
            problems += [f"{row.tax_system}/{row.seed}: {p}" for p in output_problems(out, self.households)]
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            for key in ("final_gini", "final_equality", "final_productivity", "final_social_outcome"):
                if summary[key] != round(getattr(row, key), 6):
                    problems.append(f"{row.tax_system}/{row.seed}: sweep {key} differs from run")
        return len(state.rows), problems


class RunLarge(Workload):
    name = "run_large"
    households = 500
    months = 120

    def setup(self, seed, work):
        taxsim = _import_taxsim()
        config = taxsim.SimConfig(n_households=self.households, months=self.months, seed=seed, tax_system="saez")
        config.validate()
        _build_roster(taxsim, config.n_households)
        return State(taxsim, seed, config)

    def rep(self, state, rep_dir):
        start = perf_counter()
        state.taxsim.run(state.config).write_outputs(rep_dir)
        wall_s = perf_counter() - start
        return Rep(wall_s, digest_outputs(rep_dir), 1, problems=output_problems(rep_dir, self.households))


class _LLMWorkload(Workload):
    def _config(self, taxsim, seed, mode, cache_path):
        config = taxsim.SimConfig(
            n_households=self.households,
            months=self.months,
            seed=seed,
            tax_system="tax_agent",
            household_backend="llm",
            gateway=taxsim.GatewayConfig(mode=mode, cache_path=str(cache_path)),
        )
        config.validate()
        return config

    def ops_per_rep(self, state):
        return _llm_ops(state.config)


class LLMRecord(_LLMWorkload):
    """Record mode into a fresh cache each repetition, against a transport
    whose latency is derived from the prompt hash."""

    name = "llm_record"
    households = 16
    months = 24
    latency_ms = 3.0
    cpu_bound = False  # wall time is mostly transport latency

    def setup(self, seed, work):
        taxsim = _import_taxsim()
        cache = work / "setup_cache.jsonl"
        config = self._config(taxsim, seed, "record", cache)
        _build_roster(taxsim, config.n_households)
        # Constructed so that setup_s covers it; each repetition records
        # into a fresh cache through its own gateway.
        gateway = taxsim.ChatGateway("record", cache_path=cache, transport=BenchTransport(self.latency_ms))
        return State(taxsim, seed, config, gateway)

    def rep(self, state, rep_dir):
        taxsim = state.taxsim
        transport = BenchTransport(self.latency_ms)
        cache = rep_dir / "cache.jsonl"
        gateway = taxsim.ChatGateway("record", cache_path=cache, transport=state.wrap_transport(transport))
        start = perf_counter()
        result = taxsim.run(state.config, gateway=gateway)
        wall_s = perf_counter() - start
        out = rep_dir / "out"
        result.write_outputs(out)
        return Rep(
            wall_s,
            digest_outputs(out),
            self.ops_per_rep(state),
            fallbacks=transport.fallbacks(),
            problems=output_problems(out, self.households),
            cache_bytes=cache.stat().st_size,
        )


class LLMReplay(_LLMWorkload):
    """Replay of a cache that ``prepare`` records with zero latency."""

    name = "llm_replay"
    households = 50
    months = 120
    min_reps = 5

    def prepare(self, seed, work):
        taxsim = _import_taxsim()
        cache = work / "replay_cache.jsonl"
        config = self._config(taxsim, seed, "record", cache)
        transport = BenchTransport(0.0)
        gateway = taxsim.ChatGateway("record", cache_path=cache, transport=transport)
        out = work / "recorded"
        taxsim.run(config, gateway=gateway).write_outputs(out)
        recording = {"digest": digest_outputs(out), "fallbacks": transport.fallbacks()}
        (work / "recording.json").write_text(json.dumps(recording), encoding="utf-8")

    def setup(self, seed, work):
        taxsim = _import_taxsim()
        cache = work / "replay_cache.jsonl"
        config = self._config(taxsim, seed, "replay", cache)
        _build_roster(taxsim, config.n_households)
        gateway = taxsim.ChatGateway("replay", cache_path=cache)
        recording = json.loads((work / "recording.json").read_text(encoding="utf-8"))
        return State(taxsim, seed, config, gateway, recording)

    def rep(self, state, rep_dir):
        start = perf_counter()
        result = state.taxsim.run(state.config, gateway=state.gateway)
        wall_s = perf_counter() - start
        result.write_outputs(rep_dir)
        digest = digest_outputs(rep_dir)
        problems = output_problems(rep_dir, self.households)
        if digest != state.recording["digest"]:
            problems.append("replayed outputs differ from the recording")
        return Rep(
            wall_s,
            digest,
            self.ops_per_rep(state),
            fallbacks=state.recording["fallbacks"],
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (SweepDefault(), RunLarge(), LLMRecord(), LLMReplay())}
