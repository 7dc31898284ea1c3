"""What a run and a comparison produce: the month, year and comparison
records, the per-household panel, and the CSV and JSON files written from
them."""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from taxsim.config import SimConfig
from taxsim.economy import sequential_sum
from taxsim.tables import write_rows, write_tuples


@dataclass
class MonthRecord:
    """One row of monthly.csv: the end-of-month market, the schedule in
    force, and the metrics over the wealth at the month's end."""

    month: int
    price: float
    inventory: float
    interest_rate: float
    rates: tuple[float, ...]
    gini: float
    equality: float
    productivity: float
    social_outcome: float


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
    """Every record of one run. When ``config.write_households`` is set,
    ``households`` maps each name in ``HOUSEHOLD_COLUMNS`` to a months x N
    array: row m holds month m + 1, column i household i, as recorded at the
    end of the month; otherwise it is empty."""

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
        # monthly.csv is one row per record, its rates flattened.
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
                    r.gini, r.equality, r.productivity, r.social_outcome,
                )
                for r in self.month_records
            ],
        )
        write_tuples(
            out / "annual.csv",
            ["year", "inflation", "unemployment"],
            ["%d", "%.6f", "%.6f"],
            [astuple(r) for r in self.annual_records],
        )
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
        write_tuples(
            Path(path),
            ["tax_system", "seed", "final_gini", "final_equality",
             "final_productivity", "final_social_outcome"],
            ["%s", "%d", "%.6f", "%.6f", "%.6f", "%.6f"],
            [astuple(r) for r in self.rows],
        )
