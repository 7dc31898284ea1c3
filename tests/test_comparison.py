"""The paper's comparison of the three rule-based systems over 100 seeds,
against README's "What the comparison shows": every number that section
states is read back here, so README and the simulator cannot drift apart."""

from __future__ import annotations

import math
import re
import statistics
from pathlib import Path

import pytest

from taxsim import SimConfig, sweep
from taxsim.results import ComparisonResult

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
SYSTEMS = ("free", "us_federal", "saez")
SEEDS = range(100)
SECTION = README.split("## What the comparison shows\n", 1)[1].split("\n## ", 1)[0]

# Each ordering README counts, by its wording there, over one seed's
# (free, us_federal, saez) rows.
ORDERINGS = {
    "equality `free` < `us_federal` < `saez`": lambda f, u, s: (
        f.final_equality < u.final_equality < s.final_equality
    ),
    "productivity `free` > `us_federal` > `saez`": lambda f, u, s: (
        f.final_productivity > u.final_productivity > s.final_productivity
    ),
    "social outcome `free` > `us_federal`": lambda f, u, s: (
        f.final_social_outcome > u.final_social_outcome
    ),
    "social outcome `us_federal` > `saez`": lambda f, u, s: (
        u.final_social_outcome > s.final_social_outcome
    ),
}
COLUMNS = (  # README's table columns, by row field and format
    ("final_equality", "{:.3f}"),
    ("final_productivity", "{:,.0f}"),
    ("final_social_outcome", "{:,.0f}"),
)


@pytest.fixture(scope="module")
def rows():
    return sweep(SimConfig(), list(SYSTEMS), SEEDS)


def per_seed(rows):
    """One (free, us_federal, saez) triple of rows per seed."""
    return list(zip(*(rows[i :: len(SYSTEMS)] for i in range(len(SYSTEMS)))))


def test_the_table_of_means_and_sds(rows):
    table = dict(re.findall(r"^\| `(\w+)` \| (.+) \|$", SECTION, re.M))
    assert list(table) == list(SYSTEMS)
    for system, by_seed in zip(SYSTEMS, zip(*per_seed(rows))):
        for (name, spec), cell in zip(COLUMNS, table[system].split(" | "), strict=True):
            values = [getattr(row, name) for row in by_seed]
            mean, sd = statistics.fmean(values), statistics.stdev(values)
            got = f"{spec.format(mean)} ({spec.format(sd)})"
            assert got == cell, f"{system} {name}: README says {cell}, the sweep gives {got}"


def test_the_social_outcome_mean_of_compare(rows):
    # ``taxsim compare`` prints these means.
    means = ComparisonResult(rows).mean_social_outcomes()
    table = dict(re.findall(r"^\| `(\w+)` \| .+ \| .+ \| ([\d,]+) \(", SECTION, re.M))
    got = {system: f"{mean:,.0f}" for system, mean in means.items()}
    assert got == table, f"mean social outcome: README says {table}, compare gives {got}"


def test_the_orderings_seed_by_seed(rows):
    counts = dict(re.findall(r"^- (.+): (\d+)[;.]$", SECTION, re.M))
    assert list(counts) == list(ORDERINGS)
    for claim, holds in ORDERINGS.items():
        got = sum(holds(*triple) for triple in per_seed(rows))
        assert got == int(counts[claim]), (
            f"{claim}: README says {counts[claim]} of 100 seeds, the sweep gives {got}"
        )


def test_the_paired_social_outcome_difference(rows):
    mean_text, se_text = re.search(
        r"mean\s+([\d,]+)\s+and\s+standard\s+error\s+([\d,]+)", SECTION
    ).groups()
    gaps = [f.final_social_outcome - u.final_social_outcome for f, u, _ in per_seed(rows)]
    mean = statistics.fmean(gaps)
    se = statistics.stdev(gaps) / math.sqrt(len(gaps))
    got = f"{mean:,.0f}", f"{se:,.0f}"
    assert got == (mean_text, se_text), (
        f"free - us_federal social outcome: README says {mean_text} (SE {se_text}), "
        f"the sweep gives {got[0]} (SE {got[1]})"
    )
