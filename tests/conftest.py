from __future__ import annotations

from pathlib import Path

import pytest

import taxsim.simulation as simulation
from taxsim.economy import TaxSchedule
from taxsim.policies import DEFAULT_BRACKETS, US_FEDERAL_RATES

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def federal_schedule() -> TaxSchedule:
    return TaxSchedule(DEFAULT_BRACKETS, US_FEDERAL_RATES)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def ensemble_sizes(monkeypatch) -> list[int]:
    """The number of runs of each ensemble that ``_simulate`` advances."""
    sizes: list[int] = []
    original = simulation._simulate

    def counting(configs, *args, **kwargs):
        sizes.append(len(configs))
        return original(configs, *args, **kwargs)

    monkeypatch.setattr(simulation, "_simulate", counting)
    return sizes
