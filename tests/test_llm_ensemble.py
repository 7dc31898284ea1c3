"""LLM-household runs of one comparison advance as one ensemble.

Every row of such a sweep equals its config's lone ``run()`` in live,
record and replay mode; a cache recorded by the ensemble replays each run
alone to the bytes of its lone live run; configs that share a gateway
section share one gateway; and a reflecting month hands its reflections to
the call map before the next proposals, serially and fanned out.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

import taxsim.gateway as gateway_module
from helpers import OUTPUT_FILES, call_log, deterministic_reply, panicking_transport
from taxsim.config import GatewayConfig, SimConfig
from taxsim.gateway import ChatGateway
from taxsim.results import ComparisonRow
from taxsim.simulation import run, sweep

SYSTEMS = ("free", "us_federal", "saez", "tax_agent")
SEEDS = (0, 1)
BASE = SimConfig(n_households=6, months=9, household_backend="llm")
CONFIGS = [replace(BASE, tax_system=system, seed=seed) for seed in SEEDS for system in SYSTEMS]


def row_of(result) -> ComparisonRow:
    final = result.month_records[-1]
    config = result.config
    return ComparisonRow(
        config.tax_system,
        config.seed,
        final.gini,
        final.equality,
        final.productivity,
        final.social_outcome,
    )


def outputs(result, out_dir) -> dict[str, bytes]:
    result.write_outputs(out_dir)
    return {name: (out_dir / name).read_bytes() for name in OUTPUT_FILES}


class ThreadNotingTransport:
    """Answers like ``deterministic_reply`` and notes each calling thread."""

    def __init__(self) -> None:
        self.threads: set[int] = set()

    def __call__(self, request) -> str:
        self.threads.add(threading.get_ident())
        return deterministic_reply(request)


@pytest.fixture(scope="module")
def lone_runs(tmp_path_factory):
    """Each config's lone live run: its comparison row and output bytes."""
    out = tmp_path_factory.mktemp("lone")
    results = [run(c, gateway=ChatGateway("live", transport=deterministic_reply)) for c in CONFIGS]
    return [(row_of(r), outputs(r, out / str(i))) for i, r in enumerate(results)]


@pytest.mark.parametrize("mode", ["live", "record", "replay"])
def test_llm_household_sweep_rows_equal_lone_runs(mode, lone_runs, ensemble_sizes, tmp_path):
    cache = tmp_path / "ensemble.jsonl"
    transport = ThreadNotingTransport()
    if mode == "live":
        gateway = ChatGateway("live", transport=transport)
    else:
        gateway = ChatGateway("record", cache_path=cache, transport=transport)
    rows = sweep(BASE, SYSTEMS, SEEDS, gateway=gateway)
    # The calls fanned out over the pool.
    assert transport.threads - {threading.get_ident()}
    if mode == "replay":
        section = GatewayConfig(mode="replay", cache_path=str(cache))
        rows = sweep(replace(BASE, gateway=section), SYSTEMS, SEEDS)
    assert rows == [row for row, _ in lone_runs]
    assert ensemble_sizes == [len(CONFIGS)] * (2 if mode == "replay" else 1)
    if mode == "live":
        return
    for i, (config, (_, lone)) in enumerate(zip(CONFIGS, lone_runs)):
        gateway = ChatGateway("replay", cache_path=cache, transport=panicking_transport)
        assert outputs(run(config, gateway=gateway), tmp_path / str(i)) == lone


def test_configs_sharing_a_gateway_section_share_one_gateway(monkeypatch, tmp_path):
    base = replace(BASE, n_households=4, months=3)
    systems, seeds = SYSTEMS, (0, 1, 2)
    cache = tmp_path / "cache.jsonl"
    recorder = ChatGateway("record", cache_path=cache, transport=deterministic_reply)
    recorded = sweep(base, systems, seeds, gateway=recorder)

    loads: list[str] = []
    original = gateway_module.load_cache

    def counting(path):
        loads.append(str(path))
        return original(path)

    monkeypatch.setattr(gateway_module, "load_cache", counting)
    section = GatewayConfig(mode="replay", cache_path=str(cache))
    assert sweep(replace(base, gateway=section), systems, seeds) == recorded
    assert loads == [str(cache)]


def test_reflections_reach_the_map_before_the_next_proposals(monkeypatch, tmp_path):
    # Two proposing runs; reflections and proposals both at months 3 and 6.
    base = replace(BASE, n_households=4, months=7, seed=5)
    systems = ("saez", "tax_agent")
    cache = tmp_path / "cache.jsonl"
    quarter = ["decide"] * 3 + ["reflect", "propose"]
    want = ["propose", *quarter, *quarter, "decide"]

    log = call_log(monkeypatch)
    recorder = ChatGateway("record", cache_path=cache, transport=deterministic_reply)
    recorded = sweep(base, systems, [base.seed], gateway=recorder)
    assert log == [(True, name) for name in want]

    log.clear()
    replayer = ChatGateway("replay", cache_path=cache, transport=panicking_transport)
    assert sweep(base, systems, [base.seed], gateway=replayer) == recorded
    assert log == [(False, name) for name in want]
