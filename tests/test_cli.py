from __future__ import annotations

import hashlib
import json

import pytest

from conftest import FIXTURES
from taxsim.cli import main


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_households": 5, "months": 8, "seed": 4}))
    return path


class TestRunCommand:
    def test_writes_outputs(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(small_config), "--out", str(out)])
        assert code == 0
        assert (out / "monthly.csv").exists()
        assert (out / "annual.csv").exists()
        assert (out / "households.csv").exists()
        assert (out / "summary.json").exists()
        printed = capsys.readouterr().out
        assert "final_social_outcome" in printed

    def test_overrides(self, small_config, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "run",
                "--config",
                str(small_config),
                "--system",
                "free",
                "--months",
                "5",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tax_system"] == "free"
        assert summary["months"] == 5
        assert summary["seed"] == 9

    def test_bad_config_value_is_one_error_line(self, tmp_path, capsys):
        assert main(["run", "--months", "0", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "taxsim: error: months must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_defaults_without_config(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--months", "3", "--out", str(out)])
        assert code == 0
        assert (out / "monthly.csv").exists()


class TestCompareCommand:
    def test_comparison_table(self, small_config, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(
            [
                "compare",
                "--config",
                str(small_config),
                "--systems",
                "free,us_federal",
                "--seeds",
                "1,2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("tax_system,seed")
        assert len(lines) == 5  # header + 2 systems x 2 seeds
        printed = capsys.readouterr().out
        assert "per-system mean final social outcome" in printed

    def test_comparison_csv_matches_golden_digest(self, tmp_path, capsys):
        # The sha256 of comparison.csv and the printed means for three
        # systems x two seeds at N=50 x 120; never re-bless them to make a
        # change pass.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_households": 50, "months": 120}))
        out = tmp_path / "cmp"
        argv = ["compare", "--config", str(config), "--systems", "free,us_federal,saez"]
        assert main(argv + ["--seeds", "0,1", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "comparison.csv").read_bytes()).hexdigest()
        assert digest == "ea8e3733ee7de4c57372e03c5f040908354a4bbbe219b85f179999c5ecb2c7ee"
        printed = capsys.readouterr().out.splitlines()
        means = printed[printed.index("per-system mean final social outcome:") + 1 :][:3]
        assert means == [
            "  free         188039.666172",
            "  us_federal   182793.940563",
            "  saez         118329.474480",
        ]

    def test_empty_systems_rejected(self, small_config):
        assert main(
            ["compare", "--config", str(small_config), "--systems", "", "--seeds", "1"]
        ) == 2

    def test_bad_seed_list_is_one_error_line(self, small_config, capsys):
        argv = ["compare", "--config", str(small_config), "--systems", "free", "--seeds", "a"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "taxsim: error: --seeds takes comma-separated integers, not 'a'\n"
        assert captured.out == ""


class TestReplayCommand:
    def test_replays_fixture_cache(self, tmp_path, capsys):
        out = tmp_path / "replayed"
        code = main(
            [
                "replay",
                "--config",
                str(FIXTURES / "replay_config.json"),
                "--cache",
                str(FIXTURES / "replay_cache.jsonl"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "monthly.csv").exists()
        assert "replayed 14 months" in capsys.readouterr().out
