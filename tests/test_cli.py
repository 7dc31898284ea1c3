from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

import taxsim.cli as cli_module
import taxsim.gateway as gateway_module
from conftest import FIXTURES
from helpers import COMPARISON_CSV_SHA256
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

    def test_size_beyond_the_cap_is_one_error_line(self, tmp_path, capsys):
        assert main(["run", "--months", str(10**30), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "taxsim: error: months must be <= 1200\n"
        assert not (tmp_path / "out").exists()

    def test_bad_section_value_is_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"household_llm": {"temperature": -1}}))
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "taxsim: error: household_llm.temperature must be >= 0\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_record_without_cache_path_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TAXSIM_API_KEY", "secret")
        config = tmp_path / "config.json"
        gateway = {"mode": "record", "endpoint": "http://example.invalid"}
        config.write_text(json.dumps({"tax_system": "tax_agent", "gateway": gateway}))
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("taxsim: error: gateway.cache_path")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_record_cache_under_a_file_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TAXSIM_API_KEY", "secret")
        calls = []
        monkeypatch.setattr(gateway_module, "http_chat_transport", lambda *args: calls.append)
        (tmp_path / "f").write_text("a file, not a directory")
        config = tmp_path / "config.json"
        gateway = {
            "mode": "record",
            "endpoint": "http://example.invalid",
            "cache_path": str(tmp_path / "f" / "cache.jsonl"),
        }
        config.write_text(json.dumps({"tax_system": "tax_agent", "gateway": gateway}))
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("taxsim: error: gateway.cache_path")
        assert captured.err.count("\n") == 1
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_lone_surrogate_persona_is_one_error_line(self, tmp_path, capsys):
        roster = tmp_path / "roster.json"
        record = {"name": "Ann\ud800", "age": 30, "city": "Reno", "occupation": "Baker"}
        roster.write_text(json.dumps([record]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"persona_path": str(roster)}))
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"taxsim: error: persona_path {str(roster)!r}: record 0 holds a string that "
            "is not valid UTF-8 ('\\ud800')\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_live_without_credential_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TAXSIM_API_KEY", raising=False)
        config = tmp_path / "config.json"
        gateway = {"mode": "live", "endpoint": "http://example.invalid"}
        config.write_text(json.dumps({"household_backend": "llm", "gateway": gateway}))
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "taxsim: error: gateway.api_key_env 'TAXSIM_API_KEY': live mode requires a "
            "credential in $TAXSIM_API_KEY\n"
        )
        assert not (tmp_path / "out").exists()

    def test_config_directory_is_one_error_line(self, tmp_path, capsys):
        argv = ["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"taxsim: error: config file {str(tmp_path)!r}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_config_that_is_no_object_is_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[]")
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "taxsim: error: config root must be a JSON object\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_repeated_config_key_is_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"months": 1200, "months": 2}')
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"taxsim: error: config file {str(config)!r} repeats the key 'months'\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,data,encoder",
        [
            ("tax_agent.model_id", {"tax_agent": {"model_id": "q\ud800"}}, "UTF-8"),
            ("output_dir", {"output_dir": "q\ud800"}, "os.fsencode"),
        ],
    )
    def test_string_that_cannot_be_encoded_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, key, data, encoder
    ):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))  # the surrogate as a "\ud800" escape
        argv = ["run", "--config", str(config), "--months", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"taxsim: error: {key} 'q\\ud800' does not encode with {encoder}\n"
        )
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["config.json"]  # not even the default "out"

    def test_output_dir_with_a_nul_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_households": 2, "months": 2, "output_dir": "o\u0000x"}))
        assert main(["run", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "taxsim: error: output_dir 'o\\x00x' holds a NUL character\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["config.json"]

    def test_out_with_an_undecodable_byte_still_runs(self, tmp_path):
        # Python decodes the byte 0xff of a command-line argument to "\udcff",
        # and os.fsencode turns it back into that byte.
        out = os.fsencode(tmp_path) + b"/out\xff"
        assert main(["run", "--months", "1", "--out", os.fsdecode(out)]) == 0
        assert (Path(os.fsdecode(out)) / "monthly.csv").exists()
        assert os.listdir(os.fsencode(tmp_path)) == [b"out\xff"]

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
        # The printed means for three systems x two seeds at N=50 x 120;
        # never re-bless them to make a change pass.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_households": 50, "months": 120}))
        out = tmp_path / "cmp"
        argv = ["compare", "--config", str(config), "--systems", "free,us_federal,saez"]
        assert main(argv + ["--seeds", "0,1", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "comparison.csv").read_bytes()).hexdigest()
        assert digest == COMPARISON_CSV_SHA256
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

    def test_missing_cache_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        argv = ["replay", "--config", str(FIXTURES / "replay_config.json")]
        code = main(argv + ["--cache", str(missing), "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("taxsim: error: gateway.cache_path")
        assert str(missing) in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cache_text,error",
        [
            ("", "no cached exchange for key"),
            ('not json\n{"key": "k", "response": "r"}\n', "bad record on line 1"),
            (
                '{"key": "k", "response": 5}\n{"key": "k", "response": "r"}\n',
                "bad record on line 1",
            ),
        ],
        ids=["replay_miss", "corrupt_cache", "non_text_response"],
    )
    def test_bad_cache_is_one_error_line(self, tmp_path, capsys, cache_text, error):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(cache_text)
        out = tmp_path / "out"
        argv = ["replay", "--config", str(FIXTURES / "replay_config.json")]
        assert main(argv + ["--cache", str(cache), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("taxsim: error: ") and error in captured.err
        assert captured.err.count("\n") == 1
        assert not (out / "monthly.csv").exists()


# Each command that writes, with every argument but --out.
OUT_COMMANDS = {
    "run": ["run", "--months", "1"],
    "compare": ["compare", "--systems", "free", "--seeds", "1"],
    "replay": [
        "replay",
        "--config",
        str(FIXTURES / "replay_config.json"),
        "--cache",
        str(FIXTURES / "replay_cache.jsonl"),
    ],
}


@pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=OUT_COMMANDS.keys())
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
def test_out_naming_a_file_is_one_error_line(tmp_path, capsys, monkeypatch, argv, under):
    def no_month(*args, **kwargs):
        raise AssertionError("no month may run")

    monkeypatch.setattr(cli_module, "run", no_month)
    monkeypatch.setattr(cli_module, "sweep", no_month)
    file = tmp_path / "f"
    file.write_text("a file, not a directory")
    out = file / "out" if under else file
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"taxsim: error: output_dir {str(out)!r}: {str(file)!r} is not a directory\n"
    )
    assert captured.out == ""
    assert file.read_text() == "a file, not a directory"
