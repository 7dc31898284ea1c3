from __future__ import annotations

import json
import re

import pytest

from helpers import UNREADABLE_JSON, unreadable_json
from taxsim.config import (
    ConfigError,
    SimConfig,
    config_from_dict,
    load_config,
    save_config,
)
from taxsim.simulation import run

URL = "http://example.invalid"
# Each key checked by os.fsencode holding a NUL (a JSON "\u0000" escape), in
# a config that uses it, with the start of its error. Without the check, each
# failed at its first use (output_dir after month 1) with a misleading message.
NUL_VALUES = [
    ("output_dir 'o\\x00x' holds a NUL", {"output_dir": "o\u0000x"}),
    ("persona_path 'p\\x00x' holds a NUL", {"persona_path": "p\u0000x"}),
    (
        "gateway.cache_path 'c\\x00x' holds a NUL",
        {"household_backend": "llm", "gateway": {"cache_path": "c\u0000x"}},
    ),
    (
        "gateway.api_key_env 'K\\x00x' holds a NUL",
        {
            "household_backend": "llm",
            "gateway": {"mode": "live", "endpoint": URL, "api_key_env": "K\u0000x"},
        },
    ),
]

# Each bound of the draws, the productivity and the Taylor rule, alone.
BOUND_VALUES = [
    {"productivity": 1e6},
    {"initial": {"wage_median": 1e6}},
    {"initial": {"wage_sigma": 10}},
    {"initial": {"savings_median": 1e9}},
    {"initial": {"savings_sigma": 10}},
    {"initial": {"price": 1e9}},
    {"initial": {"interest_rate": 1}},
    *(
        {"adjustment": {key: value}}
        for key, low, high in (
            ("natural_rate", -1, 1),
            ("target_inflation", -1, 1),
            ("inflation_response", -10, 10),
            ("unemployment_response", -10, 10),
            ("natural_unemployment", 0, 1),
        )
        for value in (low, high)
    ),
]


class TestValidation:
    def test_defaults_are_valid(self):
        SimConfig().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_households": 0},
            {"months": 0},
            {"productivity": 0.0},
            {"adjust_period_months": 0},
            {"reflection_period_months": 0},
            {"tax_system": "piracy"},
            {"household_backend": "oracle"},
            {"productivity_metric": "median"},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        config = SimConfig(**overrides)
        with pytest.raises(ConfigError):
            config.validate()

    @pytest.mark.parametrize(
        "key,data",
        [
            ("initial.wage_median", {"initial": {"wage_median": 0}}),
            ("initial.savings_median", {"initial": {"savings_median": -1}}),
            ("initial.wage_sigma", {"initial": {"wage_sigma": -1}}),
            ("months", {"months": "12"}),
            ("n_households", {"n_households": 2.5}),
            ("seed", {"seed": -1}),
            ("initial.inventory", {"initial": {"inventory": -5}}),
            ("seed", {"seed": True}),
            ("productivity", {"productivity": float("nan")}),
            ("gateway.mode", {"gateway": {"mode": "bogus"}}),
            ("gateway.mode", {"gateway": {"mode": "scripted"}}),
            ("adjustment.max_wage_step", {"adjustment": {"max_wage_step": 2.0}}),
            ("adjustment.max_wage_step", {"adjustment": {"max_wage_step": 0}}),
            ("adjustment.max_wage_step", {"adjustment": {"max_wage_step": 1.5}}),
            ("adjustment.max_wage_step", {"adjustment": {"max_wage_step": "x"}}),
            ("adjustment.max_price_step", {"adjustment": {"max_price_step": 0}}),
            ("saez.elasticity", {"saez": {"elasticity": -0.1}}),
            ("saez.elasticity", {"saez": {"elasticity": "a"}}),
            ("saez.tail_threshold", {"saez": {"tail_threshold": 0}}),
            ("tax_agent.max_retries", {"tax_agent": {"max_retries": 0}}),
            ("household_llm.max_retries", {"household_llm": {"max_retries": 0}}),
            ("tax_agent.temperature", {"tax_agent": {"temperature": -0.1}}),
            ("household_llm.temperature", {"household_llm": {"temperature": -0.1}}),
            ("tax_agent.temperature", {"tax_agent": {"temperature": 5.0}}),
            ("household_llm.temperature", {"household_llm": {"temperature": 2.01}}),
            ("tax_agent.model_id", {"tax_agent": {"model_id": ""}}),
            ("household_llm.model_id", {"household_llm": {"model_id": ""}}),
            ("tax_agent.max_tokens", {"tax_agent": {"max_tokens": 0}}),
            ("household_llm.max_tokens", {"household_llm": {"max_tokens": -5}}),
            ("gateway.timeout_seconds", {"gateway": {"timeout_seconds": 0}}),
            ("gateway.timeout_seconds", {"gateway": {"timeout_seconds": -1}}),
            # sizes no array can take: rejected by validate, never run
            ("months", {"months": 10**30}),
            ("months", {"months": 1_201}),
            ("n_households", {"n_households": 10**12}),
            ("n_households", {"n_households": 1_000_001}),
            # retry counts past the cap: rejected by validate, never retried
            ("tax_agent.max_retries", {"tax_agent": {"max_retries": 10**9}}),
            ("household_llm.max_retries", {"household_llm": {"max_retries": 10**9}}),
            ("tax_agent.max_retries", {"tax_agent": {"max_retries": 11}}),
            ("household_llm.max_retries", {"household_llm": {"max_retries": 11}}),
            # elasticities whose e * z overflows to inf: rejected, not a ScheduleError
            ("saez.elasticity", {"saez": {"elasticity": 1e305}}),
            ("saez.elasticity", {"saez": {"elasticity": 100.5}}),
            # values whose draws, incomes, demand or interest accrual overflow
            ("initial.wage_sigma", {"initial": {"wage_sigma": 1e6}}),
            ("initial.wage_median", {"initial": {"wage_median": 1e308}}),
            ("initial.savings_median", {"initial": {"savings_median": 1e308}}),
            ("productivity", {"productivity": 1e308}),
            ("adjustment.natural_rate", {"adjustment": {"natural_rate": 1e308}}),
            ("adjustment.inflation_response", {"adjustment": {"inflation_response": -1e308}}),
            ("initial.savings_sigma", {"initial": {"savings_sigma": 1e6}}),
            ("adjustment.target_inflation", {"adjustment": {"target_inflation": 1e308}}),
            ("adjustment.natural_unemployment", {"adjustment": {"natural_unemployment": 1e308}}),
            ("adjustment.unemployment_response", {"adjustment": {"unemployment_response": 1e308}}),
            ("adjustment.unemployment_response", {"adjustment": {"unemployment_response": -1e308}}),
            # a price whose demand overflows: the run ended with a NaN inflation
            ("initial.price", {"initial": {"price": 1e308}}),
            ("initial.price", {"initial": {"price": 2e9}}),
            # a rate the household prompt spelled as inf%
            ("initial.interest_rate", {"initial": {"interest_rate": 1e308}}),
            # a lone surrogate (a JSON "\ud800" escape), which no request
            # body, path or environment lookup can encode
            *(
                (f"{section}.{name}", {section: {name: "q\ud800"}})
                for section, name in (
                    ("tax_agent", "model_id"),
                    ("household_llm", "model_id"),
                    ("gateway", "endpoint"),
                    ("gateway", "api_key_env"),
                    ("gateway", "cache_path"),
                )
            ),
            ("persona_path", {"persona_path": "q\ud800"}),
            ("output_dir", {"output_dir": "q\ud800"}),
            *NUL_VALUES,
        ],
    )
    def test_bad_file_values_rejected_before_running(self, key, data):
        config = config_from_dict(data)
        with pytest.raises(ConfigError, match=re.escape(key)):
            run(config)

    def test_bounds_themselves_accepted(self):
        for temperature, elasticity in ((0, 0), (2.0, 100)):
            config_from_dict(
                {
                    "n_households": 1_000_000,
                    "months": 1_200,
                    "adjustment": {"max_wage_step": 1.0},
                    "saez": {"elasticity": elasticity, "tail_threshold": None},
                    "tax_agent": {
                        "temperature": temperature, "max_tokens": 1, "model_id": "m", "max_retries": 10
                    },
                    "household_llm": {
                        "temperature": temperature, "max_tokens": 1, "model_id": "m", "max_retries": 10
                    },
                }
            ).validate()
        for data in BOUND_VALUES:
            for tax_system in ("free", "us_federal", "saez"):
                size = {"n_households": 5, "months": 24, "tax_system": tax_system}
                run(config_from_dict({**data, **size}))

    @pytest.mark.parametrize(
        "key,gateway,credential",
        [
            ("gateway.cache_path", {"mode": "record", "endpoint": URL}, True),
            ("gateway.cache_path", {"mode": "record", "endpoint": URL, "cache_path": "."}, True),
            ("gateway.endpoint", {"mode": "live"}, True),
            ("gateway.endpoint", {"mode": "record", "cache_path": "c.jsonl"}, True),
            ("gateway.api_key_env", {"mode": "live", "endpoint": URL}, False),
            (
                "gateway.api_key_env",
                {"mode": "record", "endpoint": URL, "cache_path": "c.jsonl", "api_key_env": "UNSET_KEY"},
                True,
            ),
        ],
    )
    def test_unusable_gateway_settings_rejected_before_running(
        self, key, gateway, credential, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("UNSET_KEY", raising=False)
        if credential:
            monkeypatch.setenv("TAXSIM_API_KEY", "secret")
        else:
            monkeypatch.delenv("TAXSIM_API_KEY", raising=False)
        with pytest.raises(ConfigError, match=re.escape(key)):
            run(config_from_dict({"tax_system": "tax_agent", "gateway": gateway}))
        assert not (tmp_path / "c.jsonl").exists()

    def test_int_accepted_for_a_float_field(self):
        config_from_dict({"productivity": 2, "initial": {"wage_median": 30}}).validate()


class TestSerialization:
    def test_file_round_trip(self, tmp_path):
        config = SimConfig(n_households=7, months=9, seed=42, tax_system="saez")
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_nested_sections(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "adjustment": {"max_wage_step": 0.02, "natural_rate": 0.015},
                    "saez": {"elasticity": 0.5},
                    "gateway": {"mode": "record", "cache_path": "x.jsonl"},
                }
            )
        )
        config = load_config(path)
        assert config.adjustment.max_wage_step == 0.02
        assert config.adjustment.natural_rate == 0.015
        assert config.saez.elasticity == 0.5
        assert config.gateway.mode == "record"
        assert config.months == 120  # untouched defaults remain

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict({"seeds": 3})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match=r"adjustment\.'max_wage'"):
            config_from_dict({"adjustment": {"max_wage": 0.1}})

    def test_removed_density_bandwidth_rejected(self):
        with pytest.raises(ConfigError, match=r"saez\.'density_bandwidth'"):
            config_from_dict({"saez": {"density_bandwidth": 1000.0}})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    @pytest.mark.parametrize(
        "text,repeated",
        [
            ('{"months": 1200, "months": 2}', "months"),
            ('{"seed": 3, "gateway": {"mode": "record", "mode": "replay"}}', "mode"),
        ],
    )
    def test_repeated_key_rejected_naming_it(self, tmp_path, text, repeated):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(
            ConfigError,
            match=f"^config file {re.escape(repr(str(path)))} repeats the key '{repeated}'$",
        ):
            load_config(path)

    @pytest.mark.parametrize("kind", UNREADABLE_JSON)
    def test_unreadable_file_rejected_naming_it(self, tmp_path, kind):
        path = unreadable_json(tmp_path, kind)
        with pytest.raises(ConfigError, match=f"^config file {re.escape(repr(str(path)))}"):
            load_config(path)
