from __future__ import annotations

import json
import re

import pytest

from taxsim.config import (
    ConfigError,
    SimConfig,
    config_from_dict,
    load_config,
    save_config,
)
from taxsim.simulation import run


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
        ],
    )
    def test_bad_file_values_rejected_before_running(self, key, data):
        with pytest.raises(ConfigError, match=re.escape(key)):
            run(config_from_dict(data))

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

    def test_bad_section_value_reported(self):
        with pytest.raises(ConfigError):
            config_from_dict({"adjustment": {"max_wage_step": 2.0}})
