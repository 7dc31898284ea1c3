"""Run configuration: one dataclass tree mirroring the JSON config file
field-for-field, with validation and (de)serialization.

``SimConfig.validate`` checks every field of the tree the same way: its
value must match the field's annotation, and a field declared with
``_checked`` must also satisfy that field's rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, get_args, get_type_hints

from taxsim.economy import AdjustmentParams
from taxsim.gateway import GATEWAY_MODES
from taxsim.households import HouseholdLLMConfig
from taxsim.policies import SaezParams, TaxAgentConfig

TAX_SYSTEMS = ("free", "us_federal", "saez", "tax_agent")
HOUSEHOLD_BACKENDS = ("llm", "rule_based")
PRODUCTIVITY_METRICS = ("per_capita", "total")


class ConfigError(ValueError):
    """The configuration is unusable as given."""


def _checked(default, **rule):
    """A field whose value ``validate`` also checks against ``rule``: a
    lower bound ``gt`` (exclusive) or ``ge`` (inclusive), or ``choices``."""
    return field(default=default, metadata=rule)


@dataclass
class GatewayConfig:
    """How LLM calls are satisfied; "scripted" is injection-only and cannot
    be configured from a file."""

    mode: str = _checked("replay", choices=GATEWAY_MODES)
    endpoint: str = ""
    cache_path: str = ""
    api_key_env: str = "TAXSIM_API_KEY"
    timeout_seconds: float = 30.0


@dataclass
class InitialConditions:
    """Month-0 state: log-normal wage/savings draws plus market scalars."""

    wage_median: float = _checked(25.0, gt=0)
    wage_sigma: float = _checked(0.8, ge=0)
    savings_median: float = _checked(50_000.0, gt=0)
    savings_sigma: float = _checked(0.6, ge=0)
    price: float = _checked(126.78, gt=0)
    interest_rate: float = _checked(0.03, ge=0)
    inventory: float = _checked(0.0, ge=0)


@dataclass
class SimConfig:
    n_households: int = _checked(50, ge=1)
    months: int = _checked(120, ge=1)
    productivity: float = _checked(1.0, gt=0)
    seed: int = _checked(0, ge=0)
    tax_system: str = _checked("us_federal", choices=TAX_SYSTEMS)
    household_backend: str = _checked("rule_based", choices=HOUSEHOLD_BACKENDS)
    adjust_period_months: int = _checked(3, ge=1)
    reflection_period_months: int = _checked(3, ge=1)
    productivity_metric: str = _checked("per_capita", choices=PRODUCTIVITY_METRICS)
    adjustment: AdjustmentParams = field(default_factory=AdjustmentParams)
    saez: SaezParams = field(default_factory=SaezParams)
    tax_agent: TaxAgentConfig = field(default_factory=TaxAgentConfig)
    household_llm: HouseholdLLMConfig = field(default_factory=HouseholdLLMConfig)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    initial: InitialConditions = field(default_factory=InitialConditions)
    persona_path: str = ""
    output_dir: str = "out"
    write_households: bool = True

    def validate(self) -> None:
        """Raise one ConfigError naming every bad key, before any work."""
        problems = _problems(self, "")
        if problems:
            raise ConfigError("; ".join(problems))

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _problems(section, where: str) -> list[str]:
    """Type and rule violations of every field of ``section`` and of its
    nested sections, each naming its dotted key."""
    problems = []
    hints = _type_hints(type(section))
    for f in fields(section):
        key, value, rule = where + f.name, getattr(section, f.name), f.metadata
        if not _has_type(value, hints[f.name]):
            kinds = " or ".join(k.__name__ for k in get_args(hints[f.name]) or (hints[f.name],))
            problems.append(f"{key} must be {kinds}, got {value!r}")
        elif is_dataclass(value):
            problems += _problems(value, key + ".")
        elif "gt" in rule and not value > rule["gt"]:
            problems.append(f"{key} must be > {rule['gt']}")
        elif "ge" in rule and not value >= rule["ge"]:
            problems.append(f"{key} must be >= {rule['ge']}")
        elif "choices" in rule and value not in rule["choices"]:
            problems.append(f"{key} must be one of {rule['choices']}")
    return problems


# The resolved annotations of each config class; resolving them costs about
# 1 ms, which every run would otherwise pay in validate.
_type_hints = lru_cache(maxsize=None)(get_type_hints)


def _has_type(value, annotation) -> bool:
    """Whether ``value`` fits an annotation such as ``int`` or ``float |
    None``: bool is no number, an int is a float, and a float is finite."""
    for kind in get_args(annotation) or (annotation,):
        if kind in (int, float) and isinstance(value, bool):
            continue
        if kind is float and isinstance(value, (int, float)):
            return math.isfinite(value)
        if isinstance(value, kind):
            return True
    return False


def _build_dataclass(cls, data: dict[str, Any], where: str):
    known = {f.name: f for f in fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {where}{key!r}")
        # Nested sections are dicts in the file; everything else passes through.
        if isinstance(value, dict):
            nested = _NESTED_TYPES.get(key)
            if nested is None:
                raise ConfigError(f"config key {where}{key!r} does not take a mapping")
            value = _build_dataclass(nested, value, where=f"{where}{key}.")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config section {where or 'root.'}: {exc}") from exc


_NESTED_TYPES = {
    "adjustment": AdjustmentParams,
    "saez": SaezParams,
    "tax_agent": TaxAgentConfig,
    "household_llm": HouseholdLLMConfig,
    "gateway": GatewayConfig,
    "initial": InitialConditions,
}


def config_from_dict(data: dict[str, Any]) -> SimConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return _build_dataclass(SimConfig, data, where="")


def load_config(path: str | Path) -> SimConfig:
    """Read a JSON config whose keys mirror SimConfig field names."""
    file_path = Path(path)
    if not file_path.exists():
        raise ConfigError(f"config file not found: {file_path}")
    try:
        data = json.loads(file_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {file_path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(config: SimConfig, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(config.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
