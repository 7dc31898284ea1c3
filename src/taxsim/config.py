"""Run configuration: one dataclass tree mirroring the JSON config file
field-for-field, with validation and loading.

``SimConfig.validate`` checks every field of the tree the same way: its
value must match the field's annotation, and a field declared with
``_checked`` must also satisfy that field's rule: a bound ``gt``, ``ge`` or
``le``, ``choices``, ``nonempty``, or ``encode``. The ``None`` of an
optional field skips its rule.
No section checks itself on construction, so every bad value is reported
by ``validate`` under its dotted key.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, get_args, get_type_hints

from taxsim.gateway import GATEWAY_MODES

TAX_SYSTEMS = ("free", "us_federal", "saez", "tax_agent")
HOUSEHOLD_BACKENDS = ("llm", "rule_based")
PRODUCTIVITY_METRICS = ("per_capita", "total")


class ConfigError(ValueError):
    """The configuration is unusable as given."""


def _checked(default, **rule):
    """A field whose value ``validate`` also checks against ``rule``: a
    lower bound ``gt`` (exclusive) or ``ge`` (inclusive), an upper bound
    ``le`` (inclusive), ``choices``, ``nonempty=True`` for a string that
    must not be empty, or ``encode``, the name in ``_ENCODERS`` of the
    encoder a string must pass: ``"UTF-8"`` for text sent in a request,
    ``"os.fsencode"`` for a path or an environment variable's name, which
    must also hold no NUL."""
    return field(default=default, metadata=rule)


@dataclass
class GatewayConfig:
    """How LLM calls are satisfied."""

    mode: str = _checked("replay", choices=GATEWAY_MODES)
    endpoint: str = _checked("", encode="UTF-8")
    cache_path: str = _checked("", encode="os.fsencode")
    api_key_env: str = _checked("TAXSIM_API_KEY", encode="os.fsencode")
    timeout_seconds: float = _checked(30.0, gt=0)


@dataclass(frozen=True)
class AdjustmentParams:
    """Wage/price adjustment caps and Taylor-rule coefficients."""

    max_wage_step: float = _checked(0.05, gt=0, le=1)
    max_price_step: float = _checked(0.10, gt=0, le=1)
    # The bounds lie far beyond any plausible economy; past them the annual
    # interest accrual could overflow the savings to inf (README).
    natural_rate: float = _checked(0.01, ge=-1, le=1)
    target_inflation: float = _checked(0.02, ge=-1, le=1)
    inflation_response: float = _checked(0.5, ge=-10, le=10)
    unemployment_response: float = _checked(0.5, ge=-10, le=10)
    natural_unemployment: float = _checked(0.04, ge=0, le=1)


@dataclass(frozen=True)
class SaezParams:
    """Inputs to the optimal-rate formulas. ``elasticity`` doubles as the
    top-bracket uncompensated elasticity. ``tail_threshold`` of None means
    the schedule's own top threshold."""

    elasticity: float = _checked(0.25, ge=0, le=100)
    tail_threshold: float | None = _checked(None, gt=0)


@dataclass(frozen=True)
class TaxAgentConfig:
    """LLM planner settings; the model id stands in for whatever policy
    knowledge the model carries."""

    model_id: str = _checked("qwen-turbo-2024-09-19", nonempty=True, encode="UTF-8")
    temperature: float = _checked(0.2, ge=0, le=2)
    max_retries: int = _checked(3, ge=1, le=10)
    max_tokens: int = _checked(256, ge=1)


@dataclass(frozen=True)
class HouseholdLLMConfig:
    model_id: str = _checked("qwen-turbo-2024-09-19", nonempty=True, encode="UTF-8")
    temperature: float = _checked(0.7, ge=0, le=2)
    max_retries: int = _checked(3, ge=1, le=10)
    max_tokens: int = _checked(128, ge=1)


@dataclass
class InitialConditions:
    """Month-0 state: log-normal wage/savings draws plus market scalars.
    The draws' upper bounds lie far beyond any plausible population; past
    them a draw or the incomes and demand built on it could overflow."""

    wage_median: float = _checked(25.0, gt=0, le=1e6)
    wage_sigma: float = _checked(0.8, ge=0, le=10)
    savings_median: float = _checked(50_000.0, gt=0, le=1e9)
    savings_sigma: float = _checked(0.6, ge=0, le=10)
    price: float = _checked(126.78, gt=0, le=1e9)
    interest_rate: float = _checked(0.03, ge=0, le=1)
    inventory: float = _checked(0.0, ge=0)


@dataclass
class SimConfig:
    # The caps keep every array of a run within 4 x months x N floats (README).
    n_households: int = _checked(50, ge=1, le=1_000_000)
    months: int = _checked(120, ge=1, le=1_200)
    productivity: float = _checked(1.0, gt=0, le=1e6)
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
    persona_path: str = _checked("", encode="os.fsencode")
    output_dir: str = _checked("out", encode="os.fsencode")
    write_households: bool = True

    @property
    def makes_llm_calls(self) -> bool:
        """Whether a run of this config needs a gateway: a tax_agent planner
        or LLM households."""
        return self.tax_system == "tax_agent" or self.household_backend == "llm"

    def validate(self) -> None:
        """Raise one ConfigError naming every bad key, before any work."""
        problems = _problems(self, "")
        if problems:
            raise ConfigError("; ".join(problems))


def _problems(section, where: str) -> list[str]:
    """Type and rule violations of every field of ``section`` and of its
    nested sections, each naming its dotted key."""
    problems = []
    hints = _type_hints(type(section))
    for f in _fields(type(section)):
        key, value, rule = where + f.name, getattr(section, f.name), f.metadata
        if not _has_type(value, hints[f.name]):
            kinds = " or ".join(k.__name__ for k in get_args(hints[f.name]) or (hints[f.name],))
            problems.append(f"{key} must be {kinds}, got {value!r}")
        elif is_dataclass(value):
            problems += _problems(value, key + ".")
        elif value is None:
            continue  # the None of an optional field meets every rule
        elif "gt" in rule and not value > rule["gt"]:
            problems.append(f"{key} must be > {rule['gt']}")
        elif "ge" in rule and not value >= rule["ge"]:
            problems.append(f"{key} must be >= {rule['ge']}")
        elif "le" in rule and not value <= rule["le"]:
            problems.append(f"{key} must be <= {rule['le']}")
        elif "choices" in rule and value not in rule["choices"]:
            problems.append(f"{key} must be one of {rule['choices']}")
        elif "nonempty" in rule and not value:
            problems.append(f"{key} must be non-empty")
        elif rule.get("encode") == "os.fsencode" and "\x00" in value:
            # os.fsencode takes a NUL; no path or variable name can hold one
            problems.append(f"{key} {value!r} holds a NUL character")
        elif "encode" in rule and not _encodes(_ENCODERS[rule["encode"]], value):
            problems.append(f"{key} {value!r} does not encode with {rule['encode']}")
    return problems


# A lone surrogate, such as a JSON "\ud800" escape, is valid in a str but
# encodes to no bytes; os.fsencode still takes the "\udc80".."\udcff" that
# stand for the undecodable bytes of a command-line path.
_ENCODERS = {"UTF-8": str.encode, "os.fsencode": os.fsencode}


def _encodes(encode, text: str) -> bool:
    try:
        encode(text)
    except UnicodeEncodeError:
        return False
    return True


# The resolved annotations and the fields of each config class; resolving
# the annotations costs about 1 ms, which every run would otherwise pay in
# validate. Each uncached ``fields`` call also leaves its tuple on a CPython
# free list that no later allocation draws from, up to 2,000 per size.
_type_hints = lru_cache(maxsize=None)(get_type_hints)
_fields = lru_cache(maxsize=None)(fields)


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
    hints = _type_hints(cls)
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key not in hints:
            raise ConfigError(f"unknown config key {where}{key!r}")
        # Nested sections are dicts in the file; everything else passes through.
        if isinstance(value, dict):
            if not is_dataclass(hints[key]):
                raise ConfigError(f"config key {where}{key!r} does not take a mapping")
            value = _build_dataclass(hints[key], value, where=f"{where}{key}.")
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict[str, Any]) -> SimConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return _build_dataclass(SimConfig, data, where="")


def read_json(path: str | Path, key: str) -> Any:
    """The parsed JSON of the UTF-8 file at ``path``, which the setting
    ``key`` names; a file that cannot be read or parsed, or whose object
    repeats a key, is a ConfigError that starts with ``key``."""

    def unique(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj: dict[str, Any] = {}
        for name, value in pairs:
            if name in obj:
                raise ConfigError(f"{key} repeats the key {name!r}")
            obj[name] = value
        return obj

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique)
    except ConfigError:
        raise
    except FileNotFoundError:
        raise ConfigError(f"{key}: file not found") from None
    except OSError as exc:  # a directory, say
        raise ConfigError(f"{key}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"{key} is not valid JSON: {exc}") from None


def load_config(path: str | Path) -> SimConfig:
    """Read a JSON config whose keys mirror SimConfig field names."""
    return config_from_dict(read_json(path, f"config file {str(path)!r}"))

