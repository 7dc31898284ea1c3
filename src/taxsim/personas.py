"""Household persona roster: a packaged default of fifty personas, or any
user-supplied JSON file with the same record shape."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from taxsim.config import ConfigError
from taxsim.economy import Persona


def load_personas(path: str | Path | None = None) -> list[Persona]:
    """Load persona records (name, age, city, occupation) from ``path``, or
    from the packaged roster when no path is given. A missing or malformed
    file raises a ConfigError naming ``persona_path`` and, for a bad record
    (one holding a string that is not valid UTF-8 included), the record's
    index."""
    if path:
        file_path = Path(path)
        source = f"persona_path {str(file_path)!r}"
        if not file_path.exists():
            raise ConfigError(f"{source}: file not found")
        text = file_path.read_text(encoding="utf-8")
    else:
        source = "packaged persona roster"
        text = (
            resources.files("taxsim").joinpath("data/personas.json").read_text("utf-8")
        )
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from None
    if not isinstance(records, list) or not records:
        raise ConfigError(f"{source} must be a non-empty JSON list")
    return [_persona(record, f"{source}: record {i}") for i, record in enumerate(records)]


def _persona(record, where: str) -> Persona:
    try:
        persona = Persona(
            name=record["name"],
            age=int(record["age"]),
            city=record["city"],
            occupation=record["occupation"],
        )
        # A JSON escape can spell a lone surrogate, which no prompt can
        # carry into a cache or a request.
        json.dumps(record, ensure_ascii=False).encode("utf-8")
        return persona
    except KeyError as exc:
        raise ConfigError(f"{where} has no {exc.args[0]!r}") from None
    except UnicodeEncodeError as exc:
        raise ConfigError(
            f"{where} holds a string that is not valid UTF-8 ({exc.object[exc.start]!r})"
        ) from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def roster_for(count: int, personas: list[Persona]) -> list[Persona]:
    """First ``count`` personas, cycling when the roster is smaller."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [personas[i % len(personas)] for i in range(count)]
