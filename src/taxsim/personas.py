"""Household persona roster: a packaged default of fifty personas, or any
user-supplied JSON file with the same record shape."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from taxsim.config import ConfigError, read_json
from taxsim.economy import Persona


def load_personas(path: str | Path | None = None) -> list[Persona]:
    """Load persona records (name, age, city, occupation) from ``path``, or
    from the packaged roster when no path is given. A file that cannot be
    read or parsed (see ``read_json``) raises a ConfigError naming
    ``persona_path`` and, for a bad record (one holding a string that is
    not valid UTF-8 included), the record's index."""
    if path:
        source = f"persona_path {str(path)!r}"
        records = read_json(path, source)
    else:
        source = "packaged persona roster"
        records = json.loads(
            resources.files("taxsim").joinpath("data/personas.json").read_text("utf-8")
        )
    if not isinstance(records, list) or not records:
        raise ConfigError(f"{source} must be a non-empty JSON list")
    return [_persona(record, f"{source}: record {i}") for i, record in enumerate(records)]


def _persona(record, where: str) -> Persona:
    try:
        persona = Persona(record["name"], record["age"], record["city"], record["occupation"])
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
