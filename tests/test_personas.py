from __future__ import annotations

import json
import re

import pytest

from helpers import UNREADABLE_JSON, unreadable_json
from taxsim.config import ConfigError
from taxsim.economy import Persona
from taxsim.personas import load_personas, roster_for


class TestLoadPersonas:
    def test_packaged_roster_has_fifty_valid_entries(self):
        personas = load_personas()
        assert len(personas) == 50
        assert all(isinstance(p, Persona) for p in personas)
        assert len({p.name for p in personas}) == 50

    def test_custom_roster_file(self, tmp_path):
        path = tmp_path / "roster.json"
        path.write_text(
            json.dumps(
                [{"name": "Pat Doe", "age": 30, "city": "Reno, Nevada", "occupation": "Baker"}]
            )
        )
        personas = load_personas(path)
        assert personas == [Persona("Pat Doe", 30, "Reno, Nevada", "Baker")]

    def test_missing_file_raises_with_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError, match=r"persona_path .*nope\.json"):
            load_personas(missing)

    @pytest.mark.parametrize("kind", UNREADABLE_JSON)
    def test_unreadable_file_raises_with_path(self, tmp_path, kind):
        path = unreadable_json(tmp_path, kind)
        with pytest.raises(ConfigError, match=f"^persona_path {re.escape(repr(str(path)))}"):
            load_personas(path)

    def test_record_without_occupation_names_its_index(self, tmp_path):
        path = tmp_path / "roster.json"
        records = [{"name": "Pat Doe", "age": 30, "city": "Reno, Nevada", "occupation": "Baker"}]
        path.write_text(json.dumps(records + [{"name": "Sam Roe", "age": 41, "city": "Reno"}]))
        with pytest.raises(ConfigError, match=r"persona_path .*: record 1 has no 'occupation'"):
            load_personas(path)

    def test_non_integer_age_names_its_index(self, tmp_path):
        path = tmp_path / "roster.json"
        record = {"name": "Pat Doe", "age": "thirty", "city": "Reno", "occupation": "Baker"}
        path.write_text(json.dumps([record]))
        with pytest.raises(ConfigError, match=r"persona_path .*: record 0: .*'thirty'"):
            load_personas(path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("name", 5),
            ("name", ""),
            ("age", True),
            ("age", 30.9),
            ("age", "41"),
            ("city", ["Reno"]),
            ("occupation", {"a": 1}),
            ("occupation", None),
        ],
    )
    def test_field_of_the_wrong_type_names_its_index(self, tmp_path, field, value):
        good = {"name": "Pat Doe", "age": 30, "city": "Reno", "occupation": "Baker"}
        path = tmp_path / "roster.json"
        path.write_text(json.dumps([good, {**good, field: value}]))
        with pytest.raises(
            ConfigError, match=rf"^persona_path .*: record 1: persona {field} must be .*, not "
        ):
            load_personas(path)

    def test_repeated_key_names_it(self, tmp_path):
        path = tmp_path / "roster.json"
        path.write_text(
            '[{"name": "Pat", "age": 30, "age": 31, "city": "Reno", "occupation": "Baker"}]'
        )
        with pytest.raises(ConfigError, match=r"^persona_path .* repeats the key 'age'$"):
            load_personas(path)

    def test_empty_roster_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_personas(path)


class TestRosterFor:
    def test_subset(self):
        personas = load_personas()
        assert roster_for(3, personas) == personas[:3]

    def test_cycles_when_short(self):
        personas = load_personas()
        roster = roster_for(103, personas)
        assert len(roster) == 103
        assert roster[100] == personas[0]

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            roster_for(0, load_personas())
