"""Byte-identity gate: every golden case's output files hash to the
digests committed in fixtures/golden_outputs.json."""

from __future__ import annotations

import json

import pytest

from helpers import FIXTURES, GOLDEN_CASES, golden_digests

GOLDEN = json.loads((FIXTURES / "golden_outputs.json").read_text(encoding="utf-8"))


def test_every_case_has_a_golden():
    assert set(GOLDEN) == set(GOLDEN_CASES)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_outputs_match_golden(case, tmp_path):
    assert golden_digests(case, tmp_path) == GOLDEN[case]
