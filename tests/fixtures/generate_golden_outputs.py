#!/usr/bin/env python3
"""Write golden_outputs.json: the sha256 of every output file of each
golden case in ``helpers.GOLDEN_CASES``.

The digests pin the simulator's outputs byte for byte; tests/test_golden.py
re-runs each case and compares. They were generated once, before the
household core became columnar, and are never regenerated to make a change
pass: a refactor that moves a digest has changed the program's behaviour.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
sys.path.insert(0, str(FIXTURES.parent))  # for helpers

from helpers import GOLDEN_CASES, golden_digests  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {case: golden_digests(case, Path(tmp) / case) for case in GOLDEN_CASES}
    path = FIXTURES / "golden_outputs.json"
    path.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} cases to {path}")


if __name__ == "__main__":
    main()
