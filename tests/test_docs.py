"""The README, the example config and the package's exports against the
code: the example config and README's config sample validate, README's
python blocks run, and every name in ``taxsim.__all__`` exists."""

from __future__ import annotations

import json
import re
from pathlib import Path

import taxsim
from taxsim.config import config_from_dict, load_config

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(language: str) -> list[str]:
    """The bodies of README's code blocks fenced as ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_example_config_loads_and_validates():
    load_config(ROOT / "configs" / "example.json").validate()


def test_readme_config_sample_validates():
    (sample,) = fenced("json")
    config_from_dict(json.loads(sample)).validate()


def test_readme_python_blocks_run_in_one_namespace():
    blocks = fenced("python")
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_every_exported_name_exists():
    assert [name for name in taxsim.__all__ if not hasattr(taxsim, name)] == []
