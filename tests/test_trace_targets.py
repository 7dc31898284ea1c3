"""Every span that perfbench's tracer wraps still names a function or
method of taxsim, so a refactor that renames or drops one fails here, not
only as ``trace.unmeasured`` in a benchmark run.

The tracer is loaded from its file and its ``TARGETS`` are resolved by the
rules of ``Tracer.install``, which is never called: it would patch taxsim
for the rest of the session.
"""

from __future__ import annotations

import importlib
import inspect
import types
from pathlib import Path

import pytest

import taxsim.policies

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    """The tracer, compiled from its source: no bytecode is written beside
    it and nothing is added to ``sys.modules``."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"), vars(module))
    return module


TRACER = load_tracer()


def resolved(module_name: str, attr: str) -> list:
    """What ``Tracer.install`` would wrap for one target: every method
    ``attr[2:]`` defined on a class of the module for ``*.method``, the
    method of the named class for ``Class.method``, else the module's
    function."""
    module = importlib.import_module(module_name)
    if attr.startswith("*."):
        method = attr[2:]
        return [
            cls.__dict__[method]
            for cls in vars(module).values()
            if inspect.isclass(cls)
            and cls.__module__ == module_name
            and inspect.isfunction(cls.__dict__.get(method))
        ]
    if "." in attr:
        cls_name, method = attr.split(".", 1)
        cls = getattr(module, cls_name, None)
        found = cls.__dict__.get(method) if cls is not None else None
        return [found] if inspect.isfunction(found) else []
    fn = getattr(module, attr, None)
    return [fn] if inspect.isfunction(fn) else []


@pytest.mark.parametrize(
    "module_name,attr",
    [(module_name, attr) for _, module_name, attr in TRACER.TARGETS],
    ids=[f"{name}:{attr}" for name, _, attr in TRACER.TARGETS],
)
def test_every_trace_target_resolves(module_name, attr):
    assert resolved(module_name, attr)


@pytest.mark.parametrize("name", TRACER.SAEZ_ERRORS)
def test_saez_errors_are_exceptions_of_the_policies(name):
    error = getattr(taxsim.policies, name, None)
    assert inspect.isclass(error) and issubclass(error, Exception)
