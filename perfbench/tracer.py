"""Layer tracing from outside the program.

``Tracer.install`` wraps taxsim's public functions and methods and patches
every ``taxsim`` namespace that holds the same object, so a call made
through ``from taxsim.economy import compute_tax`` in another module is
traced too. Each wrapped call is a span with a name, start, end and parent.
Hot kernels are aggregated per name and per parent (count, total and self
time); the spans listed in ``FULL_SPANS`` are also kept one by one. Nothing
is written until ``Tracer.write``.

A span's self time is its duration minus the time its traced children
cover. An exception raised by a traced child and not re-raised by the
parent counts as swallowed by the parent; that is how fallbacks are seen.

A target that no longer exists is recorded as unmeasured instead of failing,
so the benchmark keeps running while the program's layers are reshaped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

# (span name, module, attribute). "Class.method" names one method;
# "*.method" wraps that method on every class of the module that defines it.
TARGETS = (
    ("simulation.run", "taxsim.simulation", "run"),
    ("simulation.compare", "taxsim.simulation", "compare"),
    ("simulation.write_outputs", "taxsim.simulation", "SimulationResult.write_outputs"),
    ("economy.quantize_fraction", "taxsim.economy", "quantize_fraction"),
    ("economy.compute_tax", "taxsim.economy", "compute_tax"),
    ("economy.produce", "taxsim.economy", "produce"),
    ("economy.apply_taxation", "taxsim.economy", "apply_taxation"),
    ("economy.execute_consumption", "taxsim.economy", "execute_consumption"),
    ("economy.adjust_wages_and_price", "taxsim.economy", "adjust_wages_and_price"),
    ("households.decide", "taxsim.households", "decide"),
    ("households.backend_decide", "taxsim.households", "*.decide"),
    ("households.backend_reflect", "taxsim.households", "*.reflect"),
    ("households.rule_based_decide", "taxsim.households", "rule_based_decide"),
    ("households.prompt", "taxsim.households", "build_household_prompt"),
    ("households.prompt", "taxsim.households", "build_reflection_prompt"),
    ("households.parse", "taxsim.households", "parse_decision_reply"),
    ("households.reflect", "taxsim.households", "reflect"),
    ("policies.propose", "taxsim.policies", "*.propose"),
    ("policies.saez_schedule", "taxsim.policies", "saez_schedule"),
    ("policies.pareto_parameter", "taxsim.policies", "pareto_parameter"),
    ("policies.tax_prompt", "taxsim.policies", "build_tax_prompt"),
    ("policies.parse_tax_reply", "taxsim.policies", "parse_tax_reply"),
    ("metrics.gini", "taxsim.metrics", "gini"),
    ("gateway.complete", "taxsim.gateway", "ChatGateway.complete"),
    ("gateway.load_cache", "taxsim.gateway", "load_cache"),
    ("personas.load_personas", "taxsim.personas", "load_personas"),
    ("config.validate", "taxsim.config", "SimConfig.validate"),
)

FULL_SPANS = frozenset(
    {
        "simulation.run",
        "simulation.compare",
        "simulation.write_outputs",
        "policies.propose",
        "gateway.complete",
        "gateway.load_cache",
        "personas.load_personas",
    }
)

SAEZ_ERRORS = ("DegenerateIncomesError", "EmptyTailError")


def _utf8_len(value) -> int:
    return len(value.encode("utf-8")) if isinstance(value, str) else 0


def _dir_bytes(value) -> int:
    out = Path(value) if isinstance(value, (str, Path)) else None
    if out is None or not out.is_dir():
        return 0
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


# Spans whose result has a size worth counting, and how to measure it.
RESULT_BYTES = {
    "households.prompt": _utf8_len,
    "policies.tax_prompt": _utf8_len,
    "simulation.write_outputs": _dir_bytes,
}


class _Frame:
    __slots__ = ("name", "span_id", "child_s", "exc", "child_excs")

    def __init__(self, name: str, span_id: int) -> None:
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0
        self.exc: BaseException | None = None
        self.child_excs: list[BaseException] = []


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "bytes", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.bytes = 0
        self.errors: Counter = Counter()


class Tracer:
    """Spans and per-span aggregates for one traced run; see the module
    docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.rep = 0
        self.stats: dict[str, _Stat] = {}
        self.by_parent: Counter = Counter()  # (name, parent name) -> calls
        self.by_parent_s: Counter = Counter()  # (name, parent name) -> seconds
        self.swallowed: Counter = Counter()  # (swallowing span, exception type) -> n
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, rep)
        self.durations: dict[str, list[float]] = {}
        self.unmeasured: set[str] = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; missing ones are recorded in ``unmeasured``."""
        found: set[str] = set()
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if attr.startswith("*."):
                method = attr[2:]
                for cls in vars(module).values():
                    if (
                        inspect.isclass(cls)
                        and cls.__module__ == module_name
                        and inspect.isfunction(cls.__dict__.get(method))
                    ):
                        self._patch_attr(cls, method, name)
                        found.add(name)
            elif "." in attr:
                cls_name, method = attr.split(".", 1)
                cls = getattr(module, cls_name, None)
                if cls is not None and inspect.isfunction(cls.__dict__.get(method)):
                    self._patch_attr(cls, method, name)
                    found.add(name)
            else:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn):
                    self._patch_everywhere(fn, self.wrap(name, fn))
                    found.add(name)
        self.unmeasured = {name for name, _, _ in TARGETS} - found

    def reset(self) -> None:
        """Forget the aggregates gathered so far; kept spans stay."""
        self.stats.clear()
        self.by_parent.clear()
        self.by_parent_s.clear()
        self.swallowed.clear()
        self.durations.clear()

    def _patch_attr(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))

    def _patch_everywhere(self, fn, wrapped) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "taxsim" or mod_name.startswith("taxsim.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        tracer = self
        size_of = RESULT_BYTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(name, next(tracer._ids))
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                frame.exc = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                size = size_of(result) if size_of is not None and frame.exc is None else 0
                tracer._close(frame, parent, start, end, size)
                if parent is not None:
                    # The parent is charged with this call's bookkeeping too,
                    # so tracing cost does not show up as the parent's self time.
                    parent.child_s += perf_counter() - entered
                    if frame.exc is not None:
                        parent.child_excs.append(frame.exc)
            return result

        return traced

    def _close(self, frame: _Frame, parent: _Frame | None, start: float, end: float, size: int) -> None:
        duration = end - start
        parent_name = parent.name if parent is not None else None
        with self._lock:
            stat = self.stats.get(frame.name)
            if stat is None:
                stat = self.stats[frame.name] = _Stat()
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - frame.child_s
            stat.bytes += size
            if frame.exc is not None:
                stat.errors[type(frame.exc).__name__] += 1
            for exc in frame.child_excs:
                if exc is not frame.exc:
                    self.swallowed[(frame.name, type(exc).__name__)] += 1
            self.by_parent[(frame.name, parent_name)] += 1
            self.by_parent_s[(frame.name, parent_name)] += duration
            if frame.name in FULL_SPANS:
                parent_id = parent.span_id if parent is not None else None
                self.spans.append((frame.span_id, frame.name, start, end, parent_id, self.rep))
                self.durations.setdefault(frame.name, []).append(duration)

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans and per-parent aggregates as JSON."""
        payload = {
            "unmeasured": sorted(self.unmeasured),
            "stats": {
                name: {
                    "calls": s.calls,
                    "total_s": s.total_s,
                    "self_s": s.self_s,
                    "bytes": s.bytes,
                    "errors": dict(s.errors),
                }
                for name, s in sorted(self.stats.items())
            },
            "by_parent": [
                {"name": name, "parent": parent, "calls": calls, "total_s": self.by_parent_s[(name, parent)]}
                for (name, parent), calls in sorted(self.by_parent.items(), key=str)
            ],
            "swallowed": [
                {"span": span, "exception": exc, "count": n}
                for (span, exc), n in sorted(self.swallowed.items())
            ],
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p, "rep": r}
                for i, n, s, e, p, r in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")

    # -- per-layer metrics ------------------------------------------------------

    def layer_metrics(
        self,
        names: list[str],
        reps: int,
        traced_wall_s: float,
        untraced_wall_s: float,
        cache_bytes: float,
        load_cache_s: float,
    ) -> tuple[dict[str, float], list[str]]:
        """Per-repetition values of the layer metrics ``names``, and those of
        them left unmeasured.

        ``<span>.calls``, ``<span>.s`` (self time), ``<span>.bytes`` and
        ``<span>.fail_share`` follow from the span's aggregate; the rest are
        listed in ``derived`` below. Counts are totals divided by ``reps``;
        every traced repetition does the same work, so they are exact.
        ``load_cache_s`` is timed by the caller's traced set-up.
        """
        empty = _Stat()

        def stat(span: str) -> _Stat:
            return self.stats.get(span, empty)

        def errors(span: str) -> int:
            return sum(stat(span).errors.values())

        def percentile_ms(span: str, pct: int) -> float:
            samples = self.durations.get(span, [])
            if len(samples) < 2:
                return 0.0
            return statistics.quantiles(samples, n=100)[pct - 1] * 1000.0

        complete = stat("gateway.complete")
        busy_s = stat("gateway.transport").total_s / reps
        # metric -> (spans it needs, value)
        derived = {
            "simulation.run.self_s": (("simulation.run",), stat("simulation.run").self_s / reps),
            "households.fallbacks": (
                ("households.decide", "households.backend_decide"),
                _per_rep(sum(n for (span, _), n in self.swallowed.items() if span == "households.decide"), reps),
            ),
            "policies.saez_fallbacks": (
                ("policies.propose", "policies.saez_schedule", "policies.pareto_parameter"),
                _per_rep(sum(n for (_, exc), n in self.swallowed.items() if exc in SAEZ_ERRORS), reps),
            ),
            "gateway.complete.p50_ms": (("gateway.complete",), percentile_ms("gateway.complete", 50)),
            "gateway.complete.p99_ms": (("gateway.complete",), percentile_ms("gateway.complete", 99)),
            "gateway.transport.busy_s": ((), busy_s),
            "gateway.overlap": ((), busy_s / traced_wall_s),
            "gateway.useful_share": (
                ("gateway.complete", "households.parse", "policies.parse_tax_reply"),
                (complete.calls - errors("households.parse") - errors("policies.parse_tax_reply")) / complete.calls
                if complete.calls
                else 0.0,
            ),
            "gateway.cache.bytes_written": ((), cache_bytes),
            "gateway.load_cache.s": (("gateway.load_cache",), load_cache_s),
            "gateway.replay.misses": (("gateway.complete",), _per_rep(complete.errors["ReplayMissError"], reps)),
            "trace.overhead_share": ((), traced_wall_s / untraced_wall_s - 1.0),
            "trace.unmeasured": ((), len(self.unmeasured)),
        }
        values: dict[str, float] = {}
        unmeasured: list[str] = []
        for metric in names:
            span, _, kind = metric.rpartition(".")
            if metric in derived:
                sources, value = derived[metric]
            elif kind == "calls":
                sources, value = (span,), _per_rep(stat(span).calls, reps)
            elif kind == "s":
                sources, value = (span,), stat(span).self_s / reps
            elif kind == "bytes":
                sources, value = (span,), _per_rep(stat(span).bytes, reps)
            elif kind == "fail_share":
                calls = stat(span).calls
                sources, value = (span,), errors(span) / calls if calls else 0.0
            else:
                continue  # not a layer metric this tracer knows
            if any(source in self.unmeasured for source in sources):
                unmeasured.append(metric)
                value = 0
            values[metric] = value
        return values, unmeasured


def _per_rep(total: float, reps: int) -> float:
    """Total over ``reps`` identical repetitions, as an int when exact."""
    value = total / reps
    return int(value) if total % reps == 0 else value
