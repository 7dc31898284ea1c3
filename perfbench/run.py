"""taxsim benchmark: every workload and metric from one command.

    python3 perfbench/run.py --workload sweep_default --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the repository root; the program is imported from ``src/``. Each
workload runs in fresh child processes: a ``prepare`` child makes inputs
that set-up reads, several set-up probes time ``setup_s``, and one
``measure`` child repeats the workload's timed section for ``--seconds``
and checks every repetition's outputs. With ``--trace 1`` the measure child
spends half its time untraced and half with every layer wrapped (see
tracer.py), and reports per-layer metrics instead of end-to-end ones.

The report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names, units
and directions come from BENCHMARK.json at the repository root.

Exit status: 0 when every check passes, 1 when a check or a child fails,
2 when the program's source is not there to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / "_work"
WORKLOAD_NAMES = ("sweep_default", "run_large", "llm_record", "llm_replay")
DEFAULT_SEED = 0  # the seed whose output digests are stored in golden.json
SETUP_PROBES = {0: 5, 1: 3}  # per --trace value
DEADLINE_S = 170.0  # every child of one workload must end within this


class ChildError(RuntimeError):
    pass


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one thread: numpy must not fan out behind the timer
    return env


def _run_child(args: list[str], deadline: float) -> dict:
    """Run a child to completion and return the JSON on its last stdout line."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise ChildError(f"no time left for {args[0]}")
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{' '.join(args[:3])} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildError(f"{' '.join(args[:3])} exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Prepare, probe set-up and measure one workload; return its result."""
    deadline = perf_counter() + DEADLINE_S
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    try:
        _run_child([str(HERE / "run.py"), "--role", "prepare", *common], deadline)
        probes = [
            _run_child([str(HERE / "probe_setup.py"), name, str(seed), str(work)], deadline)
            for _ in range(SETUP_PROBES[trace])
        ]
        measured = _run_child(
            [
                str(HERE / "run.py"),
                "--role", "measure", *common,
                "--seconds", str(seconds),
                "--trace", str(trace),
            ],
            deadline,
        )
    except ChildError as exc:
        return {"correct": False, "attempted": 1, "failed": 1, "values": {}, "notes": [str(exc)]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not measured["wall_samples"]:
        notes = measured["problems"] or ["no repetition completed"]
        return {"correct": False, "attempted": measured["attempted"], "failed": measured["attempted"], "values": {}, "notes": notes}

    setup_s = statistics.median(p["setup_s"] * p["speed_scale"] for p in probes)
    notes = list(measured["problems"])
    if trace:
        values = dict(measured["layers"])
        values["setup.import_s"] = statistics.median(p["import_s"] * p["speed_scale"] for p in probes)
        notes += [f"{m} not measured: its target is gone" for m in measured["unmeasured"]]
        expected = spec["per_layer"]
    else:
        attempted = measured["attempted"]
        values = {
            "setup_s": setup_s,
            "wall_s": measured["wall_s"],
            "household_months_per_s": measured["household_months_per_rep"] / measured["wall_s"],
            "peak_rss_mb": measured["peak_rss_mb"],
            "ops_ok_share": (attempted - measured["failed"] - measured["fallbacks"]) / attempted,
        }
        expected = spec["end_to_end"]
    names = [m["name"] for m in expected]
    if sorted(values) != sorted(names):
        notes.append(f"metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json")
    return {
        "correct": not measured["problems"] and sorted(values) == sorted(names),
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "values": values,
        "notes": notes,
        "measured": measured,
    }


def _report(name: str, seed: int, result: dict, units: dict[str, str]) -> None:
    measured = result.get("measured", {})
    print(f"== {name} (seed {seed})")
    if measured:
        print(
            f"   {measured['reps']} repetitions measured, wall_s samples "
            + ", ".join(f"{w:.4f}" for w in measured["wall_samples"])
        )
        print("   raw wall times " + ", ".join(f"{w:.4f}" for w in measured["raw_wall_samples"]))
        print(
            f"   {measured['failed']} of {measured['attempted']} operations failed, "
            f"{measured['fallbacks']} ended in a fallback; digest {measured['digest']}"
        )
    for metric, value in result["values"].items():
        print(f"   {metric:<36} {value:>16.6g} {units.get(metric, '')}")
    if "ops_ok_share" in result["values"]:
        print(f"   {'ops_failed_share':<36} {1 - result['values']['ops_ok_share']:>16.6g} ratio")
    for note in result["notes"]:
        print(f"   ! {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per workload")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--role", choices=("prepare", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.role:
        return _child_main(args)

    if not (SRC / "taxsim" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'taxsim'}", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)

    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, seconds, args.trace, spec)
        _report(name, args.seed, results[name], units)

    def metric_key(name: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{name}.{metric}"

    correct = all(r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    metric_key(name, metric): {"value": value, "unit": units.get(metric, "")}
                    for name, r in results.items()
                    for metric, value in r["values"].items()
                },
            }
        )
    )
    return 0 if correct else 1


# -- child processes ----------------------------------------------------------


def _measure(spec, state, work: Path, seconds: float, min_reps: int, tracer=None) -> tuple[list, list[str]]:
    """Repeat the timed section until ``seconds`` have passed and at least
    ``min_reps`` repetitions ran; stop early on an exception.

    The calibration loop is timed twice right before and twice right after
    each repetition; ``rep.scaled_wall_s`` is the repetition's wall time at
    the reference speed, by the median of those four timings."""
    from calibrate import REFERENCE_S, reference_loop_s

    reps, errors = [], []
    start = perf_counter()
    while len(reps) < min_reps or perf_counter() - start < seconds:
        rep_dir = work / "rep"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.rep = len(reps)
        calibration = [reference_loop_s(), reference_loop_s()]
        try:
            rep = spec.rep(state, rep_dir)
        except Exception as exc:  # a raising run is a failed operation: record it, stop
            errors.append(f"repetition {len(reps)} raised {type(exc).__name__}: {exc}")
            break
        calibration += [reference_loop_s(), reference_loop_s()]
        rep.scaled_wall_s = rep.wall_s * REFERENCE_S / statistics.median(calibration)
        reps.append(rep)
    shutil.rmtree(work / "rep", ignore_errors=True)
    return reps, errors


def _child_main(args) -> int:
    from workloads import WORKLOADS

    spec = WORKLOADS[args.workload]
    work = Path(args.work)
    if args.role == "prepare":
        spec.prepare(args.seed, work)
        print("{}")
        return 0

    def wall(rep) -> float:
        return rep.scaled_wall_s if spec.cpu_bound else rep.wall_s

    state = spec.setup(args.seed, work)
    share = 0.5 if args.trace else 1.0
    reps, problems = _measure(spec, state, work, args.seconds * share, spec.min_reps)
    untraced_walls = [wall(r) for r in reps]
    traced = []
    layers, unmeasured = {}, []
    if args.trace and not problems:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        state = spec.setup(args.seed, work)  # traced set-up: gateway.load_cache
        load_cache = tracer.stats.get("gateway.load_cache")
        load_cache_s = load_cache.self_s / load_cache.calls if load_cache else 0.0
        tracer.reset()
        state.wrap_transport = lambda transport: tracer.wrap("gateway.transport", transport)
        traced, errors = _measure(spec, state, work, args.seconds * share, 2, tracer)
        problems += errors
        if traced:
            spec_names = [m["name"] for m in _benchmark_spec()["per_layer"]]
            layers, unmeasured = tracer.layer_metrics(
                spec_names,
                len(traced),
                statistics.median(wall(r) for r in traced),
                statistics.median(untraced_walls),
                statistics.median(r.cache_bytes for r in traced),
                load_cache_s,
            )
        tracer.write(WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json")

    all_reps = reps + traced
    ops_per_rep = spec.ops_per_rep(state)
    attempted = ops_per_rep * (len(all_reps) + len(problems))
    failed = ops_per_rep * len(problems)
    fallbacks = 0  # counted only in repetitions whose operations did not fail
    for i, rep in enumerate(all_reps):
        if rep.problems:
            problems += [f"repetition {i}: {p}" for p in rep.problems]
            failed += rep.ops
        elif rep.digest != all_reps[0].digest:
            problems.append(f"repetition {i}: output digest differs from repetition 0")
            failed += rep.ops
        else:
            fallbacks += rep.fallbacks
    if all_reps and args.seed == DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
        if golden.get(args.workload) != all_reps[0].digest:
            problems.append(f"digest {all_reps[0].digest} differs from golden.json at seed {DEFAULT_SEED}")
            failed, fallbacks = attempted, 0
    if reps and not problems:
        verify_ops, verify_problems = spec.verify(state, work)
        attempted += verify_ops
        if verify_problems:
            problems += verify_problems
            failed += verify_ops

    print(
        json.dumps(
            {
                "reps": len(all_reps),
                "wall_samples": untraced_walls,
                "raw_wall_samples": [r.wall_s for r in reps],
                "wall_s": statistics.median(untraced_walls) if untraced_walls else 0.0,
                "household_months_per_rep": spec.households * spec.months * spec.runs_per_rep,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "attempted": max(attempted, 1),
                "failed": failed,
                "fallbacks": fallbacks,
                "digest": all_reps[0].digest if all_reps else "",
                "problems": problems,
                "layers": layers,
                "unmeasured": unmeasured,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
