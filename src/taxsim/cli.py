"""Command-line interface: run one simulation, compare systems across seeds,
or replay a recorded LLM experiment offline."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from taxsim.config import TAX_SYSTEMS, ConfigError, SimConfig, load_config
from taxsim.gateway import GatewayError
from taxsim.simulation import ComparisonResult, run, sweep


def _config(args: argparse.Namespace, **flags) -> SimConfig:
    """The ``--config`` file (or the defaults) with each flag given applied,
    validated. An output directory that is a file or lies under one is a
    ConfigError before any month runs; nothing is created here."""
    config = load_config(args.config) if args.config else SimConfig()
    config = replace(config, **{key: value for key, value in flags.items() if value is not None})
    config.validate()
    out = Path(config.output_dir)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"output_dir {str(out)!r}: {str(existing)!r} is not a directory")
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config(
        args, seed=args.seed, tax_system=args.system, months=args.months, output_dir=args.out
    )
    result = run(config)
    out = result.write_outputs(config.output_dir)
    print(f"wrote {out / 'monthly.csv'}")
    for key, value in result.summary.items():
        print(f"{key}: {value}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config(args, output_dir=args.out)
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds takes comma-separated integers, not {args.seeds!r}") from None
    if not systems or not seeds:
        raise ConfigError("compare needs at least one system and one seed")
    result = ComparisonResult(sweep(config, systems, seeds))
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.write_csv(out / "comparison.csv")
    print(f"{'system':<12} {'seed':>6} {'social_outcome':>16}")
    for row in result.rows:
        print(f"{row.tax_system:<12} {row.seed:>6} {row.final_social_outcome:>16.6f}")
    print("per-system mean final social outcome:")
    for system, mean in result.mean_social_outcomes().items():
        print(f"  {system:<12} {mean:.6f}")
    print(f"wrote {out / 'comparison.csv'}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    config = _config(args, output_dir=args.out)
    if not config.makes_llm_calls:
        raise ConfigError(
            f"the config makes no LLM call to replay (tax_system {config.tax_system!r}, "
            f"household_backend {config.household_backend!r})"
        )
    config = replace(
        config,
        gateway=replace(config.gateway, mode="replay", cache_path=args.cache),
    )
    result = run(config)
    out = result.write_outputs(config.output_dir)
    print(f"replayed {config.months} months from {args.cache}")
    print(f"wrote {out / 'monthly.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxsim",
        description="Agent-based income-tax simulator with pluggable policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    run_p.add_argument("--config", help="JSON config file (defaults when omitted)")
    run_p.add_argument("--seed", type=int, help="override the rng seed")
    run_p.add_argument("--system", choices=TAX_SYSTEMS, help="override the tax system")
    run_p.add_argument("--months", type=int, help="override the month count")
    run_p.add_argument("--out", help="output directory")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="run several systems across seeds")
    cmp_p.add_argument("--config", help="JSON config file shared by every run")
    cmp_p.add_argument("--systems", required=True, help="comma list, e.g. free,us_federal")
    cmp_p.add_argument("--seeds", required=True, help="comma list of integers")
    cmp_p.add_argument("--out", help="output directory")
    cmp_p.set_defaults(func=_cmd_compare)

    rep_p = sub.add_parser("replay", help="re-run an LLM experiment from a cache")
    rep_p.add_argument("--config", help="JSON config file of the recorded run")
    rep_p.add_argument("--cache", required=True, help="JSONL exchange cache")
    rep_p.add_argument("--out", help="output directory")
    rep_p.set_defaults(func=_cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a bad config, argument or cache prints one error
    line and returns 2, as argparse does for a malformed command line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GatewayError) as exc:
        print(f"taxsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
