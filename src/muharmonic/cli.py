"""Command-line experiment runner.

Subcommands mirror the scenarios, each with the flags of the fields its scenario
reads; a JSON config file supplies anything the flags do not.  Exit codes: 0 all
checks passed, 1 a check failed, 2 bad usage or config, 3 a capacity cap was hit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import cache

from .errors import CapacityError, ConfigError
from .experiments import SCENARIOS, ExperimentConfig, run, scenario_fields


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each scenario's subcommand parser.

    Built on the first main() call and reused by later ones in the process:
    parsing leaves no state in the parsers, and import pays nothing for it.
    """
    parser = argparse.ArgumentParser(
        prog="muharmonic",
        description="run harmonic-analysis experiments on groups, lattices and free groups",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", help="JSON config file; flags override its fields")
        reads = scenario_fields(name)
        for f in fields(ExperimentConfig):
            if f.metadata.get("help") and f.name in reads:
                text = f.metadata["help"]
                if isinstance(text, dict):  # a field whose meaning depends on the scenario
                    text = text[name]
                default = "" if reads[f.name] is None else f" (default {reads[f.name]})"
                p.add_argument(f"--{f.name}", type=f.metadata["kind"].type, help=text + default)
    return parser, sub.choices


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
    # the subcommand is the scenario field, and each other flag is the field it names
    raw.update((key, val) for key, val in vars(args).items()
               if key != "config" and val is not None)
    if raw.get("out") is None and os.environ.get("MUHARMONIC_OUT"):
        raw["out"] = os.environ["MUHARMONIC_OUT"]
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    parser, subcommands = _build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:  # refused by the subcommand, with its usage: the flags it does take
        subcommands[args.scenario].error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        cfg = _config_from_args(args)
        record = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    failed = [c for c in record.checks if not c.passed]
    for c in record.checks:
        status = "pass" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: value={c.value:.6g} bound={c.bound:.6g}")
    print(f"scenario {cfg.scenario}: {'pass' if record.passed else 'FAIL'} "
          f"({len(record.checks) - len(failed)}/{len(record.checks)} checks)")
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
