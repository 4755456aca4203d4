"""Command-line experiment runner.

Subcommands mirror the scenarios; a JSON config file supplies anything the
flags do not.  Exit codes: 0 all checks passed, 1 a check failed, 2 bad
usage or config, 3 a capacity cap was hit.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapacityError, ConfigError
from .experiments import SCENARIOS, ExperimentConfig, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muharmonic",
        description="run harmonic-analysis experiments on groups, lattices and free groups",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--out", help="output directory for JSON records and CSV series")
        p.add_argument("--paths", type=int, help="Monte Carlo path count")
        p.add_argument("--n", type=int, help="step count / averaging horizon")
        p.add_argument("--trials", type=int,
                       help="ncconv: random trials per entry (each trial makes five "
                            "operator convolutions, about 40 ms on S5); stationary: "
                            "random coset actions; cesaro: horizon n_max of the Cesaro "
                            "gap diagnostic; unused elsewhere")
        p.add_argument("--word", help="free-group cylinder, e.g. a, ab, a'b")
        p.add_argument("--entry", help="run a single catalog entry by name")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
    raw["scenario"] = args.scenario
    for key in ("seed", "out", "paths", "n", "trials", "word", "entry"):
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
