"""Command line for seeded experiments.

    strategicmdp run <config.yaml>        run all seeds, write artifacts
    strategicmdp diagnose <config.yaml>   scenario-level oracles only
    strategicmdp validate <config.yaml>   check the config, print issues
    strategicmdp sweep <config.yaml> --param run.episodes=250,500 ...

The output root comes from --output-root, else the STRATEGICMDP_OUTPUT
environment variable, else the config's output.root. Exit codes: 0 success,
2 config or validation failure, 3 runtime failure, 130 interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys

import yaml

from .config import load_config, parse_yaml
from .errors import ConfigError, ParseError, StrategicMDPError, ValidationError
from .harness import diagnose, run_experiment, sweep_configs

ENV_OUTPUT = "STRATEGICMDP_OUTPUT"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strategicmdp",
        description="strategic-interaction learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "run every seed and write artifacts"),
        ("diagnose", "compute scenario-level oracles without running the learner"),
        ("validate", "validate a config file and report every issue"),
        ("sweep", "run a grid of configs derived from one base config"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a YAML config file")
        if name != "validate":
            p.add_argument(
                "--output-root",
                default=None,
                help=f"output directory root (overrides ${ENV_OUTPUT} and the config)",
            )
        if name == "sweep":
            p.add_argument(
                "--param",
                action="append",
                default=[],
                metavar="key=v1,v2,...",
                help="dotted config path and comma-separated values; repeatable",
            )
    return parser


def _output_root(args) -> str | None:
    if getattr(args, "output_root", None):
        return args.output_root
    return os.environ.get(ENV_OUTPUT) or None


def _parse_grid(specs: list[str]) -> dict[str, list]:
    grid: dict[str, list] = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"--param needs key=v1,v2,... , got {spec!r}")
        key, _, values = spec.partition("=")
        key = key.strip()
        if not key or not values:
            raise ConfigError(f"--param needs key=v1,v2,... , got {spec!r}")
        if key in grid:
            raise ConfigError(f"--param {key} is given more than once")
        try:
            grid[key] = [parse_yaml(tok) for tok in values.split(",")]
        except (yaml.YAMLError, ValueError) as exc:
            raise ParseError(f"cannot parse --param {key}: {exc}") from None
    return grid


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "validate":
            load_config(args.config)
            print(f"{args.config}: valid")
            return EXIT_OK
        cfg = load_config(args.config)
        root = _output_root(args)
        if args.command == "run":
            exp_dir = run_experiment(cfg, root)
            print(f"wrote {exp_dir}")
            return EXIT_OK
        if args.command == "diagnose":
            exp_dir = diagnose(cfg, root)
            print(f"wrote {exp_dir / 'diagnostics.json'}")
            return EXIT_OK
        if args.command == "sweep":
            grid = _parse_grid(args.param)
            if not grid:
                raise ConfigError("sweep needs at least one --param key=v1,v2,...")
            for label, point in sweep_configs(cfg.raw, grid):
                exp_dir = run_experiment(point, root)
                print(f"[{label}] wrote {exp_dir}")
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")
    except (ParseError, ValidationError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except StrategicMDPError as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports everything
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
