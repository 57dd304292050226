"""Command-line entry point.

Usage:
    reluphase <command> --out DIR [--config FILE.json] [--seed N] [--runs N] [--threads N]

Commands: train, sweep-width, sweep-angle, norm-hist, gc-prob, trace-dynamics,
landscape-audit.  The config file is a flat JSON object whose keys must match
the chosen command; unknown keys are an error so typos cannot silently fall
back to defaults.  --seed, --runs, and --threads override the corresponding
config keys when the command has them.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .experiments import COMMANDS, ConfigError, run_command


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path!r} must contain a JSON object")
    return loaded


# Each override flag, the config keys it may set (the first one the command has wins), its error's noun and help.
_OVERRIDES = (
    ("seed", ("seed", "seed_base"), "seed", "override the config seed"),
    ("runs", ("runs",), "run count", "override the run count"),
    ("threads", ("threads",), "thread count", "worker processes for sweeps"),
)


def _apply_overrides(command: str, mapping: dict, args: argparse.Namespace) -> dict:
    keys = {f.name for f in fields(COMMANDS[command][0])}
    out = dict(mapping)
    for flag, candidates, noun, _ in _OVERRIDES:
        if getattr(args, flag) is not None:
            key = next((key for key in candidates if key in keys), None)
            if key is None:
                raise ConfigError(f"command {command!r} takes no {noun}")
            out[key] = getattr(args, flag)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reluphase",
        description="deterministic experiments on two-layer hinge-loss subgradient descent",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--config", default=None, help="JSON config file")
        for flag, _, _, help_text in _OVERRIDES:
            p.add_argument(f"--{flag}", type=int, default=None, help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mapping = _apply_overrides(args.command, _load_config(args.config), args)
        summary = run_command(args.command, mapping, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for key, value in summary.items():
        print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
