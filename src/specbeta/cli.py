"""Command-line entry point.

Subcommands map one-to-one onto the harness operations.  Each takes --output
and --format plus the flags of the settings its operation reads; any other
flag is a usage error.  Reports go to stdout as JSON unless --output is
given.  Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import harness
from .errors import BadDimensionsError, DataError, SpecbetaError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _parse_target(raw: str) -> str | int:
    try:
        return int(raw)
    except ValueError:
        return raw


# The flag and argparse spec of each ExperimentConfig field.  The subparsers
# suppress defaults, so a flag left out is absent from the parse and its field
# keeps the ExperimentConfig default.
_FLAGS: dict[str, tuple[str, dict]] = {
    "input_path": ("--input", {"required": True, "metavar": "PATH"}),
    "target": ("--target", {"type": _parse_target, "required": True, "metavar": "NAME|INDEX"}),
    "normalize": ("--normalize", {"action": "store_true"}),
    "d": ("--dim", {"type": int, "metavar": "D"}),
    "latent": ("--latent", {"type": int, "metavar": "L"}),
    "n": ("--samples", {"type": int, "metavar": "N"}),
    "runs": ("--runs", {"type": int, "metavar": "R"}),
    "noise_sd": ("--noise-sd", {"type": float, "metavar": "F"}),
    "sample_sizes": ("--sample-sizes", {"type": int, "nargs": "+", "metavar": "N"}),
    "seed": ("--seed", {"type": int, "metavar": "U64"}),
    "alpha": ("--alpha", {"type": float, "metavar": "F"}),
    "null_count": ("--null-samples", {"type": int, "metavar": "N"}),
    "method": ("--null-method", {"choices": ["sphere"]}),
    "output_path": ("--output", {"metavar": "PATH"}),
    "fmt": ("--format", {"choices": ["json", "csv"]}),
}

# Settings of the synthetic studies, and of the no-confounding test.
_SIMULATION = ("d", "latent", "n", "runs", "noise_sd")
_NULL_TEST = ("seed", "alpha", "null_count", "method")

# Subcommand: (harness mode, help, the ExperimentConfig fields the mode reads).
_COMMANDS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "estimate": ("estimate", "estimate confounding strength from a CSV",
                 ("input_path", "target", "normalize")),
    "test": ("test", "test the no-confounding null on a CSV",
             ("input_path", "target", "normalize", *_NULL_TEST)),
    "simulate": ("simulate", "true-vs-estimated beta simulation study",
                 (*_SIMULATION, "seed")),
    "rejections": ("rejection_study", "rejection fractions per true-beta bin",
                   (*_SIMULATION, *_NULL_TEST)),
    "overfit": ("overfit_study", "p-value distribution on causal-only data",
                ("d", "runs", "noise_sd", "sample_sizes", *_NULL_TEST)),
    "shuffle-target": ("shuffle_target", "each column in turn as the target",
                       ("input_path", "normalize", "seed", "null_count", "method")),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    """Parser whose destinations are ``ExperimentConfig`` field names.

    Built on first use and kept: each parse starts from a fresh namespace, so
    one call's flags never become another's defaults.
    """
    parser = _Parser(prog="specbeta", description=__doc__)
    sub = parser.add_subparsers(required=True, metavar="COMMAND")
    for name, (mode, help_text, fields) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.set_defaults(mode=mode)
        for field in (*fields, "output_path", "fmt"):
            flag, spec = _FLAGS[field]
            p.add_argument(flag, dest=field, **spec)
    return parser


def _parse_config(argv: list[str] | None) -> harness.ExperimentConfig:
    """Config from the command line; an invalid flag value is a usage error."""
    parser = _build_parser()
    fields = vars(parser.parse_args(argv))
    # --null-method still parses, so existing command lines run, but it has
    # nothing to choose: the config's method is fixed.
    fields.pop("method", None)
    if "sample_sizes" in fields:
        fields["sample_sizes"] = tuple(fields["sample_sizes"])
    try:
        return harness.ExperimentConfig(**fields)
    except (ValueError, BadDimensionsError) as err:
        parser.error(str(err))


def main(argv: list[str] | None = None) -> int:
    config = _parse_config(argv)
    try:
        harness.emit_report(harness.run(config), config.output_path, config.fmt)
    except (DataError, ValueError, OSError) as err:
        print(f"specbeta: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (SpecbetaError, RuntimeError) as err:
        print(f"specbeta: numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
