"""Command-line entry point.

Subcommands map one-to-one onto the harness operations.  Each takes --output
and --format plus the flags of the settings its operation reads; any other
flag is a usage error.  Reports go to stdout as JSON unless --output is
given.  Exit codes: 0 success, 1 usage error, 2 data error (``DataError``), 3
numeric failure (``NumericError``), 141 (128 + SIGPIPE) when the reader of the
report stops before its end.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import harness
from .errors import DataError, SpecbetaError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141


# The flag and argparse spec of each ExperimentConfig field, and of the output
# path, which the config does not hold.  The subparsers suppress defaults, so a
# flag left out is absent from the parse and its field keeps its default.
_FLAGS: dict[str, tuple[str, dict]] = {
    "input_path": ("--input", {"required": True, "metavar": "PATH"}),
    "target": ("--target", {"type": harness.parse_target, "required": True,
                            "metavar": "NAME|INDEX"}),
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
    "output": ("--output", {"metavar": "PATH"}),
    "fmt": ("--format", {"choices": ["json", "csv"]}),
}

# Subcommand: (harness mode, help).  harness.OPERATIONS names the fields each mode reads.
_COMMANDS: dict[str, tuple[str, str]] = {
    "estimate": ("estimate", "estimate confounding strength from a CSV"),
    "test": ("test", "test the no-confounding null on a CSV"),
    "simulate": ("simulate", "true-vs-estimated beta simulation study"),
    "rejections": ("rejection_study", "rejection fractions per true-beta bin"),
    "overfit": ("overfit_study", "p-value distribution on causal-only data"),
    "shuffle-target": ("shuffle_target", "each column in turn as the target"),
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
    for name, (mode, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.set_defaults(mode=mode)
        for field in (*harness.OPERATIONS[mode][1], "output", "fmt"):
            flag, spec = _FLAGS[field]
            p.add_argument(flag, dest=field, **spec)
            if field == "null_count":  # the null's method; _parse_config drops it
                p.add_argument("--null-method", dest="method", choices=["sphere"])
    return parser


def _parse_config(argv: list[str] | None) -> tuple[harness.ExperimentConfig, Path | None]:
    """Config and output path from the command line; an invalid flag value is a usage error."""
    parser = _build_parser()
    fields = vars(parser.parse_args(argv))
    # --null-method still parses, so existing command lines run, but it has
    # nothing to choose: the config's method is fixed.
    fields.pop("method", None)
    if "sample_sizes" in fields:
        fields["sample_sizes"] = tuple(fields["sample_sizes"])
    # where the report goes is found here, not once the run is over
    output = Path(fields.pop("output")) if "output" in fields else None
    if output is None and fields.get("fmt") == "csv":
        parser.error("csv format needs an output path")
    elif output is not None and output.is_dir():
        parser.error(f"--output {output} is a directory")
    elif output is not None and not output.parent.is_dir():
        parser.error(f"--output {output}: {output.parent} is not a directory")
    try:
        return harness.ExperimentConfig(**fields), output
    except ValueError as err:
        parser.error(str(err))


def main(argv: list[str] | None = None) -> int:
    config, output = _parse_config(argv)
    try:
        harness.emit_report(harness.run(config), output)
        sys.stdout.flush()  # so that a reader gone early raises here, not at exit
    except BrokenPipeError:
        # no fault of the data; what is left of the report goes nowhere, so the
        # interpreter's own flush at exit has nothing to report either
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_PIPE
    except (DataError, ValueError, OSError) as err:
        print(f"specbeta: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (SpecbetaError, RuntimeError) as err:
        print(f"specbeta: numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
