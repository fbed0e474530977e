"""Command-line entry point.

Subcommands map one-to-one onto the harness operations; reports go to stdout
as JSON unless --output is given.  Exit codes: 0 success, 1 usage error,
2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import cdtest, harness
from .errors import (
    BadDimensionsError,
    DataError,
    SpecbetaError,
    TooFewSamplesError,
    ZeroSignalError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_NULL_METHODS = {"sphere": cdtest.SPHERE_MONTE_CARLO, "chi2": cdtest.MIXED_CHI2}


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

    def add_common(p, mode, *, data=False, sim=False):
        p.set_defaults(mode=mode)
        p.add_argument("--seed", type=int, default=0, metavar="U64")
        p.add_argument("--alpha", type=float, default=0.05, metavar="F")
        p.add_argument(
            "--null-samples", dest="null_count", type=int, default=1000, metavar="N"
        )
        p.add_argument(
            "--null-method", dest="method", choices=sorted(_NULL_METHODS), default="sphere"
        )
        p.add_argument("--output", dest="output_path", metavar="PATH")
        p.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
        if data:
            p.add_argument("--input", dest="input_path", required=True, metavar="PATH")
            p.add_argument("--normalize", action="store_true")
        if sim:
            p.add_argument("--dim", dest="d", type=int, default=10, metavar="D")
            p.add_argument("--latent", type=int, default=None, metavar="L")
            p.add_argument("--samples", dest="n", type=int, default=10000, metavar="N")
            p.add_argument("--runs", type=int, default=1000, metavar="R")
            p.add_argument("--noise-sd", type=float, default=None, metavar="F")

    p = sub.add_parser("estimate", help="estimate confounding strength from a CSV")
    add_common(p, "estimate", data=True)
    p.add_argument("--target", type=_parse_target, required=True, metavar="NAME|INDEX")

    p = sub.add_parser("test", help="test the no-confounding null on a CSV")
    add_common(p, "test", data=True)
    p.add_argument("--target", type=_parse_target, required=True, metavar="NAME|INDEX")

    p = sub.add_parser("simulate", help="true-vs-estimated beta simulation study")
    add_common(p, "simulate", sim=True)

    p = sub.add_parser("rejections", help="rejection fractions per true-beta bin")
    add_common(p, "rejection_study", sim=True)

    p = sub.add_parser("overfit", help="p-value distribution on causal-only data")
    add_common(p, "overfit_study", sim=True)
    p.add_argument(
        "--sample-sizes",
        type=int,
        nargs="+",
        default=harness.DEFAULT_SAMPLE_SIZES,
        metavar="N",
    )

    p = sub.add_parser("shuffle-target", help="each column in turn as the target")
    add_common(p, "shuffle_target", data=True)
    return parser


def _parse_target(raw: str) -> str | int:
    try:
        return int(raw)
    except ValueError:
        return raw


def _parse_config(argv: list[str] | None) -> harness.ExperimentConfig:
    """Config from the command line; an invalid flag value is a usage error."""
    parser = _build_parser()
    fields = vars(parser.parse_args(argv))
    fields["method"] = _NULL_METHODS[fields["method"]]
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
    except (
        DataError, TooFewSamplesError, ZeroSignalError, ValueError, FileNotFoundError
    ) as err:
        print(f"specbeta: data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (SpecbetaError, RuntimeError) as err:
        print(f"specbeta: numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
