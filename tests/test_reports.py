"""Report layout of every subcommand, pinned against stored reference reports.

Each ``data/<case>.json`` is the stdout of the command line in ``CASES``,
run in ``data/`` on ``data/sample.csv``.  Key order, ints, bools, strings and
nulls must match exactly; floats to a relative 1e-12, which absorbs the
summation-order differences between BLAS builds.  The report ``harness.run``
returns for the same command line serializes to those stdout bytes.
"""

import json
import math
from pathlib import Path

import pytest

from specbeta import harness
from specbeta.cli import _parse_config, main

DATA = Path(__file__).parent / "data"

CASES = {
    "estimate": ["estimate", "--input", "sample.csv", "--target", "y"],
    "test": ["test", "--input", "sample.csv", "--target", "y", "--null-samples", "200"],
    # a non-zero seed, so the reference pins the generator the test derives from it
    "test-seed7": [
        "test", "--input", "sample.csv", "--target", "y", "--null-samples", "200", "--seed", "7",
    ],
    "simulate": ["simulate", "--dim", "3", "--samples", "300", "--runs", "3", "--seed", "5"],
    "rejections": [
        "rejections", "--dim", "3", "--samples", "300", "--runs", "5",
        "--null-samples", "100", "--seed", "2",
    ],
    "overfit": [
        "overfit", "--dim", "3", "--runs", "4", "--null-samples", "100",
        "--sample-sizes", "20", "50", "--seed", "3",
    ],
    "shuffle-target": ["shuffle-target", "--input", "sample.csv", "--null-samples", "100"],
}


def assert_same(got, want, where="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict), where
        assert list(got) == list(want), f"{where}: keys"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=1e-12), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_reference(case, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    assert main(CASES[case]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / f"{case}.json").read_text())
    assert_same(got, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_library_returns_what_the_cli_prints(case, monkeypatch, capsys):
    monkeypatch.chdir(DATA)
    report = harness.run(_parse_config(CASES[case])[0])
    assert main(CASES[case]) == 0
    assert capsys.readouterr().out == harness.stable_json(report) + "\n"
