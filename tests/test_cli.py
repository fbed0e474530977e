"""Command-line interface: subcommands, flags and exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from specbeta import (SPHERE_MONTE_CARLO, empirical_covariance, errors, estimate_confounding,
                      harness, spectral)
from specbeta import test_nonconfounding as run_nonconfounding_test
from specbeta.cli import EXIT_USAGE, _build_parser, main

from conftest import sigma_xx

from test_reports import CASES, DATA

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def linear_csv(tmp_path):
    g = np.random.default_rng(0)
    x = g.standard_normal((500, 4))
    y = x @ np.array([1.0, -1.0, 0.5, 2.0]) + 0.1 * g.standard_normal(500)
    rows = ["a,b,c,d,y"]
    rows += [",".join(f"{float(v)!r}" for v in row) for row in np.column_stack([x, y])]
    p = tmp_path / "data.csv"
    p.write_text("\n".join(rows) + "\n")
    return str(p)


@pytest.fixture
def scaled_csv(tmp_path):
    """Writes x (200 x 3) and y = x . [1, 2, 3] + noise, scaled by x_scale and y_scale."""

    def write(x_scale, y_scale):
        g = np.random.default_rng(0)
        x = g.standard_normal((200, 3))
        y = x @ np.array([1.0, 2.0, 3.0]) + g.standard_normal(200)
        p = tmp_path / f"scaled_{x_scale:g}_{y_scale:g}.csv"
        np.savetxt(p, np.column_stack([x_scale * x, y_scale * y]), delimiter=",",
                   header="a,b,c,y", comments="")
        return str(p)

    return write


@pytest.fixture
def constant_csv(tmp_path):
    """Columns a, b, c, y of 5000 rows, where c is 0.1 in every row.

    The standard deviation of column c is 1.4e-17, not 0, as its mean rounds.
    """
    g = np.random.default_rng(1)
    x = g.standard_normal((5000, 2))
    y = x @ np.array([1.0, -2.0]) + g.standard_normal(5000)
    p = tmp_path / "constant.csv"
    np.savetxt(p, np.column_stack([x, np.full(5000, 0.1), y]), fmt="%.17g", delimiter=",",
               header="a,b,c,y", comments="")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEstimate:
    def test_success_json_stdout(self, capsys, linear_csv):
        code, out, _ = run(capsys, ["estimate", "--input", linear_csv, "--target", "y"])
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["summary"]["beta_hat"] <= 1.0
        assert payload["records"][0]["d"] == 4

    def test_target_by_index(self, capsys, linear_csv):
        code, out, _ = run(capsys, ["estimate", "--input", linear_csv, "--target", "4"])
        assert code == 0

    def test_output_file(self, capsys, tmp_path, linear_csv):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            ["estimate", "--input", linear_csv, "--target", "y", "--output", str(out_path)],
        )
        assert code == 0
        assert json.loads(out_path.read_text())["records"]

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["estimate", "--input", str(tmp_path / "no.csv"), "--target", "y"]
        )
        assert code == 2

    def test_directory_input_is_data_error(self, tmp_path):
        # run as a process, so that a traceback would reach stderr
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "specbeta.cli", "estimate", "--input", str(tmp_path),
             "--target", "y"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("specbeta: data error: ")
        assert "Traceback" not in proc.stderr

    def test_missing_column_is_data_error(self, capsys, linear_csv):
        code, _, err = run(capsys, ["estimate", "--input", linear_csv, "--target", "zz"])
        assert code == 2

    def test_non_numeric_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,y\n1,oops,3\n4,5,6\n")
        code, _, _ = run(capsys, ["estimate", "--input", str(p), "--target", "y"])
        assert code == 2

    def test_oversized_cell_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text('a,b,c\n"' + "1" * 140_001 + '",2,3\n4,5,6\n')
        code, _, err = run(capsys, ["estimate", "--input", str(p), "--target", "c"])
        assert code == 2
        assert "field larger than field limit" in err

    def test_utf8_byte_order_mark_before_the_header(self, capsys, tmp_path, linear_csv):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + Path(linear_csv).read_bytes())
        code, out, err = run(capsys, ["estimate", "--input", str(p), "--target", "a"])
        assert (code, err) == (0, "")
        _, want, _ = run(capsys, ["estimate", "--input", linear_csv, "--target", "a"])
        assert json.loads(out)["records"] == json.loads(want)["records"]

    @pytest.mark.parametrize(
        "text, row",
        [
            ("a,b\xe9,y\n1,2,3\n4,5,7\n2,1,1\n", 1),  # a Latin-1 header
            ("a,b,y\n1,2,3\r\n\n4,\xe9,7\n2,1,1\n5,3,2\n", 4),  # blank lines count
        ],
        ids=["header", "data-row"],
    )
    def test_non_utf8_byte_is_data_error_naming_file_and_row(self, capsys, tmp_path, text, row):
        p = tmp_path / "latin1.csv"
        p.write_bytes(text.encode("latin-1"))
        code, out, err = run(capsys, ["estimate", "--input", str(p), "--target", "y"])
        assert (code, out) == (2, "")
        assert err == (
            f"specbeta: data error: {p}: row {row}: not UTF-8 (invalid continuation byte)\n"
        )

    def test_target_name_two_columns_share_is_data_error(self, capsys, tmp_path):
        # the name does not say which of the two columns is the target
        p = tmp_path / "same_names.csv"
        p.write_text("a,a,y\n1,2,3\n4,5,7\n2,1,1\n5,3,2\n")
        code, out, err = run(capsys, ["estimate", "--input", str(p), "--target", "a"])
        assert (code, out) == (2, "")
        assert err == "specbeta: data error: target name 'a' matches columns [0, 1] (zero-based)\n"

    def test_index_that_names_another_column_is_data_error(self, capsys, tmp_path):
        # "2" is column 2 by index and column 1 by name
        p = tmp_path / "number_names.csv"
        p.write_text("a,2,y\n1,2,3\n4,5,7\n2,1,1\n5,3,2\n")
        code, out, err = run(capsys, ["estimate", "--input", str(p), "--target", "2"])
        assert (code, out) == (2, "")
        assert err == ("specbeta: data error: target 2 is ambiguous: the index of column 2 "
                       "and the name of columns [1] (zero-based)\n")
        code, out, _ = run(capsys, ["estimate", "--input", str(p), "--target", "y"])
        assert code == 0
        # a name at the index it reads as is no other reading
        p.write_text("a,b,2\n1,2,3\n4,5,7\n2,1,1\n5,3,2\n")
        code, named, _ = run(capsys, ["estimate", "--input", str(p), "--target", "2"])
        assert code == 0
        assert json.loads(named)["records"] == json.loads(out)["records"]

    @pytest.mark.parametrize("name, text", [("02", "2"), ("2", "02"), ("+2", "2"),
                                            ("2", " 2"), ("2", "+2")])
    def test_index_another_columns_name_reads_as_is_data_error(self, capsys, tmp_path,
                                                               name, text):
        # the name and the flag read as the same index, however each is spelled
        p = tmp_path / "number_names.csv"
        p.write_text(f"a,{name},y\n1,2,3\n4,5,7\n2,1,1\n5,3,2\n")
        code, out, err = run(capsys, ["estimate", "--input", str(p), "--target", text])
        assert (code, out) == (2, "")
        assert err == ("specbeta: data error: target 2 is ambiguous: the index of column 2 "
                       "and the name of columns [1] (zero-based)\n")

    @pytest.mark.parametrize("command", [["estimate"], ["test", "--null-samples", "100"]])
    @pytest.mark.parametrize("flags", [[], ["--normalize"]], ids=["raw", "normalize"])
    def test_predictor_constant_up_to_rounding(self, capsys, constant_csv, command, flags):
        # a constant predictor is a fault of the data, with or without --normalize,
        # not the singular sigma_xx it would make
        argv = [*command, "--input", constant_csv, "--target", "y", *flags]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "specbeta: data error: column 'c' has zero variance\n"

    @pytest.mark.parametrize("command", [["estimate"], ["test", "--null-samples", "100"]])
    @pytest.mark.parametrize("text", ["a,y\n1,2\n2,5\n3,4\n4,9\n", "y\n1\n2\n5\n"],
                             ids=["d=1", "d=0"])
    def test_fewer_than_two_predictors_is_data_error(self, capsys, tmp_path, command, text):
        # with one predictor the regression direction is a sign, and beta_hat would be 0
        p = tmp_path / "narrow.csv"
        p.write_text(text)
        code, out, err = run(capsys, [*command, "--input", str(p), "--target", "y"])
        assert (code, out) == (2, "")
        assert err == f"specbeta: data error: {command[0]} needs at least 3 columns\n"

    def test_constant_target_is_data_error(self, capsys, tmp_path):
        # a target without signal is a property of the data, not a numeric failure
        x = np.random.default_rng(2).standard_normal((300, 3))
        rows = ["a,b,c,y"] + [",".join(f"{float(v)!r}" for v in row) + ",0.1" for row in x]
        p = tmp_path / "flat.csv"
        p.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, ["estimate", "--input", str(p), "--target", "y"])
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize(
        "scale, flags",
        [((1e100, 1e100), []), ((1e-100, 1e-100), []), ((1e-80, 1e80), []),
         ((1e85, 1e-85), []), ((1e160, 1.0), ["--normalize"]), ((1e-170, 1.0), ["--normalize"])],
        ids=["1e+100", "1e-100", "1e-80-1e+80", "1e+85-1e-85", "1e+160-normalize",
             "1e-170-normalize"],
    )
    def test_extreme_scale_gives_the_unit_scale_estimate(self, capsys, scaled_csv, scale, flags):
        # finite moments whose products over- or underflow: the zero-signal
        # rule must still see the signal, and numpy must not warn; x and y
        # scaled apart put beta near 1e160 or 1e-170, whose squares do too.
        # Predictors whose squares over- or underflow are normalized to the unit scale's.
        beta_hats = []
        for path in (scaled_csv(1.0, 1.0), scaled_csv(*scale)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(
                    capsys, ["estimate", "--input", path, "--target", "y", *flags]
                )
            assert (code, err) == (0, "")
            beta_hats.append(json.loads(out)["summary"]["beta_hat"])
        assert beta_hats[1] == pytest.approx(beta_hats[0], rel=0, abs=1e-9)

    def test_overflowing_target_is_numeric_failure_without_warning(self, capsys, scaled_csv):
        # the target's variance overflows: a numeric failure, not "no signal"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, ["estimate", "--input", scaled_csv(1.0, 1e160), "--target", "y"]
            )
        assert (code, out) == (3, "")
        assert err.startswith("specbeta: numeric failure: second moments overflow")

    def test_rank_deficiency_is_numeric_failure(self, capsys, tmp_path):
        g = np.random.default_rng(1)
        col = g.standard_normal(50)
        y = g.standard_normal(50)
        rows = ["a,b,y"] + [f"{float(a)!r},{float(a)!r},{float(t)!r}" for a, t in zip(col, y)]
        p = tmp_path / "dup.csv"
        p.write_text("\n".join(rows) + "\n")
        code, _, _ = run(capsys, ["estimate", "--input", str(p), "--target", "y"])
        assert code == 3


class TestExitCodes:
    @pytest.mark.parametrize("error, code, prefix", [
        (errors.DataError, 2, "data error"),
        (errors.ZeroSignalError, 2, "data error"),
        (ValueError, 2, "data error"),
        (errors.NumericError, 3, "numeric failure"),
        (errors.SpecbetaError, 3, "numeric failure"),
        (RuntimeError, 3, "numeric failure"),
    ])
    def test_each_error_class_has_its_exit_code(self, capsys, monkeypatch, error, code, prefix):
        def fail(config):
            raise error("injected")

        monkeypatch.setattr(harness, "run", fail)
        argv = ["simulate", "--dim", "3", "--samples", "50", "--runs", "2"]
        assert run(capsys, argv) == (code, "", f"specbeta: {prefix}: injected\n")

    def test_one_class_per_exit_code(self):
        defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
        assert defined == {"SpecbetaError", "DataError", "ZeroSignalError", "NumericError"}
        for name in ("TooFewSamplesError", "RankDeficientError", "NumericOverflowError",
                     "SingularMatrixError", "BadDimensionsError", "DegenerateModelError",
                     "ParseError", "NonNumericError", "MissingColumnError",
                     "ConstantColumnError"):
            with pytest.raises(ImportError):
                exec(f"from specbeta import {name}", {})


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--target", "y"])
        assert exc.value.code == 1

    def test_bad_null_method(self, capsys, linear_csv):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "test",
                    "--input",
                    linear_csv,
                    "--target",
                    "y",
                    "--null-method",
                    "bogus",
                ]
            )
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--alpha", "2"],
            ["simulate", "--runs", "0"],
            ["simulate", "--dim", "5", "--latent", "3"],
            ["simulate", "--noise-sd", "-1"],
            ["rejections", "--null-samples", "50"],
            ["shuffle-target", "--input", "data.csv", "--null-samples", "50"],
            ["test", "--input", "data.csv", "--target", "y", "--null-samples", "50"],
            ["rejections", "--dim", "10", "--latent", "5", "--runs", "5"],
            ["simulate", "--dim", "10", "--samples", "8", "--runs", "3"],
            ["overfit", "--dim", "10", "--sample-sizes", "5", "--runs", "3"],
            ["simulate", "--dim", "10", "--samples", "1"],
            ["rejections", "--alpha", "2"],
            # a repeated size would run the same seeded runs twice
            ["overfit", "--dim", "3", "--runs", "2", "--sample-sizes", "20", "20",
             "--null-samples", "100"],
            # a non-finite noise level would run noise-free or fail as a data error
            ["simulate", "--dim", "3", "--samples", "50", "--runs", "2", "--noise-sd", "nan"],
            ["simulate", "--dim", "3", "--samples", "50", "--runs", "2", "--noise-sd", "inf"],
            ["overfit", "--dim", "3", "--runs", "2", "--sample-sizes", "20", "--noise-sd", "nan"],
        ],
    )
    def test_invalid_flag_values(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "rejections", "overfit"])
    def test_one_predictor_is_usage_error(self, capsys, monkeypatch, command):
        # with d = 1 the sphere is two points: no orientation relative to sigma_xx to measure
        monkeypatch.setattr(harness, "run", lambda config: pytest.fail("the run started"))
        samples = "--sample-sizes" if command == "overfit" else "--samples"
        with pytest.raises(SystemExit) as exc:
            main([command, "--dim", "1", "--runs", "3", samples, "50"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage:") and err.endswith(": need d >= 2 predictors, got d=1\n")

    @pytest.mark.parametrize("command", ["simulate", "rejections", "overfit", "test",
                                         "shuffle-target"])
    def test_negative_seed(self, capsys, command):
        # found before any run or file read, not as a data error mid-run
        argv = [command, "--seed", "-1"]
        if command in ("test", "shuffle-target"):
            argv += ["--input", "data.csv"] + (["--target", "y"] if command == "test" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage:" in err and "seed must be >= 0" in err


    @pytest.mark.parametrize("output", ["missing/r.json", "a_file/r.json", "a_directory"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_output_is_found_before_the_run(
        self, capsys, tmp_path, monkeypatch, output, fmt
    ):
        (tmp_path / "a_directory").mkdir()
        (tmp_path / "a_file").write_text("")
        monkeypatch.setattr(harness, "run", lambda config: pytest.fail("the run started"))
        argv = ["simulate", "--dim", "3", "--samples", "50", "--runs", "2",
                "--format", fmt, "--output", str(tmp_path / output)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "usage:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_directory", "a_file"]
        assert not any((tmp_path / "a_directory").iterdir())

    def test_csv_without_output_is_found_before_the_run(self, capsys, monkeypatch):
        monkeypatch.setattr(harness, "run", lambda config: pytest.fail("the run started"))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--dim", "3", "--samples", "50", "--runs", "2", "--format", "csv"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage:") and err.endswith(": csv format needs an output path\n")


# Besides --output and --format, the flags of the settings each subcommand reads.
READS = {
    "estimate": {"--input", "--target", "--normalize"},
    "test": {
        "--input", "--target", "--normalize",
        "--seed", "--alpha", "--null-samples", "--null-method",
    },
    "simulate": {"--dim", "--latent", "--samples", "--runs", "--noise-sd", "--seed"},
    "rejections": {
        "--dim", "--latent", "--samples", "--runs", "--noise-sd",
        "--seed", "--alpha", "--null-samples", "--null-method",
    },
    "overfit": {
        "--dim", "--runs", "--noise-sd", "--sample-sizes",
        "--seed", "--alpha", "--null-samples", "--null-method",
    },
    "shuffle-target": {"--input", "--normalize", "--seed", "--null-samples", "--null-method"},
}

# One changed value per read flag but --null-method, whose one value is the
# default (see test_sphere_null_is_the_default).  Appended to the pinned command line of
# test_reports, run beside sample.csv and head.csv; a flag's last value wins.
CHANGES = {
    "estimate": [["--input", "head.csv"], ["--target", "a"], ["--normalize"]],
    "test": [
        ["--input", "head.csv"], ["--target", "a"], ["--normalize"], ["--seed", "1"],
        ["--alpha", "0.01"], ["--null-samples", "300"],
    ],
    "simulate": [
        ["--dim", "4"], ["--latent", "4"], ["--samples", "400"], ["--runs", "2"],
        ["--noise-sd", "0.5"], ["--seed", "6"],
    ],
    "rejections": [
        ["--dim", "4"], ["--latent", "5"], ["--samples", "400"], ["--runs", "4"],
        ["--noise-sd", "0.5"], ["--seed", "6"], ["--alpha", "0.01"],
        ["--null-samples", "200"],
    ],
    "overfit": [
        ["--dim", "4"], ["--runs", "3"], ["--noise-sd", "0.5"], ["--sample-sizes", "30"],
        ["--seed", "6"], ["--alpha", "0.5"], ["--null-samples", "200"],
    ],
    "shuffle-target": [
        ["--input", "head.csv"], ["--normalize"], ["--seed", "1"],
        ["--null-samples", "200"],
    ],
}

NULL_METHOD_COMMANDS = [name for name, flags in READS.items() if "--null-method" in flags]


@pytest.fixture
def sample_dir(tmp_path, monkeypatch):
    lines = (DATA / "sample.csv").read_text().splitlines(keepends=True)
    (tmp_path / "sample.csv").write_text("".join(lines))
    (tmp_path / "head.csv").write_text("".join(lines[:151]))
    monkeypatch.chdir(tmp_path)


class TestFlagTable:
    def test_each_subcommand_takes_the_flags_it_reads(self):
        actions = _build_parser()._actions
        sub = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert got == {name: flags | {"--output", "--format"} for name, flags in READS.items()}
        assert sum(len(flags) for flags in got.values()) == 50
        # --null-method is the one read flag with a single value
        assert {name: {c[0] for c in changes} for name, changes in CHANGES.items()} == {
            name: flags - {"--null-method"} for name, flags in READS.items()
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--input", "data.csv", "--target", "y", "--seed", "1"],
            ["estimate", "--input", "data.csv", "--target", "y", "--alpha", "0.1"],
            ["estimate", "--input", "data.csv", "--target", "y", "--null-samples", "200"],
            ["estimate", "--input", "data.csv", "--target", "y", "--null-method", "sphere"],
            ["simulate", "--dim", "3", "--samples", "50", "--runs", "2", "--alpha", "0.1"],
            ["simulate", "--dim", "3", "--samples", "50", "--runs", "2", "--null-samples", "200"],
            ["simulate", "--dim", "3", "--samples", "50", "--runs", "2", "--null-method", "sphere"],
            ["overfit", "--dim", "3", "--runs", "2", "--sample-sizes", "50", "--samples", "30"],
            ["overfit", "--dim", "3", "--runs", "2", "--sample-sizes", "50", "--latent", "4"],
            ["shuffle-target", "--input", "data.csv", "--alpha", "0.1"],
            ["simulate", "--dim", "3", "--samples", "50", "--runs", "2", "--format", "csv"],
        ],
    )
    def test_unread_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, change",
        [(command, change) for command, changes in CHANGES.items() for change in changes],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_each_read_flag_changes_the_results(self, capsys, sample_dir, command, change):
        def results(argv):
            assert main(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            return payload["records"], payload["summary"]

        assert results(CASES[command] + change) != results(CASES[command])

    @pytest.mark.parametrize("command", NULL_METHOD_COMMANDS)
    def test_chi2_null_is_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(CASES[command] + ["--null-method", "chi2"])
        assert exc.value.code == EXIT_USAGE
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", NULL_METHOD_COMMANDS)
    def test_sphere_null_is_the_default(self, capsys, sample_dir, command):
        outputs = []
        for argv in (CASES[command], CASES[command] + ["--null-method", "sphere"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestParserReuse:
    def test_second_call_gets_its_own_defaults(self, capsys):
        # the first call sets non-default flags on another subcommand
        argv = ["simulate", "--dim", "3", "--samples", "200", "--runs", "3"]
        first = ["rejections", "--dim", "4", "--latent", "6", "--samples", "300",
                 "--runs", "2", "--null-samples", "200", "--null-method", "sphere",
                 "--noise-sd", "0.5", "--seed", "9", "--alpha", "0.1"]
        assert run(capsys, first)[0] == 0
        code, out, _ = run(capsys, argv)
        assert code == 0
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        fresh = subprocess.run(
            [sys.executable, "-m", "specbeta.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert out == fresh.stdout
        config = json.loads(out)["config"]
        assert (config["seed"], config["alpha"], config["method"]) == (0, 0.05, SPHERE_MONTE_CARLO)
        assert (config["null_count"], config["noise_sd"], config["latent"]) == (1000, None, None)


class TestTest:
    def test_success(self, capsys, linear_csv):
        code, out, _ = run(
            capsys,
            ["test", "--input", linear_csv, "--target", "y", "--null-samples", "200"],
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 < payload["summary"]["p_value"] <= 1.0

    def test_scaled_apart_gives_the_unit_scale_p_value(self, capsys, scaled_csv):
        # x scaled by 1e-80 and y by 1e80 put beta near 1e160, whose square
        # overflows in its norm: the direction is still found, and quietly
        p_values = []
        for path in (scaled_csv(1.0, 1.0), scaled_csv(1e-80, 1e80)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(
                    capsys, ["test", "--input", path, "--target", "y", "--null-samples", "100"]
                )
            assert (code, err) == (0, "")
            p_values.append(json.loads(out)["summary"]["p_value"])
        assert p_values[1] == p_values[0]


class TestLibraryFitIsTheCliFit:
    """``empirical_covariance(x, y)`` fits the samples as estimate and test fit their CSV."""

    @staticmethod
    def write(tmp_path, seed, position):
        """(path, x, y): random samples, d = 2-39 and n <= 3000, written with 17
        digits, so that the CSV holds them exactly, the target y at ``position``."""
        g = np.random.default_rng(seed)
        d = int(g.integers(2, 40))
        n = int(g.integers(d + 2, 3001))
        x = g.standard_normal((n, d)) * g.uniform(0.1, 10.0, d) + g.uniform(-5.0, 5.0, d)
        y = x @ g.standard_normal(d) + g.uniform(0.1, 3.0) * g.standard_normal(n) + 2.0
        j = {"first": 0, "middle": d // 2, "last": d}[position]
        matrix = np.insert(x, j, y, axis=1)
        names = [f"x{k}" for k in range(d)]
        names.insert(j, "y")
        path = tmp_path / f"samples_{seed}_{position}.csv"
        np.savetxt(path, matrix, fmt="%.17g", delimiter=",", header=",".join(names),
                   comments="")
        return str(path), x, y

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("seed", range(8))
    def test_library_fit_is_the_cli_fit(self, capsys, monkeypatch, tmp_path, seed, position):
        path, x, y = self.write(tmp_path, seed, position)
        fitted = []

        def keep(*args):
            fitted.append(spectral.covariance_from_moments(*args))
            return fitted[-1]

        monkeypatch.setattr(harness, "covariance_from_moments", keep)
        args = ["--input", path, "--target", "y"]
        code, out, _ = run(capsys, ["estimate", *args])
        assert code == 0
        got, cov = spectral._row(fitted[0], 0), empirical_covariance(x, y)
        for a, b in ((sigma_xx(got), sigma_xx(cov)), (got.sigma_xy, cov.sigma_xy),
                     (got.eigenvalues, cov.eigenvalues)):
            # 1e-13 relative to the largest entry
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b), initial=0.0)
        assert np.all(got.sigma_xy == 0.0) == np.all(cov.sigma_xy == 0.0)
        assert (got.n, got.d) == (cov.n, cov.d)
        if position != "last":
            return  # the joint Gram's last bits move with the column order
        # the target where empirical_covariance puts it: the records are the library's, bit for bit
        est = estimate_confounding(cov)
        assert json.loads(out)["records"] == [
            {"beta_hat": est.beta_hat, "theta_hat": est.theta_hat, "tau_inv": cov.tau_inv,
             "boundary": est.boundary, "d": cov.d, "n": cov.n}]
        res = run_nonconfounding_test(cov, harness.run_rng(seed).standard_normal((500, cov.d)))
        code, out, _ = run(capsys, ["test", *args, "--seed", str(seed), "--null-samples", "500"])
        assert code == 0
        assert json.loads(out)["records"] == [
            {"t_observed": res.t_observed, "p_value": res.p_value, "null_count": 500,
             "reject_at_alpha": res.p_value <= 0.05}]


class TestSimulationCommands:
    def test_simulate(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--dim", "3", "--samples", "300", "--runs", "3", "--seed", "5"],
        )
        assert code == 0
        assert len(json.loads(out)["records"]) == 3

    def test_constant_beta_hat_prints_no_warning(self, capsys):
        # every run's theta_hat is 0, so beta_hat has no spread to correlate
        argv = ["simulate", "--dim", "3", "--samples", "300", "--runs", "3", "--seed", "5",
                "--latent", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert {r["beta_hat"] for r in payload["records"]} == {0.0}
        assert payload["summary"]["pearson_correlation"] == "nan"

    @pytest.mark.parametrize("command", [
        ["simulate", "--dim", "3", "--samples", "50"],
        ["overfit", "--dim", "3", "--sample-sizes", "20", "--null-samples", "100"],
    ])
    def test_overflowing_noise_is_numeric_failure_without_warning(self, capsys, command):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, [*command, "--runs", "2", "--noise-sd", "1e200"])
        assert (code, out) == (3, "")
        assert err == "specbeta: numeric failure: 1 of 2 planned runs failed (> 10%)\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_reader_that_stops_early_ends_the_run_quietly(self, unbuffered):
        # the reader of a 114 kB report, more than a pipe buffer's 64 KiB, takes
        # 100 bytes and closes the pipe: no data error, and the status a shell
        # gives a tool whose reader stopped
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(ROOT / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "specbeta.cli", "simulate", "--dim", "3", "--samples",
                "30", "--runs", "1000"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")

    def test_simulate_byte_identical_outputs(self, capsys, tmp_path):
        argv = ["simulate", "--dim", "3", "--samples", "300", "--runs", "3", "--seed", "5"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_rejections(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "rejections",
                "--dim",
                "3",
                "--samples",
                "300",
                "--runs",
                "5",
                "--null-samples",
                "100",
            ],
        )
        assert code == 0
        assert len(json.loads(out)["summary"]["bins"]) == 10

    def test_overfit(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "overfit",
                "--dim",
                "3",
                "--runs",
                "5",
                "--null-samples",
                "100",
                "--sample-sizes",
                "20",
                "50",
            ],
        )
        assert code == 0
        sizes = [e["n"] for e in json.loads(out)["summary"]["per_sample_size"]]
        assert sizes == [20, 50]

    def test_csv_format_output(self, capsys, tmp_path):
        out_path = tmp_path / "runs.csv"
        code, _, _ = run(
            capsys,
            [
                "simulate",
                "--dim",
                "3",
                "--samples",
                "300",
                "--runs",
                "2",
                "--output",
                str(out_path),
                "--format",
                "csv",
            ],
        )
        assert code == 0
        assert len(out_path.read_text().strip().splitlines()) == 3
        assert (tmp_path / "runs.summary.csv").exists()

    def test_csv_summary_holds_the_bins_as_json(self, capsys, tmp_path):
        argv = ["rejections", "--dim", "3", "--samples", "300", "--runs", "5",
                "--null-samples", "100"]
        assert main([*argv, "--output", str(tmp_path / "r.json")]) == 0
        assert main([*argv, "--output", str(tmp_path / "r.csv"), "--format", "csv"]) == 0
        capsys.readouterr()
        with (tmp_path / "r.summary.csv").open(newline="") as fh:
            summary = dict(csv.reader(fh))
        report = json.loads((tmp_path / "r.json").read_text())
        assert json.loads(summary["bins"]) == report["summary"]["bins"]


class TestShuffleTarget:
    def test_one_record_per_column(self, capsys, linear_csv):
        code, out, _ = run(
            capsys,
            ["shuffle-target", "--input", linear_csv, "--null-samples", "100"],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["records"]) == 5
        # the last column is an exact linear function of the others
        assert payload["records"][4]["beta_hat"] <= 0.05

    def test_normalize_column_constant_up_to_rounding(self, capsys, constant_csv):
        code, out, err = run(capsys, ["shuffle-target", "--input", constant_csv, "--normalize"])
        assert (code, out) == (2, "")
        assert err == "specbeta: data error: column 'c' has zero variance\n"

    def test_non_finite_cell_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("a,b,c\n1,2,3\n4,nan,6\n7,8,10\n2,1,0\n")
        code, out, err = run(capsys, ["shuffle-target", "--input", str(p)])
        assert code == 2
        assert out == ""
        assert "non-finite entries in data" in err

    @pytest.mark.parametrize("command", ["estimate", "test", "shuffle-target"])
    @pytest.mark.parametrize("header", [True, False])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_named(self, capsys, tmp_path, command, header, cell):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n" * header + f"1,2,3\n4,{cell},6\n7,8,10\n2,1,0\n")
        argv = [command, "--input", str(p)]
        if command != "shuffle-target":
            argv += ["--target", "c" if header else "2"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        row = 2 + header  # the line in the file
        assert err == (f"specbeta: data error: {p}: non-finite entries in data: "
                       f"'{cell}' at row {row}, column 2\n")

    def test_two_columns_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text("a,b\n1,2\n2,5\n3,4\n4,9\n")
        code, out, err = run(capsys, ["shuffle-target", "--input", str(p)])
        assert code == 2
        assert out == ""
        assert err == "specbeta: data error: shuffle-target needs at least 3 columns\n"

    def test_single_row_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("a,b,c,d\n1,2,3,4\n")
        code, out, err = run(capsys, ["shuffle-target", "--input", str(p)])
        assert (code, out) == (2, "")
        assert err == "specbeta: data error: need n >= 2 rows, got n=1\n"

    @pytest.mark.parametrize("normalize", [[], ["--normalize"]])
    def test_constant_column_is_data_error(self, capsys, tmp_path, normalize):
        p = tmp_path / "constant.csv"
        g = np.random.default_rng(4)
        np.savetxt(p, np.column_stack([g.standard_normal((300, 3)), np.full(300, 0.1)]),
                   delimiter=",", header="a,b,c,k", comments="")
        code, out, err = run(capsys, ["shuffle-target", "--input", str(p), *normalize])
        assert (code, out) == (2, "")
        assert err == "specbeta: data error: column 'k' has zero variance\n"

    def test_overflowing_column_leaves_error_records(self, capsys, scaled_csv):
        # every column's moments include the overflowing target's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["shuffle-target", "--input", scaled_csv(1.0, 1e160)])
        assert (code, err) == (0, "")
        records = json.loads(out)["records"]
        assert [sorted(r) for r in records] == [["column", "error", "name"]] * 4
        assert all(r["error"].startswith("second moments overflow") for r in records)

    def test_normalize_at_extreme_scale_gives_the_unit_scale_records(self, capsys, scaled_csv):
        # predictors whose squares overflow are normalized to the unit scale's
        reports = []
        for path in (scaled_csv(1.0, 1.0), scaled_csv(1e160, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, ["shuffle-target", "--input", path, "--normalize",
                                              "--null-samples", "100"])
            assert (code, err) == (0, "")
            reports.append(json.loads(out)["records"])
        unit, scaled = reports
        assert [list(r) for r in scaled] == [list(r) for r in unit]
        for got, want in zip(scaled, unit):
            for key in ("beta_hat", "p_value"):
                assert got[key] == pytest.approx(want[key], rel=0, abs=1e-9)

    def test_too_few_rows_leaves_one_error_per_column(self, capsys, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("a,b,c,d\n1,2,3,4\n2,7,1,8\n3,1,4,1\n")
        code, out, _ = run(capsys, ["shuffle-target", "--input", str(p)])
        assert code == 0
        records = json.loads(out)["records"]
        assert records == [
            {"column": j, "name": name, "error": "need n > d, got n=3, d=3"}
            for j, name in enumerate("abcd")
        ]
