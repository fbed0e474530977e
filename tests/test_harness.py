"""CSV ingestion, simulation studies and report emission."""

import collections
import dataclasses
import importlib
import importlib.util
import json
import math
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbeta import (
    ExperimentConfig,
    NumericError,
    SpecbetaError,
    emit_report,
    read_numeric_csv,
    run,
)
from specbeta import cdtest, empirical_covariance, estimator, genmodel, harness
from specbeta import spectral
from specbeta.errors import DataError, ZeroSignalError
from specbeta.harness import run_rng, stable_json
from specbeta.spectral import covariance_from_moments

from conftest import sigma_xx


ROOT = Path(__file__).resolve().parent.parent


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestReadNumericCsv:
    def test_header_autodetect(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,b,y\n1,2,3\n4,5,6\n")
        data, names = read_numeric_csv(p)
        assert names == ["a", "b", "y"]
        np.testing.assert_array_equal(data, [[1, 2, 3], [4, 5, 6]])

    def test_headerless(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "1,2\n3,4\n")
        data, names = read_numeric_csv(p)
        assert names == ["col0", "col1"]
        assert data.shape == (2, 2)

    @pytest.mark.parametrize("header", ["", "a,b,y\n"], ids=["headerless", "header"])
    def test_utf8_byte_order_mark(self, tmp_path, header):
        # the mark is the file's encoding, not part of the first cell: a headerless
        # file keeps its first row, and the first name is "a", not "\ufeffa"
        text = header + "1.5,2.0,3.1\n2,1,0\n4,4,1\n0,3,2\n7,1,5\n"
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        data, names = read_numeric_csv(p)
        want_data, want_names = read_numeric_csv(write_csv(tmp_path / "plain.csv", text))
        assert names == want_names == (["a", "b", "y"] if header else ["col0", "col1", "col2"])
        assert data.shape == (5, 3)
        np.testing.assert_array_equal(data, want_data)

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "")
        with pytest.raises(DataError, match=": empty file$"):
            read_numeric_csv(p)

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,b\n")
        with pytest.raises(DataError, match=": header but no data rows$"):
            read_numeric_csv(p)

    def test_ragged_row_reports_position(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match=": row 3 has 1 cells, expected 2$"):
            read_numeric_csv(p)

    def test_text_cell_reports_position(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "1,2\n3,oops\n")
        with pytest.raises(DataError, match=": non-numeric cell 'oops' at row 2, column 2$"):
            read_numeric_csv(p)

    # rows are numbered by their line in the file, skipped blank lines included
    def test_text_cell_position_counts_blank_lines(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,b\n1,2\n\n\n3,x\n")
        with pytest.raises(DataError, match=": non-numeric cell 'x' at row 5, column 2$"):
            read_numeric_csv(p)

    def test_ragged_row_position_counts_blank_lines(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "\na,b\n1,2\n\n3\n")
        with pytest.raises(DataError, match=": row 5 has 1 cells, expected 2$"):
            read_numeric_csv(p)

    # a cell over csv.field_size_limit() (131,072 characters by default)
    def test_oversized_data_cell_is_parse_error(self, tmp_path):
        big = '"' + "1" * 140_001 + '"'
        p = write_csv(tmp_path / "f.csv", f"a,b\n1,2\n\n{big},3\n")
        with pytest.raises(DataError, match=r": row 4: field larger than field limit \(131072\)$"):
            read_numeric_csv(p)

    # quoted and padded cells leave np.loadtxt to the row loop; both name the same
    # cell.  Of several bad cells the first in file order is named, whatever the
    # later one is: a text cell, a ragged row, or a cell the csv module cannot read.
    @pytest.mark.parametrize("text, cell, row, column", [
        ("a,b\n1,2\n\n3,1e999\n", "1e999", 4, 2),
        ('a,b\n1,2\n"-Infinity",4\n', "-Infinity", 3, 1),
        ("1,2\n3, nan \n", " nan ", 2, 2),
        ("a,b\n1,nan\n3,x\n", "nan", 2, 2),
        ("1,2\n-inf,x\n", "-inf", 2, 1),
        ("a,b\n1,2\ninf,4\n5\n", "inf", 3, 1),
        pytest.param("a,b\nnan,2\n" + "1" * 140_001 + ",3\n", "nan", 2, 1,
                     id="nan-before-oversized-cell"),
    ])
    def test_non_finite_cell_reports_position(self, tmp_path, text, cell, row, column):
        p = write_csv(tmp_path / "f.csv", text)
        with pytest.raises(DataError) as err:
            read_numeric_csv(p)
        assert str(err.value) == (
            f"{p}: non-finite entries in data: {cell!r} at row {row}, column {column}"
        )

    def test_oversized_header_cell_is_parse_error(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "\na," + "b" * 140_001 + "\n1,2\n")
        with pytest.raises(DataError, match=r": row 2: field larger than field limit \(131072\)$"):
            read_numeric_csv(p)


def read_both_ways(path, monkeypatch):
    """read_numeric_csv's outcome with the loadtxt path, then with the row loop alone."""
    outcomes = []
    for fast in (True, False):
        with monkeypatch.context() as m, warnings.catch_warnings():
            warnings.simplefilter("error")
            if not fast:
                m.setattr(harness, "_loadtxt_rows", lambda lines, ncols: None)
            try:
                data, names = read_numeric_csv(path)
            except Exception as err:  # noqa: BLE001 - compared as (type, message)
                outcomes.append((type(err), str(err)))
            else:
                outcomes.append((data.dtype, data.shape, data.tobytes(), names))
    return outcomes


CSV_EDGE_CASES = {
    "quoted cells": 'a,"b"\n"1",2\n3,"4.5"\n',
    "quoted comma in header": '"a,b",c\n1,2\n',
    "hash row": "a,b\n1,2\n#3,4\n",
    "hash header": "#a,b\n1,2\n",
    "underscore digits": "a,b\n1_0,2\n3,4\n",
    "trailing comma": "a,b\n1,2,\n3,4,\n",
    "utf-8 bom header": "\ufeffa,b\n1,2\n",
    "utf-8 bom headerless": "\ufeff1,2\n3,4\n",
    "blank line before header": "\n\na,b\n1,2\n3,4\n",
    "whitespace-only line": "a,b\n1,2\n   \n3,4\n",
    "whitespace-only lines only": "a,b\n \n\t\n",
    "crlf": "a,b\r\n1,2\r\n\r\n3,4\r\n",
    "lone cr": "a,b\r1,2\r3,4\r",
    "single data row": "a,b,c\n1,2,3\n",
    "single column": "y\n1\n2\n3\n",
    "single cell": "7\n",
    "header only": "a,b\n",
    "header then blank lines": "a,b\n\n\n",
    "header wider than rows": "a,b,c\n1,2\n3,4\n",
    "header narrower than rows": "a,b\n1,2,3\n",
    "padded cells": "a,b\n 1 ,\t2\n3 , 4\n",
    "special floats": "a,b\nnan,-inf\nInfinity,-0\n1e308,4.9e-324\n",
    "finite extremes": "a,b\n-0,1e308\n4.9e-324,-1.7976931348623157e308\n",
    "empty cell": "a,b\n1,\n",
    "no final newline": "a,b\n1,2\n3,4",
    "text cell": "a,b\n1,2\n3,x\n",
    "nan before text cell": "a,b\n1,nan\n3,x\n",
    "ascii separators": "a,b\n1\x1c,2\n",
    "unicode digit": "a,b\n\u0661,2\n",
}


class TestReadNumericCsvPaths:
    """The loadtxt path gives the row loop's array and names, or its exact error."""

    @pytest.mark.parametrize("text", CSV_EDGE_CASES.values(), ids=CSV_EDGE_CASES.keys())
    def test_edge_cases_match_row_loop(self, tmp_path, monkeypatch, text):
        p = tmp_path / "f.csv"
        p.write_text(text, encoding="utf-8", newline="")
        fast, slow = read_both_ways(p, monkeypatch)
        assert fast == slow

    def test_plain_file_takes_loadtxt_path(self, tmp_path, monkeypatch):
        table = np.random.default_rng(0).standard_normal((30, 4))
        body = "\n".join(",".join(map(repr, row)) for row in table.tolist())
        p = write_csv(tmp_path / "f.csv", "a,b,c,y\n" + body + "\n")
        monkeypatch.setattr(harness, "_convert_rows", None)  # any call would fail
        data, names = read_numeric_csv(p)
        assert names == ["a", "b", "c", "y"]
        assert data.tobytes() == table.tobytes()

    CELLS = ["1", "-2.5", "1e5", ".5", "nan", "-inf", "1_0", "x", "", " 3 ", '"4"',
             "#5", "\ufeff6", "7\x1f", "0x1", "\u0661", "\t8"]

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.sampled_from(CELLS), min_size=1, max_size=4), max_size=6
        ),
        header=st.booleans(),
        blank=st.lists(st.sampled_from(["", " ", "\t"]), max_size=3),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_property_matches_row_loop(
        self, tmp_path_factory, rows, header, blank, newline
    ):
        lines = [",".join(row) for row in rows]
        if header and rows:
            lines.insert(0, ",".join(f"c{j}" for j in range(len(rows[0]))))
        for k, extra in enumerate(blank):
            lines.insert((3 * k) % (len(lines) + 1), extra)
        p = tmp_path_factory.mktemp("csv") / "f.csv"
        p.write_text(newline.join(lines) + newline, encoding="utf-8", newline="")
        with pytest.MonkeyPatch.context() as monkeypatch:
            fast, slow = read_both_ways(p, monkeypatch)
        assert fast == slow


class Taken(Exception):
    """Raised in place of the model, once fit_csv_target has formed its moments."""


def fitted_moments(path, target, normalize=False):
    """``(sigma_xx, sigma_xy, sigma_yy, n)`` that fit_csv_target fits for ``target``."""
    moments = []

    def take(*args):
        moments.append(args)
        raise Taken

    config = ExperimentConfig(mode="estimate", input_path=str(path), target=target,
                              normalize=normalize)
    with pytest.MonkeyPatch.context() as monkeypatch, pytest.raises(Taken):
        monkeypatch.setattr(harness, "covariance_from_moments", take)
        harness.fit_csv_target(config)
    return tuple(moment[0] for moment in moments[0])  # the target's moments, a stack of one


def assert_moments(moments, matrix, j):
    """``moments`` are, bit for bit, column j's block of ``matrix``'s joint covariance.

    The joint covariance is formed as ``_csv_covariance`` forms it, over all
    columns; np.cov checks that formula, to rounding.
    """
    sigma_xx, sigma_xy, sigma_yy, n = moments
    centered = matrix - matrix.mean(axis=0)
    joint = (centered.T @ centered) / len(matrix)
    np.testing.assert_allclose(joint, np.cov(matrix, rowvar=False, bias=True), rtol=1e-12)
    rest = np.delete(np.arange(matrix.shape[1]), j)
    np.testing.assert_array_equal(sigma_xx, joint[np.ix_(rest, rest)])
    np.testing.assert_array_equal(sigma_xy, joint[rest, j])
    assert sigma_yy == joint[j, j]
    assert n == len(matrix)


def matrix_csv(path, matrix, header=""):
    """``matrix`` written with 17 significant digits, so that it reads back exactly."""
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",", header=header, comments="")
    return str(path)


class TestFitCsvTarget:
    """estimate and test fit their target's block of the CSV's joint covariance."""

    def test_target_by_name_takes_the_other_columns_in_order(self, tmp_path, rng):
        m = rng.standard_normal((40, 3)) * np.array([1.0, 10.0, 0.1])
        p = matrix_csv(tmp_path / "f.csv", m, "a,b,y")
        assert_moments(fitted_moments(p, "y"), m, 2)

    def test_target_by_index(self, tmp_path, rng):
        m = rng.standard_normal((40, 3)) * np.array([1.0, 10.0, 0.1])
        p = matrix_csv(tmp_path / "f.csv", m)
        assert_moments(fitted_moments(p, 0), m, 0)

    def test_missing_name(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match=r"^target column 'zz' not found in \['a', 'b'\]$"):
            fitted_moments(p, "zz")

    def test_ambiguous_name(self, tmp_path, rng):
        # a name two columns share would silently pick the first as the target
        m = rng.standard_normal((40, 3))
        p = matrix_csv(tmp_path / "f.csv", m, "a,a,y")
        with pytest.raises(DataError, match=r"^target name 'a' matches columns \[0, 1\]"):
            fitted_moments(p, "a")
        assert_moments(fitted_moments(p, 1), m, 1)

    def test_index_out_of_range(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "1,2\n3,4\n")
        with pytest.raises(DataError, match=r"^target index 5 out of range \(have 2 columns\)$"):
            fitted_moments(p, 5)

    def test_normalize_unit_variance(self, tmp_path, rng):
        # every predictor is scaled, and the target is not
        m = rng.standard_normal((50, 3)) * np.array([1.0, 10.0, 0.1])
        p = matrix_csv(tmp_path / "f.csv", m)
        sigma_xx, _, sigma_yy, _ = fitted_moments(p, 2, normalize=True)
        np.testing.assert_allclose(np.diagonal(sigma_xx), 1.0, atol=1e-10)
        assert sigma_yy == pytest.approx(m[:, 2].var(), rel=1e-12)

    def test_normalize_constant_column(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "1,5,1\n2,5,0\n3,5,1\n")
        with pytest.raises(DataError, match="^column 'col1' has zero variance$"):
            fitted_moments(p, 2, normalize=True)

    def test_normalize_column_constant_up_to_rounding(self, tmp_path, rng):
        # 5000 copies of 0.1 have a standard deviation of 1.4e-17, not 0
        rows = np.column_stack([rng.standard_normal((5000, 2)), np.full(5000, 0.1)])
        assert rows[:, 2].std() > 0.0
        p = matrix_csv(tmp_path / "f.csv", rows, "a,b,c")
        with pytest.raises(DataError, match="^column 'c' has zero variance$"):
            fitted_moments(p, "a", normalize=True)
        # a constant target is no predictor to normalize: it has no signal to fit
        config = ExperimentConfig(mode="estimate", input_path=p, target="c", normalize=True)
        with pytest.raises(ZeroSignalError):
            harness.fit_csv_target(config)
        # the other columns are divided by their standard deviation, as before
        normalized = []

        def normalize(x):
            normalized.append(harness_normalize(x))
            return normalized[-1]

        harness_normalize = harness.normalize_columns
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(harness, "normalize_columns", normalize)
            moments = fitted_moments(p, "c", normalize=True)
        np.testing.assert_array_equal(normalized, [rows[:, :2] / rows[:, :2].std(axis=0)])
        assert_moments(moments, np.column_stack([normalized[0], rows[:, 2]]), 2)

    @pytest.mark.parametrize("column", range(5))
    def test_equals_shuffle_targets_record_bit_for_bit(self, column):
        # all three fit a column from the same block of one joint covariance
        sample = str(ROOT / "tests" / "data" / "sample.csv")
        shuffled = run(ExperimentConfig(mode="shuffle_target", input_path=sample,
                                        null_count=100))["records"][column]
        estimated, = run(ExperimentConfig(mode="estimate", input_path=sample,
                                          target=column))["records"]
        tested, = run(ExperimentConfig(mode="test", input_path=sample, target=column,
                                       null_count=100))["records"]
        for key in ("beta_hat", "theta_hat", "boundary"):
            assert estimated[key] == shuffled[key], key
        assert tested["t_observed"] == shuffled["t_observed"]


# The ExperimentConfig fields each mode reads, besides fmt.
CONFIG_READS = {
    "estimate": {"input_path", "target", "normalize"},
    "test": {"input_path", "target", "normalize", "seed", "alpha", "null_count"},
    "simulate": {"d", "latent", "n", "runs", "noise_sd", "seed"},
    "rejection_study": {"d", "latent", "n", "runs", "noise_sd", "seed", "alpha", "null_count"},
    "overfit_study": {"d", "runs", "noise_sd", "sample_sizes", "seed", "alpha", "null_count"},
    "shuffle_target": {"input_path", "normalize", "seed", "null_count"},
}

# A valid value other than the default of each settable field.
NON_DEFAULT = {
    "d": 3, "latent": 12, "n": 500, "runs": 5, "seed": 7, "alpha": 0.1, "null_count": 200,
    "normalize": True, "noise_sd": 0.5, "sample_sizes": (30, 60), "target": 0,
    "input_path": "other.csv", "fmt": "csv",
}


class TestExperimentConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="plot")

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=1.5)

    def test_rejects_latent_below_d_when_simulating(self):
        with pytest.raises(ValueError, match="^latent dimension must be >= d when simulating$"):
            ExperimentConfig(mode="simulate", d=5, latent=3)

    def test_latent_defaults_to_d(self):
        assert ExperimentConfig(d=7).ell == 7

    def test_null_method_is_not_settable(self):
        assert ExperimentConfig().method == "sphere_monte_carlo"
        with pytest.raises(TypeError):
            ExperimentConfig(method="mixed_chi2")

    def test_rejects_latent_below_d_in_rejection_study(self):
        with pytest.raises(ValueError, match="^latent dimension must be >= d when simulating$"):
            ExperimentConfig(mode="rejection_study", d=10, latent=5)

    @pytest.mark.parametrize("mode", ["simulate", "rejection_study"])
    @pytest.mark.parametrize("n", [1, 9, 10])
    def test_rejects_samples_not_above_d(self, mode, n):
        with pytest.raises(ValueError):
            ExperimentConfig(mode=mode, d=10, n=n)

    def test_rejects_overfit_sample_size_not_above_d(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="overfit_study", d=10, sample_sizes=(100, 10))

    def test_sample_checks_skip_csv_modes(self):
        # a CSV mode reads no sample count, so a config cannot hold one
        with pytest.raises(ValueError, match="^estimate does not read n$"):
            ExperimentConfig(mode="estimate", d=10, n=3, input_path="data.csv", target="y")

    @pytest.mark.parametrize(
        "fields",
        [
            {"fmt": "xml"},
            {"mode": "estimate", "target": "y"},
            {"mode": "test", "target": 0},
            {"mode": "estimate", "input_path": "data.csv"},
            {"mode": "test", "input_path": "data.csv"},
            {"mode": "shuffle_target"},
        ],
        ids=["format", "estimate-input", "test-input", "estimate-target", "test-target",
             "shuffle_target-input"],
    )
    def test_rejects_a_config_that_would_fail_late(self, fields):
        # each of these is found before the operation runs, not after it
        with pytest.raises(ValueError):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("mode", sorted(CONFIG_READS))
    @pytest.mark.parametrize("field", sorted(NON_DEFAULT))
    def test_a_field_its_mode_does_not_read_is_rejected(self, mode, field):
        fields = {"mode": mode, field: NON_DEFAULT[field]}
        required = {"input_path": "data.csv", "target": "y"}  # where the mode reads them
        fields = {**{k: v for k, v in required.items() if k in CONFIG_READS[mode]}, **fields}
        if field in CONFIG_READS[mode] | {"fmt"}:
            assert getattr(ExperimentConfig(**fields), field) == NON_DEFAULT[field]
        else:
            with pytest.raises(ValueError, match=f"^{mode} does not read {field}$"):
                ExperimentConfig(**fields)

    def test_the_table_covers_every_setting(self):
        # 40 of the 78 (mode, setting) pairs are read: the CLI's 50 flags less --null-method
        # and --output, which goes to no config
        settable = {f.name for f in dataclasses.fields(ExperimentConfig) if f.init}
        assert set(NON_DEFAULT) == settable - {"mode"}
        assert set(CONFIG_READS) == set(harness.OPERATIONS)
        assert sum(len(reads) + 1 for reads in CONFIG_READS.values()) == 40

    @pytest.mark.parametrize("mode", ["simulate", "overfit_study"])
    @pytest.mark.parametrize("noise_sd", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_or_negative_noise(self, mode, noise_sd):
        with pytest.raises(ValueError, match="noise_sd must be finite and nonnegative"):
            ExperimentConfig(mode=mode, d=3, noise_sd=noise_sd)


class TestRunRng:
    def test_deterministic_per_index(self):
        a = run_rng(3, 5).standard_normal(4)
        b = run_rng(3, 5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_indices_give_distinct_streams(self):
        a = run_rng(3, 5).standard_normal(4)
        b = run_rng(3, 6).standard_normal(4)
        assert not np.array_equal(a, b)


# Study config fields, the genmodel draw a failure is injected
# through, and the seed key of the study's first run.
FAILING_STUDIES = {
    "simulate": ({"mode": "simulate", "n": 300}, "sample_ground_truth", {"run": 0}),
    "rejections": (
        {"mode": "rejection_study", "n": 300, "null_count": 100},
        "sample_ground_truth",
        {"run": 0},
    ),
    "overfit": (
        {"mode": "overfit_study", "null_count": 100, "sample_sizes": (20,)},
        "sample_causal_truth",
        {"n": 20, "run": 0},
    ),
}


# The keys of each mode's records, in order: its run key, then the fields of its fit.
RECORD_KEYS = {
    "estimate": ((), ("beta_hat", "theta_hat", "tau_inv", "boundary", "d", "n")),
    "test": ((), ("t_observed", "p_value", "null_count", "reject_at_alpha")),
    "simulate": (("run",), ("true_beta", "beta_hat", "theta_hat", "boundary")),
    "rejection_study": (("run",), ("true_beta", "t_observed", "p_value")),
    "overfit_study": (("n", "run"), ("p_value",)),
    "shuffle_target": (("column", "name"),
                       ("beta_hat", "theta_hat", "boundary", "t_observed", "p_value")),
}

SAMPLE_CSV = str(ROOT / "tests" / "data" / "sample.csv")
RECORD_CONFIGS = {
    "estimate": {"input_path": SAMPLE_CSV, "target": "y"},
    "test": {"input_path": SAMPLE_CSV, "target": "y", "null_count": 100},
    "simulate": {"d": 3, "n": 300, "runs": 2, "seed": 1},
    "rejection_study": {"d": 3, "n": 300, "runs": 2, "null_count": 100},
    "overfit_study": {"d": 3, "runs": 2, "sample_sizes": (20, 50), "null_count": 100},
    "shuffle_target": {"input_path": SAMPLE_CSV, "null_count": 100},
}


class TestStudies:
    def test_simulation_study_deterministic(self):
        cfg = ExperimentConfig(mode="simulate", d=4, n=400, runs=3, seed=8)
        r1 = run(cfg)
        r2 = run(cfg)
        assert r1["records"] == r2["records"]
        assert r1["summary"] == r2["summary"]
        assert len(r1["records"]) == 3

    def test_the_table_gives_each_mode_its_record_fields(self):
        fields = {mode: fit for mode, (_, fit) in RECORD_KEYS.items()}
        assert {mode: op[2] for mode, op in harness.OPERATIONS.items()} == fields

    @pytest.mark.parametrize("mode", sorted(RECORD_KEYS))
    def test_record_fields(self, mode):
        key, fit = RECORD_KEYS[mode]
        records = run(ExperimentConfig(mode=mode, **RECORD_CONFIGS[mode]))["records"]
        assert records and [list(r) for r in records] == [[*key, *fit]] * len(records)

    @pytest.mark.parametrize("mode", sorted(RECORD_KEYS))
    def test_the_config_echo_is_the_config(self, mode):
        config = ExperimentConfig(mode=mode, **RECORD_CONFIGS[mode])
        assert run(config)["config"] == dataclasses.asdict(config)

    def test_shuffle_zero_signal_and_error_record_fields(self, tmp_path):
        duplicated, _ = shuffle_target_analysis(tmp_path, DUPLICATED, null_count=100)
        assert [list(r) for r in duplicated[1:3]] == [["column", "name", "error"]] * 2
        zero, _ = shuffle_target_analysis(tmp_path, TestShuffleTarget.ZERO_SIGNAL, null_count=100)
        assert [list(r) for r in zero] == [["column", "name", "zero_signal"]] * 3

    def test_rejection_study_nested_levels(self):
        cfg = ExperimentConfig(
            mode="rejection_study", d=4, n=500, runs=40, seed=2, null_count=200
        )
        rep = run(cfg)
        for b in rep["summary"]["bins"]:
            r10, r05 = b["rejection_at_0.10"], b["rejection_at_0.05"]
            if not (math.isnan(r10) or math.isnan(r05)):
                assert r10 >= r05
        assert len(rep["summary"]["bins"]) == 10

    def test_overfit_study_structure(self):
        cfg = ExperimentConfig(
            mode="overfit_study",
            d=4,
            runs=10,
            seed=3,
            null_count=100,
            sample_sizes=(20, 50),
        )
        rep = run(cfg)
        assert len(rep["records"]) == 20
        assert [e["n"] for e in rep["summary"]["per_sample_size"]] == [20, 50]
        for e in rep["summary"]["per_sample_size"]:
            assert sum(e["histogram"]) == e["count"] == 10

    def test_overfit_sample_size_without_a_successful_run(self, monkeypatch):
        # one run at each of 10 sample sizes: one failure stays under the abort bound
        fail_on_calls(monkeypatch, genmodel, "sample_causal_truth", {3})
        cfg = ExperimentConfig(mode="overfit_study", d=3, runs=1, seed=0, null_count=100,
                               sample_sizes=tuple(range(20, 120, 10)))
        rep = run(cfg)
        assert rep["summary"]["failures"] == 1
        per_n = rep["summary"]["per_sample_size"]
        assert [e["count"] for e in per_n] == [1, 1, 1, 0, 1, 1, 1, 1, 1, 1]
        assert per_n[3]["n"] == 50
        assert math.isnan(per_n[3]["fraction_below_alpha"])
        assert per_n[3]["histogram"] == [0] * 10
        assert '{"n":50,"count":0,"fraction_below_alpha":"nan","histogram":[0,0,0,0,0,0,0,0,0,0]}' \
            in stable_json(rep["summary"])

    @pytest.mark.parametrize("study", sorted(FAILING_STUDIES))
    def test_too_many_failures_abort(self, monkeypatch, study):
        fields, draw, key = FAILING_STUDIES[study]

        def fail(*args):
            raise NumericError("injected")

        monkeypatch.setattr(genmodel, draw, fail)
        cfg = ExperimentConfig(d=5, runs=5, seed=0, **fields)
        with pytest.raises(RuntimeError, match=r"^1 of 5 planned runs failed \(> 10%\)$"):
            run(cfg)

    @pytest.mark.parametrize("study", sorted(FAILING_STUDIES))
    def test_early_failure_does_not_abort(self, monkeypatch, study):
        # the failure bound applies to the planned runs, not the runs so far
        fields, draw, key = FAILING_STUDIES[study]
        original = getattr(genmodel, draw)
        calls = []

        def fail_first(*args):
            calls.append(args)
            if len(calls) == 1:
                raise NumericError("injected")
            return original(*args)

        monkeypatch.setattr(genmodel, draw, fail_first)
        cfg = ExperimentConfig(d=3, runs=20, seed=0, **fields)
        rep = run(cfg)
        assert rep["summary"]["failures"] == 1
        assert len(rep["records"]) == 20
        errors = [r for r in rep["records"] if "error" in r]
        assert stable_json(errors) == stable_json([{**key, "error": "injected"}])  # key order too


def serial_fit(config, rng, cov, beta):
    """A study run's record fields, after its key, of its fitted model by public calls."""
    if config.mode == "simulate":
        est = estimator.estimate_confounding(cov)
        return {"true_beta": beta, "beta_hat": est.beta_hat,
                "theta_hat": est.theta_hat, "boundary": est.boundary}
    normals = rng.standard_normal((config.null_count, cov.d))
    res = cdtest.test_nonconfounding(cov, normals)
    fit = {"p_value": res.p_value}
    if config.mode == "rejection_study":
        fit = {"true_beta": beta, "t_observed": res.t_observed, **fit}
    return fit


def serial_study(config):
    """Records of a seeded study from a plain loop over public calls, run by run.

    Each run draws its model, then calls ``genmodel.sample_covariance`` with
    the same generator, then fits; errors and the abort follow the study rules.
    """
    if config.mode == "overfit_study":
        keys = [{"n": n, "run": i} for n in config.sample_sizes for i in range(config.runs)]
    else:
        keys = [{"run": i} for i in range(config.runs)]
    records, failures = [], 0
    for key in keys:
        rng = run_rng(config.seed, *key.values())
        try:
            if config.mode == "overfit_study":
                truth = genmodel.sample_causal_truth(config.d, rng)
                n, noise_sd = key["n"], 1.0 if config.noise_sd is None else config.noise_sd
            else:
                truth = genmodel.sample_ground_truth(config.d, config.ell, rng)
                n, noise_sd = config.n, config.noise_sd or 0.0
            cov, beta = genmodel.sample_covariance(truth, n, noise_sd, rng)
            records.append({**key, **serial_fit(config, rng, cov, beta)})
        except SpecbetaError as err:
            failures += 1
            if failures > 0.1 * len(keys):
                raise RuntimeError(f"{failures} of {len(keys)} planned runs failed (> 10%)")
            records.append({**key, "error": str(err)})
    return records


DRIVER_CONFIGS = {
    "simulate": ExperimentConfig(mode="simulate", d=4, n=300, runs=8, seed=4),
    "rejections": ExperimentConfig(
        mode="rejection_study", d=4, latent=6, n=300, runs=20, seed=1, null_count=100,
        noise_sd=0.5,
    ),
    "overfit": ExperimentConfig(
        mode="overfit_study", d=3, runs=5, seed=2, null_count=100, sample_sizes=(20, 50)
    ),
}


def fail_on_calls(monkeypatch, module, name, calls, error=NumericError):
    """Make the listed calls (0-based, in call order) of ``module.name`` raise."""
    original, count = getattr(module, name), []

    def failing(*args, **kwargs):
        count.append(None)
        if len(count) - 1 in calls:
            raise error("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    return count


def hold_the_worker(monkeypatch, steals=2, timeout=10.0):
    """Hold the worker in run 0's latent step until the calling thread has run ``steals``.

    The calling thread then finds run 0 undrawn and draws the queued steps of
    runs 1, 2, ... itself.  Returns the list of steps the calling thread ran.
    """
    original_step, original_rng = genmodel._latent_moments, harness.run_rng
    caller = threading.get_ident()
    stolen, seeded, taken, released = [], [], threading.Event(), threading.Event()

    def rng(*index):
        seeded.append(index)
        # run 1 starts once run 0's step is queued: let the worker take that one first
        if len(seeded) == 2 and not taken.wait(timeout):
            raise TimeoutError("the worker took no latent step")
        return original_rng(*index)

    def step(*args):
        if threading.get_ident() == caller:
            stolen.append(args)
            if len(stolen) >= steals:
                released.set()
        elif not taken.is_set():
            taken.set()
            if not released.wait(timeout):
                raise TimeoutError("the calling thread stole no latent step")
        return original_step(*args)

    monkeypatch.setattr(harness, "run_rng", rng)
    monkeypatch.setattr(genmodel, "_latent_moments", step)
    return stolen


@pytest.fixture
def shuffle_config(tmp_path):
    """A shuffle-target config on a headerless CSV of 300 rows and 9 correlated columns."""
    g = np.random.default_rng(6)
    path = tmp_path / "columns.csv"
    np.savetxt(path, g.standard_normal((300, 11)) @ g.standard_normal((11, 9)),
               fmt="%.17g", delimiter=",")
    return ExperimentConfig(mode="shuffle_target", input_path=str(path), seed=5, null_count=100)


def serial_shuffle(config):
    """Records of shuffle-target from a plain loop over public calls, column by column.

    Column j's covariance is the joint covariance's block, and its null block
    is the first draw of ``run_rng(seed, j)``.
    """
    matrix, names = read_numeric_csv(config.input_path)
    n, ncols = matrix.shape
    centered = matrix - matrix.mean(axis=0)
    joint = (centered.T @ centered) / n
    records = []
    for j in range(ncols):
        rest = np.delete(np.arange(ncols), j)
        key = {"column": j, "name": names[j]}
        try:
            cov = covariance_from_moments(
                joint[np.ix_(rest, rest)], joint[rest, j], joint[j, j], n)
            est = estimator.estimate_confounding(cov)
            normals = run_rng(config.seed, j).standard_normal((config.null_count, cov.d))
            res = cdtest.test_nonconfounding(cov, normals)
            records.append({**key, "beta_hat": est.beta_hat, "theta_hat": est.theta_hat,
                            "boundary": est.boundary, "t_observed": res.t_observed,
                            "p_value": res.p_value})
        except ZeroSignalError:
            records.append({**key, "zero_signal": True})
        except SpecbetaError as err:
            records.append({**key, "error": str(err)})
    return records


def hold_the_shuffle_worker(monkeypatch, steals=2, timeout=10.0):
    """Hold the worker in its first null block until the calling thread has drawn ``steals``.

    Returns the columns whose block the calling thread drew.
    """
    original = harness.run_rng
    caller = threading.get_ident()
    stolen, taken, released = [], threading.Event(), threading.Event()

    def rng(seed, column):
        if threading.get_ident() == caller:
            stolen.append(column)
            if len(stolen) >= steals:
                released.set()
        elif not taken.is_set():
            taken.set()
            if not released.wait(timeout):
                raise TimeoutError("the calling thread drew no null block")
        return original(seed, column)

    monkeypatch.setattr(harness, "run_rng", rng)
    return stolen


def outcome(records_of, config):
    """The study's records, or the message of the RuntimeError that aborted it."""
    try:
        return records_of(config)
    except RuntimeError as err:
        return str(err)


class TestStudyDriver:
    """The model and finish steps on the calling thread, the latent draw on a worker or on it."""

    @pytest.mark.parametrize("study", sorted(DRIVER_CONFIGS))
    def test_records_equal_a_serial_loop(self, study):
        config = DRIVER_CONFIGS[study]
        report = harness.run(config)
        assert stable_json(report["records"]) == stable_json(serial_study(config))

    def test_records_survive_fast_thread_switching(self):
        # a generator used by both threads at once would give other draws
        config = DRIVER_CONFIGS["rejections"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            records = [harness.run(config)["records"] for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert {stable_json(r) for r in records} == {stable_json(serial_study(config))}

    def test_traced_functions_stay_on_the_calling_thread(self, monkeypatch, shuffle_config):
        importlib.import_module("specbeta.cli")  # the tracer patches every traced module
        spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        threads = collections.defaultdict(set)

        def recorded(name, fn):
            def called(*args, **kwargs):
                threads[name].add(threading.get_ident())
                return fn(*args, **kwargs)

            return called

        class ThreadTracer(spans.Tracer):
            def wrap(self, name, fn, counter=None, amount=None):
                return recorded(name, super().wrap(name, fn, counter, amount))

        # the stacked fits: models and true betas, covariances, estimates
        kernels = {"genmodel._fitted_models": (genmodel, "_fitted_models"),
                   "spectral.covariance_from_moments": (harness, "covariance_from_moments"),
                   "estimator.estimate_confounding": (estimator, "estimate_confounding")}
        for name, (module, attr) in kernels.items():
            monkeypatch.setattr(module, attr, recorded(name, getattr(module, attr)))

        tracer = ThreadTracer()
        with tracer.installed():
            for config in (*DRIVER_CONFIGS.values(), shuffle_config):
                harness.run(config)
        assert {
            "harness.study", "harness.read_numeric_csv", "genmodel.sample_ground_truth",
            "cdtest.test_nonconfounding", "cdtest.null_samples_sphere", *kernels,
        } <= set(threads)
        assert {name: ids for name, ids in threads.items()
                if ids != {threading.get_ident()}} == {}

    def test_latent_step_runs_on_the_worker_or_the_calling_thread(self, monkeypatch):
        original, threads = genmodel._latent_moments, []

        def recorded(*args):
            threads.append(threading.current_thread())
            return original(*args)

        monkeypatch.setattr(genmodel, "_latent_moments", recorded)
        harness.run(DRIVER_CONFIGS["rejections"])
        assert len(threads) == 20
        workers = set(threads) - {threading.current_thread()}
        assert len(workers) == 1 and not workers.pop().is_alive()

    @pytest.mark.parametrize("study", sorted(DRIVER_CONFIGS))
    def test_records_equal_a_serial_loop_when_the_caller_steals(self, monkeypatch, study):
        config = DRIVER_CONFIGS[study]
        with monkeypatch.context() as m:
            stolen = hold_the_worker(m)
            records = harness.run(config)["records"]
        assert len(stolen) >= 2
        assert stable_json(records) == stable_json(serial_study(config))

    @pytest.mark.parametrize("failing", [{1}, {2, 3}, {1, 2, 7}, {0, 1, 2}])
    def test_stolen_failures_settle_in_run_order(self, monkeypatch, failing):
        # 20 runs, so the third failure aborts the study
        config = DRIVER_CONFIGS["rejections"]
        truths = [genmodel.sample_ground_truth(config.d, config.ell, run_rng(config.seed, i))
                  for i in range(config.runs)]
        failing_m00 = {truths[i].m[0, 0] for i in failing}
        original, failed_on = genmodel._latent_moments, []

        def fail_for_runs(truth, *args):
            if truth.m[0, 0] in failing_m00:
                failed_on.append(threading.get_ident())
                raise NumericError("injected")
            return original(truth, *args)

        monkeypatch.setattr(genmodel, "_latent_moments", fail_for_runs)
        expected = outcome(serial_study, config)
        failed_on.clear()
        with monkeypatch.context() as m:
            hold_the_worker(m)
            got = outcome(lambda c: run(c)["records"], config)
        assert stable_json(got) == stable_json(expected)
        assert threading.get_ident() in failed_on
        if len(failing) > 2:
            assert got == "3 of 20 planned runs failed (> 10%)"
        else:
            assert [r["run"] for r in got if "error" in r] == sorted(failing)

    @pytest.mark.parametrize("failing", [{1}, {2}, {1, 3}, {1, 2, 7}])
    def test_model_failures_among_stolen_runs(self, monkeypatch, failing):
        # a run whose model step fails queues no latent step: the calling
        # thread steals past it, and it still settles in run order
        config = DRIVER_CONFIGS["rejections"]
        with monkeypatch.context() as m:
            fail_on_calls(m, genmodel, "sample_ground_truth", failing)
            expected = outcome(serial_study, config)
        with monkeypatch.context() as m:
            fail_on_calls(m, genmodel, "sample_ground_truth", failing)
            stolen = hold_the_worker(m)
            got = outcome(lambda c: run(c)["records"], config)
        assert len(stolen) >= 2
        assert stable_json(got) == stable_json(expected)
        if len(failing) > 2:
            assert got == "3 of 20 planned runs failed (> 10%)"
        else:
            assert [r["run"] for r in got if "error" in r] == sorted(failing)

    @pytest.mark.parametrize("hold", [False, True])
    def test_overflowing_noise_leaves_an_error_record(self, monkeypatch, hold):
        # run 3 alone draws at a noise level whose variance overflows
        def model(rng, run):
            return genmodel.sample_ground_truth(3, 3, rng), 50, 1e200 if run == 3 else 1.0

        if hold:  # the calling thread draws runs 1 to 4
            hold_the_worker(monkeypatch, steals=4)
        config = ExperimentConfig(mode="simulate", d=3, n=50, runs=20, seed=0)
        keys = [{"run": i} for i in range(config.runs)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records, failures = harness._run_study(config, keys, model)
        assert failures == 1
        assert records[3] == {"run": 3, "error": "noise moments overflow at noise_sd=1e+200"}
        assert [r for r in records if "error" in r] == [records[3]]

    @pytest.mark.parametrize("error", [NumericError, ArithmeticError])
    def test_queued_steps_are_cancelled_when_a_study_ends_early(self, monkeypatch, error):
        # run 0 fails in its model step, so the study ends at once: 1 of 4 runs
        # aborts it, an ArithmeticError escapes.  The worker may be in run 1's
        # slow step by then; the steps queued behind it never run.
        config = ExperimentConfig(mode="simulate", d=3, n=300, runs=4, seed=0)
        fail_on_calls(monkeypatch, genmodel, "sample_ground_truth", {0}, error=error)
        original, steps = genmodel._latent_moments, []

        def slow(*args):
            steps.append(None)
            time.sleep(0.2)
            return original(*args)

        monkeypatch.setattr(genmodel, "_latent_moments", slow)
        before = set(threading.enumerate())
        with pytest.raises((RuntimeError, ArithmeticError), match="^(1 of 4 planned|injected)"):
            run(config)
        assert len(steps) <= 1
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("study", sorted(DRIVER_CONFIGS))
    @pytest.mark.parametrize("ending", ["returns", "aborts", "raises"])
    def test_no_thread_outlives_the_study(self, monkeypatch, study, ending):
        config = DRIVER_CONFIGS[study]
        before = set(threading.enumerate())
        if ending == "returns":
            harness.run(config)
        elif ending == "aborts":
            fail_on_calls(monkeypatch, cdtest, "test_nonconfounding", range(100))
            fail_on_calls(monkeypatch, estimator, "estimate_confounding", range(100))
            with pytest.raises(RuntimeError, match="planned runs failed"):
                harness.run(config)
        else:
            fail_on_calls(monkeypatch, genmodel, "_draw_sources", {2}, error=ArithmeticError)
            with pytest.raises(ArithmeticError, match="^injected$"):
                harness.run(config)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("failing", [{3}, {2, 5}, {2, 5, 9}, {0, 1, 19}])
    @pytest.mark.parametrize("step", ["model", "finish"])
    def test_failures_settle_in_run_order(self, monkeypatch, step, failing):
        # 20 runs, so the third failure aborts the study
        config = DRIVER_CONFIGS["rejections"]
        module, name = {
            "model": (genmodel, "sample_ground_truth"),
            "finish": (cdtest, "test_nonconfounding"),
        }[step]

        def injected(records_of):
            with monkeypatch.context() as m:
                fail_on_calls(m, module, name, failing)
                finished = fail_on_calls(m, cdtest, "test_nonconfounding", set())
                return outcome(records_of, config), len(finished)

        got, finished = injected(lambda c: run(c)["records"])
        assert stable_json((got, finished)) == stable_json(injected(serial_study))
        if len(failing) > 2:
            assert got == "3 of 20 planned runs failed (> 10%)"
        else:
            assert [r["run"] for r in got if "error" in r] == sorted(failing)
            assert len(got) == 20

    def test_shuffle_records_equal_a_serial_loop(self, shuffle_config):
        records = harness.run(shuffle_config)["records"]
        assert len(records) == 9 and all("p_value" in r for r in records)
        assert stable_json(records) == stable_json(serial_shuffle(shuffle_config))

    def test_shuffle_blocks_are_drawn_on_the_worker_or_the_calling_thread(
        self, monkeypatch, shuffle_config
    ):
        original, drawn = harness.run_rng, []

        def recorded(seed, column):
            drawn.append((column, threading.current_thread()))
            return original(seed, column)

        monkeypatch.setattr(harness, "run_rng", recorded)
        harness.run(shuffle_config)
        assert sorted(column for column, _ in drawn) == list(range(9))
        workers = {thread for _, thread in drawn} - {threading.current_thread()}
        assert len(workers) <= 1 and not any(w.is_alive() for w in workers)

    @pytest.mark.parametrize("steals", [2, 4])
    def test_shuffle_records_equal_a_serial_loop_when_the_caller_steals(
        self, monkeypatch, shuffle_config, steals
    ):
        expected = serial_shuffle(shuffle_config)
        with monkeypatch.context() as m:
            stolen = hold_the_shuffle_worker(m, steals)
            records = harness.run(shuffle_config)["records"]
        assert len(stolen) >= steals
        assert stable_json(records) == stable_json(expected)

    def test_shuffle_records_survive_fast_thread_switching(self, shuffle_config):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            records = [harness.run(shuffle_config)["records"] for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert {stable_json(r) for r in records} == {stable_json(serial_shuffle(shuffle_config))}

    @pytest.mark.parametrize("ending", ["returns", "flags", "raises in a fit", "raises in a draw"])
    def test_no_thread_outlives_shuffle_target(self, monkeypatch, tmp_path, shuffle_config, ending):
        before = set(threading.enumerate())
        if ending == "returns":
            harness.run(shuffle_config)
        elif ending == "flags":
            records, _ = shuffle_target_analysis(tmp_path, DUPLICATED, null_count=100)
            assert [list(r)[-1] for r in records] == ["p_value", "error", "error", "p_value"]
            records, _ = shuffle_target_analysis(tmp_path, TestShuffleTarget.ZERO_SIGNAL,
                                                 null_count=100)
            assert [list(r)[-1] for r in records] == ["zero_signal"] * 3
        else:
            if ending == "raises in a fit":
                # the stack of all 9 columns, then column 2 fitted alone
                fail_on_calls(monkeypatch, estimator, "estimate_confounding", {0, 3},
                              error=ArithmeticError)
            else:
                fail_on_calls(monkeypatch, harness, "run_rng", {3}, error=ArithmeticError)
            with pytest.raises(ArithmeticError, match="^injected$"):
                harness.run(shuffle_config)
        assert set(threading.enumerate()) == before


def stack_sizes(monkeypatch, runs=None):
    """Fit ``runs`` runs a stack (by default, as many as the driver picks);
    returns the list of the stack sizes fitted."""
    original, sizes = genmodel._fitted_models, []

    def recorded(m, *args):
        sizes.append(len(m))
        return original(m, *args)

    if runs is not None:
        monkeypatch.setattr(harness, "_stack_size", lambda d, ell: runs)
    monkeypatch.setattr(genmodel, "_fitted_models", recorded)
    return sizes


def edge_model(kinds):
    """A study model of d = 3, ell = 4: run i's model is made as ``kinds.get(i)`` names.

    "model" fails in the model step; "rank" zeroes a row of M, so sigma_xx is
    singular; "zero" zeroes a and c, so the target carries no signal;
    "overflow" scales M so that M C M' overflows.
    """
    def model(rng, run):
        truth = genmodel.sample_ground_truth(3, 4, rng)
        m, a, c = truth.m, truth.a, truth.c
        kind = kinds.get(run)
        if kind == "model":
            raise NumericError("injected")
        if kind == "rank":
            m = np.vstack([m[:2], np.zeros(4)])
        elif kind == "zero":
            a, c = np.zeros(3), np.zeros(4)
        elif kind == "overflow":
            m = 1e160 * m
        return genmodel.GroundTruth(m, a, c), 50, 0.0

    return model


def serial_records(config, keys, model):
    """``_run_study``'s result from a loop over the runs, each fitted alone by public calls."""
    records, failures = [], 0
    for key in keys:
        rng = run_rng(config.seed, *key.values())
        try:
            truth, n, noise_sd = model(rng, **key)
            cov, beta = genmodel.sample_covariance(truth, n, noise_sd, rng)
            records.append({**key, **serial_fit(config, rng, cov, beta)})
        except SpecbetaError as err:
            failures += 1
            if failures > 0.1 * len(keys):
                raise RuntimeError(f"{failures} of {len(keys)} planned runs failed (> 10%)")
            records.append({**key, "error": str(err)})
    return records, failures


class TestStacks:
    """Runs fitted as one stack give, bit for bit, the records of runs fitted alone."""

    @pytest.mark.parametrize("runs", [1, 3, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("study", sorted(DRIVER_CONFIGS))
    def test_a_stack_changes_no_bits(self, monkeypatch, study, seed, runs):
        config = dataclasses.replace(DRIVER_CONFIGS[study], seed=seed)
        expected = stable_json(serial_study(config))
        sizes = stack_sizes(monkeypatch, runs)
        records = harness.run(config)["records"]
        planned = len(records)
        assert sizes == [min(runs, planned - k) for k in range(0, planned, runs)]
        assert stable_json(records) == expected

    @pytest.mark.parametrize(("d", "ell", "runs"), [(10, 12, 16), (100, 110, 1), (3, 180, 1),
                                                    (3, 90, 4), (3, 3, 54), (1, 1, 163)])
    def test_a_stack_bounds_its_theta_grid_and_its_grams(self, d, ell, runs):
        assert harness._stack_size(d, ell) == runs
        # neither the runs' (201, d) theta grids nor their Grams outgrow the
        # bound, unless one run does alone
        per_run = max((estimator.GRID_POINTS + 1) * d, ell * ell)
        assert runs == 1 or runs * per_run <= harness.STACK_ELEMENTS < (runs + 1) * per_run

    def test_a_wide_latent_fits_its_runs_one_by_one(self, monkeypatch):
        # 180 x 180 Grams: one run a stack, where the theta grid alone would allow 54
        config = ExperimentConfig(mode="simulate", d=3, latent=180, n=200, runs=5, seed=2)
        expected = stable_json(serial_study(config))
        sizes = stack_sizes(monkeypatch)
        assert stable_json(harness.run(config)["records"]) == expected
        assert sizes == [1] * 5

    @pytest.mark.parametrize("runs", [1, 3, 64])
    @pytest.mark.parametrize("mode", ["simulate", "rejection_study"])
    def test_fit_time_failures_next_to_good_runs(self, monkeypatch, mode, runs):
        # 40 runs: four failures stay under the abort bound; a zero signal fails
        # the stacked estimate of a simulation, and the test of a rejection study
        kinds = {1: "rank", 2: "zero", 4: "overflow", 7: "model"}
        config = ExperimentConfig(mode=mode, d=3, latent=4, n=50, runs=40, seed=3,
                                  **({"null_count": 100} if mode == "rejection_study" else {}))
        keys = [{"run": i} for i in range(config.runs)]
        model = edge_model(kinds)
        expected = serial_records(config, keys, model)
        stack_sizes(monkeypatch, runs)
        got = harness._run_study(config, keys, model)
        assert stable_json(got) == stable_json(expected)
        errors = {r["run"]: r["error"] for r in got[0] if "error" in r}
        assert sorted(errors) == sorted(kinds) and got[1] == len(kinds)
        assert errors[1].startswith("smallest eigenvalue")
        assert errors[2] == "sigma_xy is zero; the target carries no signal"
        assert errors[4] == "second moments overflow: the data are too large in scale"

    @pytest.mark.parametrize("runs", [1, 3, 64])
    def test_abort_by_fit_time_and_model_step_failures(self, monkeypatch, runs):
        # 20 runs: the third failure, run 4's, aborts the study
        config = ExperimentConfig(mode="simulate", d=3, latent=4, n=50, runs=20, seed=3)
        keys = [{"run": i} for i in range(config.runs)]
        model = edge_model({1: "rank", 3: "model", 4: "zero", 6: "overflow"})
        with pytest.raises(RuntimeError) as serial:
            serial_records(config, keys, model)
        stack_sizes(monkeypatch, runs)
        with pytest.raises(RuntimeError) as stacked:
            harness._run_study(config, keys, model)
        assert str(stacked.value) == str(serial.value) == "3 of 20 planned runs failed (> 10%)"


# Column 3 repeats column 0, so the predictors of columns 1 and 2 are singular.
DUPLICATED = np.random.default_rng(4).standard_normal((300, 3))[:, [0, 1, 2, 0]]


def shuffle_target_analysis(tmp_path, matrix, **fields):
    """harness.shuffle_target_analysis of ``matrix``, written to a headerless CSV."""
    path = matrix_csv(tmp_path / "matrix.csv", matrix)
    np.testing.assert_array_equal(read_numeric_csv(path)[0], matrix)
    config = ExperimentConfig(mode="shuffle_target", input_path=path, **fields)
    return harness.shuffle_target_analysis(config)


class TestShuffleTarget:
    def test_exact_linear_column_scores_zero(self, tmp_path):
        g = np.random.default_rng(3)
        base = g.standard_normal((2000, 4))
        target = base @ np.array([1.0, -2.0, 0.5, 1.5])
        matrix = np.column_stack([base, target])
        records, _ = shuffle_target_analysis(tmp_path, matrix, seed=0, null_count=100)
        assert len(records) == 5
        assert records[4]["beta_hat"] == 0.0

    def test_requires_three_columns(self, tmp_path):
        with pytest.raises(DataError, match="^shuffle-target needs at least 3 columns$"):
            shuffle_target_analysis(tmp_path, np.ones((10, 2)))

    def test_zero_signal_flagged(self, tmp_path):
        records, _ = shuffle_target_analysis(tmp_path, self.ZERO_SIGNAL, null_count=100)
        assert all(rec.get("zero_signal") for rec in records)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_constant_column_is_a_data_error(self, tmp_path, normalize):
        # column 3 is a predictor of every other column's fit
        g = np.random.default_rng(4)
        matrix = np.column_stack([g.standard_normal((300, 3)), np.full(300, 0.1)])
        with pytest.raises(DataError, match="^column 'col3' has zero variance$"):
            shuffle_target_analysis(tmp_path, matrix, normalize=normalize, null_count=100)

    ZERO_SIGNAL = np.array(
        [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ]
    )

    @pytest.mark.parametrize("which", ["random", "zero_signal"])
    def test_joint_blocks_match_per_column_covariance(self, monkeypatch, tmp_path, which):
        scales = [1.0, 3.0, 0.2, 1.0, 8.0, 1.0]
        m = (
            np.random.default_rng(7).standard_normal((400, 6)) * scales
            if which == "random"
            else self.ZERO_SIGNAL
        )
        stacks = []

        def keep(*args):
            stacks.append(spectral.covariance_from_moments(*args))
            return stacks[-1]

        monkeypatch.setattr(harness, "covariance_from_moments", keep)
        shuffle_target_analysis(tmp_path, m, null_count=100)
        # every column fits in one stack; where it fails, each column is refitted alone
        first = stacks[0]
        assert len(first.n) == m.shape[1]
        for j in range(m.shape[1]):
            got = spectral._row(first, j)
            want = empirical_covariance(np.delete(m, j, 1), m[:, j])
            for a, b in ((sigma_xx(got), sigma_xx(want)), (got.sigma_xy, want.sigma_xy),
                         (got.eigenvalues, want.eigenvalues)):
                # 1e-12 relative to the largest entry
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b), initial=0.0)
            assert np.all(got.sigma_xy == 0.0) == np.all(want.sigma_xy == 0.0)
            assert (got.n, got.d) == (want.n, want.d)


class TestEmitReport:
    def _report(self, fmt="json"):
        cfg = ExperimentConfig(mode="simulate", d=3, n=300, runs=3, seed=4, fmt=fmt)
        return run(cfg)

    def test_json_round_trip(self, tmp_path):
        rep = self._report()
        out = tmp_path / "r.json"
        emit_report(rep, out)
        parsed = json.loads(out.read_text())
        assert parsed["records"] == rep["records"]
        assert parsed["summary"] == rep["summary"]

    def test_csv_line_count_and_sidecar(self, tmp_path):
        rep = self._report("csv")
        out = tmp_path / "r.csv"
        emit_report(rep, out)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + len(rep["records"])
        assert (tmp_path / "r.summary.csv").exists()

    def test_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(self._report(), out1)
        emit_report(self._report(), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_format(self, tmp_path):
        report = self._report()
        report["config"]["fmt"] = "xml"
        with pytest.raises(ValueError, match="^unknown format 'xml'$"):
            emit_report(report, tmp_path / "r.xml")
        assert not any(tmp_path.iterdir())

    def test_csv_needs_a_path(self, capsys):
        report = {"config": {"fmt": "csv"}, "records": [{"x": 1.5}], "summary": {"s": 2}}
        with pytest.raises(ValueError, match="csv format needs an output path"):
            emit_report(report)
        assert capsys.readouterr().out == ""

    def test_writes_the_format_its_echo_names(self, tmp_path, capsys):
        # a csv echo writes the records and the summary sidecar, and needs a path
        report = self._report("csv")
        emit_report(report, tmp_path / "r.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.summary.csv"]
        assert (tmp_path / "r.csv").read_text().splitlines()[0] == ",".join(report["records"][0])
        with pytest.raises(ValueError, match="^csv format needs an output path$"):
            emit_report(report)
        assert capsys.readouterr().out == ""


class TestStableJson:
    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_round_trip_exactly(self, x):
        assert float(json.loads(stable_json(x))) == x

    def test_non_finite_become_strings(self):
        assert stable_json(float("nan")) == '"nan"'
        assert stable_json(float("inf")) == '"inf"'

    def test_structures(self):
        s = stable_json({"a": [1, 2.5, True, None], "b": "x"})
        assert json.loads(s) == {"a": [1, 2.5, True, None], "b": "x"}
