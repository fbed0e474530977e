"""CSV ingestion, simulation studies and report emission."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specbeta import (
    BadDimensionsError,
    ConstantColumnError,
    DegenerateModelError,
    ExperimentConfig,
    MissingColumnError,
    NonNumericError,
    ParseError,
    Report,
    emit_report,
    ingest_csv,
    read_numeric_csv,
    run_overfit_study,
    run_rejection_study,
    run_simulation_study,
    shuffle_target_analysis,
)
from specbeta import genmodel
from specbeta.harness import run_rng, stable_json


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

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "")
        with pytest.raises(ParseError):
            read_numeric_csv(p)

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,b\n")
        with pytest.raises(ParseError):
            read_numeric_csv(p)

    def test_ragged_row_reports_position(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="row 3"):
            read_numeric_csv(p)

    def test_text_cell_reports_position(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "1,2\n3,oops\n")
        with pytest.raises(NonNumericError, match="row 2.*column 2"):
            read_numeric_csv(p)

    # rows are numbered by their line in the file, skipped blank lines included
    def test_text_cell_position_counts_blank_lines(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,b\n1,2\n\n\n3,x\n")
        with pytest.raises(NonNumericError, match="row 5, column 2"):
            read_numeric_csv(p)

    def test_ragged_row_position_counts_blank_lines(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "\na,b\n1,2\n\n3\n")
        with pytest.raises(ParseError, match="row 5 has 1 cells"):
            read_numeric_csv(p)


class TestIngestCsv:
    def test_target_by_name_preserves_order(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        data = ingest_csv(p, "y")
        assert data.d == 2
        assert data.column_names == ("a", "b")
        np.testing.assert_array_equal(data.y, [3, 6, 9])

    def test_target_by_index(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "1,2,3\n4,5,6\n")
        data = ingest_csv(p, 0)
        np.testing.assert_array_equal(data.y, [1, 4])
        np.testing.assert_array_equal(data.x[:, 0], [2, 5])

    def test_missing_name(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(MissingColumnError):
            ingest_csv(p, "zz")

    def test_index_out_of_range(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "1,2\n3,4\n")
        with pytest.raises(MissingColumnError):
            ingest_csv(p, 5)

    def test_normalize_unit_variance(self, tmp_path, rng):
        rows = rng.standard_normal((50, 3)) * np.array([1.0, 10.0, 0.1])
        body = "\n".join(",".join(f"{float(v)!r}" for v in row) for row in rows)
        p = write_csv(tmp_path / "f.csv", body + "\n")
        data = ingest_csv(p, 2, normalize=True)
        np.testing.assert_allclose(data.x.std(axis=0), 1.0, atol=1e-10)

    def test_normalize_constant_column(self, tmp_path):
        p = write_csv(tmp_path / "f.csv", "1,5,1\n2,5,0\n3,5,1\n")
        with pytest.raises(ConstantColumnError):
            ingest_csv(p, 2, normalize=True)


class TestExperimentConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="plot")

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=1.5)

    def test_rejects_latent_below_d_when_simulating(self):
        with pytest.raises(BadDimensionsError):
            ExperimentConfig(mode="simulate", d=5, latent=3)

    def test_latent_defaults_to_d(self):
        assert ExperimentConfig(d=7).ell == 7


class TestRunRng:
    def test_deterministic_per_index(self):
        a = run_rng(3, 5).standard_normal(4)
        b = run_rng(3, 5).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_indices_give_distinct_streams(self):
        a = run_rng(3, 5).standard_normal(4)
        b = run_rng(3, 6).standard_normal(4)
        assert not np.array_equal(a, b)


class TestStudies:
    def test_simulation_study_deterministic(self):
        cfg = ExperimentConfig(mode="simulate", d=4, n=400, runs=3, seed=8, null_count=100)
        r1 = run_simulation_study(cfg)
        r2 = run_simulation_study(cfg)
        assert r1.records == r2.records
        assert r1.summary == r2.summary
        assert len(r1.records) == 3

    def test_simulation_study_record_fields(self):
        cfg = ExperimentConfig(mode="simulate", d=3, n=300, runs=2, seed=1)
        rep = run_simulation_study(cfg)
        for rec in rep.records:
            assert {"run", "true_beta", "beta_hat", "theta_hat", "boundary"} <= set(rec)

    def test_rejection_study_nested_levels(self):
        cfg = ExperimentConfig(
            mode="rejection_study", d=4, n=500, runs=40, seed=2, null_count=200
        )
        rep = run_rejection_study(cfg)
        for b in rep.summary["bins"]:
            r10, r05 = b["rejection_at_0.10"], b["rejection_at_0.05"]
            if not (math.isnan(r10) or math.isnan(r05)):
                assert r10 >= r05
        assert len(rep.summary["bins"]) == 10

    def test_overfit_study_structure(self):
        cfg = ExperimentConfig(
            mode="overfit_study",
            d=4,
            runs=10,
            seed=3,
            null_count=100,
            sample_sizes=(20, 50),
        )
        rep = run_overfit_study(cfg)
        assert len(rep.records) == 20
        assert [e["n"] for e in rep.summary["per_sample_size"]] == [20, 50]
        for e in rep.summary["per_sample_size"]:
            assert sum(e["histogram"]) == e["count"] == 10

    def test_too_many_failures_abort(self):
        # n below d makes every run fail immediately
        cfg = ExperimentConfig(mode="simulate", d=5, n=3, runs=5, seed=0)
        with pytest.raises(RuntimeError):
            run_simulation_study(cfg)

    def test_early_failure_does_not_abort(self, monkeypatch):
        # the failure bound applies to the planned runs, not the runs so far
        original = genmodel.sample_ground_truth
        calls = []

        def fail_first(*args):
            calls.append(args)
            if len(calls) == 1:
                raise DegenerateModelError("injected")
            return original(*args)

        monkeypatch.setattr(genmodel, "sample_ground_truth", fail_first)
        cfg = ExperimentConfig(mode="simulate", d=3, n=300, runs=20, seed=0)
        rep = run_simulation_study(cfg)
        assert rep.summary["failures"] == 1
        assert len(rep.records) == 20
        assert [r for r in rep.records if "error" in r] == [{"run": 0, "error": "injected"}]


class TestShuffleTarget:
    def test_exact_linear_column_scores_zero(self):
        g = np.random.default_rng(3)
        base = g.standard_normal((2000, 4))
        target = base @ np.array([1.0, -2.0, 0.5, 1.5])
        matrix = np.column_stack([base, target])
        cfg = ExperimentConfig(mode="shuffle_target", seed=0, null_count=100)
        rep = shuffle_target_analysis(matrix, cfg)
        assert len(rep.records) == 5
        assert rep.records[4]["beta_hat"] == 0.0

    def test_requires_three_columns(self):
        cfg = ExperimentConfig(mode="shuffle_target")
        with pytest.raises(BadDimensionsError):
            shuffle_target_analysis(np.ones((10, 2)), cfg)

    def test_zero_signal_flagged(self):
        x = np.array(
            [
                [1.0, 1.0, 1.0],
                [1.0, -1.0, -1.0],
                [-1.0, 1.0, -1.0],
                [-1.0, -1.0, 1.0],
            ]
        )
        cfg = ExperimentConfig(mode="shuffle_target", null_count=100)
        rep = shuffle_target_analysis(x, cfg)
        assert all(rec.get("zero_signal") for rec in rep.records)

    def test_constant_column_flagged_as_zero_signal(self):
        g = np.random.default_rng(4)
        matrix = np.column_stack([g.standard_normal((300, 3)), np.full(300, 0.1)])
        cfg = ExperimentConfig(mode="shuffle_target", null_count=100)
        rep = shuffle_target_analysis(matrix, cfg)
        assert rep.records[3] == {"column": 3, "name": "col3", "zero_signal": True}


class TestEmitReport:
    def _report(self):
        cfg = ExperimentConfig(mode="simulate", d=3, n=300, runs=3, seed=4)
        return run_simulation_study(cfg)

    def test_json_round_trip(self, tmp_path):
        rep = self._report()
        out = tmp_path / "r.json"
        emit_report(rep, out, "json")
        parsed = json.loads(out.read_text())
        assert parsed["records"] == rep.records
        assert parsed["summary"] == rep.summary

    def test_csv_line_count_and_sidecar(self, tmp_path):
        rep = self._report()
        out = tmp_path / "r.csv"
        emit_report(rep, out, "csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + len(rep.records)
        assert (tmp_path / "r.summary.csv").exists()

    def test_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(self._report(), out1, "json")
        emit_report(self._report(), out2, "json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self._report(), tmp_path / "r.xml", "xml")


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
