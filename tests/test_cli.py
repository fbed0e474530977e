"""Command-line interface: subcommands, flags and exit codes."""

import json

import numpy as np
import pytest

from specbeta.cli import EXIT_USAGE, main


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

    def test_missing_column_is_data_error(self, capsys, linear_csv):
        code, _, err = run(capsys, ["estimate", "--input", linear_csv, "--target", "zz"])
        assert code == 2

    def test_non_numeric_is_data_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,y\n1,oops,3\n4,5,6\n")
        code, _, _ = run(capsys, ["estimate", "--input", str(p), "--target", "y"])
        assert code == 2

    def test_rank_deficiency_is_numeric_failure(self, capsys, tmp_path):
        g = np.random.default_rng(1)
        col = g.standard_normal(50)
        y = g.standard_normal(50)
        rows = ["a,b,y"] + [f"{float(a)!r},{float(a)!r},{float(t)!r}" for a, t in zip(col, y)]
        p = tmp_path / "dup.csv"
        p.write_text("\n".join(rows) + "\n")
        code, _, _ = run(capsys, ["estimate", "--input", str(p), "--target", "y"])
        assert code == 3


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
        ],
    )
    def test_invalid_flag_values(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "usage:" in capsys.readouterr().err


class TestTest:
    def test_success(self, capsys, linear_csv):
        code, out, _ = run(
            capsys,
            ["test", "--input", linear_csv, "--target", "y", "--null-samples", "200"],
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 < payload["summary"]["p_value"] <= 1.0

    def test_chi2_method(self, capsys, linear_csv):
        code, out, _ = run(
            capsys,
            [
                "test",
                "--input",
                linear_csv,
                "--target",
                "y",
                "--null-method",
                "chi2",
                "--null-samples",
                "200",
            ],
        )
        assert code == 0
        assert json.loads(out)["records"][0]["method"] == "mixed_chi2"


class TestSimulationCommands:
    def test_simulate(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--dim", "3", "--samples", "300", "--runs", "3", "--seed", "5"],
        )
        assert code == 0
        assert len(json.loads(out)["records"]) == 3

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
