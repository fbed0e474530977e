"""Experiment runner: CSV ingestion, simulation studies and report emission.

Every run inside a study gets its own generator seeded from the master seed
and the run index, so any single record can be regenerated in isolation and
a whole report is byte-identical across repeats.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from . import cdtest, estimator, genmodel
from .errors import (
    BadDimensionsError,
    ConstantColumnError,
    MissingColumnError,
    NonNumericError,
    ParseError,
    SpecbetaError,
    ZeroSignalError,
)
from .spectral import DataMatrix, empirical_covariance

MODES = (
    "estimate",
    "test",
    "simulate",
    "rejection_study",
    "overfit_study",
    "shuffle_target",
)

DEFAULT_SAMPLE_SIZES = (20, 100, 1000, 10000)
REJECTION_BINS = 10
# A study aborts once more than this fraction of its planned runs has failed.
MAX_FAILURE_FRACTION = 0.10


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a harness invocation."""

    mode: str = "simulate"
    d: int = 10
    latent: int | None = None  # defaults to d
    n: int = 10000
    runs: int = 1000
    seed: int = 0
    alpha: float = 0.05
    null_count: int = 1000
    normalize: bool = False
    method: str = cdtest.SPHERE_MONTE_CARLO
    noise_sd: float | None = None  # None: 0 for simulate, 1 for overfit
    sample_sizes: tuple[int, ...] = DEFAULT_SAMPLE_SIZES
    target: str | int | None = None
    input_path: str | None = None
    output_path: str | None = None
    fmt: str = "json"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.d < 1 or self.n < 1 or self.runs < 1:
            raise ValueError("counts must be positive")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.null_count < cdtest.MIN_NULL_COUNT:
            raise ValueError(f"null sample count must be >= {cdtest.MIN_NULL_COUNT}")
        if self.noise_sd is not None and self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        if self.mode == "simulate" and self.ell < self.d:
            raise BadDimensionsError("latent dimension must be >= d when simulating")

    @property
    def ell(self) -> int:
        return self.d if self.latent is None else self.latent


@dataclass
class Report:
    """Config echo, per-run records and summary statistics."""

    config: dict
    records: list[dict]
    summary: dict


def config_echo(config: ExperimentConfig) -> dict:
    """Config as a dict for report emission.

    The output path is dropped: where a report is written must not change
    its bytes.
    """
    d = asdict(config)
    d.pop("output_path")
    return d


def run_rng(master_seed: int, *index: int) -> np.random.Generator:
    """Independent, reproducible generator for one run of a study."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, *index)))
    )


# ---------------------------------------------------------------------------
# CSV ingestion


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_numeric_csv(path: str | Path) -> tuple[NDArray[np.float64], list[str]]:
    """Parse a numeric CSV with an optional, auto-detected single header row.

    A first row whose cells are not all numeric is taken as the header;
    otherwise columns are named col0, col1, ...

    Raises
    ------
    ParseError
        On an empty file or ragged rows (coordinates reported).
    NonNumericError
        On a non-numeric cell outside the header (location reported).
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        # (line in the file, cells); blank lines are skipped but still counted
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ParseError(f"{path}: empty file")
    ncols = len(rows[0][1])
    header: list[str] | None = None
    if not all(_is_number(cell) for cell in rows[0][1]):
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")
    data = np.empty((len(rows), ncols), dtype=np.float64)
    for i, (line, row) in enumerate(rows):
        if len(row) != ncols:
            raise ParseError(
                f"{path}: row {line} has {len(row)} cells, expected {ncols}"
            )
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise NonNumericError(
                    f"{path}: non-numeric cell {cell!r} at row {line}, "
                    f"column {j + 1}"
                ) from None
    names = header if header is not None else [f"col{j}" for j in range(ncols)]
    return data, names


def ingest_csv(
    path: str | Path,
    target_column: str | int,
    normalize: bool = False,
) -> DataMatrix:
    """Load a CSV and split off the designated target column.

    The remaining columns become the predictors in file order.  With
    ``normalize`` each predictor column is divided by its sample standard
    deviation (centering always happens downstream).

    Raises
    ------
    MissingColumnError
        If the target name or index does not exist.
    ConstantColumnError
        If ``normalize`` is set and a predictor column has zero variance.
    """
    data, names = read_numeric_csv(path)
    if isinstance(target_column, int):
        if not (0 <= target_column < len(names)):
            raise MissingColumnError(
                f"target index {target_column} out of range (have {len(names)} columns)"
            )
        idx = target_column
    else:
        try:
            idx = names.index(target_column)
        except ValueError:
            raise MissingColumnError(
                f"target column {target_column!r} not found in {names}"
            ) from None
    y = data[:, idx]
    x = np.delete(data, idx, axis=1)
    x_names = [nm for j, nm in enumerate(names) if j != idx]
    if normalize:
        x = normalize_columns(x, x_names)
    return DataMatrix(x=x, y=y, column_names=tuple(x_names))


def normalize_columns(x: NDArray[np.float64], names: list[str]) -> NDArray[np.float64]:
    """Scale each column to unit sample standard deviation."""
    sd = x.std(axis=0)
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        raise ConstantColumnError(
            f"column {names[zero[0]]!r} has zero variance; cannot normalize"
        )
    return x / sd


# ---------------------------------------------------------------------------
# Operations


def run(config: ExperimentConfig) -> Report:
    """Run the operation named by ``config.mode``."""
    if config.mode == "shuffle_target":
        matrix, names = read_numeric_csv(config.input_path)
        return shuffle_target_analysis(matrix, config, names)
    # Looked up per call, so wrappers installed on this module's names are honoured.
    operation = {
        "estimate": run_estimate,
        "test": run_test,
        "simulate": run_simulation_study,
        "rejection_study": run_rejection_study,
        "overfit_study": run_overfit_study,
    }[config.mode]
    return operation(config)


def run_estimate(config: ExperimentConfig) -> Report:
    """Estimate confounding strength of the CSV target named by ``config``."""
    cov = empirical_covariance(ingest_csv(config.input_path, config.target, config.normalize))
    est = estimator.estimate_confounding(cov)
    record = {
        "beta_hat": est.beta_hat,
        "theta_hat": est.theta_hat,
        "tau_inv": est.tau_inv,
        "boundary": est.boundary,
        "d": cov.d,
        "n": cov.n,
    }
    return Report(config_echo(config), [record], {"beta_hat": est.beta_hat})


def run_test(config: ExperimentConfig) -> Report:
    """Test the no-confounding null on the CSV target named by ``config``."""
    cov = empirical_covariance(ingest_csv(config.input_path, config.target, config.normalize))
    res = cdtest.test_nonconfounding(cov, config.null_count, config.method, config.seed)
    record = {
        "t_observed": res.t_observed,
        "p_value": res.p_value,
        "method": res.method,
        "null_count": res.null_count,
        "reject_at_alpha": res.p_value <= config.alpha,
    }
    return Report(config_echo(config), [record], {"p_value": res.p_value})


class _Study:
    """Records and failure count of a seeded study, filled one run at a time.

    Runs are ``with`` blocks rather than callbacks so that a run's arrays stay
    alive in the study's frame until the next run has allocated its own;
    freeing them first lets malloc trim the heap, and the next run then
    page-faults it back (measured ~8% slower at d=100).
    """

    def __init__(self, seed: int, planned: int) -> None:
        self.seed = seed
        self.planned = planned
        self.records: list[dict] = []
        self.failures = 0

    @contextmanager
    def run(self, **labels: int):
        """Yield the run's record, pre-filled with ``labels``, and its generator.

        The label values, in order, are the run's seed key.  A run that
        raises a ``SpecbetaError`` leaves an ``error`` record instead; the
        study aborts once more than MAX_FAILURE_FRACTION of the planned runs
        have failed.
        """
        record = dict(labels)
        try:
            yield record, run_rng(self.seed, *labels.values())
        except SpecbetaError as err:
            self.failures += 1
            record = {**labels, "error": str(err)}
            _check_failures(self.failures, self.planned)
        self.records.append(record)

    def ok(self) -> list[dict]:
        """Records of the runs that succeeded."""
        return [r for r in self.records if "error" not in r]


def run_simulation_study(config: ExperimentConfig) -> Report:
    """Draw random models, estimate beta on fresh samples, report (beta, beta_hat) pairs."""
    study = _Study(config.seed, config.runs)
    for i in range(config.runs):
        with study.run(run=i) as (record, rng):
            truth = genmodel.sample_ground_truth(config.d, config.ell, rng)
            ds = genmodel.generate_samples(
                truth, config.n, noise_sd=config.noise_sd or 0.0, rng=rng
            )
            est = estimator.estimate_confounding(empirical_covariance(ds.data))
            record.update(
                true_beta=ds.true_beta,
                beta_hat=est.beta_hat,
                theta_hat=est.theta_hat,
                boundary=est.boundary,
            )
    ok = study.ok()
    betas = np.array([r["true_beta"] for r in ok])
    bhats = np.array([r["beta_hat"] for r in ok])
    corr = float(np.corrcoef(betas, bhats)[0, 1]) if len(ok) >= 2 else float("nan")
    summary = {
        "runs": config.runs,
        "failures": study.failures,
        "pearson_correlation": corr,
        "mean_true_beta": float(betas.mean()) if len(ok) else float("nan"),
        "mean_beta_hat": float(bhats.mean()) if len(ok) else float("nan"),
    }
    return Report(config_echo(config), study.records, summary)


def run_rejection_study(config: ExperimentConfig) -> Report:
    """Per run: true beta and test p-value; summarize rejection fractions per beta bin."""
    study = _Study(config.seed, config.runs)
    for i in range(config.runs):
        with study.run(run=i) as (record, rng):
            truth = genmodel.sample_ground_truth(config.d, config.ell, rng)
            ds = genmodel.generate_samples(
                truth, config.n, noise_sd=config.noise_sd or 0.0, rng=rng
            )
            res = cdtest.test_nonconfounding(
                empirical_covariance(ds.data), config.null_count, config.method, rng
            )
            record.update(
                true_beta=ds.true_beta, t_observed=res.t_observed, p_value=res.p_value
            )
    ok = study.ok()
    betas = np.array([r["true_beta"] for r in ok])
    pvals = np.array([r["p_value"] for r in ok])
    bins = np.linspace(0.0, 1.0, REJECTION_BINS + 1)
    per_bin = []
    for k in range(REJECTION_BINS):
        mask = (betas >= bins[k]) & (
            (betas < bins[k + 1]) if k < REJECTION_BINS - 1 else (betas <= bins[k + 1])
        )
        per_bin.append(
            {
                "bin_low": float(bins[k]),
                "bin_high": float(bins[k + 1]),
                "count": int(mask.sum()),
                "rejection_at_0.10": float(np.mean(pvals[mask] <= 0.10))
                if mask.any()
                else float("nan"),
                "rejection_at_0.05": float(np.mean(pvals[mask] <= 0.05))
                if mask.any()
                else float("nan"),
            }
        )
    summary = {
        "runs": config.runs,
        "failures": study.failures,
        "bins": per_bin,
        "overall_rejection_at_alpha": float(np.mean(pvals <= config.alpha))
        if len(ok)
        else float("nan"),
        "alpha": config.alpha,
    }
    return Report(config_echo(config), study.records, summary)


def run_overfit_study(config: ExperimentConfig) -> Report:
    """Causal-only data at several sample sizes; histogram the test p-values.

    Small n makes the regression overfit and the test reject despite the
    absence of structural confounding.
    """
    noise_sd = 1.0 if config.noise_sd is None else config.noise_sd
    study = _Study(config.seed, config.runs * len(config.sample_sizes))
    for n in config.sample_sizes:
        for i in range(config.runs):
            with study.run(n=n, run=i) as (record, rng):
                ds = genmodel.causal_dataset(config.d, n, noise_sd=noise_sd, rng=rng)
                res = cdtest.test_nonconfounding(
                    empirical_covariance(ds.data), config.null_count, config.method, rng
                )
                record["p_value"] = res.p_value
    ok = study.ok()
    per_n = []
    edges = np.linspace(0.0, 1.0, 11)
    for n in config.sample_sizes:
        pv = np.array([r["p_value"] for r in ok if r["n"] == n])
        hist = np.histogram(pv, bins=edges)[0] if pv.size else np.zeros(10, dtype=int)
        per_n.append(
            {
                "n": n,
                "count": int(pv.size),
                "fraction_below_alpha": float(np.mean(pv <= config.alpha))
                if pv.size
                else float("nan"),
                "histogram": [int(h) for h in hist],
            }
        )
    summary = {
        "failures": study.failures,
        "alpha": config.alpha,
        "per_sample_size": per_n,
    }
    return Report(config_echo(config), study.records, summary)


def shuffle_target_analysis(
    matrix: NDArray[np.float64],
    config: ExperimentConfig,
    column_names: list[str] | None = None,
) -> Report:
    """Treat each column in turn as the target and estimate confounding strength.

    Emits one record per column, in column order, with the estimate and the
    non-confounding test p-value.  A vanishing cross-covariance is reported
    as a ``zero_signal`` flag rather than a number.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    ncols = matrix.shape[1]
    if ncols < 3:
        raise BadDimensionsError("shuffle-target needs at least 3 columns")
    names = column_names or [f"col{j}" for j in range(ncols)]
    if config.normalize:
        matrix = normalize_columns(matrix, names)
    records: list[dict] = []
    for j in range(ncols):
        rng = run_rng(config.seed, j)
        y = matrix[:, j]
        x = np.delete(matrix, j, axis=1)
        record: dict = {"column": j, "name": names[j]}
        try:
            cov = empirical_covariance(DataMatrix(x=x, y=y))
            est = estimator.estimate_confounding(cov)
            record.update(
                beta_hat=est.beta_hat,
                theta_hat=est.theta_hat,
                boundary=est.boundary,
            )
            res = cdtest.test_nonconfounding(cov, config.null_count, config.method, rng)
            record.update(t_observed=res.t_observed, p_value=res.p_value)
        except ZeroSignalError:
            record["zero_signal"] = True
        except SpecbetaError as err:
            record["error"] = str(err)
        records.append(record)
    ok = [r for r in records if "beta_hat" in r]
    summary = {
        "columns": ncols,
        "beta_hats": [r.get("beta_hat") for r in records],
        "estimated": len(ok),
    }
    return Report(config_echo(config), records, summary)


def _check_failures(failures: int, planned: int) -> None:
    if failures > MAX_FAILURE_FRACTION * planned:
        raise RuntimeError(
            f"{failures} of {planned} planned runs failed (> {MAX_FAILURE_FRACTION:.0%})"
        )


# ---------------------------------------------------------------------------
# Report emission


def emit_report(report: Report, path: str | Path | None = None, fmt: str = "json") -> None:
    """Write a report as JSON (single object) or CSV (+ summary sidecar).

    Without ``path`` the report goes to stdout, always as JSON.  Floats are
    serialized with 17 significant digits, so re-parsing reproduces them
    exactly and identical reports yield identical bytes.
    """
    payload = {
        "config": report.config,
        "records": report.records,
        "summary": report.summary,
    }
    if path is None:
        print(stable_json(payload))
    elif fmt == "json":
        Path(path).write_text(stable_json(payload) + "\n")
    elif fmt == "csv":
        path = Path(path)
        _write_records_csv(report.records, path)
        sidecar = path.with_name(
            path.stem + ".summary.csv" if path.suffix == ".csv" else path.name + ".summary.csv"
        )
        _write_summary_csv(report.summary, sidecar)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def stable_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{stable_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(stable_json(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x or x in (float("inf"), float("-inf")):
            return json.dumps(str(x))
        return format(x, ".17g")
    return json.dumps(obj)


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_records_csv(records: list[dict], path: Path) -> None:
    fields: list[str] = []
    for rec in records:
        for k in rec:
            if k not in fields:
                fields.append(k)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for rec in records:
            writer.writerow([_fmt_cell(rec[k]) if k in rec else "" for k in fields])


def _write_summary_csv(summary: dict, path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        for k, v in summary.items():
            if isinstance(v, (list, dict)):
                writer.writerow([k, stable_json(v)])
            else:
                writer.writerow([k, _fmt_cell(v)])
