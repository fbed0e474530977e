"""Experiment runner: CSV ingestion, simulation studies and report emission.

Every run inside a study gets its own generator seeded from the master seed
and the run index, so any single record can be regenerated in isolation and
a whole report is byte-identical across repeats.
"""

from __future__ import annotations

import csv
import itertools
import json
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field, fields
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
from .spectral import CovarianceModel, DataMatrix, covariance_from_moments, empirical_covariance

# Mode: (its operation in this module, the ExperimentConfig fields it reads).
# Every mode also reads output_path and fmt, which say where its report goes.
OPERATIONS: dict[str, tuple[str, tuple[str, ...]]] = {
    "estimate": ("run_estimate", ("input_path", "target", "normalize")),
    "test": ("run_test", ("input_path", "target", "normalize", "seed", "alpha", "null_count")),
    "simulate": ("run_simulation_study", ("d", "latent", "n", "runs", "noise_sd", "seed")),
    "rejection_study": ("run_rejection_study",
                        ("d", "latent", "n", "runs", "noise_sd", "seed", "alpha", "null_count")),
    "overfit_study": ("run_overfit_study",
                      ("d", "runs", "noise_sd", "sample_sizes", "seed", "alpha", "null_count")),
    "shuffle_target": ("run_shuffle_target", ("input_path", "normalize", "seed", "null_count")),
}

DEFAULT_SAMPLE_SIZES = (20, 100, 1000, 10000)
REJECTION_BINS = 10
# A study aborts once more than this fraction of its planned runs has failed.
MAX_FAILURE_FRACTION = 0.10


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of a harness invocation.

    A field that its mode does not read (see OPERATIONS) must keep its default.
    """

    mode: str = "simulate"
    d: int = 10
    latent: int | None = None  # defaults to d
    n: int = 10000
    runs: int = 1000
    seed: int = 0
    alpha: float = 0.05
    null_count: int = 1000
    normalize: bool = False
    # The one null of the test, echoed in every report; not settable.
    method: str = field(default=cdtest.SPHERE_MONTE_CARLO, init=False)
    noise_sd: float | None = None  # None: 0 for simulate, 1 for overfit
    sample_sizes: tuple[int, ...] = DEFAULT_SAMPLE_SIZES
    target: str | int | None = None
    input_path: str | None = None
    output_path: str | None = None
    fmt: str = "json"

    def __post_init__(self) -> None:
        if self.mode not in OPERATIONS:
            raise ValueError(f"unknown mode {self.mode!r}")
        read = {"mode", *OPERATIONS[self.mode][1], "output_path", "fmt"}
        for f in fields(self):
            if f.name not in read and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.mode} does not read {f.name}")
        if self.d < 1 or self.n < 1 or self.runs < 1:
            raise ValueError("counts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be in (0, 1)")
        if self.null_count < cdtest.MIN_NULL_COUNT:
            raise ValueError(f"null sample count must be >= {cdtest.MIN_NULL_COUNT}")
        if self.noise_sd is not None and not 0 <= self.noise_sd < np.inf:
            raise ValueError(f"noise_sd must be finite and nonnegative, got {self.noise_sd}")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.fmt == "csv" and self.output_path is None:
            raise ValueError("csv format needs an output path")
        if self.mode in ("estimate", "test") and None in (self.input_path, self.target):
            raise ValueError(f"{self.mode} needs an input path and a target column")
        if self.mode in ("simulate", "rejection_study"):
            if self.ell < self.d:
                raise BadDimensionsError("latent dimension must be >= d when simulating")
            if self.n <= self.d:
                raise ValueError(f"need samples > d, got n={self.n}, d={self.d}")
        if self.mode == "overfit_study":
            if any(n <= self.d for n in self.sample_sizes):
                raise ValueError(
                    f"need every sample size > d, got {self.sample_sizes}, d={self.d}"
                )
            if len(set(self.sample_sizes)) < len(self.sample_sizes):
                raise ValueError(f"sample sizes must be distinct, got {self.sample_sizes}")

    @property
    def ell(self) -> int:
        return self.d if self.latent is None else self.latent


@dataclass
class Report:
    """Config echo, per-run records and summary statistics."""

    config: dict
    records: list[dict]
    summary: dict


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
        On an empty file, ragged rows or a row the csv module cannot read,
        such as a cell over ``csv.field_size_limit()`` (coordinates reported).
    NonNumericError
        On a non-numeric cell outside the header (location reported).
    """
    path = Path(path)
    with path.open(newline="") as fh:
        lines = fh.readlines()
    rows = _csv_rows(path, lines)
    first = next(rows, None)
    if first is None:
        raise ParseError(f"{path}: empty file")
    ncols = len(first[1])
    if all(_is_number(cell) for cell in first[1]):
        names = [f"col{j}" for j in range(ncols)]
        rows = itertools.chain([first], rows)
        data = _loadtxt_rows(lines, ncols)
    else:
        names = [cell.strip() for cell in first[1]]
        data = _loadtxt_rows(lines[first[0]:], ncols)
    if data is None:
        data = _convert_rows(path, list(rows), ncols)
    return data, names


def _csv_rows(path: Path, lines: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line in the file, cells) of each row; blank lines are skipped but still counted."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as err:
        raise ParseError(f"{path}: row {reader.line_num}: {err}") from None


# ASCII separators that loadtxt strips as whitespace but float() rejects.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _loadtxt_rows(lines: list[str], ncols: int) -> NDArray[np.float64] | None:
    """The data lines parsed in C by np.loadtxt, or None to leave them to _convert_rows.

    The array is kept only where it must equal _convert_rows' result: one
    row of ``ncols`` cells per non-blank line.  Quoted cells, ``#``, ``1_0``
    and malformed rows make loadtxt raise, so the row loop gives their data
    or the error it reports.
    """
    lines = [line for line in lines if line.strip("\r\n")]
    text = "".join(lines)
    if not lines or any(c in text for c in _LOADTXT_ONLY_SPACE):
        return None
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape == (len(lines), ncols) else None


def _convert_rows(
    path: Path, rows: list[tuple[int, list[str]]], ncols: int
) -> NDArray[np.float64]:
    """Convert (line, cells) rows cell by cell, reporting the first bad one."""
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
    return data


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
    """Run the operation of ``config.mode`` and report its records and summary.

    The report's config echo leaves out the output path: where a report is
    written must not change its bytes.
    """
    # Looked up per call, so wrappers installed on this module's names are honoured.
    records, summary = globals()[OPERATIONS[config.mode][0]](config)
    echo = {key: value for key, value in asdict(config).items() if key != "output_path"}
    return Report(echo, records, summary)


def run_estimate(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Estimate confounding strength of the CSV target named by ``config``."""
    cov = empirical_covariance(ingest_csv(config.input_path, config.target, config.normalize))
    est = estimator.estimate_confounding(cov)
    record = {
        "beta_hat": est.beta_hat,
        "theta_hat": est.theta_hat,
        "tau_inv": cov.tau_inv,
        "boundary": est.boundary,
        "d": cov.d,
        "n": cov.n,
    }
    return [record], {"beta_hat": est.beta_hat}


def run_test(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Test the no-confounding null on the CSV target named by ``config``."""
    cov = empirical_covariance(ingest_csv(config.input_path, config.target, config.normalize))
    res = cdtest.test_nonconfounding(cov, config.null_count, config.seed)
    record = {
        "t_observed": res.t_observed,
        "p_value": res.p_value,
        "null_count": res.null_samples.size,
        "reject_at_alpha": res.p_value <= config.alpha,
    }
    return [record], {"p_value": res.p_value}


def _run_study(
    seed: int,
    keys: list[dict],
    model: Callable[..., tuple[genmodel.GroundTruth, int, float]],
    fit: Callable[[np.random.Generator, CovarianceModel, float], dict],
) -> tuple[list[dict], int]:
    """Records and failure count of a seeded study, one run per key, in order.

    A run's generator ``rng``, seeded from ``seed`` and the key's values in
    order, is continued by three steps, one after another:

    1. ``model(rng, **key)`` gives ``(truth, n, noise_sd)``;
    2. a worker thread draws the latent moments of
       ``genmodel.sample_covariance(truth, n, noise_sd, rng)``;
    3. the rest of ``sample_covariance`` gives ``(cov, beta)``, and the
       run's record is ``{**key, **fit(rng, cov, beta)}``.

    Steps 1 and 3 run on the calling thread.  The worker draws the next run
    while this thread finishes the current one, so at most one run is in
    flight.  Runs are settled in key order, which makes the result that of a
    serial loop: a run that raises a ``SpecbetaError`` in any step leaves an
    ``error`` record instead, the study aborts once more than
    MAX_FAILURE_FRACTION of the planned runs have failed, and any other
    exception propagates when its run is settled.
    """
    # Imported here, not at the top: it would add to the CLI's start-up time.
    from concurrent.futures import ThreadPoolExecutor

    records: list[dict] = []
    failures = 0
    # Leaving the block joins the worker.  A run started ahead of an abort or
    # an error is dropped unsettled, as a serial loop would not have reached it.
    with ThreadPoolExecutor(max_workers=1) as worker:

        def start(key: dict) -> tuple:
            """Step 1, then step 2 handed to the worker."""
            rng = run_rng(seed, *key.values())
            try:
                truth, n, noise_sd = model(rng, **key)
            except Exception as err:  # raised when this run is settled, after the earlier runs
                return key, rng, None, err
            latent = worker.submit(genmodel._latent_moments, truth, n, noise_sd, rng)
            return key, rng, truth, latent

        runs = map(start, keys)
        run = next(runs, None)
        while run is not None:
            key, rng, truth, latent = run
            run = next(runs, None)  # the worker draws it while this thread finishes `key`
            try:
                if truth is None:
                    raise latent
                cov, beta = genmodel._fitted_model(truth, *latent.result())
                records.append({**key, **fit(rng, cov, beta)})
            except SpecbetaError as err:
                failures += 1
                if failures > MAX_FAILURE_FRACTION * len(keys):
                    raise RuntimeError(
                        f"{failures} of {len(keys)} planned runs failed "
                        f"(> {MAX_FAILURE_FRACTION:.0%})"
                    )
                records.append({**key, "error": str(err)})
    return records, failures


def _source_mixing(config: ExperimentConfig) -> Callable[..., tuple]:
    """Model step of the simulate and rejection studies: a source-mixing model per run."""
    noise_sd = config.noise_sd or 0.0

    def model(rng: np.random.Generator, **_) -> tuple[genmodel.GroundTruth, int, float]:
        return genmodel.sample_ground_truth(config.d, config.ell, rng), config.n, noise_sd

    return model


def run_simulation_study(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Draw random models, estimate beta on fresh samples, report (beta, beta_hat) pairs."""

    def fit(rng: np.random.Generator, cov: CovarianceModel, beta: float) -> dict:
        est = estimator.estimate_confounding(cov)
        return {
            "true_beta": beta,
            "beta_hat": est.beta_hat,
            "theta_hat": est.theta_hat,
            "boundary": est.boundary,
        }

    records, failures = _run_study(
        config.seed, [{"run": i} for i in range(config.runs)], _source_mixing(config), fit
    )
    ok = [r for r in records if "error" not in r]
    betas = np.array([r["true_beta"] for r in ok])
    bhats = np.array([r["beta_hat"] for r in ok])
    # without spread in either array corrcoef divides 0 by 0, and numpy warns
    spread = len(ok) >= 2 and np.ptp(betas) > 0 and np.ptp(bhats) > 0
    corr = float(np.corrcoef(betas, bhats)[0, 1]) if spread else float("nan")
    summary = {
        "runs": config.runs,
        "failures": failures,
        "pearson_correlation": corr,
        "mean_true_beta": float(betas.mean()) if len(ok) else float("nan"),
        "mean_beta_hat": float(bhats.mean()) if len(ok) else float("nan"),
    }
    return records, summary


def run_rejection_study(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Per run: true beta and test p-value; summarize rejection fractions per beta bin."""

    def fit(rng: np.random.Generator, cov: CovarianceModel, beta: float) -> dict:
        res = cdtest.test_nonconfounding(cov, config.null_count, rng)
        return {"true_beta": beta, "t_observed": res.t_observed, "p_value": res.p_value}

    records, failures = _run_study(
        config.seed, [{"run": i} for i in range(config.runs)], _source_mixing(config), fit
    )
    ok = [r for r in records if "error" not in r]
    betas = np.array([r["true_beta"] for r in ok])
    pvals = np.array([r["p_value"] for r in ok])
    edges = np.linspace(0.0, 1.0, REJECTION_BINS + 1)
    count = np.histogram(betas, edges)[0]
    with np.errstate(invalid="ignore"):  # an empty bin's rate is 0/0 = NaN
        at_10 = np.histogram(betas[pvals <= 0.10], edges)[0] / count
        at_05 = np.histogram(betas[pvals <= 0.05], edges)[0] / count
    per_bin = [
        {
            "bin_low": float(edges[k]),
            "bin_high": float(edges[k + 1]),
            "count": int(count[k]),
            "rejection_at_0.10": float(at_10[k]),
            "rejection_at_0.05": float(at_05[k]),
        }
        for k in range(REJECTION_BINS)
    ]
    summary = {
        "runs": config.runs,
        "failures": failures,
        "bins": per_bin,
        "overall_rejection_at_alpha": float(np.mean(pvals <= config.alpha))
        if len(ok)
        else float("nan"),
        "alpha": config.alpha,
    }
    return records, summary


def run_overfit_study(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Causal-only data at several sample sizes; histogram the test p-values.

    Small n makes the regression overfit and the test reject despite the
    absence of structural confounding.
    """
    noise_sd = 1.0 if config.noise_sd is None else config.noise_sd

    def model(rng: np.random.Generator, n: int, **_) -> tuple[genmodel.GroundTruth, int, float]:
        return genmodel.sample_causal_truth(config.d, rng), n, noise_sd

    def fit(rng: np.random.Generator, cov: CovarianceModel, beta: float) -> dict:
        return {"p_value": cdtest.test_nonconfounding(cov, config.null_count, rng).p_value}

    keys = [{"n": n, "run": i} for n in config.sample_sizes for i in range(config.runs)]
    records, failures = _run_study(config.seed, keys, model, fit)
    ok = [r for r in records if "error" not in r]
    per_n = []
    edges = np.linspace(0.0, 1.0, 11)
    for n in config.sample_sizes:
        pv = np.array([r["p_value"] for r in ok if r["n"] == n])
        hist = np.histogram(pv, bins=edges)[0]
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
        "failures": failures,
        "alpha": config.alpha,
        "per_sample_size": per_n,
    }
    return records, summary


def run_shuffle_target(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """shuffle_target_analysis of the CSV named by ``config``."""
    if config.input_path is None:  # a config for shuffle_target_analysis alone has none
        raise ValueError("shuffle_target needs an input path")
    matrix, names = read_numeric_csv(config.input_path)
    return shuffle_target_analysis(matrix, config, names)


def shuffle_target_analysis(
    matrix: NDArray[np.float64],
    config: ExperimentConfig,
    column_names: list[str] | None = None,
) -> tuple[list[dict], dict]:
    """Treat each column in turn as the target and estimate confounding strength.

    Emits one record per column, in column order, with the estimate and the
    non-confounding test p-value.  A vanishing cross-covariance is reported
    as a ``zero_signal`` flag rather than a number.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n, ncols = matrix.shape
    if ncols < 3:
        raise BadDimensionsError("shuffle-target needs at least 3 columns")
    names = column_names or [f"col{j}" for j in range(ncols)]
    if config.normalize:
        matrix = normalize_columns(matrix, names)
    # DataMatrix's checks (n >= 2, finite cells) hold for every column once they
    # hold for one split, so they run once, before any column.
    DataMatrix(x=matrix[:, 1:], y=matrix[:, 0])
    # Each column's (sigma_xx, sigma_xy, sigma_yy) is a block of one covariance.
    centered = matrix - matrix.mean(axis=0)
    joint = (centered.T @ centered) / n
    records: list[dict] = []
    for j in range(ncols):
        rng = run_rng(config.seed, j)
        rest = np.delete(np.arange(ncols), j)
        record: dict = {"column": j, "name": names[j]}
        try:
            cov = covariance_from_moments(
                joint[np.ix_(rest, rest)], joint[rest, j], joint[j, j], n
            )
            est = estimator.estimate_confounding(cov)
            record.update(
                beta_hat=est.beta_hat,
                theta_hat=est.theta_hat,
                boundary=est.boundary,
            )
            res = cdtest.test_nonconfounding(cov, config.null_count, rng)
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
    return records, summary


# ---------------------------------------------------------------------------
# Report emission


def emit_report(report: Report, path: str | Path | None = None, fmt: str = "json") -> None:
    """Write a report as JSON (single object) or CSV (+ summary sidecar).

    Without ``path`` a JSON report goes to stdout; CSV needs a path.  Floats
    are serialized with 17 significant digits, so re-parsing reproduces them
    exactly and identical reports yield identical bytes.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    payload = {
        "config": report.config,
        "records": report.records,
        "summary": report.summary,
    }
    if path is None:
        if fmt == "csv":
            raise ValueError("csv format needs an output path")
        print(stable_json(payload))
    elif fmt == "json":
        Path(path).write_text(stable_json(payload) + "\n")
    else:
        path = Path(path)
        _write_records_csv(report.records, path)
        sidecar = path.with_name(
            path.stem + ".summary.csv" if path.suffix == ".csv" else path.name + ".summary.csv"
        )
        _write_summary_csv(report.summary, sidecar)


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
