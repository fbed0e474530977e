"""Experiment runner: CSV ingestion, simulation studies and report emission.

Every run inside a study gets its own generator seeded from the master seed
and the run index, so any single record can be regenerated in isolation and
a whole report is byte-identical across repeats.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import functools
import itertools
import json
import math
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from . import cdtest, estimator, genmodel
from .errors import DataError, SpecbetaError, ZeroSignalError
from .spectral import CovarianceModel, _from_moments, _row, _stacked, covariance_from_moments

# Mode: (its operation in this module, the ExperimentConfig fields it reads,
# the fields fit_record gives each of its records, in report order).  Every
# mode also reads fmt, the format its report is written in.
OPERATIONS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "estimate": ("fit_csv_target", ("input_path", "target", "normalize"),
                 ("beta_hat", "theta_hat", "tau_inv", "boundary", "d", "n")),
    "test": ("fit_csv_target", ("input_path", "target", "normalize", "seed", "alpha", "null_count"),
             ("t_observed", "p_value", "null_count", "reject_at_alpha")),
    "simulate": ("run_simulation_study", ("d", "latent", "n", "runs", "noise_sd", "seed"),
                 ("true_beta", "beta_hat", "theta_hat", "boundary")),
    "rejection_study": ("run_rejection_study",
                        ("d", "latent", "n", "runs", "noise_sd", "seed", "alpha", "null_count"),
                        ("true_beta", "t_observed", "p_value")),
    "overfit_study": ("run_overfit_study",
                      ("d", "runs", "noise_sd", "sample_sizes", "seed", "alpha", "null_count"),
                      ("p_value",)),
    "shuffle_target": ("shuffle_target_analysis",
                       ("input_path", "normalize", "seed", "null_count"),
                       ("beta_hat", "theta_hat", "boundary", "t_observed", "p_value")),
}

DEFAULT_SAMPLE_SIZES = (20, 100, 1000, 10000)
REJECTION_BINS = 10
# A study aborts once more than this fraction of its planned runs has failed.
MAX_FAILURE_FRACTION = 0.10
# Runs, or shuffle-target columns, fitted as one stack: as many as keep each
# stacked array within STACK_ELEMENTS, the largest being the (runs, theta
# grid, d) scan or the runs' ell x ell latent Grams.  A stack saves per-call
# overhead, which matters only at small d: 16 runs at d = 10, 3 at d = 50,
# 1 at d = 100 or at ell >= 129.  Larger stacks at large d measured slower
# (the calling thread's fits come in blocks the worker cannot keep up with)
# and held 4 MiB more.
STACK_ELEMENTS = 2**15


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
    fmt: str = "json"

    def __post_init__(self) -> None:
        if self.mode not in OPERATIONS:
            raise ValueError(f"unknown mode {self.mode!r}")
        read = {"mode", *OPERATIONS[self.mode][1], "fmt"}
        for f in fields(self):
            if f.name not in read and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.mode} does not read {f.name}")
        if self.d < 1 or self.n < 1 or self.runs < 1:
            raise ValueError("counts must be positive")
        # one predictor's direction is a sign: no orientation to Sigma_XX to measure
        if self.d < 2:
            raise ValueError(f"need d >= 2 predictors, got d={self.d}")
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
        reads = OPERATIONS[self.mode][1]
        for name, what in (("input_path", "an input path"), ("target", "a target column")):
            if name in reads and getattr(self, name) is None:
                raise ValueError(f"{self.mode} needs {what}")
        if "latent" in reads and self.ell < self.d:
            raise ValueError("latent dimension must be >= d when simulating")
        if "n" in reads and self.n <= self.d:
            raise ValueError(f"need samples > d, got n={self.n}, d={self.d}")
        if "sample_sizes" in reads:
            if any(n <= self.d for n in self.sample_sizes):
                raise ValueError(
                    f"need every sample size > d, got {self.sample_sizes}, d={self.d}"
                )
            if len(set(self.sample_sizes)) < len(self.sample_sizes):
                raise ValueError(f"sample sizes must be distinct, got {self.sample_sizes}")

    @property
    def ell(self) -> int:
        return self.d if self.latent is None else self.latent


def run_rng(master_seed: int, *index: int) -> np.random.Generator:
    """Independent, reproducible generator for one run of an operation.

    A study's run is keyed by its index values; a single test has none.
    """
    return np.random.default_rng((master_seed, *index))


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
    otherwise columns are named col0, col1, ...  Of several bad cells or
    rows, the first in file order is reported.

    Raises
    ------
    DataError
        On an empty file, ragged rows, non-UTF-8 bytes or a row the csv module cannot read,
        such as a cell over ``csv.field_size_limit()`` (coordinates reported); on a
        non-numeric cell outside the header, or a NaN or infinite cell, such as ``nan``
        or ``1e999`` (location reported).
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
            row = next((n for n, s in enumerate(fh, 1) if re.search("[\udc80-\udcff]", s)), "?")
        raise DataError(f"{path}: row {row}: not UTF-8 ({err.reason})") from None
    rows = _csv_rows(path, lines)
    first = next(rows, None)
    if first is None:
        raise DataError(f"{path}: empty file")
    ncols = len(first[1])
    if all(_is_number(cell) for cell in first[1]):
        names = [f"col{j}" for j in range(ncols)]
        rows = itertools.chain([first], rows)
        data = _loadtxt_rows(lines, ncols)
    else:
        names = [cell.strip() for cell in first[1]]
        data = _loadtxt_rows(lines[first[0]:], ncols)
    if data is None or not np.isfinite(data).all():
        data = _convert_rows(path, rows, ncols)
    return data, names


def _csv_rows(path: Path, lines: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line in the file, cells) of each row; blank lines are skipped but still counted."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as err:
        raise DataError(f"{path}: row {reader.line_num}: {err}") from None


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
    path: Path, rows: Iterable[tuple[int, list[str]]], ncols: int
) -> NDArray[np.float64]:
    """Convert (line, cells) rows cell by cell, reporting the first bad one in file order."""
    data = []
    for line, row in rows:
        if len(row) != ncols:
            raise DataError(f"{path}: row {line} has {len(row)} cells, expected {ncols}")
        values = []
        for j, cell in enumerate(row):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell {cell!r} at row {line}, column {j + 1}"
                ) from None
            if not math.isfinite(values[-1]):
                raise DataError(
                    f"{path}: non-finite entries in data: {cell!r} at row {line}, column {j + 1}"
                )
        data.append(values)
    if not data:
        raise DataError(f"{path}: header but no data rows")
    return np.array(data, dtype=np.float64)


def _csv_covariance(
    config: ExperimentConfig,
) -> tuple[NDArray[np.float64], int, list[str], int | None]:
    """``(joint, n, names, target)``: the 1/n centered covariance of the CSV's columns.

    ``target`` indexes ``config.target``, or is None for shuffle-target.  The
    predictors, the columns some fit reads as predictors, are every column
    but the target (for shuffle-target, every column).  A constant predictor
    is a data error, and ``normalize`` scales the predictors in a row-major
    copy, since a copy's memory layout moves the last bits.  Of several
    faults the first is raised: the file's, the target's, fewer than 3
    columns (a target and d >= 2 predictors), n < 2, then a constant
    predictor.  A constant target is left to its fit, which finds no signal.
    """
    matrix, names = read_numeric_csv(config.input_path)
    n, ncols = matrix.shape
    target = None if config.target is None else _target_index(config.target, names)
    if ncols < 3:
        raise DataError(f"{config.mode.replace('_', '-')} needs at least 3 columns")
    if n < 2:
        raise DataError(f"need n >= 2 rows, got n={n}")
    predictors = [j for j in range(ncols) if j != target]
    # all cells equal, though the rounded mean may leave a standard deviation above 0
    spread = np.ptp(matrix, axis=0)
    constant = [names[j] for j in predictors if spread[j] == 0.0]
    if constant:
        raise DataError(f"column {constant[0]!r} has zero variance")
    if config.normalize:
        matrix[:, predictors] = normalize_columns(np.ascontiguousarray(matrix[:, predictors]))
    with np.errstate(over="ignore", invalid="ignore"):  # checked by covariance_from_moments
        centered = matrix - matrix.mean(axis=0)
        joint = (centered.T @ centered) / n
    return joint, n, names, target


def parse_target(text: str) -> str | int:
    """The column index ``text`` reads as, as ``int`` reads it, or else ``text`` as a name."""
    try:
        return int(text)
    except ValueError:
        return text


def _target_index(target: str | int, names: list[str]) -> int:
    """The column ``target`` names: an index, or else a name that exactly one column has.

    An index that another column's name also reads as (``02`` for 2) is ambiguous.
    """
    reads = [parse_target(name) if isinstance(target, int) else name for name in names]
    matches = [j for j, read in enumerate(reads) if read == target]
    if isinstance(target, int):
        if not (0 <= target < len(names)):
            raise DataError(f"target index {target} out of range (have {len(names)} columns)")
        if set(matches) - {target}:
            raise DataError(f"target {target} is ambiguous: the index of column {target} "
                            f"and the name of columns {matches} (zero-based)")
        return target
    if not matches:
        raise DataError(f"target column {target!r} not found in {names}")
    if len(matches) > 1:
        raise DataError(f"target name {target!r} matches columns {matches} (zero-based)")
    return matches[0]


def _column_moments(joint: NDArray[np.float64], j: int) -> tuple[NDArray[np.float64], ...]:
    """(sigma_xx, sigma_xy, sigma_yy) of column j as the target of the others, from ``joint``."""
    rest = np.delete(np.arange(len(joint)), j)
    return joint[np.ix_(rest, rest)], joint[rest, j], joint[j, j]


def normalize_columns(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """Scale each column, none of them constant, to unit sample standard deviation.

    Each column is first divided by the power of two that brings its largest
    magnitude into [0.5, 1), which is exact, so the squares in ``std``
    neither overflow nor underflow at any finite scale.
    """
    x = np.ldexp(x, -np.frexp(np.abs(x).max(axis=0))[1])
    return x / x.std(axis=0)


# ---------------------------------------------------------------------------
# Operations


def run(config: ExperimentConfig) -> dict:
    """The report of ``config``'s operation: ``{"config", "records", "summary"}``, in order."""
    # Looked up per call, so wrappers installed on this module's names are honoured.
    records, summary = globals()[OPERATIONS[config.mode][0]](config)
    return {"config": asdict(config), "records": records, "summary": summary}


def fit_record(config: ExperimentConfig, normals: Callable[..., NDArray[np.float64]],
               cov: CovarianceModel, true_beta: float | None = None) -> dict:
    """The record fields OPERATIONS lists for ``config.mode``, in order, of one fit.

    The estimate runs where the record holds beta_hat, then the test where
    it holds p_value, on ``normals((null_count, d))``, a block of standard
    normals: a run generator's ``standard_normal``, or a block drawn ahead.
    ``true_beta`` is the known strength of a study's model.  It is the
    one-fit call of ``_fit_records``, which fits a stack.
    """
    return _fit_records(config, _stacked(cov), [true_beta])[0](normals)


def _fit_records(config: ExperimentConfig, cov: CovarianceModel,
                 true_betas: list[float | None]) -> list[Callable[..., dict]]:
    """``fit_record`` of each model of a stack, as a function of its ``normals``.

    The estimates of the whole stack are made here, and it raises if any
    model's does.  A model's test runs, and draws its normals, only when its
    function is called, so a study draws each run's null block in run order.
    """
    names = OPERATIONS[config.mode][2]
    columns = {"true_beta": true_betas, "tau_inv": cov.tau_inv.tolist(), "n": cov.n.tolist()}
    if "beta_hat" in names:
        theta_hat, beta_hat, _, boundary = estimator._confounding_estimates(cov)
        columns.update(beta_hat=beta_hat.tolist(), theta_hat=theta_hat.tolist(),
                       boundary=boundary.tolist())

    def record(i: int, normals: Callable[..., NDArray[np.float64]]) -> dict:
        values = {key: column[i] for key, column in columns.items()}
        values.update(d=cov.d, null_count=config.null_count)
        if "p_value" in names:
            res = cdtest.test_nonconfounding(_row(cov, i),
                                             normals((config.null_count, cov.d)))
            values.update(t_observed=res.t_observed, p_value=res.p_value,
                          reject_at_alpha=res.p_value <= config.alpha)
        return {name: values[name] for name in names}

    return [functools.partial(record, i) for i in range(len(true_betas))]


def _stack_size(d: int, ell: int) -> int:
    """How many fits of d predictors, each from an ell x ell Gram, make one stack."""
    return max(1, STACK_ELEMENTS // max((estimator.GRID_POINTS + 1) * d, ell * ell))


def _stacked_fits(fit: Callable[[list], list[Callable]], rows: list) -> list[Callable]:
    """``fit(rows)``, a function per row; where that raises, each row fitted alone.

    A row that raises alone gives a function that raises its error, so each
    error surfaces when its row is settled, as in a loop over the rows.
    """
    if not rows:
        return []
    try:
        return fit(rows)
    except Exception as err:  # a row's own error is raised when the row settles
        if len(rows) > 1:
            return [fitted for row in rows for fitted in _stacked_fits(fit, [row])]
        error = err

        def raised(*_):
            raise error

        return [raised]


def fit_csv_target(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Fit the CSV target named by ``config``: its estimate or its test, by mode."""
    joint, n, _, target = _csv_covariance(config)
    cov = covariance_from_moments(*_column_moments(joint, target), n)
    record = fit_record(config, run_rng(config.seed).standard_normal, cov)
    return [record], {key: record[key] for key in ("beta_hat", "p_value") if key in record}


# Keys the driver starts ahead of the one it settles: enough that the calling
# thread finds queued draws to take (4 and 10 measured the same), few enough
# that a long study holds little memory in flight.
LOOKAHEAD = 4


def _drawn_ahead(
    keys: Iterable, start: Callable[..., tuple], draw: Callable
) -> Iterator[tuple[object, Callable[[], tuple], Callable[[], object]]]:
    """``(key, started, drawn)`` for each key in order, its draw made ahead on a worker.

    ``started()`` gives ``start(key)``, called on the calling thread when the
    key is started, up to LOOKAHEAD keys ahead of the one yielded.
    ``drawn()`` gives ``draw(*started())``, queued on one worker thread when
    the key is started.  Each raises what its call raised, and ``drawn()``
    raises what ``start`` raised.  While the draw ``drawn()`` asks for is not
    done, the calling thread cancels the next draw the worker has not
    started, in key order, and makes it itself, so each draw runs on one
    thread, after its start.

    Close the generator (``contextlib.closing``) where its caller stops early:
    the draws started ahead are then dropped, those the worker has not
    begun are cancelled, and the worker is joined.
    """
    # Imported here, not at the top: it would add to the CLI's start-up time.
    from concurrent.futures import Future, ThreadPoolExecutor

    def called(fn: Callable, /, *args) -> Future:
        """A future of ``fn(*args)``, called on this thread."""
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as err:  # raised by result(), when its key is settled
            future.set_exception(err)
        return future

    worker = ThreadPoolExecutor(max_workers=1)

    def begin(key) -> list:
        started = called(start, key)
        if started.exception():
            return [key, started, started]
        return [key, started, worker.submit(draw, *started.result())]

    try:
        todo = iter(keys)
        ahead = collections.deque(map(begin, itertools.islice(todo, LOOKAHEAD)))
        while ahead:
            settling = ahead.popleft()
            ahead.extend(map(begin, itertools.islice(todo, 1)))

            def drawn(settling=settling) -> object:
                for queued in (settling, *ahead):
                    if settling[2].done():
                        break
                    if queued[2].cancel():  # only a draw the worker has not started
                        queued[2] = called(draw, *queued[1].result())
                return settling[2].result()

            yield settling[0], settling[1].result, drawn
    finally:
        worker.shutdown(cancel_futures=True)


def _run_study(
    config: ExperimentConfig,
    keys: list[dict],
    model: Callable[..., tuple[genmodel.GroundTruth, int, float]],
) -> tuple[list[dict], int]:
    """Records and failure count of ``config``'s seeded study, one run per key, in order.

    A run's generator ``rng``, seeded from ``config.seed`` and the key's
    values in order, is continued by three steps, one after another:

    1. ``model(rng, **key)`` gives ``(truth, n, noise_sd)``;
    2. the latent moments of ``genmodel.sample_covariance(truth, n,
       noise_sd, rng)`` are drawn;
    3. the rest of ``sample_covariance`` gives ``(cov, beta)``, and the
       run's record is ``{**key, **fit_record(config, rng.standard_normal,
       cov, beta)}``.

    Steps 1 and 3 run on the calling thread; ``_drawn_ahead`` starts runs
    with step 1 and makes their step 2 on its worker, or on the calling
    thread when the run to settle is not drawn yet.  Step 3 fits the runs
    drawn since the last stack as one stack, once ``_stack_size`` of them
    are drawn, before a run whose step 1 or 2 fails, and at the end; where
    the stack raises, its runs are fitted one by one.  Each record is, bit
    for bit, that of the run fitted alone.  Runs settle in key order, so the
    result is a serial loop's: a ``SpecbetaError`` in any step of a run
    leaves an ``error`` record, the study aborts once more than
    MAX_FAILURE_FRACTION of the planned runs have failed, and any other
    exception propagates when its run is settled.
    """
    records: list[dict] = []
    failures = 0
    stack: list[tuple] = []  # (key, rng, truth, moments) of the runs drawn since the last fit

    def start(key: dict) -> tuple:
        rng = run_rng(config.seed, *key.values())
        return (*model(rng, **key), rng)

    def fit(runs: list[tuple]) -> list[Callable]:
        cov, betas = genmodel._fitted_models(*zip(*runs))
        return _fit_records(config, cov, betas.tolist())

    def failed(key: dict, err: SpecbetaError) -> None:
        nonlocal failures
        failures += 1
        if failures > MAX_FAILURE_FRACTION * len(keys):
            raise RuntimeError(
                f"{failures} of {len(keys)} planned runs failed "
                f"(> {MAX_FAILURE_FRACTION:.0%})"
            )
        records.append({**key, "error": str(err)})

    def settle_stack() -> None:
        fits = _stacked_fits(fit, [(truth, moments) for _, _, truth, moments in stack])
        for (key, rng, *_), fitted in zip(stack, fits):
            try:
                records.append({**key, **fitted(rng.standard_normal)})
            except SpecbetaError as err:
                failed(key, err)
        stack.clear()

    # A run started ahead of an abort or an error is dropped unsettled, as a
    # serial loop would not have reached it.
    with contextlib.closing(_drawn_ahead(keys, start, genmodel._latent_moments)) as runs:
        for key, started, drawn in runs:
            try:
                truth, *_, rng = started()
                stack.append((key, rng, truth, drawn()))
            except SpecbetaError as err:
                settle_stack()
                failed(key, err)
            except Exception:
                settle_stack()
                raise
            if len(stack) == _stack_size(config.d, config.ell):
                settle_stack()
        settle_stack()
    return records, failures


def _source_mixing_study(config: ExperimentConfig) -> tuple[list[dict], int]:
    """(records, failures) of a simulate or rejection study: a source-mixing model per run."""
    noise_sd = config.noise_sd or 0.0

    def model(rng: np.random.Generator, **_) -> tuple[genmodel.GroundTruth, int, float]:
        return genmodel.sample_ground_truth(config.d, config.ell, rng), config.n, noise_sd

    keys = [{"run": i} for i in range(config.runs)]
    return _run_study(config, keys, model)


def run_simulation_study(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Draw random models, estimate beta on fresh samples, report (beta, beta_hat) pairs."""
    records, failures = _source_mixing_study(config)
    ok = [r for r in records if "error" not in r]  # never empty: _run_study aborts first
    betas = np.array([r["true_beta"] for r in ok])
    bhats = np.array([r["beta_hat"] for r in ok])
    # without spread in either array corrcoef divides 0 by 0, and numpy warns
    spread = len(ok) >= 2 and np.ptp(betas) > 0 and np.ptp(bhats) > 0
    corr = float(np.corrcoef(betas, bhats)[0, 1]) if spread else float("nan")
    summary = {
        "runs": config.runs,
        "failures": failures,
        "pearson_correlation": corr,
        "mean_true_beta": float(betas.mean()),
        "mean_beta_hat": float(bhats.mean()),
    }
    return records, summary


def run_rejection_study(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Per run: true beta and test p-value; summarize rejection fractions per beta bin."""
    records, failures = _source_mixing_study(config)
    ok = [r for r in records if "error" not in r]  # never empty: _run_study aborts first
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
        "overall_rejection_at_alpha": float(np.mean(pvals <= config.alpha)),
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

    keys = [{"n": n, "run": i} for n in config.sample_sizes for i in range(config.runs)]
    records, failures = _run_study(config, keys, model)
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


def shuffle_target_analysis(config: ExperimentConfig) -> tuple[list[dict], dict]:
    """Each column of the input CSV in turn as the target: one record per column, in order.

    A record holds the estimate and the test, or a ``zero_signal`` flag where
    the cross-covariance vanishes.  The columns are fitted in stacks of
    ``_stack_size``, each when its first column settles.  Column j's null
    block, ``run_rng(seed, j).standard_normal((null_count, d))``, reads no
    data, so ``_drawn_ahead`` draws it on its worker while the calling
    thread fits the columns before it.
    """
    joint, n, names, _ = _csv_covariance(config)
    ncols = len(names)

    def null_block(j: int) -> NDArray[np.float64]:
        return run_rng(config.seed, j).standard_normal((config.null_count, ncols - 1))

    def fit(targets: list[int]) -> list[Callable]:
        moments = [np.stack(m) for m in zip(*(_column_moments(joint, j) for j in targets))]
        cov = _from_moments(*moments, np.full(len(targets), n))
        return _fit_records(config, cov, [None] * len(targets))

    records: list[dict] = []
    size = _stack_size(ncols - 1, ncols - 1)  # its d x d covariances take the Grams' place
    with contextlib.closing(_drawn_ahead(range(ncols), lambda j: (j,), null_block)) as columns:
        for j, _, block in columns:
            if j % size == 0:  # the stack of columns j, j + 1, ...; it draws nothing
                fits = _stacked_fits(fit, list(range(j, min(j + size, ncols))))
            key = {"column": j, "name": names[j]}
            try:
                records.append({**key, **fits[j % size](lambda shape: block())})
            except ZeroSignalError:
                records.append({**key, "zero_signal": True})
            except SpecbetaError as err:
                records.append({**key, "error": str(err)})
    ok = [r for r in records if "beta_hat" in r]
    summary = {
        "columns": ncols,
        "beta_hats": [r.get("beta_hat") for r in records],
        "estimated": len(ok),
    }
    return records, summary


# ---------------------------------------------------------------------------
# Report emission


def emit_report(report: dict, path: str | Path | None = None) -> None:
    """Write ``run``'s report as JSON (single object) or CSV (+ summary sidecar).

    The format is the one its config echo names.  Without ``path`` a JSON
    report goes to stdout; CSV needs a path.  Floats are serialized with 17
    significant digits, so re-parsing reproduces them exactly and identical
    reports yield identical bytes.
    """
    fmt = report["config"]["fmt"]
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        if fmt == "csv":
            raise ValueError("csv format needs an output path")
        print(stable_json(report))
    elif fmt == "json":
        Path(path).write_text(stable_json(report) + "\n")
    else:
        path = Path(path)
        _write_records_csv(report["records"], path)
        sidecar = path.with_name(
            path.stem + ".summary.csv" if path.suffix == ".csv" else path.name + ".summary.csv"
        )
        _write_summary_csv(report["summary"], sidecar)


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
