"""specbeta benchmark: whole CLI commands in a closed loop, one workload per process.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload simulate-d10 --seed 1 --seconds 10 --trace 0

One client thread calls ``specbeta.cli.main([...])`` in-process, sends the
next command only after the previous one returns, and checks every report.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
commands untraced and then with spans around every layer's public functions
and prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
workloads, metrics and the layer-to-end-to-end mapping are described in
bench/README.md.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is first imported, here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so report config echoes match
GOLDEN = BENCH / "golden"

DEFAULT_SEED = 0
# Commands 0..PREFIX_COMMANDS-1 of a run are checked against the reference
# reports (default seed) and give the exact counts of a traced run.
PREFIX_COMMANDS = 2
SETUP_SPAWNS = 11
# CLI seed of command k at benchmark seed s: s * SEED_STRIDE + k.
SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    items: int  # study runs, or target columns, per command
    fields: tuple[str, ...]  # required in every record
    csv_shape: tuple[int, int] | None = None  # (rows, predictors) of the input CSV

    def argv(self, cli_seed: int) -> list[str]:
        argv = [*self.args, "--seed", str(cli_seed)]
        if self.csv_shape is not None:
            argv += ["--input", str(self.csv_path)]
        return argv

    @property
    def csv_path(self) -> Path:
        return WORK / f"{self.name}.csv"


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "simulate-d10",
            ("simulate", "--dim", "10", "--latent", "12", "--samples", "10000", "--runs", "10"),
            items=10,
            fields=("true_beta", "beta_hat", "theta_hat"),
        ),
        Workload(
            "rejections-d100",
            ("rejections", "--dim", "100", "--latent", "110", "--samples", "2000",
             "--null-samples", "1000", "--null-method", "sphere", "--runs", "10"),
            items=10,
            fields=("true_beta", "t_observed", "p_value"),
        ),
        Workload(
            "shuffle-d50",
            ("shuffle-target",),
            items=51,
            fields=("beta_hat", "theta_hat", "p_value"),
            csv_shape=(5000, 50),
        ),
    )
}

SELF_TIMED = tuple(dict.fromkeys(name for name, *_ in spans.TARGETS))
LAYERS = ("cli", "harness", "genmodel", "spectral", "estimator", "cdtest")


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# Set-up


def import_cli():
    """Import specbeta.cli from this checkout's sources, never from elsewhere."""
    if not (SRC / "specbeta" / "cli.py").is_file():
        raise BenchmarkError(f"no specbeta sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from specbeta import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise BenchmarkError(f"specbeta was imported from {cli.__file__}, not {SRC}")
    return cli


def time_fresh_import() -> float:
    """Seconds from starting a fresh interpreter until specbeta.cli is imported."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import specbeta.cli; "
            "print('ready', flush=True)")
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError("a fresh interpreter failed to import specbeta.cli")
    return elapsed


def write_csv(path: Path, seed: int, rows: int, dim: int) -> None:
    """Input CSV from the source-mixing model of genmodel: X = M Z, Y = a'X + c'Z.

    Ten more sources than predictors keep the joint (X, Y) matrix full rank,
    so every column can be the target.  Floats are written with repr.
    """
    g = np.random.default_rng([seed, rows, dim])
    ell = dim + 10
    m = g.standard_normal((dim, ell))
    a = g.uniform() * g.standard_normal(dim)
    c = g.uniform() * g.standard_normal(ell)
    z = g.standard_normal((ell, rows))
    x = (m @ z).T
    table = np.column_stack([x, x @ a + z.T @ c])
    lines = [",".join([f"x{j}" for j in range(dim)] + ["y"])]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def load_references(wl: Workload) -> list[dict]:
    path = GOLDEN / f"{wl.name}.json"
    if not path.is_file():
        raise BenchmarkError(f"missing reference reports {path}")
    return json.loads(path.read_text())["reports"]


# ---------------------------------------------------------------------------
# Commands


def run_command(cli, argv: list[str]) -> tuple[float, object, str]:
    """Wall seconds, exit code (None if main raised) and stdout of one command."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = None
    return time.perf_counter() - start, rc, out.getvalue()


def check_output(wl: Workload, cli_seed: int, rc, out: str,
                 reference: dict | None) -> tuple[int, list[str]]:
    if rc != 0:
        return wl.items, [f"exit code {rc!r}"]
    try:
        report = json.loads(out)
    except ValueError:
        return wl.items, ["output is not JSON"]
    return checks.check_report(report, wl.items, wl.fields, cli_seed, reference)


@dataclass
class Phase:
    walls: list[float] = field(default_factory=list)
    items: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.items / sum(self.walls)


def run_phase(cli, wl: Workload, seed: int, seconds: float, references,
              tracer: spans.Tracer | None = None, min_commands: int = 0,
              setup: list[float] | None = None) -> Phase:
    """Closed loop over commands 0, 1, ... until ``seconds`` have passed.

    With ``setup`` given, fresh-interpreter set-up times are taken between
    commands, spread evenly over the phase so that they see the same machine
    conditions as the commands; they are not part of any command's wall time.
    """
    phase = Phase()
    begin = time.perf_counter()
    k = 0
    while k < min_commands or time.perf_counter() - begin < seconds:
        elapsed = time.perf_counter() - begin
        if setup is not None and len(setup) < SETUP_SPAWNS * elapsed / seconds:
            setup.append(time_fresh_import())
        if tracer is not None:
            tracer.command = k
        cli_seed = seed * SEED_STRIDE + k
        wall, rc, out = run_command(cli, wl.argv(cli_seed))
        reference = references[k] if references is not None and k < len(references) else None
        failed, messages = check_output(wl, cli_seed, rc, out, reference)
        phase.walls.append(wall)
        phase.items += wl.items
        phase.failed += failed
        phase.messages += [f"command {k}: {m}" for m in messages]
        k += 1
    return phase


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(cli, wl: Workload, seed: int, seconds: float,
               references) -> tuple[dict, list[Phase], list[str]]:
    setup: list[float] = []
    phase = run_phase(cli, wl, seed, seconds, references, setup=setup)
    while len(setup) < SETUP_SPAWNS:
        setup.append(time_fresh_import())
    metrics = {
        "throughput_items_per_s": (phase.throughput, "items/s"),
        "cmd_wall_p50_s": (statistics.median(phase.walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [
        f"cmd_wall_p50_s over {len(phase.walls)} commands of {wl.items} items",
        f"setup_s is the median of {len(setup)} fresh interpreters",
    ]
    return metrics, [phase], notes


def exact_counts(tracer: spans.Tracer) -> dict[str, int]:
    prefix = range(PREFIX_COMMANDS)
    calls = tracer.calls(prefix)
    return {
        "estimator.log_direction_density.calls": calls["estimator.log_direction_density"],
        "spectral.empirical_covariance.calls": calls["spectral.empirical_covariance"],
        "harness.csv_cells": tracer.counter("harness.csv_cells", prefix),
        "cdtest.null_draws": tracer.counter("cdtest.null_draws", prefix),
    }


def per_layer(cli, wl: Workload, seed: int, seconds: float,
              references) -> tuple[dict, list[Phase], list[str]]:
    untraced = run_phase(cli, wl, seed, seconds / 2, references)
    tracer, repeat = spans.Tracer(), spans.Tracer()
    with tracer.installed():
        traced = run_phase(cli, wl, seed, seconds / 2, references, tracer, PREFIX_COMMANDS)
    with repeat.installed():
        again = run_phase(cli, wl, seed, 0, references, repeat, PREFIX_COMMANDS)
    counts = exact_counts(tracer)
    if counts != exact_counts(repeat):
        raise BenchmarkError(f"exact counts differ between two passes over the same "
                             f"commands: {counts} vs {exact_counts(repeat)}")

    self_ns = tracer.self_ns()
    per_item = 1e-9 / traced.items
    metrics = {f"{name}.self_s": (self_ns[name] * per_item, "s/item") for name in SELF_TIMED}
    for layer in LAYERS:
        total = sum(v for name, v in self_ns.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (total * per_item, "s/item")
    metrics.update({name: (value, "count") for name, value in counts.items()})

    prefix_items = PREFIX_COMMANDS * wl.items
    prefix_calls = tracer.calls(range(PREFIX_COMMANDS))
    thetas = prefix_calls["estimator.estimate_theta"]
    cov_ns = self_ns["spectral.empirical_covariance"]
    metrics.update({
        "spectral.covariances_per_item": (
            counts["spectral.empirical_covariance.calls"] / prefix_items, "count/item"),
        "spectral.xtx_gflop": (
            tracer.counter("spectral.xtx_flop", range(PREFIX_COMMANDS)) / 1e9 / prefix_items,
            "GFLOP/item"),
        "spectral.xtx_gflops_rate": (
            tracer.counter("spectral.xtx_flop") / cov_ns if cov_ns else 0.0, "GFLOP/s"),
        "estimator.loglik_evals_per_estimate": (
            counts["estimator.log_direction_density.calls"] / thetas if thetas else 0.0,
            "count"),
        "trace.overhead_frac": (1.0 - traced.throughput / untraced.throughput, "fraction"),
        "trace.coverage_frac": (
            sum(v for name, v in self_ns.items() if name != "cli.main") / 1e9 / sum(traced.walls),
            "fraction"),
    })
    span_file = WORK / f"spans-{wl.name}.tsv"
    tracer.write(span_file)
    notes = [
        f"self times are per item over {len(traced.walls)} traced commands "
        f"({traced.items} items); untraced pass: {len(untraced.walls)} commands",
        f"counts are over commands 0..{PREFIX_COMMANDS - 1} ({prefix_items} items) "
        f"and repeated exactly in a second traced pass",
        "spectral.xtx_gflop and spectral.xtx_gflops_rate are computed as 2*n*d^2 "
        "per empirical_covariance call, not measured",
        f"{len(tracer.finished())} spans written to {span_file}",
    ]
    return metrics, [untraced, traced, again], notes


# ---------------------------------------------------------------------------
# Environment record and entry point


def openblas_threads() -> str:
    libs = sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/lib*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict[str, str]:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the lines printed before it."""
    cli = import_cli()
    references = load_references(wl) if seed == DEFAULT_SEED else None
    try:
        if wl.csv_shape is not None:
            write_csv(wl.csv_path, seed, *wl.csv_shape)
        run_command(cli, wl.argv(seed * SEED_STRIDE))  # warm-up, untimed
        measure = per_layer if trace else end_to_end
        metrics, phases, notes = measure(cli, wl, seed, seconds, references)
    finally:
        if wl.csv_shape is not None:
            wl.csv_path.unlink(missing_ok=True)

    attempted = sum(p.items for p in phases)
    failed = sum(p.failed for p in phases)
    lines = [" ".join(f"{k}={v!r}" for k, v in environment().items()),
             f"workload={wl.name} seed={seed} seconds={seconds} trace={int(trace)} "
             f"reference_check={'on' if references is not None else 'off (invariants only)'}"]
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"failed_fraction {failed / attempted:.6g} ({failed} of {attempted} items)")
    lines += notes
    lines += [m for p in phases for m in p.messages[:20]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    os.chdir(ROOT)
    try:
        result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
