"""Span recording around calls into the specbeta layers.

Wrappers are installed from outside the package: every module of the
package that holds a reference to a traced function gets the wrapper, since
the package imports names directly (``from .spectral import
empirical_covariance``) and patching only the defining module would miss
those call sites.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (span name, "module:qualified name", counter name or None, amount(result) -> int)
TARGETS = (
    ("cli.main", "specbeta.cli:main", None, None),
    ("harness.read_numeric_csv", "specbeta.harness:read_numeric_csv",
     "harness.csv_cells", lambda res: res[0].size),
    ("harness.study", "specbeta.harness:run_simulation_study", None, None),
    ("harness.study", "specbeta.harness:run_rejection_study", None, None),
    ("harness.study", "specbeta.harness:shuffle_target_analysis", None, None),
    ("harness.stable_json", "specbeta.harness:stable_json", None, None),
    ("genmodel.sample_ground_truth", "specbeta.genmodel:sample_ground_truth", None, None),
    ("genmodel.generate_samples", "specbeta.genmodel:generate_samples", None, None),
    ("genmodel.true_beta", "specbeta.genmodel:true_beta", None, None),
    ("spectral.empirical_covariance", "specbeta.spectral:empirical_covariance",
     "spectral.xtx_flop", lambda cov: 2 * cov.n * cov.d * cov.d),
    ("spectral.from_matrices", "specbeta.spectral:CovarianceModel.from_matrices", None, None),
    ("spectral.regression_vector", "specbeta.spectral:regression_vector", None, None),
    ("spectral.unit_direction", "specbeta.spectral:unit_direction", None, None),
    ("estimator.estimate_confounding", "specbeta.estimator:estimate_confounding", None, None),
    ("estimator.estimate_theta", "specbeta.estimator:estimate_theta", None, None),
    ("estimator.log_direction_density", "specbeta.estimator:log_direction_density", None, None),
    ("cdtest.test_nonconfounding", "specbeta.cdtest:test_nonconfounding", None, None),
    ("cdtest.statistic_T", "specbeta.cdtest:statistic_T", None, None),
    ("cdtest.null_samples_sphere", "specbeta.cdtest:null_samples_sphere",
     "cdtest.null_draws", lambda null: null.size),
)


class Tracer:
    """Spans ``(id, parent, command, name, start_ns, end_ns)`` and per-command counters.

    A span whose name is already open is not recorded again, so a recursive
    function (``stable_json``) gives one span per outermost call.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.command = -1
        self._stack: list[int] = []
        self._open: set[str] = set()

    def wrap(self, name, fn, counter=None, amount=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            self._open.add(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open.discard(name)
                self._stack.pop()
                self.spans[sid] = (sid, parent, self.command, name, start, end)
            if counter is not None:
                self.counts[(self.command, counter)] += amount(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function at every import site; restore on exit."""
        undo = []
        try:
            modules = [m for key, m in sys.modules.items()
                       if key == "specbeta" or key.startswith("specbeta.")]
            for name, target, counter, amount in TARGETS:
                module_name, qualname = target.split(":")
                owner = sys.modules[module_name]
                if "." in qualname:  # classmethod on a class shared by every importer
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    patched = classmethod(self.wrap(name, original.__func__, counter, amount))
                    setattr(cls, attr, patched)
                    undo.append((cls, attr, original))
                    continue
                original = getattr(owner, qualname)
                wrapper = self.wrap(name, original, counter, amount)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            undo.append((module, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def finished(self) -> list[tuple]:
        return [s for s in self.spans if s is not None]

    def self_ns(self, commands=None) -> dict[str, int]:
        """Self time per span name: duration minus the time of direct children."""
        spans = self.finished()
        child = defaultdict(int)
        for sid, parent, _, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for sid, _, cmd, name, start, end in spans:
            if commands is None or cmd in commands:
                out[name] += end - start - child[sid]
        return out

    def calls(self, commands=None) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for _, _, cmd, name, _, _ in self.finished():
            if commands is None or cmd in commands:
                out[name] += 1
        return out

    def counter(self, name: str, commands=None) -> int:
        return sum(v for (cmd, key), v in self.counts.items()
                   if key == name and (commands is None or cmd in commands))

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated lines: id, parent, command, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id\tparent\tcommand\tname\tstart_ns\tend_ns\n")
            for span in self.finished():
                fh.write("\t".join(map(str, span)) + "\n")
