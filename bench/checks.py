"""Output checks for the benchmark's CLI commands.

At the default seed each checked command is compared with a stored
reference report: ints, bools and strings exactly, floats within
FLOAT_REL_TOL.  On every seed each record must satisfy the invariants
(no error, required fields present, p_value in (0, 1], beta_hat in [0, 1]).
"""

from __future__ import annotations

import math

# The estimator brackets theta to a relative width of GOLDEN_REL_TOL (1e-6);
# a refined or vectorized search may land anywhere in that bracket, and BLAS
# reordering moves results by ~1e-12 relative.  Ten times the bracket admits
# both and still catches any real change of a reported number.
FLOAT_REL_TOL = 1e-5
FLOAT_ABS_TOL = 1e-12


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff(got, want, path: str = "") -> list[str]:
    """Differences between a report fragment and its reference.

    Integers written from floats (``stable_json`` prints 1.0 as ``1``) read
    back as ints, so any pair with a float side is compared by tolerance.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in diff(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in diff(g, w, f"{path}[{i}]")]
    if _is_number(want) and _is_number(got) and (isinstance(want, float) or isinstance(got, float)):
        if math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
            return []
        return [f"{path}: {got!r} != {want!r} (rel tol {FLOAT_REL_TOL})"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def record_problems(record: dict, fields: tuple[str, ...]) -> list[str]:
    problems = [f"missing {f}" for f in fields if f not in record]
    if "error" in record:
        problems.append(f"error {record['error']!r}")
    p = record.get("p_value")
    if p is not None and not (_is_number(p) and 0.0 < p <= 1.0):
        problems.append(f"p_value {p!r} outside (0, 1]")
    b = record.get("beta_hat")
    if b is not None and not (_is_number(b) and 0.0 <= b <= 1.0):
        problems.append(f"beta_hat {b!r} outside [0, 1]")
    return problems


def check_report(report: dict, items: int, fields: tuple[str, ...], seed: int,
                 reference: dict | None = None) -> tuple[int, list[str]]:
    """Failed item count and messages for one command's parsed report.

    A problem with the report as a whole (record count, config, summary)
    fails every item of the command; a problem with one record fails that
    item.
    """
    records = report.get("records")
    if not isinstance(records, list) or len(records) != items:
        return items, [f"expected {items} records"]
    if report.get("config", {}).get("seed") != seed:
        return items, [f"config seed is not {seed}"]
    if reference is not None:
        whole = diff(report["config"], reference["config"], "config")
        whole += diff(report["summary"], reference["summary"], "summary")
        if whole:
            return items, whole
    failed, messages = 0, []
    for i, record in enumerate(records):
        problems = record_problems(record, fields)
        if reference is not None:
            problems += diff(record, reference["records"][i], f"records[{i}]")
        if problems:
            failed += 1
            messages += problems
    return failed, messages
