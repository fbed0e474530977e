"""Smoke checks for the benchmark itself, at tiny sizes (about half a minute).

    python3 bench/smoke.py

Checks that every metric named in BENCHMARK.json is produced, that the
output check catches a perturbed report, that exact counts repeat, that the
reference reports match at the default seed, and that the benchmark refuses
to run without the program's sources.  The file is not named test_*.py, so
the repository's pytest run does not collect it.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import checks
import run
import spans

TINY = (
    run.Workload("tiny-simulate",
                 ("simulate", "--dim", "3", "--latent", "5", "--samples", "200", "--runs", "3"),
                 items=3, fields=("true_beta", "beta_hat", "theta_hat")),
    run.Workload("tiny-rejections",
                 ("rejections", "--dim", "4", "--latent", "6", "--samples", "200",
                  "--null-samples", "100", "--runs", "3"),
                 items=3, fields=("true_beta", "t_observed", "p_value")),
    run.Workload("tiny-shuffle", ("shuffle-target", "--null-samples", "100"),
                 items=5, fields=("beta_hat", "theta_hat", "p_value"), csv_shape=(200, 4)),
)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_metric_names(spec: dict) -> None:
    for wl in TINY:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.run(wl, seed=3, seconds=0.2, trace=trace)
            names = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == names, f"{wl.name} trace={int(trace)}: metrics and units match {key}")
            expect(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                   f"{wl.name} trace={int(trace)}: every value is finite")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{wl.name} trace={int(trace)}: correct with no failed items")


def check_output_check(cli) -> None:
    wl = TINY[0]
    _, rc, out = run.run_command(cli, wl.argv(7))
    report = json.loads(out)
    ref = copy.deepcopy(report)

    def failed(mutate) -> int:
        got = copy.deepcopy(report)
        mutate(got)
        return checks.check_report(got, wl.items, wl.fields, 7, ref)[0]

    i = max(range(wl.items), key=lambda j: report["records"][j]["beta_hat"])

    def scale(factor):
        def mutate(r):
            r["records"][i]["beta_hat"] *= factor
        return mutate

    expect(rc == 0 and failed(lambda r: None) == 0, "an unchanged report passes")
    expect(failed(scale(1 + 1e-9)) == 0, "a float moved by 1e-9 relative passes")
    expect(failed(scale(1 + 1e-3)) == 1, "a float moved by 1e-3 relative fails its item")
    def flip(r):
        r["records"][0]["boundary"] = not r["records"][0]["boundary"]

    expect(failed(flip) == 1, "a flipped bool fails its item")
    expect(failed(lambda r: r["summary"].update(runs=99)) == wl.items,
           "a changed summary int fails every item")
    expect(failed(lambda r: r["records"].pop()) == wl.items, "a missing record fails every item")
    bad = copy.deepcopy(report)
    bad["records"][i]["beta_hat"] = 1.5
    expect(checks.check_report(bad, wl.items, wl.fields, 7)[0] == 1,
           "beta_hat outside [0, 1] fails its item without a reference")
    expect(run.check_output(wl, 7, 3, out, None)[0] == wl.items,
           "a non-zero exit code fails every item")


def check_counts_repeat() -> None:
    names = run.exact_counts(spans.Tracer())

    def counts(wl):
        result, _ = run.run(wl, seed=5, seconds=0.2, trace=True)
        return {name: result["metrics"][name]["value"] for name in names}

    for wl in TINY:
        first = counts(wl)
        expect(first == counts(wl), f"{wl.name}: exact counts repeat across two runs ({first})")


def check_references() -> None:
    for wl in run.WORKLOADS.values():
        result, lines = run.run(wl, seed=run.DEFAULT_SEED, seconds=0.1, trace=False)
        expect(result["correct"], f"{wl.name}: default seed matches the reference reports")
        if not result["correct"]:
            print("\n".join(lines))


def check_refuses_without_sources() -> None:
    bare = run.ROOT / run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "simulate-d10",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and proc.stdout == "",
           f"without src/ it exits {proc.returncode} and prints no result")


def main() -> int:
    os.chdir(run.ROOT)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    cli = run.import_cli()
    check_metric_names(spec)
    check_output_check(cli)
    check_counts_repeat()
    check_references()
    check_refuses_without_sources()
    print(f"{len(failures)} smoke check(s) failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
