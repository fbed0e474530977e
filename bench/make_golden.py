"""Write the reference reports that bench/run.py checks at the default seed.

    python3 bench/make_golden.py

Each workload gets bench/golden/<workload>.json holding the parsed reports
of its first PREFIX_COMMANDS commands.  Regenerate only when a program
change is meant to change reported numbers, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    cli = run.import_cli()
    run.GOLDEN.mkdir(exist_ok=True)
    for wl in run.WORKLOADS.values():
        if wl.csv_shape is not None:
            run.write_csv(wl.csv_path, run.DEFAULT_SEED, *wl.csv_shape)
        reports = []
        try:
            for k in range(run.PREFIX_COMMANDS):
                argv = wl.argv(run.DEFAULT_SEED * run.SEED_STRIDE + k)
                _, rc, out = run.run_command(cli, argv)
                if rc != 0:
                    raise SystemExit(f"{wl.name}: {argv} exited with {rc!r}")
                reports.append(json.loads(out))
        finally:
            if wl.csv_shape is not None:
                wl.csv_path.unlink(missing_ok=True)
        path = run.GOLDEN / f"{wl.name}.json"
        path.write_text(json.dumps({"workload": wl.name, "seed": run.DEFAULT_SEED,
                                    "reports": reports}, indent=1) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
