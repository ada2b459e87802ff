"""False-alarm rates of the CLI's checks over a range of seeds.

    python3 bench/seed_sweep.py [--src DIR] [--first S] [--seeds N]

Runs ``solve-bsde`` on ``perfbench/workloads/bsde_liouville.ini`` and
``verify`` on ``configs/fbm_linear.ini`` of this checkout once per seed
S, S + 1, ..., S + N - 1 (default 1..200), with the volterra_bsde sources
under DIR (default: this checkout's ``src``), in one process through
``volterra_bsde.cli.run``.  The code under test is correct, so every failed
check is a false alarm of a Monte Carlo gate.  For each run it reads the
check table (``bsde_report.csv`` / ``verify_report.csv``, last column
``passed``) and counts, per check, the runs in which that check failed;
a run that ends without a report (an error) is counted under ``error``.

Prints one JSON object: per run, the number of seeds, the failed runs
(exit code not 0) and, per check, the failure count, the rate and the
failing seeds.  Run it against two source trees in turn to compare them.
BLAS is held to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
# name -> (subcommand, config, report artifact)
RUNS = {
    "solve-bsde/bsde_liouville": ("solve-bsde",
                                  "perfbench/workloads/bsde_liouville.ini",
                                  "bsde_report.csv"),
    "verify/fbm_linear": ("verify", "configs/fbm_linear.ini",
                          "verify_report.csv"),
}


def failed_checks(report_path):
    """Names of the rows of a check table whose ``passed`` column is 0."""
    lines = report_path.read_text().splitlines()[1:]
    return [line.split(",")[0] for line in lines if line.rsplit(",", 1)[1] == "0"]


def sweep(cli, seeds):
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (sub, config, report) in RUNS.items():
            failed_runs, checks = [], {}
            for seed in seeds:
                target = Path(tmp) / name / str(seed)
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.run(sub, str(ROOT / config), str(target), seed=seed)
                if code == 0:
                    continue
                failed_runs.append(seed)
                path = target / report
                for check in failed_checks(path) if path.is_file() else ["error"]:
                    checks.setdefault(check, []).append(seed)
                print(f"{name} seed {seed}: exit {code}", file=sys.stderr, flush=True)
            out[name] = {
                "seeds": len(seeds),
                "failed_runs": len(failed_runs),
                "failed_run_rate": len(failed_runs) / len(seeds),
                "checks": {k: {"failures": len(v), "rate": len(v) / len(seeds),
                               "seeds": v} for k, v in sorted(checks.items())},
            }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=200)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from volterra_bsde import cli

    seeds = list(range(args.first, args.first + args.seeds))
    result = {"src": args.src, "first_seed": args.first, **sweep(cli, seeds)}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
