"""Byte-identity gate: every CLI artifact on every shipped config.

    python3 bench/artifacts.py run OUT [--src DIR]
    python3 bench/artifacts.py diff A B

``run`` executes all seven subcommands on ``configs/*.ini`` and
``perfbench/workloads/*.ini`` of this checkout, with the volterra_bsde
sources under DIR (default: this checkout's ``src``), in one process
through ``volterra_bsde.cli.run``.  Each run writes into
``OUT/<config>/<subcommand>/``, and ``OUT/exit_codes.csv`` records every
exit code.  Run it once per source tree to compare two trees.

``diff`` compares two such directories file by file.  It prints the number
of identical files, then each file present on one side only and each
differing file with the largest absolute change of a numeric token (tokens
split at commas, whitespace, ``=`` and ``:``) and the count of differing
non-numeric tokens, such as hashes.  It exits 0 when every file matches
and 1 otherwise.  BLAS is held to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("variance", "simulate", "solve-pde", "solve-bsde", "verify",
               "compare", "certify")
_TOKEN_SPLIT = re.compile(r"[,\s=:]+")


def _configs():
    return sorted(ROOT.glob("configs/*.ini")) + \
        sorted(ROOT.glob("perfbench/workloads/*.ini"))


def run_all(out, src):
    sys.path.insert(0, str(src))
    from volterra_bsde import cli

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["config,subcommand,exit"]
    for config in _configs():
        for sub in SUBCOMMANDS:
            target = out / config.stem / sub
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(sub, str(config), str(target))
            rows.append(f"{config.stem},{sub},{code}")
            print(rows[-1], flush=True)
    (out / "exit_codes.csv").write_text("\n".join(rows) + "\n")


def _largest_change(a, b):
    """(largest |numeric change|, differing non-numeric tokens), or None
    when the two texts do not split into the same number of tokens."""
    ta, tb = _TOKEN_SPLIT.split(a), _TOKEN_SPLIT.split(b)
    if len(ta) != len(tb):
        return None
    worst, other = 0.0, 0
    for x, y in zip(ta, tb):
        if x == y:
            continue
        try:
            worst = max(worst, abs(float(x) - float(y)))
        except ValueError:
            other += 1
    return worst, other


def diff_dirs(a, b):
    a, b = Path(a), Path(b)
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    identical, lines = 0, []
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            lines.append(f"{rel}: only in {a if rel in files_a else b}")
            continue
        da, db = (a / rel).read_bytes(), (b / rel).read_bytes()
        if da == db:
            identical += 1
            continue
        change = _largest_change(da.decode(), db.decode())
        if change is None:
            lines.append(f"{rel}: differs in structure")
        else:
            lines.append(f"{rel}: largest numeric change {change[0]:.3e}, "
                         f"{change[1]} non-numeric tokens differ")
    print(f"{identical} identical files")
    for line in lines:
        print(line)
    return 1 if lines else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("out")
    p_run.add_argument("--src", default=str(ROOT / "src"))
    p_diff = sub.add_parser("diff")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.action == "run":
        run_all(args.out, args.src)
        return 0
    return diff_dirs(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
