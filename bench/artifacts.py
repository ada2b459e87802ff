"""Byte-identity gate: every CLI artifact on every shipped config.

    python3 bench/artifacts.py run OUT [--src DIR]
    python3 bench/artifacts.py diff A B
    python3 bench/artifacts.py golden

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
and 1 otherwise.

``golden`` runs them all into a temporary directory and writes
``tests/golden/artifacts.sha256``: a header naming the numeric stack the
hashes were taken under (``numeric_stack``), then one ``sha256  path``
line per file.  ``tests/test_golden.py`` reruns the artifacts against it.
A change that moves an artifact on purpose regenerates the file, so its
diff records which files moved.  BLAS is held to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "artifacts.sha256"
SUBCOMMANDS = ("variance", "simulate", "solve-pde", "solve-bsde", "verify",
               "compare", "certify")
# files whose bytes do not depend on the BLAS build or kernel: no path
# matmul or BLAS reduction reaches them; each manifest names the stack
BLAS_FREE_SUBCOMMANDS = ("variance", "solve-pde", "compare")
BLAS_FREE_FILES = ("solve-bsde/bsde_report.csv", "solve-bsde/bsde_refinement.csv")
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


def numeric_stack():
    """The manifest's numeric-stack lines (numpy, BLAS, ``OPENBLAS_CORETYPE``)
    and the OpenBLAS kernel picked for this CPU, when the library names it."""
    import numpy as np
    from volterra_bsde import cli

    lines = cli._numeric_stack()
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_char_p
        lines.append(f"blas_core={get().decode()}")
    return lines


def blas_free(rel):
    """True for an artifact path (relative to the run directory) whose bytes
    the BLAS build and kernel cannot move."""
    parts = Path(rel).parts
    if len(parts) != 3:  # exit_codes.csv
        return False
    sub_file = f"{parts[1]}/{parts[2]}"
    return (parts[1] in BLAS_FREE_SUBCOMMANDS and parts[2] != "manifest.txt") \
        or sub_file in BLAS_FREE_FILES


def hash_tree(out):
    """{relative posix path: sha256 hex} of every file under out."""
    out = Path(out)
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def read_golden(path=GOLDEN):
    """(stack lines, {path: sha256}) of a golden file."""
    stack, hashes = [], {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            stack.append(line[2:])
        elif line:
            digest, rel = line.split("  ", 1)
            hashes[rel] = digest
    return stack, hashes


def write_golden(path=GOLDEN, src=ROOT / "src"):
    with tempfile.TemporaryDirectory() as out:
        run_all(out, src)
        hashes = hash_tree(out)
    lines = [f"# {line}" for line in numeric_stack()]
    lines += [f"{digest}  {rel}" for rel, digest in hashes.items()]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")
    print(f"{len(hashes)} hashes written to {path}")


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
    sub.add_parser("golden")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.action == "run":
        run_all(args.out, args.src)
        return 0
    if args.action == "golden":
        write_golden()
        return 0
    return diff_dirs(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
