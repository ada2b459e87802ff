"""Golden artifact hashes: every CLI artifact on every shipped config must
hash to the value in ``tests/golden/artifacts.sha256``.

A change that moves an artifact on purpose regenerates that file with
``python3 bench/artifacts.py golden`` and commits it, so the file's diff
names every file that moved.  The hashes hold under the numeric stack the
file names in its header.  Under another stack only the files that no BLAS
call reaches are compared (``artifacts.blas_free``); the rest skip.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("artifacts", ROOT / "bench" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """(golden stack, golden hashes, hashes of a fresh run)."""
    out = tmp_path_factory.mktemp("artifacts")
    artifacts.run_all(out, ROOT / "src")
    stack, golden = artifacts.read_golden()
    return stack, golden, artifacts.hash_tree(out)


def _moved(golden, now, keep):
    names = sorted(rel for rel in set(golden) | set(now) if keep(rel))
    return [rel for rel in names if golden.get(rel) != now.get(rel)], len(names)


def test_blas_free_artifacts_match_golden_hashes(golden_run):
    _, golden, now = golden_run
    moved, n = _moved(golden, now, artifacts.blas_free)
    assert n > 0
    assert not moved, f"{len(moved)} of {n} BLAS-free artifacts moved: {moved}"


def test_every_artifact_matches_golden_hashes(golden_run):
    stack, golden, now = golden_run
    if stack != artifacts.numeric_stack():
        pytest.skip(f"golden hashes were taken under {stack}, this run is under "
                    f"{artifacts.numeric_stack()}; only the BLAS-free files compare")
    moved, n = _moved(golden, now, lambda rel: True)
    assert n == 122
    assert not moved, f"{len(moved)} of {n} artifacts moved: {moved}"
