"""Benchmark of the volterra-bsde CLI pipeline.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]
                             [--seconds S]

Each workload runs one real subcommand end to end through
``volterra_bsde.cli.run`` in this process: config -> variance curve ->
layer work -> CSV artifacts -> manifest.  The workload seed is passed as
``seed=``; the program gets nothing else from the benchmark.

``BENCHMARK.json`` fixes the workload order, the metric names and units and
the run length ``run_seconds``.  ``--seconds`` exists because the caller's
interface passes it, and must equal ``run_seconds``.

``--trace 0`` (untraced pass) reports the end-to-end metrics:

* ``wall_ref_s``: median wall time of one ``cli.run`` call, rescaled to
  the reference host speed;
* ``setup_s``: median wall time of a fresh interpreter importing
  ``volterra_bsde.cli``, which every CLI invocation pays, rescaled the
  same way;
* ``peak_rss_mb``: the process's ``ru_maxrss``.

The host's speed switches between a fast and a ~25-35% slower state for
seconds to minutes at a time, so raw wall times follow the host more than
the program.  After one untimed reference call, rounds of one setup sample
and one timed call repeat until the next round would end after the run
length.  ``hostspeed.HostSpeed`` samples the host's speed on the same CPU
during each round's call (it pauses while the setup's child process runs),
and both of the round's times are rescaled by that speed (see that module).
So ``setup_s`` differs between workloads although the import does not: it
carries the speed measured beside each workload's calls.
Every raw and rescaled sample is printed, with the raw medians, and each
metric with its unit and sample count.

``--trace 1`` (traced pass) alternates untraced and traced calls and reports
the per-layer metrics of the traced calls (medians), with
``trace.overhead_s`` the median over pairs of a traced call minus the
untraced call just before it.  The spans of the last traced call are written
to ``.perfbench/<workload>/spans.json``.

A call fails if it raises, returns non-zero, writes a manifest whose
artifact hashes do not match the files, or writes a manifest that differs
from the first call's.  ``fail_frac`` = failed / attempted; any failure
makes the exit code 1.

One workload with one ``--trace`` value runs in this process.  Otherwise
(the default: every workload, both passes) each workload and pass runs in
its own process, so peak RSS is per workload, and the metrics are printed
as ``<workload>.<metric>``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Fix the BLAS pool before numpy loads (hostspeed imports it); children
# inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from hostspeed import HostSpeed, pinned_to_one_cpu  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# name -> (subcommand, config relative to the repository root)
WORKLOADS = {
    "verify-fbm": ("verify", "configs/fbm_linear.ini"),
    "pde-nonlinear": ("solve-pde", "perfbench/workloads/pde_nonlinear.ini"),
    "bsde-liouville": ("solve-bsde", "perfbench/workloads/bsde_liouville.ini"),
}

MIN_SAMPLES = 3  # rounds; a slow machine overruns the run length for these


def load_spec():
    """``BENCHMARK.json``, with its metric lists as ``{name: unit}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("end_to_end", "per_layer"):
        spec[key] = {m["name"]: m["unit"] for m in spec[key]}
    spec["workloads"] = [w["name"] for w in spec["workloads"]]
    return spec


def import_cli():
    """Import ``volterra_bsde.cli`` from this checkout's ``src``."""
    if not (SRC / "volterra_bsde" / "cli.py").is_file():
        raise ImportError(f"no volterra_bsde sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from volterra_bsde import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"volterra_bsde imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup():
    """Start and end of a fresh interpreter importing the CLI module."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import volterra_bsde.cli"],
                   cwd=SRC, check=True)
    return t0, time.perf_counter()


def _verified_manifest(out_dir):
    """The manifest text if every artifact hash it lists matches, else None."""
    try:
        text = (out_dir / "manifest.txt").read_text()
        for line in text.splitlines():
            if line.startswith("artifact="):
                name, digest = line[len("artifact="):].rsplit(":", 1)
                data = (out_dir / name).read_bytes()
                if hashlib.sha256(data).hexdigest() != digest:
                    return None
    except OSError:
        return None
    return text


class Runner:
    """Repeated ``cli.run`` calls on one config, with the failure count."""

    def __init__(self, cli, subcommand, config, seed, out_dir):
        self.cli = cli
        self.args = (subcommand, str(config), str(out_dir))
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.artifact_bytes = 0
        self.interval = None  # perf_counter start and end of the last call

    def call(self):
        """One call; returns its wall seconds.  Failures are counted here."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        t0 = time.perf_counter()
        try:
            code = self.cli.run(*self.args, seed=self.seed)
        except Exception:  # a raising call is a failed call, not a crash
            traceback.print_exc()
            code = None
        self.interval = (t0, time.perf_counter())
        elapsed = self.interval[1] - t0
        manifest = _verified_manifest(self.out_dir)
        if self.reference is None:
            self.reference = manifest
        self.attempted += 1
        if code != 0 or manifest is None or manifest != self.reference:
            self.failed += 1
            print(f"call {self.attempted} failed: exit={code}", file=sys.stderr)
        self.artifact_bytes = sum(
            p.stat().st_size for p in self.out_dir.iterdir()) \
            if self.out_dir.is_dir() else 0
        return elapsed


def _rounds(deadline):
    """Yield once per round until the next round would end after ``deadline``.

    The next round is taken to last the median of the rounds so far.  At
    least ``MIN_SAMPLES`` rounds run.
    """
    lengths = []
    while len(lengths) < MIN_SAMPLES or \
            time.perf_counter() + statistics.median(lengths) < deadline:
        start = time.perf_counter()
        yield
        lengths.append(time.perf_counter() - start)


def run_end_to_end(runner, seconds):
    deadline = time.perf_counter() + seconds
    raw = {"wall_ref_s": [], "setup_s": []}
    factors = []
    with pinned_to_one_cpu(), HostSpeed() as speed:
        runner.call()  # reference call: sets the manifest, fills lazy caches
        for _ in _rounds(deadline):
            with speed.paused():
                s0, s1 = measure_setup()
            runner.call()
            c0, c1 = runner.interval
            raw["setup_s"].append(s1 - s0)
            raw["wall_ref_s"].append(c1 - c0)
            # one host speed per round: the setup's own interval holds no
            # sample, and the host's state lasts longer than a round
            factors.append(speed.factor(s0, c1))
    print("host speed factors:", " ".join(f"{f:.4f}" for f in factors))
    metrics = {}
    for metric, times in raw.items():
        scaled = [t * f for t, f in zip(times, factors)]
        print(f"{metric} raw samples:", " ".join(f"{t:.4f}" for t in times),
              f"(median {statistics.median(times):.4f})")
        print(f"{metric} rescaled samples:",
              " ".join(f"{t:.4f}" for t in scaled))
        metrics[metric] = statistics.median(scaled)
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, len(factors)


def run_traced(runner, seconds, span_file, names):
    """Per-layer metrics ``names`` of the traced calls, and their count."""
    deadline = time.perf_counter() + seconds
    runner.call()
    plain, traced, layers = [], [], []
    for _ in _rounds(deadline):
        plain.append(runner.call())
        with Tracer() as tracer:
            traced.append(runner.call())
        metrics = layer_metrics(tracer.spans, tracer.counts)
        metrics["cli.artifact_bytes"] = runner.artifact_bytes
        layers.append(metrics)
    span_file.parent.mkdir(parents=True, exist_ok=True)
    span_file.write_text(json.dumps(
        {"fields": ["name", "start_ns", "end_ns", "parent"],
         "spans": tracer.spans}))
    out = {name: statistics.median(m.get(name, 0) for m in layers)
           for name in names if name != "trace.overhead_s"}
    # pairing each traced call with the untraced call just before it
    # cancels the host's slow drift in speed
    out["trace.overhead_s"] = statistics.median(
        t - p for p, t in zip(plain, traced))
    return out, len(traced)


def run_workload(name, seed, seconds, trace, spec):
    """One pass over one workload in this process; the result object."""
    cli = import_cli()
    subcommand, config = WORKLOADS[name]
    work = WORK / name
    runner = Runner(cli, subcommand, ROOT / config, seed, work / "out")
    if trace:
        units = spec["per_layer"]
        metrics, samples = run_traced(runner, seconds, work / "spans.json",
                                      units)
    else:
        units = spec["end_to_end"]
        metrics, samples = run_end_to_end(runner, seconds)
    for metric, unit in units.items():
        print(f"{name} {metric} = {metrics[metric]:.6g} {unit} (n={samples})")
    print(f"{name} fail_frac = {runner.failed / runner.attempted:.6g} ratio "
          f"(n={runner.attempted})")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def run_many(names, passes, seed):
    """Each workload and pass in its own process, metrics merged by name."""
    results = []
    for name in names:
        for trace in passes:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(seed), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}
            results.append((name, result))
    return {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{m}": v for name, r in results
                    for m, v in r["metrics"].items()},
    }


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=spec["workloads"] + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one pass only: 0 end-to-end, 1 per-layer")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be BENCHMARK.json's run_seconds "
                     f"({spec['run_seconds']})")
    names = spec["workloads"] if args.workload == "all" else [args.workload]
    passes = (0, 1) if args.trace is None else (args.trace,)
    if len(names) * len(passes) > 1:
        result = run_many(names, passes, args.seed)
    else:
        try:
            result = run_workload(names[0], args.seed, args.seconds,
                                  passes[0], spec)
        except (ImportError, OSError, subprocess.CalledProcessError) as exc:
            print(f"benchmark cannot run: {exc}", file=sys.stderr)
            return 2
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
