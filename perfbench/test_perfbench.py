"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import os
import sys
import time

import pytest

import hostspeed
import run
import tracer

cli = run.import_cli()

SMALL_CONFIG = """
[kernel]
family = liouville_fbm
hurst = 0.75

[grids]
n_time = 16
n_space = 33
n_var = 64

[driver]
expr = -y + 0.5*sin(z)
lipschitz = 1.5

[terminal]
expr = cos(x)
"""


def _package_attributes():
    return {(name, attr): obj
            for name, mod in sys.modules.items()
            if name.split(".")[0] == "volterra_bsde"
            for attr, obj in vars(mod).items()}


def test_tracer_restores_every_attribute():
    before = _package_attributes()
    with tracer.Tracer():
        during = _package_attributes()
        # names bound by `from .x import y` are wrapped too
        for mod, attr in [("bsde", "_normal_increments"),
                          ("bsde", "bilinear_interp"),
                          ("bsde", "solve_semilinear_picard"),
                          ("config", "variance_curve")]:
            key = (f"volterra_bsde.{mod}", attr)
            assert during[key] is not before[key]
            assert during[key].__wrapped__ is before[key]
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_exception():
    before = _package_attributes()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    after = _package_attributes()
    assert all(after[k] is before[k] for k in before)


def test_self_times_nonnegative_and_sum_to_root(tmp_path):
    config = tmp_path / "small.ini"
    config.write_text(SMALL_CONFIG)
    with tracer.Tracer() as tr:
        code = cli.run("solve-pde", str(config), str(tmp_path / "out"), seed=3)
    assert code == 0
    spans = tr.spans
    assert spans[0][0] == "cli.run" and spans[0][3] == -1
    assert all(parent >= 0 for *_, parent in spans[1:])
    own = tracer.self_times_ns(spans)
    assert min(own) >= 0
    assert sum(own) == spans[0][2] - spans[0][1]
    metrics = tracer.layer_metrics(spans, tr.counts)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_sum == pytest.approx((spans[0][2] - spans[0][1]) / 1e9)
    assert metrics["pde.picard_sweeps"] >= 1
    assert metrics["pde.heat_convolve.calls"] >= 16
    assert metrics["operators.variance_curve.calls"] == 1


def test_inclusive_time_counts_recursion_once():
    spans = [["pde.f", 0, 100, -1], ["pde.f", 10, 60, 0], ["bsde.g", 20, 30, 1]]
    metrics = tracer.layer_metrics(spans, {})
    assert metrics["pde.f.s"] == pytest.approx(100e-9)
    assert metrics["pde.f.calls"] == 2
    assert metrics["pde.self_s"] == pytest.approx(90e-9)
    assert metrics["bsde.self_s"] == pytest.approx(10e-9)


def test_host_speed_factor_uses_samples_inside_the_interval():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_KERNEL_S
    speed.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (4.0, ref)]
    assert speed.factor(1.5, 3.5) == pytest.approx(0.5)
    assert speed.factor(0.5, 4.5) == pytest.approx(2 / 3)


def test_host_speed_thread_pauses_and_stops():
    with hostspeed.pinned_to_one_cpu(), hostspeed.HostSpeed() as speed:
        time.sleep(5 * hostspeed.PERIOD_S)
        with speed.paused():
            time.sleep(hostspeed.PERIOD_S)  # a sample under way may finish
            t0 = time.perf_counter()
            time.sleep(5 * hostspeed.PERIOD_S)
            t1 = time.perf_counter()
    assert not speed._thread.is_alive()
    assert speed.samples
    assert not [t for t, _ in speed.samples if t0 <= t <= t1]


def test_pinning_restores_affinity():
    allowed = os.sched_getaffinity(0)
    with hostspeed.pinned_to_one_cpu():
        assert len(os.sched_getaffinity(0)) == 1
    assert os.sched_getaffinity(0) == allowed


def _runner(tmp_path, config_text):
    config = tmp_path / "case.ini"
    config.write_text(config_text)
    return run.Runner(cli, "solve-pde", config, 3, tmp_path / "out")


def test_bad_config_raises_fail_frac(tmp_path):
    runner = _runner(tmp_path, SMALL_CONFIG.replace("liouville_fbm", "no_such_kernel"))
    assert cli.run(*runner.args, seed=3) == 2
    run.run_end_to_end(runner, seconds=0.0)
    assert runner.attempted == 1 + run.MIN_SAMPLES
    assert runner.failed == runner.attempted


def test_good_config_has_no_failures(tmp_path):
    runner = _runner(tmp_path, SMALL_CONFIG)
    run.run_end_to_end(runner, seconds=0.0)
    assert runner.attempted == 1 + run.MIN_SAMPLES
    assert runner.failed == 0
    assert runner.artifact_bytes > 0


def test_changed_manifest_is_a_failure(tmp_path, monkeypatch):
    runner = _runner(tmp_path, SMALL_CONFIG)
    runner.call()
    seeds = iter(range(100, 200))
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda *a, seed: real_run(*a, seed=next(seeds)))
    runner.call()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    names = run.load_spec()["per_layer"]
    runner = _runner(tmp_path, SMALL_CONFIG)
    metrics, samples = run.run_traced(runner, 0.0, tmp_path / "spans.json",
                                      names)
    assert samples == run.MIN_SAMPLES
    assert runner.failed == 0
    assert metrics.keys() == names.keys()
    assert metrics["pde.picard_sweeps"] >= 1
    assert metrics["cli.artifact_bytes"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert spans[0][0] == "cli.run"


def test_run_length_is_fixed_by_benchmark_json():
    seconds = run.load_spec()["run_seconds"]
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "verify-fbm", "--seconds", str(seconds + 1)])
    assert exc.value.code == 2
