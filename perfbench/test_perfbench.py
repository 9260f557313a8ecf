"""Tests of the benchmark itself: the tracer only observes, its arithmetic
reconciles, the output checks catch what they claim to, and the script
refuses to run outside a full checkout.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import srcpath  # noqa: E402,F401
import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.cluster import (  # noqa: E402
    ClusterOrchestrator,
    FaultConfig,
    PoissonTraffic,
    WorkloadGenerator,
)
from repro.telemetry import ListTraceSink, TelemetryConfig  # noqa: E402

HERE = Path(__file__).resolve().parent


def _small_cluster(faults=None) -> ClusterOrchestrator:
    workload = WorkloadGenerator(PoissonTraffic(1.5), seed=3, frames_per_video=6)
    return ClusterOrchestrator(4, workload, seed=3, faults=faults)


def _run(cluster: ClusterOrchestrator, traced: bool, telemetry=None):
    tracer = layers.LayerTracer(cluster) if traced else None
    try:
        result = cluster.run(20, telemetry=telemetry)
        summary = result.summary()
    finally:
        if tracer is not None:
            tracer.restore()
    return tracer, result, summary


@pytest.mark.parametrize("faults", [None, FaultConfig(crash_mtbf_steps=15.0, seed=1)])
def test_tracer_only_observes_and_reconciles(faults):
    _, plain, plain_summary = _run(_small_cluster(faults), traced=False)
    tracer, traced, traced_summary = _run(_small_cluster(faults), traced=True)
    assert checks.fingerprint(traced_summary, traced) == checks.fingerprint(
        plain_summary, plain
    )
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.top_level_s, abs=1e-9)
    assert all(value >= 0.0 for value in tracer.self_s.values())
    counts = tracer.counts
    assert counts["workload.calls"] == 20
    assert counts["manager.sessions_built"] == traced_summary.admitted + traced.retried
    assert counts["batch.steps"] >= counts["batch.roster_changes"] > 0
    assert (counts["faults.calls"] > 0) == (faults is not None)
    assert counts["telemetry.calls"] == 0  # only the disabled hub was called


def test_tracer_restores_every_patch():
    import repro.cluster.cluster as cluster_module
    from repro.cluster import BatchStepper

    cluster = _small_cluster()
    policy = type(cluster.admission)

    def bound():
        return (
            BatchStepper.step,
            WorkloadGenerator.arrivals,
            cluster_module.snapshot_session,
            policy.decide,
            cluster.controller_factory,
        )

    before = bound()
    tracer = layers.LayerTracer(cluster)
    assert all(a is not b for a, b in zip(bound(), before))
    tracer.restore()
    assert all(a is b for a, b in zip(bound(), before))


def test_gauge_scales_each_stretch_and_leaves_gc_and_timer_alone():
    import gc
    import os
    import signal

    assert gc.isenabled()
    nominal = hostspeed.PASS_SLICES * hostspeed.SLICE_NOMINAL_S
    assert hostspeed.kernel_s() > 0
    assert hostspeed.scaled(3.0, 2 * nominal) == pytest.approx(1.5)
    gauge = hostspeed.Gauge()
    handler = signal.getsignal(signal.SIGALRM)
    with gauge.running():
        _, plain, summary = _run(_small_cluster(), traced=False)
    assert gc.isenabled()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(gauge.slices) == len(gauge.stretches) >= 2
    assert gauge.host_s == pytest.approx(sum(gauge.stretches))
    assert gauge.reference_s == pytest.approx(
        sum(
            stretch * hostspeed.SLICE_NOMINAL_S / spent
            for stretch, spent in zip(gauge.stretches, gauge.slices)
        )
    )
    # The interruptions leave the run's outputs bit-identical.
    _, again, again_summary = _run(_small_cluster(), traced=False)
    assert checks.fingerprint(summary, plain) == checks.fingerprint(again_summary, again)

    cpus = os.sched_getaffinity(0)
    seen = []
    run.repeat(0.0, 3, lambda: seen.append(os.sched_getaffinity(0)))
    assert all(len(pinned) == 1 and pinned <= cpus for pinned in seen)
    assert os.sched_getaffinity(0) == cpus


def test_telemetry_layer_counts_live_spans():
    sink = ListTraceSink()
    tracer, result, summary = _run(
        _small_cluster(), traced=True, telemetry=TelemetryConfig(trace_sink=sink)
    )
    assert tracer.counts["telemetry.spans"] == sink.count > 0
    assert checks.ledger_errors(summary, sink) == []


def test_ledger_check_catches_a_lost_request():
    _, _, summary = _run(_small_cluster(), traced=False)
    assert checks.ledger_errors(summary) == []
    broken = dataclasses.replace(summary, arrivals=summary.arrivals + 1)
    assert any("ledger" in error for error in checks.ledger_errors(broken))


def test_pins_cover_default_and_held_out_seeds():
    pins = checks.load_pins()
    assert set(pins) == set(workloads.CONFIGS)
    for name in workloads.CONFIGS:
        assert set(pins[name]) == {str(checks.DEFAULT_SEED), str(checks.HELD_OUT_SEED)}


def test_default_seed_matches_its_pin():
    outcome = run.run_once("open-mamut", checks.DEFAULT_SEED, traced=False)
    assert outcome.errors == []
    assert outcome.fingerprint == checks.load_pins()["open-mamut"][str(checks.DEFAULT_SEED)]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.CONFIGS)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "open-mamut", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
