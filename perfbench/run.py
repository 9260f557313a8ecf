"""End-to-end cluster-run benchmark: whole simulated runs, timed on the host.

Each run of this script measures one workload (see ``workloads.py`` for
the three and why each exists) at one seed, in its own process::

    python3 perfbench/run.py --workload open-mamut --seed 0 --seconds 30 --trace 0

A simulation run is a batch job, so the headline is work done per host
second at the workload's fixed input size.  With ``--trace 0`` the script
builds a fresh generator + orchestrator and runs it again and again for
``--seconds``, then reports the end-to-end metrics:

* ``setup_s`` -- fresh interpreter to ready orchestrator (import ``repro``,
  build generator and orchestrator), median of several child processes;
* ``run_s`` -- ``ClusterOrchestrator.run`` plus ``ClusterResult.summary``,
  median of the repetitions;
* ``frames_per_s`` -- simulated frames transcoded per second of ``run_s``;
* ``peak_rss_mb`` -- the process's maximum resident set;
* ``sim_qos_violation_pct``, ``sim_energy_per_frame_j``, ``sim_psnr_db`` --
  the paper's QoS, energy and quality trade-off.  They are seed-determined
  and repeat exactly; a speed change must leave them (and the pinned
  fingerprint) unchanged.

Other tenants of the shared host slow it down by up to 2.5x, in spells
from under a second to minutes, so ``setup_s`` and ``run_s`` are in
reference seconds: host seconds scaled by how fast a fixed reference
kernel (``hostspeed.py``) ran beside them on the same core.  A timed run
is interrupted every 25 ms for a short slice of the kernel
(``hostspeed.Gauge``, slices excluded from the run's time); a set-up probe
is a child process, so it is scaled by a whole kernel pass timed just
before and just after it.  Repetitions take turns on the process's cores.
The raw host times, stretches and slice times go to the results artifact.

With ``--trace 1`` it alternates untraced runs with runs traced by
``layers.LayerTracer`` and reports per-layer self time, share and exact
counts, the unattributed orchestrator-loop time, the tracing overhead and
``sim_shed_pct``.

Every run passes the output checks in ``checks.py`` or counts as failed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a provenance-stamped copy with
the per-run figures goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import srcpath  # noqa: F401  (puts src/ on sys.path)
import checks
import hostspeed
import layers
import workloads
from repro.telemetry import stamp_provenance

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: Child processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 11
#: Whole runs measured at least, however short ``--seconds`` is.
MIN_RUNS = 3
#: Traced (and untraced) runs at least in a ``--trace 1`` measurement.
MIN_TRACED_RUNS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_qos_violation_pct": "%",
    "sim_energy_per_frame_j": "J",
    "sim_psnr_db": "dB",
}

#: Extra per-layer metrics beyond ``<layer>.calls/.self_s/.share_pct``.
LAYER_EXTRA_UNITS = {
    "workload.frames_generated": "count",
    "workload.us_per_frame": "us",
    "admission.queued": "count",
    "manager.sessions_built": "count",
    "autoscale.resizes": "count",
    "batch.constructions": "count",
    "batch.construct_s": "s",
    "batch.churn_pct": "%",
    "batch.us_per_frame": "us",
    "mamut.activations": "count",
    "mamut.us_per_activation": "us",
    "eval.lanes": "count",
    "eval.ns_per_lane": "ns",
    "faults.crashes": "count",
    "faults.retries": "count",
    "faults.snapshots": "count",
    "telemetry.spans": "count",
    "cluster.unattributed_s": "s",
    "cluster.unattributed_pct": "%",
    "trace.overhead_pct": "%",
    "sim_shed_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in layers.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share_pct"] = "%"
    units.update(LAYER_EXTRA_UNITS)
    return units


@dataclasses.dataclass
class Outcome:
    """One whole cluster run: its timing, outputs and check failures."""

    #: Host seconds of the run (without the gauge's slices, if gauged).
    wall_s: float
    frames: int
    fingerprint: str
    errors: list[str]
    sim: dict[str, float]
    layer_self_s: dict[str, float] = dataclasses.field(default_factory=dict)
    counts: dict[str, int] = dataclasses.field(default_factory=dict)
    construct_s: float = 0.0
    #: Reference seconds of the run, and the gauge's raw figures.
    reference_s: float = 0.0
    stretches: list[float] = dataclasses.field(default_factory=list)
    slices: list[float] = dataclasses.field(default_factory=list)


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def run_once(name: str, seed: int, traced: bool, gauged: bool = False) -> Outcome:
    """Build a fresh scenario, run it (timed, and gauged against the host
    speed if asked), and check its outputs."""
    gc.collect()
    scenario = workloads.build(name, seed)
    tracer = layers.LayerTracer(scenario.cluster) if traced else None
    gauge = hostspeed.Gauge()
    try:
        with gauge.running() if gauged else contextlib.nullcontext():
            start = time.perf_counter()
            result = scenario.cluster.run(
                scenario.duration, telemetry=scenario.telemetry
            )
            summary = result.summary()
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    if gauged:
        wall = gauge.host_s

    records = checks.frame_records(result)
    frames = len(records)
    outcome = Outcome(
        wall_s=wall,
        frames=frames,
        fingerprint=checks.fingerprint(summary, result),
        errors=checks.ledger_errors(summary, scenario.sink),
        sim={
            "sim_qos_violation_pct": summary.qos_violation_pct,
            "sim_energy_per_frame_j": _ratio(summary.fleet_energy_j, frames),
            "sim_psnr_db": _ratio(sum(r.psnr_db for r in records), frames),
            "sim_shed_pct": 100.0 * summary.shed_rate,
        },
    )
    if tracer is not None:
        outcome.layer_self_s = dict(tracer.self_s)
        outcome.construct_s = tracer.construct_s
        outcome.counts = dict(tracer.counts)
        outcome.counts["autoscale.resizes"] = len(result.scaling_events)
        outcome.counts["faults.crashes"] = sum(
            1 for event in result.fault_events if event.kind == "crash"
        )
        outcome.counts["faults.retries"] = result.retried
        attributed = sum(tracer.self_s.values())
        if abs(attributed - tracer.top_level_s) > 1e-6 or attributed > wall:
            outcome.errors.append(
                f"trace: layer self times sum to {attributed:.6f} s, wrapped "
                f"calls to {tracer.top_level_s:.6f} s, run wall {wall:.6f} s"
            )
    if gauged:
        outcome.reference_s = gauge.reference_s
        outcome.stretches = gauge.stretches
        outcome.slices = gauge.slices
    if frames == 0:
        outcome.errors.append("run transcoded no frames")
    return outcome


def check_outcomes(name: str, seed: int, outcomes: list[Outcome]) -> None:
    """Compare every run's fingerprint with the pin (or the first run's)."""
    pinned = checks.load_pins().get(name, {}).get(str(seed))
    expected = pinned if pinned is not None else outcomes[0].fingerprint
    source = "pinned" if pinned is not None else "first run's"
    for outcome in outcomes:
        if outcome.fingerprint != expected:
            outcome.errors.append(
                f"fingerprint {outcome.fingerprint[:16]} != {source} {expected[:16]}"
            )


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Host seconds from starting a fresh interpreter to its ready
    orchestrator, and the mean of a reference kernel pass just before and
    one just after."""
    before = hostspeed.kernel_s()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), name, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        probe.wait(timeout=120)
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {probe.returncode})")
    return elapsed, (before + hostspeed.kernel_s()) / 2


def repeat(seconds: float, minimum: int, body) -> None:
    """Call ``body()`` until ``seconds`` passed and it ran ``minimum`` times.

    Each call is pinned to the next of the process's cores in turn (child
    processes inherit it), so a call and its reference kernel share a core
    and a core slowed on its own weighs on only part of the calls.
    """
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    done = 0
    try:
        while done < minimum or time.perf_counter() - start < seconds:
            os.sched_setaffinity(0, {cpus[done % len(cpus)]})
            body()
            done += 1
    finally:
        os.sched_setaffinity(0, cpus)


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, list[Outcome], dict]:
    setup: list[tuple[float, float]] = []
    repeat(0.0, SETUP_PROBES, lambda: setup.append(measure_setup(name, seed)))
    outcomes: list[Outcome] = []
    repeat(
        seconds, MIN_RUNS, lambda: outcomes.append(run_once(name, seed, False, True))
    )
    check_outcomes(name, seed, outcomes)
    first = outcomes[0]
    metrics = {
        "setup_s": statistics.median(hostspeed.scaled(*probe) for probe in setup),
        "run_s": statistics.median(o.reference_s for o in outcomes),
        "frames_per_s": statistics.median(o.frames / o.reference_s for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_qos_violation_pct": first.sim["sim_qos_violation_pct"],
        "sim_energy_per_frame_j": first.sim["sim_energy_per_frame_j"],
        "sim_psnr_db": first.sim["sim_psnr_db"],
    }
    return metrics, outcomes, {
        "setup_host_s": [elapsed for elapsed, _ in setup],
        "setup_kernel_s": [kernel for _, kernel in setup],
    }


def per_layer(name: str, seed: int, seconds: float) -> tuple[dict, list[Outcome], dict]:
    untraced: list[Outcome] = []
    traced: list[Outcome] = []

    def pair() -> None:
        untraced.append(run_once(name, seed, False))
        traced.append(run_once(name, seed, True))

    repeat(seconds, MIN_TRACED_RUNS, pair)
    check_outcomes(name, seed, untraced + traced)
    counts = traced[0].counts
    for outcome in traced[1:]:
        varied = sorted(k for k in counts if outcome.counts.get(k) != counts[k])
        if varied:
            outcome.errors.append(f"determinism: counts varied across traced runs: {varied}")

    median = statistics.median
    metrics: dict[str, float] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.calls"] = counts[f"{layer}.calls"]
        metrics[f"{layer}.self_s"] = median(o.layer_self_s[layer] for o in traced)
        metrics[f"{layer}.share_pct"] = median(
            _ratio(o.layer_self_s[layer], o.wall_s, 100.0) for o in traced
        )
    frames = traced[0].frames
    self_s = {layer: metrics[f"{layer}.self_s"] for layer in layers.LAYERS}
    unattributed = [o.wall_s - sum(o.layer_self_s.values()) for o in traced]
    metrics.update(
        {
            "workload.frames_generated": counts["workload.frames_generated"],
            "workload.us_per_frame": _ratio(
                self_s["workload"], counts["workload.frames_generated"], 1e6
            ),
            "admission.queued": counts["admission.queued"],
            "manager.sessions_built": counts["manager.sessions_built"],
            "autoscale.resizes": counts["autoscale.resizes"],
            "batch.constructions": counts["batch.constructions"],
            "batch.construct_s": median(o.construct_s for o in traced),
            "batch.churn_pct": _ratio(
                counts["batch.roster_changes"], counts["batch.steps"], 100.0
            ),
            "batch.us_per_frame": _ratio(self_s["batch"], frames, 1e6),
            "mamut.activations": counts["mamut.activations"],
            "mamut.us_per_activation": _ratio(
                self_s["mamut"], counts["mamut.activations"], 1e6
            ),
            "eval.lanes": counts["eval.lanes"],
            "eval.ns_per_lane": _ratio(self_s["eval"], counts["eval.lanes"], 1e9),
            "faults.crashes": counts["faults.crashes"],
            "faults.retries": counts["faults.retries"],
            "faults.snapshots": counts["faults.snapshots"],
            "telemetry.spans": counts["telemetry.spans"],
            "cluster.unattributed_s": median(unattributed),
            "cluster.unattributed_pct": median(
                _ratio(u, o.wall_s, 100.0) for u, o in zip(unattributed, traced)
            ),
            "trace.overhead_pct": _ratio(
                median(o.wall_s for o in traced),
                median(o.wall_s for o in untraced),
                100.0,
            )
            - 100.0,
            "sim_shed_pct": traced[0].sim["sim_shed_pct"],
        }
    )
    return metrics, untraced + traced, {"traced_wall_s": [o.wall_s for o in traced]}


def write_artifact(name: str, seed: int, trace: int, payload: dict) -> None:
    """Provenance-stamped copy of the result; ``repro obs compare`` reads it."""
    stamp_provenance(
        payload,
        kind="perfbench",
        seed=seed,
        config={"workload": name, "trace": bool(trace), **workloads.CONFIGS[name]},
    )
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.trace:
        metrics, outcomes, extra = per_layer(args.workload, args.seed, args.seconds)
        units = per_layer_units()
    else:
        metrics, outcomes, extra = end_to_end(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    failed = [o for o in outcomes if o.errors]
    for outcome in failed:
        for error in outcome.errors:
            print(f"perfbench: {args.workload} seed {args.seed}: {error}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {
            key: {"value": metrics[key], "unit": unit} for key, unit in units.items()
        },
    }
    write_artifact(
        args.workload,
        args.seed,
        args.trace,
        {
            **result,
            "run_wall_s": [o.wall_s for o in outcomes],
            "run_reference_s": [o.reference_s for o in outcomes],
            "run_stretches_s": [o.stretches for o in outcomes],
            "run_slices_s": [o.slices for o in outcomes],
            **extra,
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
