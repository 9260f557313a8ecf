"""Steps/sec of the scalar vs. batch stepping engine across fleet sizes.

Not a paper figure — this is the performance trajectory of the cluster
stepping hot path.  For each fleet size the fleet is saturated with two
sessions per server (a step-0 burst admitted by ``AlwaysAdmit`` and spread
by ``RoundRobin``), and the pure stepping loop is then timed through the
public engine APIs (``Orchestrator.run_step``/``idle_step`` for the scalar
engine, :class:`~repro.cluster.batch.BatchStepper` for the batch engine).
Workload/video generation and engine warm-up are excluded, so the numbers
isolate exactly the code the vectorization PR moved onto NumPy.

Results are written to ``BENCH_throughput.json`` at the repository root so
future PRs can regress against them.  Rows are recorded per controller and
*merged* into the JSON — running ``--controller mamut`` updates the MAMUT
rows while keeping the static ones::

    PYTHONPATH=src python benchmarks/bench_step_throughput.py                     # static rows
    PYTHONPATH=src python benchmarks/bench_step_throughput.py --controller mamut  # learning rows
    PYTHONPATH=src python benchmarks/bench_step_throughput.py --smoke             # CI

The full run asserts the batch engine's speedup floor at 64+ servers (>= 5x
for static controllers, >= 3x for MAMUT learning controllers, whose
per-session RNG draws and Q updates are irreducibly scalar); the smoke run
only checks that both engines step a tiny fleet and agree on the session
count (a rot canary for the batch path, cheap enough for CI).  Both modes
also guard the telemetry contract: a disabled profiler hook on the hot path
must stay within :data:`OVERHEAD_BOUND_US` per call.  ``--profile`` runs an
instrumented pass per engine and reports where the step time goes
(gather/evaluate/scatter/mamut for batch; decide/allocate/execute for
scalar).
"""

from __future__ import annotations

import argparse
import json
import logging
import platform
import time
from pathlib import Path

from repro.cluster import (
    AlwaysAdmit,
    BatchStepper,
    ClusterOrchestrator,
    RoundRobin,
    WorkloadGenerator,
)
from repro.cluster.workload import TrafficModel
from repro.manager.factories import mamut_factory, static_factory
from repro.telemetry import (
    LOG_LEVELS,
    NULL_PROFILER,
    StepProfiler,
    configure_logging,
    stamp_provenance,
)

_LOG = logging.getLogger("repro.benchmarks.step_throughput")

FULL_FLEETS = (1, 8, 64, 256)
SMOKE_FLEETS = (1, 4)
SESSIONS_PER_SERVER = 2
SPEEDUP_FLOORS = {"static": 5.0, "mamut": 3.0}
SPEEDUP_FLOOR_FROM_SERVERS = 64

#: Ceiling on the cost of one *disabled* profiler hook (the null context
#: manager every engine phase enters even with telemetry off).  Generous —
#: the observed cost is well under a microsecond — but low enough to catch
#: an accidental always-on timer or allocation sneaking onto the hot path.
OVERHEAD_BOUND_US = 5.0


class Burst(TrafficModel):
    """All arrivals in step 0 — saturates the fleet, then steady stepping."""

    def __init__(self, size: int) -> None:
        self.size = size

    def rate(self, step: int) -> float:
        return float(self.size) if step == 0 else 0.0


def _build_cluster(
    servers: int, steps: int, controller: str, engine: str
) -> ClusterOrchestrator:
    factory = (
        static_factory(qp=32, threads=4, frequency_ghz=3.2)
        if controller == "static"
        else mamut_factory()
    )
    workload = WorkloadGenerator(
        Burst(servers * SESSIONS_PER_SERVER),
        seed=0,
        frames_per_video=steps + 8,
    )
    return ClusterOrchestrator(
        servers,
        workload,
        admission=AlwaysAdmit(),
        dispatcher=RoundRobin(),
        controller_factory=factory,
        seed=0,
        engine=engine,
    )


def _measure(servers: int, steps: int, controller: str, engine: str) -> dict:
    """Time ``steps`` stepping iterations on a saturated fleet."""
    cluster = _build_cluster(servers, steps, controller, engine)
    # Admit the burst and absorb video generation outside the timed region.
    cluster.run(1, drain=False)
    sessions = sum(
        len(orch.active_sessions()) for orch in cluster.orchestrators
    )

    orchestrators = cluster.orchestrators
    if engine == "batch":
        stepper = BatchStepper(orchestrators)
        # warm-up: roster gather + first fused evaluation
        stepper.step(1, [orch.active_sessions() for orch in orchestrators])
        start = time.perf_counter()
        for step in range(2, steps + 2):
            stepper.step(step, [orch.active_sessions() for orch in orchestrators])
        elapsed = time.perf_counter() - start
    else:
        for orch in orchestrators:  # warm-up step, symmetric with batch
            if orch.run_step(1) is None:
                orch.idle_step(1)
        start = time.perf_counter()
        for step in range(2, steps + 2):
            for orch in orchestrators:
                if orch.run_step(step) is None:
                    orch.idle_step(step)
        elapsed = time.perf_counter() - start

    frames = sessions * steps
    return {
        "servers": servers,
        "engine": engine,
        "controller": controller,
        "sessions": sessions,
        "steps": steps,
        "elapsed_s": elapsed,
        "steps_per_s": steps / elapsed,
        "frames_per_s": frames / elapsed if elapsed > 0 else 0.0,
    }


def _profile(servers: int, steps: int, controller: str, engine: str) -> dict:
    """Run one instrumented pass and return the per-phase attribution."""
    cluster = _build_cluster(servers, steps, controller, engine)
    cluster.run(1, drain=False)
    profiler = StepProfiler()
    if engine == "batch":
        orchestrators = cluster.orchestrators
        stepper = BatchStepper(orchestrators, profiler=profiler)
        for step in range(1, steps + 1):
            stepper.step(step, [orch.active_sessions() for orch in orchestrators])
            profiler.count_step()
    else:
        for orch in cluster.orchestrators:
            orch.profiler = profiler
        for step in range(1, steps + 1):
            for orch in cluster.orchestrators:
                if orch.run_step(step) is None:
                    orch.idle_step(step)
            profiler.count_step()
    return profiler.report()


def profile_engines(servers: int, steps: int, controller: str) -> dict:
    """Report where the step time goes, per engine (``--profile``)."""
    reports = {}
    for engine in ("scalar", "batch"):
        report = _profile(servers, steps, controller, engine)
        reports[engine] = report
        _LOG.info(
            "profile %s: servers=%d steps=%d %.1f steps/s",
            engine,
            servers,
            report["steps"],
            report["steps_per_s"],
        )
        for phase in report["phases"]:
            _LOG.info(
                "  %-10s %8.2f ms  %6d calls  %5.1f%%",
                phase["name"],
                phase["total_s"] * 1e3,
                phase["calls"],
                phase["share"] * 100.0,
            )
    return reports


def check_disabled_overhead(calls: int = 100_000) -> float:
    """Assert a disabled profiler hook costs < OVERHEAD_BOUND_US per call.

    This is the "zero overhead when disabled" guard: every engine phase
    enters this null context manager even with telemetry off, so its cost
    bounds what the telemetry subsystem adds to an uninstrumented run.
    """
    phase = NULL_PROFILER.phase
    start = time.perf_counter()
    for _ in range(calls):
        with phase("evaluate"):
            pass
    per_call_us = (time.perf_counter() - start) / calls * 1e6
    assert per_call_us < OVERHEAD_BOUND_US, (
        f"disabled telemetry hook costs {per_call_us:.2f}us per call "
        f"(bound {OVERHEAD_BOUND_US}us) — the null profiler is no longer free"
    )
    _LOG.info(
        "disabled-telemetry hook: %.3fus per call (bound %.1fus) ok",
        per_call_us,
        OVERHEAD_BOUND_US,
    )
    return per_call_us


def run_benchmark(
    fleets: tuple[int, ...], steps: int, controller: str
) -> dict:
    results = []
    speedups = {}
    for servers in fleets:
        scalar = _measure(servers, steps, controller, "scalar")
        batch = _measure(servers, steps, controller, "batch")
        results.extend([scalar, batch])
        speedup = batch["steps_per_s"] / scalar["steps_per_s"]
        speedups[str(servers)] = speedup
        _LOG.info(
            "servers=%4d sessions=%4d scalar=%9.1f steps/s "
            "batch=%9.1f steps/s speedup=%5.2fx",
            servers,
            batch["sessions"],
            scalar["steps_per_s"],
            batch["steps_per_s"],
            speedup,
        )
    return {
        "benchmark": "step_throughput",
        "controller": controller,
        "sessions_per_server": SESSIONS_PER_SERVER,
        "steps_timed": steps,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
        "speedup_batch_over_scalar": speedups,
    }


def merge_into_output(payload: dict, output: Path) -> dict:
    """Merge one controller's rows into the (multi-controller) results file.

    The file keeps one ``results`` list covering every controller plus a
    per-controller ``speedup_batch_over_scalar`` mapping; rows of the
    controller just measured replace their previous incarnation, other
    controllers' rows are preserved.
    """
    controller = payload["controller"]
    merged = {
        "benchmark": payload["benchmark"],
        "sessions_per_server": payload["sessions_per_server"],
        "steps_timed": payload["steps_timed"],
        "python": payload["python"],
        "machine": payload["machine"],
        "results": [],
        "speedup_batch_over_scalar": {},
    }
    if output.exists():
        try:
            existing = json.loads(output.read_text())
        except json.JSONDecodeError:
            existing = {}
        merged["speedup_batch_over_scalar"].update(
            existing.get("speedup_batch_over_scalar", {})
        )
        merged["results"] = [
            row
            for row in existing.get("results", [])
            if row["controller"] != controller
        ]
    merged["results"].extend(payload["results"])
    merged["speedup_batch_over_scalar"][controller] = payload[
        "speedup_batch_over_scalar"
    ]
    # Controller is deliberately NOT part of the fingerprint: the merged
    # file accumulates every controller's rows, and wall-clock throughput
    # comparisons need a tolerance anyway — config pins only what shapes
    # the measured work.
    stamp_provenance(
        merged,
        kind="step_throughput",
        seed=0,
        config={
            "sessions_per_server": payload["sessions_per_server"],
            "steps_timed": payload["steps_timed"],
        },
    )
    output.write_text(json.dumps(merged, indent=2) + "\n")
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fleets and few steps: a fast CI canary for the batch path",
    )
    parser.add_argument(
        "--controller",
        choices=("static", "mamut"),
        default="static",
        help="per-session controller (static isolates the stepping engine)",
    )
    parser.add_argument(
        "--steps", type=int, default=None, help="stepping iterations to time"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_throughput.json",
        help="where to write the JSON results (skipped in smoke mode)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also run an instrumented pass per engine and report per-phase "
        "wall time (gather/evaluate/scatter/mamut vs. decide/allocate/execute)",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="verbosity of the repro logger",
    )
    args = parser.parse_args()
    configure_logging(args.log_level)

    fleets = SMOKE_FLEETS if args.smoke else FULL_FLEETS
    steps = args.steps if args.steps is not None else (6 if args.smoke else 60)

    # Telemetry contract: the disabled hooks the timed loops just ran
    # through must be effectively free.
    check_disabled_overhead()

    payload = run_benchmark(fleets, steps, args.controller)

    if args.profile:
        profile_engines(max(fleets), steps, args.controller)

    if args.smoke:
        # Rot canary: both engines stepped a saturated fleet.
        counts = {
            (r["servers"], r["engine"]): r["sessions"]
            for r in payload["results"]
        }
        for servers in fleets:
            assert counts[(servers, "scalar")] == counts[(servers, "batch")] > 0
        _LOG.info("smoke ok")
        return

    merge_into_output(payload, args.output)
    _LOG.info("merged %s rows into %s", args.controller, args.output)

    floor = SPEEDUP_FLOORS[args.controller]
    floor_fleets = [s for s in fleets if s >= SPEEDUP_FLOOR_FROM_SERVERS]
    for servers in floor_fleets:
        speedup = payload["speedup_batch_over_scalar"][str(servers)]
        assert speedup >= floor, (
            f"batch engine speedup regressed ({args.controller}): "
            f"{speedup:.2f}x at {servers} servers (floor {floor}x)"
        )
    if floor_fleets:
        _LOG.info(
            "speedup floor (%sx at 64+ servers, %s) holds",
            floor,
            args.controller,
        )


if __name__ == "__main__":
    main()
