"""The benchmark's three workloads: whole simulated cluster runs.

Every workload is one :meth:`ClusterOrchestrator.run` on the batch engine
(the default; the scalar engine is the reference the tests compare
against, so it is not a workload), built fresh from the workload seed:
arrivals are open-loop in *simulated* time, drawn by
:class:`~repro.cluster.WorkloadGenerator`, and the seed also drives the
controllers, the fault schedule and the failure topology.

Why each workload exists:

* ``open-mamut`` -- 64 servers, default MAMUT controllers,
  ``PoissonTraffic(0.12 * 64)``, single 16-frame videos, default admission
  and dispatch; the load never builds a queue.  The roster changes on
  every step and every arrival builds a ``MamutController``.  Roster
  re-gather, MAMUT activations, controller construction and generation
  therefore dominate.
* ``flash-elastic`` -- 16 servers, growing to 64 under
  ``ReactiveThreshold``, hit by ``FlashCrowdTraffic(1.0,
  peak_multiplier=10, start=100, duration=80)`` with 2 x 32-frame
  playlists and patience 15; ``CapacityThreshold`` admission (4 per
  server, queue of 96, 2 brownout slots) plus a ``BrownoutController``
  with a degraded static factory; static controllers.  It exercises
  queueing, rejects and drops, autoscale resizes that throw the stepper
  away, and generation of traffic that is later shed.  It does no MAMUT
  work, so a ``core`` change must predict no change here.
* ``cohort-chaos`` -- a closed cohort: a step-0 burst puts 48 servers x 3
  sessions on 4 x 60-frame playlists, like the paper's Scenario II; MAMUT
  controllers, ``FailureAware`` dispatch, a ``FaultConfig`` over 4 zones x
  2 racks with a crash MTBF, one declared zone kill, checkpoints every 8
  frames and 3 retries; telemetry on (an in-memory ``ListTraceSink``,
  metrics and two SLO objectives).  The roster changes on only a few
  per cent of steps, so the stepping kernels dominate, and an
  incremental-roster change must predict no change here.  It is also the
  only workload that runs ``cluster.faults``, ``core.persistence`` and
  ``telemetry``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.cluster import (
    BrownoutController,
    CapacityThreshold,
    ClusterOrchestrator,
    FailureAware,
    FailureTopology,
    FaultConfig,
    FlashCrowdTraffic,
    KillEntry,
    KillSchedule,
    PoissonTraffic,
    ReactiveThreshold,
    TrafficModel,
    WorkloadGenerator,
)
from repro.manager.factories import mamut_factory, static_factory
from repro.telemetry import (
    ListTraceSink,
    QueueWaitObjective,
    ShedRateObjective,
    TelemetryConfig,
)

__all__ = ["CONFIGS", "Scenario", "build"]


class StepZeroBurst(TrafficModel):
    """All traffic arrives at step 0: a closed cohort, not an open stream."""

    def __init__(self, sessions: float) -> None:
        self.sessions = float(sessions)

    def rate(self, step: int) -> float:
        return self.sessions if step == 0 else 0.0


#: The cohort burst overshoots 48 x 3 by a quarter, so that the Poisson
#: draw all but always fills every slot: admission caps each server at 3
#: sessions with no queue, which makes the cohort exactly 144 sessions on
#: every seed and turns the overshoot away at the door.
COHORT_BURST = 48 * 3 * 1.25

#: Every knob that shapes a workload's results; stamped as the provenance
#: ``config`` of the artifacts the benchmark writes.
CONFIGS: dict[str, dict] = {
    "open-mamut": {
        "servers": 64,
        "traffic": "PoissonTraffic(0.12 * 64)",
        "frames_per_video": 16,
        "playlist_videos": 1,
        "controllers": "mamut",
        "admission": "CapacityThreshold()",
        "dispatch": "LeastLoaded()",
        "duration": 200,
    },
    "flash-elastic": {
        "servers": 16,
        "max_servers": 64,
        "traffic": "FlashCrowdTraffic(1.0, peak_multiplier=10, start=100, duration=80)",
        "frames_per_video": 32,
        "playlist_videos": 2,
        "patience_steps": 15,
        "controllers": "static(qp=32, threads=4, 3.2 GHz)",
        "degraded_controllers": "static(qp=40, threads=2, 3.2 GHz)",
        "admission": "CapacityThreshold(4, max_queue=96, brownout_extra_sessions=2)",
        "autoscaler": "ReactiveThreshold(sessions_per_server=4)",
        "brownout": "BrownoutController(sessions_per_server=4)",
        "duration": 240,
    },
    "cohort-chaos": {
        "servers": 48,
        "traffic": f"StepZeroBurst({COHORT_BURST})",
        "frames_per_video": 60,
        "playlist_videos": 4,
        "controllers": "mamut",
        "admission": "CapacityThreshold(3, max_queue=0)",
        "dispatch": "FailureAware()",
        "faults": "zones=4 racks=2 crash_mtbf=4000 kill=1:60:20 ckpt=8 retries=3",
        "telemetry": "ListTraceSink + metrics + SLO(queue-wait p95, shed rate)",
        "duration": 240,
    },
}


@dataclasses.dataclass
class Scenario:
    """One ready-to-run workload: a fresh orchestrator and how to run it.

    ``telemetry`` is passed to ``run``; ``sink`` is the in-memory trace it
    fills, which the output check reconciles with the summary.
    """

    cluster: ClusterOrchestrator
    duration: int
    telemetry: Optional[TelemetryConfig] = None
    sink: Optional[ListTraceSink] = None


def _open_mamut(seed: int) -> Scenario:
    workload = WorkloadGenerator(
        PoissonTraffic(0.12 * 64), seed=seed, frames_per_video=16
    )
    cluster = ClusterOrchestrator(
        64, workload, controller_factory=mamut_factory(), seed=seed
    )
    return Scenario(cluster, CONFIGS["open-mamut"]["duration"])


def _flash_elastic(seed: int) -> Scenario:
    workload = WorkloadGenerator(
        FlashCrowdTraffic(1.0, peak_multiplier=10, start=100, duration=80),
        seed=seed,
        playlist_videos=2,
        frames_per_video=32,
        patience_steps=15,
    )
    brownout = BrownoutController(
        sessions_per_server=4,
        degraded_factory=static_factory(qp=40, threads=2, frequency_ghz=3.2),
    )
    cluster = ClusterOrchestrator(
        16,
        workload,
        admission=CapacityThreshold(4, max_queue=96, brownout_extra_sessions=2),
        controller_factory=static_factory(qp=32, threads=4, frequency_ghz=3.2),
        seed=seed,
        autoscaler=ReactiveThreshold(sessions_per_server=4),
        min_servers=16,
        max_servers=64,
        brownout=brownout,
    )
    return Scenario(cluster, CONFIGS["flash-elastic"]["duration"])


def _cohort_chaos(seed: int) -> Scenario:
    workload = WorkloadGenerator(
        StepZeroBurst(COHORT_BURST), seed=seed, playlist_videos=4, frames_per_video=60
    )
    faults = FaultConfig(
        crash_mtbf_steps=4000,
        max_retries=3,
        seed=seed,
        topology=FailureTopology(zones=4, racks_per_zone=2, seed=seed),
        kill_schedule=KillSchedule((KillEntry(zone=1, step=60, duration=20),)),
        checkpoint_interval_frames=8,
    )
    cluster = ClusterOrchestrator(
        48,
        workload,
        admission=CapacityThreshold(3, max_queue=0),
        dispatcher=FailureAware(),
        controller_factory=mamut_factory(),
        seed=seed,
        faults=faults,
    )
    sink = ListTraceSink()
    telemetry = TelemetryConfig(
        trace_sink=sink,
        metrics=True,
        slo=(QueueWaitObjective("queue-wait-p95"), ShedRateObjective("shed-rate")),
    )
    return Scenario(cluster, CONFIGS["cohort-chaos"]["duration"], telemetry, sink)


_BUILDERS: dict[str, Callable[[int], Scenario]] = {
    "open-mamut": _open_mamut,
    "flash-elastic": _flash_elastic,
    "cohort-chaos": _cohort_chaos,
}


def build(name: str, seed: int) -> Scenario:
    """A fresh generator + orchestrator for workload ``name`` at ``seed``."""
    return _BUILDERS[name](seed)
