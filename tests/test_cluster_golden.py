"""Golden run pins: ``ClusterOrchestrator.run`` reproduces the recorded bytes.

The engine-equivalence tests compare the scalar and batch engines with each
other, so a change to the step loop both engines share — queue ageing,
admission, dispatch, retries, autoscaling, drain, the end-of-run close-out —
moves both sides at once and passes unnoticed.  These SHA-256 digests cannot
be moved that way.  Each one covers a whole run:

* the sorted-key :meth:`~repro.metrics.cluster.ClusterSummary.to_dict`;
* every session's frame records, server by server;
* the fleet trace, the fault events, the scaling events and the queue waits;
* the request-trace span stream, in emission order;
* the Prometheus text of the run's metrics (SLO gauges included).

Two scenarios, two seeds and three run endings (full drain, a 3-step
bounded drain, no drain) make twelve pins, and each must hold on both
engines.  Between them the runs exercise every ledger path: drops,
rejections, abandoned requests, crash retries, failed requests and
browned-out sessions.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json

import pytest

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
    QueueWhileWarming,
    ReactiveThreshold,
    WorkloadGenerator,
)
from repro.manager.factories import static_factory
from repro.telemetry import (
    QueueWaitObjective,
    ShedRateObjective,
    TelemetryConfig,
    ViolationRateObjective,
)
from repro.telemetry.trace import ListTraceSink

DURATION = 50

#: Keyword arguments of ``run()`` for each way a run can end.
ENDINGS = {
    "drain": {},
    "bounded": {"max_drain_steps": 3},
    "nodrain": {"drain": False},
}

#: (scenario, seed, ending) -> sha256 of the run's canonical JSON.
GOLDEN = {
    ("chaos", 0, "drain"): (
        "2626835796a47bd538e3dc27ddd1d48beff5dc61ac1fefaf3127fa3740666600"
    ),
    ("chaos", 0, "bounded"): (
        "9e605f07842b9515d5ec29ac9691ef701959809e44c1b6e6fda0c0b4122a6a0e"
    ),
    ("chaos", 0, "nodrain"): (
        "ef28e73359da4490870b797a27b648a305054af9139f30d2eb09deedb317f1fa"
    ),
    ("chaos", 5, "drain"): (
        "c806766441eedef0648609f520ba85bd0982a194b52b061cd28522e66fa287af"
    ),
    ("chaos", 5, "bounded"): (
        "116eec5a2362ed5334ddc05ba00c6ba6dbf48e0cf6eb71f922c67e384bc1fd19"
    ),
    ("chaos", 5, "nodrain"): (
        "1386e4d796cb2a3d248124d94db229e081a1b1dd718966109678d53d1448c696"
    ),
    ("plain", 0, "drain"): (
        "f33232864a8791c667ec65a89983dc18e0273b18e5a658d60323ab3377677f7d"
    ),
    ("plain", 0, "bounded"): (
        "6d7e67a1dd22209707373e6cb32a48c250986d2597ad9f7b530b74566b48797f"
    ),
    ("plain", 0, "nodrain"): (
        "db377dfadfb083e65eff51b217ba1b925d3d36b5c0b3408cd2a61f9a70ffc706"
    ),
    ("plain", 5, "drain"): (
        "dc43264ad5cdb3c7e0a7463d890690147f3cf5138c73124e02545861d41a75b5"
    ),
    ("plain", 5, "bounded"): (
        "181f6921a6ed971296b24a058d0624a92575f774f6a77e397bdab13eccc74484"
    ),
    ("plain", 5, "nodrain"): (
        "5e6e6befc9fb4986806df07de94b1ff7f3b831b1422228c1322fbb7040425f8f"
    ),
}


def chaos_cluster(seed: int, engine: str) -> ClusterOrchestrator:
    """A flash crowd on an autoscaled, browned-out MAMUT fleet under faults."""
    workload = WorkloadGenerator(
        FlashCrowdTraffic(1.2, peak_multiplier=6, start=15, duration=20),
        seed=seed,
        playlist_videos=2,
        frames_per_video=10,
        patience_steps=3,
    )
    faults = FaultConfig(
        crash_mtbf_steps=80.0,
        straggler_mtbf_steps=60.0,
        warmup_failure_rate=0.3,
        max_retries=2,
        seed=seed,
        topology=FailureTopology(zones=3, racks_per_zone=2, seed=seed),
        zone_mtbf_steps=200.0,
        kill_schedule=KillSchedule((KillEntry(zone=1, step=25, duration=6),)),
        checkpoint_interval_frames=4,
    )
    return ClusterOrchestrator(
        4,
        workload,
        admission=QueueWhileWarming(
            CapacityThreshold(3, max_queue=6, brownout_extra_sessions=1),
            max_queue=12,
        ),
        dispatcher=FailureAware(),
        seed=seed,
        engine=engine,
        autoscaler=ReactiveThreshold(),
        max_servers=10,
        brownout=BrownoutController(
            degraded_factory=static_factory(qp=40, threads=2, frequency_ghz=3.2)
        ),
        faults=faults,
    )


def plain_cluster(seed: int, engine: str) -> ClusterOrchestrator:
    """A static fleet of static controllers under Poisson arrivals."""
    workload = WorkloadGenerator(
        PoissonTraffic(1.0),
        seed=seed,
        playlist_videos=2,
        frames_per_video=10,
        patience_steps=4,
    )
    return ClusterOrchestrator(
        3,
        workload,
        admission=CapacityThreshold(2, max_queue=8),
        controller_factory=static_factory(qp=32, threads=4, frequency_ghz=3.2),
        seed=seed,
        engine=engine,
    )


SCENARIOS = {"chaos": chaos_cluster, "plain": plain_cluster}

SLO = (
    QueueWaitObjective("queue-wait", window_steps=8, max_steps=2.0),
    ShedRateObjective("shed", window_steps=8, max_pct=10.0),
    ViolationRateObjective("violations", window_steps=8, max_pct=20.0),
)


def _plain(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"cannot pin {type(value).__name__}")


@functools.lru_cache(maxsize=None)
def golden_run(scenario: str, seed: int, ending: str, engine: str):
    """Run one pinned configuration; returns (digest, summary dict)."""
    cluster = SCENARIOS[scenario](seed, engine)
    sink = ListTraceSink()
    result = cluster.run(
        DURATION,
        telemetry=TelemetryConfig(trace_sink=sink, metrics=True, slo=SLO),
        **ENDINGS[ending],
    )
    summary = result.summary().to_dict()
    payload = {
        "summary": summary,
        "records": [
            {key: list(records) for key, records in server.items()}
            for server in result.records_by_server
        ],
        "fleet_trace": list(result.fleet_trace),
        "fault_events": list(result.fault_events),
        "scaling_events": list(result.scaling_events),
        "queue_waits": list(result.queue_waits),
        "spans": sink.spans,
        "prometheus": cluster.telemetry.metrics.to_prometheus(),
    }
    text = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest(), summary


@pytest.mark.parametrize("engine", ["scalar", "batch"])
@pytest.mark.parametrize(
    "scenario, seed, ending", list(GOLDEN), ids=lambda v: str(v)
)
def test_cluster_run_golden(scenario, seed, ending, engine):
    digest, _ = golden_run(scenario, seed, ending, engine)
    assert digest == GOLDEN[(scenario, seed, ending)]


def test_golden_runs_cover_every_ledger_path():
    # A pin set that never drops, rejects or retries cannot see a change
    # to those paths.
    totals: dict[str, float] = {}
    for scenario, seed, ending in GOLDEN:
        _, summary = golden_run(scenario, seed, ending, "batch")
        for key in (
            "dropped",
            "rejected",
            "abandoned",
            "retried",
            "failed",
            "degraded_sessions",
        ):
            totals[key] = totals.get(key, 0) + summary[key]
    assert all(count > 0 for count in totals.values()), totals
