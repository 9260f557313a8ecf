"""Per-layer self time and exact counts, measured from outside the program.

The tracer wraps public functions of each layer (a module of ``repro``)
for the length of one traced run and restores them afterwards.  Nothing
inside ``src/`` knows it is being traced: a wrapper records the call,
calls the original and hands its result back unchanged, which the
benchmark proves by requiring the traced run's output fingerprint to equal
the untraced one's.

A layer's *self time* is the wall time of its wrapped calls minus the
time of wrapped calls (of any other layer) nested inside them.  A call
into a layer from inside the same layer is folded into the outer call, so
``calls`` counts entries into the layer.  Summing self time over the
layers therefore gives the time spent inside any wrapped call exactly
once; the rest of the run's wall time is the orchestrator loop itself
(``cluster.unattributed_s``), which also carries the wrappers' own cost.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from typing import Callable, Optional

import numpy as np

import repro.cluster.cluster as cluster_module
from repro.cluster import (
    BatchStepper,
    BrownoutController,
    ClusterOrchestrator,
    ClusterResult,
    FaultInjector,
    WorkloadGenerator,
)
from repro.cluster.admission import AdmissionVerdict
from repro.core.mamut import MamutController
from repro.core.qtable import QTable
from repro.core.rewards import RewardFunction
from repro.core.states import StateSpace
from repro.hevc.complexity import ComplexityModel
from repro.hevc.rd_model import RateDistortionModel
from repro.hevc.wpp import WppModel
from repro.manager.orchestrator import Orchestrator
from repro.platform.power import PowerModel, VoltageTable
from repro.telemetry import RequestTracer, Telemetry

__all__ = ["LAYERS", "LayerTracer"]

#: Every layer the tracer reports, in the order the metrics are printed.
LAYERS = (
    "workload",
    "admission",
    "dispatch",
    "snapshot",
    "manager",
    "autoscale",
    "batch",
    "mamut",
    "eval",
    "faults",
    "telemetry",
    "summary",
)

_EVAL_CLASSES = (RateDistortionModel, ComplexityModel, WppModel, VoltageTable, PowerModel)


def _public_batch_methods(cls) -> list[str]:
    return sorted(
        name
        for name, value in vars(cls).items()
        if name.endswith("_batch") and not name.startswith("_") and callable(value)
    )


def _hub_enabled(hub: Telemetry, *args) -> bool:
    # The disabled hub is the null object every run calls into; only a live
    # hub is telemetry work.
    return hub.enabled


class LayerTracer:
    """Wraps one orchestrator's layers for one run; ``restore`` undoes it.

    Build it right before ``cluster.run(...)`` and ``result.summary()`` and
    restore it right after; ``self_s`` and ``counts`` hold the measurements.
    """

    def __init__(self, cluster: ClusterOrchestrator) -> None:
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Counter = Counter({f"{layer}.calls": 0 for layer in LAYERS})
        self.construct_s = 0.0
        self.top_level_s = 0.0
        self._stack: list[list] = []  # [layer, nested wall seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._last_roster: Optional[tuple[int, ...]] = None
        self._install(cluster)

    # -- wrapping ------------------------------------------------------------------

    def _wrap(
        self,
        layer: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        before: Optional[Callable] = None,
        enabled: Optional[Callable] = None,
    ) -> Callable:
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        calls_key = f"{layer}.calls"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if (stack and stack[-1][0] == layer) or (
                enabled is not None and not enabled(*args)
            ):
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                counts[calls_key] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level_s += elapsed
            if on_result is not None:
                on_result(result, elapsed)
            return result

        return traced

    def _patch(self, owner, attr: str, layer: str, **hooks) -> None:
        own = attr in vars(owner)
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            wrapped = type(original)(self._wrap(layer, original.__func__, **hooks))
        else:
            wrapped = self._wrap(layer, original, **hooks)
        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, wrapped)

    def _count(self, key: str, amount: Callable = lambda result: 1) -> Callable:
        counts = self.counts

        def hook(result, elapsed):
            counts[key] += amount(result)

        return hook

    def _install(self, cluster: ClusterOrchestrator) -> None:
        counts = self.counts
        counts.update(
            {
                key: 0
                for key in (
                    "workload.frames_generated",
                    "admission.queued",
                    "manager.sessions_built",
                    "batch.constructions",
                    "batch.steps",
                    "batch.roster_changes",
                    "mamut.activations",
                    "eval.lanes",
                    "faults.snapshots",
                    "telemetry.spans",
                )
            }
        )
        self._patch(
            WorkloadGenerator,
            "arrivals",
            "workload",
            on_result=self._count(
                "workload.frames_generated",
                lambda events: sum(event.total_frames for event in events),
            ),
        )
        self._patch(
            type(cluster.admission),
            "decide",
            "admission",
            on_result=self._count(
                "admission.queued", lambda verdict: verdict is AdmissionVerdict.QUEUE
            ),
        )
        self._patch(type(cluster.dispatcher), "select", "dispatch")
        self._patch(ClusterOrchestrator, "snapshot", "snapshot")

        built = self._count("manager.sessions_built")
        self._patch(cluster, "controller_factory", "manager", on_result=built)
        if cluster.brownout is not None and cluster.brownout.degraded_factory is not None:
            self._patch(cluster.brownout, "degraded_factory", "manager", on_result=built)
        self._patch(Orchestrator, "add_session", "manager")

        if cluster.autoscaler is not None:
            self._patch(type(cluster.autoscaler), "decide", "autoscale")
        self._patch(BrownoutController, "observe", "autoscale")

        self._patch(BatchStepper, "step", "batch", before=self._observe_roster)
        self._patch(BatchStepper, "__init__", "batch", on_result=self._constructed)
        self._patch(BatchStepper, "flush_window_state", "batch")

        self._patch(
            MamutController,
            "apply_external_activation",
            "mamut",
            on_result=self._count("mamut.activations"),
        )
        for cls, names in (
            (StateSpace, ("discretize_batch", "state_index_batch")),
            (RewardFunction, ("total_batch",)),
            (QTable, _public_batch_methods(QTable)),
        ):
            for name in names:
                self._patch(cls, name, "mamut")

        lanes = self._count(
            "eval.lanes",
            lambda out: out.size if isinstance(out, np.ndarray) else 1,
        )
        for cls in _EVAL_CLASSES:
            for name in _public_batch_methods(cls):
                self._patch(cls, name, "eval", on_result=lanes)

        for name, value in list(vars(FaultInjector).items()):
            if not name.startswith("_") and callable(value):
                self._patch(FaultInjector, name, "faults")
        self._patch(
            cluster_module,
            "snapshot_session",
            "faults",
            on_result=self._count("faults.snapshots"),
        )
        self._patch(cluster_module, "restore_session_state", "faults")

        self._patch(
            RequestTracer, "emit", "telemetry", on_result=self._count("telemetry.spans")
        )
        self._patch(Telemetry, "observe_slo", "telemetry", enabled=_hub_enabled)
        self._patch(Telemetry, "finalize", "telemetry", enabled=_hub_enabled)

        self._patch(ClusterResult, "summary", "summary")

    def _observe_roster(self, stepper: BatchStepper, *args) -> None:
        roster = tuple(
            id(session)
            for orchestrator in stepper.orchestrators
            for session in orchestrator.active_sessions()
        )
        self.counts["batch.steps"] += 1
        if roster != self._last_roster:
            self.counts["batch.roster_changes"] += 1
        self._last_roster = roster

    def _constructed(self, result, elapsed: float) -> None:
        self.counts["batch.constructions"] += 1
        self.construct_s += elapsed

    # -- lifecycle -----------------------------------------------------------------

    def restore(self) -> None:
        """Put every wrapped function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:  # inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
