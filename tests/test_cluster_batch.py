"""Scalar/batch engine equivalence for the cluster stepping hot path.

The batch engine's contract is *bitwise* seed-for-seed equivalence: the same
``(workload seed, policies, cluster seed)`` must produce identical frame
records, power traces, admission ledgers and summaries on both engines.
These tests compare complete :class:`~repro.cluster.cluster.ClusterResult`
objects with plain ``==`` (dataclass equality → exact float equality).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    AlwaysAdmit,
    BatchStepper,
    CapacityThreshold,
    ClusterOrchestrator,
    FlashCrowdTraffic,
    PoissonTraffic,
    PowerHeadroom,
    ReactiveThreshold,
    RoundRobin,
    WorkloadGenerator,
)
from repro.cluster.brownout import BrownoutController
from repro.cluster.dispatch import PowerAware
from repro.core.mamut import MamutController
from repro.core.phases import Phase
from repro.errors import ClusterError, ScenarioError
from repro.manager.factories import (
    heuristic_factory,
    mamut_factory,
    monoagent_factory,
    static_factory,
)
from repro.manager.orchestrator import Orchestrator
from repro.manager.session import TranscodingSession
from repro.platform.server import MulticoreServer
from repro.platform.topology import CpuTopology
from repro.video.catalog import random_sequence
from repro.video.request import TranscodingRequest
from repro.video.sequence import ResolutionClass


def run_cluster(engine, *, seed=3, servers=3, rate=1.0, duration=30,
                admission=None, dispatcher=None, controller_factory=None,
                server_factory=MulticoreServer, drain=True,
                max_drain_steps=None, **workload_kwargs):
    workload = WorkloadGenerator(
        PoissonTraffic(rate), seed=seed, frames_per_video=10, **workload_kwargs
    )
    cluster = ClusterOrchestrator(
        servers,
        workload,
        admission=admission,
        dispatcher=dispatcher,
        controller_factory=controller_factory,
        server_factory=server_factory,
        seed=seed,
        engine=engine,
    )
    return cluster.run(duration, drain=drain, max_drain_steps=max_drain_steps)


def assert_identical(a, b):
    assert a.records_by_server == b.records_by_server
    assert a.samples_by_server == b.samples_by_server
    assert (a.arrivals, a.admitted, a.rejected, a.abandoned) == (
        b.arrivals,
        b.admitted,
        b.rejected,
        b.abandoned,
    )
    assert a.queue_waits == b.queue_waits
    assert a.steps == b.steps
    assert a.summary() == b.summary()


def observation_windows(cluster):
    """(server, session id, window sums) of every MAMUT session ever run.

    Finished sessions included: their controller's window must hold what the
    scalar engine left there, whichever engine ran them.
    """
    return [
        (index, session.session_id, session.controller.observation_window())
        for index, orch in enumerate(cluster.orchestrators)
        for session in orch.sessions
        if isinstance(session.controller, MamutController)
    ]


def assert_windows_identical(scalar_cluster, batch_cluster):
    scalar = observation_windows(scalar_cluster)
    assert scalar == observation_windows(batch_cluster)
    # Not vacuous: some session ended with observations in its window.
    assert any(window[4] > 0 for _, _, window in scalar)


class TestEngineEquivalence:
    # Policies are stateful (e.g. RoundRobin's cursor), so every comparison
    # builds fresh keyword arguments per run.

    def test_static_controllers_default_policies(self):
        kwargs = lambda: dict(
            controller_factory=static_factory(qp=32, threads=4, frequency_ghz=3.2)
        )
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_mamut_controllers_default_policies(self):
        assert_identical(run_cluster("scalar"), run_cluster("batch"))

    def test_mamut_power_headroom_power_aware(self):
        kwargs = lambda: dict(
            admission=PowerHeadroom(), dispatcher=PowerAware(), rate=1.5
        )
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_chip_wide_heuristic_controllers(self):
        kwargs = lambda: dict(
            controller_factory=heuristic_factory(),
            admission=AlwaysAdmit(),
            dispatcher=RoundRobin(),
            rate=0.8,
        )
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_monoagent_controllers(self):
        kwargs = lambda: dict(controller_factory=monoagent_factory(), rate=0.7)
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_multi_video_playlists(self):
        kwargs = lambda: dict(playlist_videos=3, duration=40)
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_heterogeneous_topologies(self):
        def small_server():
            return MulticoreServer(
                topology=CpuTopology(sockets=1, cores_per_socket=4)
            )

        kwargs = lambda: dict(
            server_factory=small_server,
            controller_factory=static_factory(qp=32, threads=6, frequency_ghz=2.9),
            rate=1.5,
        )
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_bounded_drain_overload(self):
        kwargs = lambda: dict(
            admission=AlwaysAdmit(),
            dispatcher=RoundRobin(),
            rate=2.0,
            drain=True,
            max_drain_steps=5,
        )
        assert_identical(run_cluster("scalar", **kwargs()), run_cluster("batch", **kwargs()))

    def test_batch_engine_is_deterministic(self):
        assert_identical(run_cluster("batch", seed=11), run_cluster("batch", seed=11))

    def test_unknown_engine_rejected(self):
        workload = WorkloadGenerator(PoissonTraffic(0.5), seed=0)
        with pytest.raises(ClusterError):
            ClusterOrchestrator(1, workload, engine="turbo")


class TestMamutFleetEquivalence:
    """ISSUE 5: MAMUT fleets ride the vectorized activation path.

    The driver keeps observation windows in fleet arrays and closes Q
    updates from batched averaging/discretisation/rewards, so these tests
    pin bitwise equivalence on exactly the configurations that stress its
    bookkeeping: mid-run autoscale resizes (the stepper — and with it the
    driver — is rebound to a new fleet while windows are mid-flight) and
    brownout-degraded controller factories (mixed fleets where only some
    lanes are driver-managed, or driven lanes disagree on reward/state
    parameters).
    """

    def run_autoscaled(self, engine):
        workload = WorkloadGenerator(
            FlashCrowdTraffic(0.25, peak_multiplier=5.0, start=10, duration=12),
            seed=5,
            frames_per_video=16,
        )
        cluster = ClusterOrchestrator(
            2,
            workload,
            admission=AlwaysAdmit(),
            controller_factory=mamut_factory(),
            seed=5,
            engine=engine,
            autoscaler=ReactiveThreshold(sessions_per_server=2),
            min_servers=1,
            max_servers=6,
            provision_warmup_steps=2,
        )
        return cluster, cluster.run(50)

    def test_autoscale_resizes_equivalent(self):
        scalar_cluster, scalar = self.run_autoscaled("scalar")
        batch_cluster, batch = self.run_autoscaled("batch")
        # The scenario must actually resize mid-run (both directions), or it
        # would not exercise the stepper's fleet-resize path.
        directions = {event.direction for event in batch.scaling_events}
        assert directions == {"up", "down"}
        assert_identical(scalar, batch)
        assert scalar.scaling_events == batch.scaling_events
        assert scalar.fleet_trace == batch.fleet_trace
        assert_windows_identical(scalar_cluster, batch_cluster)

    def run_brownout(self, engine, degraded_factory):
        workload = WorkloadGenerator(
            FlashCrowdTraffic(0.3, peak_multiplier=6.0, start=5, duration=10),
            seed=7,
            frames_per_video=14,
            patience_steps=4,
        )
        cluster = ClusterOrchestrator(
            2,
            workload,
            admission=CapacityThreshold(
                max_sessions_per_server=2, max_queue=12, brownout_extra_sessions=6
            ),
            controller_factory=mamut_factory(),
            seed=7,
            engine=engine,
            brownout=BrownoutController(
                sessions_per_server=2,
                enter_steps=2,
                exit_steps=4,
                fps_relax=0.6,
                degraded_factory=degraded_factory,
            ),
        )
        return cluster.run(30)

    def test_brownout_mixed_static_degraded_fleet_equivalent(self):
        # Static degraded sessions share servers with learning sessions:
        # only part of the fleet is driver-managed.
        factory = lambda: static_factory(qp=40, threads=2, frequency_ghz=3.2)
        scalar = self.run_brownout("scalar", factory())
        batch = self.run_brownout("batch", factory())
        assert batch.summary().brownout_steps > 0
        assert batch.summary().degraded_sessions > 0
        assert_identical(scalar, batch)

    def test_brownout_degraded_mamut_fleet_equivalent(self):
        # Degraded MAMUT controllers carry a different power cap, so driven
        # lanes split across vector groups (distinct state space + reward
        # parameters) within one batched activation step.
        factory = lambda: mamut_factory(power_cap_w=80.0)
        scalar = self.run_brownout("scalar", factory())
        batch = self.run_brownout("batch", factory())
        assert batch.summary().degraded_sessions > 0
        assert_identical(scalar, batch)

    def test_q_tables_identical_after_run(self):
        # Open arrivals: sessions join and finish on almost every step, and
        # the last ones finish on the run's final step.
        def collect(engine):
            workload = WorkloadGenerator(
                PoissonTraffic(1.0), seed=3, frames_per_video=12
            )
            cluster = ClusterOrchestrator(
                2,
                workload,
                controller_factory=mamut_factory(),
                seed=3,
                engine=engine,
            )
            cluster.run(30, drain=True)
            tables = {}
            for orch in cluster.orchestrators:
                for session in orch.sessions:
                    controller = session.controller
                    tables[session.session_id] = {
                        name: agent.q_table.to_dict()
                        for name, agent in controller.agents.items()
                    }
            return tables, cluster

        scalar_tables, scalar_cluster = collect("scalar")
        batch_tables, batch_cluster = collect("batch")
        assert scalar_tables == batch_tables
        assert_windows_identical(scalar_cluster, batch_cluster)

    def test_pretrained_fleet_equivalent_beyond_exploration(self, run_pretrained_fleet):
        # Fresh controllers only ever explore in runs this short; pretrained
        # ones (2000-frame HR and LR snapshots) also act greedily and through
        # Algorithm 1, so this pins the driver's index hand-off on every
        # selection path.
        scalar_cluster, scalar, scalar_chained = run_pretrained_fleet("scalar")
        batch_cluster, batch, batch_chained = run_pretrained_fleet("batch")
        assert_identical(scalar, batch)
        assert_windows_identical(scalar_cluster, batch_cluster)

        def learners(cluster):
            return [
                (
                    session.session_id,
                    {
                        name: agent.q_table.to_dict()
                        for name, agent in session.controller.agents.items()
                    },
                    session.controller.history,
                )
                for orch in cluster.orchestrators
                for session in orch.sessions
            ]

        assert learners(scalar_cluster) == learners(batch_cluster)
        phases = [
            activation.phase
            for _, _, history in learners(batch_cluster)
            for activation in history
        ]
        assert Phase.EXPLORATION_EXPLOITATION in phases
        assert Phase.EXPLOITATION in phases
        assert scalar_chained == batch_chained > 0

    def test_driver_hands_over_each_interned_state_index(
        self, run_pretrained_fleet, monkeypatch
    ):
        # The driver passes apply_external_activation the dense index it
        # computed with state_index_batch; the controller trusts it, so it
        # must be exactly state_space.state_index(state) for every call and
        # every state the driver interned.
        handed = []
        activate = MamutController.apply_external_activation

        def checked(self, agent_name, frame_index, state, reward, **kwargs):
            handed.append((kwargs["state_index"], self.state_space.state_index(state)))
            return activate(self, agent_name, frame_index, state, reward, **kwargs)

        monkeypatch.setattr(MamutController, "apply_external_activation", checked)
        cluster, _, _ = run_pretrained_fleet("batch")
        assert handed and all(given == expected for given, expected in handed)

        driver = cluster._stepper._driver
        interned = 0
        for (space, _), pool in zip(driver.vector_members, driver.state_interns):
            for index, state in enumerate(pool):
                if state is not None:
                    assert space.state_index(state) == index
                    interned += 1
        assert interned > 0


class TestOrchestratorBatchRun:
    def make_sessions(self, count=4, frames=12):
        sessions = []
        for i in range(count):
            resolution = ResolutionClass.HR if i % 2 == 0 else ResolutionClass.LR
            sequence = random_sequence(resolution, rng=i, num_frames=frames)
            request = TranscodingRequest(user_id=f"user-{i}", sequence=sequence)
            controller = mamut_factory()(request, seed=i)
            sessions.append(TranscodingSession(request=request, controller=controller))
        return sessions

    def test_run_batch_equals_scalar(self):
        scalar = Orchestrator(self.make_sessions()).run()
        batch = Orchestrator(self.make_sessions()).run(engine="batch")
        assert scalar.records_by_session == batch.records_by_session
        assert list(scalar.power_samples) == list(batch.power_samples)
        assert scalar.steps == batch.steps
        assert scalar.summary() == batch.summary()

    def test_run_rejects_unknown_engine(self):
        with pytest.raises(ScenarioError):
            Orchestrator(self.make_sessions(1)).run(engine="vector")


class TestBatchStepperProtocol:
    def test_idle_fleet_emits_idle_samples(self):
        orchestrators = [Orchestrator(), Orchestrator()]
        stepper = BatchStepper(orchestrators)
        samples = stepper.step(0, [[], []])
        reference = Orchestrator().idle_step(0)
        assert [s.power_w for s in samples] == [reference.power_w] * 2
        assert all(s.active_sessions == 0 for s in samples)
        assert all(s.duration_s == reference.duration_s for s in samples)

    def test_commit_requires_peek(self):
        sessions = TestOrchestratorBatchRun().make_sessions(1)
        with pytest.raises(ScenarioError):
            sessions[0].commit_step_result(None, None)

    def test_execute_after_peek_rejected(self):
        session = TestOrchestratorBatchRun().make_sessions(1)[0]
        session.peek_decision()
        with pytest.raises(ScenarioError):
            session.execute(1.0, 100.0)

    def test_out_of_range_qp_rejected_like_scalar(self):
        from repro.core.controller import Controller, Decision
        from repro.errors import EncodingError

        class BadQp(Controller):
            def decide(self, frame_index, observation):
                return Decision(qp=60, threads=4, frequency_ghz=3.2)

        for engine in ("scalar", "batch"):
            workload = WorkloadGenerator(
                PoissonTraffic(1.0), seed=0, frames_per_video=5
            )
            cluster = ClusterOrchestrator(
                1,
                workload,
                controller_factory=lambda request, seed: BadQp(),
                seed=0,
                engine=engine,
            )
            with pytest.raises(EncodingError):
                cluster.run(10)


class TestThroughputBenchClaims:
    """ISSUE 5: the learning-controller throughput claims of bench_step_throughput."""

    def test_bench_json_records_mamut_rows_and_speedup_floor(self):
        import json
        from pathlib import Path

        payload = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCH_throughput.json").read_text()
        )
        rows = [r for r in payload["results"] if r["controller"] == "mamut"]
        assert {r["engine"] for r in rows} == {"scalar", "batch"}
        assert any(r["servers"] >= 64 for r in rows)
        speedups = payload["speedup_batch_over_scalar"]["mamut"]
        assert speedups["64"] >= 3.0
        # The static rows must survive the merge.
        assert payload["speedup_batch_over_scalar"]["static"]["64"] >= 5.0

    def test_mamut_batch_beats_scalar_wall_clock(self):
        """A conservative live canary for the headline >=3x-at-64 claim.

        Run at a smaller scale so the test stays fast, and only assert that
        the batch engine is actually ahead — the full factor is asserted by
        the benchmark itself (bench_step_throughput --controller mamut).
        """
        import time

        from repro.cluster.workload import TrafficModel

        class Burst(TrafficModel):
            def rate(self, step):
                return 48.0 if step == 0 else 0.0

        def run(engine):
            workload = WorkloadGenerator(Burst(), seed=0, frames_per_video=40)
            cluster = ClusterOrchestrator(
                24,
                workload,
                admission=AlwaysAdmit(),
                dispatcher=RoundRobin(),
                controller_factory=mamut_factory(),
                seed=0,
                engine=engine,
            )
            # Admit the step-0 burst (two sessions per server) untimed, then
            # time the pure stepping loop like the benchmark does.
            cluster.run(1, drain=False)
            if engine == "batch":
                orchestrators = cluster.orchestrators
                stepper = BatchStepper(orchestrators)
                # warm-up: roster gather
                stepper.step(1, [orch.active_sessions() for orch in orchestrators])
                start = time.perf_counter()
                for step in range(2, 32):
                    stepper.step(
                        step, [orch.active_sessions() for orch in orchestrators]
                    )
            else:
                for orch in cluster.orchestrators:
                    if orch.run_step(1) is None:
                        orch.idle_step(1)
                start = time.perf_counter()
                for step in range(2, 32):
                    for orch in cluster.orchestrators:
                        if orch.run_step(step) is None:
                            orch.idle_step(step)
            return time.perf_counter() - start

        scalar_elapsed = run("scalar")
        batch_elapsed = run("batch")
        assert batch_elapsed < scalar_elapsed


class TestEngineResume:
    """Window state survives engine hand-offs (chunked runs, engine switches)."""

    def test_chunked_batch_run_equals_one_shot(self):
        sessions = TestOrchestratorBatchRun().make_sessions
        one_shot = Orchestrator(sessions(frames=24)).run(engine="batch")
        orch = Orchestrator(sessions(frames=24))
        first = orch.run(max_steps=9, engine="batch")
        rest = orch.run(engine="batch")
        assert first.steps == 9
        chunked = {
            session_id: first.records_by_session[session_id]
            + rest.records_by_session[session_id][9:]
            for session_id in one_shot.records_by_session
        }
        # rest.records_by_session includes the first chunk's records too
        # (session.records is cumulative) — compare the full trajectories.
        assert rest.records_by_session == one_shot.records_by_session
        assert chunked == one_shot.records_by_session

    def test_batch_then_scalar_equals_pure_scalar(self):
        sessions = TestOrchestratorBatchRun().make_sessions
        pure = Orchestrator(sessions(frames=24)).run()
        orch = Orchestrator(sessions(frames=24))
        orch.run(max_steps=9, engine="batch")
        mixed = orch.run(engine="scalar")
        assert mixed.records_by_session == pure.records_by_session

    def test_scalar_then_batch_equals_pure_batch(self):
        sessions = TestOrchestratorBatchRun().make_sessions
        pure = Orchestrator(sessions(frames=24)).run(engine="batch")
        orch = Orchestrator(sessions(frames=24))
        orch.run(max_steps=9, engine="scalar")
        mixed = orch.run(engine="batch")
        assert mixed.records_by_session == pure.records_by_session


class TestIncrementalRoster:
    """The batch roster and MAMUT driver are resized in place, not rebuilt."""

    @staticmethod
    def make_sessions(count=8):
        # Multi-video playlists (window resets at each transition) and two
        # power caps (two vector groups) on one server.
        sessions = []
        for i in range(count):
            playlist = [
                random_sequence(ResolutionClass.HR if (i + v) % 2 else ResolutionClass.LR,
                                rng=10 * i + v, num_frames=6)
                for v in range(8)
            ]
            request = TranscodingRequest(user_id=f"user-{i}", sequence=playlist[0])
            factory = mamut_factory(power_cap_w=80.0 if i % 3 == 0 else 100.0)
            sessions.append(
                TranscodingSession(
                    request=request, controller=factory(request, seed=i), playlist=playlist
                )
            )
        return sessions

    @staticmethod
    def driver_view(driver):
        agent = driver.patterns[driver.pattern_base + driver.steps % driver.hyper]
        names = list(driver.agent_ids)
        valid = driver.pend_valid
        return {
            "controllers": [lane.session.controller for lane in driver.lanes],
            "positions": driver.positions.tolist(),
            "steps": driver.steps.tolist(),
            "window": [
                getattr(driver, name).tolist()
                for name in ("win_fps", "win_psnr", "win_bitrate", "win_power", "win_count")
            ],
            "pending_valid": valid.tolist(),
            "pending": [
                np.where(valid, getattr(driver, name), 0.0).tolist()
                for name in ("pend_fps", "pend_psnr", "pend_bitrate", "pend_power")
            ],
            "decision": [driver.qp.tolist(), driver.threads.tolist(), driver.freq.tolist()],
            "agent": [names[a] if a >= 0 else None for a in agent.tolist()],
            "group": [
                (driver.vector_members[g][0].power_cap_w, driver.vector_members[g][1].config)
                for g in driver.vgid.tolist()
            ],
        }

    def test_video_transitions_on_a_fixed_roster(self):
        # Every session moves to its next video on the same steps while the
        # roster never changes: lanes refresh their video columns in place.
        scalar = Orchestrator(self.make_sessions()).run()
        batch = Orchestrator(self.make_sessions()).run(engine="batch")
        assert scalar.steps == batch.steps == 48
        assert scalar.records_by_session == batch.records_by_session
        assert list(scalar.power_samples) == list(batch.power_samples)

    def test_resized_driver_equals_driver_built_from_flushed_controllers(self):
        rng = np.random.default_rng(7)
        sessions = self.make_sessions()
        orch = Orchestrator(sessions)
        stepper = BatchStepper([orch])
        roster = []
        joins = leaves = 0
        for step in range(36):
            # Each session toggles in or out of the roster at random; the
            # roster keeps the orchestrator's session order.
            toggled = set(np.flatnonzero(rng.random(len(sessions)) < 0.3).tolist())
            previous = set(map(id, roster))
            roster = [
                s for i, s in enumerate(sessions) if (id(s) in previous) != (i in toggled)
            ]
            joins += len(set(map(id, roster)) - previous)
            leaves += len(previous - set(map(id, roster)))
            stepper.step(step, [roster])
        assert joins > 10 and leaves > 10
        assert all(s.active for s in roster) and roster

        driver = stepper._driver
        assert len(driver.lanes) == len(roster)
        assert driver.win_count.any() and (driver.steps > 0).all()
        stepper.flush_window_state()
        fresh = BatchStepper([orch])
        fresh._rebuild_roster([list(roster)])
        assert self.driver_view(driver) == self.driver_view(fresh._driver)
        # The gathered per-lane columns agree as well.
        for name in ("_comp_row_idx", "_rd_row_idx"):
            assert getattr(stepper, name).tolist() == getattr(fresh, name).tolist()
        assert stepper._columns.tolist() == fresh._columns.tolist()
