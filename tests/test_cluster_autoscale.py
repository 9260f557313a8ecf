"""Autoscaling: policy behavior, elastic orchestration, engine equivalence."""

from __future__ import annotations

import pytest

from repro.cluster import (
    AutoscaleDecision,
    AutoscaleSignals,
    CapacityThreshold,
    ClusterOrchestrator,
    ClusterSnapshot,
    DiurnalTraffic,
    FixedFleet,
    FlashCrowdTraffic,
    PoissonTraffic,
    PredictiveScaling,
    ReactiveThreshold,
    ServerSnapshot,
    TargetTracking,
    WorkloadGenerator,
)
from repro.errors import ClusterError
from repro.manager.factories import static_factory


def make_signals(
    *,
    step=0,
    active_per_server=(0, 0),
    queue_length=0,
    arrivals=0,
    warming=0,
    draining=0,
    last_power_w=40.0,
    idle_power_w=20.0,
    power_cap_w=None,
    min_servers=1,
    max_servers=None,
):
    servers = tuple(
        ServerSnapshot(
            server_index=i,
            active_sessions=active,
            last_power_w=last_power_w,
            sessions_dispatched=active,
            idle_power_w=idle_power_w,
            last_active_sessions=active,
        )
        for i, active in enumerate(active_per_server)
    )
    snapshot = ClusterSnapshot(
        step=step,
        servers=servers,
        queue_length=queue_length,
        power_cap_w=(
            power_cap_w if power_cap_w is not None else 100.0 * len(servers)
        ),
    )
    return AutoscaleSignals(
        step=step,
        snapshot=snapshot,
        arrivals=arrivals,
        provisioned_servers=len(servers) + warming,
        warming_servers=warming,
        draining_servers=draining,
        min_servers=min_servers,
        max_servers=max_servers,
    )


class TestFixedFleet:
    def test_never_resizes(self):
        policy = FixedFleet()
        signals = make_signals(active_per_server=(4, 4), queue_length=30)
        assert policy.decide(signals).target_servers == signals.provisioned_servers


class TestReactiveThreshold:
    def test_queue_backlog_sizes_the_scale_up(self):
        policy = ReactiveThreshold(scale_up_queue=4, sessions_per_server=4)
        decision = policy.decide(
            make_signals(active_per_server=(4, 4), queue_length=9)
        )
        # ceil(9 / 4) = 3 more servers on top of the 2 provisioned.
        assert decision.target_servers == 5

    def test_warming_servers_are_subtracted(self):
        policy = ReactiveThreshold(scale_up_queue=4, sessions_per_server=4)
        decision = policy.decide(
            make_signals(active_per_server=(4, 4), queue_length=9, warming=3)
        )
        assert decision.target_servers == 5  # 2 dispatchable + 3 warming

    def test_utilization_triggers_scale_up_without_queue(self):
        policy = ReactiveThreshold(
            scale_up_utilization=0.85, sessions_per_server=4
        )
        decision = policy.decide(make_signals(active_per_server=(4, 3)))
        assert decision.target_servers == 3

    def test_inside_hysteresis_band_holds(self):
        policy = ReactiveThreshold(
            scale_up_utilization=0.85,
            scale_down_utilization=0.35,
            sessions_per_server=4,
        )
        decision = policy.decide(make_signals(active_per_server=(2, 2)))
        assert decision.target_servers == 2

    def test_scale_down_needs_cooldown(self):
        policy = ReactiveThreshold(
            scale_down_utilization=0.35,
            sessions_per_server=4,
            scale_down_cooldown_steps=10,
        )
        early = policy.decide(make_signals(step=5, active_per_server=(1, 0)))
        assert early.target_servers == 2
        late = policy.decide(make_signals(step=10, active_per_server=(1, 0)))
        assert late.target_servers == 1

    def test_scale_up_resets_the_cooldown(self):
        policy = ReactiveThreshold(
            scale_up_queue=4,
            scale_down_utilization=0.35,
            sessions_per_server=4,
            scale_down_cooldown_steps=10,
        )
        policy.decide(make_signals(step=12, active_per_server=(4, 4), queue_length=8))
        held = policy.decide(make_signals(step=15, active_per_server=(1, 0)))
        assert held.target_servers == 2  # cooldown restarted at step 12

    def test_clamped_scale_up_does_not_reset_the_cooldown(self):
        # A fleet pinned at max_servers keeps "asking" to grow; those
        # clamped no-ops must not push the scale-down cooldown forward.
        policy = ReactiveThreshold(
            scale_up_queue=4,
            scale_down_utilization=0.35,
            sessions_per_server=4,
            scale_down_cooldown_steps=10,
        )
        pinned = policy.decide(
            make_signals(
                step=5, active_per_server=(4, 4), queue_length=9, max_servers=2
            )
        )
        assert pinned.target_servers == 2  # clamped at max_servers=2

        down = policy.decide(
            make_signals(step=10, active_per_server=(1, 0), max_servers=2)
        )
        assert down.target_servers == 1  # cooldown still counts from step 0

    def test_max_step_up_bounds_one_move(self):
        policy = ReactiveThreshold(
            scale_up_queue=4, sessions_per_server=4, max_step_up=2
        )
        decision = policy.decide(
            make_signals(active_per_server=(4, 4), queue_length=40)
        )
        assert decision.target_servers == 4

    def test_thresholds_validated(self):
        with pytest.raises(ClusterError):
            ReactiveThreshold(scale_up_utilization=0.5, scale_down_utilization=0.6)
        with pytest.raises(ClusterError):
            ReactiveThreshold(scale_up_queue=0)
        with pytest.raises(ClusterError):
            ReactiveThreshold(sessions_per_server=0)


class TestTargetTracking:
    def test_scales_up_above_deadband(self):
        policy = TargetTracking(target_power_fraction=0.5, deadband=0.1)
        # 2 servers at 90 W of a 200 W budget -> 90% >> 50% target.
        decision = policy.decide(
            make_signals(active_per_server=(3, 3), last_power_w=90.0)
        )
        assert decision.target_servers > 2

    def test_holds_inside_deadband(self):
        policy = TargetTracking(target_power_fraction=0.5, deadband=0.2)
        decision = policy.decide(
            make_signals(active_per_server=(2, 2), last_power_w=50.0)
        )
        assert decision.target_servers == 2

    def test_scales_down_when_cold_after_cooldown(self):
        policy = TargetTracking(
            target_power_fraction=0.6, scale_down_cooldown_steps=5
        )
        signals = make_signals(
            step=6, active_per_server=(1, 0, 0, 0), last_power_w=22.0
        )
        decision = policy.decide(signals)
        assert decision.target_servers < 4

    def test_parameters_validated(self):
        with pytest.raises(ClusterError):
            TargetTracking(target_power_fraction=0.0)
        with pytest.raises(ClusterError):
            TargetTracking(watts_per_session_estimate=-1.0)


class TestPredictiveScaling:
    def test_forecast_tracks_arrivals(self):
        policy = PredictiveScaling(alpha=0.5, service_steps=8, sessions_per_server=4)
        policy.decide(make_signals(step=0, arrivals=4))
        assert policy.rate_forecast == pytest.approx(4.0)
        policy.decide(make_signals(step=1, arrivals=0))
        assert policy.rate_forecast == pytest.approx(2.0)

    def test_ramp_grows_the_fleet(self):
        policy = PredictiveScaling(
            alpha=1.0, service_steps=16, sessions_per_server=4, headroom=1.0
        )
        decision = policy.decide(make_signals(step=0, arrivals=2))
        # 2/step * 16 steps = 32 sessions -> 8 servers.
        assert decision.target_servers == 8

    def test_occupancy_floor_blocks_premature_shrink(self):
        policy = PredictiveScaling(
            alpha=1.0,
            service_steps=16,
            sessions_per_server=4,
            headroom=1.0,
            scale_down_cooldown_steps=0,
            scale_down_slack=0,
        )
        # Forecast says 1 server, but 11 sessions are still running.
        decision = policy.decide(
            make_signals(step=20, arrivals=0, active_per_server=(4, 4, 3, 0))
        )
        assert decision.target_servers == 3

    def test_slack_blocks_single_server_shrink(self):
        policy = PredictiveScaling(
            alpha=1.0,
            service_steps=4,
            sessions_per_server=4,
            headroom=1.0,
            scale_down_cooldown_steps=0,
            scale_down_slack=1,
        )
        decision = policy.decide(
            make_signals(step=20, arrivals=1, active_per_server=(1, 0))
        )
        assert decision.target_servers == 2  # one-server excess is tolerated

    def test_parameters_validated(self):
        with pytest.raises(ClusterError):
            PredictiveScaling(alpha=0.0)
        with pytest.raises(ClusterError):
            PredictiveScaling(headroom=0.5)
        with pytest.raises(ClusterError):
            PredictiveScaling(service_steps=0)


def make_cluster(
    engine="batch",
    *,
    traffic,
    duration=None,
    servers=2,
    autoscaler=None,
    seed=3,
    frames_per_video=16,
    max_servers=8,
    warmup=2,
    max_queue=32,
):
    workload = WorkloadGenerator(
        traffic, seed=seed, frames_per_video=frames_per_video
    )
    return ClusterOrchestrator(
        servers,
        workload,
        admission=CapacityThreshold(max_sessions_per_server=4, max_queue=max_queue),
        controller_factory=static_factory(qp=32, threads=4, frequency_ghz=3.2),
        seed=seed,
        engine=engine,
        autoscaler=autoscaler,
        min_servers=1,
        max_servers=max_servers,
        provision_warmup_steps=warmup,
    )


def flash_traffic():
    return FlashCrowdTraffic(0.25, peak_multiplier=5.0, start=25, duration=20)


class TestElasticOrchestration:
    def run_flash(self, engine="batch"):
        cluster = make_cluster(
            engine,
            traffic=flash_traffic(),
            autoscaler=ReactiveThreshold(sessions_per_server=4),
        )
        return cluster.run(70)

    def test_fleet_grows_during_flash_crowd(self):
        result = self.run_flash()
        assert any(e.direction == "up" for e in result.scaling_events)
        sizes = [s.live_servers for s in result.fleet_trace]
        assert max(sizes) > 2
        # The commissioned servers actually served sessions.
        assert len(result.records_by_server) > 2
        assert any(records for records in result.records_by_server[2:])

    def test_fleet_shrinks_after_the_burst(self):
        result = self.run_flash()
        assert any(e.direction == "down" for e in result.scaling_events)
        # Decommissioned servers stop sampling: their trace is shorter.
        lengths = {len(trace) for trace in result.samples_by_server}
        assert len(lengths) > 1

    def test_warmup_delays_first_session(self):
        result = self.run_flash()
        warmup = 2
        ups = [e for e in result.scaling_events if e.direction == "up"]
        assert ups
        commissioned = result.samples_by_server[2:]
        for index, trace in enumerate(commissioned, start=2):
            if not trace:
                continue
            first_step = trace[0].step
            # Powered on from its commission step, but idle through the
            # warm-up: no session activity before ready.
            busy = [s.step for s in trace if s.active_sessions > 0]
            if busy:
                assert min(busy) >= first_step + warmup

    def test_drain_never_kills_admitted_sessions(self):
        result = self.run_flash()
        assert any(e.direction == "down" for e in result.scaling_events)
        for records in result.records_by_server:
            for session_id, session_records in records.items():
                assert len(session_records) == 16, session_id

    def test_provisioned_fleet_respects_the_band(self):
        result = self.run_flash()
        for sample in result.fleet_trace:
            provisioned = sample.dispatchable_servers + sample.warming_servers
            assert 1 <= provisioned <= 8

    def test_fleet_trace_covers_every_step(self):
        result = self.run_flash()
        assert [s.step for s in result.fleet_trace] == list(range(result.steps))

    def test_no_autoscaler_keeps_the_fleet_fixed(self):
        cluster = make_cluster(traffic=flash_traffic())
        result = cluster.run(70)
        assert result.scaling_events == ()
        assert {s.live_servers for s in result.fleet_trace} == {2}
        assert all(len(t) == result.steps for t in result.samples_by_server)

    def test_parameters_validated(self):
        workload = WorkloadGenerator(PoissonTraffic(0.5), seed=0)
        with pytest.raises(ClusterError):
            ClusterOrchestrator(2, workload, min_servers=0)
        with pytest.raises(ClusterError):
            ClusterOrchestrator(2, workload, min_servers=4, max_servers=2)
        with pytest.raises(ClusterError):
            ClusterOrchestrator(2, workload, provision_warmup_steps=-1)


class TestEngineEquivalenceUnderScaling:
    # The batch stepper is rebound to the new fleet on every resize; these runs resize
    # repeatedly mid-run and must stay bitwise identical to the scalar path.

    def assert_identical(self, a, b):
        assert a.records_by_server == b.records_by_server
        assert a.samples_by_server == b.samples_by_server
        assert a.scaling_events == b.scaling_events
        assert a.fleet_trace == b.fleet_trace
        assert a.queue_waits == b.queue_waits
        assert (a.arrivals, a.admitted, a.rejected, a.abandoned, a.steps) == (
            b.arrivals,
            b.admitted,
            b.rejected,
            b.abandoned,
            b.steps,
        )
        assert a.summary() == b.summary()

    def test_grow_during_flash_crowd(self):
        results = [
            make_cluster(
                engine,
                traffic=flash_traffic(),
                autoscaler=ReactiveThreshold(sessions_per_server=4),
            ).run(70)
            for engine in ("scalar", "batch")
        ]
        assert any(e.direction == "up" for e in results[0].scaling_events)
        self.assert_identical(*results)

    def test_shrink_during_drain(self):
        # A long playlist keeps sessions alive into the drain tail; the
        # autoscaler may only shrink there.
        def build(engine):
            return make_cluster(
                engine,
                traffic=FlashCrowdTraffic(0.2, peak_multiplier=5.0, start=10, duration=10),
                autoscaler=ReactiveThreshold(
                    sessions_per_server=4, scale_down_cooldown_steps=5
                ),
                frames_per_video=40,
            )

        results = [build(engine).run(30) for engine in ("scalar", "batch")]
        drain_downs = [
            e
            for e in results[0].scaling_events
            if e.direction == "down" and e.step >= 30
        ]
        assert drain_downs, "expected the fleet to shrink during the drain tail"
        assert all(
            e.direction == "down"
            for e in results[0].scaling_events
            if e.step >= 30
        )
        self.assert_identical(*results)

    def test_predictive_policy_equivalence(self):
        results = [
            make_cluster(
                engine,
                traffic=DiurnalTraffic(0.6, amplitude=0.8, period=40),
                autoscaler=PredictiveScaling(
                    sessions_per_server=4, service_steps=16
                ),
            ).run(60)
            for engine in ("scalar", "batch")
        ]
        assert results[0].scaling_events
        self.assert_identical(*results)


class TestHysteresis:
    def test_noisy_diurnal_trace_does_not_flap(self):
        cluster = make_cluster(
            traffic=DiurnalTraffic(0.5, amplitude=0.6, period=50),
            autoscaler=ReactiveThreshold(
                sessions_per_server=4, scale_down_cooldown_steps=12
            ),
            max_servers=6,
        )
        result = cluster.run(150)
        events = result.scaling_events
        # The fleet follows the daily swing without thrashing: every
        # scale-down sits at least a cooldown after the previous resize,
        # and the total resize count stays far below one per step.
        for previous, event in zip(events, events[1:]):
            if event.direction == "down":
                assert event.step - previous.step >= 12
        # Three diurnal cycles plus the drain tail: a handful of resizes
        # per cycle is tracking; one per step would be flapping.
        assert len(events) <= 16
        down_then_up = [
            (a, b)
            for a, b in zip(events, events[1:])
            if a.direction == "down" and b.direction == "up"
        ]
        for down, up in down_then_up:
            assert up.step - down.step >= 5, "immediate down->up flap"


class TestAcceptanceCriterion:
    """ISSUE 3: reactive autoscaling beats both fixed sizings on a burst."""

    def run_fleet(self, servers, max_servers, autoscaler):
        cluster = make_cluster(
            traffic=FlashCrowdTraffic(0.25, peak_multiplier=5.0, start=40, duration=25),
            duration=None,
            servers=servers,
            autoscaler=autoscaler,
            max_servers=max_servers,
            max_queue=24,
        )
        return cluster.run(80).summary()

    def test_reactive_beats_fixed_mean_and_fixed_peak(self):
        mean_servers, peak_servers = 1, 8
        fixed_mean = self.run_fleet(mean_servers, mean_servers, None)
        fixed_peak = self.run_fleet(peak_servers, peak_servers, None)
        reactive = self.run_fleet(
            mean_servers,
            peak_servers,
            ReactiveThreshold(sessions_per_server=4),
        )
        # Strictly fewer abandoned requests than the mean-sized fleet...
        assert fixed_mean.abandoned > 0
        assert reactive.abandoned < fixed_mean.abandoned
        # ...at a strictly lower time-weighted fleet size than peak sizing.
        assert reactive.mean_fleet_size < fixed_peak.mean_fleet_size
        assert fixed_peak.mean_fleet_size == pytest.approx(peak_servers)
