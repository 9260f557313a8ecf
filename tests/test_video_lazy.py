"""Video content is generated on first read, and never for shed traffic.

A :class:`~repro.video.sequence.VideoSequence` fixes its content seed when
it is built but generates nothing until its columns, frames or statistics
are first read.  These tests pin that contract: construction, ``len()`` and
``WorkloadEvent.total_frames`` stay free; the first read yields exactly the
golden frames; and in a cluster run the videos of requests that are shed
(rejected, dropped or still queued at the end) are never generated, while
the scalar and batch engines stay bitwise equal, trace spans included.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    CapacityThreshold,
    ClusterOrchestrator,
    FlashCrowdTraffic,
    PoissonTraffic,
    WorkloadGenerator,
)
from repro.manager.factories import static_factory
from repro.telemetry import ListTraceSink, TelemetryConfig
from repro.video.catalog import make_sequence
from repro.video.content import ContentModel
from repro.video.sequence import Frame
from test_video_golden import GOLDEN, content_digests


def generated(video) -> bool:
    return video._columns is not None


def built_frames(video) -> bool:
    return video._frames is not None


class RecordingWorkload(WorkloadGenerator):
    """Keeps every event it hands out, so a test can inspect their videos."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.events = []

    def arrivals(self, step):
        events = super().arrivals(step)
        self.events.extend(events)
        return events


class TestSequenceLaziness:
    def test_construction_and_length_generate_nothing(self):
        sequence = make_sequence("Kimono", seed=3)
        assert len(sequence) == 240
        assert sequence.duration_seconds == pytest.approx(10.0)
        assert not generated(sequence) and not built_frames(sequence)

    def test_workload_events_generate_nothing(self):
        events = WorkloadGenerator(
            PoissonTraffic(2.0), seed=4, playlist_videos=3, frames_per_video=9
        ).generate(10)
        assert events
        for event in events:
            assert event.total_frames == 27
            assert event.request.num_frames == 9
            assert not any(generated(video) for video in event.playlist)

    def test_first_access_gives_the_golden_frames(self):
        sequence = make_sequence("RaceHorses", seed=1)
        frame = sequence[5]
        assert generated(sequence) and built_frames(sequence)
        expected = tuple(
            Frame(index, sequence.width, sequence.height, content)
            for index, content in enumerate(
                ContentModel(sequence.profile, seed=1).generate(len(sequence))
            )
        )
        assert sequence.frames == expected
        assert frame == expected[5]
        assert content_digests([f.content for f in sequence]) == GOLDEN["RaceHorses@1"]

    def test_frames_are_built_once(self):
        sequence = make_sequence("BQMall", num_frames=20, seed=2)
        assert sequence.frames is sequence.frames
        assert sequence[3] is sequence.frames[3]
        assert list(sequence) == list(sequence.frames)

    def test_statistics_read_columns_without_building_frames(self):
        sequence = make_sequence("Cactus", num_frames=50, seed=6)
        mean_complexity = sequence.mean_complexity
        mean_motion = sequence.mean_motion
        assert generated(sequence) and not built_frames(sequence)
        frames = sequence.frames
        assert mean_complexity == sum(f.complexity for f in frames) / len(frames)
        assert mean_motion == sum(f.motion for f in frames) / len(frames)


def shedding_run(engine: str):
    """A small overloaded run that rejects and drops requests."""
    workload = RecordingWorkload(
        FlashCrowdTraffic(0.3, peak_multiplier=6.0, start=8, duration=10),
        seed=0,
        playlist_videos=2,
        frames_per_video=12,
        patience_steps=8,
    )
    cluster = ClusterOrchestrator(
        2,
        workload,
        admission=CapacityThreshold(max_sessions_per_server=3, max_queue=5),
        controller_factory=static_factory(qp=32, threads=4, frequency_ghz=3.2),
        seed=0,
        engine=engine,
    )
    sink = ListTraceSink()
    result = cluster.run(30, telemetry=TelemetryConfig(trace_sink=sink))
    return workload.events, result, sink.spans


class TestShedTrafficIsNeverGenerated:
    @pytest.fixture(scope="class")
    def runs(self):
        return {engine: shedding_run(engine) for engine in ("scalar", "batch")}

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_only_served_videos_are_generated(self, runs, engine):
        events, result, spans = runs[engine]
        outcome = {
            span["request"]: span["kind"]
            for span in spans
            if span["kind"] in {"served", "rejected", "dropped", "abandoned"}
        }
        assert result.rejected > 0 and result.dropped > 0
        assert len(outcome) == len(events) == result.arrivals
        for event in events:
            videos = event.playlist
            if outcome[event.request.user_id] == "served":
                assert all(generated(video) for video in videos)
            else:
                assert not any(generated(video) for video in videos)

    def test_batch_engine_builds_no_frames(self, runs):
        events, _, _ = runs["batch"]
        assert not any(built_frames(video) for e in events for video in e.playlist)

    def test_scalar_and_batch_stay_bitwise_equal(self, runs):
        _, scalar, scalar_spans = runs["scalar"]
        _, batch, batch_spans = runs["batch"]
        assert scalar_spans == batch_spans
        assert scalar.records_by_server == batch.records_by_server
        assert scalar.samples_by_server == batch.samples_by_server
        assert scalar.summary() == batch.summary()
