"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import MamutConfig
from repro.core.mamut import MamutController
from repro.hevc.params import EncoderConfig, Preset
from repro.hevc.transcoder import Transcoder
from repro.platform.server import MulticoreServer
from repro.video.catalog import make_sequence
from repro.video.content import ContentProfile
from repro.video.request import TranscodingRequest
from repro.video.sequence import Frame, VideoSequence
from repro.video.content import FrameContent


@pytest.fixture
def hr_sequence() -> VideoSequence:
    """A short, reproducible HR (1080p) sequence."""
    return make_sequence("Cactus", num_frames=60, seed=1)


@pytest.fixture
def lr_sequence() -> VideoSequence:
    """A short, reproducible LR (832x480) sequence."""
    return make_sequence("BQMall", num_frames=60, seed=2)


@pytest.fixture
def hr_frame(hr_sequence: VideoSequence) -> Frame:
    """One frame of the HR sequence."""
    return hr_sequence[10]


@pytest.fixture
def lr_frame(lr_sequence: VideoSequence) -> Frame:
    """One frame of the LR sequence."""
    return lr_sequence[10]


@pytest.fixture
def plain_frame() -> Frame:
    """A synthetic 1080p frame with unit complexity and no motion quirks."""
    return Frame(
        index=0,
        width=1920,
        height=1080,
        content=FrameContent(complexity=1.0, motion=0.4, scene_change=False),
    )


@pytest.fixture
def hr_request(hr_sequence: VideoSequence) -> TranscodingRequest:
    """A transcoding request for the HR sequence."""
    return TranscodingRequest(user_id="user-hr", sequence=hr_sequence)


@pytest.fixture
def lr_request(lr_sequence: VideoSequence) -> TranscodingRequest:
    """A transcoding request for the LR sequence."""
    return TranscodingRequest(user_id="user-lr", sequence=lr_sequence)


@pytest.fixture
def ultrafast_config() -> EncoderConfig:
    """A mid-range ultrafast encoder configuration."""
    return EncoderConfig(qp=32, threads=8, preset=Preset.ULTRAFAST)


@pytest.fixture
def transcoder() -> Transcoder:
    """A default-calibrated transcoder."""
    return Transcoder()


@pytest.fixture
def server() -> MulticoreServer:
    """A default 16-core / 32-thread server."""
    return MulticoreServer()


@pytest.fixture
def mamut_controller(hr_request: TranscodingRequest) -> MamutController:
    """A MAMUT controller configured for the HR request."""
    return MamutController(MamutConfig.for_request(hr_request, seed=0))


@pytest.fixture
def flat_profile() -> ContentProfile:
    """A content profile with no variability (deterministic content)."""
    return ContentProfile(complexity=1.0, motion=0.4, variability=0.0, scene_change_rate=0.0)


@pytest.fixture(scope="session")
def pretrained_knowledge():
    """2000-frame HR and LR MAMUT snapshots (seed 0), trained once per session."""
    from repro.manager.pretrain import pretrain_mamut
    from repro.video.sequence import ResolutionClass

    return {
        resolution: pretrain_mamut(resolution, frames=2000, seed=0)
        for resolution in (ResolutionClass.HR, ResolutionClass.LR)
    }


@pytest.fixture
def run_pretrained_fleet(pretrained_knowledge, monkeypatch):
    """Run a pretrained 4-server MAMUT cluster; count Algorithm 1 calls.

    The pretrained agents are past exploration in many states, so this run
    walks all three learning phases: exploration, own-greedy
    exploration-exploitation, and the chained expected-Q policy of
    Algorithm 1.  Returns ``run(engine) -> (cluster, result, algorithm1_calls)``
    with ``record_history`` on for every controller.
    """
    import repro.core.mamut as mamut_module
    from repro.cluster import ClusterOrchestrator, PoissonTraffic, WorkloadGenerator
    from repro.manager.pretrain import pretrained_mamut_factory

    calls = [0]
    chained = mamut_module.expected_q_action

    def counting(*args, **kwargs):
        calls[0] += 1
        return chained(*args, **kwargs)

    monkeypatch.setattr(mamut_module, "expected_q_action", counting)

    def run(engine):
        calls[0] = 0
        workload = WorkloadGenerator(
            PoissonTraffic(0.5), seed=1, frames_per_video=24, playlist_videos=2
        )
        cluster = ClusterOrchestrator(
            4,
            workload,
            controller_factory=pretrained_mamut_factory(
                pretrained_knowledge, record_history=True
            ),
            seed=1,
            engine=engine,
        )
        result = cluster.run(40)
        return cluster, result, calls[0]

    return run
