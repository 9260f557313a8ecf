"""Unit tests for repro.core.config."""

from __future__ import annotations

import pytest

from repro.core.config import MamutConfig
from repro.core.actions import default_thread_actions
from repro.core.rewards import RewardConfig
from repro.core.schedule import AgentSchedule
from repro.core.states import StateSpace
from repro.errors import ConfigurationError
from repro.video.sequence import ResolutionClass


class TestMamutConfig:
    def test_defaults_fill_initial_values(self):
        config = MamutConfig()
        assert config.initial_qp in config.qp_actions
        assert config.initial_threads == config.thread_actions[len(config.thread_actions) - 1]
        assert config.initial_frequency_ghz == pytest.approx(3.2)
        # The paper's schedule is immutable, so every default config shares
        # one instance instead of rebuilding (and overlap-checking) it.
        assert config.schedule is MamutConfig().schedule
        assert config.schedule.slots == AgentSchedule.mamut_default().slots

    def test_for_request_hr(self, hr_request):
        config = MamutConfig.for_request(hr_request, power_cap_w=110.0)
        assert len(config.thread_actions) == 12
        assert config.reward.power_cap_w == pytest.approx(110.0)
        assert config.state_space.power_cap_w == pytest.approx(110.0)
        assert config.reward.bandwidth_mbps == pytest.approx(hr_request.bandwidth_mbps)

    def test_for_request_lr(self, lr_request):
        config = MamutConfig.for_request(lr_request)
        assert len(config.thread_actions) == 5

    def test_invalid_gamma(self):
        with pytest.raises(ConfigurationError):
            MamutConfig(gamma=1.0)

    def test_invalid_epsilon(self):
        with pytest.raises(ConfigurationError):
            MamutConfig(exploration_epsilon=-0.1)

    def test_initial_values_must_belong_to_action_sets(self):
        with pytest.raises(ConfigurationError):
            MamutConfig(initial_qp=23)
        with pytest.raises(ConfigurationError):
            MamutConfig(initial_threads=99)
        with pytest.raises(ConfigurationError):
            MamutConfig(initial_frequency_ghz=2.0)

    def test_reward_and_state_space_must_agree(self):
        with pytest.raises(ConfigurationError):
            MamutConfig(reward=RewardConfig(fps_target=30.0), state_space=StateSpace(fps_target=24.0))
        with pytest.raises(ConfigurationError):
            MamutConfig(
                reward=RewardConfig(power_cap_w=100.0),
                state_space=StateSpace(power_cap_w=120.0),
            )

    def test_custom_thread_actions(self):
        config = MamutConfig(thread_actions=default_thread_actions(ResolutionClass.LR))
        assert config.initial_threads == 5
