"""Per-frame content models for synthetic video sequences.

Real video sequences exhibit two properties that matter for the MAMUT
controller:

* *spatial complexity* (texture) drives how many bits and encoding cycles a
  frame needs at a given QP, and how much PSNR is achievable;
* *temporal dynamism* (motion, scene changes) makes those quantities vary
  frame by frame, which is exactly the "noise" the multi-agent learner has to
  cope with (paper Sec. IV-A).

The :class:`ContentModel` generates a per-frame stream of
:class:`FrameContent` samples from a first-order autoregressive process with
occasional scene changes.  The process is fully determined by a seed so that
experiments are reproducible.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import VideoError

__all__ = ["ContentProfile", "FrameContent", "ContentModel"]


@dataclasses.dataclass(frozen=True)
class ContentProfile:
    """Statistical description of a sequence's content.

    Attributes
    ----------
    complexity:
        Mean spatial complexity, a dimensionless scalar around 1.0.  Values
        above 1.0 describe highly textured content (more bits, more cycles,
        lower PSNR for a given QP); values below 1.0 describe flat content.
    motion:
        Mean temporal activity in ``[0, 1]``.  High motion increases encoding
        effort and bitrate and amplifies frame-to-frame variation.
    variability:
        Standard deviation of the frame-to-frame complexity fluctuations.
    scene_change_rate:
        Probability per frame of a scene change, which re-draws the local
        complexity level.
    """

    complexity: float = 1.0
    motion: float = 0.4
    variability: float = 0.08
    scene_change_rate: float = 0.004

    def __post_init__(self) -> None:
        if self.complexity <= 0:
            raise VideoError(f"complexity must be positive, got {self.complexity}")
        if not 0.0 <= self.motion <= 1.0:
            raise VideoError(f"motion must be in [0, 1], got {self.motion}")
        if self.variability < 0:
            raise VideoError(f"variability must be >= 0, got {self.variability}")
        if not 0.0 <= self.scene_change_rate <= 1.0:
            raise VideoError(
                f"scene_change_rate must be in [0, 1], got {self.scene_change_rate}"
            )


@dataclasses.dataclass(frozen=True)
class FrameContent:
    """Content descriptors of a single frame.

    Attributes
    ----------
    complexity:
        Instantaneous spatial complexity (dimensionless, ~0.4 .. ~2.0).
    motion:
        Instantaneous temporal activity in ``[0, 1]``.
    scene_change:
        True when this frame starts a new scene (intra-coded in a real
        encoder, therefore noticeably more expensive).
    """

    complexity: float
    motion: float
    scene_change: bool = False


class ContentModel:
    """Seeded generator of per-frame :class:`FrameContent` samples.

    The spatial complexity follows a mean-reverting AR(1) process around the
    profile mean; a scene change re-centres the process at a freshly drawn
    level.  Motion follows a slower AR(1) process bounded to ``[0, 1]``.

    Parameters
    ----------
    profile:
        The statistical profile of the sequence.
    seed:
        Seed of the private random generator; two models built with the same
        profile and seed produce identical streams.
    """

    #: AR(1) coefficient for the complexity process (close to 1 = smooth).
    _RHO_COMPLEXITY = 0.92
    #: AR(1) coefficient for the motion process.
    _RHO_MOTION = 0.97

    def __init__(self, profile: ContentProfile | None = None, seed: int = 0) -> None:
        self.profile = profile if profile is not None else ContentProfile()
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._level = self.profile.complexity
        self._current = self.profile.complexity
        self._motion = self.profile.motion

    def reset(self) -> None:
        """Rewind the generator to its initial, seed-determined state."""
        self._rng = np.random.default_rng(self.seed)
        self._level = self.profile.complexity
        self._current = self.profile.complexity
        self._motion = self.profile.motion

    def columns(
        self, num_frames: int
    ) -> tuple[list[float], list[float], list[bool]]:
        """Generate the next ``num_frames`` frames as content columns.

        Returns the per-frame complexity, motion and scene-change lists.
        This is the model's only generator: :meth:`next_frame` and
        :meth:`generate` are views over it, so every path draws the same
        random numbers in the same order and yields the same values.
        """
        if num_frames < 0:
            raise VideoError(f"num_frames must be >= 0, got {num_frames}")
        profile = self.profile
        draw_uniform = self._rng.random
        draw_normal = self._rng.normal
        scene_change_rate = profile.scene_change_rate
        mean_complexity = profile.complexity
        level_sd = 3.0 * profile.variability
        complexity_sd = profile.variability
        motion_sd = 0.02 + 0.05 * profile.variability
        rho_complexity = self._RHO_COMPLEXITY
        level_pull = 1.0 - rho_complexity
        noise_gain = math.sqrt(1.0 - rho_complexity**2)
        rho_motion = self._RHO_MOTION
        motion_pull = (1.0 - rho_motion) * profile.motion

        level = self._level
        current = self._current
        motion = self._motion
        complexity_col: list[float] = []
        motion_col: list[float] = []
        scene_col: list[bool] = []
        # Clamps are written min(hi, max(lo, x)): with the bound first this
        # is exactly np.clip's compare-and-select, signed zeros included.
        for _ in range(num_frames):
            scene_change = draw_uniform() < scene_change_rate
            if scene_change:
                # A new scene re-draws the local complexity level around the mean.
                level = min(2.0, max(0.4, draw_normal(mean_complexity, level_sd)))
                current = level
            noise = draw_normal(0.0, complexity_sd)
            current = rho_complexity * current + level_pull * level + noise * noise_gain
            current = min(2.0, max(0.4, current))
            motion_noise = draw_normal(0.0, motion_sd)
            motion = rho_motion * motion + motion_pull + motion_noise
            motion = min(1.0, max(0.0, motion))
            complexity_col.append(current)
            motion_col.append(motion)
            scene_col.append(scene_change)
        self._level = level
        self._current = current
        self._motion = motion
        return complexity_col, motion_col, scene_col

    def next_frame(self) -> FrameContent:
        """Generate the content descriptors of the next frame."""
        return self.generate(1)[0]

    def generate(self, num_frames: int) -> list[FrameContent]:
        """Generate ``num_frames`` consecutive frame descriptors."""
        return [
            FrameContent(complexity, motion, scene_change)
            for complexity, motion, scene_change in zip(*self.columns(num_frames))
        ]
