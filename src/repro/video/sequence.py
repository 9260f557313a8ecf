"""Video sequences and frames.

A :class:`VideoSequence` is the unit of work a transcoding user submits,
mirroring a decoded JCT-VC test sequence: a resolution plus per-frame
content descriptors.  The descriptors are generated on first read, as
columns; :class:`Frame` objects are built from them only when asked for.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator

from repro.constants import HR_RESOLUTION, LR_RESOLUTION
from repro.errors import VideoError
from repro.video.content import ContentModel, ContentProfile, FrameContent

__all__ = ["ResolutionClass", "Frame", "VideoSequence"]

#: Per-frame (complexity, motion, scene_change) content columns.
_Columns = tuple[tuple[float, ...], tuple[float, ...], tuple[bool, ...]]


class ResolutionClass(enum.Enum):
    """Resolution classes used throughout the paper's evaluation."""

    #: High resolution: 1920x1080 (JCT-VC class B).
    HR = "HR"
    #: Low resolution: 832x480 (JCT-VC class C).
    LR = "LR"

    @property
    def dimensions(self) -> tuple[int, int]:
        """(width, height) in pixels for this class."""
        return HR_RESOLUTION if self is ResolutionClass.HR else LR_RESOLUTION

    @classmethod
    def from_dimensions(cls, width: int, height: int) -> "ResolutionClass":
        """Classify an arbitrary resolution as HR or LR by pixel count."""
        hr_pixels = HR_RESOLUTION[0] * HR_RESOLUTION[1]
        lr_pixels = LR_RESOLUTION[0] * LR_RESOLUTION[1]
        pixels = width * height
        # Nearest class by pixel count; exact matches resolve trivially.
        return cls.HR if abs(pixels - hr_pixels) <= abs(pixels - lr_pixels) else cls.LR


@dataclasses.dataclass(frozen=True)
class Frame:
    """A single video frame to be transcoded.

    Attributes
    ----------
    index:
        Zero-based frame number within its sequence.
    width, height:
        Frame dimensions in pixels.
    content:
        Per-frame content descriptors from the sequence's content model.
    """

    index: int
    width: int
    height: int
    content: FrameContent

    @property
    def pixels(self) -> int:
        """Number of luma pixels in the frame."""
        return self.width * self.height

    @property
    def complexity(self) -> float:
        """Shortcut for the frame's spatial complexity."""
        return self.content.complexity

    @property
    def motion(self) -> float:
        """Shortcut for the frame's temporal activity."""
        return self.content.motion

    @property
    def is_scene_change(self) -> bool:
        """Whether this frame starts a new scene."""
        return self.content.scene_change


class VideoSequence:
    """A named, finite sequence of frames with homogeneous resolution.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"Kimono"``).
    width, height:
        Frame dimensions in pixels.
    frame_rate:
        Source frame rate in frames per second; used for bitrate accounting.
    num_frames:
        Number of frames in the sequence.
    profile:
        Content profile used to generate per-frame descriptors.
    seed:
        Seed for the content model, making the sequence reproducible.

    The content is generated the first time it is read (the columns, a frame,
    or a statistic), not at construction: a sequence that is never played
    costs no generation.  The seed is fixed here, so when the content is
    generated does not change its values.  The attributes are treated as
    fixed after construction.
    """

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        frame_rate: float,
        num_frames: int,
        profile: ContentProfile | None = None,
        seed: int = 0,
    ) -> None:
        if width <= 0 or height <= 0:
            raise VideoError(f"invalid resolution {width}x{height}")
        if frame_rate <= 0:
            raise VideoError(f"frame_rate must be positive, got {frame_rate}")
        if num_frames <= 0:
            raise VideoError(f"num_frames must be positive, got {num_frames}")

        self.name = name
        self.width = int(width)
        self.height = int(height)
        self.frame_rate = float(frame_rate)
        self.profile = profile if profile is not None else ContentProfile()
        self.seed = int(seed)

        self._num_frames = int(num_frames)
        self._columns: _Columns | None = None
        self._frames: tuple[Frame, ...] | None = None

    # -- content, generated on first read ------------------------------------

    @property
    def content_columns(self) -> _Columns:
        """Per-frame (complexity, motion, scene_change) columns."""
        columns = self._columns
        if columns is None:
            model = ContentModel(self.profile, seed=self.seed)
            complexity, motion, scene = model.columns(self._num_frames)
            columns = self._columns = (tuple(complexity), tuple(motion), tuple(scene))
        return columns

    @property
    def frames(self) -> tuple[Frame, ...]:
        """The frames of this sequence, built from the columns on first read."""
        frames = self._frames
        if frames is None:
            width, height = self.width, self.height
            frames = self._frames = tuple(
                Frame(index, width, height, FrameContent(complexity, motion, scene))
                for index, (complexity, motion, scene) in enumerate(
                    zip(*self.content_columns)
                )
            )
        return frames

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._num_frames

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __getitem__(self, index: int) -> Frame:
        return self.frames[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VideoSequence(name={self.name!r}, {self.width}x{self.height}, "
            f"{len(self)} frames @ {self.frame_rate} fps)"
        )

    # -- derived properties --------------------------------------------------

    @property
    def resolution_class(self) -> ResolutionClass:
        """HR or LR classification of the sequence."""
        return ResolutionClass.from_dimensions(self.width, self.height)

    @property
    def pixels_per_frame(self) -> int:
        """Number of luma pixels per frame."""
        return self.width * self.height

    @property
    def duration_seconds(self) -> float:
        """Source duration of the sequence in seconds."""
        return len(self) / self.frame_rate

    @property
    def mean_complexity(self) -> float:
        """Average spatial complexity over the whole sequence."""
        complexity = self.content_columns[0]
        return sum(complexity) / len(complexity)

    @property
    def mean_motion(self) -> float:
        """Average temporal activity over the whole sequence."""
        motion = self.content_columns[1]
        return sum(motion) / len(motion)
