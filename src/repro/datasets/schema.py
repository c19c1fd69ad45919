"""Record types for the (simulated) Twitter datasets.

The empirical evaluation (Section V-C) runs on five Twitter crawls that
are no longer publicly retrievable; the library re-creates them as
seeded simulations matched to Table III's scale (DESIGN.md §6).  These
records define the dataset surface: tweets, assertion labels, and the
Table III summary row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from repro.utils.errors import ValidationError


class AssertionLabel(Enum):
    """Ground-truth category of an assertion, as the paper's graders used.

    ``TRUE``/``FALSE`` are verifiable assertions; ``OPINION`` covers
    subjective assessments and non-sensing posts, which count against an
    algorithm's precision in the Figure 11 metric.
    """

    TRUE = "true"
    FALSE = "false"
    OPINION = "opinion"

    @property
    def is_verifiable(self) -> bool:
        """Whether the label is a verifiable true/false judgement."""
        return self is not AssertionLabel.OPINION


@dataclass(frozen=True)
class Tweet:
    """One (simulated) tweet.

    ``time`` is in fractional days since the dataset's start time;
    ``assertion`` is the ground-truth cluster id (hidden from
    text-level pipeline runs, which must re-cluster from ``text``).
    """

    tweet_id: int
    user: int
    time: float
    text: str
    assertion: int
    retweet_of: Optional[int] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise ValidationError(f"tweet time must be finite, got {self.time}")
        if self.time < 0:
            raise ValidationError(f"tweet time must be non-negative, got {self.time}")
        if self.retweet_of is not None and self.retweet_of == self.tweet_id:
            raise ValidationError(f"tweet {self.tweet_id} cannot retweet itself")

    @property
    def is_retweet(self) -> bool:
        """Whether the tweet repeats an earlier tweet."""
        return self.retweet_of is not None


@dataclass(frozen=True)
class DatasetSummary:
    """One row of Table III."""

    name: str
    start_time: str
    end_time: str
    evaluation_day: str
    n_assertions: int
    n_sources: int
    n_total_claims: int
    n_original_claims: int
    location: str

    def as_row(self) -> Tuple:
        """The row in Table III's column order."""
        return (
            self.name,
            self.start_time,
            self.end_time,
            self.evaluation_day,
            self.n_assertions,
            self.n_sources,
            self.n_total_claims,
            self.n_original_claims,
            self.location,
        )

    @staticmethod
    def header() -> Tuple[str, ...]:
        """Column names matching Table III."""
        return (
            "Dataset",
            "Total Start Time (UTC)",
            "Total End Time (UTC)",
            "Evaluation Day",
            "#Assertions",
            "#Sources",
            "#Total Claims",
            "#Original Claims",
            "Locations",
        )


__all__ = ["AssertionLabel", "DatasetSummary", "Tweet"]
