"""Timestamped post events and the event log.

The raw material of social sensing is a stream of posts: *who* asserted
*what*, *when*, and (for retweets) *via whom*.  The dependency
extractor (:mod:`repro.network.dependency`) reads each (source,
assertion) cell's first report time off an event log and joins it with
a follow graph into the ``(SC, D)`` matrices the estimators consume;
the simulated Twitter platform (:mod:`repro.datasets.twitter_sim`)
produces event logs as its output.  A post's time must be finite: a
NaN or infinite time has no place in the report order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional

from repro.utils.errors import DataError, ValidationError


@dataclass(frozen=True)
class Post:
    """One post: source ``source`` asserts ``assertion`` at ``time``.

    ``retweet_of`` optionally names the post id this one repeats;
    ``text`` carries the (simulated) message body for pipeline
    clustering; both may be absent for purely matrix-level workloads.
    """

    post_id: int
    source: int
    assertion: int
    time: float
    retweet_of: Optional[int] = None
    text: Optional[str] = None

    def __post_init__(self) -> None:
        if self.source < 0 or self.assertion < 0:
            raise ValidationError(
                f"source and assertion ids must be non-negative, got "
                f"({self.source}, {self.assertion})"
            )
        if not math.isfinite(self.time):
            raise ValidationError(
                f"post {self.post_id} time must be finite, got {self.time}"
            )
        if self.retweet_of is not None and self.retweet_of == self.post_id:
            raise ValidationError(f"post {self.post_id} cannot retweet itself")

    @property
    def is_retweet(self) -> bool:
        """Whether this post repeats another post."""
        return self.retweet_of is not None


@dataclass
class EventLog:
    """A time-ordered collection of posts.

    Posts are kept sorted by ``(time, post_id)`` and post ids must be
    unique; both invariants are enforced at construction and insertion.
    """

    posts: List[Post] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.posts = sorted(self.posts, key=lambda p: (p.time, p.post_id))
        ids = [p.post_id for p in self.posts]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate post ids in event log")
        by_id = {p.post_id: p for p in self.posts}
        for post in self.posts:
            if post.retweet_of is not None:
                original = by_id.get(post.retweet_of)
                if original is None:
                    raise DataError(
                        f"post {post.post_id} retweets unknown post {post.retweet_of}"
                    )
                if original.time > post.time:
                    raise DataError(
                        f"post {post.post_id} retweets post {post.retweet_of} "
                        "from the future"
                    )

    def __len__(self) -> int:
        return len(self.posts)

    def __iter__(self) -> Iterator[Post]:
        return iter(self.posts)

    def append(self, post: Post) -> None:
        """Add a post; it must not be earlier than the current last post."""
        if self.posts and (post.time, post.post_id) < (
            self.posts[-1].time,
            self.posts[-1].post_id,
        ):
            raise DataError(
                f"post {post.post_id} at time {post.time} would break event order"
            )
        if any(p.post_id == post.post_id for p in self.posts):
            raise DataError(f"duplicate post id {post.post_id}")
        if post.retweet_of is not None and not any(
            p.post_id == post.retweet_of for p in self.posts
        ):
            raise DataError(
                f"post {post.post_id} retweets unknown post {post.retweet_of}"
            )
        self.posts.append(post)

    @property
    def n_sources(self) -> int:
        """1 + the largest source id seen (0 for an empty log)."""
        return 1 + max((p.source for p in self.posts), default=-1)

    @property
    def n_assertions(self) -> int:
        """1 + the largest assertion id seen (0 for an empty log)."""
        return 1 + max((p.assertion for p in self.posts), default=-1)

    @property
    def n_original_posts(self) -> int:
        """Posts that are not retweets."""
        return sum(1 for p in self.posts if not p.is_retweet)

    def posts_by_source(self, source: int) -> List[Post]:
        """All posts of one source, in time order."""
        return [p for p in self.posts if p.source == source]

    def posts_by_assertion(self, assertion: int) -> List[Post]:
        """All posts making one assertion, in time order."""
        return [p for p in self.posts if p.assertion == assertion]

    @classmethod
    def merge(cls, logs: Iterable["EventLog"]) -> "EventLog":
        """Merge several logs into one (post ids must stay unique)."""
        posts: List[Post] = []
        for log in logs:
            posts.extend(log.posts)
        return cls(posts=posts)


__all__ = ["EventLog", "Post"]
