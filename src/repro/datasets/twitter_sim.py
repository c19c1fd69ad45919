"""Simulated Twitter platform re-creating the Table III datasets.

The paper's five 2015 crawls are unavailable offline, so the library
re-creates each as a seeded platform simulation matched to the table's
scale (sources, assertions, total claims, original claims) and period
(DESIGN.md §6).  The simulation reproduces the *mechanisms* the paper
studies rather than the literal content:

* a preferential-attachment follow graph (few celebrities, many
  lurkers);
* heavy-tailed source activity and assertion popularity;
* per-source reliability — reliable sources rarely originate false
  assertions;
* retweet cascades with label-dependent virality — false rumours spread
  further per original than verified facts, which is exactly the
  correlated-error phenomenon that defeats independence-assuming
  fact-finders;
* a minority of unverifiable "opinion" assertions, which count against
  precision in the Figure 11 metric.

The full-scale simulation reproduces Table III; the evaluation-day
slice (what Section V-C actually feeds the algorithms) is extracted
with :meth:`TwitterDataset.evaluation_slice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.protocol import FORMAT_DENSE, Problem
from repro.datasets.schema import AssertionLabel, DatasetSummary, Tweet
from repro.datasets.vocab import get_vocabulary, render_tweet_text
from repro.network.dependency import _build_problem
from repro.network.events import EventLog, Post
from repro.network.generators import preferential_attachment
from repro.network.graph import FollowGraph
from repro.utils.errors import ValidationError
from repro.utils.rng import RandomState, SeedLike, derive_seed

_TIME_FORMAT = "%b %d %H:%M:%S %Y"

#: Ratio of the simulated source pool to the Table III distinct-source
#: target; with heavy-tailed activity, sampling the claim volume from a
#: pool this much larger lands near the target distinct count.
_POOL_RATIO = 2.6

#: Fraction of assertions whose event window opens on the evaluation day.
_EVAL_DAY_SHARE = 0.45


@dataclass(frozen=True)
class DatasetSpec:
    """Target shape of one Table III dataset."""

    name: str
    theme: str
    location: str
    start_time: str
    end_time: str
    evaluation_day: str
    n_assertions: int
    n_sources: int
    n_claims: int
    n_original_claims: int
    true_fraction: float = 0.45
    opinion_fraction: float = 0.20

    def __post_init__(self) -> None:
        if self.n_original_claims > self.n_claims:
            raise ValidationError(
                f"{self.name}: original claims ({self.n_original_claims}) "
                f"exceed total claims ({self.n_claims})"
            )
        if not 0 < self.true_fraction < 1 or not 0 <= self.opinion_fraction < 1:
            raise ValidationError(f"{self.name}: invalid label fractions")
        if self.true_fraction + self.opinion_fraction >= 1:
            raise ValidationError(
                f"{self.name}: true + opinion fractions must leave room for false"
            )

    @property
    def duration_days(self) -> float:
        """Length of the crawl period in days."""
        start = datetime.strptime(self.start_time, _TIME_FORMAT)
        end = datetime.strptime(self.end_time, _TIME_FORMAT)
        return (end - start).total_seconds() / 86400.0

    @property
    def evaluation_offset_days(self) -> float:
        """Days from the start time to 00:00 of the evaluation day."""
        start = datetime.strptime(self.start_time, _TIME_FORMAT)
        eval_day = datetime.strptime(self.evaluation_day, "%b %d %Y")
        offset = (eval_day - start).total_seconds() / 86400.0
        return max(0.0, offset)


@dataclass
class EvaluationSlice:
    """The evaluation-day sub-problem Section V-C feeds the algorithms.

    ``labels`` holds one :class:`AssertionLabel` per column of
    ``problem``; ``problem.truth`` is the binary projection (opinion →
    false) used only by synthetic-style metrics.  ``source_ids`` /
    ``assertion_ids`` map the slice's compact indices back to the full
    dataset's ids; the problem itself carries the string forms
    (``u{sid}`` / ``a{aid}``), so the mapping survives format
    conversions and serialisation.
    """

    problem: Problem
    labels: List[AssertionLabel]
    source_ids: List[int]
    assertion_ids: List[int]

    @property
    def n_sources(self) -> int:
        """Sources active on the evaluation day."""
        return self.problem.n_sources

    @property
    def n_assertions(self) -> int:
        """Assertions reported on the evaluation day."""
        return self.problem.n_assertions


@dataclass
class TwitterDataset:
    """One simulated crawl: tweets, labels, follow graph, and metadata."""

    spec: DatasetSpec
    scale: float
    tweets: List[Tweet]
    labels: List[AssertionLabel]
    graph: FollowGraph
    assertion_texts: List[str]

    @property
    def n_assertions(self) -> int:
        """Number of assertion clusters in the simulation."""
        return len(self.labels)

    def summary(self) -> DatasetSummary:
        """The measured Table III row of this simulation."""
        sources = {t.user for t in self.tweets}
        assertions = {t.assertion for t in self.tweets}
        claims: Set[Tuple[int, int]] = set()
        original_claims: Set[Tuple[int, int]] = set()
        for tweet in self.tweets:
            key = (tweet.user, tweet.assertion)
            claims.add(key)
            if not tweet.is_retweet:
                original_claims.add(key)
        return DatasetSummary(
            name=self.spec.name,
            start_time=self.spec.start_time,
            end_time=self.spec.end_time,
            evaluation_day=self.spec.evaluation_day,
            n_assertions=len(assertions),
            n_sources=len(sources),
            n_total_claims=len(claims),
            n_original_claims=len(original_claims),
            location=self.spec.location,
        )

    def event_log(self, tweets: Optional[Sequence[Tweet]] = None) -> EventLog:
        """Convert (a subset of) the tweets into an event log."""
        tweets = self.tweets if tweets is None else list(tweets)
        posts = [
            Post(
                post_id=t.tweet_id,
                source=t.user,
                assertion=t.assertion,
                time=t.time,
                retweet_of=t.retweet_of,
                text=t.text,
            )
            for t in tweets
        ]
        known = {t.tweet_id for t in tweets}
        posts = [
            p if (p.retweet_of is None or p.retweet_of in known) else Post(
                post_id=p.post_id,
                source=p.source,
                assertion=p.assertion,
                time=p.time,
                retweet_of=None,
                text=p.text,
            )
            for p in posts
        ]
        return EventLog(posts=posts)

    def evaluation_tweets(self) -> List[Tweet]:
        """Tweets posted during the evaluation day."""
        day_start = self.spec.evaluation_offset_days
        day_end = day_start + 1.0
        return [t for t in self.tweets if day_start <= t.time < day_end]

    def evaluation_slice(
        self, *, policy: str = "direct", output_format: str = FORMAT_DENSE
    ) -> EvaluationSlice:
        """Build the evaluation-day sensing problem (Section V-C input).

        ``output_format`` selects the storage format of the slice's
        problem (``"dense"`` by default, ``"csr"`` for crawl-scale
        runs).
        """
        tweets = self.evaluation_tweets()
        if not tweets:
            raise ValidationError(
                f"{self.spec.name}: no tweets on the evaluation day; "
                "regenerate with another seed or larger scale"
            )
        source_ids = sorted({t.user for t in tweets})
        assertion_ids = sorted({t.assertion for t in tweets})
        source_index = {sid: k for k, sid in enumerate(source_ids)}
        assertion_index = {aid: k for k, aid in enumerate(assertion_ids)}
        day_start = self.spec.evaluation_offset_days
        posts = []
        for order, tweet in enumerate(sorted(tweets, key=lambda t: (t.time, t.tweet_id))):
            posts.append(
                Post(
                    post_id=order,
                    source=source_index[tweet.user],
                    assertion=assertion_index[tweet.assertion],
                    time=tweet.time - day_start,
                    text=tweet.text,
                )
            )
        log = EventLog(posts=posts)
        subgraph = FollowGraph(len(source_ids))
        for follower, followee in self.graph.edges():
            if follower in source_index and followee in source_index:
                subgraph.add_follow(source_index[follower], source_index[followee])
        labels = [self.labels[aid] for aid in assertion_ids]
        truth = np.array(
            [1 if label is AssertionLabel.TRUE else 0 for label in labels],
            dtype=np.int8,
        )
        problem = _build_problem(
            log,
            subgraph,
            n_assertions=len(assertion_ids),
            policy=policy,
            output_format=output_format,
            truth=truth,
            source_ids=[f"u{sid}" for sid in source_ids],
            assertion_ids=[f"a{aid}" for aid in assertion_ids],
        )
        return EvaluationSlice(
            problem=problem,
            labels=labels,
            source_ids=source_ids,
            assertion_ids=assertion_ids,
        )


class TwitterSimulator:
    """Seeded platform simulation targeting one :class:`DatasetSpec`."""

    def __init__(self, spec: DatasetSpec, *, scale: float = 1.0, seed: SeedLike = None):
        if not 0 < scale <= 1.0:
            raise ValidationError(f"scale must be in (0, 1], got {scale}")
        self.spec = spec
        self.scale = scale
        self._rng = RandomState(seed)

    def simulate(self) -> TwitterDataset:
        """Run the simulation and return the dataset."""
        rng = RandomState(derive_seed(self._rng))
        spec = self.spec
        m = max(20, int(round(spec.n_assertions * self.scale)))
        n_pool = max(50, int(round(spec.n_sources * self.scale * _POOL_RATIO)))
        n_originals = max(m, int(round(spec.n_original_claims * self.scale)))
        n_retweets = max(
            0, int(round((spec.n_claims - spec.n_original_claims) * self.scale))
        )

        labels = self._draw_labels(rng, m)
        vocabulary = get_vocabulary(spec.theme)
        assertion_texts = [vocabulary.render_assertion(rng) for _ in range(m)]
        graph = preferential_attachment(n_pool, links_per_source=3, seed=derive_seed(rng))
        activity = rng.lognormal(0.0, 0.9, size=n_pool)
        # Reliability correlates with activity: prolific accounts (news
        # desks, beat reporters) verify before posting far more often
        # than drive-by accounts.  This is also what gives per-source
        # estimators traction — the sources with enough claims to be
        # learnable are the ones whose reliability matters most.
        activity_rank = np.argsort(np.argsort(activity)) / max(n_pool - 1, 1)
        reliable = rng.random(n_pool) < (0.35 + 0.55 * activity_rank)
        popularity = rng.lognormal(0.0, 1.2, size=m)
        onsets, durations, on_eval_day = self._draw_windows(rng, m)
        # Breaking-news burst: evaluation-day assertions attract a
        # disproportionate share of the crawl's attention, which is why
        # the paper evaluates on those days in the first place.
        popularity = popularity * np.where(on_eval_day, 3.0, 1.0)

        tweets = self._originals(
            rng, m, n_originals, labels, popularity, activity, reliable,
            onsets, durations, assertion_texts,
        )
        tweets = self._retweets(
            rng, tweets, n_retweets, labels, popularity, graph, assertion_texts,
            reliable, activity,
        )
        tweets.sort(key=lambda t: t.time)
        renumbered = []
        id_map: Dict[int, int] = {}
        for new_id, tweet in enumerate(tweets):
            id_map[tweet.tweet_id] = new_id
            renumbered.append(
                Tweet(
                    tweet_id=new_id,
                    user=tweet.user,
                    time=tweet.time,
                    text=tweet.text,
                    assertion=tweet.assertion,
                    retweet_of=(
                        id_map[tweet.retweet_of]
                        if tweet.retweet_of is not None
                        else None
                    ),
                )
            )
        return TwitterDataset(
            spec=spec,
            scale=self.scale,
            tweets=renumbered,
            labels=labels,
            graph=graph,
            assertion_texts=assertion_texts,
        )

    # -- internals ---------------------------------------------------------------

    def _draw_labels(self, rng: np.random.Generator, m: int) -> List[AssertionLabel]:
        spec = self.spec
        false_fraction = 1.0 - spec.true_fraction - spec.opinion_fraction
        codes = rng.choice(
            3, size=m, p=[spec.true_fraction, false_fraction, spec.opinion_fraction]
        )
        mapping = (AssertionLabel.TRUE, AssertionLabel.FALSE, AssertionLabel.OPINION)
        return [mapping[int(c)] for c in codes]

    def _draw_windows(
        self, rng: np.random.Generator, m: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        spec = self.spec
        duration_days = max(spec.duration_days, 1.0)
        eval_offset = min(spec.evaluation_offset_days, duration_days - 1.0)
        onsets = np.empty(m)
        on_eval_day = rng.random(m) < _EVAL_DAY_SHARE
        onsets[on_eval_day] = eval_offset + rng.random(int(on_eval_day.sum())) * 0.8
        onsets[~on_eval_day] = rng.random(int((~on_eval_day).sum())) * duration_days * 0.95
        durations = rng.uniform(0.3, 2.0, size=m)
        return onsets, durations, on_eval_day

    def _originals(
        self,
        rng: np.random.Generator,
        m: int,
        n_originals: int,
        labels: List[AssertionLabel],
        popularity: np.ndarray,
        activity: np.ndarray,
        reliable: np.ndarray,
        onsets: np.ndarray,
        durations: np.ndarray,
        assertion_texts: List[str],
    ) -> List[Tweet]:
        # Rumours surface as bursts of parallel original posts from
        # unreliable accounts (the astroturf pattern), so false
        # assertions get a slightly *larger* share of originals — raw
        # support counts cannot separate them from verified news.
        label_factor = np.array(
            [
                1.3 if lab is AssertionLabel.TRUE
                else 0.7 if lab is AssertionLabel.FALSE
                else 1.0
                for lab in labels
            ]
        )
        weights = popularity * label_factor
        extra = n_originals - m
        counts = np.ones(m, dtype=np.int64)
        if extra > 0:
            counts += rng.multinomial(extra, weights / weights.sum())

        n_pool = activity.size
        source_weights = {
            AssertionLabel.TRUE: activity * np.where(reliable, 1.0, 0.55),
            AssertionLabel.FALSE: activity * np.where(reliable, 0.18, 1.0),
            AssertionLabel.OPINION: activity * np.where(reliable, 0.8, 1.0),
        }
        for key, w in source_weights.items():
            source_weights[key] = w / w.sum()

        tweets: List[Tweet] = []
        claimed: Set[Tuple[int, int]] = set()
        tweet_id = 0
        spec_duration = max(self.spec.duration_days, 1.0)
        for assertion in range(m):
            probabilities = source_weights[labels[assertion]]
            for _ in range(int(counts[assertion])):
                user = None
                for _attempt in range(6):
                    candidate = int(rng.choice(n_pool, p=probabilities))
                    if (candidate, assertion) not in claimed:
                        user = candidate
                        break
                if user is None:
                    continue
                claimed.add((user, assertion))
                delay = rng.exponential(durations[assertion] / 3.0)
                time = float(
                    np.clip(onsets[assertion] + delay, 0.0, spec_duration)
                )
                tweets.append(
                    Tweet(
                        tweet_id=tweet_id,
                        user=user,
                        time=time,
                        text=render_tweet_text(assertion_texts[assertion], rng),
                        assertion=assertion,
                    )
                )
                tweet_id += 1
        return tweets

    @staticmethod
    def _retweet_acceptance(label: AssertionLabel, is_reliable: bool) -> float:
        """Probability a candidate repeats a seen post.

        Reliable users verify before repeating (the paper's
        middle-ground behaviour between blind repetition and
        independent observation): they propagate confirmed facts and
        almost never rumours.  Unreliable users amplify whatever is
        viral — rumours most of all.
        """
        if is_reliable:
            if label is AssertionLabel.TRUE:
                return 0.9
            if label is AssertionLabel.FALSE:
                return 0.08
            return 0.4
        if label is AssertionLabel.TRUE:
            return 0.5
        if label is AssertionLabel.FALSE:
            return 0.9
        return 0.75

    def _retweets(
        self,
        rng: np.random.Generator,
        tweets: List[Tweet],
        n_retweets: int,
        labels: List[AssertionLabel],
        popularity: np.ndarray,
        graph: FollowGraph,
        assertion_texts: List[str],
        reliable: np.ndarray,
        activity: np.ndarray,
    ) -> List[Tweet]:
        if n_retweets == 0 or not tweets:
            return tweets
        m = len(labels)
        # Verified news earns the larger cascades (reliable accounts
        # verify, then repeat); rumours still cascade, but through the
        # unreliable fringe.  Dependent claims therefore carry real
        # information — the middle ground the paper's model occupies.
        virality = popularity * np.array(
            [
                2.5 if lab is AssertionLabel.FALSE
                else 1.3 if lab is AssertionLabel.OPINION
                else 1.0
                for lab in labels
            ]
        )
        posts_by_assertion: Dict[int, List[Tweet]] = {}
        claimed: Set[Tuple[int, int]] = set()
        for tweet in tweets:
            posts_by_assertion.setdefault(tweet.assertion, []).append(tweet)
            claimed.add((tweet.user, tweet.assertion))
        candidates = [a for a in range(m) if a in posts_by_assertion]
        weights = virality[candidates]
        weights = weights / weights.sum()
        tweet_id = max(t.tweet_id for t in tweets) + 1
        spec_duration = max(self.spec.duration_days, 1.0)
        produced = 0
        attempts = 0
        max_attempts = n_retweets * 8
        while produced < n_retweets and attempts < max_attempts:
            attempts += 1
            assertion = int(rng.choice(candidates, p=weights))
            pool = posts_by_assertion[assertion]
            parent = pool[int(rng.integers(0, len(pool)))]
            followers = sorted(graph.followers(parent.user))
            retweeter = None
            label = labels[assertion]
            if followers:
                # Active accounts retweet more: they are the hub
                # repeaters whose dependent behaviour a per-source
                # estimator can actually learn.
                follower_weights = activity[followers]
                order = rng.choice(
                    len(followers),
                    size=min(8, len(followers)),
                    replace=False,
                    p=follower_weights / follower_weights.sum(),
                )
                followers = [followers[i] for i in order]
            for follower in followers[:8]:
                if (follower, assertion) in claimed:
                    continue
                if rng.random() < self._retweet_acceptance(label, bool(reliable[follower])):
                    retweeter = follower
                    break
            if retweeter is None:
                # Discovery retweet: a random source finds the post (and
                # starts following its author, so the dependency
                # extractor can see the influence edge).
                candidate = int(rng.integers(0, graph.n_sources))
                if candidate == parent.user or (candidate, assertion) in claimed:
                    continue
                if rng.random() >= self._retweet_acceptance(
                    label, bool(reliable[candidate])
                ):
                    continue
                graph.add_follow(candidate, parent.user)
                retweeter = candidate
            claimed.add((retweeter, assertion))
            time = float(
                np.clip(parent.time + rng.exponential(0.08), 0.0, spec_duration)
            )
            if time <= parent.time:
                time = parent.time + 1e-6
            retweet = Tweet(
                tweet_id=tweet_id,
                user=retweeter,
                time=time,
                text=render_tweet_text(
                    assertion_texts[assertion], rng, retweet_user=parent.user
                ),
                assertion=assertion,
                retweet_of=parent.tweet_id,
            )
            tweets.append(retweet)
            posts_by_assertion[assertion].append(retweet)
            tweet_id += 1
            produced += 1
        return tweets


__all__ = [
    "DatasetSpec",
    "EvaluationSlice",
    "TwitterDataset",
    "TwitterSimulator",
]
