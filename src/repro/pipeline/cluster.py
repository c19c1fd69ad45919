"""Assertion clustering: group tweets that make the same statement.

Apollo's fact-finding front end groups tweets into assertion clusters
before any truth estimation; the binary sensing model then treats each
cluster as one assertion.  This module implements a light-weight,
deterministic token-overlap clusterer:

* normalise text — strip the ``RT @user:`` prefix, lowercase, drop
  punctuation, drop a small stop/filler list;
* greedily assign each tweet to the best existing cluster by Jaccard
  similarity against the cluster's token profile, or open a new cluster
  when no similarity reaches the threshold; ties go to the lowest
  cluster id;
* candidates come from an inverted token index of append-only posting
  lists.  One pass over the tweet's lists counts the tokens it shares
  with every cluster, and a count filter (Sarawagi & Kirpal, SIGMOD
  2004) drops clusters that share too few to reach the threshold before
  any similarity is computed.

Retweets short-circuit: a tweet whose ``retweet_of`` parent is already
clustered joins the parent's cluster directly (a retweet *is* the same
assertion by construction).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.pipeline.ingest import IngestedTweet
from repro.utils.errors import ValidationError

_RT_PREFIX = re.compile(r"^rt @\w+:\s*")
_NON_WORD = re.compile(r"[^a-z0-9#' ]+")

#: Tokens carrying no assertion content (includes the simulator's fillers).
STOP_TOKENS: FrozenSet[str] = frozenset(
    {
        "a", "an", "and", "at", "by", "for", "in", "is", "it", "near", "of",
        "on", "say", "says", "that", "the", "this", "to", "was", "with",
        "breaking", "confirmed", "unconfirmed", "just", "heard", "reports",
        "developing", "sources", "claim", "happening", "now",
    }
)


def tokenize(text: str) -> FrozenSet[str]:
    """Normalise tweet text into its content-token set."""
    lowered = text.lower().strip()
    lowered = _RT_PREFIX.sub("", lowered)
    lowered = _NON_WORD.sub(" ", lowered)
    tokens = {tok for tok in lowered.split() if tok and tok not in STOP_TOKENS}
    return frozenset(tokens)


def jaccard(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    """Jaccard similarity of two token sets (0 when either is empty)."""
    if not a or not b:
        return 0.0
    intersection = len(a & b)
    if intersection == 0:
        return 0.0
    return intersection / (len(a) + len(b) - intersection)


@dataclass
class ClusterResult:
    """Output of :class:`TokenClusterer`.

    ``assignments[i]`` is the cluster id of the i-th input tweet;
    ``representatives`` holds the first (earliest) tweet text of each
    cluster, which Apollo uses as the assertion's display form.
    """

    assignments: List[int]
    representatives: List[str]
    token_profiles: List[Set[str]] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        """Number of assertion clusters discovered."""
        return len(self.representatives)


class TokenClusterer:
    """Greedy token-overlap clusterer with an inverted index."""

    def __init__(self, threshold: float = 0.65):
        if not 0.0 < threshold <= 1.0:
            raise ValidationError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold

    def cluster(self, tweets: Sequence[IngestedTweet]) -> ClusterResult:
        """Assign every tweet to an assertion cluster."""
        assignments: List[int] = []
        representatives: List[str] = []
        profiles: List[Set[str]] = []
        token_index: Dict[str, List[int]] = {}
        by_tweet_id: Dict[int, int] = {}

        for tweet in tweets:
            cluster_id = self._retweet_cluster(tweet, by_tweet_id)
            if cluster_id is None:
                tokens = tokenize(tweet.text)
                cluster_id = self._best_cluster(tokens, profiles, token_index)
                if cluster_id is None:
                    cluster_id = len(representatives)
                    representatives.append(tweet.text)
                    profiles.append(set())
                # Grow the profile toward the cluster consensus.  A cluster
                # id enters a token's posting list only when the token
                # enters its profile, so the lists hold no duplicates.
                profile = profiles[cluster_id]
                new_tokens = tokens - profile
                profile.update(new_tokens)
                for token in new_tokens:
                    token_index.setdefault(token, []).append(cluster_id)
            assignments.append(cluster_id)
            by_tweet_id[tweet.tweet_id] = cluster_id
        return ClusterResult(
            assignments=assignments,
            representatives=representatives,
            token_profiles=profiles,
        )

    @staticmethod
    def _retweet_cluster(
        tweet: IngestedTweet, by_tweet_id: Dict[int, int]
    ) -> Optional[int]:
        if tweet.retweet_of is None:
            return None
        return by_tweet_id.get(tweet.retweet_of)

    def _best_cluster(
        self,
        tokens: FrozenSet[str],
        profiles: List[Set[str]],
        token_index: Dict[str, List[int]],
    ) -> Optional[int]:
        """The cluster most similar to ``tokens`` at or above the threshold.

        Counting cluster ids over the tweet's posting lists gives
        ``shared`` = |A ∩ B| for every cluster B that shares a token with
        the tweet's token set A.  Jaccard ≥ τ implies |A ∩ B| ≥ τ·|A|,
        because |A ∪ B| ≥ |A|, so a cluster with
        ``shared < ceil(τ·|A|) − 1`` cannot qualify and is never scored.
        The −1 keeps a cluster that sits exactly at τ when the float
        product τ·|A| rounds up (τ = 0.14, 7 of 50 tokens).  The others are
        scored with :func:`jaccard`'s expression, so each score is the
        float ``jaccard`` returns.  Ties go to the lowest cluster id.
        """
        n_tokens = len(tokens)
        shared_counts = Counter(chain.from_iterable(token_index.get(token, ()) for token in tokens))
        min_shared = math.ceil(self.threshold * n_tokens) - 1
        # (score, -id): the highest score wins, then the lowest id.
        score, negated_id = max(
            (
                (shared / (n_tokens + len(profiles[cluster_id]) - shared), -cluster_id)
                for cluster_id, shared in shared_counts.items()
                if shared >= min_shared
            ),
            default=(0.0, 0),
        )
        return -negated_id if score >= self.threshold else None


__all__ = ["ClusterResult", "STOP_TOKENS", "TokenClusterer", "jaccard", "tokenize"]
