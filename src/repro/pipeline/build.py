"""Matrix construction stage: clustered tweets → sensing problem.

Combines the ingestion and clustering outputs with the follow graph to
produce the ``(SC, D)`` matrices through the shared dependency
extractor.  The retweet relation contributes follow edges on the fly:
if a user retweeted another, the retweeter is treated as following the
original author (the paper's empirical dependency network is built from
exactly such retweet behaviours).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.data.protocol import FORMAT_DENSE, Problem
from repro.network.dependency import _build_problem
from repro.network.events import EventLog, Post
from repro.network.graph import FollowGraph
from repro.pipeline.cluster import ClusterResult
from repro.pipeline.ingest import IngestResult
from repro.utils.errors import ValidationError


@dataclass
class BuiltProblem:
    """A sensing problem plus the id maps back to raw data."""

    problem: Problem
    user_ids: List[int]
    representatives: List[str]
    log: EventLog
    graph: FollowGraph


def infer_follow_edges(ingest: IngestResult) -> List[Tuple[int, int]]:
    """Derive follower → followee edges from observed retweet behaviour."""
    by_tweet_id = {t.tweet_id: t for t in ingest.tweets}
    edges = []
    for tweet in ingest.tweets:
        if tweet.retweet_of is None:
            continue
        parent = by_tweet_id.get(tweet.retweet_of)
        if parent is None or parent.user_index == tweet.user_index:
            continue
        edges.append((tweet.user_index, parent.user_index))
    return edges


def build_problem_from_clusters(
    ingest: IngestResult,
    clusters: ClusterResult,
    *,
    follow_edges: Optional[Iterable[Tuple[int, int]]] = None,
    policy: str = "direct",
    output_format: str = FORMAT_DENSE,
) -> BuiltProblem:
    """Assemble the sensing problem from pipeline stage outputs.

    ``follow_edges`` uses *compact user indices* (see
    :meth:`IngestResult.user_index`); when omitted, edges are inferred
    from retweet behaviour alone.  ``output_format`` selects the
    storage format of the built problem (``"dense"`` — the historical
    default — or ``"csr"`` for crawl-scale corpora).  The raw user ids
    are attached as ``source_ids`` (``u{id}``), so they survive format
    conversions and serialisation.
    """
    if len(clusters.assignments) != len(ingest.tweets):
        raise ValidationError(
            f"cluster assignments ({len(clusters.assignments)}) do not match "
            f"ingested tweets ({len(ingest.tweets)})"
        )
    known_ids = {tweet.tweet_id for tweet in ingest.tweets}
    posts = [
        Post(
            post_id=tweet.tweet_id,
            source=tweet.user_index,
            assertion=cluster_id,
            time=tweet.time,
            # A retweet whose parent fell outside the ingested window
            # degrades to an original post (the influence edge is gone).
            retweet_of=(
                tweet.retweet_of if tweet.retweet_of in known_ids else None
            ),
            text=tweet.text,
        )
        for tweet, cluster_id in zip(ingest.tweets, clusters.assignments)
    ]
    log = EventLog(posts=posts)
    graph = FollowGraph(ingest.n_users)
    if follow_edges is None:
        follow_edges = infer_follow_edges(ingest)
    for follower, followee in follow_edges:
        if follower != followee and not graph.follows(follower, followee):
            graph.add_follow(follower, followee)
    problem = _build_problem(
        log,
        graph,
        n_assertions=clusters.n_clusters,
        policy=policy,
        output_format=output_format,
        source_ids=[f"u{user_id}" for user_id in ingest.user_ids],
    )
    return BuiltProblem(
        problem=problem,
        user_ids=ingest.user_ids,
        representatives=clusters.representatives,
        log=log,
        graph=graph,
    )


__all__ = ["BuiltProblem", "build_problem_from_clusters", "infer_follow_edges"]
