"""Tests for matrix construction from pipeline stages."""

import pytest

from repro.datasets import Tweet, simulate_dataset
from repro.pipeline import (
    TokenClusterer,
    build_problem_from_clusters,
    infer_follow_edges,
    ingest_tweets,
)
from repro.pipeline.cluster import ClusterResult
from repro.utils.errors import ValidationError


def _tweet(tweet_id, user, time, text, retweet_of=None):
    return Tweet(
        tweet_id=tweet_id, user=user, time=time, text=text,
        assertion=0, retweet_of=retweet_of,
    )


@pytest.fixture
def cascade_tweets():
    """User 20 posts; user 30 retweets; user 40 posts something else."""
    return [
        _tweet(0, 20, 1.0, "main street bridge closed #traffic"),
        _tweet(1, 30, 2.0, "RT @user20: main street bridge closed #traffic", retweet_of=0),
        _tweet(2, 40, 3.0, "city marathon rerouted downtown #race"),
    ]


class TestInferFollowEdges:
    def test_retweet_implies_follow(self, cascade_tweets):
        ingest = ingest_tweets(cascade_tweets)
        edges = infer_follow_edges(ingest)
        # user 30 (index 1) follows user 20 (index 0).
        assert edges == [(1, 0)]

    def test_no_retweets_no_edges(self):
        ingest = ingest_tweets([_tweet(0, 1, 1.0, "hello world")])
        assert infer_follow_edges(ingest) == []


class TestBuildProblem:
    def test_end_to_end(self, cascade_tweets):
        ingest = ingest_tweets(cascade_tweets)
        clusters = TokenClusterer().cluster(ingest.tweets)
        built = build_problem_from_clusters(ingest, clusters)
        problem = built.problem
        assert problem.n_sources == 3
        assert problem.n_assertions == 2
        # The retweet is a dependent claim.
        bridge_cluster = clusters.assignments[0]
        assert problem.dependency[1, bridge_cluster] == 1
        assert problem.claims[1, bridge_cluster] == 1

    def test_explicit_follow_edges(self, cascade_tweets):
        ingest = ingest_tweets(cascade_tweets)
        clusters = TokenClusterer().cluster(ingest.tweets)
        built = build_problem_from_clusters(
            ingest, clusters, follow_edges=[(2, 0)]
        )
        assert built.graph.follows(2, 0)

    def test_mismatched_assignments(self, cascade_tweets):
        ingest = ingest_tweets(cascade_tweets)
        bad_clusters = ClusterResult(assignments=[0], representatives=["x"])
        with pytest.raises(ValidationError):
            build_problem_from_clusters(ingest, bad_clusters)

    def test_orphan_retweet_degrades_to_original(self):
        """A retweet whose parent is outside the window becomes original."""
        tweets = [
            _tweet(1, 30, 2.0, "RT @user20: bridge closed #traffic", retweet_of=0),
        ]
        ingest = ingest_tweets(tweets)
        clusters = TokenClusterer().cluster(ingest.tweets)
        built = build_problem_from_clusters(ingest, clusters)
        assert built.problem.n_sources == 1
        assert built.log.n_original_posts == 1

    def test_representatives_forwarded(self, cascade_tweets):
        ingest = ingest_tweets(cascade_tweets)
        clusters = TokenClusterer().cluster(ingest.tweets)
        built = build_problem_from_clusters(ingest, clusters)
        assert built.representatives == clusters.representatives


class TestCsrBuild:
    @pytest.mark.parametrize("policy", ["direct", "transitive"])
    def test_csr_build_is_the_dense_csr_view(self, policy):
        """Claims, dependency and source ids all match the dense build."""
        pytest.importorskip("scipy")
        tweets = simulate_dataset("kirkuk", scale=0.04, seed=3).tweets
        ingest = ingest_tweets(tweets)
        clusters = TokenClusterer().cluster(ingest.tweets)
        dense = build_problem_from_clusters(ingest, clusters, policy=policy)
        csr = build_problem_from_clusters(
            ingest, clusters, policy=policy, output_format="csr"
        )
        assert csr.problem.format == "csr"
        assert csr.problem.n_claims > 0
        assert csr.problem == dense.problem.csr_view()
