"""Tests for assertion clustering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import Tweet, simulate_dataset
from repro.pipeline import TokenClusterer, ingest_tweets, jaccard, tokenize
from repro.utils.errors import ValidationError


def _tweet(tweet_id, user, time, text, retweet_of=None):
    return Tweet(
        tweet_id=tweet_id, user=user, time=time, text=text,
        assertion=0, retweet_of=retweet_of,
    )


def _reference_cluster(tweets, threshold):
    """Naive clusterer: score every cluster in id order with :func:`jaccard`.

    The first best score at or above ``threshold`` wins; retweets of an
    already clustered parent join the parent's cluster.
    """
    assignments, representatives, profiles, by_tweet_id = [], [], [], {}
    for tweet in tweets:
        cluster_id = by_tweet_id.get(tweet.retweet_of)
        if cluster_id is None:
            tokens = tokenize(tweet.text)
            scores = [jaccard(tokens, frozenset(profile)) for profile in profiles]
            best = max(scores, default=0.0)
            if best >= threshold:
                cluster_id = scores.index(best)
                profiles[cluster_id] |= tokens
            else:
                cluster_id = len(profiles)
                representatives.append(tweet.text)
                profiles.append(set(tokens))
        assignments.append(cluster_id)
        by_tweet_id[tweet.tweet_id] = cluster_id
    return assignments, representatives, profiles


class TestTokenize:
    def test_strips_rt_prefix(self):
        assert tokenize("RT @user99: bridge closed #traffic") == tokenize(
            "bridge closed #traffic"
        )

    def test_drops_stop_and_filler_tokens(self):
        assert tokenize("BREAKING: the bridge is closed") == {"bridge", "closed"}

    def test_keeps_hashtags(self):
        assert "#paris" in tokenize("explosion reported #paris")

    def test_case_insensitive(self):
        assert tokenize("Bridge CLOSED") == tokenize("bridge closed")


class TestJaccard:
    def test_identical(self):
        tokens = frozenset({"a", "b"})
        assert jaccard(tokens, tokens) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset({"a"}), frozenset({"b"})) == 0.0

    def test_partial(self):
        assert jaccard(frozenset({"a", "b"}), frozenset({"b", "c"})) == pytest.approx(1 / 3)

    def test_empty(self):
        assert jaccard(frozenset(), frozenset({"a"})) == 0.0


class TestTokenClusterer:
    def test_threshold_validated(self):
        with pytest.raises(ValidationError):
            TokenClusterer(threshold=0.0)
        with pytest.raises(ValidationError):
            TokenClusterer(threshold=1.5)

    def test_groups_same_statement(self):
        tweets = ingest_tweets(
            [
                _tweet(0, 1, 1.0, "main street bridge closed after crash #traffic"),
                _tweet(1, 2, 2.0, "BREAKING: main street bridge closed after crash #traffic"),
                _tweet(2, 3, 3.0, "city marathon rerouted around downtown #race"),
            ]
        ).tweets
        result = TokenClusterer().cluster(tweets)
        assert result.n_clusters == 2
        assert result.assignments[0] == result.assignments[1]
        assert result.assignments[0] != result.assignments[2]

    def test_retweets_join_parent_cluster(self):
        tweets = ingest_tweets(
            [
                _tweet(0, 1, 1.0, "main street bridge closed #traffic"),
                _tweet(1, 2, 2.0, "RT @user1: main street bridge closed #traffic", retweet_of=0),
            ]
        ).tweets
        result = TokenClusterer().cluster(tweets)
        assert result.assignments == [0, 0]

    def test_representative_is_first_text(self):
        tweets = ingest_tweets(
            [
                _tweet(0, 1, 1.0, "main street bridge closed #traffic"),
                _tweet(1, 2, 2.0, "confirmed main street bridge closed #traffic"),
            ]
        ).tweets
        result = TokenClusterer().cluster(tweets)
        assert result.representatives == ["main street bridge closed #traffic"]

    def test_recovers_simulated_assertions(self):
        """On simulated tweets, clusters approximate the true assertion count."""
        dataset = simulate_dataset("superbug", scale=0.03, seed=5)
        tweets = dataset.tweets[:300]
        ingested = ingest_tweets(tweets).tweets
        result = TokenClusterer().cluster(ingested)
        true_count = len({t.assertion for t in tweets})
        assert 0.5 * true_count <= result.n_clusters <= 1.5 * true_count

    def test_empty_input(self):
        result = TokenClusterer().cluster([])
        assert result.n_clusters == 0
        assert result.assignments == []

    def test_ties_go_to_lowest_cluster_id(self):
        # Tweets 3 and 9 open clusters 3 and 9 (3/5 < 0.65 between them);
        # the last tweet scores 0.75 against both.  CPython iterates the
        # set {3, 9} as 9 first, so a tie must not follow set order.
        texts = [f"topic{k}" for k in range(10)]
        texts[3] = "red green blue cyan"
        texts[9] = "red green blue plum"
        texts.append("red green blue")
        tweets = ingest_tweets(
            [_tweet(k, k, float(k), text) for k, text in enumerate(texts)]
        ).tweets
        result = TokenClusterer().cluster(tweets)
        assert result.assignments == list(range(10)) + [3]

    def test_count_filter_keeps_clusters_at_the_threshold(self):
        # 7/50 == 0.14 exactly, but 0.14 * 50 == 7.000000000000001.
        words = [f"w{k}" for k in range(50)]
        tweets = ingest_tweets(
            [
                _tweet(0, 1, 1.0, " ".join(words[:7])),
                _tweet(1, 2, 2.0, " ".join(words)),
            ]
        ).tweets
        assert TokenClusterer(threshold=0.14).cluster(tweets).assignments == [0, 0]

        tweets = ingest_tweets(
            [
                _tweet(0, 1, 1.0, "red green blue"),
                _tweet(1, 2, 2.0, "blue green red"),
                _tweet(2, 3, 3.0, "red green blue cyan"),
                _tweet(3, 4, 4.0, "red green"),
            ]
        ).tweets
        assert TokenClusterer(threshold=1.0).cluster(tweets).assignments == [0, 0, 1, 2]


VOCABULARY = [
    "bridge", "closed", "crash", "#traffic", "fire", "mall",
    "road", "flood", "#city", "rain", "storm", "power",
]
STOP_WORDS = ["the", "breaking", "is"]


@st.composite
def tweet_streams(draw):
    n = draw(st.integers(0, 40))
    tweets = []
    for k in range(n):
        words = draw(st.lists(st.sampled_from(VOCABULARY + STOP_WORDS), min_size=1, max_size=8))
        # Parents up to n + 4 include tweets later in the stream and ids
        # that never appear.
        parent = draw(st.none() | st.integers(0, n + 4).filter(lambda p, k=k: p != k))
        tweets.append(_tweet(k, k % 5, float(k), " ".join(words), retweet_of=parent))
    return ingest_tweets(tweets).tweets


class TestReferenceParity:
    @settings(max_examples=100, deadline=None)
    @given(tweets=tweet_streams(), threshold=st.sampled_from([0.14, 0.65, 1.0]))
    def test_matches_naive_scan(self, tweets, threshold):
        result = TokenClusterer(threshold=threshold).cluster(tweets)
        assignments, representatives, profiles = _reference_cluster(tweets, threshold)
        assert result.assignments == assignments
        assert result.representatives == representatives
        assert result.token_profiles == profiles
