"""Tests for dataset record types."""

import pytest

from repro.datasets import AssertionLabel, DatasetSummary, Tweet
from repro.utils.errors import ValidationError


class TestAssertionLabel:
    def test_verifiability(self):
        assert AssertionLabel.TRUE.is_verifiable
        assert AssertionLabel.FALSE.is_verifiable
        assert not AssertionLabel.OPINION.is_verifiable

    def test_values(self):
        assert AssertionLabel("true") is AssertionLabel.TRUE


class TestTweet:
    def test_basic(self):
        tweet = Tweet(tweet_id=0, user=1, time=0.5, text="hello", assertion=2)
        assert not tweet.is_retweet

    def test_retweet(self):
        tweet = Tweet(
            tweet_id=1, user=1, time=0.5, text="RT", assertion=2, retweet_of=0
        )
        assert tweet.is_retweet

    def test_negative_time(self):
        with pytest.raises(ValidationError):
            Tweet(tweet_id=0, user=1, time=-1.0, text="x", assertion=0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time(self, time):
        with pytest.raises(ValidationError):
            Tweet(tweet_id=0, user=1, time=time, text="x", assertion=0)

    def test_self_retweet(self):
        with pytest.raises(ValidationError):
            Tweet(tweet_id=3, user=1, time=0.0, text="x", assertion=0, retweet_of=3)


class TestDatasetSummary:
    def test_row_matches_header_length(self):
        summary = DatasetSummary(
            name="X", start_time="a", end_time="b", evaluation_day="c",
            n_assertions=1, n_sources=2, n_total_claims=3, n_original_claims=2,
            location="L",
        )
        assert len(summary.as_row()) == len(DatasetSummary.header())

    def test_header_matches_table_iii(self):
        header = DatasetSummary.header()
        assert "#Assertions" in header
        assert "#Original Claims" in header
