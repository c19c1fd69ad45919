"""Tests for posts and the event log."""

import pytest

from repro.network import EventLog, Post
from repro.utils.errors import DataError, ValidationError


def _post(post_id, source, assertion, time, retweet_of=None):
    return Post(
        post_id=post_id, source=source, assertion=assertion, time=time,
        retweet_of=retweet_of,
    )


class TestPost:
    def test_is_retweet(self):
        assert not _post(0, 0, 0, 1.0).is_retweet
        assert _post(1, 0, 0, 2.0, retweet_of=0).is_retweet

    def test_negative_ids_rejected(self):
        with pytest.raises(ValidationError):
            _post(0, -1, 0, 1.0)

    def test_self_retweet_rejected(self):
        with pytest.raises(ValidationError):
            _post(3, 0, 0, 1.0, retweet_of=3)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, time):
        """A post without a finite time has no place in the report order."""
        with pytest.raises(ValidationError):
            _post(0, 0, 0, time)


class TestEventLog:
    def test_sorted_on_construction(self):
        log = EventLog(posts=[_post(1, 0, 0, 5.0), _post(0, 1, 1, 1.0)])
        assert [p.post_id for p in log] == [0, 1]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            EventLog(posts=[_post(0, 0, 0, 1.0), _post(0, 1, 1, 2.0)])

    def test_retweet_of_unknown_rejected(self):
        with pytest.raises(DataError):
            EventLog(posts=[_post(1, 0, 0, 2.0, retweet_of=99)])

    def test_retweet_from_future_rejected(self):
        with pytest.raises(DataError):
            EventLog(
                posts=[_post(0, 0, 0, 5.0), _post(1, 1, 0, 1.0, retweet_of=0)]
            )

    def test_append_in_order(self):
        log = EventLog(posts=[_post(0, 0, 0, 1.0)])
        log.append(_post(1, 1, 0, 2.0, retweet_of=0))
        assert len(log) == 2

    def test_append_out_of_order_rejected(self):
        log = EventLog(posts=[_post(0, 0, 0, 5.0)])
        with pytest.raises(DataError):
            log.append(_post(1, 1, 0, 1.0))

    def test_append_duplicate_rejected(self):
        log = EventLog(posts=[_post(0, 0, 0, 1.0)])
        with pytest.raises(DataError):
            log.append(_post(0, 1, 0, 2.0))

    def test_counts(self):
        log = EventLog(
            posts=[_post(0, 0, 1, 1.0), _post(1, 2, 0, 2.0, retweet_of=0)]
        )
        assert log.n_sources == 3
        assert log.n_assertions == 2
        assert log.n_original_posts == 1

    def test_empty_counts(self):
        log = EventLog()
        assert log.n_sources == 0
        assert log.n_assertions == 0

    def test_posts_by_source_and_assertion(self):
        log = EventLog(
            posts=[_post(0, 0, 0, 1.0), _post(1, 0, 1, 2.0), _post(2, 1, 0, 3.0)]
        )
        assert [p.post_id for p in log.posts_by_source(0)] == [0, 1]
        assert [p.post_id for p in log.posts_by_assertion(0)] == [0, 2]

    def test_merge(self):
        a = EventLog(posts=[_post(0, 0, 0, 1.0)])
        b = EventLog(posts=[_post(1, 1, 1, 0.5)])
        merged = EventLog.merge([a, b])
        assert [p.post_id for p in merged] == [1, 0]
