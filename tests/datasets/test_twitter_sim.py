"""Tests for the Twitter platform simulation."""

import pytest

from repro.datasets import (
    AssertionLabel,
    DatasetSpec,
    TwitterSimulator,
    get_spec,
    relative_errors,
    simulate_dataset,
    target_row,
)
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def small_sim():
    """A scaled-down Ukraine simulation shared across tests."""
    return simulate_dataset("ukraine", scale=0.12, seed=7)


class TestSpec:
    def test_duration_positive(self):
        for name in ("ukraine", "kirkuk", "superbug", "la_marathon", "paris_attack"):
            spec = get_spec(name)
            assert spec.duration_days > 0
            assert 0 <= spec.evaluation_offset_days < spec.duration_days

    def test_invalid_counts(self):
        with pytest.raises(ValidationError):
            DatasetSpec(
                name="x", theme="ukraine", location="X",
                start_time="Feb 20 12:15:28 2015", end_time="Mar 31 23:10:12 2015",
                evaluation_day="Mar 14 2015",
                n_assertions=10, n_sources=10, n_claims=5, n_original_claims=8,
            )

    def test_invalid_fractions(self):
        with pytest.raises(ValidationError):
            DatasetSpec(
                name="x", theme="ukraine", location="X",
                start_time="Feb 20 12:15:28 2015", end_time="Mar 31 23:10:12 2015",
                evaluation_day="Mar 14 2015",
                n_assertions=10, n_sources=10, n_claims=15, n_original_claims=8,
                true_fraction=0.9, opinion_fraction=0.2,
            )

    def test_invalid_scale(self):
        with pytest.raises(ValidationError):
            TwitterSimulator(get_spec("ukraine"), scale=0.0)
        with pytest.raises(ValidationError):
            TwitterSimulator(get_spec("ukraine"), scale=1.5)


class TestSimulationCounts:
    def test_counts_match_targets(self, small_sim):
        summary = small_sim.summary()
        target = target_row("ukraine")
        errors = relative_errors(summary, target)
        scale = small_sim.scale
        # Claims and assertions are matched by construction (scaled);
        # compare against the scaled targets.
        assert summary.n_assertions == pytest.approx(target.n_assertions * scale, rel=0.05)
        assert summary.n_total_claims == pytest.approx(
            target.n_total_claims * scale, rel=0.05
        )
        assert summary.n_original_claims == pytest.approx(
            target.n_original_claims * scale, rel=0.05
        )
        # Distinct sources land within 20% of the scaled target.
        assert summary.n_sources == pytest.approx(target.n_sources * scale, rel=0.2)
        assert set(errors) == {
            "n_assertions", "n_sources", "n_total_claims", "n_original_claims",
        }

    def test_claims_are_unique_pairs(self, small_sim):
        pairs = [(t.user, t.assertion) for t in small_sim.tweets]
        assert len(pairs) == len(set(pairs))

    def test_retweets_reference_earlier_tweets(self, small_sim):
        by_id = {t.tweet_id: t for t in small_sim.tweets}
        for tweet in small_sim.tweets:
            if tweet.is_retweet:
                parent = by_id[tweet.retweet_of]
                assert parent.time <= tweet.time
                assert parent.assertion == tweet.assertion

    def test_retweeter_follows_author(self, small_sim):
        by_id = {t.tweet_id: t for t in small_sim.tweets}
        for tweet in small_sim.tweets:
            if tweet.is_retweet:
                parent = by_id[tweet.retweet_of]
                assert small_sim.graph.follows(tweet.user, parent.user)

    def test_labels_cover_three_classes(self, small_sim):
        labels = set(small_sim.labels)
        assert AssertionLabel.TRUE in labels
        assert AssertionLabel.FALSE in labels
        assert AssertionLabel.OPINION in labels

    def test_deterministic(self):
        a = simulate_dataset("kirkuk", scale=0.05, seed=3)
        b = simulate_dataset("kirkuk", scale=0.05, seed=3)
        assert [(t.tweet_id, t.user, t.assertion) for t in a.tweets] == [
            (t.tweet_id, t.user, t.assertion) for t in b.tweets
        ]


class TestEvaluationSlice:
    def test_slice_shape(self, small_sim):
        evaluation = small_sim.evaluation_slice()
        assert evaluation.n_sources == len(evaluation.source_ids)
        assert evaluation.n_assertions == len(evaluation.assertion_ids)
        assert len(evaluation.labels) == evaluation.n_assertions
        assert evaluation.problem.has_truth

    def test_slice_times_within_day(self, small_sim):
        day_start = small_sim.spec.evaluation_offset_days
        for tweet in small_sim.evaluation_tweets():
            assert day_start <= tweet.time < day_start + 1.0

    def test_binary_truth_projects_labels(self, small_sim):
        evaluation = small_sim.evaluation_slice()
        for label, truth in zip(evaluation.labels, evaluation.problem.truth):
            assert truth == (1 if label is AssertionLabel.TRUE else 0)

    @pytest.mark.parametrize("policy", ["direct", "transitive"])
    def test_csr_slice_is_the_dense_csr_view(self, small_sim, policy):
        """Claims, dependency, ids and truth all match the dense slice."""
        pytest.importorskip("scipy")
        dense = small_sim.evaluation_slice(policy=policy).problem
        csr = small_sim.evaluation_slice(policy=policy, output_format="csr").problem
        assert csr.format == "csr"
        assert csr.has_truth
        assert csr == dense.csr_view()

    def test_slice_has_dependent_claims(self, small_sim):
        """Eval-day cascades must survive the slicing."""
        evaluation = small_sim.evaluation_slice()
        assert evaluation.problem.dependent_claim_fraction() > 0.05


class TestTextRendering:
    def test_retweets_marked_in_text(self, small_sim):
        for tweet in small_sim.tweets:
            if tweet.is_retweet:
                assert tweet.text.startswith("RT @user")

    def test_assertion_texts_distinct_enough(self, small_sim):
        texts = set(small_sim.assertion_texts)
        assert len(texts) > 0.8 * len(small_sim.assertion_texts)
