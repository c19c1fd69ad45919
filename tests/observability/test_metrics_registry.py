"""Unit tests for the metrics registry and its snapshot/merge algebra."""

import json

from repro.observability import (
    METRICS_SCHEMA,
    MetricsRegistry,
    metrics_document,
    write_metrics_json,
)


class TestRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.increment("a")
        registry.increment("a", 4)
        registry.increment("b", 2)
        assert registry.counter("a") == 5
        assert registry.counter("b") == 2
        assert registry.counter("missing") == 0

    def test_gauges_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 1.5)
        registry.set_gauge("g", -3)
        assert registry.snapshot()["gauges"]["g"] == -3

    def test_histograms_summarise(self):
        registry = MetricsRegistry()
        for value in (2.0, 8.0, 5.0):
            registry.observe("h", value)
        summary = registry.snapshot()["histograms"]["h"]
        assert summary == {"count": 3, "sum": 15.0, "min": 2.0, "max": 8.0}

    def test_len_and_clear(self):
        registry = MetricsRegistry()
        registry.increment("a")
        registry.set_gauge("g", 1)
        registry.observe("h", 1)
        assert len(registry) == 3
        registry.clear()
        assert len(registry) == 0
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestMerge:
    def test_merge_is_associative_accumulation(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.increment("c", 3)
        a.observe("h", 1.0)
        b.increment("c", 4)
        b.increment("only_b")
        b.observe("h", 9.0)
        b.set_gauge("g", 7)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"] == {"c": 7, "only_b": 1}
        assert snap["gauges"] == {"g": 7}
        assert snap["histograms"]["h"] == {
            "count": 2,
            "sum": 10.0,
            "min": 1.0,
            "max": 9.0,
        }

    def test_merge_order_of_two_workers_does_not_change_counters(self):
        w1, w2 = MetricsRegistry(), MetricsRegistry()
        w1.increment("n", 2)
        w1.observe("h", 3.0)
        w2.increment("n", 5)
        w2.observe("h", 1.0)
        forward, backward = MetricsRegistry(), MetricsRegistry()
        forward.merge(w1.snapshot())
        forward.merge(w2.snapshot())
        backward.merge(w2.snapshot())
        backward.merge(w1.snapshot())
        assert forward.snapshot() == backward.snapshot()


class TestDocuments:
    def test_metrics_document_schema(self):
        registry = MetricsRegistry()
        registry.increment("c", 2)
        registry.observe("h", 4.0)
        document = metrics_document(registry.snapshot())
        assert document["schema"] == METRICS_SCHEMA
        assert set(document) == {"schema", "counters", "gauges", "histograms"}
        assert document["counters"] == registry.snapshot()["counters"]

    def test_write_metrics_json_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.increment("c", 2)
        registry.observe("h", 4.0)
        path = tmp_path / "metrics.json"
        write_metrics_json(str(path), registry.snapshot())
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == METRICS_SCHEMA
        assert loaded["counters"] == {"c": 2}
        assert loaded["histograms"]["h"]["count"] == 1
