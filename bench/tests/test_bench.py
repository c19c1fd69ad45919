"""Tests of the benchmark itself: tiny workloads, metric names, timing rules."""

import hashlib
from collections import Counter

import pytest

import layers
import run
import workloads

#: Each workload at a size that runs in about a second.
TINY = {
    "sweep-fig7": dict(n_values=(20, 30), trials_per_point=10),
    "bound-fig6": dict(n_problems=2, exact_ns=(10,), gibbs_ns=(10, 12), min_sweeps=400, max_sweeps=2000),
    "serve-mix": dict(shapes=(10, 12), n_assertions=20, problems_per_shape=3, rate_per_s=200.0, burst_size=24),
    "crawl-apollo": dict(scales={"kirkuk": 0.05, "superbug": 0.05}, top_k=10),
}


@pytest.fixture(scope="module")
def tiny_runs():
    """Every workload built, run untraced, traced and for one round at tiny size."""
    runs = {}
    for name, sizes in TINY.items():
        workload = workloads.WORKLOADS[name]
        inputs = workload.build(7, **sizes)
        untraced = workload.run(inputs, 0.2)
        traced, recorder, snapshot = run.run_traced(workload, inputs, 0.2)
        one_round = workload.run(inputs, 0.0)
        runs[name] = (workload, inputs, untraced, traced, recorder, snapshot, one_round)
    return runs


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_tiny_and_passes_its_checks(tiny_runs, name):
    workload, inputs, untraced, traced, _, _, one_round = tiny_runs[name]
    for outcome in (untraced, traced, one_round):
        assert outcome.ops > 0 and outcome.work_per_s > 0 and outcome.latency_ms > 0
        assert 0 < outcome.accuracy <= 1
        assert outcome.failed == 0 < outcome.attempted
        assert workload.check(inputs, outcome) == []


def test_metric_names_equal_benchmark_json(tiny_runs):
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = run.metric_units(spec, "per_layer")
    for name, (_, _, untraced, traced, recorder, snapshot, _) in tiny_runs.items():
        printed = run.e2e_metrics(untraced, peak_rss_mb=1.0)
        assert set(printed) | {"setup_s", "accuracy"} == set(run.metric_units(spec, "end_to_end")), name
        table = layers.layer_table(recorder.spans)
        assert set(run.layer_metrics(per_layer, table, snapshot, traced, untraced)) == set(per_layer), name
    # A self time can only come from a span name some boundary records.
    span_names = {boundary[0] for boundary in layers.BOUNDARIES}
    for metric in per_layer:
        if metric.endswith(".self_ms"):
            assert metric[: -len(".self_ms")] in span_names, metric


def test_traced_run_attributes_time_to_layers(tiny_runs):
    for name, (_, _, _, _, recorder, _, _) in tiny_runs.items():
        table = layers.layer_table(recorder.spans)
        assert table["unattributed_frac"] <= 0.10, name
        assert set(table["layers"]) - {"bench"}, name


class _StallingService:
    """Answers every drain after 1 ms, except the first, which takes 50 ms."""

    def __init__(self, clock):
        self.clock = clock
        self.queue = []
        self.drains = 0

    def submit(self, request):
        self.queue.append(request)

    def drain(self):
        self.clock.now += 0.050 if self.drains == 0 else 0.001
        self.drains += 1
        answered, self.queue = self.queue, []
        return [f"answer-{request}" for request in answered]


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_latency_counts_a_stall_from_due_time():
    clock = _FakeClock()
    arrivals = [(0.010 * k, k) for k in range(8)]
    records = workloads.open_loop(_StallingService(clock), arrivals, clock=clock, sleep=clock.sleep)
    latency_ms = [round(r["latency_s"] * 1e3, 6) for r in records]
    # Request 0 waits for the stalled drain; 1-5 fell due behind it and
    # are answered by the next drain at 51 ms; 6-7 see a free service.
    assert latency_ms == [50.0, 41.0, 31.0, 21.0, 11.0, 1.0, 1.0, 1.0]
    assert [r["response"] for r in records] == [f"answer-{k}" for k in range(8)]
    assert [r["late_s"] for r in records[1:5]] == [None] * 4
    assert records[6]["late_s"] == 0.0


def test_request_mix_is_exact_in_every_block():
    inputs = workloads.build_serve(5, **TINY["serve-mix"])
    stream = inputs.stream()
    specs = [stream.next() for _ in range(200)]
    # A new request's fit seed is its own number; a repeat copies an older one.
    new = [spec for number, spec in enumerate(specs, 1) if spec[3] == number]
    # Two repeats per block of 20, unless the very first request draws a
    # repeat, which has nothing to copy and becomes a new EM-Ext fit.
    assert len(new) in (180, 181)
    assert sum(1 for spec in new if spec[1] == "em") == 10
    per_shape = Counter(spec[0] // TINY["serve-mix"]["problems_per_shape"] for spec in new)
    assert len(per_shape) == len(TINY["serve-mix"]["shapes"])
    assert max(per_shape.values()) - min(per_shape.values()) <= 1


def test_latency_tail_leaves_ten_samples_beyond():
    q, value = workloads.latency_tail(list(range(525, 0, -1)))
    assert value == 515 and q == pytest.approx(100 * 514 / 524)
    # Fewer than eleven samples: no percentile has ten beyond, so the largest.
    assert workloads.latency_tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        [0, None, "bench.timed", 0.0, 10.0, None],
        [1, 0, "engine.a", 1.0, 5.0, None],
        [2, 0, "engine.b", 3.0, 8.0, None],  # overlaps engine.a on [3, 5]
        [3, 1, "kernels.c", 2.0, 3.0, None],
    ]
    assert layers.span_self_times(spans) == pytest.approx([3.0, 3.0, 5.0, 1.0])
    table = layers.layer_table(spans)
    assert table["unattributed_frac"] == pytest.approx(0.3)
    assert table["layers"]["engine"]["self_s"] == pytest.approx(8.0)


def test_patched_records_spans_and_restores_the_library():
    import repro.data
    from repro.data import coerce as coerce_module

    original = coerce_module.coerce_problem
    problem = workloads.generate_dataset(workloads.GeneratorConfig(), seed=1).problem
    recorder = layers.SpanRecorder()
    with layers.patched(recorder, [("data.coerce", "repro.data.coerce:coerce_problem", None)]):
        repro.data.coerce_problem(problem, needs=("dense",))
    assert [span[2] for span in recorder.spans] == ["data.coerce"]
    assert repro.data.coerce_problem is original is coerce_module.coerce_problem


def _digest(name, inputs):
    digest = hashlib.sha256()
    if name == "sweep-fig7":
        parts = [seed for _, seed in inputs.points]
    elif name == "bound-fig6":
        parts = [
            array.tobytes()
            for cases in inputs.problems
            for dependency, params in cases.values()
            for array in (dependency, params.a, params.b, params.f, params.g)
        ]
    elif name == "serve-mix":
        stream = inputs.stream()
        parts = [problem.claims.values.tobytes() for problem, _ in inputs.pool]
        parts += [stream.next() for _ in range(50)] + stream.arrival_offsets(50, 1.0)
    else:
        parts = [(t.tweet_id, t.user, t.text) for _, tweets, _, _ in inputs.datasets for t in tweets]
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    build = workloads.WORKLOADS[name].build
    first, again, other = (_digest(name, build(seed, **TINY[name])) for seed in (3, 3, 4))
    assert first == again != other

