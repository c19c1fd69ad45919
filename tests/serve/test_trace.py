"""Trace round-trip and replay-harness tests."""

import copy
import json

import numpy as np
import pytest

from repro.core.em_ext import EMConfig
from repro.serve import (
    MODE_BATCHED,
    MODE_SERIAL,
    SERVE_TRACE_SCHEMA,
    EstimationRequest,
    fit_request,
    generate_trace,
    load_trace,
    replay_trace,
    results_bitwise_equal,
)
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import DataError, ValidationError

SMALL = dict(n_sources=10, n_assertions=14)


def write_trace(path, **kwargs):
    kwargs = {"n_requests": 6, "seed": 3, **SMALL, **kwargs}
    generate_trace(str(path), **kwargs)
    return str(path)


class TestGenerateAndLoad:
    def test_roundtrip_preserves_the_workload(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", distinct_problems=3)
        requests = load_trace(path)
        assert len(requests) == 6
        assert [r.request_id for r in requests] == [
            f"req-{i:05d}" for i in range(6)
        ]
        assert all(r.algorithm == "em-ext" for r in requests)
        assert all(r.problem.n_sources == 10 for r in requests)
        assert all(
            r.config == EMConfig(init_strategy="random", n_restarts=1)
            for r in requests
        )
        # distinct_problems=3 means requests repeat with period 3 —
        # identical problem object (memoised) and identical seed.
        assert requests[3].problem is requests[0].problem
        assert requests[3].seed == requests[0].seed
        assert requests[1].problem is not requests[0].problem

    def test_header_carries_the_schema(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl")
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["schema"] == SERVE_TRACE_SCHEMA
        assert header["n_requests"] == 6

    def test_generation_is_deterministic(self, tmp_path):
        first = write_trace(tmp_path / "a.jsonl")
        second = write_trace(tmp_path / "b.jsonl")
        assert (
            open(first, encoding="utf-8").read()
            == open(second, encoding="utf-8").read()
        )

    def test_inline_problem_records_load(self, tmp_path):
        problem = generate_dataset(
            GeneratorConfig(**SMALL), seed=5
        ).problem.without_truth()
        path = tmp_path / "inline.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"schema": SERVE_TRACE_SCHEMA, "n_requests": 1})
                + "\n"
            )
            handle.write(
                json.dumps(
                    {
                        "request_id": "inline-0",
                        "claims": problem.claims.values.tolist(),
                        "dependency": problem.dependency.values.tolist(),
                        "seed": 5,
                        "algorithm": "voting",
                    }
                )
                + "\n"
            )
        (request,) = load_trace(str(path))
        assert request.algorithm == "voting"
        assert np.array_equal(
            request.problem.claims.values, problem.claims.values
        )

    def test_bad_inputs_raise_data_errors(self, tmp_path):
        bad_schema = tmp_path / "bad.jsonl"
        bad_schema.write_text('{"schema": "nope/v9"}\n')
        with pytest.raises(DataError, match="unsupported trace schema"):
            load_trace(str(bad_schema))
        bad_json = tmp_path / "broken.jsonl"
        bad_json.write_text("{not json\n")
        with pytest.raises(DataError, match="invalid JSON"):
            load_trace(str(bad_json))
        empty = tmp_path / "empty.jsonl"
        empty.write_text(
            json.dumps({"schema": SERVE_TRACE_SCHEMA, "n_requests": 0}) + "\n"
        )
        with pytest.raises(DataError, match="no requests"):
            load_trace(str(empty))
        with pytest.raises(ValidationError):
            generate_trace(str(tmp_path / "x.jsonl"), n_requests=0)


class TestReplay:
    def test_batched_replay_verifies_clean(self, tmp_path):
        requests = load_trace(write_trace(tmp_path / "trace.jsonl"))
        report = replay_trace(requests, mode=MODE_BATCHED, verify=True)
        assert report.mode == MODE_BATCHED
        assert report.n_requests == 6
        assert report.n_ok == 6 and report.n_errors == 0
        assert report.path_counts == {"batched": 6}
        assert report.n_verified == 6
        assert report.n_mismatches == 0
        assert report.wall_seconds > 0
        assert report.throughput_rps > 0
        assert report.latency_p50_ms <= report.latency_p99_ms

    def test_serial_replay_is_the_direct_fit_baseline(self, tmp_path):
        requests = load_trace(write_trace(tmp_path / "trace.jsonl"))
        report = replay_trace(requests, mode=MODE_SERIAL)
        assert report.path_counts == {"serial": 6}
        for response, request in zip(report.responses, requests):
            assert results_bitwise_equal(
                response.result, fit_request(request)
            )

    def test_batched_and_serial_replays_agree_bitwise(self, tmp_path):
        requests = load_trace(
            write_trace(tmp_path / "trace.jsonl", distinct_problems=2)
        )
        batched = replay_trace(requests, mode=MODE_BATCHED)
        serial = replay_trace(requests, mode=MODE_SERIAL)
        for ours, reference in zip(batched.responses, serial.responses):
            assert ours.request_id == reference.request_id
            assert results_bitwise_equal(ours.result, reference.result)

    def test_rejects_unknown_mode(self, tmp_path):
        requests = load_trace(write_trace(tmp_path / "trace.jsonl"))
        with pytest.raises(ValidationError, match="mode"):
            replay_trace(requests, mode="parallel")

    def test_report_row_is_json_serialisable(self, tmp_path):
        requests = load_trace(write_trace(tmp_path / "trace.jsonl"))
        report = replay_trace(requests, mode=MODE_BATCHED)
        row = json.loads(json.dumps(report.to_row()))
        assert row["mode"] == MODE_BATCHED
        assert row["n_ok"] == 6
        assert "responses" not in row
        assert isinstance(report.summary(), str)
        assert "6/6 ok" in report.summary()


class TestBitwiseComparator:
    def test_detects_payload_differences(self):
        problem = generate_dataset(
            GeneratorConfig(**SMALL), seed=7
        ).problem.without_truth()
        config = EMConfig(init_strategy="random")
        base = fit_request(
            EstimationRequest("a", problem, seed=1, config=config)
        )
        same = fit_request(
            EstimationRequest("b", problem, seed=1, config=config)
        )
        other = fit_request(
            EstimationRequest("c", problem, seed=2, config=config)
        )
        heuristic = fit_request(
            EstimationRequest("d", problem, algorithm="voting")
        )
        assert results_bitwise_equal(base, same)
        assert not results_bitwise_equal(base, other)
        assert not results_bitwise_equal(base, heuristic)

    @pytest.fixture
    def problem(self):
        return generate_dataset(
            GeneratorConfig(**SMALL), seed=7
        ).problem.without_truth()

    @pytest.mark.parametrize("field", ["log_likelihoods", "parameter_deltas"])
    @pytest.mark.parametrize("entry", [0, -1])
    def test_one_trace_entry_breaks_equality(self, problem, field, entry):
        base = fit_request(
            EstimationRequest(
                "a", problem, seed=1, config=EMConfig(init_strategy="random")
            )
        )
        twin = copy.deepcopy(base)
        assert results_bitwise_equal(base, twin)
        values = getattr(twin.trace, field)
        values[entry] = float(np.nextafter(values[entry], np.inf))
        assert not results_bitwise_equal(base, twin)

    @pytest.mark.parametrize("algorithm", ["em", "em-social"])
    @pytest.mark.parametrize("rate", ["t", "b"])
    def test_one_extras_rate_breaks_equality(self, problem, algorithm, rate):
        # EM and EM-Social carry no `parameters`; their fitted rates
        # live in `extras`, so only the extras comparison can see them.
        base = fit_request(
            EstimationRequest("a", problem, algorithm=algorithm, seed=1)
        )
        assert base.parameters is None
        twin = copy.deepcopy(base)
        assert results_bitwise_equal(base, twin)
        rates = twin.extras[rate]
        rates[0] = np.nextafter(rates[0], np.inf)
        assert not results_bitwise_equal(base, twin)

    def test_extras_keys_and_z_break_equality(self, problem):
        base = fit_request(EstimationRequest("a", problem, algorithm="em", seed=1))
        missing = copy.deepcopy(base)
        del missing.extras["z"]
        assert not results_bitwise_equal(base, missing)
        shifted = copy.deepcopy(base)
        shifted.extras["z"] = float(np.nextafter(base.extras["z"], np.inf))
        assert not results_bitwise_equal(base, shifted)
