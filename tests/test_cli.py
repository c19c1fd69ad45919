"""Tests for the command-line interface."""


import pytest

from repro.cli import main
from repro.io import load_problem, load_result, load_tweets


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    code = main(
        [
            "generate", "--out", str(path), "--seed", "3",
            "--n-sources", "12", "--n-assertions", "20", "--with-truth",
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_problem(self, problem_file):
        problem = load_problem(problem_file)
        assert problem.n_sources == 12
        assert problem.n_assertions == 20
        assert problem.has_truth

    def test_without_truth(self, tmp_path):
        path = tmp_path / "blind.json"
        assert main(["generate", "--out", str(path), "--seed", "1"]) == 0
        assert not load_problem(path).has_truth

    def test_fixed_trees(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        code = main(
            ["generate", "--out", str(path), "--seed", "1", "--n-trees", "12",
             "--n-sources", "12"]
        )
        assert code == 0
        problem = load_problem(path)
        assert problem.dependency.dependent_fraction == 0.0

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["generate", "--out", str(a), "--seed", "9"])
        main(["generate", "--out", str(b), "--seed", "9"])
        assert a.read_bytes() == b.read_bytes()


class TestEstimate:
    def test_estimate_and_save(self, problem_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            ["estimate", "--problem", str(problem_file), "--out", str(out),
             "--algorithm", "em-ext", "--top", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "em-ext" in output
        result = load_result(out)
        assert result.n_assertions == 20

    def test_heuristic_algorithm(self, problem_file, capsys):
        assert main(
            ["estimate", "--problem", str(problem_file), "--algorithm", "voting"]
        ) == 0
        assert "voting" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["estimate", "--problem", str(tmp_path / "missing.json")])
        assert code == 1

    def test_batched_restarts_match_serial(self, problem_file, tmp_path):
        """--batch is a pure execution-mode switch: identical output."""
        serial_out = tmp_path / "serial.json"
        batched_out = tmp_path / "batched.json"
        base = [
            "estimate", "--problem", str(problem_file),
            "--algorithm", "em-ext", "--seed", "7", "--restarts", "4",
        ]
        assert main(base + ["--out", str(serial_out)]) == 0
        assert main(base + ["--batch", "--out", str(batched_out)]) == 0
        serial = load_result(serial_out)
        batched = load_result(batched_out)
        assert serial.scores.tolist() == batched.scores.tolist()
        assert serial.log_likelihood == batched.log_likelihood

    def test_batch_flag_ignored_for_other_algorithms(self, problem_file, capsys):
        code = main(
            ["estimate", "--problem", str(problem_file),
             "--algorithm", "voting", "--batch"]
        )
        assert code == 0
        assert "apply to em-ext only" in capsys.readouterr().err


class TestBound:
    def test_exact_bound(self, problem_file, capsys):
        assert main(["bound", "--problem", str(problem_file), "--method", "exact"]) == 0
        output = capsys.readouterr().out
        assert "exact bound" in output
        assert "optimal accuracy ceiling" in output

    def test_bhattacharyya(self, problem_file, capsys):
        code = main(
            ["bound", "--problem", str(problem_file), "--method", "bhattacharyya"]
        )
        assert code == 0
        assert "bracket" in capsys.readouterr().out

    def test_requires_truth(self, tmp_path, capsys):
        path = tmp_path / "blind.json"
        main(["generate", "--out", str(path), "--seed", "1"])
        code = main(["bound", "--problem", str(path)])
        assert code == 2
        assert "truth" in capsys.readouterr().err

    def test_auto_is_exact_up_to_max_exact_sources(self, tmp_path, capsys):
        """22 sources: auto used to fall back to Gibbs above 20."""
        path = tmp_path / "wide.json"
        main(
            ["generate", "--out", str(path), "--seed", "3", "--n-sources", "22",
             "--n-assertions", "40", "--with-truth"]
        )
        capsys.readouterr()
        assert main(["bound", "--problem", str(path)]) == 0
        assert "exact bound: Err =" in capsys.readouterr().out

    def test_cascade_reports_its_tier(self, problem_file, capsys):
        assert main(["bound", "--problem", str(problem_file), "--cascade"]) == 0
        output = capsys.readouterr().out
        assert "cascade:" in output
        assert "bound: Err =" in output

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "gibbs", "--deadline", "1ms"],
            ["--cascade", "--method", "exact"],
        ],
    )
    def test_cascade_rejects_a_method_or_jobs(self, problem_file, capsys, flags):
        """The cascade picks the tier; it used to drop these flags silently."""
        code = main(["bound", "--problem", str(problem_file), *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert "the cascade picks the tier" in captured.err
        assert captured.out == ""

    def test_has_no_n_jobs(self, problem_file, capsys):
        """The Gibbs bound has one random stream; argparse refuses the flag."""
        with pytest.raises(SystemExit) as exit_info:
            main(["bound", "--problem", str(problem_file), "--n-jobs", "2"])
        assert exit_info.value.code == 2
        assert "--n-jobs" in capsys.readouterr().err


class TestSimulate:
    def test_writes_outputs(self, tmp_path, capsys):
        tweets_path = tmp_path / "tweets.jsonl"
        problem_path = tmp_path / "eval.json"
        code = main(
            ["simulate", "--dataset", "kirkuk", "--scale", "0.02", "--seed", "1",
             "--tweets-out", str(tweets_path), "--problem-out", str(problem_path)]
        )
        assert code == 0
        assert len(load_tweets(tweets_path)) > 0
        assert load_problem(problem_path).has_truth

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--dataset", "moonbase"])


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "0.26980433" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--n-jobs", "2"],
            ["fig3", "--n-jobs", "2"],
            ["fig6", "--batch"],
            ["fig7", "--n-jobs", "2", "--batch"],
        ],
    )
    def test_rejects_trial_flags_that_would_do_nothing(self, capsys, argv):
        """Only figs 7-10 fan out trials, and batched trials stay in-process."""
        assert main(["experiment", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n-jobs" in captured.err


class TestObservabilityFlags:
    def test_experiment_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        from repro import observability
        from repro.observability import METRICS_SCHEMA, TRACE_SCHEMA

        trace_path = tmp_path / "spans.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["experiment", "table1",
             "--trace-out", str(trace_path),
             "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        # The session must not leak past the command.
        assert not observability.enabled()
        captured = capsys.readouterr()
        assert "0.26980433" in captured.out
        assert f"wrote metrics to {metrics_path}" in captured.err
        trace = json.loads(trace_path.read_text())
        assert trace["schema"] == TRACE_SCHEMA
        assert trace["root"]["name"] == "repro.experiment"
        assert trace["root"]["end"] is not None
        metrics = json.loads(metrics_path.read_text())
        assert metrics["schema"] == METRICS_SCHEMA

    def test_bound_records_instrumented_kernels(self, problem_file, tmp_path):
        import json

        trace_path = tmp_path / "spans.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            ["bound", "--problem", str(problem_file), "--method", "exact",
             "--trace-out", str(trace_path),
             "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["kernels.enumeration.patterns"] > 0
        trace = json.loads(trace_path.read_text())
        names = {child["name"] for child in trace["root"]["children"]}
        assert "bound.exact" in names

    def test_estimate_profile_out(self, problem_file, tmp_path):
        profile_path = tmp_path / "profile.txt"
        code = main(
            ["estimate", "--problem", str(problem_file),
             "--algorithm", "em-ext",
             "--profile-out", str(profile_path)]
        )
        assert code == 0
        assert "function calls" in profile_path.read_text()

    def test_flags_default_to_off(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert capsys.readouterr().err == ""


class TestServe:
    def _trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        code = main(
            ["serve", "--generate-trace", str(path), "--requests", "6",
             "--distinct", "3", "--seed", "4",
             "--n-sources", "10", "--n-assertions", "12"]
        )
        assert code == 0
        return path

    def test_requires_an_action(self, capsys):
        assert main(["serve"]) == 2
        assert "generate-trace" in capsys.readouterr().err

    def test_generate_trace_writes_jsonl(self, tmp_path, capsys):
        import json

        path = self._trace(tmp_path)
        capsys.readouterr()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 7  # header + 6 requests
        header = json.loads(lines[0])
        assert header["schema"] == "repro.serve-trace/v1"

    def test_replay_verifies_and_writes_bench_json(self, tmp_path, capsys):
        import json

        trace = self._trace(tmp_path)
        bench = tmp_path / "BENCH_serve.json"
        code = main(
            ["serve", "--replay", str(trace), "--mode", "both",
             "--verify", "--bench-out", str(bench)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified 6 responses, 0 mismatched" in out
        assert "speedup" in out
        doc = json.loads(bench.read_text())
        assert doc["schema"] == "repro.bench-serve/v1"
        assert doc["n_requests"] == 6
        assert set(doc["rows"]) == {"batched", "serial"}
        assert doc["rows"]["batched"]["path_counts"]["batched"] == 6
        assert doc["parity"] == {"mismatches": 0, "verified": 6}
        assert doc["speedup"] > 0
        assert "machine" in doc

    def test_replay_batched_only(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main(["serve", "--replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "batched:" in out and "serial:" not in out


class TestStream:
    def _windows(self, tmp_path, n=2):
        paths = []
        for index in range(n):
            path = tmp_path / f"window-{index}.json"
            code = main(
                ["generate", "--out", str(path), "--seed", str(30 + index),
                 "--n-sources", "12", "--n-assertions", "20"]
            )
            assert code == 0
            paths.append(str(path))
        return paths

    def test_streams_windows_in_order(self, tmp_path, capsys):
        windows = self._windows(tmp_path)
        code = main(["stream", "--windows"] + windows)
        assert code == 0
        out = capsys.readouterr().out
        assert "window 0:" in out and "window 1:" in out

    def test_writes_jsonl_snapshots(self, tmp_path, capsys):
        import json

        windows = self._windows(tmp_path)
        out_path = tmp_path / "stream.jsonl"
        code = main(
            ["stream", "--windows"] + windows
            + ["--out", str(out_path), "--seed", "5"]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in out_path.read_text().strip().splitlines()
        ]
        assert [record["window"] for record in records] == [0, 1]
        for record in records:
            assert record["n_assertions"] == 20
            assert len(record["decisions"]) == 20
            assert set(record["parameters"]) == {"a", "b", "f", "g", "z"}
            assert isinstance(record["converged"], bool)

    def test_seeded_stream_is_deterministic(self, tmp_path, capsys):
        windows = self._windows(tmp_path)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(
                ["stream", "--windows"] + windows
                + ["--out", str(out), "--seed", "9"]
            ) == 0
        assert a.read_bytes() == b.read_bytes()
