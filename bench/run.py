"""Run the repository benchmark: four paper workloads, measured from outside.

Usage (from the repository root)::

    python bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]

Each workload runs in fresh single-process subprocesses, one at a time.
Set-up (interpreter start, imports, input generation) is timed in three
of them and reported as the median ``setup_s``:

* the reference process builds the inputs of the fixed
  ``workloads.REFERENCE_SEED``, then runs and checks one round of them,
  untimed; ``accuracy`` is scored on that round, so it is the same for
  every ``--seed``;
* a set-up process builds the ``--seed`` inputs and exits;
* the workload process builds the ``--seed`` inputs and runs the timed
  phase for ``--seconds``, then the untimed output checks.

The end-to-end metrics are printed by name and unit, and one result
record per workload is written to ``--out``.

``--trace 1`` runs the workload untraced and then once more with every
layer boundary wrapped in a span (``layers.py``) and the library's own
counters collected; it prints the per-layer metrics instead and writes
``spans.json`` and ``layers.json`` beside the record.  End-to-end
numbers come only from untraced runs.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Any failed output check exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
DEFAULT_SEED = 2016
CHILD_TIMEOUT_S = 170

#: Thread pools of the BLAS libraries NumPy may link, pinned to one
#: thread so every run is single-process and single-threaded.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload names, run length and metric units."""
    return json.loads(BENCHMARK_JSON.read_text())


def metric_units(spec: dict, kind: str) -> Dict[str, str]:
    """Name → unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


# -- metric assembly (runs in the workload process) ---------------------------


def e2e_metrics(outcome, peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of an untraced workload process: all but
    ``setup_s`` and ``accuracy``, which come from the other processes."""
    return {
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": outcome.work_per_s,
        "latency_p50_ms": outcome.latency_ms,
    }


def layer_metrics(names, table: dict, snapshot: dict, traced, untraced) -> Dict[str, float]:
    """The per-layer metrics ``names``, from a traced run's spans and counters.

    ``<span name>.self_ms`` is that span name's self time per unit of
    work; the other names are computed explicitly below.
    """
    spans = table["spans"]
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    ops = max(1, traced.ops)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def hist_mean(name: str) -> float:
        summary = histograms.get(name, {})
        return ratio(summary.get("sum", 0.0), summary.get("count", 0))

    def hit_rate(prefix: str) -> float:
        hits = counters.get(f"{prefix}.hits", 0)
        return ratio(hits, hits + counters.get(f"{prefix}.misses", 0))

    explicit = {
        "engine.batched.occupancy_mean": hist_mean("engine.batched.occupancy"),
        "em.iterations": counters.get("em.iterations", 0) / ops,
        "kernels.enumeration.patterns": counters.get("kernels.enumeration.patterns", 0) / ops,
        "kernels.dedup.compression_ratio": ratio(
            counters.get("kernels.dedup.columns_unique", 0),
            counters.get("kernels.dedup.columns_total", 0),
        ),
        "kernels.gibbs.sweeps": counters.get("kernels.gibbs.sweeps", 0) / ops,
        "kernels.params_cache.hit_rate": hit_rate("kernels.params_cache"),
        "bounds.gibbs.sweeps_per_s": ratio(
            counters.get("kernels.gibbs.sweeps", 0),
            spans.get("bounds.gibbs", {}).get("total_s", 0.0),
        ),
        "baselines.em.fit_ms": spans.get("baselines.em", {}).get("total_s", 0.0) * 1e3 / ops,
        "baselines.em_social.fit_ms": spans.get("baselines.em_social", {}).get("total_s", 0.0) * 1e3 / ops,
        "serve.queue_wait_ms.p50": traced.detail.get("queue_wait_p50_ms", 0.0),
        "serve.queue_wait_ms.p99": traced.detail.get("queue_wait_p99_ms", 0.0),
        "serve.batch.occupancy_mean": hist_mean("serve.batch.occupancy"),
        "serve.cache.hit_ratio": hit_rate("serve.cache"),
        "serve.fallbacks.singleton": counters.get("serve.fallbacks.singleton", 0) / ops,
        "serve.fallbacks.algorithm": counters.get("serve.fallbacks.algorithm", 0) / ops,
        "serve.gen_late_p99_ms": traced.detail.get("gen_late_p99_ms", 0.0),
        "data.coerce.calls": spans.get("data.coerce", {}).get("calls", 0) / ops,
        "unattributed_frac": table["unattributed_frac"],
        "trace.overhead_frac": untraced.work_per_s / traced.work_per_s - 1.0,
    }
    metrics = {}
    for name in names:
        if name in explicit:
            metrics[name] = explicit[name]
        elif name.endswith(".self_ms"):
            metrics[name] = spans.get(name[: -len(".self_ms")], {}).get("self_s", 0.0) * 1e3 / ops
        else:
            raise KeyError(f"no rule computes the per-layer metric {name!r}")
    return metrics


def run_traced(workload, inputs, seconds: float):
    """One timed phase with every layer boundary wrapped in a span.

    Returns the outcome, the span recorder and the library's counters.
    """
    import layers
    from repro import observability

    recorder = layers.SpanRecorder()
    with observability.observe("bench") as session, layers.patched(recorder):
        with recorder.span("bench.timed"):
            outcome = workload.run(inputs, seconds, recorder)
        snapshot = session.metrics.snapshot()
    return outcome, recorder, snapshot


def measure(args) -> dict:
    """One child process: set up, then as its role says, run one round of
    the reference inputs, or time, trace if asked and check."""
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(workloads.REFERENCE_SEED if args.child == "reference" else args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.child == "setup":
        return {"setup_s": setup_s}
    if args.child == "reference":
        reference = workload.run(inputs, 0.0)
        return {
            "setup_s": setup_s,
            "accuracy": reference.accuracy,
            "attempted": reference.attempted,
            "failed": reference.failed,
            "failures": workload.check(inputs, reference),
        }
    outcome = workload.run(inputs, args.seconds)
    result = {
        "setup_s": setup_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "detail": dict(outcome.detail, seed_accuracy=outcome.accuracy),
    }
    if args.trace:
        import layers

        traced, recorder, snapshot = run_traced(workload, inputs, args.seconds)
        table = layers.layer_table(recorder.spans)
        names = metric_units(load_spec(), "per_layer")
        result["metrics"] = layer_metrics(names, table, snapshot, traced, outcome)
        trace_dir = Path(args.out) / f"{args.workload}-seed{args.seed}-trace-{time.time_ns()}"
        trace_dir.mkdir(parents=True)
        (trace_dir / "spans.json").write_text(json.dumps(recorder.document()) + "\n")
        (trace_dir / "layers.json").write_text(json.dumps(dict(table, counters=snapshot), indent=2) + "\n")
        result["trace_dir"] = str(trace_dir)
        checked = traced
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = e2e_metrics(outcome, peak_rss_mb)
        checked = outcome
    result["failures"] = workload.check(inputs, checked)
    return result


# -- orchestration (the parent process) --------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    for name in BLAS_THREAD_ENV:
        env.setdefault(name, "1")
    return env


def spawn(role: str, args) -> dict:
    """Run one fresh workload process and return its JSON result."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out,
        "--spawned-at", repr(time.monotonic()),
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, env=_child_env(), timeout=CHILD_TIMEOUT_S
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{args.workload}: {role} process exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def machine_block() -> dict:
    import numpy

    env = _child_env()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: env.get(name) for name in BLAS_THREAD_ENV},
    }


def git_commit() -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip()


def run_workload(args, spec: dict, context: dict) -> dict:
    """Measure one workload in fresh processes; print and record its metrics."""
    if args.trace:
        reference = {"attempted": 0, "failed": 0, "failures": []}
        samples = []
    else:
        reference = spawn("reference", args)
        samples = [reference["setup_s"], spawn("setup", args)["setup_s"]]
    result = spawn("measure", args)
    samples.append(result["setup_s"])
    failures = result["failures"] + reference["failures"]
    units = metric_units(spec, "per_layer" if args.trace else "end_to_end")
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(samples)
        values["accuracy"] = reference["accuracy"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "schema": "repro.bench/v1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        **context,
        "correct": not failures,
        "failures": failures,
        "attempted": result["attempted"] + reference["attempted"],
        "failed": result["failed"] + reference["failed"],
        "setup_samples_s": samples,
        "metrics": metrics,
        "detail": result["detail"],
    }
    if args.trace:
        record["trace_dir"] = result["trace_dir"]
        path = Path(result["trace_dir"]).with_suffix(".json")
    else:
        path = Path(args.out) / f"{args.workload}-seed{args.seed}-e2e-{time.time_ns()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    for name, metric in metrics.items():
        print(f"{args.workload:13s} {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in sorted(result["detail"].items()):
        print(f"{args.workload:13s} {'detail.' + name:34s} {value:14.6g}")
    for failure in failures:
        print(f"{args.workload:13s} CHECK FAILED: {failure}")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    workload_names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names, help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="length of each timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH_DIR / "results"), help="directory for result records")
    parser.add_argument("--child", choices=("reference", "setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args)))
        return 0
    if not (SRC_DIR / "repro").is_dir():
        parser.error(f"library sources not found under {SRC_DIR}")
    context = {"command": [Path(sys.executable).name, *sys.argv], "commit": git_commit(), "machine": machine_block()}
    records = []
    for name in [args.workload] if args.workload else workload_names:
        args.workload = name
        records.append(run_workload(args, spec, context))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{key}": value for r in records for key, value in r["metrics"].items()}
    correct = all(record["correct"] for record in records)
    summary = {
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
