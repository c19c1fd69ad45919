"""Command-line interface.

Subcommands::

    repro generate    write a synthetic sensing problem (Section V-A)
    repro estimate    run a fact-finder on a problem file
    repro bound       compute the fundamental error bound of a problem
    repro simulate    simulate a Table III Twitter dataset to JSONL
    repro experiment  regenerate one of the paper's tables/figures
    repro serve       generate/replay request traces for repro.serve
    repro stream      streaming estimation over claim-batch windows

Every command is deterministic given ``--seed``.  See ``repro <cmd> -h``
for per-command options.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import observability
from repro.baselines import ALGORITHM_REGISTRY, make_fact_finder
from repro.bounds import (
    MAX_EXACT_SOURCES,
    GibbsConfig,
    bhattacharyya_bounds,
    bound_cascade,
    exact_bound,
    gibbs_bound,
)
from repro.core.em_ext import EMConfig
from repro.datasets import DATASET_ORDER, simulate_dataset
from repro.eval import (
    figure3_bound_vs_sources,
    figure4_bound_vs_trees,
    figure5_bound_vs_odds,
    figure6_bound_timing,
    figure7_estimator_vs_sources,
    figure8_estimator_vs_assertions,
    figure9_estimator_vs_trees,
    figure10_estimator_vs_odds,
    figure11_empirical,
    format_bound_comparison,
    format_empirical,
    format_sweep,
    format_timing,
    table1_walkthrough,
)
from repro.datasets.summary import format_table, summarize_catalog
from repro.eval.benchinfo import machine_info
from repro.extensions import StreamingEMExt
from repro.io import (
    load_problem,
    load_sparse_problem,
    save_problem,
    save_result,
    save_sparse_problem,
    save_tweets,
)
from repro.observability import profile_stage
from repro.parallel import ParallelConfig
from repro.resilience.supervisor import Deadline, parse_timespan
from repro.serve import (
    ServiceConfig,
    generate_trace,
    load_trace,
    replay_trace,
)
from repro.synthetic import GeneratorConfig, empirical_parameters, generate_dataset
from repro.utils.errors import ReproError

_EXPERIMENTS = (
    "table1", "table3", "fig3", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig9", "fig10", "fig11",
)
#: The experiments whose trials ``--n-jobs`` or ``--batch`` can run.
_TRIAL_EXPERIMENTS = ("fig7", "fig8", "fig9", "fig10")


def _add_observability_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group("observability (off unless requested)")
    group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the run's span tree as JSON (repro.trace/v1)",
    )
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics snapshot as JSON (repro.metrics/v1)",
    )
    group.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="profile the command under cProfile and write a pstats "
             "text report",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dependency-aware social sensing (ICDCS 2016 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="write a synthetic sensing problem"
    )
    generate.add_argument("--out", required=True, help="output problem JSON path")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--n-sources", type=int, default=20)
    generate.add_argument("--n-assertions", type=int, default=50)
    generate.add_argument("--n-trees", type=int, default=None,
                          help="fixed tree count (default: paper range 8-10)")
    generate.add_argument("--mode", choices=("cell", "pool"), default="cell")
    generate.add_argument("--with-truth", action="store_true",
                          help="include ground-truth labels in the file")

    estimate = subparsers.add_parser("estimate", help="run a fact-finder")
    estimate.add_argument("--problem", required=True, help="problem JSON path")
    estimate.add_argument("--out", default=None, help="result JSON path")
    estimate.add_argument(
        "--algorithm", default="em-ext", choices=sorted(ALGORITHM_REGISTRY)
    )
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument("--smoothing", type=float, default=0.0)
    estimate.add_argument(
        "--restarts", type=int, default=1, metavar="R",
        help="em-ext: random restarts; the best fixed point by "
             "log-likelihood wins (default 1, the paper's single run)",
    )
    estimate.add_argument(
        "--batch", action="store_true",
        help="em-ext: run the restarts as stacked lanes of one batched "
             "tensor pass (bit-for-bit identical results, several times "
             "faster once --restarts reaches ~8)",
    )
    estimate.add_argument("--top", type=int, default=10,
                          help="print this many top-ranked assertions")
    _add_observability_flags(estimate)

    bound = subparsers.add_parser(
        "bound", help="fundamental error bound of a problem (needs truth labels)"
    )
    bound.add_argument("--problem", required=True)
    bound.add_argument(
        "--method", default="auto",
        choices=("auto", "exact", "gibbs", "bhattacharyya"),
        help="auto (default): exact up to MAX_EXACT_SOURCES "
             f"({MAX_EXACT_SOURCES}) sources, gibbs beyond",
    )
    bound.add_argument("--seed", type=int, default=0)
    bound.add_argument(
        "--deadline", default=None, metavar="SPAN",
        help="wall budget for the computation (e.g. 500ms, 5s, 2m); "
             "implies --cascade behaviour on expiry, so the cascade picks "
             "the tier (not combinable with --method)",
    )
    bound.add_argument(
        "--cascade", action="store_true",
        help="pick the best affordable tier (exact -> gibbs -> "
             "analytic) and report any degradation instead of failing; "
             "the cascade picks the tier, so --method does not combine "
             "with it",
    )
    _add_observability_flags(bound)

    simulate = subparsers.add_parser(
        "simulate", help="simulate a Table III Twitter dataset"
    )
    simulate.add_argument("--dataset", required=True, choices=DATASET_ORDER)
    simulate.add_argument("--scale", type=float, default=0.1)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--tweets-out", default=None, help="JSONL output path")
    simulate.add_argument("--problem-out", default=None,
                          help="evaluation-day problem JSON output path")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument("name", choices=_EXPERIMENTS)
    experiment.add_argument(
        "--n-jobs", type=int, default=None, metavar="N",
        help="fan the experiment's trials (figs 7-10) out across N worker "
             "processes (-1: all cores); results are identical for any N",
    )
    experiment.add_argument(
        "--batch", action="store_true",
        help="figs 7-10: fit each trial's em-ext as stacked batched "
             "lanes in the parent (bit-for-bit identical results; "
             "incompatible with --n-jobs)",
    )
    _add_observability_flags(experiment)

    serve = subparsers.add_parser(
        "serve",
        help="generate and replay request traces for the estimation service",
    )
    serve.add_argument(
        "--generate-trace", default=None, metavar="PATH",
        help="write a seeded synthetic request trace (JSONL)",
    )
    serve.add_argument(
        "--replay", default=None, metavar="PATH",
        help="replay a request trace through repro.serve",
    )
    serve.add_argument("--requests", type=int, default=200,
                       help="trace size for --generate-trace (default 200)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--distinct", type=int, default=None, metavar="K",
        help="distinct problems in the trace (fewer than --requests "
             "creates exact repeats that exercise the result cache)",
    )
    serve.add_argument("--n-sources", type=int, default=20)
    serve.add_argument("--n-assertions", type=int, default=50)
    serve.add_argument(
        "--init", choices=("random", "staged", "support"), default="random",
        help="em-ext init strategy written into the trace (default "
             "random; staged initialisation runs serially per problem "
             "and hides the micro-batching speedup)",
    )
    serve.add_argument("--restarts", type=int, default=1)
    serve.add_argument(
        "--mode", choices=("batched", "serial", "both"), default="batched",
        help="replay through the service, the per-request serial "
             "baseline, or both (reporting the speedup)",
    )
    serve.add_argument(
        "--verify", action="store_true",
        help="re-fit every answered request directly and require "
             "bit-for-bit equal responses (non-zero exit on mismatch)",
    )
    serve.add_argument("--max-batch", type=int, default=32, metavar="B",
                       help="lane budget per micro-batch (default 32)")
    serve.add_argument("--queue-depth", type=int, default=256, metavar="N",
                       help="admission limit before backpressure (default 256)")
    serve.add_argument(
        "--timeout", default=None, metavar="SPAN",
        help="per-request deadline, e.g. 500ms or 5s (measured from "
             "submission; stale requests are rejected, not fitted)",
    )
    serve.add_argument("--bench-out", default=None, metavar="PATH",
                       help="write replay measurements as JSON")
    _add_observability_flags(serve)

    stream = subparsers.add_parser(
        "stream", help="streaming estimation over claim-batch windows"
    )
    stream.add_argument(
        "--windows", nargs="+", required=True, metavar="PATH",
        help="problem files (JSON or NPZ), one per stream window, in "
             "arrival order; all windows must share the source population",
    )
    stream.add_argument("--out", default=None, metavar="PATH",
                        help="write per-window decisions and parameter "
                             "snapshots as JSONL")
    stream.add_argument("--decay", type=float, default=0.95,
                        help="forgetting factor on accumulated statistics "
                             "(default 0.95; 1.0 never forgets)")
    stream.add_argument("--inner-iterations", type=int, default=25)
    stream.add_argument(
        "--seed", type=int, default=None,
        help="cold-start jitter seed (default: the historical "
             "deterministic cold start)",
    )
    _add_observability_flags(stream)
    return parser


def _load_any_problem(path: str):
    """Load a problem, routing ``.npz`` paths to the sparse reader."""
    if str(path).endswith(".npz"):
        return load_sparse_problem(path)
    return load_problem(path)


def _save_any_problem(problem, path: str) -> None:
    """Save a problem, routing ``.npz`` paths to the sparse writer."""
    if str(path).endswith(".npz"):
        save_sparse_problem(problem, path)
    else:
        save_problem(problem, path)


def _cmd_generate(args) -> int:
    kwargs = {
        "n_sources": args.n_sources,
        "n_assertions": args.n_assertions,
        "mode": args.mode,
    }
    if args.n_trees is not None:
        kwargs["n_trees"] = args.n_trees
    dataset = generate_dataset(GeneratorConfig(**kwargs), seed=args.seed)
    problem = dataset.problem if args.with_truth else dataset.problem.without_truth()
    _save_any_problem(problem, args.out)
    print(
        f"wrote {args.out}: {problem.n_sources} sources x "
        f"{problem.n_assertions} assertions, "
        f"{problem.n_claims} claims "
        f"({problem.dependent_claim_fraction():.0%} dependent)"
        + (", with truth labels" if args.with_truth else "")
    )
    return 0


def _cmd_estimate(args) -> int:
    problem = _load_any_problem(args.problem).without_truth()
    name = args.algorithm
    if name == "em-ext":
        finder = make_fact_finder(
            name,
            seed=args.seed,
            config=EMConfig(
                smoothing=args.smoothing,
                n_restarts=args.restarts,
                restart_mode="batched" if args.batch else "serial",
            ),
        )
    elif name in ("em", "em-social"):
        if args.batch or args.restarts != 1:
            print(
                "note: --batch/--restarts apply to em-ext only; ignored",
                file=sys.stderr,
            )
        finder = make_fact_finder(name, seed=args.seed, smoothing=args.smoothing)
    else:
        if args.batch or args.restarts != 1:
            print(
                "note: --batch/--restarts apply to em-ext only; ignored",
                file=sys.stderr,
            )
        finder = make_fact_finder(name)
    result = finder.fit(problem)
    print(f"algorithm: {result.algorithm}")
    print(f"assertions judged true: {int(result.decisions.sum())} / {result.n_assertions}")
    top = result.top_k(args.top)
    for rank, assertion in enumerate(top, start=1):
        label = problem.assertion_ids[assertion]
        print(f"  {rank:>3}. {label}  score={result.scores[assertion]:.4f}")
    if args.out:
        save_result(result, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_bound(args) -> int:
    cascade = args.cascade or args.deadline is not None
    if cascade and args.method != "auto":
        print(
            "error: with --cascade or --deadline the cascade picks the tier; "
            "drop --method",
            file=sys.stderr,
        )
        return 2
    problem = _load_any_problem(args.problem)
    if not problem.has_truth:
        print(
            "error: the bound needs oracle parameters, which are measured "
            "against ground truth; regenerate the problem with --with-truth",
            file=sys.stderr,
        )
        return 2
    params = empirical_parameters(problem).clamp(1e-4)
    # The bound functions accept the problem directly (any storage
    # format) through repro.data.as_dependency_array.
    dependency = problem
    method = args.method
    if cascade:
        deadline = (
            Deadline.after(parse_timespan(args.deadline))
            if args.deadline is not None
            else None
        )
        outcome = bound_cascade(
            dependency, params, deadline=deadline, seed=args.seed
        )
        result = outcome.bound
        report = outcome.report
        print(
            f"{result.method} bound: Err = {result.total:.6f} "
            f"(FP {result.false_positive:.6f}, FN {result.false_negative:.6f}); "
            f"optimal accuracy ceiling = {result.optimal_accuracy:.6f}"
        )
        print(f"cascade: {report.summary()}")
        if report.degraded:
            print(
                f"note: degraded from the {report.requested} tier "
                f"({'deadline ' + args.deadline if args.deadline else 'budget'} "
                "too tight for the better tiers)"
            )
        return 0
    if method == "auto":
        method = "exact" if problem.n_sources <= MAX_EXACT_SOURCES else "gibbs"
    if method == "bhattacharyya":
        lower, upper = bhattacharyya_bounds(dependency, params)
        print(f"bhattacharyya bracket: [{lower:.6f}, {upper:.6f}]")
        return 0
    if method == "exact":
        result = exact_bound(dependency, params)
    else:
        result = gibbs_bound(dependency, params, config=GibbsConfig(), seed=args.seed)
    print(
        f"{result.method} bound: Err = {result.total:.6f} "
        f"(FP {result.false_positive:.6f}, FN {result.false_negative:.6f}); "
        f"optimal accuracy ceiling = {result.optimal_accuracy:.6f}"
    )
    return 0


def _cmd_simulate(args) -> int:
    dataset = simulate_dataset(args.dataset, scale=args.scale, seed=args.seed)
    summary = dataset.summary()
    print(
        f"{summary.name}: {summary.n_sources} sources, "
        f"{summary.n_assertions} assertions, {summary.n_total_claims} claims "
        f"({summary.n_original_claims} original)"
    )
    if args.tweets_out:
        count = save_tweets(dataset.tweets, args.tweets_out)
        print(f"wrote {count} tweets to {args.tweets_out}")
    if args.problem_out:
        evaluation = dataset.evaluation_slice()
        save_problem(evaluation.problem, args.problem_out)
        print(
            f"wrote evaluation-day problem "
            f"({evaluation.n_sources} x {evaluation.n_assertions}) "
            f"to {args.problem_out}"
        )
    return 0


def _cmd_experiment(args) -> int:
    name = args.name
    if name not in _TRIAL_EXPERIMENTS and (args.n_jobs is not None or args.batch):
        print(
            f"error: --n-jobs and --batch apply to figs 7-10 only, not {name}",
            file=sys.stderr,
        )
        return 2
    if args.n_jobs is not None and args.batch:
        print(
            "error: --batch fits the trials in this process; drop --n-jobs "
            "or --batch",
            file=sys.stderr,
        )
        return 2
    if name == "table1":
        result = table1_walkthrough()
        print(f"Table I bound: {result.total:.8f} (paper: 0.26980433)")
    elif name == "table3":
        print(format_table(summarize_catalog(scale=0.1)))
        print("\n(simulated at scale 0.1; set REPRO_FULL_TRIALS=1 benchmarks "
              "for full-scale runs)")
    elif name in ("fig3", "fig4", "fig5"):
        runner = {
            "fig3": (figure3_bound_vs_sources, "n"),
            "fig4": (figure4_bound_vs_trees, "tau"),
            "fig5": (figure5_bound_vs_odds, "dep-odds"),
        }[name]
        print(format_bound_comparison(runner[0](), x_label=runner[1]))
    elif name == "fig6":
        print(format_timing(figure6_bound_timing()))
    elif name in _TRIAL_EXPERIMENTS:
        runner = {
            "fig7": figure7_estimator_vs_sources,
            "fig8": figure8_estimator_vs_assertions,
            "fig9": figure9_estimator_vs_trees,
            "fig10": figure10_estimator_vs_odds,
        }[name]
        kwargs = {}
        if args.n_jobs is not None:
            kwargs["parallel"] = ParallelConfig(n_jobs=args.n_jobs)
        if args.batch:
            kwargs["trial_mode"] = "batched"
        sweep = runner(**kwargs)
        print("accuracy:\n" + format_sweep(sweep, "accuracy"))
        print("\nfalse positive rate:\n" + format_sweep(sweep, "false_positive_rate"))
    else:  # fig11
        print(format_empirical(figure11_empirical(n_seeds=2, target_assertions=700)))
    return 0


def _cmd_serve(args) -> int:
    import json

    if args.generate_trace is None and args.replay is None:
        print(
            "error: serve needs --generate-trace and/or --replay",
            file=sys.stderr,
        )
        return 2
    if args.generate_trace is not None:
        n_requests = generate_trace(
            args.generate_trace,
            n_requests=args.requests,
            seed=args.seed,
            n_sources=args.n_sources,
            n_assertions=args.n_assertions,
            distinct_problems=args.distinct,
            init_strategy=args.init,
            n_restarts=args.restarts,
            timeout_seconds=(
                parse_timespan(args.timeout) if args.timeout is not None else None
            ),
        )
        print(
            f"wrote {args.generate_trace}: {n_requests} requests "
            f"({args.n_sources} x {args.n_assertions}, "
            f"{args.distinct if args.distinct is not None else n_requests} "
            "distinct problems)"
        )
    if args.replay is None:
        return 0
    requests = load_trace(args.replay)
    service_config = ServiceConfig(
        max_batch_size=args.max_batch,
        max_queue_depth=args.queue_depth,
        default_timeout_seconds=(
            parse_timespan(args.timeout) if args.timeout is not None else None
        ),
    )
    modes = ("batched", "serial") if args.mode == "both" else (args.mode,)
    reports = {}
    for mode in modes:
        # The serial baseline *is* the sequence of direct fits, so
        # verification only means something on the batched path.
        report = replay_trace(
            requests,
            mode=mode,
            service_config=service_config,
            verify=args.verify and mode == "batched",
        )
        reports[mode] = report
        print(report.summary())
    speedup = None
    if len(reports) == 2:
        speedup = (
            reports["serial"].wall_seconds / reports["batched"].wall_seconds
        )
        print(f"speedup (serial wall / batched wall): {speedup:.2f}x")
    mismatches = sum(report.n_mismatches for report in reports.values())
    if args.bench_out is not None:
        document = {
            "schema": "repro.bench-serve/v1",
            "experiment": "serve_replay",
            "trace": args.replay,
            "n_requests": len(requests),
            "config": {
                "max_batch_size": args.max_batch,
                "max_queue_depth": args.queue_depth,
                "timeout": args.timeout,
                "mode": args.mode,
            },
            "machine": machine_info(),
            "rows": {mode: report.to_row() for mode, report in reports.items()},
            "speedup": speedup,
            "parity": (
                {
                    "verified": sum(r.n_verified for r in reports.values()),
                    "mismatches": mismatches,
                }
                if args.verify
                else None
            ),
        }
        with open(args.bench_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.bench_out}")
    if mismatches:
        print(
            f"error: {mismatches} responses differ from their direct fits",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_stream(args) -> int:
    import json

    problems = [_load_any_problem(path).without_truth() for path in args.windows]
    stream = StreamingEMExt(
        n_sources=problems[0].n_sources,
        decay=args.decay,
        inner_iterations=args.inner_iterations,
        seed=args.seed,
    )
    records = []
    for index, (path, problem) in enumerate(zip(args.windows, problems)):
        result = stream.partial_fit(problem)
        n_true = int(result.decisions.sum())
        print(
            f"window {index}: {path} -> {n_true}/{result.n_assertions} true, "
            f"{result.n_iterations} inner iterations"
            f"{' (converged)' if result.converged else ''}"
        )
        parameters = result.parameters
        records.append(
            {
                "window": index,
                "source": path,
                "n_assertions": int(result.n_assertions),
                "n_true": n_true,
                "converged": bool(result.converged),
                "n_iterations": int(result.n_iterations),
                "decisions": [int(value) for value in result.decisions],
                "scores": [float(value) for value in result.scores],
                "parameters": {
                    "a": [float(v) for v in parameters.a],
                    "b": [float(v) for v in parameters.b],
                    "f": [float(v) for v in parameters.f],
                    "g": [float(v) for v in parameters.g],
                    "z": float(parameters.z),
                },
            }
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        print(f"wrote {args.out}: {len(records)} windows")
    return 0


def _run_observed(handler, args) -> int:
    """Run a command handler, honouring the observability flags.

    With none of ``--trace-out`` / ``--metrics-out`` / ``--profile-out``
    given the handler runs exactly as before (no session installed, so
    every instrumentation point stays on its no-op path).  Outputs are
    written only after the handler returns, and the notices go to
    stderr so stdout stays machine-readable.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    profile_out = getattr(args, "profile_out", None)
    if trace_out is None and metrics_out is None and profile_out is None:
        return handler(args)
    with observability.observe(root_name=f"repro.{args.command}") as session:
        with profile_stage(profile_out):
            code = handler(args)
    if trace_out is not None:
        session.write_trace(trace_out)
        print(f"wrote trace to {trace_out}", file=sys.stderr)
    if metrics_out is not None:
        session.write_metrics(metrics_out)
        print(f"wrote metrics to {metrics_out}", file=sys.stderr)
    if profile_out is not None:
        print(f"wrote profile to {profile_out}", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "estimate": _cmd_estimate,
        "bound": _cmd_bound,
        "simulate": _cmd_simulate,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "stream": _cmd_stream,
    }
    try:
        return _run_observed(handlers[args.command], args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


__all__ = ["main"]
