"""Fact-finding at crawl scale with the format-polymorphic data layer.

The dense matrices of a Table III-size crawl do not fit in memory
(Paris Attack: 38 844 × 23 513 cells ≈ 7 GB as float64); a
``repro.data.CsrProblem`` stores only claims and dependent cells (int8
data arrays) and runs the same dependency-aware EM.  This example
simulates a half-scale Ukraine crawl (~1 850 assertions over 40 days),
asks the dataset for its evaluation day directly in CSR format — the
dependency extractor compresses its claimed and dependent cells
straight into CSR — and fact-finds it with ``EMExtEstimator``, which
runs a CSR problem on the sparse backend.  No dense matrices are ever
materialised (an accidental densification over the budget would raise
``MemoryBudgetError``).

Requires scipy (``pip install -e '.[sparse]'``).

Run:
    python examples/full_scale_sparse.py
"""

import time

from repro.core import EMConfig, EMExtEstimator
from repro.datasets import AssertionLabel, simulate_dataset, summarize_cascades


def main() -> None:
    start = time.perf_counter()
    dataset = simulate_dataset("ukraine", scale=0.5, seed=11)
    summary = dataset.summary()
    print(
        f"simulated {summary.name}: {summary.n_sources} sources, "
        f"{summary.n_assertions} assertions, {summary.n_total_claims} claims "
        f"({time.perf_counter() - start:.1f}s)"
    )
    cascades = summarize_cascades(dataset.tweets)
    print(
        f"cascades: {cascades.n_cascades} ({cascades.n_singletons} singletons), "
        f"largest {cascades.max_size}, retweet share "
        f"{cascades.retweet_fraction:.0%}"
    )

    # The dataset builds a CsrProblem directly from the dependency
    # pass's cell lists; every estimator and bound accepts it through
    # the shared Problem protocol.
    evaluation = dataset.evaluation_slice(output_format="csr")
    problem = evaluation.problem
    density = problem.n_claims / (problem.n_sources * problem.n_assertions)
    print(
        f"\nevaluation day: {problem.n_sources} x "
        f"{problem.n_assertions} cells at {density:.2%} density, "
        f"{problem.dependent_claim_fraction():.0%} of claims dependent"
    )

    start = time.perf_counter()
    result = EMExtEstimator(EMConfig(smoothing=1.0)).fit(problem.without_truth())
    elapsed = time.perf_counter() - start
    print(
        f"sparse EM-Ext: {result.n_iterations} iterations in {elapsed:.1f}s "
        f"(converged={result.converged})"
    )

    truth = problem.truth
    top = result.top_k(100)
    labels = [evaluation.labels[j] for j in top]
    n_true = sum(1 for label in labels if label is AssertionLabel.TRUE)
    print(
        f"top-100 true ratio: {n_true / 100:.2f} "
        f"(base rate {float(truth.mean()):.2f})"
    )
    accuracy = float((result.decisions == truth).mean())
    print(f"decision accuracy vs binary truth: {accuracy:.3f}")


if __name__ == "__main__":
    main()
