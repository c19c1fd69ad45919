"""Public API surface checks.

Every name a package advertises in ``__all__`` must resolve, and the
top-level package must re-export the documented entry points — these
tests catch broken re-exports before a user does.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.bounds",
    "repro.core",
    "repro.data",
    "repro.datasets",
    "repro.engine",
    "repro.eval",
    "repro.extensions",
    "repro.io",
    "repro.network",
    "repro.observability",
    "repro.parallel",
    "repro.pipeline",
    "repro.resilience",
    "repro.serve",
    "repro.synthetic",
    "repro.utils",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_is_sorted_and_unique(package_name):
    package = importlib.import_module(package_name)
    names = list(package.__all__)
    assert names == sorted(names), package_name
    assert len(names) == len(set(names)), package_name


def test_top_level_quickstart_names():
    import repro

    for name in (
        "EMExtEstimator", "SensingProblem", "SourceParameters",
        "generate_dataset", "exact_bound", "gibbs_bound",
        "simulate_dataset", "ApolloPipeline", "make_fact_finder",
        "DenseProblem", "CsrProblem", "coerce_problem", "MemoryBudgetError",
    ):
        assert hasattr(repro, name), name


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_cli_module_importable():
    from repro.cli import main

    assert callable(main)
