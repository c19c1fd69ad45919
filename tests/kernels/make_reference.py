"""Regenerate ``tests/data/kernel_reference.npz``.

The file pins the outputs of the estimation and bound kernels as they
were *before* the ``repro.kernels`` optimisation layer landed, so the
parity suite can assert the optimised paths reproduce them — bit for
bit for the deterministic kernels (E-step, M-step), within the
documented tolerances for the reordered (exact) and resampled (Gibbs)
ones.  See ``tests/kernels/cases.py`` for the tolerance rationale.

Run from the repository root::

    PYTHONPATH=src:tests python -m kernels.make_reference

The archive was captured at the pre-optimisation commit and should not
normally be regenerated; doing so on an optimised tree re-pins the
*new* kernels and the suite stops guarding the swap.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.bounds import exact_bound, gibbs_bound
from repro.data import SparseSensingProblem
from repro.engine.backends import CSRBackend, DenseBackend

from kernels import cases

OUT = pathlib.Path(__file__).parent.parent / "data" / "kernel_reference.npz"


def _engine_arrays(label: str, backend, params) -> dict:
    posterior, log_likelihood = backend.e_step(params)
    updated = backend.m_step(posterior, params)
    return {
        f"{label}_posterior": posterior,
        f"{label}_ll": np.array([log_likelihood]),
        f"{label}_m_a": updated.a,
        f"{label}_m_b": updated.b,
        f"{label}_m_f": updated.f,
        f"{label}_m_g": updated.g,
        f"{label}_m_z": np.array([updated.z]),
    }


def _bound_arrays(label: str, result) -> dict:
    return {
        label: np.array(
            [result.total, result.false_positive, result.false_negative]
        )
    }


def main() -> None:
    arrays = {}
    problem = cases.problem()
    sparse_problem = SparseSensingProblem.from_dense(problem)
    for params_label, params in (
        ("mid", cases.params_mid()),
        ("degenerate", cases.params_degenerate()),
    ):
        arrays.update(
            _engine_arrays(
                f"dense_{params_label}", DenseBackend(problem), params
            )
        )
        arrays.update(
            _engine_arrays(
                f"csr_{params_label}", CSRBackend(sparse_problem), params
            )
        )

    for dep_label, dependency in cases.dependency_cases().items():
        for params_label, params in cases.bound_param_cases().items():
            exact = exact_bound(dependency, params)
            arrays.update(
                _bound_arrays(f"exact_{dep_label}_{params_label}", exact)
            )
            gibbs = gibbs_bound(
                dependency,
                params,
                config=cases.GIBBS_PIN_CONFIG,
                seed=cases.GIBBS_PIN_SEED,
            )
            arrays.update(
                _bound_arrays(f"gibbs_{dep_label}_{params_label}", gibbs)
            )

    OUT.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(OUT, **arrays)
    print(f"wrote {len(arrays)} arrays -> {OUT}")


if __name__ == "__main__":
    main()
