"""Serialisation of problems, results and datasets.

Formats:

* **problem JSON** — a :class:`SensingProblem` with its matrices,
  optional ground truth and ids, self-describing and diff-friendly;
* **result JSON** — a :class:`FactFindingResult` /
  :class:`EstimationResult` including fitted parameters;
* **tweets JSONL** — one tweet per line, the interchange format for the
  Apollo pipeline (and the natural dump of a simulated crawl).

All writers produce stable key order so outputs are reproducible
byte-for-byte given the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

import numpy as np

from repro.core.model import SourceParameters
from repro.data.coerce import coerce_problem
from repro.data.dense import DependencyMatrix, SensingProblem, SourceClaimMatrix
from repro.data.protocol import FORMAT_DENSE, Problem
from repro.core.result import EstimationResult, FactFindingResult
from repro.datasets.schema import Tweet
from repro.utils.errors import DataError, ValidationError

PathLike = Union[str, Path]

#: Format version written into every file for forward compatibility.
FORMAT_VERSION = 1


def _write_json(path: PathLike, payload: dict) -> None:
    payload = {"format_version": FORMAT_VERSION, **payload}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_json(path: PathLike) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return payload


# ---------------------------------------------------------------------------
# SensingProblem
# ---------------------------------------------------------------------------

def save_problem(problem: Problem, path: PathLike) -> None:
    """Write a sensing problem (claims, dependencies, optional truth).

    Accepts either storage format; CSR input is densified under the
    memory budget (JSON is a dense interchange format — use
    :func:`repro.io.sparse_io.save_sparse_problem` for large problems).
    """
    problem = coerce_problem(problem, needs=FORMAT_DENSE)
    payload = {
        "kind": "sensing_problem",
        "claims": problem.claims.values.tolist(),
        "dependency": problem.dependency.values.tolist(),
        "source_ids": list(problem.source_ids),
        "assertion_ids": list(problem.assertion_ids),
        "truth": problem.truth.tolist() if problem.has_truth else None,
    }
    _write_json(path, payload)


def load_problem(path: PathLike) -> SensingProblem:
    """Read a sensing problem written by :func:`save_problem`."""
    payload = _read_json(path)
    if payload.get("kind") != "sensing_problem":
        raise DataError(f"{path}: not a sensing-problem file")
    claims = SourceClaimMatrix(
        np.asarray(payload["claims"], dtype=np.int8),
        source_ids=payload.get("source_ids"),
        assertion_ids=payload.get("assertion_ids"),
    )
    dependency = DependencyMatrix(np.asarray(payload["dependency"], dtype=np.int8))
    truth = payload.get("truth")
    return SensingProblem(
        claims=claims,
        dependency=dependency,
        truth=None if truth is None else np.asarray(truth, dtype=np.int8),
    )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

def save_result(result: FactFindingResult, path: PathLike) -> None:
    """Write a fact-finding result (scores, decisions, diagnostics)."""
    payload = {
        "kind": "fact_finding_result",
        "algorithm": result.algorithm,
        "scores": result.scores.tolist(),
        "decisions": result.decisions.tolist(),
    }
    if isinstance(result, EstimationResult):
        payload["estimation"] = {
            "log_likelihood": result.log_likelihood,
            "converged": result.converged,
            "n_iterations": result.n_iterations,
            "parameters": (
                result.parameters.to_dict() if result.parameters else None
            ),
        }
    _write_json(path, payload)


def load_result(path: PathLike) -> FactFindingResult:
    """Read a result written by :func:`save_result`."""
    payload = _read_json(path)
    if payload.get("kind") != "fact_finding_result":
        raise DataError(f"{path}: not a fact-finding-result file")
    base = {
        "algorithm": payload["algorithm"],
        "scores": np.asarray(payload["scores"], dtype=np.float64),
        "decisions": np.asarray(payload["decisions"], dtype=np.int8),
    }
    estimation = payload.get("estimation")
    if estimation is None:
        return FactFindingResult(**base)
    parameters = estimation.get("parameters")
    return EstimationResult(
        **base,
        parameters=(
            SourceParameters.from_dict(parameters) if parameters else None
        ),
        log_likelihood=estimation["log_likelihood"],
        converged=estimation["converged"],
        n_iterations=estimation["n_iterations"],
    )


# ---------------------------------------------------------------------------
# Tweets (JSONL)
# ---------------------------------------------------------------------------

def save_tweets(tweets: Iterable[Tweet], path: PathLike) -> int:
    """Write tweets as JSONL; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for tweet in tweets:
            record = {
                "tweet_id": tweet.tweet_id,
                "user": tweet.user,
                "time": tweet.time,
                "text": tweet.text,
                "assertion": tweet.assertion,
                "retweet_of": tweet.retweet_of,
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count


def load_tweets(path: PathLike) -> List[Tweet]:
    """Read tweets from a JSONL file written by :func:`save_tweets`.

    Every refusal of a record names its ``path:line``.  A malformed
    record (bad JSON, a missing field, a value ``int``/``float`` cannot
    read) raises :class:`~repro.utils.errors.DataError`; a well-formed
    record that :class:`~repro.datasets.schema.Tweet` refuses keeps its
    :class:`~repro.utils.errors.ValidationError`.
    """
    tweets: List[Tweet] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_number}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise DataError(f"{where}: invalid JSON") from error
            try:
                fields = dict(
                    tweet_id=int(record["tweet_id"]),
                    user=int(record["user"]),
                    time=float(record["time"]),
                    text=str(record["text"]),
                    assertion=int(record["assertion"]),
                    retweet_of=(
                        None
                        if record.get("retweet_of") is None
                        else int(record["retweet_of"])
                    ),
                )
            except KeyError as error:
                raise DataError(f"{where}: missing field {error}") from error
            except (TypeError, ValueError) as error:
                raise DataError(f"{where}: {error}") from error
            try:
                tweets.append(Tweet(**fields))
            except ValidationError as error:
                raise ValidationError(f"{where}: {error}") from error
    return tweets


__all__ = [
    "FORMAT_VERSION",
    "load_problem",
    "load_result",
    "load_tweets",
    "save_problem",
    "save_result",
    "save_tweets",
]
