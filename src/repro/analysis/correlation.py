"""Cross-correlation classifier for website fingerprinting (Section V).

The paper's side-channel attack records, per page load, a vector of packet
sizes in cache-block granularity, computes a point-wise-average
*representative* vector per site from offline traces, and classifies a new
observation by cross-correlation against each representative.  This module
implements exactly that — plus shift tolerance, since traces compress and
stretch between loads.

Scoring is batched: :meth:`CorrelationClassifier.score_matrix` evaluates
every (trace, representative) pair over every lag with one matrix product
per lag instead of one ``np.dot`` per (pair, lag).  BLAS reassociates the
reductions, so batched scores can differ from the scalar reference in the
last float ulp — classification *decisions* (argmax with first-wins tie
breaking) are pinned exactly against :mod:`reference.analysis`, scores
to within 1e-12 (``tests/test_analysis_equivalence.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def cross_correlation(a: Sequence[float], b: Sequence[float], max_lag: int = 8) -> float:
    """Peak normalised cross-correlation between two traces.

    Both traces are mean-centred and unit-normalised; the result is the
    maximum correlation coefficient over lags in ``[-max_lag, +max_lag]``,
    which absorbs the slight misalignment between loads of the same page.
    Returns 0.0 for degenerate (constant) traces.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    n = min(len(x), len(y))
    if n == 0:
        return 0.0
    x = x[:n] - x[:n].mean()
    y = y[:n] - y[:n].mean()
    denom = np.linalg.norm(x) * np.linalg.norm(y)
    if denom == 0:
        return 0.0
    best = 0.0
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            xs, ys = x[lag:], y[: n - lag]
        else:
            xs, ys = x[: n + lag], y[-lag:]
        if len(xs) == 0:
            continue
        value = float(np.dot(xs, ys)) / denom
        best = max(best, value)
    return best


def cross_correlation_many(
    traces: np.ndarray, reps: np.ndarray, max_lag: int = 8
) -> np.ndarray:
    """Peak normalised cross-correlation of every trace against every
    representative: ``out[i, j]`` pairs ``traces[i]`` with ``reps[j]``.

    Both inputs are 2-D with the same row length; each row is mean-centred
    and unit-normalised independently, then all lags run as one matrix
    product each.  Degenerate (constant) rows score 0.0, and negative
    peaks clip to 0.0, matching :func:`cross_correlation`.
    """
    traces = np.asarray(traces, dtype=float)
    reps = np.asarray(reps, dtype=float)
    if traces.ndim != 2 or reps.ndim != 2 or traces.shape[1] != reps.shape[1]:
        raise ValueError(
            f"expected matching 2-D inputs, got {traces.shape} vs {reps.shape}"
        )
    n = traces.shape[1]
    best = np.zeros((traces.shape[0], reps.shape[0]), dtype=float)
    if n == 0:
        return best
    xc = traces - traces.mean(axis=1, keepdims=True)
    yc = reps - reps.mean(axis=1, keepdims=True)
    denom = np.linalg.norm(xc, axis=1)[:, None] * np.linalg.norm(yc, axis=1)[None, :]
    live = denom > 0
    if not live.any():
        return best
    denom = np.where(live, denom, 1.0)
    for lag in range(-max_lag, max_lag + 1):
        if abs(lag) >= n:
            continue
        if lag >= 0:
            vals = xc[:, lag:] @ yc[:, : n - lag].T
        else:
            vals = xc[:, : n + lag] @ yc[:, -lag:].T
        np.maximum(best, vals / denom, out=best)
    best[~live] = 0.0
    return best


class CorrelationClassifier:
    """Closed-world classifier over packet-size traces.

    Offline phase: :meth:`fit` receives several traces per label and stores
    the point-wise average as the label's representative (the paper: "a
    point-wise average of the packet sizes, resulting in a vector of these
    points over time").  Online phase: :meth:`classify` returns the label
    whose representative correlates best with the observation; batches of
    observations score as one matrix per lag via :meth:`classify_many`.
    """

    def __init__(self, trace_length: int = 100, max_lag: int = 8) -> None:
        if trace_length <= 0:
            raise ValueError(f"trace_length must be positive, got {trace_length}")
        self.trace_length = trace_length
        self.max_lag = max_lag
        self.representatives: dict[str, np.ndarray] = {}

    def _pad(self, trace: Sequence[float]) -> np.ndarray:
        out = np.zeros(self.trace_length, dtype=float)
        n = min(len(trace), self.trace_length)
        out[:n] = np.asarray(trace[:n], dtype=float)
        return out

    def fit(self, training: dict[str, list[Sequence[float]]]) -> None:
        """Build one representative per label from training traces."""
        if not training:
            raise ValueError("no training data")
        self.representatives = {}
        for label, traces in training.items():
            if not traces:
                raise ValueError(f"label {label!r} has no training traces")
            stacked = np.stack([self._pad(t) for t in traces])
            self.representatives[label] = stacked.mean(axis=0)

    @property
    def labels(self) -> list[str]:
        """Fitted labels, in insertion (fit) order — the tie-break order."""
        return list(self.representatives)

    def score_matrix(self, traces: Sequence[Sequence[float]]) -> np.ndarray:
        """``out[i, j]`` = correlation of ``traces[i]`` with label ``j``
        (column order = :attr:`labels`), all pairs and lags batched."""
        if not self.representatives:
            raise RuntimeError("classifier not fitted")
        reps = np.stack([self._pad(r) for r in self.representatives.values()])
        if not len(traces):
            return np.zeros((0, len(reps)), dtype=float)
        padded = np.stack([self._pad(t) for t in traces])
        return cross_correlation_many(padded, reps, self.max_lag)

    def scores(self, trace: Sequence[float]) -> dict[str, float]:
        """Correlation score of ``trace`` against every representative."""
        row = self.score_matrix([trace])[0]
        return {label: float(s) for label, s in zip(self.labels, row)}

    def classify(self, trace: Sequence[float]) -> str:
        """Best-scoring label for ``trace``."""
        return self.classify_many([trace])[0]

    def classify_many(self, traces: Sequence[Sequence[float]]) -> list[str]:
        """Best-scoring label per trace, one score matrix for the batch.

        ``argmax`` keeps the first of tied maxima, matching the scalar
        ``max(scored, key=scored.get)`` over the fit-order dict.
        """
        matrix = self.score_matrix(traces)
        labels = self.labels
        return [labels[i] for i in np.argmax(matrix, axis=1)]

    def accuracy(self, labelled_traces: list[tuple[str, Sequence[float]]]) -> float:
        """Fraction of traces classified as their true label."""
        if not labelled_traces:
            raise ValueError("no traces to score")
        predicted = self.classify_many([trace for _label, trace in labelled_traces])
        correct = sum(
            1 for (label, _), guess in zip(labelled_traces, predicted) if guess == label
        )
        return correct / len(labelled_traces)
