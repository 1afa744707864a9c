"""Classifier-error simulation for two-class node labels.

Labels are integers: 0 for the majority class (a), 1 for the minority
class (b). A column-stochastic confusion matrix gives the probability of
each predicted class conditional on the true class; noise is simulated by
flipping every node independently according to its true-class column.
One uniform per node decides its flip (``flip_labels``); the experiment
grid draws the uniforms ``apply_noise`` would and flips only drawn nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COLUMN_TOL = 1e-12


class UndefinedConfusionError(ValueError):
    """A true class absent from the labeled pairs leaves its column undefined."""

    code = "confusion_undefined"


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 column-stochastic misclassification matrix.

    ``x_given_y`` is P(predicted x | true y). Columns index true classes
    and each must sum to 1. The determinant must stay away from zero for
    any correction built on this matrix to exist.
    """

    a_given_a: float
    a_given_b: float
    b_given_a: float
    b_given_b: float

    def __post_init__(self) -> None:
        entries = self.to_flat()
        if any(not (0.0 <= v <= 1.0) for v in entries):
            raise ValueError(f"confusion entries must lie in [0, 1], got {entries}")
        if abs(self.a_given_a + self.b_given_a - 1.0) > COLUMN_TOL:
            raise ValueError("true-class-a column must sum to 1")
        if abs(self.a_given_b + self.b_given_b - 1.0) > COLUMN_TOL:
            raise ValueError("true-class-b column must sum to 1")

    @property
    def det(self) -> float:
        return self.a_given_a * self.b_given_b - self.a_given_b * self.b_given_a

    def to_flat(self) -> list[float]:
        """Row-major flat form [a|a, a|b, b|a, b|b], the on-disk order."""
        return [self.a_given_a, self.a_given_b, self.b_given_a, self.b_given_b]


def symmetric_confusion(rate: float) -> ConfusionMatrix:
    """Confusion matrix with equal off-diagonal misclassification rate.

    Rates of 0.5 or more are rejected: the matrix would be singular (or
    anti-diagonal dominant) and no correction could recover anything.
    """
    if not 0.0 <= rate < 0.5:
        raise ValueError(f"misclassification rate must lie in [0, 0.5), got {rate}")
    return ConfusionMatrix(1.0 - rate, rate, rate, 1.0 - rate)


def apply_noise(labels, confusion: ConfusionMatrix, rng_seed=None) -> np.ndarray:
    """Flip each label independently per its true-class column of ``confusion``.

    Deterministic for a fixed seed. Returns a new int8 array.
    """
    arr = np.asarray(labels, dtype=np.int8)
    if arr.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ValueError("labels must be 0 (majority) or 1 (minority)")
    return flip_labels(arr, np.random.default_rng(rng_seed).random(arr.shape[0]), confusion)


def flip_labels(labels: np.ndarray, u: np.ndarray, confusion: ConfusionMatrix) -> np.ndarray:
    """Int8 ``labels`` (0 or 1), each flipped where its uniform in ``u``
    falls below its true class's flip probability, b|a or a|b."""
    return labels ^ (u < np.array([confusion.b_given_a, confusion.a_given_b])[labels])


def empirical_confusion(truth, predicted):
    """Column-normalized count matrix from (true, predicted) label pairs.

    ``predicted`` is one label per pair, or a (classifiers x pairs) table
    with one classifier's labels per row, which gives a list of matrices,
    one per row, from one count. Labels must be 0 or 1. Raises
    ``UndefinedConfusionError`` if one of the true classes is absent,
    since its column would be undefined.
    """
    t = np.asarray(truth)
    p = np.asarray(predicted)
    if t.ndim != 1 or p.ndim not in (1, 2) or p.shape[-1:] != t.shape:
        raise ValueError("predicted labels must be one list, or rows of lists, as long as truth")
    if np.any((p | t) & ~1):  # any label but 0 or 1 sets a higher bit or the sign
        raise ValueError("labels must be 0 (majority) or 1 (minority)")
    entries, _, undefined = confusion_entries(t, p.reshape(-1, t.shape[0]), np.zeros(t.shape, np.int64), 1)
    if undefined[0]:
        raise UndefinedConfusionError(
            "both true classes must be present to estimate a confusion matrix"
        )
    matrices = [ConfusionMatrix(*row) for row in entries[0].tolist()]
    return matrices if p.ndim == 2 else matrices[0]


def confusion_entries(truth, predicted, sets, n_sets: int):
    """Empirical confusion matrices of many labeled sets from one count:
    ``truth`` and each classifier's row of ``predicted`` hold labels (0 or 1,
    unchecked) of every set's pairs, and ``sets`` each pair's set, below
    ``n_sets``. Returns the row-major entries and determinants per (set,
    classifier), NaN for a set that lacks a true class, and those sets."""
    k = predicted.shape[0]
    # Keys 4 * (k * set + classifier) + 2 * prediction + truth, then past them 2 * set + truth.
    keys = 2 * predicted + truth + 4 * (k * sets + np.arange(k)[:, None])
    tally = np.bincount(np.concatenate([keys.ravel(), 4 * k * n_sets + 2 * sets + truth]),
                        minlength=(4 * k + 2) * n_sets)
    counts, totals = tally[: 4 * k * n_sets].reshape(n_sets, k, 4), tally[4 * k * n_sets :].reshape(-1, 2)
    undefined = (totals == 0).any(axis=1)
    entries = counts / np.where(undefined[:, None], np.nan, totals)[:, None, [0, 1, 0, 1]]
    return entries, entries[..., 0] * entries[..., 3] - entries[..., 1] * entries[..., 2], undefined


def dyadic_matrix(entries) -> tuple[tuple[float, float, float], ...]:
    """Edge-level matrix of the 2x2 matrix with row-major ``entries``.

    For a confusion matrix's ``to_flat()``, its rows map true edge-type
    shares (aa, ab, bb) to measured ones under independent endpoint
    noise. As C's action on unordered pairs, D(AB) = D(A) D(B).
    """
    aa, ab, ba, bb = entries
    return (
        (aa * aa, aa * ab, ab * ab),
        (2.0 * aa * ba, aa * bb + ab * ba, 2.0 * ab * bb),
        (ba * ba, ba * bb, bb * bb),
    )
