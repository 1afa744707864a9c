"""Bias corrections and derived group measures.

Measured group shares under classifier noise relate to the true shares
through a column-stochastic confusion matrix. Inverting that map removes
the group-level bias at the cost of extra variance; this module holds the
share-vector types, the closed-form corrections (C's adjugate over its
determinant, no linear-algebra dependency), Coleman's homophily index, and
the variance-inflation factor of the corrected group shares.

Corrected shares may land outside [0, 1]. They are flagged, never
clipped: clipping would reintroduce bias.

Each formula is written once, as a kernel that works elementwise on numpy
arrays or Python floats alike: ``singular``, ``correct_shares``,
``correct_edge_shares``, ``ingroup_shares``, ``coleman_index`` and
``outside_unit``. The experiment grid calls them once on arrays of every
vector of a replication, its ground truth included. The corrections of
single vectors (``adjust_proportions``, ``adjust_edge_proportions``) call
them and raise ``SingularCorrectionError`` where the guard marks C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import ConfusionMatrix, dyadic_matrix

DET_GUARD = 1e-9
_SUM_TOL = 1e-9


class SingularCorrectionError(ValueError):
    """Confusion matrix too close to singular to invert."""

    code = "singular"


class UndefinedShareError(ValueError):
    """A share or index whose defining denominator is zero."""

    code = "undefined_share"


@dataclass(frozen=True)
class _ShareVector:
    """Shares, the subclass's fields in order, that sum to 1.

    A component outside [0, 1] is flagged, never clipped; one that is not
    finite is refused. The sum's tolerance grows with the largest component.
    """

    def __post_init__(self) -> None:
        vals = self.as_tuple()
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"shares must be finite, got {vals!r}")
        total = sum(vals)
        if abs(total - 1.0) > _SUM_TOL * max(1.0, *map(abs, vals)):
            raise ValueError(f"shares must sum to 1, got {total!r}")

    @property
    def out_of_range(self) -> bool:
        return bool(outside_unit(*self.as_tuple()))

    def as_tuple(self) -> tuple[float, ...]:
        # A dataclass __init__ sets the fields in declaration order.
        return tuple(self.__dict__.values())


@dataclass(frozen=True)
class PropVector(_ShareVector):
    """Two-group share vector (majority a, minority b); components sum to 1."""

    a: float
    b: float


@dataclass(frozen=True)
class EdgeVector(_ShareVector):
    """Edge-type share vector (aa, ab, bb); components sum to 1."""

    aa: float
    ab: float
    bb: float


def outside_unit(*components):
    """Where any of the components lies outside [0, 1]."""
    return ~np.logical_and.reduce([(c >= 0.0) & (c <= 1.0) for c in components])


def singular(det, power: int = 1):
    """Where det**power falls below the guard: power 1 for a confusion
    matrix C, 3 for its dyadic matrix."""
    return np.abs(np.asarray(det, dtype=float) ** power) < DET_GUARD


def correct_shares(a, b, entries, det):
    """Group shares (a, b) with the bias of the confusion matrix whose
    row-major ``entries`` and determinant are given removed: the 2x2
    system solved by its cofactors. The result sums to 1 whenever the
    input does."""
    aa, ab, ba, bb = entries
    return (a * bb - b * ab) / det, (b * aa - a * ba) / det


def correct_edge_shares(t, entries, det):
    """Edge-type shares ``t`` (aa, ab, bb) with the bias of the confusion
    matrix whose row-major ``entries`` and determinant are given removed:
    the dyadic matrix D inverts as D(C^-1) = D(adj C) / det(C)^2."""
    aa, ab, ba, bb = entries
    return tuple(
        (r[0] * t[0] + r[1] * t[1] + r[2] * t[2]) / (det * det)
        for r in dyadic_matrix((bb, -ab, -ba, aa))
    )


def ingroup_shares(own, cross):
    """In-group share 2*own / (2*own + cross) of a group whose own-type and
    cross-type edge shares are given, and where it is undefined: the group
    has no edge endpoints."""
    with np.errstate(all="ignore"):
        denom = np.add(2.0 * own, cross)
        return np.divide(2.0 * own, denom), denom == 0.0


def coleman_index(s_g, p_g):
    """Coleman's index of a group with in-group share ``s_g`` and
    proportion ``p_g``, and where it is undefined: the group is empty or
    the whole population. The excess s_g - p_g is normalized by the
    headroom above (1 - p_g) or below (p_g) random mixing."""
    with np.errstate(all="ignore"):
        diff = np.subtract(s_g, p_g)
        index = np.where(diff >= 0.0, np.divide(diff, 1.0 - p_g), np.divide(diff, p_g))
    return index, (p_g == 0.0) | (p_g == 1.0)


def _checked_det(confusion: ConfusionMatrix, power: int = 1) -> float:
    """det(C), once det(C)**power clears the guard: 1 for C, 3 for its dyadic matrix."""
    det = confusion.det
    if singular(det, power):
        raise SingularCorrectionError(
            f"determinant {det**power!r} of the matrix to invert below guard {DET_GUARD}"
        )
    return det


def adjust_proportions(measured: PropVector, confusion: ConfusionMatrix) -> PropVector:
    """Remove classification bias from measured group shares
    (``correct_shares``). Components may leave [0, 1] and are then
    flagged, not clipped."""
    det = _checked_det(confusion)
    return PropVector(*correct_shares(measured.a, measured.b, confusion.to_flat(), det))


def adjust_edge_proportions(measured: EdgeVector, confusion: ConfusionMatrix) -> EdgeVector:
    """Remove classification bias from measured edge-type shares
    (``correct_edge_shares``)."""
    det = _checked_det(confusion, 3)
    return EdgeVector(*correct_edge_shares(measured.as_tuple(), confusion.to_flat(), det))


def variance_inflation_nodes(confusion: ConfusionMatrix) -> float:
    """Variance multiplier for corrected group proportions, 1 / det^2.

    This is exactly Var(corrected) / Var(uncorrected). It overstates the
    cost against the noise-free estimate, since the noise term depends on
    the true shares and the sample design, not on det alone.
    """
    det = _checked_det(confusion)
    return 1.0 / (det * det)
