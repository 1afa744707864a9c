"""Bias corrections and derived group measures.

Measured group shares under classifier noise relate to the true shares
through a column-stochastic confusion matrix. Inverting that map removes
the group-level bias at the cost of extra variance; this module holds the
share-vector types, the closed-form corrections (C's adjugate over its
determinant, no linear-algebra dependency), Coleman's homophily index, and
the variance-inflation factor of the corrected group shares.

Corrected shares may land outside [0, 1]. They are flagged, never
clipped: clipping would reintroduce bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        return not all(0.0 <= v <= 1.0 for v in self.as_tuple())

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


def _checked_det(confusion: ConfusionMatrix, power: int = 1) -> float:
    """det(C), once det(C)**power clears the guard: 1 for C, 3 for its dyadic matrix."""
    det = confusion.det
    if abs(det**power) < DET_GUARD:
        raise SingularCorrectionError(
            f"determinant {det**power!r} of the matrix to invert below guard {DET_GUARD}"
        )
    return det


def adjust_proportions(measured: PropVector, confusion: ConfusionMatrix) -> PropVector:
    """Remove classification bias from measured group shares.

    Solves the 2x2 system mapping true shares to measured shares, via the
    explicit cofactor form. The result sums to 1 whenever the input does;
    components may leave [0, 1] and are then flagged, not clipped.
    """
    det = _checked_det(confusion)
    p_a = (measured.a * confusion.b_given_b - measured.b * confusion.a_given_b) / det
    p_b = (measured.b * confusion.a_given_a - measured.a * confusion.b_given_a) / det
    return PropVector(p_a, p_b)


def adjust_edge_proportions(measured: EdgeVector, confusion: ConfusionMatrix) -> EdgeVector:
    """Remove classification bias from measured edge-type shares: the
    dyadic matrix D inverts as D(C^-1) = D(adj C) / det(C)^2."""
    det = _checked_det(confusion, 3)
    aa, ab, ba, bb = confusion.to_flat()
    t = measured.as_tuple()
    adj = dyadic_matrix((bb, -ab, -ba, aa))
    return EdgeVector(*((r[0] * t[0] + r[1] * t[1] + r[2] * t[2]) / (det * det) for r in adj))


def ingroup_share(edge_shares: EdgeVector, group: int) -> float:
    """Fraction of a group's edge endpoints that attach within the group.

    For group a this is 2*aa / (2*aa + ab), and symmetrically for b.
    Raises when the group has no edge endpoints at all.
    """
    if group not in (0, 1):
        raise ValueError(f"group must be 0 (a) or 1 (b), got {group}")
    own = edge_shares.bb if group == 1 else edge_shares.aa
    denom = 2.0 * own + edge_shares.ab
    if denom == 0.0:
        raise UndefinedShareError("group has no edge endpoints")
    return 2.0 * own / denom


def coleman_homophily(s_g: float, p_g: float) -> float:
    """Coleman's homophily index: in-group tie excess over random mixing.

    The excess s_g - p_g is normalized by the headroom above (1 - p_g) or
    below (p_g) random mixing, so 1 means perfect homophily, 0 random
    mixing and -1 perfect heterophily. Undefined when the group is the
    whole population or empty. Corrected inputs may fall outside [0, 1];
    the value is still computed. Rounding is monotone, so in-range inputs
    give a value in [-1, 1], and a caller flags the index by its inputs.
    """
    if p_g == 0.0 or p_g == 1.0:
        raise UndefinedShareError(f"homophily undefined for group proportion {p_g}")
    diff = s_g - p_g
    return diff / (1.0 - p_g) if diff >= 0.0 else diff / p_g


def variance_inflation_nodes(confusion: ConfusionMatrix) -> float:
    """Variance multiplier for corrected group proportions, 1 / det^2.

    This is exactly Var(corrected) / Var(uncorrected). It overstates the
    cost against the noise-free estimate, since the noise term depends on
    the true shares and the sample design, not on det alone.
    """
    det = _checked_det(confusion)
    return 1.0 / (det * det)
