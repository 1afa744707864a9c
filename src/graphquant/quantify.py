"""Bias corrections and derived group measures.

Measured group shares under classifier noise relate to the true shares
through a column-stochastic confusion matrix. Inverting that map removes
the group-level bias at the cost of extra variance; this module holds the
share-vector types, the closed-form corrections (2x2 and 3x3 cofactor
inverses, no linear-algebra dependency), Coleman's homophily index, and
the variance-inflation factor of the corrected group shares.

Corrected shares may land outside [0, 1]. They are flagged, never
clipped: clipping would reintroduce bias. A clip-and-renormalize helper
exists on the vector types for display purposes only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .noise import ConfusionMatrix, dyadic_matrix

DET_GUARD = 1e-9
_SUM_TOL = 1e-9


class SingularCorrectionError(ValueError):
    """Confusion matrix too close to singular to invert."""


class UndefinedShareError(ValueError):
    """A share or index whose defining denominator is zero."""


@dataclass(frozen=True)
class PropVector:
    """Two-group share vector (majority a, minority b); components sum to 1."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if abs(self.a + self.b - 1.0) > _SUM_TOL:
            raise ValueError(f"proportions must sum to 1, got {self.a + self.b!r}")

    @property
    def out_of_range(self) -> bool:
        return not (0.0 <= self.a <= 1.0 and 0.0 <= self.b <= 1.0)

    def as_tuple(self) -> tuple[float, float]:
        return (self.a, self.b)

    def clipped(self) -> "PropVector":
        """Clip to [0, 1] and renormalize. Display-only; biased."""
        a = min(max(self.a, 0.0), 1.0)
        b = min(max(self.b, 0.0), 1.0)
        total = a + b
        if total <= 0.0:
            raise UndefinedShareError("cannot renormalize an all-zero vector")
        return PropVector(a / total, b / total)


@dataclass(frozen=True)
class EdgeVector:
    """Edge-type share vector (aa, ab, bb); components sum to 1."""

    aa: float
    ab: float
    bb: float

    def __post_init__(self) -> None:
        if abs(self.aa + self.ab + self.bb - 1.0) > _SUM_TOL:
            raise ValueError(
                f"edge shares must sum to 1, got {self.aa + self.ab + self.bb!r}"
            )

    @property
    def out_of_range(self) -> bool:
        return not all(0.0 <= v <= 1.0 for v in (self.aa, self.ab, self.bb))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.aa, self.ab, self.bb)

    def clipped(self) -> "EdgeVector":
        """Clip to [0, 1] and renormalize. Display-only; biased."""
        vals = [min(max(v, 0.0), 1.0) for v in self.as_tuple()]
        total = sum(vals)
        if total <= 0.0:
            raise UndefinedShareError("cannot renormalize an all-zero vector")
        return EdgeVector(vals[0] / total, vals[1] / total, vals[2] / total)


@dataclass(frozen=True)
class HomophilyIndex:
    value: float
    out_of_range: bool = False


def _checked_det(confusion: ConfusionMatrix) -> float:
    det = confusion.det
    if abs(det) < DET_GUARD:
        raise SingularCorrectionError(
            f"confusion matrix determinant {det!r} below guard {DET_GUARD}"
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


def _inverse_3x3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if abs(det) < DET_GUARD:
        raise SingularCorrectionError(
            f"dyadic matrix determinant {det!r} below guard {DET_GUARD}"
        )
    return (
        ((e * i - f * h) / det, (c * h - b * i) / det, (b * f - c * e) / det),
        ((f * g - d * i) / det, (a * i - c * g) / det, (c * d - a * f) / det),
        ((d * h - e * g) / det, (b * g - a * h) / det, (a * e - b * d) / det),
    )


def adjust_edge_proportions(measured: EdgeVector, confusion: ConfusionMatrix) -> EdgeVector:
    """Remove classification bias from measured edge-type shares."""
    _checked_det(confusion)
    inv = _inverse_3x3(dyadic_matrix(confusion))
    t = measured.as_tuple()
    s = [row[0] * t[0] + row[1] * t[1] + row[2] * t[2] for row in inv]
    return EdgeVector(s[0], s[1], s[2])


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


def coleman_homophily(s_g: float, p_g: float) -> HomophilyIndex:
    """Coleman's homophily index: in-group tie excess over random mixing.

    The excess s_g - p_g is normalized by the headroom above (1 - p_g) or
    below (p_g) random mixing, so 1 means perfect homophily, 0 random
    mixing and -1 perfect heterophily. Undefined when the group is the
    whole population or empty. Corrected inputs may fall outside [0, 1];
    the value is still computed and the result flagged.
    """
    if p_g == 0.0 or p_g == 1.0:
        raise UndefinedShareError(f"homophily undefined for group proportion {p_g}")
    diff = s_g - p_g
    value = diff / (1.0 - p_g) if diff >= 0.0 else diff / p_g
    flagged = not (0.0 <= s_g <= 1.0 and 0.0 < p_g < 1.0 and -1.0 <= value <= 1.0)
    return HomophilyIndex(value=value, out_of_range=flagged)


def variance_inflation_nodes(confusion: ConfusionMatrix) -> float:
    """Variance multiplier for corrected group proportions, 1 / det^2.

    This is exactly Var(corrected) / Var(uncorrected). It overstates the
    cost against the noise-free estimate, since the noise term depends on
    the true shares and the sample design, not on det alone.
    """
    det = _checked_det(confusion)
    return 1.0 / (det * det)
