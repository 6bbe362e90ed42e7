"""Weights, the weighted trace functional, and weighted rearrangements.

A weight is the measure its decreasing density ``mu(x)`` defines: a
:class:`~wrearr.stepfn.Measure`, passed wherever a measure is expected.  The
weighted functional integrates singular value functions against it, and the
weighted rearrangement is the decreasing rearrangement with respect to it.
The weighted distribution gives a second route to it, its generalized
inverse, and the exhaustive projection search a ground truth for diagonal
operators; ``wrearr verify`` compares the three.
"""

from __future__ import annotations

import numpy as np

from .algebra import singular_value_function
from .errors import ValidationError
from .stepfn import (
    EXPONENTIAL_DENSITY,
    LEBESGUE,
    Measure,
    StepFunction,
    distribution,
    integrate,
    rearrange,
)

__all__ = [
    "Weight",
    "StepWeight",
    "ExpWeight",
    "WeightedContext",
    "weighted_trace",
    "weighted_distribution",
    "weighted_rearrangement",
    "weighted_rearrangement_oracle",
]

ORACLE_DIMENSION_CAP = 20


class Weight(Measure):
    """Base class for weights: the measure a decreasing density defines.

    Concrete weights add ``cumulative_inverse``, the inverse of the cumulative
    mass ``W``, which is continuous, zero at zero and strictly increasing up to
    the end of the density's support.
    """

    __slots__ = ()


class StepWeight(Weight):
    """Weight given by a non-increasing step density (exact arithmetic)."""

    __slots__ = ()

    def __init__(self, density):
        if not isinstance(density, StepFunction):
            raise ValidationError("step weight needs a StepFunction density")
        if density.is_zero():
            raise ValidationError("weight must be non-zero")
        if not density.is_nonincreasing():
            raise ValidationError(
                "weight density must be non-increasing; rearrange the payload first"
            )
        super().__init__(density)

    def cumulative_inverse(self, u):
        uu = np.asarray(u, dtype=float)
        if np.any(uu < 0) or np.any(uu > self.total()):
            raise ValidationError("cumulative inverse needs 0 <= u <= total mass")
        out = np.interp(uu, self._cum, self._knots)
        return float(out) if uu.ndim == 0 else out

    def __repr__(self):
        return f"StepWeight({self.density!r})"


class ExpWeight(Weight):
    """The closed-form weight with density exp(-t)."""

    __slots__ = ()

    def __init__(self):
        super().__init__(EXPONENTIAL_DENSITY)

    def cumulative_inverse(self, u):
        uu = np.asarray(u, dtype=float)
        if np.any(uu < 0) or np.any(uu > 1):
            raise ValidationError("cumulative inverse needs 0 <= u <= 1")
        with np.errstate(divide="ignore"):
            out = -np.log1p(-uu)
        return float(out) if uu.ndim == 0 else out

    def __repr__(self):
        return "ExpWeight()"


class WeightedContext:
    """An algebra together with a non-zero weight."""

    __slots__ = ("algebra", "weight")

    def __init__(self, algebra, weight):
        if not isinstance(weight, Weight):
            raise ValidationError("context needs a Weight instance")
        self.algebra = algebra
        self.weight = weight

    def __repr__(self):
        return f"WeightedContext({self.algebra!r}, {self.weight!r})"


def _check_member(ctx, a):
    if a.algebra != ctx.algebra:
        raise ValidationError("operator does not belong to the context's algebra")


def weighted_trace(ctx, a):
    """The weighted functional: integral of the singular value function of
    ``a`` against the weight density.

    Subadditive, homogeneous and faithful, but not additive.
    """
    _check_member(ctx, a)
    return integrate(singular_value_function(a), ctx.weight)


def weighted_distribution(ctx, a):
    """Weighted distribution function: the weighted trace of each spectral
    projection of |a| above the threshold.

    Computed exactly as the cumulative weight mass composed with the
    unweighted distribution, which agrees with evaluating the weighted trace
    on each spectral projection directly.
    """
    _check_member(ctx, a)
    plain = distribution(singular_value_function(a), LEBESGUE)
    return plain.map_values(ctx.weight.cumulative)


def weighted_rearrangement(ctx, a):
    """Weighted decreasing rearrangement of ``a``.

    Computed as the decreasing rearrangement of the singular value function
    with respect to the weight's measure.  The result is kept on ``a``, keyed
    on the identity of ``ctx.weight``: a later call with the same weight
    object returns it, and a call with another weight rebuilds it and keeps
    that one instead.
    """
    _check_member(ctx, a)
    weight = ctx.weight
    if a._rearranged is None or a._rearranged[0] is not weight:
        a._rearranged = (weight, rearrange(singular_value_function(a), weight))
    return a._rearranged[1]


def weighted_rearrangement_oracle(ctx, a, t):
    """Ground-truth weighted rearrangement value by exhaustive search.

    Enumerates every coordinate-subset projection ``e`` of a diagonal
    operator, keeps those whose complement has weighted trace at most ``t``,
    and returns the smallest attainable ``||a e||``.  Exponential in the
    dimension, hence refused above {cap} coordinates.
    """
    _check_member(ctx, a)
    if not t >= 0:
        raise ValidationError("the rearrangement parameter must be >= 0")
    if not ctx.algebra.is_matrix or not a.is_diagonal():
        raise ValidationError("the exhaustive oracle needs diagonal matrix blocks")
    n = ctx.algebra.total_dimension
    if n > ORACLE_DIMENSION_CAP:
        raise ValidationError(
            f"the exhaustive oracle refuses dimensions above {ORACLE_DIMENSION_CAP}"
        )
    entries = np.abs(a.diagonal_entries())
    lam = ctx.algebra.coordinate_weights()
    # tables over all 2^n subsets, bit i set = coordinate i kept
    kept_max = np.zeros(1)
    kept_trace = np.zeros(1)
    for i in range(n):
        kept_max = np.concatenate([kept_max, np.maximum(kept_max, entries[i])])
        kept_trace = np.concatenate([kept_trace, kept_trace + lam[i]])
    dropped_mass = ctx.weight.cumulative(np.maximum(lam.sum() - kept_trace, 0.0))
    admissible = dropped_mass <= t
    return float(kept_max[admissible].min())


weighted_rearrangement_oracle.__doc__ = weighted_rearrangement_oracle.__doc__.format(
    cap=ORACLE_DIMENSION_CAP
)
