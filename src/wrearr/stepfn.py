"""Step functions on [0, oo) and the measures used to rearrange them.

The whole calculus runs on one representation: a right-continuous step
function that vanishes beyond its last breakpoint.  Distribution functions,
decreasing rearrangements, weight densities and Orlicz modulars are all
of this form, so integration and rearrangement reduce to finite sums over
breakpoint refinements.  A decreasing rearrangement is one stable sort of
the levels on pieces of positive mass, with their masses laid end to end
from 0; the distribution function is its generalized inverse, and the
singular value function mu(a) is the same sort of the singular values on
their trace weights.  A :class:`Measure` is one of three kinds, each
owning its cumulative mass ``W`` and so its piece masses: Lebesgue measure
(``W(t) = t``), a :class:`DensityMeasure` with a step density (``W``
piecewise linear) and the exponential weight (``W(t) = 1 - exp(-t)``).  The
sums are rounded: a piece's mass is a difference of cumulative masses,
which cancels on small far pieces.

``+inf`` is a first-class value; products follow the measure-theoretic
convention ``0 * inf = 0``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NormOverflowError, ValidationError

__all__ = [
    "StepFunction",
    "Measure",
    "DensityMeasure",
    "LEBESGUE",
    "integrate",
    "distribution",
    "rearrange",
    "generalized_inverse",
    "step_add",
    "step_mul",
    "step_equal",
    "step_value_residual",
]


def _assemble(breakpoints, values):
    """Canonical form: drop empty pieces, merge equal neighbours, trim zeros.

    Input already in that form is kept as given, made read-only, so a caller
    must not write to the arrays it passed in.
    """
    bp = np.asarray(breakpoints, dtype=float)
    va = np.asarray(values, dtype=float)
    # drop zero-length pieces (refinement may produce duplicate breakpoints)
    keep = bp[1:] > bp[:-1]
    if not keep.all():
        va = va[keep]
        bp = np.concatenate([bp[:1], bp[1:][keep]])
    if va.size and not (va[-1] != 0.0 and (va[1:] != va[:-1]).all()):
        # merge runs of equal adjacent values
        idx = np.concatenate(([0], (va[1:] != va[:-1]).nonzero()[0] + 1))
        merged_vals = va[idx]
        ends = np.concatenate((bp[idx[1:]], bp[-1:]))
        # strip the zero tail; the function is implicitly 0 beyond the end
        nz = (merged_vals != 0.0).nonzero()[0]
        cut = nz[-1] + 1 if nz.size else 0
        bp = np.concatenate([bp[:1], ends[:cut]])
        va = merged_vals[:cut]
    bp.setflags(write=False)
    va.setflags(write=False)
    return bp, va


class StepFunction:
    """Right-continuous step function on [0, oo), zero beyond the last breakpoint.

    Parameters
    ----------
    breakpoints : sequence of float
        Strictly increasing, first entry 0.  ``k + 1`` entries for ``k`` values.
    values : sequence of float
        Value taken on ``[breakpoints[i], breakpoints[i+1])``.  May contain
        ``+inf``.  Negative values are tolerated so the type can also carry
        signed multipliers; the rearrangement operations reject them.

    Instances are immutable and always stored in canonical form: adjacent
    equal values merged, trailing zeros removed.  The norms keep the atoms
    of an instance under the last measure asked for on it.
    """

    __slots__ = ("breakpoints", "values", "_atoms")

    def __init__(self, breakpoints, values):
        # copied: _assemble keeps canonical input as given, and the caller may
        # still write to its own arrays
        bp = np.array(breakpoints, dtype=float, ndmin=1)
        va = np.array(values, dtype=float, ndmin=1)
        if bp.ndim != 1 or va.ndim != 1 or bp.size != va.size + 1:
            raise ValidationError("need k+1 breakpoints for k values")
        if bp[0] != 0.0:
            raise ValidationError("first breakpoint must be 0")
        if not np.isfinite(bp).all():
            raise ValidationError("breakpoints must be finite")
        if (bp[1:] <= bp[:-1]).any():
            raise ValidationError("breakpoints must be strictly increasing")
        if np.isnan(va).any() or (va == -math.inf).any():
            raise ValidationError("values must be real or +inf")
        self.breakpoints, self.values = _assemble(bp, va)
        self._atoms = None  # (measure, levels, masses, sup_ess), kept by the norms

    @classmethod
    def _raw(cls, breakpoints, values):
        # internal fast path: inputs may contain duplicate breakpoints but are
        # otherwise trusted, and the caller writes to neither array afterwards
        obj = object.__new__(cls)
        obj.breakpoints, obj.values = _assemble(breakpoints, values)
        obj._atoms = None
        return obj

    @classmethod
    def zero(cls):
        return cls._raw([0.0], [])

    # -- basic queries ----------------------------------------------------

    @property
    def support_end(self):
        """Last breakpoint; the function vanishes from there on."""
        return float(self.breakpoints[-1])

    @property
    def piece_count(self):
        return int(self.values.size)

    def pieces(self):
        """Iterate (start, end, value) over the canonical pieces."""
        bp = self.breakpoints
        for i, v in enumerate(self.values):
            yield float(bp[i]), float(bp[i + 1]), float(v)

    def __call__(self, t):
        tt = np.asarray(t, dtype=float)
        if not (tt >= 0).all():  # also catches nan
            raise ValidationError("step functions are defined on [0, oo)")
        # from the last breakpoint on, idx is values.size: the padding 0
        idx = self.breakpoints.searchsorted(tt, side="right") - 1
        out = np.concatenate((self.values, [0.0]))[idx]
        return float(out) if tt.ndim == 0 else out

    def max_abs(self):
        return float(np.abs(self.values).max(initial=0.0))

    def is_zero(self):
        return self.values.size == 0

    def is_nonnegative(self):
        return bool((self.values >= 0).all())

    def is_nonincreasing(self):
        v = self.values
        # canonical form has distinct neighbours, so non-increasing means
        # strictly decreasing values followed by the implicit zero tail
        return not (v < 0).any() and bool((v[1:] < v[:-1]).all())

    # -- constructions -----------------------------------------------------

    def scaled(self, factor):
        """Pointwise multiple.  A zero factor wipes infinities (0 * inf = 0)."""
        if factor == 0:
            return StepFunction.zero()
        return StepFunction._raw(self.breakpoints, self.values * factor)

    def absolute(self):
        return StepFunction._raw(self.breakpoints, np.abs(self.values))

    def map_values(self, fn):
        """Apply ``fn`` to every value.  ``fn(0) == 0`` is required so the
        implicit zero tail stays zero."""
        if fn(0.0) != 0.0:
            raise ValidationError("map_values needs fn(0) == 0")
        return StepFunction._raw(self.breakpoints, np.asarray(fn(self.values), dtype=float))

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self.values.size == other.values.size and bool(
            (self.breakpoints == other.breakpoints).all() and (self.values == other.values).all()
        )

    def __repr__(self):
        ps = ", ".join(f"{v:g} on [{a:g},{b:g})" for a, b, v in self.pieces())
        return f"StepFunction({ps})" if ps else "StepFunction(0)"


class Measure:
    """A measure on [0, oo), known by its cumulative mass ``W(t) = m([0, t))``.

    There are three kinds, each with its own ``W``: Lebesgue measure
    :data:`LEBESGUE`, a :class:`DensityMeasure` with a step density, and the
    exponential weight :class:`~wrearr.weighted.ExpWeight`.  Every interval
    has finite mass under the last two, which the rearrangement machinery
    relies on.
    """

    __slots__ = ()

    def cumulative(self, t):
        """Mass of [0, t); vectorized, ``t = inf`` allowed."""
        tt = np.asarray(t, dtype=float)
        if not (tt >= 0).all():  # also catches nan
            raise ValidationError("measures live on [0, oo)")
        out = self._cumulative(tt)
        return float(out) if tt.ndim == 0 else out

    def piece_masses(self, bp):
        """The mass of each piece [bp[i], bp[i+1]) of increasing breakpoints."""
        c = self.cumulative(bp)
        if type(c) is float:  # a 0-d array of breakpoints has no pieces
            raise ValidationError("piece masses need a 1-d array of breakpoints")
        return c[..., 1:] - c[..., :-1]

    def total(self):
        return self.cumulative(math.inf)


class _Lebesgue(Measure):
    __slots__ = ()

    def _cumulative(self, t):
        return t

    def __repr__(self):
        return "LEBESGUE"


LEBESGUE = _Lebesgue()


class DensityMeasure(Measure):
    """The measure with a non-negative, finite step density of finite total
    mass; its cumulative mass is piecewise linear between the density's
    breakpoints."""

    __slots__ = ("density", "_knots", "_cum")

    def __init__(self, density):
        if not density.is_nonnegative():
            raise ValidationError("density must be non-negative")
        if not np.isfinite(density.values).all():
            raise ValidationError("density must be finite")
        self.density = density
        k = self._knots = density.breakpoints
        with np.errstate(over="ignore"):
            self._cum = np.concatenate([[0.0], (density.values * (k[1:] - k[:-1])).cumsum()])
        if not math.isfinite(self._cum[-1]):
            raise ValidationError("density must have a finite cumulative mass")
        self._cum.setflags(write=False)

    def _cumulative(self, t):
        return np.interp(t, self._knots, self._cum)

    def __repr__(self):
        return f"{type(self).__name__}({self.density!r})"


def _live(f, m):
    """The values of ``f`` on its pieces of positive ``m``-mass, and those
    masses; the pieces of zero mass count for nothing under ``m``."""
    masses = m.piece_masses(f.breakpoints)
    live = masses > 0
    return f.values[live], masses[live]


def integrate(f, m):
    """Integral of ``f`` over [0, oo) against ``m``.

    A finite sum of value times mass over f's pieces.  A piece's mass is a
    difference of cumulative masses, piecewise linear for a step density and
    ``1 - exp(-t)`` for the exponential one, so the sum is rounded: the
    difference cancels on small far pieces.  Returns ``inf`` when the
    integrand is infinite on a set of positive mass; pieces of zero mass
    contribute nothing regardless of their value.  Raises
    :class:`NormOverflowError` when the sum of finite terms overflows.
    """
    values, masses = _live(f, m)
    if np.isinf(values).any():
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(masses.dot(values))
    if not math.isfinite(total):
        raise NormOverflowError("the integral overflows the float range")
    return total


def _decreasing(levels, masses, total=math.inf):
    """The decreasing step function that takes each level on its mass.

    The levels in descending order, tied levels in index order (a stable
    sort), with their masses laid end to end from 0; the running sum is
    capped at ``total``, which it can round above.  Canonical form merges
    tied levels and drops the zero tail.  Distinct levels have only one such
    order, which numpy's default sort finds faster, so the stable sort runs
    only when two levels compare equal (``inf`` or ``±0.0`` among them).
    """
    neg = -levels
    order = neg.argsort()
    ordered = levels[order]
    if (ordered[1:] == ordered[:-1]).any():
        order = neg.argsort(kind="stable")
        ordered = levels[order]
    ends = np.minimum(masses[order].cumsum(), total)
    return StepFunction._raw(np.concatenate([[0.0], ends]), ordered)


def rearrange(f, m):
    """Decreasing rearrangement of a non-negative ``f`` with respect to ``m``.

    Equimeasurable with ``f``: the Lebesgue distribution of the result equals
    the ``m``-distribution of ``f``.  Values carried by ``m``-null sets
    disappear.
    """
    if not f.is_nonnegative():
        raise ValidationError("rearrangement and distribution need a non-negative function")
    values, masses = _live(f, m)
    if np.isinf(values).any():
        raise ValidationError(
            "function is infinite on a set of positive mass; its rearrangement "
            "and distribution are not eventually-zero step functions"
        )
    return _decreasing(values, masses, m.total())


def distribution(f, m):
    """Distribution function ``t -> m({s : f(s) > t})`` of a non-negative f.

    The generalized inverse of :func:`rearrange`: a non-increasing,
    right-continuous step function of the threshold ``t``, with jumps at the
    distinct values of ``f``.
    """
    return generalized_inverse(rearrange(f, m))


def generalized_inverse(d):
    """Right-continuous generalized inverse ``t -> inf{s >= 0 : d(s) <= t}``
    of a non-increasing step function."""
    if not d.is_nonincreasing():
        raise ValidationError("generalized inverse needs a non-increasing function")
    if d.values.size == 0:
        return StepFunction.zero()
    if np.isinf(d.values[0]):
        raise ValidationError("an infinite plateau has no eventually-zero inverse")
    # canonical values are strictly decreasing, so reversed they are the breakpoints
    return StepFunction._raw(np.concatenate([[0.0], d.values[::-1]]), d.breakpoints[:0:-1])


def _union(a, b):
    """``np.union1d`` of 1-d arrays without NaN, except that of -0.0 and 0.0
    the first is kept, where np.union1d's hash table picks either."""
    grid = np.concatenate((a, b))
    grid.sort(kind="stable")
    return np.concatenate((grid[:1], grid[1:][grid[1:] != grid[:-1]]))


def _members(x, bp):
    """Which entries of ``x`` equal a breakpoint of the strictly increasing
    ``bp``: ``np.isin(x, bp)``, by one binary search per entry."""
    return bp.take(bp.searchsorted(x), mode="clip") == x


def _refine(f, g):
    grid = _union(f.breakpoints, g.breakpoints)
    left = grid[:-1]
    return grid, f(left), g(left)


def step_add(f, g):
    """Pointwise sum on the common breakpoint refinement."""
    grid, a, b = _refine(f, g)
    return StepFunction._raw(grid, a + b)


def step_mul(f, g):
    """Pointwise product; uses the convention 0 * inf = 0."""
    grid, a, b = _refine(f, g)
    with np.errstate(invalid="ignore"):
        prod = np.where((a == 0) | (b == 0), 0.0, a * b)
    return StepFunction._raw(grid, prod)


def step_value_residual(f, g, sliver=1e-9):
    """Largest pointwise gap between two step functions.

    A piece of their common refinement no wider than ``sliver`` is ignored
    when it comes from breakpoint jitter, that is, when one of its endpoints
    is a breakpoint of only one function; a piece of both is always compared.
    Two infinite values agree."""
    grid, vf, vg = _refine(f, g)
    with np.errstate(invalid="ignore"):
        gap = np.where(np.isinf(vf) & np.isinf(vg), 0.0, np.abs(vf - vg))
    gap = np.where(np.isnan(gap), math.inf, gap)
    shared = _members(grid, f.breakpoints) & _members(grid, g.breakpoints)
    kept = (grid[1:] - grid[:-1] > sliver) | (shared[:-1] & shared[1:])
    return float(gap[kept].max()) if kept.any() else 0.0


def step_equal(f, g, value_tol=1e-10, breakpoint_tol=1e-12):
    """Equality within ``value_tol`` at every point, outside the jitter
    slivers of the common refinement no wider than ``breakpoint_tol``.

    Breakpoint jitter and floating-point noise that splits one piece into
    several therefore compare equal.
    """
    return step_value_residual(f, g, breakpoint_tol) <= value_tol
