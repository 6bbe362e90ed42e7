"""Step functions on [0, oo) and the measures used to rearrange them.

The whole calculus runs on one representation: a right-continuous step
function that vanishes beyond its last breakpoint.  Distribution functions,
decreasing rearrangements, weight densities and Orlicz modulars are all
of this form, so integration and rearrangement reduce to finite sums over
breakpoint refinements and stay exact in double precision.

``+inf`` is a first-class value; products follow the measure-theoretic
convention ``0 * inf = 0``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__ = [
    "StepFunction",
    "Measure",
    "ExponentialDensity",
    "LEBESGUE",
    "EXPONENTIAL_DENSITY",
    "integrate",
    "distribution",
    "rearrange",
    "generalized_inverse",
    "ess_sup",
    "step_add",
    "step_mul",
    "step_equal",
]


def _assemble(breakpoints, values):
    """Canonical form: drop empty pieces, merge equal neighbours, trim zeros."""
    bp = np.asarray(breakpoints, dtype=float)
    va = np.asarray(values, dtype=float)
    # drop zero-length pieces (refinement may produce duplicate breakpoints)
    lengths = np.diff(bp)
    keep = lengths > 0
    if not keep.all():
        va = va[keep]
        bp = np.concatenate([bp[:1], bp[1:][keep]])
    if va.size:
        # merge runs of equal adjacent values
        starts = np.ones(va.size, dtype=bool)
        starts[1:] = va[1:] != va[:-1]
        idx = np.flatnonzero(starts)
        merged_vals = va[idx]
        ends = np.append(bp[idx[1:]], bp[-1])
        # strip the zero tail; the function is implicitly 0 beyond the end
        nz = np.flatnonzero(merged_vals != 0.0)
        if nz.size == 0:
            return np.array([0.0]), np.array([], dtype=float)
        cut = nz[-1] + 1
        bp = np.concatenate([bp[:1], ends[:cut]])
        va = merged_vals[:cut]
    else:
        bp = np.array([0.0])
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
    equal values merged, trailing zeros removed.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        bp = np.atleast_1d(np.asarray(breakpoints, dtype=float))
        va = np.atleast_1d(np.asarray(values, dtype=float)) if len(values) else np.array([], dtype=float)
        if bp.ndim != 1 or va.ndim != 1 or bp.size != va.size + 1:
            raise ValidationError("need k+1 breakpoints for k values")
        if bp[0] != 0.0:
            raise ValidationError("first breakpoint must be 0")
        if not np.all(np.isfinite(bp)):
            raise ValidationError("breakpoints must be finite")
        if np.any(np.diff(bp) <= 0):
            raise ValidationError("breakpoints must be strictly increasing")
        if np.any(np.isnan(va)) or np.any(va == -math.inf):
            raise ValidationError("values must be real or +inf")
        self.breakpoints, self.values = _assemble(bp, va)

    @classmethod
    def _raw(cls, breakpoints, values):
        # internal fast path: inputs may contain duplicate breakpoints but are
        # otherwise trusted
        obj = object.__new__(cls)
        obj.breakpoints, obj.values = _assemble(breakpoints, values)
        return obj

    @classmethod
    def zero(cls):
        return cls._raw([0.0], [])

    @classmethod
    def indicator(cls, start, end):
        """Indicator of the interval [start, end)."""
        if not 0 <= start < end < math.inf:
            raise ValidationError("indicator needs 0 <= start < end < inf")
        if start == 0:
            return cls([0.0, end], [1.0])
        return cls([0.0, start, end], [0.0, 1.0])

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
        if not np.all(tt >= 0):  # also catches nan
            raise ValidationError("step functions are defined on [0, oo)")
        idx = np.searchsorted(self.breakpoints, tt, side="right") - 1
        out = np.zeros_like(tt, dtype=float)
        inside = idx < self.values.size
        if self.values.size:
            out[inside] = self.values[idx[inside]]
        return float(out) if tt.ndim == 0 else out

    def max_abs(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def is_zero(self):
        return self.values.size == 0

    def is_nonnegative(self):
        return bool(np.all(self.values >= 0))

    def is_nonincreasing(self):
        v = self.values
        if v.size and np.any(v < 0):
            return False
        # canonical form has distinct neighbours, so non-increasing means
        # strictly decreasing values followed by the implicit zero tail
        return bool(np.all(np.diff(v) < 0)) if v.size > 1 else True

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
        if not self.values.size:
            return StepFunction.zero()
        return StepFunction._raw(self.breakpoints, np.asarray(fn(self.values), dtype=float))

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (
            self.values.size == other.values.size
            and np.array_equal(self.breakpoints, other.breakpoints)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        ps = ", ".join(f"{v:g} on [{a:g},{b:g})" for a, b, v in self.pieces())
        return f"StepFunction({ps})" if ps else "StepFunction(0)"


class ExponentialDensity:
    """The closed-form density exp(-t) on [0, oo)."""

    __slots__ = ()

    support_bound = math.inf

    def __call__(self, t):
        return np.exp(-np.asarray(t, dtype=float))

    def cumulative(self, t):
        # integral of exp(-s) over [0, t) = 1 - exp(-t), exact via expm1
        return -np.expm1(-np.asarray(t, dtype=float))

    def __repr__(self):
        return "ExponentialDensity()"


EXPONENTIAL_DENSITY = ExponentialDensity()


class Measure:
    """Lebesgue measure on [0, oo), or the measure with a given density.

    The density is either a non-negative finite :class:`StepFunction` whose
    total mass is finite, or the closed-form :class:`ExponentialDensity`; both
    give every interval finite mass, which the rearrangement machinery relies
    on.
    """

    __slots__ = ("density", "_knots", "_cum")

    def __init__(self, density=None):
        self.density = density
        self._knots = None
        self._cum = None
        if density is None or isinstance(density, ExponentialDensity):
            return
        if not isinstance(density, StepFunction):
            raise ValidationError("density must be a StepFunction or ExponentialDensity")
        if not density.is_nonnegative():
            raise ValidationError("density must be non-negative")
        if not np.all(np.isfinite(density.values)):
            raise ValidationError("density must be finite")
        self._knots = density.breakpoints
        with np.errstate(over="ignore"):
            self._cum = np.concatenate(
                [[0.0], np.cumsum(density.values * np.diff(density.breakpoints))]
            )
        if not math.isfinite(self._cum[-1]):
            raise ValidationError("density must have a finite cumulative mass")
        self._cum.setflags(write=False)

    @classmethod
    def lebesgue(cls):
        return cls(None)

    @classmethod
    def with_density(cls, density):
        return cls(density)

    @property
    def is_lebesgue(self):
        return self.density is None

    def cumulative(self, t):
        """Mass of [0, t); vectorized, ``t = inf`` allowed."""
        tt = np.asarray(t, dtype=float)
        if np.any(tt < 0):
            raise ValidationError("measures live on [0, oo)")
        if self.density is None:
            out = tt
        elif isinstance(self.density, ExponentialDensity):
            out = self.density.cumulative(tt)
        else:
            # cumulative mass is piecewise linear between the density knots
            out = np.interp(tt, self._knots, self._cum)
        return float(out) if tt.ndim == 0 else out

    def interval_mass(self, start, end):
        """Mass of [start, end); handles empty and unbounded intervals."""
        a = np.asarray(start, dtype=float)
        b = np.asarray(end, dtype=float)
        empty = b <= a
        ca = self.cumulative(np.where(empty, 0.0, a))
        cb = self.cumulative(np.where(empty, 0.0, b))
        out = np.where(empty, 0.0, cb - ca)
        return float(out) if np.asarray(start).ndim == 0 and np.asarray(end).ndim == 0 else out

    def total(self):
        return self.cumulative(math.inf)

    def __repr__(self):
        return "Measure(lebesgue)" if self.is_lebesgue else f"Measure({self.density!r})"


LEBESGUE = Measure.lebesgue()


def _piece_masses(f, m, upper=math.inf):
    """Per-piece masses of f's pieces clipped to [0, upper)."""
    starts = f.breakpoints[:-1]
    ends = np.minimum(f.breakpoints[1:], upper)
    return m.interval_mass(starts, ends)


def integrate(f, m, upper=math.inf):
    """Integral of ``f`` over [0, upper) against ``m``.

    Exact for step densities (finite sum over the breakpoint refinement) and
    in closed form for the exponential density.  Returns ``inf`` when the
    integrand is infinite on a set of positive mass; pieces of zero mass
    contribute nothing regardless of their value.
    """
    if upper < 0:
        raise ValidationError("upper limit must be >= 0")
    if upper == 0 or f.values.size == 0:
        return 0.0
    masses = _piece_masses(f, m, upper)
    live = masses > 0
    if np.any(np.isinf(f.values) & live):
        return math.inf
    return float(np.dot(f.values[live], masses[live]))


def distribution(f, m):
    """Distribution function ``t -> m({s : f(s) > t})`` of a non-negative f.

    The result is a non-increasing, right-continuous step function of the
    threshold ``t``, with jumps at the distinct values of ``f``.
    """
    if not f.is_nonnegative():
        raise ValidationError("distribution requires a non-negative function")
    if f.values.size == 0:
        return StepFunction.zero()
    masses = _piece_masses(f, m)
    live = (f.values > 0) & (masses > 0)
    if np.any(np.isinf(f.values) & live):
        raise ValidationError(
            "function is infinite on a set of positive mass; "
            "its distribution is not an eventually-zero step function"
        )
    if not live.any():
        return StepFunction.zero()
    v = f.values[live]
    w = masses[live]
    order = np.argsort(-v)
    v = v[order]
    w = w[order]
    cum = np.cumsum(w)
    # one entry per distinct value: total mass where f >= that value
    last_of_run = np.ones(v.size, dtype=bool)
    last_of_run[:-1] = v[1:] != v[:-1]
    levels_desc = v[last_of_run]
    mass_ge_desc = cum[last_of_run]
    levels = levels_desc[::-1]
    mass_ge = mass_ge_desc[::-1]
    return StepFunction._raw(np.concatenate([[0.0], levels]), mass_ge)


def generalized_inverse(d):
    """Right-continuous generalized inverse ``t -> inf{s >= 0 : d(s) <= t}``
    of a non-increasing step function."""
    if not d.is_nonincreasing():
        raise ValidationError("generalized inverse needs a non-increasing function")
    if d.values.size == 0:
        return StepFunction.zero()
    if np.isinf(d.values[0]):
        raise ValidationError("an infinite plateau has no eventually-zero inverse")
    heights = d.values          # strictly decreasing in canonical form
    piece_ends = d.breakpoints[1:]
    return StepFunction._raw(
        np.concatenate([[0.0], heights[::-1]]), piece_ends[::-1]
    )


def rearrange(f, m):
    """Decreasing rearrangement of ``f`` with respect to ``m``.

    Equimeasurable with ``f``: the Lebesgue distribution of the result equals
    the ``m``-distribution of ``f``.  Values carried by ``m``-null sets
    disappear.
    """
    return generalized_inverse(distribution(f, m))


def ess_sup(f, m):
    """Essential supremum of ``f`` with respect to ``m``."""
    masses = _piece_masses(f, m)
    live = masses > 0
    return float(np.max(f.values[live])) if np.any(live) else 0.0


def _refine(f, g):
    grid = np.union1d(f.breakpoints, g.breakpoints)
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


def _values_close(x, y, tol):
    with np.errstate(invalid="ignore"):
        return bool(np.all((x == y) | (np.abs(x - y) <= tol)))


def _merge_within(f, value_tol):
    bp = list(f.breakpoints)
    va = list(f.values)
    i = 0
    while i + 1 < len(va):
        a, b = va[i], va[i + 1]
        if a == b or (np.isfinite(a) and np.isfinite(b) and abs(a - b) <= value_tol):
            # keep the value of the wider piece
            if bp[i + 1] - bp[i] < bp[i + 2] - bp[i + 1]:
                va[i] = b
            del va[i + 1]
            del bp[i + 1]
        else:
            i += 1
    return np.asarray(bp), np.asarray(va)


def step_equal(f, g, value_tol=1e-10, breakpoint_tol=1e-12):
    """Structural equality of canonical forms with absolute tolerances.

    When floating-point noise leaves the two canonical forms with different
    piece counts, both sides are re-merged with ``value_tol`` before the
    final piecewise comparison.
    """
    fb, fv = f.breakpoints, f.values
    gb, gv = g.breakpoints, g.values
    if fv.size != gv.size:
        fb, fv = _merge_within(f, value_tol)
        gb, gv = _merge_within(g, value_tol)
        if fv.size != gv.size:
            return False
    return (
        bool(np.all(np.abs(fb - gb) <= breakpoint_tol))
        and _values_close(fv, gv, value_tol)
    )
