"""Desk-scale operator algebra models.

Two kinds of algebra carry the whole theory at desk scale: finite direct
sums of real matrix blocks, each block weighted in the trace, and the
commutative algebra of step-function multipliers on a bounded interval.
Everything is real; all operators are bounded.
"""

from __future__ import annotations

import math

import numpy as np

from .eig import _EPS, one_sided_svd
from .errors import InfiniteValueError, ValidationError
from .stepfn import LEBESGUE, StepFunction, _decreasing, integrate, step_add, step_mul

__all__ = [
    "Algebra",
    "Operator",
    "Projection",
    "absolute",
    "singular_value_function",
    "spectral_projection",
    "apply_function",
    "partial_isometry_conjugates",
]

MAX_BLOCK_SIZE = 64
MAX_TOTAL_DIMENSION = 512

_ENTRY_TOL = 1e-10


class Algebra:
    """A block matrix algebra with trace weights, or a commutative one.

    ``matrix`` kind: elements are direct sums of real ``n_k x n_k`` blocks and
    the trace is ``sum_k weight_k * Tr(block_k)``.  ``steps`` kind: elements
    are step functions supported on ``[0, bound)`` acting by multiplication,
    and the trace is the Lebesgue integral.
    """

    __slots__ = ("kind", "block_sizes", "trace_weights", "domain_bound", "_coordinate_weights")

    def __init__(self, kind, block_sizes=None, trace_weights=None, domain_bound=None):
        if kind == "matrix":
            if not all(
                isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in block_sizes
            ):
                raise ValidationError("block sizes must be integers")
            sizes = tuple(int(n) for n in block_sizes)
            weights = tuple(float(w) for w in trace_weights)
            if len(sizes) != len(weights) or not sizes:
                raise ValidationError("need one trace weight per block")
            if any(n < 1 for n in sizes):
                raise ValidationError("block sizes must be >= 1")
            if any(n > MAX_BLOCK_SIZE for n in sizes):
                raise ValidationError(f"block sizes are capped at {MAX_BLOCK_SIZE}")
            if sum(sizes) > MAX_TOTAL_DIMENSION:
                raise ValidationError(f"total dimension is capped at {MAX_TOTAL_DIMENSION}")
            if any(not (w > 0 and math.isfinite(w)) for w in weights):
                raise ValidationError("trace weights must be positive and finite")
            self.block_sizes = sizes
            self.trace_weights = weights
            self.domain_bound = None
            self._coordinate_weights = _frozen(np.array(weights).repeat(sizes))
        elif kind == "steps":
            bound = float(domain_bound)
            if not (bound > 0 and math.isfinite(bound)):
                raise ValidationError("domain bound must be positive and finite")
            self.block_sizes = None
            self.trace_weights = None
            self.domain_bound = bound
        else:
            raise ValidationError(f"unknown algebra kind {kind!r}")
        self.kind = kind

    @classmethod
    def matrix_blocks(cls, block_sizes, trace_weights):
        return cls("matrix", block_sizes=block_sizes, trace_weights=trace_weights)

    @classmethod
    def commutative(cls, domain_bound):
        return cls("steps", domain_bound=domain_bound)

    @property
    def is_matrix(self):
        return self.kind == "matrix"

    @property
    def total_dimension(self):
        return sum(self.block_sizes) if self.is_matrix else None

    def coordinate_weights(self):
        """Trace weight of each diagonal coordinate across the blocks; built once, read-only."""
        if not self.is_matrix:
            raise ValidationError("coordinate weights exist only for matrix algebras")
        return self._coordinate_weights

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.block_sizes == other.block_sizes
            and self.trace_weights == other.trace_weights
            and self.domain_bound == other.domain_bound
        )

    def __hash__(self):
        return hash((self.kind, self.block_sizes, self.trace_weights, self.domain_bound))

    def __repr__(self):
        if self.is_matrix:
            return f"Algebra.matrix_blocks({list(self.block_sizes)}, {list(self.trace_weights)})"
        return f"Algebra.commutative({self.domain_bound})"


def _frozen(array):
    out = np.array(array, dtype=float)
    out.setflags(write=False)
    return out


class Operator:
    """Element of an :class:`Algebra`: matrix blocks or a step multiplier.

    Operators are immutable, so spectral data derived from one is kept on it
    once built: the block SVDs, the singular value function, and the weighted
    rearrangement under the last weight asked for (see
    :func:`wrearr.weighted.weighted_rearrangement`); the last two keep the
    norm atoms of routes A and B.  On a positive operator with exactly
    symmetric blocks, the kept SVDs are its eigendecomposition.
    """

    __slots__ = ("algebra", "blocks", "step", "_sv_cache", "_svf", "_rearranged")

    def __init__(self, algebra, blocks=None, step=None):
        self.algebra = algebra
        self._sv_cache = None
        self._svf = None
        self._rearranged = None  # (weight, weighted rearrangement under it)
        if algebra.is_matrix:
            if step is not None or blocks is None:
                raise ValidationError("matrix algebra operators need matrix blocks")
            mats = [np.asarray(b, dtype=float) for b in blocks]
            if len(mats) != len(algebra.block_sizes):
                raise ValidationError("wrong number of blocks")
            for k, (mat, n) in enumerate(zip(mats, algebra.block_sizes)):
                if mat.shape != (n, n):
                    raise ValidationError(f"block {k} must have shape ({n}, {n})")
                if not np.isfinite(mat).all():
                    raise ValidationError(f"block {k} has non-finite entries")
            self.blocks = tuple(_frozen(m) for m in mats)
            self.step = None
        else:
            if blocks is not None or step is None:
                raise ValidationError("commutative operators need a step payload")
            if not isinstance(step, StepFunction):
                raise ValidationError("step payload must be a StepFunction")
            if step.support_end > algebra.domain_bound:
                raise ValidationError("step payload exceeds the algebra's domain bound")
            if not np.isfinite(step.values).all():
                raise ValidationError("step payload must be finite")
            self.blocks = None
            self.step = step

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, algebra):
        if algebra.is_matrix:
            return cls(algebra, blocks=[np.zeros((n, n)) for n in algebra.block_sizes])
        return cls(algebra, step=StepFunction.zero())

    @classmethod
    def identity(cls, algebra):
        if algebra.is_matrix:
            return cls(algebra, blocks=[np.eye(n) for n in algebra.block_sizes])
        return cls(algebra, step=StepFunction([0.0, algebra.domain_bound], [1.0]))

    @classmethod
    def from_diagonal(cls, algebra, entries):
        """Diagonal operator from entries flattened across the blocks."""
        if not algebra.is_matrix:
            raise ValidationError("diagonal construction needs a matrix algebra")
        flat = np.asarray(entries, dtype=float)
        if flat.ndim != 1:
            raise ValidationError("diagonal entries must be a 1-d array")
        if flat.size != algebra.total_dimension:
            raise ValidationError("wrong number of diagonal entries")
        at = np.array((0, *algebra.block_sizes)).cumsum()
        return cls(algebra, blocks=[np.diagflat(flat[i:j]) for i, j in zip(at, at[1:])])

    @classmethod
    def multiplier(cls, algebra, step):
        return cls(algebra, step=step)

    # -- structure ------------------------------------------------------------

    @property
    def is_matrix(self):
        return self.algebra.is_matrix

    def is_diagonal(self):
        if not self.is_matrix:
            return False
        return all(np.count_nonzero(b - np.diagflat(b.diagonal())) == 0 for b in self.blocks)

    def diagonal_entries(self):
        if not self.is_diagonal():
            raise ValidationError("operator is not diagonal")
        return np.concatenate([b.diagonal() for b in self.blocks])

    def _same_algebra(self, other):
        if self.algebra != other.algebra:
            raise ValidationError("operators live in different algebras")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._same_algebra(other)
        if self.is_matrix:
            return Operator(self.algebra, blocks=[a + b for a, b in zip(self.blocks, other.blocks)])
        return Operator(self.algebra, step=step_add(self.step, other.step))

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, np.integer, np.floating)):
            return NotImplemented
        c = float(scalar)
        if self.is_matrix:
            return Operator(self.algebra, blocks=[c * b for b in self.blocks])
        return Operator(self.algebra, step=self.step.scaled(c))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._same_algebra(other)
        if self.is_matrix:
            return Operator(self.algebra, blocks=[a @ b for a, b in zip(self.blocks, other.blocks)])
        return Operator(self.algebra, step=step_mul(self.step, other.step))

    @property
    def T(self):
        """Adjoint; transposition per block, identity on multipliers."""
        if self.is_matrix:
            return Operator(self.algebra, blocks=[b.T for b in self.blocks])
        return self

    # -- spectral data ----------------------------------------------------------

    def _block_svd(self):
        """Per-block ``(s, v)`` from :func:`one_sided_svd`, ``s`` descending, solved once."""
        if self._sv_cache is None:
            self._sv_cache = tuple(
                one_sided_svd(b, block_index=k) for k, b in enumerate(self.blocks)
            )
        return self._sv_cache

    def norm(self):
        """Operator norm."""
        if self.is_matrix:
            return float(max(s[0] for s, _ in self._block_svd()))
        return self.step.max_abs()

    def trace(self):
        if self.is_matrix:
            return float(sum(w * b.trace() for w, b in zip(self.algebra.trace_weights, self.blocks)))
        return integrate(self.step, LEBESGUE)

    def is_projection(self):
        if self.is_matrix:
            return all(
                np.abs(b @ b - b).max() <= _ENTRY_TOL
                and np.abs(b - b.T).max() <= _ENTRY_TOL
                for b in self.blocks
            )
        v = self.step.values
        return bool((np.minimum(np.abs(v), np.abs(v - 1.0)) <= _ENTRY_TOL).all())

    def __repr__(self):
        if self.is_matrix:
            return f"Operator({self.algebra!r}, blocks={[b.shape[0] for b in self.blocks]})"
        return f"Operator({self.algebra!r}, step={self.step!r})"


class Projection(Operator):
    """An operator validated to be an orthogonal projection."""

    __slots__ = ()

    def __init__(self, algebra, blocks=None, step=None):
        super().__init__(algebra, blocks=blocks, step=step)
        if not self.is_projection():
            raise ValidationError("payload is not an orthogonal projection")

    @classmethod
    def wrap(cls, op):
        return cls(op.algebra, blocks=op.blocks, step=op.step)

    @classmethod
    def from_support_mask(cls, algebra, mask):
        """Diagonal projection keeping the coordinates where ``mask`` is true."""
        return cls.wrap(Operator.from_diagonal(algebra, np.asarray(mask, dtype=float)))

    def complement(self):
        return Projection.wrap(Operator.identity(self.algebra) - self)


def _positive_svd(a, label):
    """Per-block ``(s, v)`` of a positive operator, ``s`` descending.

    A positive block's singular values are its eigenvalues, so the kept SVD is
    its eigendecomposition; a block symmetric only within ``1e-9 * ||a||`` is
    read through the SVD of its symmetric part.  ``d = v^T b v`` must be
    diagonal with no entry below zero, within the same tolerance: that rejects
    a negative eigenvalue, and a basis that mixes the eigenvectors of ``+l``
    and ``-l``.
    """
    sym = a
    if not all((b == b.T).all() for b in a.blocks):
        sym = Operator(a.algebra, blocks=[0.5 * (b + b.T) for b in a.blocks])
    tol = 1e-9 * sym.norm()
    for k, (b, h, (_, v)) in enumerate(zip(a.blocks, sym.blocks, sym._block_svd())):
        if np.abs(b - b.T).max() > tol:
            raise ValidationError(f"{label} must be symmetric (block {k})")
        d = v.T @ h @ v
        if np.abs(d - np.diagflat(d.diagonal())).max() > tol or d.diagonal().min() < -tol:
            raise ValidationError(f"{label} must be positive semidefinite (block {k})")
    return sym._block_svd()


def absolute(a):
    """The positive part |a| = (a^T a)^(1/2), computed per block."""
    if not a.is_matrix:
        return Operator(a.algebra, step=a.step.absolute())
    hs = [(v * s) @ v.T for s, v in a._block_svd()]
    # exactly symmetric, so one SVD of |a| serves all its spectral projections
    return Operator(a.algebra, blocks=[0.5 * (h + h.T) for h in hs])


def singular_value_function(a):
    """The singular value function of ``a`` as a decreasing step function.

    Each singular value occupies an interval whose length is the trace weight
    of its block; the intervals are laid out in decreasing value order.  For
    multipliers this is the decreasing rearrangement of |payload|: the same
    sort, of the absolute values on their piece lengths.

    Built once per operator: the result is kept on ``a`` and returned by
    every later call.
    """
    if a._svf is None:
        if a.is_matrix:
            levels = np.concatenate([s for s, _ in a._block_svd()])
            masses = a.algebra.coordinate_weights()
        else:
            levels, masses = np.abs(a.step.values), LEBESGUE.piece_masses(a.step.breakpoints)
        a._svf = _decreasing(levels, masses)
    return a._svf


def spectral_projection(a, threshold):
    """Spectral projection of a positive operator onto (threshold, oo).

    Eigenvalues of a block of size ``n`` within ``8 n eps ||a||`` of each
    other, the solver's own error, are clustered and kept or dropped together:
    the computed copies of a repeated eigenvalue split by at most
    ``2.3 n eps ||a||`` on 2700 random rotated blocks of size 2 to 64.  So a
    tie at the threshold cannot split an eigenspace, and every wider gap is
    resolved.
    """
    if not threshold >= 0:
        raise ValidationError("threshold must be >= 0")
    if not a.is_matrix:
        if (a.step.values < 0).any():
            raise ValidationError("spectral projection needs a positive multiplier")
        indicator = a.step.map_values(lambda u: np.where(np.asarray(u) > threshold, 1.0, 0.0))
        return Projection(a.algebra, step=indicator)
    svd = _positive_svd(a, "spectral projection argument")
    top = max(s[0] for s, _ in svd)
    blocks = []
    for s, v in svd:
        width = 8 * s.size * _EPS * top
        k = int((s > threshold).sum())  # s is descending: the eigenvalues kept
        while 0 < k < s.size and s[k - 1] - s[k] <= width:  # and the rest of their cluster
            k += 1
        blocks.append(v[:, :k] @ v[:, :k].T)
    return Projection(a.algebra, blocks=blocks)


def apply_function(psi, a):
    """Functional calculus: apply a non-decreasing ``psi`` with ``psi(0) = 0``
    to a positive operator, eigenvalue by eigenvalue.

    Raises :class:`InfiniteValueError` when ``psi`` is infinite somewhere on
    the spectrum; callers read that as failed space membership.
    """
    if a.is_matrix:
        svd = _positive_svd(a, "functional calculus argument")
        spectra = [s for s, _ in svd]
    elif (a.step.values < 0).any():
        raise ValidationError("functional calculus needs a positive multiplier")
    else:
        spectra = [a.step.values]
    mapped = [np.asarray(psi(s), dtype=float) for s in spectra]
    if any(np.isinf(m).any() for m in mapped):
        raise InfiniteValueError("function is infinite on the spectrum")
    if not a.is_matrix:
        return Operator(a.algebra, step=StepFunction._raw(a.step.breakpoints, mapped[0]))
    hs = [(v * m) @ v.T for m, (_, v) in zip(mapped, svd)]
    # exactly symmetric: the image's SVD is kept
    return Operator(a.algebra, blocks=[0.5 * (h + h.T) for h in hs])


def partial_isometry_conjugates(v):
    """Source and range projections (v^T v, v v^T) of a partial isometry."""
    source = v.T @ v
    if not source.is_projection():
        raise ValidationError("operator is not a partial isometry: v^T v is not a projection")
    return Projection.wrap(source), Projection.wrap(v @ v.T)
