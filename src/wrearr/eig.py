"""Jacobi singular value decomposition for small dense real matrices.

One solver, the one-sided (Hestenes) iteration.  It works on the matrix
itself rather than on ``a.T @ a``, which keeps tiny and zero singular values
accurate to machine precision instead of ``sqrt(eps)``.  It converges
quadratically and is comfortable at the block sizes this package allows
(n <= 64).  For a positive matrix the singular values are the eigenvalues,
so the same solve also serves spectral projections and the functional
calculus (see :mod:`wrearr.algebra`).

It first divides the matrix by the power of two that brings its largest
entry into [1/2, 1), and it skips a pair of columns (p, q) whose inner
product is small relative to the geometric mean of their squared norms
(Demmel & Veselic 1992).  The scaling is exact and the test is relative, so
the result for ``2^k a`` is the result for ``a`` times ``2^k`` while no entry
is subnormal.  The relative threshold is ``OFF_DIAGONAL_TOL`` and the sweep
cap ``MAX_SWEEPS``.

Each sweep visits the columns in de Rijk's order, by decreasing squared norm
at the start of the sweep (de Rijk 1989; LAPACK's ``xGESVJ``, Drmac &
Veselic 2008), which needs fewer sweeps and rotations than the cyclic order.
A pair whose two columns were not rotated since it last passed the test is
skipped, since it would pass again on the same floats.  A 1x1 block is its
own absolute value.

Row k of the work array ``[b^T | I]`` holds column k of ``b`` and then of
``v``.  The solve builds these rows, the list of nonzero columns and the
output order in Python lists, from one ``tolist()`` of the prescaled block,
and makes numpy arrays only for the final norms and the result: each numpy
call costs about a microsecond, which is most of a 2x2 solve.  The rows'
squared norms are computed once per solve and then kept up to date from each
rotation (LAPACK's norm update), so a pair costs one inner product of its two
rows and one rotation of them.  A pair's two norms are computed again from
their rows when the pair took the rescaled path below, and when the update
cancels.  The kept norms steer only the order and the stopping test; the
singular values come from the final rows.  Two kernels do the inner product
and the rotation and share everything else; both keep a list of rows, and both
hand the sweep Python floats, so the stopping test, the norm update and the
rotation are plain float arithmetic.  A block of size at most
``PYTHON_FLOAT_CUTOFF`` keeps each row as a list of Python floats and uses
plain sums and list comprehensions, because on so few entries a numpy call
per pair costs more than its arithmetic.  A larger block keeps each row as a
1-D array, one dot product (a ``float64``, so its ``float`` is exact) and two
scaled sums of rows per pair, whose fixed cost per call the growing rows
amortize.  The cutoff is where the two kernels' per-call times crossed while
the numpy kernel still returned ``float64`` scalars; the crossover is now
lower, but the two kernels round their inner products in different orders, so
moving the cutoff would change the results of the blocks in between.  A pair
with a squared norm below ``_TINY``, and the final norms, use the rows divided
by their own powers of two; a column that is all subnormal raises
:class:`EigenSolverError`, and a largest singular value beyond the float range
raises :class:`NormOverflowError`.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from .errors import EigenSolverError, NormOverflowError

OFF_DIAGONAL_TOL = 1e-12
MAX_SWEEPS = 100
_TINY = float(np.finfo(float).tiny / np.finfo(float).eps)
PYTHON_FLOAT_CUTOFF = 15  # largest block that sweeps on Python floats


def _prescaled(matrix, block_index):
    """``(cols, e)`` with ``matrix = 2^e m``, the largest entry of ``m`` in [1/2, 1)
    and ``cols`` the columns of ``m`` as lists of Python floats."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigenSolverError(block_index, "matrix must be square")
    top = float(np.abs(a).max(initial=0.0))  # inf or nan if any entry is
    if not math.isfinite(top):
        raise EigenSolverError(block_index, "matrix has non-finite entries")
    e = math.frexp(top)[1]
    return np.ldexp(a.T, -e).tolist(), e


def _scaled_gram(rows):
    """``(g, r)``: the Gram matrix of ``rows / 2^r``, each row's largest entry in [1/2, 1)."""
    r = np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1]
    x = np.ldexp(rows, -r[:, None])
    return x @ x.T, r


def _rotation(app, aqq, apq, d):
    """``(c, t)``, the cosine and tangent of the rotation that annihilates
    ``apq`` between ``app`` and ``aqq``, the Gram entries of rows p and q after
    they were divided by ``2^(r + d)`` and ``2^r``; found without forming ``4^d``."""
    k = abs(d)
    zeta = (math.ldexp(aqq, -d - k) - math.ldexp(app, d - k)) / (2.0 * apq)
    t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(math.ldexp(1.0, -k), zeta))
    t = math.ldexp(t, -k) if zeta != 0 else 1.0
    return 1.0 / math.hypot(1.0, t), t


def _unconverged(block_index, sweeps, g):
    """The error for a block whose Gram matrix ``g`` is still off-diagonal,
    carrying the largest ``|g_pq| / sqrt(|g_pp g_qq|)``, the stopping rule's measure."""
    d = np.sqrt(np.abs(np.diag(g)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(g - np.diag(np.diag(g))) / np.outer(d, d)
    off = float(np.nanmax(ratio, initial=0.0))
    return EigenSolverError(block_index, "not converged", sweeps=sweeps, off_diagonal=off)


def _array_pair(w, p, q, n):
    """The numpy row kernel: rows p and q of a list of 1-D arrays and their
    inner product, a Python float."""
    x, y = w[p], w[q]
    return x, y, float(x[:n].dot(y[:n]))


def _array_rotate(w, p, q, x, y, c, s):
    """Replaces rows p and q of ``w`` with the rotated pair."""
    w[p] = c * x - s * y
    w[q] = s * x + c * y


def _array_square_norms(w, n):
    """The squared norms of the first ``n`` entries of the rows of ``w``, Python floats."""
    return [float(x.dot(x)) for x in (r[:n] for r in w)]


def _list_pair(w, p, q, n):
    """The Python-float kernel: rows p and q of a list of lists and their inner
    product, over the first ``n`` entries (``map`` stops at the shorter one)."""
    x, y = w[p], w[q]
    return x, y, sum(map(mul, x[:n], y))


def _list_rotate(w, p, q, x, y, c, s):
    """Replaces rows p and q of ``w`` with the rotated pair."""
    w[p] = [c * xi - s * yi for xi, yi in zip(x, y)]
    w[q] = [s * xi + c * yi for xi, yi in zip(x, y)]


def _list_square_norms(w, n):
    """The squared norms of the first ``n`` entries of the rows of ``w``."""
    return [sum(map(mul, x, x)) for x in (r[:n] for r in w)]


def _sweep(w, n, live, block_index, pair, rotate, square_norms):
    """Sweeps over the ``live`` rows of ``w`` until every pair passes the
    relative test, each pair's rows and inner product from ``pair``, its
    rotation from ``rotate``, and the rows' squared norms from ``square_norms``.

    The squared norms are computed once and then kept: a rotation by tangent
    ``t`` takes ``alpha`` to ``alpha - t gamma`` and ``beta`` to
    ``beta + t gamma``.  Both are computed again from their rows after a pair
    that took the rescaled path, whose Gram entries are in rescaled units, and
    when either updated value fell below a quarter of its old one, where the
    update cancels.  Each sweep takes the rows by decreasing kept squared norm,
    ties in index order (de Rijk's order).  A pair neither of whose rows was
    rotated since it last passed would recompute the same floats and pass
    again, so it is skipped: ``rotated_at[k]`` is the rotation count just after
    row k's last rotation, and ``passed_at[p * n + q]`` the count when pair
    (p, q) last passed.
    """
    norms = square_norms(w, n)
    rotations = 0
    rotated_at = [0] * n
    passed_at = [-1] * (n * n)
    for _ in range(MAX_SWEEPS):
        before = rotations
        order = sorted(live, key=norms.__getitem__, reverse=True)
        for i, p in enumerate(order):
            row = p * n
            for q in order[i + 1:]:
                last = passed_at[row + q]
                if last >= rotated_at[p] and last >= rotated_at[q]:
                    continue
                x, y, gamma = pair(w, p, q, n)
                alpha, beta = norms[p], norms[q]
                d = 0
                rescaled = alpha < _TINY or beta < _TINY
                if rescaled:
                    g, (rp, rq) = _scaled_gram(np.array((x, y))[:, :n])
                    if min(rp, rq) <= np.finfo(float).minexp:
                        raise EigenSolverError(block_index, "a column is all subnormal after scaling")
                    (alpha, gamma), (_, beta) = g.tolist()
                    d = int(rp - rq)
                if gamma == 0.0 or abs(gamma) <= OFF_DIAGONAL_TOL * math.sqrt(alpha) * math.sqrt(beta):
                    passed_at[row + q] = passed_at[q * n + p] = rotations
                    continue
                c, t = _rotation(alpha, beta, gamma, d)
                rotate(w, p, q, x, y, c, t * c)
                rotations += 1
                rotated_at[p] = rotated_at[q] = rotations
                a, b = alpha - t * gamma, beta + t * gamma
                if rescaled or 4.0 * a < alpha or 4.0 * b < beta:
                    a, b = square_norms((w[p], w[q]), n)
                norms[p], norms[q] = a, b
        if rotations == before:
            return
    raise _unconverged(block_index, MAX_SWEEPS, _scaled_gram(np.asarray(w)[:, :n])[0])


def one_sided_svd(matrix, block_index=0):
    """Singular values and right singular vectors by one-sided Jacobi sweeps.

    Rotates pairs of columns of ``matrix`` until they are mutually orthogonal
    relative to ``OFF_DIAGONAL_TOL``, within ``MAX_SWEEPS`` sweeps; the column
    norms are then the singular values and the accumulated rotations the right
    singular vectors.  Returns ``(s, v)`` with ``s`` descending and
    ``matrix.T @ matrix = v @ diag(s**2) @ v.T``.  Raises
    :class:`NormOverflowError` when ``s[0]``, the block's operator norm, is
    beyond the float range although every entry is finite.
    """
    cols, e = _prescaled(matrix, block_index)
    n = len(cols)
    if n < 2:  # |a| and 1, bit for bit what the final norms below would give
        return np.array([math.ldexp(abs(c[0]), e) for c in cols]), np.ones((n, n))
    rows = [c + u for c, u in zip(cols, np.eye(n).tolist())]  # [b^T | I]
    live = [k for k, c in enumerate(cols) if any(c)]  # a zero column never rotates
    if len(live) > 1:  # one live column has no pair to test, nor rows to convert
        if n <= PYTHON_FLOAT_CUTOFF:
            kernel = (_list_pair, _list_rotate, _list_square_norms)
        else:
            rows, kernel = list(np.array(rows)), (_array_pair, _array_rotate, _array_square_norms)
        _sweep(rows, n, live, block_index, *kernel)
    g, r = _scaled_gram(np.array([row[:n] for row in rows]))
    try:
        sv = [math.ldexp(math.sqrt(x), e + k) for x, k in zip(g.diagonal().tolist(), r.tolist())]
    except OverflowError:
        raise NormOverflowError(f"block {block_index}: the operator norm exceeds the float range") from None
    order = sorted(range(n), key=sv.__getitem__, reverse=True)
    return np.array([sv[k] for k in order]), np.array([rows[k][n:] for k in order]).T
