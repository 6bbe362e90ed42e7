"""Cyclic Jacobi singular value decomposition for small dense real matrices.

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

Row k of the work array ``[b^T | I]`` holds column k of ``b`` and then of
``v``, so a pair is one gather, one 2x2 Gram matrix and one 2x2 rotation.  A
pair with a squared norm below ``_TINY``, and the final norms, use the rows
divided by their own powers of two; a column that is all subnormal raises.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenSolverError

OFF_DIAGONAL_TOL = 1e-12
MAX_SWEEPS = 100
_TINY = np.finfo(float).tiny / np.finfo(float).eps


def _prescaled(matrix, block_index):
    """``(m, e)`` with ``matrix = 2^e m`` and the largest entry of ``m`` in [1/2, 1)."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigenSolverError(block_index, "matrix must be square")
    if not np.all(np.isfinite(a)):
        raise EigenSolverError(block_index, "matrix has non-finite entries")
    e = int(np.frexp(np.max(np.abs(a), initial=0.0))[1])
    return np.ldexp(a, -e), e


def _scaled_gram(rows):
    """``(g, r)``: the Gram matrix of ``rows / 2^r``, each row's largest entry in [1/2, 1)."""
    r = np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1]
    x = np.ldexp(rows, -r[:, None])
    return x @ x.T, r


def _rotation(app, aqq, apq, d):
    """``(c, s)`` of the rotation that annihilates ``apq`` between ``app`` and
    ``aqq``, the Gram entries of rows p and q after they were divided by
    ``2^(r + d)`` and ``2^r``; found without forming ``4^d``."""
    k = abs(d)
    zeta = (math.ldexp(aqq, -d - k) - math.ldexp(app, d - k)) / (2.0 * apq)
    t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(math.ldexp(1.0, -k), zeta))
    t = math.ldexp(t, -k) if zeta != 0 else 1.0
    c = 1.0 / math.hypot(1.0, t)
    return c, t * c


def _unconverged(block_index, sweeps, g):
    """The error for a block whose Gram matrix ``g`` is still off-diagonal,
    carrying the largest ``|g_pq| / sqrt(|g_pp g_qq|)``, the stopping rule's measure."""
    d = np.sqrt(np.abs(np.diag(g)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(g - np.diag(np.diag(g))) / np.outer(d, d)
    off = float(np.nanmax(ratio, initial=0.0))
    return EigenSolverError(block_index, "not converged", sweeps=sweeps, off_diagonal=off)


def one_sided_svd(matrix, block_index=0):
    """Singular values and right singular vectors by one-sided Jacobi sweeps.

    Rotates pairs of columns of ``matrix`` until they are mutually orthogonal
    relative to ``OFF_DIAGONAL_TOL``, within ``MAX_SWEEPS`` sweeps; the column
    norms are then the singular values and the accumulated rotations the right
    singular vectors.  Returns ``(s, v)`` with ``s`` descending and
    ``matrix.T @ matrix = v @ diag(s**2) @ v.T``.
    """
    b, e = _prescaled(matrix, block_index)
    n = b.shape[0]
    w = np.concatenate((b.T, np.eye(n)), axis=1)
    live = np.flatnonzero(b.any(axis=0)).tolist()  # a zero column never rotates
    for _ in range(MAX_SWEEPS):
        rotated = False
        for i, p in enumerate(live):
            for q in live[i + 1:]:
                rows = w[[p, q]]
                (alpha, gamma), (_, beta) = (rows[:, :n] @ rows[:, :n].T).tolist()
                d = 0
                if alpha < _TINY or beta < _TINY:
                    g, (rp, rq) = _scaled_gram(rows[:, :n])
                    if min(rp, rq) <= np.finfo(float).minexp:
                        raise EigenSolverError(block_index, "a column is all subnormal after scaling")
                    (alpha, gamma), (_, beta) = g.tolist()
                    d = int(rp - rq)
                if gamma == 0.0 or abs(gamma) <= OFF_DIAGONAL_TOL * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                c, s = _rotation(alpha, beta, gamma, d)
                w[[p, q]] = np.array([[c, -s], [s, c]]) @ rows
                rotated = True
        if not rotated:
            break
    else:
        raise _unconverged(block_index, MAX_SWEEPS, _scaled_gram(w[:, :n])[0])
    g, r = _scaled_gram(w[:, :n])
    sv = np.ldexp(np.sqrt(g.diagonal()), e + r)
    order = np.argsort(-sv, kind="stable")
    return sv[order], w[order, n:].T
