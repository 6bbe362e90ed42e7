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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenSolverError

OFF_DIAGONAL_TOL = 1e-12
MAX_SWEEPS = 100


def _prescaled(matrix, block_index):
    """``(m, e)`` with ``matrix = 2^e m`` and the largest entry of ``m`` in [1/2, 1)."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigenSolverError(block_index, "matrix must be square")
    if not np.all(np.isfinite(a)):
        raise EigenSolverError(block_index, "matrix has non-finite entries")
    e = int(np.frexp(np.max(np.abs(a), initial=0.0))[1])
    return np.ldexp(a, -e), e


def _rotation(app, aqq, apq):
    """``(c, s)`` of the rotation that annihilates ``apq`` between ``app`` and ``aqq``."""
    zeta = (aqq - app) / (2.0 * apq)
    t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta)) if zeta != 0 else 1.0
    c = 1.0 / math.hypot(1.0, t)
    return c, t * c


def _rotate(m, p, q, c, s):
    """Replace columns p and q of ``m`` by ``c m_p - s m_q`` and ``s m_p + c m_q``."""
    col_p = m[:, p].copy()
    m[:, p] = c * col_p - s * m[:, q]
    m[:, q] = s * col_p + c * m[:, q]


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
    v = np.eye(n)
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                gamma = float(b[:, p] @ b[:, q])
                if gamma == 0.0:
                    continue
                alpha = float(b[:, p] @ b[:, p])
                beta = float(b[:, q] @ b[:, q])
                if abs(gamma) <= OFF_DIAGONAL_TOL * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                c, s = _rotation(alpha, beta, gamma)
                _rotate(b, p, q, c, s)
                _rotate(v, p, q, c, s)
                rotated = True
        if not rotated:
            break
    else:
        raise _unconverged(block_index, MAX_SWEEPS, b.T @ b)
    sv = np.ldexp(np.linalg.norm(b, axis=0), e)
    order = np.argsort(-sv, kind="stable")
    return sv[order], v[:, order]
