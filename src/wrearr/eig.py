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
product is at most ``sqrt(n) eps`` times the geometric mean of their squared
norms, where LAPACK's ``xGESVJ`` stops (Demmel & Veselic 1992; Drmac &
Veselic 2008).  ``_off_diagonal_tol(n)`` gives that threshold and
``MAX_SWEEPS`` caps the sweeps.  The scaling is exact and the test is
relative, so the result for ``2^k a`` is the result for ``a`` times ``2^k``
while no entry is subnormal.  Jacobi keeps its relative accuracy under any
order of the pairs, so the two kernels below may order them differently.

Row k of the work array ``[b^T | I]`` holds column k of ``b`` and then of
``v``.  A block of size at most ``PYTHON_FLOAT_CUTOFF`` keeps each row as a
list of Python floats, built from one ``tolist()`` of the prescaled block,
and ``_sweep`` rotates one pair at a time with plain sums and list
comprehensions: on so few entries a numpy call per pair costs more than its
arithmetic.  Each of its sweeps takes the pairs in cyclic order, (p, q) with
p < q in index order.  Its squared norms are computed once per solve and
then kept up to date from each rotation (LAPACK's norm update).

A block of size 3 to ``PYTHON_FLOAT_CUTOFF`` is preconditioned where that
keeps the accuracy (Drmac & Veselic 2008): LAPACK's SVD of the prescaled
block gives right singular vectors ``V0``, and the sweeps start from the rows
``[C^T | V0^T]`` of ``C = b V0``, whose columns are already nearly
orthogonal.  The rows then end as ``[(C W)^T | (V0 W)^T]``, so ``v = V0 W``,
and the singular values are still the column norms Jacobi stops on; any
orthogonal ``V0`` gives the same ones, so ``V0`` is kept only when every
entry of ``V0^T V0 - I`` is at most ``4 n eps``.  Forming ``C`` in floats costs
about ``n eps sigma_1`` absolute, ``n eps kappa(b)`` relative.  Jacobi on
``b = B D``, ``D`` the column norms, is accurate to about ``eps kappa(B)``
relative (Demmel & Veselic 1992), and ``kappa(b) <= kappa(D) kappa(B)``.  So
the start may cost up to ``n kappa(D)`` against plain Jacobi's bound, and a
block takes it only when LAPACK converges and either ``sigma_n`` is at least
``PRECONDITION_RATIO`` (2^-10) times ``sigma_1``, or the column norms lie
within ``1 / PRECONDITION_RATIO`` of each other and ``sigma_n`` is at least
``n eps / PRECONDITION_RATIO`` times ``sigma_1``.  The ratio alone implies
both, since every column norm lies between ``sigma_n`` and ``sigma_1``; the
second keeps each column of ``C`` at least 2^10 above its rounding.  Graded
blocks (columns spread wider), rank-deficient, all-ones and projection
blocks (``sigma_n`` at rounding level), and a block with a zero column start
from ``[b^T | I]``.  LAPACK sees the prescaled block, so ``2^k a`` still
gives the bits of ``a``.  On standard normal blocks and their Gram matrices
a solve takes 0.3-0.4x the pair tests and 0.04-0.11x the rotations it takes
from ``[b^T | I]``, and 0.85-0.93x the time at n = 3, 0.6x at 4, 0.3-0.4x
at 5 and 6 and 0.13-0.25x at 8 to 13 (alternating rounds in one process,
Python 3.11, numpy 2.4, OpenBLAS 0.3.31).  A 2x2 block takes one rotation,
which LAPACK would only make dearer.

A larger block keeps the rows as one ``n x 2n`` array, and ``_batch_sweep``
takes the pairs in the round-robin order of Brent & Luk (1985): each of the
``n - 1`` steps of a sweep (``n`` for odd ``n``) holds up to ``n / 2``
disjoint pairs.  A step gathers both rows of every pair with one ``take``,
tests the pairs with the squared norms and inner products of the gathered
rows (two ``einsum`` calls), rotates those that fail with one stacked 2x2
``matmul`` and writes them back with one scatter.  No squared norm is kept
from one step to the next: kept by the update alone, they lose their digits
and go negative on the blocks of size 64 and the cancelling columns of the
tests.  On blocks started from ``[b^T | I]`` the batched kernel takes, per
solve on standard normal blocks, 1.27x the list kernel's time at n = 11,
0.9-1.0x at 12, 0.83-0.95x at 13, about 0.8x at 14 and 15, 0.5x at 20,
0.36x at 24 and 0.24x at 32 (alternating rounds in one process, Python
3.11, numpy 2.4); the cutoff stays at 13, where most blocks take the list
kernel's preconditioned path.  A sweep that rotates nothing ends either
kernel.

A rotated column whose squared norm is at most ``_off_diagonal_tol(n)**2``
times the smaller of its pair's old ones is that rotation's rounding error,
and is set to zero; the batched kernel takes those squared norms from the
rotated rows its step already holds.  Otherwise, when every column is a
multiple of one constant vector, such a column stays exactly parallel to the
others, fails the test again, and rotated on down it became subnormal and
raised an error.  A zeroed row leaves either kernel at once and is not tested
again.

A pair with a squared norm below ``_TINY`` is tested and rotated by the
batched kernel only, from its rows divided by their own powers of two.  It
does so for a whole step, only when the step's smallest squared norm is below
``_TINY``, and exempts such pairs from the zeroing rule.  The list kernel
stops at the first such pair it would test, and the batched kernel finishes
the block from its current rows, whatever its size, within the sweeps left
of ``MAX_SWEEPS``, the one it stopped in counted: Jacobi's accuracy does not
depend on the order of the pairs.  A zeroed row, with its squared norm
of 0, never hands a block over, since it is not tested again.  The final
norms, one sum per row, divide a row the same way when its squared norm is
below ``_TINY``; a column that is all subnormal raises
:class:`EigenSolverError`, and a largest singular value beyond the float
range raises :class:`NormOverflowError`.  A 1x1 block is its own absolute
value.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import mul

import numpy as np

from .errors import EigenSolverError, NormOverflowError

MAX_SWEEPS = 100
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny) / _EPS
PYTHON_FLOAT_CUTOFF = 13  # largest block that sweeps on Python floats
# the preconditioned start may cost n / PRECONDITION_RATIO against plain
# Jacobi's error bound, and no more: 1 / PRECONDITION_RATIO is the widest
# spread of the column norms it allows
PRECONDITION_RATIO = 2.0**-10


def _off_diagonal_tol(n):
    """The relative threshold for a block of size ``n``: ``sqrt(n) eps``, as in LAPACK's ``xGESVJ``."""
    return math.sqrt(n) * _EPS


def _prescaled(matrix, block_index):
    """``(bt, e)`` with ``matrix = 2^e b``, the largest entry of ``b`` in [1/2, 1)
    and ``bt`` the array ``b^T``."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigenSolverError(block_index, "matrix must be square")
    top = float(np.abs(a).max(initial=0.0))  # inf or nan if any entry is
    if not math.isfinite(top):
        raise EigenSolverError(block_index, "matrix has non-finite entries")
    e = math.frexp(top)[1]
    return np.ldexp(a.T, -e), e


def _preconditioner(bt):
    """``V0^T``, LAPACK's right singular vectors of ``b = bt^T`` as rows, when
    every entry of ``V0^T V0 - I`` is at most ``4 n eps`` and either
    ``sigma_n >= PRECONDITION_RATIO sigma_1`` or the column norms of ``b`` lie
    within ``1 / PRECONDITION_RATIO`` of each other and
    ``sigma_n >= n eps sigma_1 / PRECONDITION_RATIO``; None otherwise, and when
    LAPACK does not converge.  The first test implies the other two, which
    run only when it fails."""
    try:
        _, s, vt = np.linalg.svd(bt.T)
    except np.linalg.LinAlgError:
        return None
    if s[-1] < PRECONDITION_RATIO * s[0]:
        if s[-1] < len(s) * _EPS / PRECONDITION_RATIO * s[0]:
            return None
        norms = (bt * bt).sum(axis=1)
        if norms.min() < PRECONDITION_RATIO**2 * norms.max():
            return None
    g = vt @ vt.T
    g.flat[::len(g) + 1] -= 1.0
    return vt if np.abs(g).max() <= 4 * len(g) * _EPS else None


def _rotation(app, aqq, apq):
    """``(c, t)``, the cosine and tangent of the rotation that annihilates
    ``apq`` between ``app`` and ``aqq``, the Gram entries of rows p and q."""
    zeta = (aqq - app) / (2.0 * apq) + 0.0  # -0.0 to 0.0, so t = 1 where it is 0
    t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
    return 1.0 / math.hypot(1.0, t), t


def _unconverged(block_index, rows):
    """The error for a block whose ``rows`` are still not orthogonal after
    ``MAX_SWEEPS`` sweeps, carrying the largest ``|g_pq| / sqrt(g_pp g_qq)``,
    the stopping rule's measure, over the Gram matrix ``g`` of the rows each
    divided by the power of two that brings its largest entry into [1/2, 1)."""
    r = np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1]
    x = np.ldexp(rows, -r[:, None])
    g = x @ x.T
    d = np.sqrt(g.diagonal())
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(g - np.diagflat(g.diagonal())) / np.outer(d, d)
    off = float(np.nanmax(ratio, initial=0.0))
    return EigenSolverError(block_index, "not converged", sweeps=MAX_SWEEPS, off_diagonal=off)


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


def _sweep(w, n, live, block_index, tol):
    """Sweeps over the ``live`` rows of ``w``, a list of lists of Python
    floats, until every pair passes the relative test ``tol``, and returns
    None; returns instead the number of sweeps it began, the one it stops in
    too, at the first pair it would test that has a squared norm below
    ``_TINY``, leaving the rows and the rest of ``MAX_SWEEPS`` to
    ``_batch_sweep``.

    Each sweep takes the pairs of ``live`` rows in cyclic order, (p, q) with
    p < q in index order.  The squared norms are computed once and then kept:
    a rotation by tangent ``t`` takes ``alpha`` to ``alpha - t gamma`` and
    ``beta`` to ``beta + t gamma``.  Both are computed again from their rows
    when either updated value fell below a quarter of its old one, where the
    update cancels; a row whose recomputed squared norm is then at most
    ``tol^2`` times the smaller of the pair's old ones is set to zero, leaves
    ``live`` and ends the sweep, so that the next one does not test it.
    """
    sqrt = math.sqrt
    norms = _list_square_norms(w, n)
    for sweep in range(1, MAX_SWEEPS + 1):
        rotated = False
        for p, q in combinations(live, 2):
            alpha, beta = norms[p], norms[q]
            if alpha < _TINY or beta < _TINY:
                return sweep
            x, y, gamma = _list_pair(w, p, q, n)
            if gamma == 0.0 or abs(gamma) <= tol * sqrt(alpha) * sqrt(beta):
                continue
            c, t = _rotation(alpha, beta, gamma)
            _list_rotate(w, p, q, x, y, c, t * c)
            rotated = True
            a, b = alpha - t * gamma, beta + t * gamma
            if 4.0 * a < alpha or 4.0 * b < beta:
                a, b = _list_square_norms((w[p], w[q]), n)
            norms[p], norms[q] = a, b
            if min(a, b) <= tol * tol * min(alpha, beta):  # an update alone keeps a quarter of each
                k = p if a <= b else q
                w[k][:n] = [0.0] * n
                live.remove(k)
                break
        if not rotated:
            return None
    raise _unconverged(block_index, np.asarray(w)[:, :n])


def _round_robin(n):
    """One sweep of the round-robin order on ``0..n-1`` (Brent & Luk 1985):
    an integer array with one row per step, the first rows of the step's
    disjoint pairs and then their second rows, every pair in exactly one step.
    Players sit on ``m = n + n % 2`` seats; seat 0 stays, the others turn one
    place a step, and seat ``i`` meets seat ``m - 1 - i``.  For odd ``n`` each
    step leaves out its pair with the dummy player ``n``."""
    m = n + n % 2
    turn = np.arange(m - 1)
    seats = np.zeros((m - 1, m), dtype=np.intp)
    seats[:, 1:] = (turn - turn[:, None]) % (m - 1) + 1
    p, q = seats[:, :m // 2], seats[:, :m // 2 - 1:-1]
    real = (p != n) & (q != n)
    p, q = p[real].reshape(m - 1, -1), q[real].reshape(m - 1, -1)
    return np.concatenate((np.minimum(p, q), np.maximum(p, q)), axis=1)


def _live_steps(alive):
    """The steps of ``_round_robin`` without the pairs that hold a row that is
    not ``alive``, each an ``(m, 2)`` array with one pair per row, empty where
    no pair is left, so that a step keeps its place in the list."""
    steps = _round_robin(alive.size)
    pairs = steps.reshape(len(steps), 2, -1).transpose(0, 2, 1)
    return [pq[k] for pq, k in zip(pairs, alive[pairs].all(axis=2))]


def _batch_pairs(w, pairs, n):
    """The batched kernel: the rows of ``w`` of an ``(m, 2)`` array of
    disjoint ``pairs``, stacked as an ``(m, 2, 2n)`` array, with their squared
    norms, a ``(2, m)`` array, and their inner products, over the first ``n``
    entries."""
    x = w.take(pairs, axis=0)
    b = x[:, :, :n]
    return x, np.einsum("ijk,ijk->ji", b, b), np.einsum("ij,ij->i", b[:, 0], b[:, 1])


def _batch_rotate(w, pairs, x, c, s):
    """Replaces the stacked rows ``x`` of ``pairs`` in ``w`` with the rotated
    pairs, by one stacked 2x2 product, and returns them; ``c`` and ``s`` hold
    one entry per pair."""
    r = np.empty((len(c), 4))
    r[:, 0] = r[:, 3] = c
    r[:, 2] = s
    np.negative(s, out=r[:, 1])
    x = r.reshape(-1, 2, 2) @ x
    w[pairs] = x
    return x


def _rotations(alpha, beta, gamma, two=2.0):
    """``_rotation`` over arrays of pairs, none with ``gamma == 0``, with
    ``two`` 2.  On the rescaled path, where rows p and q were divided by
    ``2^(r + d)`` and ``2^r``, ``alpha`` and ``beta`` are already multiplied by
    ``2^(d - k)`` and ``2^(-d - k)`` and ``two`` is ``2^(1 - k)``, where
    ``k = |d|``; so ``4^d`` is never formed."""
    zeta = (beta - alpha) / gamma + 0.0  # twice _rotation's zeta; -0.0 to 0.0, so t = 1 where it is 0
    t = two / (zeta + np.copysign(np.hypot(two, zeta), zeta))
    return 1.0 / np.hypot(1.0, t), t


def _rescaled_pairs(b, tol, block_index):
    """``(hot, alpha, beta, gamma, two)``: the stacked pairs ``b`` that fail
    the relative test ``tol`` once each row is divided by its own power of two,
    and ``_rotations``' arguments on the rescaled path, ``two`` for the pairs
    that fail only."""
    r = np.frexp(np.abs(b).max(axis=2))[1]
    if r.min() <= np.finfo(float).minexp:
        raise EigenSolverError(block_index, "a column is all subnormal after scaling")
    b = np.ldexp(b, -r[:, :, None])
    (alpha, beta), gamma = np.einsum("ijk,ijk->ji", b, b), np.einsum("ij,ij->i", b[:, 0], b[:, 1])
    hot = np.abs(gamma) > tol * np.sqrt(alpha) * np.sqrt(beta)
    d = r[:, 0] - r[:, 1]
    k = np.abs(d)
    return hot, np.ldexp(alpha, d - k), np.ldexp(beta, -d - k), gamma, np.ldexp(2.0, -k[hot])


def _batch_sweep(w, n, live, block_index, tol, spent):
    """Sweeps over the ``live`` rows of the array ``w`` in round-robin steps
    until every pair passes the relative test ``tol``, within the
    ``MAX_SWEEPS - spent`` sweeps that ``_sweep`` left.

    Each step gathers its pairs' rows at once, tests them with the squared
    norms and inner products of the gathered rows, and rotates those that fail
    together.  A rotated row whose squared norm is then at most ``tol^2`` times
    the smaller of its pair's old ones is set to zero and leaves the steps at
    once, the rest of this sweep's too.  A step whose smallest squared norm is
    below ``_TINY`` tests and rotates its pairs from their rows divided by
    their own powers of two, and its pairs with a squared norm below ``_TINY``
    skip the zeroing rule.
    """
    alive = np.zeros(n, dtype=bool)
    alive[live] = True
    steps = _live_steps(alive)
    for _ in range(spent, MAX_SWEEPS):
        rotated = False
        for pairs in steps:
            if not len(pairs):
                continue
            x, (alpha, beta), gamma = _batch_pairs(w, pairs, n)
            low = np.minimum(alpha, beta)
            two = 2.0
            if low.min() < _TINY:
                hot, alpha, beta, gamma, two = _rescaled_pairs(x[:, :, :n], tol, block_index)
                low[low < _TINY] = -1.0  # a rescaled pair skips the zeroing rule
            else:
                hot = np.abs(gamma) > tol * np.sqrt(alpha) * np.sqrt(beta)
            k = hot.nonzero()[0]
            if not k.size:
                continue
            if k.size < len(pairs):
                pairs, x, alpha, beta, gamma, low = (v[k] for v in (pairs, x, alpha, beta, gamma, low))
            c, t = _rotations(alpha, beta, gamma, two)
            r = _batch_rotate(w, pairs, x, c, t * c)[:, :, :n]
            noise = np.einsum("ijk,ijk->ij", r, r) <= tol * tol * low[:, None]
            if noise.any():  # the rotation's rounding error: zero within it
                w[pairs[noise], :n] = 0.0
                alive[pairs[noise]] = False
                steps[:] = _live_steps(alive)  # in place: the steps still to come drop the row too
            rotated = True
        if not rotated:
            return
    raise _unconverged(block_index, w[:, :n])


def _singular_values(rows, norms, n, e, block_index):
    """``2^e`` times the square roots of the rows' squared norms ``norms``; a
    row whose squared norm is below ``_TINY`` is divided by its own power of two
    first, so that its squared entries do not underflow."""
    sv = []
    for row, s in zip(rows, norms):
        r = 0
        if s < _TINY:
            x = row[:n]
            r = math.frexp(max(map(abs, x)))[1]
            s = sum(math.ldexp(xi, -r) ** 2 for xi in x)
        try:
            sv.append(math.ldexp(math.sqrt(s), e + r))
        except OverflowError:
            raise NormOverflowError(f"block {block_index}: the operator norm exceeds the float range") from None
    return sv


def one_sided_svd(matrix, block_index=0):
    """Singular values and right singular vectors by one-sided Jacobi sweeps.

    Rotates pairs of columns of ``matrix`` until they are mutually orthogonal
    relative to ``_off_diagonal_tol(n)``, within ``MAX_SWEEPS`` sweeps; the
    column norms are then the singular values and the accumulated rotations the
    right singular vectors.  A block of size 3 to ``PYTHON_FLOAT_CUTOFF`` that
    passes the preconditioning gate starts from ``matrix @ V0`` instead, with
    ``V0`` LAPACK's right singular vectors, and they are ``V0`` times the
    rotations.  Returns ``(s, v)`` with ``s`` descending and
    ``matrix.T @ matrix = v @ diag(s**2) @ v.T``.  Raises
    :class:`NormOverflowError` when ``s[0]``, the block's operator norm, is
    beyond the float range although every entry is finite.
    """
    a = np.asarray(matrix, dtype=float)
    if a.shape == (1, 1):  # |a| and 1, bit for bit what the scaled path would give
        s = abs(a.item())
        if not math.isfinite(s):
            raise EigenSolverError(block_index, "matrix has non-finite entries")
        return np.array([s]), np.array([[1.0]])
    bt, e = _prescaled(a, block_index)
    n = len(bt)
    if not n:  # the empty block
        return np.zeros(0), np.ones((0, 0))
    live = [k for k, c in enumerate(bt.tolist()) if any(c)]  # a zero column never rotates
    # a zero column is a zero singular value, which fails the gate
    vt = _preconditioner(bt) if 3 <= n <= PYTHON_FLOAT_CUTOFF and len(live) == n else None
    # [b^T | I], or [C^T | V0^T] with C = b V0, whose columns are at least sigma_n long
    rows = np.concatenate((bt, np.eye(n)) if vt is None else (vt @ bt, vt), axis=1).tolist()
    tol = _off_diagonal_tol(n)
    # None when the list kernel finished the block, else the sweeps it spent
    spent = _sweep(rows, n, live, block_index, tol) if n <= PYTHON_FLOAT_CUTOFF else 0
    if spent is None:
        norms = _list_square_norms(rows, n)
    else:  # a larger block, or a smaller one whose sweep met a column below _TINY
        rows = np.array(rows)
        _batch_sweep(rows, n, live, block_index, tol, spent)
        norms = np.einsum("ij,ij->i", rows[:, :n], rows[:, :n]).tolist()
    sv = _singular_values(rows, norms, n, e, block_index)
    order = sorted(range(n), key=sv.__getitem__, reverse=True)
    return np.array([sv[k] for k in order]), np.array([rows[k][n:] for k in order]).T
