"""Deterministic random instances for tests, verification and the CLI.

Everything funnels through ``numpy.random.default_rng``: the same seed
always produces the same operators, weights and contexts.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Operator
from .stepfn import StepFunction
from .weighted import ExpWeight, StepWeight, WeightedContext

__all__ = [
    "rng_from_seed",
    "random_step_function",
    "random_step_weight",
    "random_weight",
    "random_matrix_algebra",
    "random_operator",
    "random_positive_operator",
    "random_block_algebra",
    "random_diagonal_algebra",
    "random_diagonal_operator",
    "random_partial_isometry",
    "random_orthogonal",
    "random_block_orthogonal",
    "random_context",
]


def rng_from_seed(seed):
    return np.random.default_rng(int(seed))


def random_step_function(rng, max_pieces=6):
    k = int(rng.integers(1, max_pieces + 1))
    widths = rng.uniform(0.2, 1.2, size=k)
    breakpoints = np.concatenate([[0.0], widths.cumsum()])
    return StepFunction(breakpoints, rng.uniform(0.05, 2.0, size=k))


def random_step_weight(rng, max_pieces=8):
    """Non-increasing positive step density with 1 to ``max_pieces`` steps."""
    k = int(rng.integers(1, max_pieces + 1))
    widths = rng.uniform(0.3, 1.5, size=k)
    breakpoints = np.concatenate([[0.0], widths.cumsum()])
    top = rng.uniform(0.5, 3.0)
    ratios = rng.uniform(0.3, 0.9, size=k - 1)
    values = top * np.concatenate([[1.0], ratios.cumprod()])
    return StepWeight(StepFunction(breakpoints, values))


def random_weight(rng):
    if rng.random() < 0.25:
        return ExpWeight()
    return random_step_weight(rng)


def random_matrix_algebra(rng):
    nblocks = int(rng.integers(1, 4))
    sizes = rng.integers(1, 7, size=nblocks)
    weights = rng.uniform(0.25, 2.0, size=nblocks)
    return Algebra.matrix_blocks(sizes, weights)


def random_operator(rng, algebra):
    """Entries uniform in [-1, 1] per block; signed step payloads otherwise."""
    if algebra.is_matrix:
        blocks = [rng.uniform(-1.0, 1.0, size=(n, n)) for n in algebra.block_sizes]
        return Operator(algebra, blocks=blocks)
    k = int(rng.integers(1, 6))
    cuts = np.sort(rng.uniform(0.0, algebra.domain_bound, size=k - 1))
    breakpoints = np.concatenate([[0.0], cuts, [algebra.domain_bound]])
    keep = breakpoints[1:] > breakpoints[:-1]
    breakpoints = np.concatenate([[0.0], breakpoints[1:][keep]])
    values = rng.uniform(-1.0, 1.0, size=int(keep.sum()))
    return Operator(algebra, step=StepFunction(breakpoints, values))


def random_positive_operator(rng, algebra):
    if algebra.is_matrix:
        blocks = []
        for n in algebra.block_sizes:
            g = rng.uniform(-1.0, 1.0, size=(n, n))
            blocks.append(g @ g.T / n)
        return Operator(algebra, blocks=blocks)
    op = random_operator(rng, algebra)
    return Operator(algebra, step=op.step.absolute())


def random_block_algebra(rng, total):
    """Blocks of random sizes adding up to ``total``, each with a random weight."""
    sizes = []
    while total > 0:
        n = int(rng.integers(1, total + 1))
        sizes.append(n)
        total -= n
    return Algebra.matrix_blocks(sizes, rng.uniform(0.25, 2.0, size=len(sizes)))


def random_diagonal_algebra(rng, max_dim=8):
    """Small all-diagonal-friendly algebra: a few blocks with random weights."""
    return random_block_algebra(rng, int(rng.integers(1, max_dim + 1)))


def random_diagonal_operator(rng, algebra):
    entries = rng.uniform(-1.0, 1.0, size=algebra.total_dimension)
    return Operator.from_diagonal(algebra, entries)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(r.diagonal())


def random_block_orthogonal(rng, algebra):
    return Operator(algebra, blocks=[random_orthogonal(rng, n) for n in algebra.block_sizes])


def random_partial_isometry(rng, algebra):
    """Per block, maps a random rank-r subspace isometrically onto another."""
    blocks = []
    for n in algebra.block_sizes:
        r = int(rng.integers(0, n + 1))
        if r == 0:
            blocks.append(np.zeros((n, n)))
            continue
        u = np.linalg.qr(rng.standard_normal((n, r)))[0]
        w = np.linalg.qr(rng.standard_normal((n, r)))[0]
        blocks.append(u @ w.T)
    return Operator(algebra, blocks=blocks)


def random_context(rng):
    """A random algebra-and-weight pair mixing all supported kinds."""
    if rng.random() < 0.25:
        algebra = Algebra.commutative(rng.uniform(1.0, 5.0))
    else:
        algebra = random_matrix_algebra(rng)
    return WeightedContext(algebra, random_weight(rng))
