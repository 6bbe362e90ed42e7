"""Randomized property suite behind ``wrearr verify`` and the test harness.

Every named property draws deterministic random instances, computes a
numeric violation residual (0 means satisfied) and reports the worst case.
A failing trial is shrunk where possible and dumped as a JSON-able
counterexample that names every field of its instance.

The properties form one table, ``_REGISTRY``: a row names the property, its
tolerance, the maker that draws an instance, the residual function and the
names of the instance's fields in order.  A counterexample renders each
field by its type: the context as its weight and an operator as operator
JSON at the top level; step functions, measures, arrays and scalars in
``detail``.  An identity the paper proves for both the singular value
function and the weighted rearrangement has one residual, which takes the
rearrangement as an argument.  Property ``i`` draws from
``np.random.default_rng([seed, i])``, so new rows go at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import formats
from .algebra import (
    Algebra,
    Operator,
    Projection,
    absolute,
    apply_function,
    partial_isometry_conjugates,
    singular_value_function,
    spectral_projection,
)
from .errors import ValidationError, WrearrError
from .generate import (
    random_block_orthogonal,
    random_context,
    random_diagonal_algebra,
    random_diagonal_operator,
    random_matrix_algebra,
    random_operator,
    random_partial_isometry,
    random_positive_operator,
    random_step_function,
    random_step_weight,
    random_weight,
)
from .norms import (
    NormSpec,
    capped,
    cosh_minus_one,
    l_log_l,
    membership_route_a,
    membership_route_b,
    modular,  # unused here; perfbench's tracer test checks it is rebound
    norm_route_a,
    norm_route_b,
    power,
)
from .stepfn import (
    LEBESGUE,
    DensityMeasure,
    Measure,
    StepFunction,
    _union,
    distribution,
    generalized_inverse,
    integrate,
    rearrange,
    step_equal,
    step_value_residual,
)
from .weighted import (
    ExpWeight,
    StepWeight,
    WeightedContext,
    weighted_distribution,
    weighted_rearrangement,
    weighted_rearrangement_oracle,
    weighted_trace,
)

__all__ = [
    "PropertyResult",
    "PROPERTY_NAMES",
    "run_property",
    "run_suite",
    "format_report",
]

# tolerance of the rows that compare two computations of the same quantity
CROSS_ROUTE_TOLERANCE = 1e-10


@dataclass
class PropertyResult:
    name: str
    trials: int
    failures: int
    worst_residual: float
    tolerance: float
    counterexample: dict | None = None

    @property
    def passed(self):
        return self.failures == 0


def _rel_gap(lhs, rhs):
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _shape_residual(f):
    """0 when ``f`` is a valid non-increasing right-continuous step function."""
    if not f.is_nonincreasing():
        return 1.0
    # right continuity of the representation: the value at each breakpoint
    # is the value of the piece to its right
    for i, (a, _, v) in enumerate(f.pieces()):
        if f(a) != v:
            return 1.0
    return 0.0 if f(f.support_end) == 0.0 else 1.0


def _routes_disagree(ctx, a, mu):
    """1 when the weighted rearrangement ``mu`` of ``a`` differs from the
    generalized inverse of its weighted distribution, else 0."""
    other = generalized_inverse(weighted_distribution(ctx, a))
    return 0.0 if step_equal(mu, other, CROSS_ROUTE_TOLERANCE, 1e-12) else 1.0


# -- instance makers ----------------------------------------------------------


def _corpus(rng):
    """Mixed corpus: matrix and commutative algebras, step and exp weights."""
    ctx = random_context(rng)
    return ctx, random_operator(rng, ctx.algebra)


def _matrix_corpus(rng):
    ctx = WeightedContext(random_matrix_algebra(rng), random_weight(rng))
    return ctx, random_operator(rng, ctx.algebra)


def _diag_corpus(rng):
    alg = random_diagonal_algebra(rng)
    ctx = WeightedContext(alg, random_step_weight(rng))
    return ctx, random_diagonal_operator(rng, alg)


def _random_measure(rng):
    roll = rng.random()
    if roll < 0.4:
        return LEBESGUE
    if roll < 0.5:
        return ExpWeight()
    return DensityMeasure(random_step_function(rng, max_pieces=4))


def _step_instance(rng):
    return random_step_function(rng), _random_measure(rng)


def _with_scalar(corpus, lo, hi):
    """Maker of (*corpus, lam), lam uniform on [lo, hi)."""

    def make(rng):
        return (*corpus(rng), float(rng.uniform(lo, hi)))

    return make


def _with_times(corpus, size):
    """Maker of (ctx, a, ts), ts uniform on [0, 1.1 * total weight); with
    ``size=None`` ts is a single float."""

    def make(rng):
        ctx, a = corpus(rng)
        return ctx, a, rng.uniform(0.0, 1.1 * ctx.weight.total(), size=size)

    return make


def _corpus_pair(rng):
    ctx, a = _corpus(rng)
    return ctx, a, random_operator(rng, ctx.algebra)


def _shift_instance(rng):
    ctx, a, b = _corpus_pair(rng)
    return ctx, a, b, rng.uniform(0.0, 0.6 * ctx.weight.total(), size=(8, 2))


def _positive_corpus(rng):
    ctx = random_context(rng)
    return ctx, random_positive_operator(rng, ctx.algebra)


def _level_set_instance(rng):
    ctx = WeightedContext(random_matrix_algebra(rng), random_weight(rng))
    a = random_positive_operator(rng, ctx.algebra)
    return ctx, a, float(rng.uniform(0.0, a.norm() + 1e-6))


def _spectrum_instance(rng):
    ctx, a = _matrix_corpus(rng)
    return ctx, a, rng.uniform(0.0, 1.1 * (a.norm() + 1e-6), size=8)


def _isometry_instance(rng):
    alg = random_matrix_algebra(rng)
    ctx = WeightedContext(alg, random_weight(rng))
    return ctx, random_partial_isometry(rng, alg)


def _labels_instance(rng):
    alg = random_diagonal_algebra(rng, max_dim=10)
    ctx = WeightedContext(alg, random_weight(rng))
    labels = rng.integers(0, 3, size=alg.total_dimension)  # 0 -> p, 1 -> q, 2 -> neither
    p = Projection.from_support_mask(alg, labels == 0)
    return ctx, p, Projection.from_support_mask(alg, labels == 1)


def _capped_positive_corpus(rng):
    ctx, a = _positive_corpus(rng)
    # keep the spectrum inside the capped function's finite zone
    norm = a.norm()
    if norm > 0.9:
        a = (0.9 / norm) * a
    return ctx, a


def _conjugation_instance(rng):
    ctx, a = _matrix_corpus(rng)
    return ctx, a, random_block_orthogonal(rng, ctx.algebra)


def _no_instance(rng):
    return ()


# -- shrinking ----------------------------------------------------------------


def _diag_shrink_candidates(inst):
    """Smaller variants of a (ctx, diagonal operator, extras) instance."""
    ctx, a, *rest = inst
    entries = a.diagonal_entries()
    lam = ctx.algebra.coordinate_weights()
    if entries.size > 1:
        for i in range(entries.size):
            keep = np.arange(entries.size) != i
            small = Algebra.matrix_blocks([1] * int(keep.sum()), lam[keep])
            small_a = Operator.from_diagonal(small, entries[keep])
            yield WeightedContext(small, ctx.weight), small_a, *rest
    if isinstance(ctx.weight, StepWeight) and ctx.weight.density.piece_count > 1:
        dens = ctx.weight.density  # drop the last density step
        smaller = StepWeight(StepFunction(dens.breakpoints[:-1], dens.values[:-1]))
        yield (WeightedContext(ctx.algebra, smaller), a, *rest)


def _shrink(inst, fails, candidates):
    budget = 60
    current = inst
    progress = True
    while progress and budget > 0:
        progress = False
        for cand in candidates(current):
            budget -= 1
            try:
                if fails(cand):
                    current = cand
                    progress = True
                    break
            except WrearrError:  # a candidate the library rejects is passed over
                pass
            if budget <= 0:
                break
    return current


# -- the runner -----------------------------------------------------------------


@dataclass(frozen=True)
class _Row:
    """One property.  ``describe`` names every field of an instance, in
    order, the context included: the key under which a counterexample shows
    it."""

    name: str
    tolerance: float
    make: Callable
    residual: Callable
    describe: tuple = ("weight", "operator")
    shrink: Callable | None = None
    max_trials: int | None = None


def _counterexample(row, inst, r):
    out, detail = {}, {}
    for name, value in zip(row.describe, inst):
        if isinstance(value, WeightedContext):
            out[name] = formats.weight_to_obj(value.weight)
        elif isinstance(value, Operator):
            out[name] = formats.operator_to_obj(value)
        elif isinstance(value, StepFunction):
            detail[name] = formats.step_to_obj(value)
        elif isinstance(value, Measure):
            detail[name] = formats.weight_to_obj(value)
        elif isinstance(value, np.ndarray):
            detail[name] = value.tolist()
        else:
            detail[name] = value
    out["detail"] = {**detail, "residual": r}
    return out


def _loop(row, rng, trials, tol):
    failures = 0
    worst = 0.0
    counterexample = None
    for _ in range(trials):
        inst = row.make(rng)
        r = float(row.residual(inst))
        worst = max(worst, r)
        if r > tol:
            failures += 1
            if counterexample is None:
                if row.shrink is not None:
                    inst = _shrink(inst, lambda i: row.residual(i) > tol, row.shrink)
                counterexample = _counterexample(row, inst, float(row.residual(inst)))
    return failures, worst, counterexample


# -- step function layer -----------------------------------------------------


def _step_distribution_shape(inst):
    f, m = inst
    return _shape_residual(distribution(f, m))


def _step_equimeasurable(inst):
    f, m = inst
    return step_value_residual(distribution(rearrange(f, m), LEBESGUE), distribution(f, m))


def _excess_at_rearrangement(d, mu, points):
    """Worst excess of d(mu(t)) over t on ``points``; 0 when d(mu(t)) <= t there."""
    worst = 0.0
    for t in points:
        worst = max(worst, d(mu(float(t))) - float(t))
    return worst


def _step_distribution_bound(inst):
    f, m = inst
    r = rearrange(f, m)
    return _excess_at_rearrangement(distribution(f, m), r, r.breakpoints)


def _step_integral(inst):
    f, m = inst
    return _rel_gap(integrate(rearrange(f, m), LEBESGUE), integrate(f, m))


# -- algebra layer --------------------------------------------------------------


def _sv(_ctx, a):
    return singular_value_function(a)


def _wr(ctx, a):
    # looked up at each call, so that a rebound ``weighted_rearrangement`` is seen
    return weighted_rearrangement(ctx, a)


def _abs_adjoint(rearr):
    """mu(a) = mu(|a|) = mu(a^T) for the rearrangement ``rearr(ctx, a)``."""

    def residual(inst):
        ctx, a = inst
        mu = rearr(ctx, a)
        return max(
            step_value_residual(mu, rearr(ctx, absolute(a))),
            step_value_residual(mu, rearr(ctx, a.T)),
        )

    return residual


def _homogeneous(rearr):
    """mu(lam a) = |lam| mu(a) for the rearrangement ``rearr(ctx, a)``."""

    def residual(inst):
        ctx, a, lam = inst
        return step_value_residual(rearr(ctx, lam * a), rearr(ctx, a).scaled(abs(lam)))

    return residual


def _sv_distribution_counts(inst):
    _, a, ts = inst
    d = distribution(singular_value_function(a), LEBESGUE)
    worst = 0.0
    pos = absolute(a)
    for t in ts:
        worst = max(worst, abs(d(float(t)) - spectral_projection(pos, float(t)).trace()))
    return worst


def _support_projection_trace(inst):
    _, a = inst
    pos = absolute(a)
    p = spectral_projection(pos, 0.0)
    # LAPACK's rank, at a cut-off far above either solver's rounding of a zero singular value
    tol_rank = 1e-9 * a.norm()
    expected = 0.0
    for lam, b in zip(a.algebra.trace_weights, a.blocks):
        s = np.linalg.svd(b, compute_uv=False)
        expected += lam * int((s > tol_rank).sum())
    return abs(p.trace() - expected)


def _level_sets(inst):
    _, a, t = inst
    psi = power(2)
    image = apply_function(psi, a)
    p_orig = spectral_projection(a, t)
    p_image = spectral_projection(image, psi(t))
    return max(
        float(np.abs(pb - qb).max()) for pb, qb in zip(p_orig.blocks, p_image.blocks)
    )


# -- weighted layer ---------------------------------------------------------------


def _oracle(inst):
    ctx, a, ts = inst
    mu = weighted_rearrangement(ctx, a)
    worst = _routes_disagree(ctx, a, mu)
    return max(worst, float(np.abs(mu(ts) - weighted_rearrangement_oracle(ctx, a, ts)).max()))


def _integral_identity(inst):
    ctx, a = inst
    return _rel_gap(integrate(weighted_rearrangement(ctx, a), LEBESGUE), weighted_trace(ctx, a))


def _trace_subadditive(inst):
    ctx, a, b = inst
    return max(0.0, weighted_trace(ctx, a + b) - weighted_trace(ctx, a) - weighted_trace(ctx, b))


def _trace_homogeneous(inst):
    ctx, a, lam = inst
    return _rel_gap(weighted_trace(ctx, lam * a), abs(lam) * weighted_trace(ctx, a))


def _trace_adjoint_product(inst):
    ctx, a = inst
    return _rel_gap(weighted_trace(ctx, a.T @ a), weighted_trace(ctx, a @ a.T))


def _trace_faithful(inst):
    ctx, a = inst
    if a.norm() == 0.0:
        return 0.0
    return 0.0 if weighted_trace(ctx, a) > 0.0 else 1.0


def _trace_normal(inst):
    ctx, a = inst
    limit = weighted_trace(ctx, a)
    scale = 1.0 + abs(limit)
    worst = 0.0
    previous = -math.inf
    for k in range(0, 11):
        n = 2**k
        value = weighted_trace(ctx, (1.0 - 1.0 / n) * a)
        worst = max(worst, (previous - value) / scale)      # must increase
        worst = max(worst, (value - limit) / scale)          # bounded by the limit
        worst = max(worst, abs((limit - value) - limit / n) / scale)  # exact gap law
        previous = value
    return worst


def _equivalent_projections(inst):
    ctx, v = inst
    p, q = partial_isometry_conjugates(v)
    return abs(weighted_trace(ctx, p) - weighted_trace(ctx, q))


def _orthogonal_projections(inst):
    ctx, p, q = inst
    return max(0.0, weighted_trace(ctx, p) - weighted_trace(ctx, q.complement()))


def _shift(combine, excess):
    """The shift inequality mu_w(t + s; combine(a, b)) <= mu_w(t; a) op mu_w(s; b);
    ``excess(lhs, x, y)`` is how far the left side exceeds the right."""

    def residual(inst):
        ctx, a, b, ts = inst
        mu_c = weighted_rearrangement(ctx, combine(a, b))
        mu_a = weighted_rearrangement(ctx, a)
        mu_b = weighted_rearrangement(ctx, b)
        worst = 0.0
        for t, s in ts:
            worst = max(worst, excess(mu_c(t + s), mu_a(float(t)), mu_b(float(s))))
        return worst

    return residual


def _wr_shape(inst):
    ctx, a = inst
    mu = weighted_rearrangement(ctx, a)
    return max(_shape_residual(mu), _routes_disagree(ctx, a, mu))


def _wr_small_t(inst):
    ctx, a = inst
    t0 = 1e-9 * ctx.weight.total()
    return abs(weighted_rearrangement(ctx, a)(t0) - a.norm())


def _wd_bound(inst):
    ctx, a, ts = inst
    mu = weighted_rearrangement(ctx, a)
    points = np.concatenate([mu.breakpoints, ts])
    return _excess_at_rearrangement(weighted_distribution(ctx, a), mu, points)


def _truncation(inst):
    ctx, a, t = inst
    mu_t = weighted_rearrangement(ctx, a)(t)
    entries = a.diagonal_entries()
    lam = ctx.algebra.coordinate_weights()
    order = (-np.abs(entries)).argsort()
    worst = 0.0
    for k in range(entries.size + 1):
        support = np.zeros(entries.size, dtype=bool)
        support[order[:k]] = True
        if ctx.weight.cumulative(float(lam[support].sum())) > t:
            continue
        remainder = np.abs(entries[~support]).max() if (~support).any() else 0.0
        worst = max(worst, mu_t - remainder)
    return worst


# -- norms layer -------------------------------------------------------------------


def _norm_psis():
    return [power(1), power(2), power(3), cosh_minus_one(), l_log_l(), capped(1.0)]


def _route_gap(ctx, spec, a):
    lhs = norm_route_a(ctx, spec, a)
    rhs = norm_route_b(ctx, spec, a)
    if math.isinf(lhs) and math.isinf(rhs):
        return 0.0
    if math.isinf(lhs) or math.isinf(rhs):
        return math.inf
    return abs(lhs - rhs) / (1.0 + min(lhs, rhs))


def _orlicz_routes(inst):
    ctx, a = inst
    return max(_route_gap(ctx, NormSpec.orlicz(psi), a) for psi in _norm_psis())


def _lp_routes(inst):
    ctx, a = inst
    return max(_route_gap(ctx, NormSpec.lp(p), a) for p in (1.0, 2.0, 3.0, math.inf))


def _membership_routes(inst):
    ctx, a = inst
    specs = [NormSpec.orlicz(psi) for psi in _norm_psis()]
    specs += [NormSpec.lp(p) for p in (1.0, 2.0, math.inf)]
    for spec in specs:
        if membership_route_a(ctx, spec, a) != membership_route_b(ctx, spec, a):
            return 1.0
    return 0.0


def _calculus_commutes(inst):
    ctx, a = inst
    worst = 0.0
    for psi in _norm_psis():
        lhs = weighted_rearrangement(ctx, a).map_values(psi)
        rhs = weighted_rearrangement(ctx, apply_function(psi, a))
        worst = max(worst, step_value_residual(lhs, rhs))
    return worst


def _norm_axioms(inst):
    ctx, a, b, lam = inst
    total, scaled = a + b, lam * a
    worst = 0.0
    for spec in (NormSpec.lp(1), NormSpec.lp(2), NormSpec.orlicz(cosh_minus_one())):
        na = norm_route_b(ctx, spec, a)
        nb = norm_route_b(ctx, spec, b)
        nsum = norm_route_b(ctx, spec, total)
        worst = max(worst, (nsum - na - nb) / (1.0 + na + nb))
        worst = max(worst, _rel_gap(norm_route_b(ctx, spec, scaled), abs(lam) * na))
        if a.norm() > 0.0 and na <= 0.0:
            worst = max(worst, 1.0)
    return worst


def _lp_quadrature(inst):
    ctx, a = inst
    mu = singular_value_function(a)
    # midpoint quadrature on the refined grid; exact for step data
    grid = mu.breakpoints
    if isinstance(ctx.weight, StepWeight):
        grid = _union(grid, ctx.weight.density.breakpoints)
    levels = mu(0.5 * (grid[:-1] + grid[1:]))
    masses = ctx.weight.piece_masses(grid)
    worst = 0.0
    for p in (1.0, 2.0, 3.0):
        quad = float(masses.dot(levels**p)) ** (1.0 / p)
        worst = max(worst, _rel_gap(norm_route_a(ctx, NormSpec.lp(p), a), quad))
    return worst


def _conjugation(inst):
    ctx, a, v = inst
    conj = v.T @ a @ v
    worst = max(
        step_value_residual(singular_value_function(a), singular_value_function(conj)),
        step_value_residual(weighted_rearrangement(ctx, a), weighted_rearrangement(ctx, conj)),
    )
    for spec in (NormSpec.lp(2), NormSpec.orlicz(l_log_l())):
        worst = max(worst, abs(norm_route_b(ctx, spec, a) - norm_route_b(ctx, spec, conj)))
    return worst


def _exp_reference(_inst):
    alg = Algebra.commutative(2.0)
    ctx = WeightedContext(alg, ExpWeight())
    # the multipliers of [0, 2), [0, 1) and [1, 2)
    t_whole, t_first, t_second = (
        weighted_trace(ctx, Operator.multiplier(alg, StepFunction(bp, values)))
        for bp, values in (([0.0, 2.0], [1.0]), ([0.0, 1.0], [1.0]), ([0.0, 1.0, 2.0], [0.0, 1.0]))
    )
    gap = t_first + t_second - t_whole
    return max(
        abs(t_whole - (-math.expm1(-2.0))),
        abs(t_first - (-math.expm1(-1.0))),
        abs(t_second - (-math.expm1(-1.0))),
        abs(gap - math.expm1(-1.0) ** 2),
        0.0 if gap > 0 else 1.0,
    )


# -- the registry --------------------------------------------------------------

_STEP = ("function", "measure")
_SHIFT = ("weight", "operator", "operator_b", "times")

_REGISTRY = [
    _Row("step-distribution-shape", 0.0, _step_instance, _step_distribution_shape, _STEP),
    _Row("step-rearrangement-equimeasurable", CROSS_ROUTE_TOLERANCE, _step_instance,
         _step_equimeasurable, _STEP),
    _Row("step-distribution-at-rearrangement-bounded", 1e-12, _step_instance,
         _step_distribution_bound, _STEP),
    _Row("step-rearrangement-preserves-integral", CROSS_ROUTE_TOLERANCE, _step_instance,
         _step_integral, _STEP),
    _Row("singular-values-of-abs-and-adjoint-agree", CROSS_ROUTE_TOLERANCE, _corpus,
         _abs_adjoint(_sv)),
    _Row("singular-values-homogeneous", CROSS_ROUTE_TOLERANCE, _with_scalar(_corpus, -3.0, 3.0),
         _homogeneous(_sv), ("weight", "operator", "scalar")),
    _Row("singular-value-distribution-counts-spectrum", CROSS_ROUTE_TOLERANCE, _spectrum_instance,
         _sv_distribution_counts, ("weight", "operator", "times")),
    _Row("support-projection-trace", CROSS_ROUTE_TOLERANCE, _matrix_corpus,
         _support_projection_trace),
    _Row("functional-calculus-preserves-level-sets", CROSS_ROUTE_TOLERANCE, _level_set_instance,
         _level_sets, ("weight", "operator", "threshold")),
    _Row("oracle-matches-weighted-rearrangement", CROSS_ROUTE_TOLERANCE,
         _with_times(_diag_corpus, 50), _oracle, ("weight", "operator", "times"),
         shrink=_diag_shrink_candidates),
    _Row("rearrangement-integral-equals-weighted-trace", CROSS_ROUTE_TOLERANCE, _corpus,
         _integral_identity),
    _Row("weighted-trace-subadditive", 1e-9, _corpus_pair, _trace_subadditive,
         ("weight", "operator", "operator_b")),
    _Row("weighted-trace-homogeneous", 1e-9, _with_scalar(_corpus, -4.0, 4.0),
         _trace_homogeneous, ("weight", "operator", "scalar")),
    _Row("weighted-trace-adjoint-product-symmetric", 1e-9, _corpus, _trace_adjoint_product),
    _Row("weighted-trace-faithful", 0.0, _corpus, _trace_faithful),
    _Row("weighted-trace-normal-on-monotone-sequences", 1e-9, _positive_corpus, _trace_normal),
    _Row("equivalent-projections-share-weighted-trace", 1e-9, _isometry_instance,
         _equivalent_projections, ("weight", "isometry")),
    _Row("orthogonal-projections-trace-inequality", 1e-12, _labels_instance,
         _orthogonal_projections, ("weight", "projection_p", "projection_q")),
    _Row("weighted-rearrangement-of-abs-and-adjoint-agree", CROSS_ROUTE_TOLERANCE, _corpus,
         _abs_adjoint(_wr)),
    _Row("weighted-rearrangement-homogeneous", CROSS_ROUTE_TOLERANCE,
         _with_scalar(_corpus, -3.0, 3.0), _homogeneous(_wr),
         ("weight", "operator", "scalar")),
    _Row("weighted-rearrangement-sum-shift-inequality", CROSS_ROUTE_TOLERANCE, _shift_instance,
         _shift(lambda a, b: a + b, lambda c, x, y: c - x - y), _SHIFT),
    _Row("weighted-rearrangement-product-shift-inequality", CROSS_ROUTE_TOLERANCE, _shift_instance,
         _shift(lambda a, b: a @ b, lambda c, x, y: c - x * y), _SHIFT),
    _Row("weighted-rearrangement-shape", 0.0, _corpus, _wr_shape),
    _Row("weighted-rearrangement-small-t-limit", 1e-9, _corpus, _wr_small_t),
    _Row("weighted-distribution-at-rearrangement-bounded", 1e-12, _with_times(_corpus, 8),
         _wd_bound, ("weight", "operator", "times")),
    _Row("truncation-distance-dominates-rearrangement", CROSS_ROUTE_TOLERANCE,
         _with_times(_diag_corpus, None), _truncation, ("weight", "operator", "t"),
         shrink=_diag_shrink_candidates),
    _Row("orlicz-norm-routes-agree", 1e-8, _corpus, _orlicz_routes),
    _Row("lp-norm-routes-agree", 1e-8, _corpus, _lp_routes),
    _Row("membership-routes-agree", 0.0, _corpus, _membership_routes),
    _Row("functional-calculus-commutes-with-rearrangement", CROSS_ROUTE_TOLERANCE,
         _capped_positive_corpus, _calculus_commutes),
    _Row("rearrangement-norm-axioms", 1e-9, _with_scalar(_corpus_pair, -3.0, 3.0), _norm_axioms,
         ("weight", "operator", "operator_b", "scalar")),
    _Row("lp-norm-matches-quadrature", CROSS_ROUTE_TOLERANCE, _corpus, _lp_quadrature),
    _Row("conjugation-invariance", 1e-9, _conjugation_instance, _conjugation,
         ("weight", "operator", "conjugator")),
    # deterministic, a single evaluation suffices
    _Row("exponential-weight-reference-values", 1e-12, _no_instance, _exp_reference, (),
         max_trials=1),
]

PROPERTY_NAMES = [row.name for row in _REGISTRY]


def run_property(name, seed, trials):
    """Run one named property with its own deterministic stream."""
    for index, row in enumerate(_REGISTRY):
        if row.name == name:
            rng = np.random.default_rng([int(seed), index])
            if row.max_trials is not None:
                trials = min(trials, row.max_trials)
            failures, worst, counterexample = _loop(row, rng, trials, row.tolerance)
            return PropertyResult(name, trials, failures, worst, row.tolerance, counterexample)
    raise ValidationError(f"unknown property {name!r}")


def run_suite(seed, trials):
    """Run the whole registry with deterministic seeding."""
    return [run_property(name, seed, trials) for name in PROPERTY_NAMES]


def format_report(results):
    lines = []
    width = max((len(r.name) for r in results), default=0)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name:<{width}}  trials={r.trials}  failures={r.failures}  "
            f"worst={r.worst_residual:.3e}  tol={r.tolerance:.1e}"
        )
    total_failures = sum(r.failures for r in results)
    lines.append(
        f"{len(results)} properties, {total_failures} failing trial(s)"
    )
    return "\n".join(lines)
