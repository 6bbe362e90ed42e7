"""Randomized property suite behind ``wrearr verify`` and the test harness.

Every named property draws deterministic random instances, computes a
numeric violation residual (0 means satisfied) and reports the worst case.
A failing trial is shrunk where possible and dumped as a JSON-able
counterexample carrying the offending operator and weight.

The properties form one table, ``_REGISTRY``: a row names the property, its
tolerance, the maker that draws an instance, the residual function and the
instance fields a counterexample shows.  Property ``i`` draws from
``np.random.default_rng([seed, i])``, so new rows go at the end.
"""

from __future__ import annotations

import math
import os
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
from .errors import ValidationError
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
    EXPONENTIAL_DENSITY,
    LEBESGUE,
    Measure,
    StepFunction,
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

TOLERANCE_ENV_VAR = "WREARR_TOLERANCE"
DEFAULT_CROSS_ROUTE_TOLERANCE = 1e-10


def cross_route_tolerance():
    """Tolerance for cross-route equality checks; overridable via the
    WREARR_TOLERANCE environment variable."""
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    if raw is None:
        return DEFAULT_CROSS_ROUTE_TOLERANCE
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValidationError(f"{TOLERANCE_ENV_VAR} must be a float, got {raw!r}") from exc
    if not value > 0:
        raise ValidationError(f"{TOLERANCE_ENV_VAR} must be positive")
    return value


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
    return 0.0 if step_equal(mu, other, cross_route_tolerance(), 1e-12) else 1.0


def _describe(ctx, detail, **named_ops):
    out = {"weight": formats.weight_to_obj(ctx.weight)}
    for name, op in named_ops.items():
        out[name] = formats.operator_to_obj(op)
    out["detail"] = detail
    return out


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
        return Measure(EXPONENTIAL_DENSITY)
    return Measure(random_step_function(rng, max_pieces=4))


def _step_instance(rng):
    return random_step_function(rng), _random_measure(rng)


def _with_scalar(lo, hi):
    """Maker of (ctx, a, lam), lam uniform on [lo, hi)."""

    def make(rng):
        ctx, a = _corpus(rng)
        return ctx, a, float(rng.uniform(lo, hi))

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
    n = alg.total_dimension
    labels = rng.integers(0, 3, size=n)  # 0 -> p, 1 -> q, 2 -> neither
    return ctx, labels


def _capped_positive_corpus(rng):
    ctx, a = _positive_corpus(rng)
    # keep the spectrum inside the capped function's finite zone
    norm = a.norm()
    if norm > 0.9:
        a = (0.9 / norm) * a
    return ctx, a


def _norm_axioms_instance(rng):
    ctx, a, b = _corpus_pair(rng)
    return ctx, a, b, float(rng.uniform(-3.0, 3.0))


def _conjugation_instance(rng):
    ctx, a = _matrix_corpus(rng)
    return ctx, a, random_block_orthogonal(rng, ctx.algebra)


def _no_instance(rng):
    return ()


# -- shrinking ----------------------------------------------------------------


def _diag_shrink_candidates(inst):
    """Smaller variants of a (ctx, diagonal operator, extras) instance."""
    ctx, a = inst[0], inst[1]
    rest = inst[2:]
    entries = a.diagonal_entries()
    lam = ctx.algebra.coordinate_weights()
    if entries.size > 1:
        for i in range(entries.size):
            keep = np.arange(entries.size) != i
            try:
                small = Algebra.matrix_blocks([1] * int(keep.sum()), lam[keep])
            except ValidationError:
                continue
            yield (
                WeightedContext(small, ctx.weight),
                Operator.from_diagonal(small, entries[keep]),
                *rest,
            )
    dens = ctx.weight.density
    if isinstance(dens, StepFunction) and dens.piece_count > 1:
        # drop the last density step
        bp = dens.breakpoints[:-1]
        va = dens.values[:-1]
        try:
            smaller = StepWeight(StepFunction(bp, va))
        except ValidationError:
            return
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
            except Exception:
                pass
            if budget <= 0:
                break
    return current


# -- the runner -----------------------------------------------------------------

_OPERATOR_FIELDS = frozenset({"operator", "operator_b", "isometry", "conjugator"})


@dataclass(frozen=True)
class _Row:
    """One property.  ``tolerance`` may be the string "cross" to pick up the
    (env-overridable) cross-route tolerance at run time.  ``describe`` names
    the instance fields after the context that a counterexample shows
    (operators by name, anything else as a detail scalar), or is a function
    ``(inst, residual) -> dict`` for output that fields cannot express."""

    name: str
    tolerance: float | str
    make: Callable
    residual: Callable
    describe: tuple | Callable = ("operator",)
    shrink: Callable | None = None
    max_trials: int | None = None


def _counterexample(row, inst, r):
    if callable(row.describe):
        return row.describe(inst, r)
    named = dict(zip(row.describe, inst[1:]))
    ops = {k: v for k, v in named.items() if k in _OPERATOR_FIELDS}
    detail = {k: v for k, v in named.items() if k not in _OPERATOR_FIELDS}
    return _describe(inst[0], {**detail, "residual": r}, **ops)


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


def _step_distribution_bound(inst):
    f, m = inst
    d = distribution(f, m)
    r = rearrange(f, m)
    worst = 0.0
    for t in r.breakpoints:
        worst = max(worst, d(r(float(t))) - float(t))
    return worst


def _step_integral(inst):
    f, m = inst
    lhs = integrate(rearrange(f, m), LEBESGUE)
    rhs = integrate(f, m)
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _describe_step(inst, r):
    return {"detail": {"function": formats.step_to_obj(inst[0]), "residual": r}}


# -- algebra layer --------------------------------------------------------------


def _sv_abs_adjoint(inst):
    ctx, a = inst
    mu = singular_value_function(a)
    return max(
        step_value_residual(mu, singular_value_function(absolute(a))),
        step_value_residual(mu, singular_value_function(a.T)),
    )


def _sv_homogeneous(inst):
    _, a, lam = inst
    return step_value_residual(
        singular_value_function(lam * a), singular_value_function(a).scaled(abs(lam))
    )


def _sv_distribution_counts(inst):
    _, a, ts = inst
    d = distribution(singular_value_function(a), LEBESGUE)
    worst = 0.0
    pos = absolute(a)
    for t in ts:
        p = spectral_projection(pos, float(t))
        worst = max(worst, abs(d(float(t)) - p.trace()))
    return worst


def _support_projection_trace(inst):
    _, a = inst
    pos = absolute(a)
    p = spectral_projection(pos, 0.0)
    # the rank cut-off is relative, like spectral_projection's clustering
    tol_rank = 1e-9 * a.norm()
    expected = 0.0
    for lam, b in zip(a.algebra.trace_weights, a.blocks):
        s = np.linalg.svd(b, compute_uv=False)
        expected += lam * int(np.sum(s > tol_rank))
    return abs(p.trace() - expected)


def _level_sets(inst):
    _, a, t = inst
    psi = power(2)
    image = apply_function(psi, a)
    p_orig = spectral_projection(a, t)
    p_image = spectral_projection(image, psi(t))
    return max(
        float(np.max(np.abs(pb - qb))) for pb, qb in zip(p_orig.blocks, p_image.blocks)
    )


# -- weighted layer ---------------------------------------------------------------


def _oracle(inst):
    ctx, a, ts = inst
    mu = weighted_rearrangement(ctx, a)
    worst = _routes_disagree(ctx, a, mu)
    for t in ts:
        worst = max(worst, abs(mu(float(t)) - weighted_rearrangement_oracle(ctx, a, float(t))))
    return worst


def _integral_identity(inst):
    ctx, a = inst
    lhs = integrate(weighted_rearrangement(ctx, a), LEBESGUE)
    rhs = weighted_trace(ctx, a)
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _trace_subadditive(inst):
    ctx, a, b = inst
    return max(0.0, weighted_trace(ctx, a + b) - weighted_trace(ctx, a) - weighted_trace(ctx, b))


def _trace_homogeneous(inst):
    ctx, a, lam = inst
    lhs = weighted_trace(ctx, lam * a)
    rhs = abs(lam) * weighted_trace(ctx, a)
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def _trace_adjoint_product(inst):
    ctx, a = inst
    lhs = weighted_trace(ctx, a.T @ a)
    rhs = weighted_trace(ctx, a @ a.T)
    return abs(lhs - rhs) / (1.0 + abs(rhs))


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


def _labelled_projections(ctx, labels):
    p = Projection.from_support_mask(ctx.algebra, labels == 0)
    q = Projection.from_support_mask(ctx.algebra, labels == 1)
    return p, q


def _orthogonal_projections(inst):
    ctx, labels = inst
    p, q = _labelled_projections(ctx, labels)
    return max(0.0, weighted_trace(ctx, p) - weighted_trace(ctx, q.complement()))


def _describe_orthogonal_projections(inst, r):
    ctx, labels = inst
    p, q = _labelled_projections(ctx, labels)
    return _describe(ctx, {"residual": r}, projection_p=p, projection_q=q)


def _wr_abs_adjoint(inst):
    ctx, a = inst
    mu = weighted_rearrangement(ctx, a)
    return max(
        step_value_residual(mu, weighted_rearrangement(ctx, absolute(a))),
        step_value_residual(mu, weighted_rearrangement(ctx, a.T)),
    )


def _wr_homogeneous(inst):
    ctx, a, lam = inst
    return step_value_residual(
        weighted_rearrangement(ctx, lam * a), weighted_rearrangement(ctx, a).scaled(abs(lam))
    )


def _wr_sum_shift(inst):
    ctx, a, b, ts = inst
    mu_sum = weighted_rearrangement(ctx, a + b)
    mu_a = weighted_rearrangement(ctx, a)
    mu_b = weighted_rearrangement(ctx, b)
    worst = 0.0
    for t, s in ts:
        worst = max(worst, mu_sum(t + s) - mu_a(float(t)) - mu_b(float(s)))
    return worst


def _wr_product_shift(inst):
    ctx, a, b, ts = inst
    mu_prod = weighted_rearrangement(ctx, a @ b)
    mu_a = weighted_rearrangement(ctx, a)
    mu_b = weighted_rearrangement(ctx, b)
    worst = 0.0
    for t, s in ts:
        worst = max(worst, mu_prod(t + s) - mu_a(float(t)) * mu_b(float(s)))
    return worst


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
    d = weighted_distribution(ctx, a)
    points = np.concatenate([mu.breakpoints, ts])
    worst = 0.0
    for t in points:
        worst = max(worst, d(mu(float(t))) - float(t))
    return worst


def _truncation(inst):
    ctx, a, t = inst
    mu_t = weighted_rearrangement(ctx, a)(t)
    entries = a.diagonal_entries()
    lam = ctx.algebra.coordinate_weights()
    order = np.argsort(-np.abs(entries))
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
    worst = 0.0
    for spec in (NormSpec.lp(1), NormSpec.lp(2), NormSpec.orlicz(cosh_minus_one())):
        na = norm_route_b(ctx, spec, a)
        nb = norm_route_b(ctx, spec, b)
        nsum = norm_route_b(ctx, spec, a + b)
        worst = max(worst, (nsum - na - nb) / (1.0 + na + nb))
        nscaled = norm_route_b(ctx, spec, lam * a)
        worst = max(worst, abs(nscaled - abs(lam) * na) / (1.0 + abs(lam) * na))
        if a.norm() > 0.0 and na <= 0.0:
            worst = max(worst, 1.0)
    return worst


def _lp_quadrature(inst):
    ctx, a = inst
    mu = singular_value_function(a)
    worst = 0.0
    for p in (1.0, 2.0, 3.0):
        direct = norm_route_a(ctx, NormSpec.lp(p), a)
        # midpoint quadrature on the refined grid; exact for step data
        grid = mu.breakpoints
        dens = ctx.weight.density
        if isinstance(dens, StepFunction):
            grid = np.union1d(grid, dens.breakpoints)
        mids = 0.5 * (grid[:-1] + grid[1:])
        masses = ctx.weight.interval_mass(grid[:-1], grid[1:])
        quad = float(np.dot(mu(mids) ** p, masses)) ** (1.0 / p)
        worst = max(worst, abs(direct - quad) / (1.0 + quad))
    return worst


def _conjugation(inst):
    ctx, a, v = inst
    conj = v.T @ a @ v
    worst = step_value_residual(singular_value_function(a), singular_value_function(conj))
    worst = max(
        worst,
        step_value_residual(weighted_rearrangement(ctx, a), weighted_rearrangement(ctx, conj)),
    )
    for spec in (NormSpec.lp(2), NormSpec.orlicz(l_log_l())):
        worst = max(worst, abs(norm_route_b(ctx, spec, a) - norm_route_b(ctx, spec, conj)))
    return worst


def _exp_reference(_inst):
    alg = Algebra.commutative(2.0)
    ctx = WeightedContext(alg, ExpWeight())
    whole = Operator.multiplier(alg, StepFunction([0.0, 2.0], [1.0]))
    first = Operator.multiplier(alg, StepFunction([0.0, 1.0], [1.0]))
    second = Operator.multiplier(alg, StepFunction([0.0, 1.0, 2.0], [0.0, 1.0]))
    t_whole = weighted_trace(ctx, whole)
    t_first = weighted_trace(ctx, first)
    t_second = weighted_trace(ctx, second)
    gap = t_first + t_second - t_whole
    return max(
        abs(t_whole - (-math.expm1(-2.0))),
        abs(t_first - (-math.expm1(-1.0))),
        abs(t_second - (-math.expm1(-1.0))),
        abs(gap - math.expm1(-1.0) ** 2),
        0.0 if gap > 0 else 1.0,
    )


def _describe_detail_only(_inst, r):
    return {"detail": {"residual": r}}


# -- the registry --------------------------------------------------------------

_REGISTRY = [
    _Row("step-distribution-shape", 0.0, _step_instance, _step_distribution_shape, _describe_step),
    _Row("step-rearrangement-equimeasurable", "cross", _step_instance, _step_equimeasurable,
         _describe_step),
    _Row("step-distribution-at-rearrangement-bounded", 1e-12, _step_instance,
         _step_distribution_bound, _describe_step),
    _Row("step-rearrangement-preserves-integral", "cross", _step_instance, _step_integral,
         _describe_step),
    _Row("singular-values-of-abs-and-adjoint-agree", "cross", _corpus, _sv_abs_adjoint),
    _Row("singular-values-homogeneous", "cross", _with_scalar(-3.0, 3.0), _sv_homogeneous,
         ("operator", "scalar")),
    _Row("singular-value-distribution-counts-spectrum", "cross", _spectrum_instance,
         _sv_distribution_counts),
    _Row("support-projection-trace", "cross", _matrix_corpus, _support_projection_trace),
    _Row("functional-calculus-preserves-level-sets", "cross", _level_set_instance, _level_sets,
         ("operator", "threshold")),
    _Row("oracle-matches-weighted-rearrangement", "cross", _with_times(_diag_corpus, 50), _oracle,
         shrink=_diag_shrink_candidates),
    _Row("rearrangement-integral-equals-weighted-trace", "cross", _corpus, _integral_identity),
    _Row("weighted-trace-subadditive", 1e-9, _corpus_pair, _trace_subadditive,
         ("operator", "operator_b")),
    _Row("weighted-trace-homogeneous", 1e-9, _with_scalar(-4.0, 4.0), _trace_homogeneous,
         ("operator", "scalar")),
    _Row("weighted-trace-adjoint-product-symmetric", 1e-9, _corpus, _trace_adjoint_product),
    _Row("weighted-trace-faithful", 0.0, _corpus, _trace_faithful),
    _Row("weighted-trace-normal-on-monotone-sequences", 1e-9, _positive_corpus, _trace_normal),
    _Row("equivalent-projections-share-weighted-trace", 1e-9, _isometry_instance,
         _equivalent_projections, ("isometry",)),
    _Row("orthogonal-projections-trace-inequality", 1e-12, _labels_instance,
         _orthogonal_projections, _describe_orthogonal_projections),
    _Row("weighted-rearrangement-of-abs-and-adjoint-agree", "cross", _corpus, _wr_abs_adjoint),
    _Row("weighted-rearrangement-homogeneous", "cross", _with_scalar(-3.0, 3.0), _wr_homogeneous,
         ("operator", "scalar")),
    _Row("weighted-rearrangement-sum-shift-inequality", "cross", _shift_instance, _wr_sum_shift,
         ("operator", "operator_b")),
    _Row("weighted-rearrangement-product-shift-inequality", "cross", _shift_instance,
         _wr_product_shift, ("operator", "operator_b")),
    _Row("weighted-rearrangement-shape", 0.0, _corpus, _wr_shape),
    _Row("weighted-rearrangement-small-t-limit", 1e-9, _corpus, _wr_small_t),
    _Row("weighted-distribution-at-rearrangement-bounded", 1e-12, _with_times(_corpus, 8),
         _wd_bound),
    _Row("truncation-distance-dominates-rearrangement", "cross", _with_times(_diag_corpus, None),
         _truncation, ("operator", "t"), shrink=_diag_shrink_candidates),
    _Row("orlicz-norm-routes-agree", 1e-8, _corpus, _orlicz_routes),
    _Row("lp-norm-routes-agree", 1e-8, _corpus, _lp_routes),
    _Row("membership-routes-agree", 0.0, _corpus, _membership_routes),
    _Row("functional-calculus-commutes-with-rearrangement", "cross", _capped_positive_corpus,
         _calculus_commutes),
    _Row("rearrangement-norm-axioms", 1e-9, _norm_axioms_instance, _norm_axioms,
         ("operator", "operator_b")),
    _Row("lp-norm-matches-quadrature", "cross", _corpus, _lp_quadrature),
    _Row("conjugation-invariance", 1e-9, _conjugation_instance, _conjugation,
         ("operator", "conjugator")),
    # deterministic, a single evaluation suffices
    _Row("exponential-weight-reference-values", 1e-12, _no_instance, _exp_reference,
         _describe_detail_only, max_trials=1),
]

PROPERTY_NAMES = [row.name for row in _REGISTRY]


def run_property(name, seed, trials):
    """Run one named property with its own deterministic stream."""
    for index, row in enumerate(_REGISTRY):
        if row.name == name:
            tol = cross_route_tolerance() if row.tolerance == "cross" else row.tolerance
            rng = np.random.default_rng([int(seed), index])
            if row.max_trials is not None:
                trials = min(trials, row.max_trials)
            failures, worst, counterexample = _loop(row, rng, trials, tol)
            return PropertyResult(name, trials, failures, worst, tol, counterexample)
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
