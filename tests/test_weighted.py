import math

import numpy as np
import pytest

import wrearr.algebra as algebra_mod
import wrearr.norms as norms_mod
import wrearr.weighted as weighted_mod
from wrearr import formats
from wrearr import (
    Algebra,
    DensityMeasure,
    ExpWeight,
    Measure,
    NormSpec,
    Operator,
    Projection,
    StepFunction,
    StepWeight,
    ValidationError,
    WeightedContext,
    absolute,
    distribution,
    generalized_inverse,
    integrate,
    LEBESGUE,
    membership_route_a,
    membership_route_b,
    norm_route_a,
    norm_route_b,
    rearrange,
    singular_value_function,
    spectral_projection,
    step_equal,
    weighted_distribution,
    weighted_rearrangement,
    weighted_rearrangement_oracle,
    weighted_trace,
)
from wrearr.generate import (
    random_diagonal_algebra,
    random_diagonal_operator,
    random_operator,
    random_context,
    random_step_weight,
    rng_from_seed,
)

WEIGHT_21 = StepWeight(StepFunction([0, 1, 3], [2.0, 1.0]))
M3 = Algebra.matrix_blocks([3], [1.0])
DIAG_312 = Operator.from_diagonal(M3, [3.0, 1.0, 2.0])
CTX_312 = WeightedContext(M3, WEIGHT_21)

INTERVAL_02 = Algebra.commutative(2.0)
EXP_CTX = WeightedContext(INTERVAL_02, ExpWeight())


class TestWeightValidation:
    def test_rejects_increasing_density(self):
        with pytest.raises(ValidationError):
            StepWeight(StepFunction([0, 1, 2], [1.0, 2.0]))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValidationError):
            StepWeight(StepFunction.zero())

    def test_rejects_infinite_density(self):
        with pytest.raises(ValidationError):
            StepWeight(StepFunction([0, 1], [math.inf]))

    @pytest.mark.parametrize(
        "breakpoints,values",
        [
            ([0.0, 1e300], [1e300]),  # one piece of mass 1e600
            ([0.0, 1e308, 1.7e308], [1.7, 1.0]),  # finite pieces, infinite sum
        ],
        ids=["piece", "sum"],
    )
    def test_rejects_density_of_infinite_mass(self, breakpoints, values):
        # an infinite cumulative mass would make cumulative(1.0) inf and
        # cumulative_inverse(1e308) 0.0
        density = StepFunction(breakpoints, values)
        with pytest.raises(ValidationError):
            StepWeight(density)
        with pytest.raises(ValidationError):
            DensityMeasure(density)
        obj = {"kind": "step", "mu": {"breakpoints": breakpoints, "values": values}}
        with pytest.raises(ValidationError):
            formats.parse_weight(obj)

    def test_accepts_density_of_mass_near_the_float_limit(self):
        weight = StepWeight(StepFunction([0.0, 1e154], [1e154]))
        assert weight.total() == 1e308
        assert weight.cumulative(1.0) == 1e154
        assert weight.cumulative_inverse(1e308) == 1e154


class TestWeightIsAMeasure:
    @pytest.mark.parametrize(
        "weight",
        [WEIGHT_21, random_step_weight(rng_from_seed(5))],
        ids=["step-21", "random-step"],
    )
    def test_same_results_as_the_measure_of_its_density(self, weight):
        measure = DensityMeasure(weight.density)
        f = StepFunction([0, 0.5, 1.5, 2.5, 4], [3.0, 1.0, 2.0, 0.5])
        assert integrate(f, weight) == integrate(f, measure)
        assert distribution(f, weight) == distribution(f, measure)
        assert rearrange(f, weight) == rearrange(f, measure)
        assert isinstance(weight, Measure)


class TestCumulative:
    def test_exponential_closed_form(self):
        w = ExpWeight()
        assert w.cumulative(2.0) == pytest.approx(1 - math.exp(-2), abs=1e-15)
        assert w.cumulative(math.inf) == 1.0

    def test_zero_at_zero(self):
        for w in (WEIGHT_21, ExpWeight()):
            assert w.cumulative(0.0) == 0.0

    def test_step_weight_rectangle_sum(self):
        # grid quadrature of the density over [0, 2.5)
        grid = np.linspace(0.0, 2.5, 100001)
        mids = 0.5 * (grid[:-1] + grid[1:])
        quad = float(np.sum(WEIGHT_21.density(mids) * np.diff(grid)))
        assert quad == pytest.approx(3.5, abs=1e-9)
        assert WEIGHT_21.cumulative(2.5) == pytest.approx(3.5, abs=1e-15)

    def test_inverse_round_trip(self):
        rng = rng_from_seed(2)
        for w in (WEIGHT_21, ExpWeight(), random_step_weight(rng)):
            total = w.total()
            for u in rng.uniform(0.0, total * (1 - 1e-9), size=50):
                assert w.cumulative(w.cumulative_inverse(float(u))) == pytest.approx(
                    float(u), abs=1e-12
                )

    def test_inverse_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            WEIGHT_21.cumulative_inverse(4.5)
        with pytest.raises(ValidationError):
            ExpWeight().cumulative_inverse(1.5)

    def test_strictly_increasing_before_support_bound(self):
        ts = np.linspace(0.0, WEIGHT_21.density.support_end, 50)
        values = WEIGHT_21.cumulative(ts)
        assert np.all(np.diff(values) > 0)


class TestWeightedTrace:
    def test_exponential_weight_indicator_values(self):
        whole = Operator.multiplier(INTERVAL_02, StepFunction([0, 2], [1.0]))
        first = Operator.multiplier(INTERVAL_02, StepFunction([0, 1], [1.0]))
        second = Operator.multiplier(INTERVAL_02, StepFunction([0, 1, 2], [0.0, 1.0]))
        assert weighted_trace(EXP_CTX, whole) == pytest.approx(1 - math.exp(-2), abs=1e-15)
        assert weighted_trace(EXP_CTX, first) == pytest.approx(1 - math.exp(-1), abs=1e-15)
        assert weighted_trace(EXP_CTX, second) == pytest.approx(1 - math.exp(-1), abs=1e-15)
        gap = (
            weighted_trace(EXP_CTX, first)
            + weighted_trace(EXP_CTX, second)
            - weighted_trace(EXP_CTX, whole)
        )
        assert gap == pytest.approx((1 - math.exp(-1)) ** 2, abs=1e-15)
        assert gap > 0

    def test_zero_operator(self):
        assert weighted_trace(CTX_312, Operator.zero(M3)) == 0.0
        assert weighted_trace(EXP_CTX, Operator.zero(INTERVAL_02)) == 0.0

    def test_worked_diagonal_value(self):
        assert weighted_trace(CTX_312, DIAG_312) == pytest.approx(9.0, abs=1e-12)

    def test_wrong_algebra_rejected(self):
        with pytest.raises(ValidationError):
            weighted_trace(CTX_312, Operator.identity(Algebra.matrix_blocks([2], [1.0])))


class TestWeightedDistribution:
    def test_worked_diagonal_example(self):
        d = weighted_distribution(CTX_312, DIAG_312)
        assert d == StepFunction([0, 1, 2, 3], [4.0, 3.0, 2.0])

    def test_cross_route_against_spectral_projections(self):
        d = weighted_distribution(CTX_312, DIAG_312)
        pos = absolute(DIAG_312)
        for t in np.linspace(0.0, 3.5, 36):
            p = spectral_projection(pos, float(t))
            assert d(float(t)) == pytest.approx(weighted_trace(CTX_312, p), abs=1e-12)

    def test_zero_operator(self):
        assert weighted_distribution(CTX_312, Operator.zero(M3)).is_zero()

    def test_unit_trace_projection_under_exponential_weight(self):
        proj = Operator.multiplier(INTERVAL_02, StepFunction([0, 1], [1.0]))
        d = weighted_distribution(EXP_CTX, proj)
        assert d.piece_count == 1
        assert d(0.5) == pytest.approx(1 - math.exp(-1), abs=1e-15)
        assert d(1.0) == 0.0


class TestWeightedRearrangement:
    def test_worked_diagonal_example(self):
        mu = weighted_rearrangement(CTX_312, DIAG_312)
        assert mu == StepFunction([0, 2, 3, 4], [3.0, 2.0, 1.0])
        assert step_equal(mu, generalized_inverse(weighted_distribution(CTX_312, DIAG_312)))

    def test_scalar_operator_is_flat(self):
        alg = Algebra.matrix_blocks([2, 1], [0.5, 1.0])
        ctx = WeightedContext(alg, WEIGHT_21)
        a = 1.5 * Operator.identity(alg)
        mu = weighted_rearrangement(ctx, a)
        plateau = ctx.weight.cumulative(Operator.identity(alg).trace())
        assert mu == StepFunction([0.0, plateau], [1.5])
        assert step_equal(mu, generalized_inverse(weighted_distribution(ctx, a)))

    def test_zero_operator(self):
        assert weighted_rearrangement(CTX_312, Operator.zero(M3)).is_zero()

    def test_truncation_beyond_weight_support(self):
        # weight mass stops at t = 3; the fourth singular value is invisible
        alg = Algebra.matrix_blocks([4], [1.0])
        ctx = WeightedContext(alg, WEIGHT_21)
        a = Operator.from_diagonal(alg, [4.0, 3.0, 2.0, 1.0])
        mu = weighted_rearrangement(ctx, a)
        assert mu == StepFunction([0, 2, 3, 4], [4.0, 3.0, 2.0])
        assert integrate(mu, LEBESGUE) == pytest.approx(weighted_trace(ctx, a), abs=1e-12)
        assert step_equal(mu, generalized_inverse(weighted_distribution(ctx, a)))

    def test_integral_identity_on_random_corpus(self):
        rng = rng_from_seed(6)
        for _ in range(40):
            ctx = random_context(rng)
            a = random_operator(rng, ctx.algebra)
            lhs = integrate(weighted_rearrangement(ctx, a), LEBESGUE)
            rhs = weighted_trace(ctx, a)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_is_the_singular_value_function_at_the_inverse_cumulative_weight(self):
        # mu^w_t(a) = mu_{W^-1(t)}(a) for t in [0, W(oo)), and 0 past W(oo)
        rng = rng_from_seed(7)
        for _ in range(200):
            ctx = random_context(rng)
            a = random_operator(rng, ctx.algebra)
            mu_w = weighted_rearrangement(ctx, a)
            mu = singular_value_function(a)
            total = ctx.weight.total()
            for t in rng.uniform(0.0, total, size=20):
                assert mu_w(float(t)) == mu(ctx.weight.cumulative_inverse(float(t)))
            for t in [np.nextafter(total, math.inf), *rng.uniform(total, 2 * total, size=5)]:
                assert mu_w(float(t)) == 0.0

    def test_vanishes_at_the_total_weight(self):
        # on the 273rd instance of seed 102 the running sum of the piece masses
        # rounds one ulp past W(oo), which put the smallest singular value there
        rng = rng_from_seed(102)
        for _ in range(273):
            ctx = random_context(rng)
            a = random_operator(rng, ctx.algebra)
        total = ctx.weight.total()
        mu_w = weighted_rearrangement(ctx, a)
        assert mu_w.support_end <= total
        assert mu_w(total) == 0.0
        assert step_equal(mu_w, generalized_inverse(weighted_distribution(ctx, a)))


ORLICZ_REQUEST_NORMS = ["orlicz:cosh-1", "orlicz:llogl", "orlicz:pow:3", "orlicz:capped:1.0", "L2.5"]


def _all_routes(ctx, spec, a):
    return (
        norm_route_a(ctx, spec, a),
        norm_route_b(ctx, spec, a),
        membership_route_a(ctx, spec, a),
        membership_route_b(ctx, spec, a),
    )


class TestSpectralMemo:
    """The singular value function and the weighted rearrangement are built
    once per operator (and weight), each route's norm atoms once per function
    and measure, and the memos change no value."""

    @staticmethod
    def _orlicz_request(rng):
        """A multiplier with 200 pieces on [0, 10) under a random step weight."""
        interval = Algebra.commutative(10.0)
        bp = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 10.0, 199)), [10.0]])
        a = Operator.multiplier(interval, StepFunction(bp, rng.uniform(-2.0, 2.0, 200)))
        return WeightedContext(interval, random_step_weight(rng)), a

    def test_norm_and_membership_routes_rearrange_once(self, monkeypatch):
        original = weighted_mod.rearrange
        calls = []

        def counting(f, m):
            calls.append(m)
            return original(f, m)

        # the singular value function must not rearrange: a counter in algebra catches one
        monkeypatch.setattr(algebra_mod, "rearrange", counting, raising=False)
        monkeypatch.setattr(weighted_mod, "rearrange", counting)
        ctx, a = self._orlicz_request(rng_from_seed(31))
        for text in ORLICZ_REQUEST_NORMS:
            _all_routes(ctx, NormSpec.parse(text), a)
        # one weighted rearrangement serves every route B call
        assert calls == [ctx.weight]

    def test_each_route_takes_its_atoms_once(self, monkeypatch):
        original = Measure.piece_masses
        calls = []

        def counting(m, bp):
            calls.append(m)
            return original(m, bp)

        ctx, a = self._orlicz_request(rng_from_seed(33))
        # the rearrangement is kept on a, so every mass counted below is an atom's
        weighted_rearrangement(ctx, a)
        monkeypatch.setattr(Measure, "piece_masses", counting)
        for text in ORLICZ_REQUEST_NORMS:
            _all_routes(ctx, NormSpec.parse(text), a)
        assert calls == [ctx.weight, LEBESGUE]
        # route A's atoms sit on the singular value function under the weight,
        # route B's on the weighted rearrangement under Lebesgue measure
        assert singular_value_function(a)._atoms[0] is ctx.weight
        assert weighted_rearrangement(ctx, a)._atoms[0] is LEBESGUE

    @pytest.mark.parametrize("kind", ["matrix", "steps"])
    def test_interleaved_weights_match_fresh_operators(self, kind):
        rng = rng_from_seed(32)
        alg = Algebra.matrix_blocks([3, 4], [0.5, 1.5]) if kind == "matrix" else Algebra.commutative(4.0)
        a = random_operator(rng, alg)
        contexts = [WeightedContext(alg, random_step_weight(rng)), WeightedContext(alg, ExpWeight())]

        def fresh():
            if kind == "matrix":
                return Operator(alg, blocks=a.blocks)
            return Operator.multiplier(alg, a.step)

        for text in ORLICZ_REQUEST_NORMS:
            spec = NormSpec.parse(text)
            for ctx in contexts + contexts[::-1]:
                # norms and memberships on both routes, read from kept atoms
                # on a, and from atoms taken afresh
                assert _all_routes(ctx, spec, a) == _all_routes(ctx, spec, fresh())
                assert weighted_rearrangement(ctx, a) == weighted_rearrangement(ctx, fresh())
                # switching the weight object rebuilt route A's atoms
                assert singular_value_function(a)._atoms[0] is ctx.weight
                assert weighted_rearrangement(ctx, a)._atoms[0] is LEBESGUE
        assert singular_value_function(a) == singular_value_function(fresh())


class TestOracle:
    def test_worked_values(self):
        # dropping one coordinate costs cumulative weight 2, so it is
        # admissible from t = 2 onward; the largest entry survives below that
        assert weighted_rearrangement_oracle(CTX_312, DIAG_312, 1.5) == 3.0
        assert weighted_rearrangement_oracle(CTX_312, DIAG_312, 2.5) == 2.0

    def test_zero_beyond_total_mass(self):
        total = CTX_312.weight.total()
        assert weighted_rearrangement_oracle(CTX_312, DIAG_312, total) == 0.0
        assert weighted_rearrangement_oracle(CTX_312, DIAG_312, total + 1.0) == 0.0

    def test_rejects_nan_parameter(self):
        # also a negative one, and either as one entry of an array
        for t in (math.nan, -1.0, [0.5, math.nan], [2.0, -0.5]):
            with pytest.raises(ValidationError, match="rearrangement parameter"):
                weighted_rearrangement_oracle(CTX_312, DIAG_312, t)

    def test_at_zero_only_full_projection_is_admissible(self):
        assert weighted_rearrangement_oracle(CTX_312, DIAG_312, 0.0) == 3.0
        # 16 coordinate weights whose numpy sum exceeds their running sum: the
        # full projection still drops exactly nothing (it raised ValueError
        # when the dropped trace was the total minus the kept trace)
        rng = np.random.default_rng(7)
        alg = Algebra.matrix_blocks([1] * 16, rng.uniform(0.1, 3.0, 16).tolist())
        a = Operator.from_diagonal(alg, rng.uniform(0.5, 2.0, 16))
        ctx = WeightedContext(alg, WEIGHT_21)
        assert weighted_rearrangement_oracle(ctx, a, 0.0) == a.diagonal_entries().max()

    def test_refuses_large_dimension(self):
        alg = Algebra.matrix_blocks([21], [1.0])
        ctx = WeightedContext(alg, WEIGHT_21)
        a = Operator.from_diagonal(alg, np.ones(21))
        with pytest.raises(ValidationError):
            weighted_rearrangement_oracle(ctx, a, 1.0)

    def test_refuses_non_diagonal(self):
        alg = Algebra.matrix_blocks([2], [1.0])
        ctx = WeightedContext(alg, WEIGHT_21)
        a = Operator(alg, blocks=[np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(ValidationError):
            weighted_rearrangement_oracle(ctx, a, 1.0)

    def test_matches_rearrangement_on_random_instances(self):
        rng = rng_from_seed(40)
        for _ in range(30):
            alg = random_diagonal_algebra(rng, max_dim=6)
            ctx = WeightedContext(alg, random_step_weight(rng))
            a = random_diagonal_operator(rng, alg)
            mu = weighted_rearrangement(ctx, a)
            assert step_equal(mu, generalized_inverse(weighted_distribution(ctx, a)))
            ts = rng.uniform(0.0, ctx.weight.total() * 1.1, size=20)
            values = weighted_rearrangement_oracle(ctx, a, ts)
            for t, value in zip(ts, values):
                assert weighted_rearrangement_oracle(ctx, a, float(t)) == value
                assert mu(float(t)) == pytest.approx(value, abs=1e-10)


def _ky_fan_excess(rearranged, a, b):
    """The largest relative excess of ``int_0^t`` of the rearrangement of
    ``a + b`` over the sum of those of ``a`` and ``b``, at every breakpoint of
    the three rearrangements."""
    fs = [rearranged(x) for x in (a + b, a, b)]
    t = np.concatenate([f.breakpoints for f in fs])
    # the integral is piecewise linear between the breakpoints
    lhs, ia, ib = (
        np.interp(t, f.breakpoints, np.append(0.0, (f.values * np.diff(f.breakpoints)).cumsum()))
        for f in fs
    )
    return float(((lhs - ia - ib) / np.maximum(ia + ib, math.ulp(0.0))).max())


class TestStructuralProperties:
    def test_small_t_limit_is_operator_norm(self):
        rng = rng_from_seed(52)
        for _ in range(25):
            ctx = random_context(rng)
            a = random_operator(rng, ctx.algebra)
            t0 = 1e-9 * ctx.weight.total()
            assert weighted_rearrangement(ctx, a)(t0) == pytest.approx(a.norm(), abs=1e-9)

    def test_distribution_bound_at_rearrangement_values(self):
        rng = rng_from_seed(53)
        for _ in range(25):
            ctx = random_context(rng)
            a = random_operator(rng, ctx.algebra)
            mu = weighted_rearrangement(ctx, a)
            d = weighted_distribution(ctx, a)
            for t in np.concatenate([mu.breakpoints, rng.uniform(0, 5, 5)]):
                assert d(mu(float(t))) <= float(t) + 1e-12

    def test_abs_adjoint_and_scaling(self):
        rng = rng_from_seed(54)
        for _ in range(20):
            ctx = random_context(rng)
            a = random_operator(rng, ctx.algebra)
            mu = weighted_rearrangement(ctx, a)
            assert step_equal(mu, weighted_rearrangement(ctx, absolute(a)), 1e-10, 1e-10)
            assert step_equal(mu, weighted_rearrangement(ctx, a.T), 1e-10, 1e-10)
            lam = float(rng.uniform(-2, 2))
            assert step_equal(
                weighted_rearrangement(ctx, lam * a), mu.scaled(abs(lam)), 1e-10, 1e-10
            )

    def test_weighted_ky_fan_inequality_needs_a_non_increasing_density(self):
        # int_0^t mu^w(a + b) <= int_0^t mu^w(a) + int_0^t mu^w(b) at every
        # breakpoint; the control rearranges the same pairs under an
        # increasing density, which StepWeight turns away, and breaks it
        up = DensityMeasure(StepFunction([0, 1, 2, 3], [0.2, 1.0, 3.0]))
        rng = rng_from_seed(62)
        control = 0.0
        for _ in range(300):
            ctx = random_context(rng)
            a, b = random_operator(rng, ctx.algebra), random_operator(rng, ctx.algebra)
            assert _ky_fan_excess(lambda x: weighted_rearrangement(ctx, x), a, b) <= 1e-12
            control = max(
                control, _ky_fan_excess(lambda x: rearrange(singular_value_function(x), up), a, b)
            )
        assert control > 0.1

    def test_equivalent_projection_traces_match(self):
        v = Operator(Algebra.matrix_blocks([2], [1.0]), blocks=[np.array([[0.0, 1.0], [0.0, 0.0]])])
        ctx = WeightedContext(v.algebra, WEIGHT_21)
        from wrearr import partial_isometry_conjugates

        p, q = partial_isometry_conjugates(v)
        assert weighted_trace(ctx, p) == pytest.approx(weighted_trace(ctx, q), abs=1e-12)

    def test_disjoint_projection_inequality(self):
        alg = Algebra.matrix_blocks([1, 1, 1, 1], [1.0, 0.5, 2.0, 1.0])
        ctx = WeightedContext(alg, WEIGHT_21)
        p = Projection.from_support_mask(alg, [True, False, False, False])
        q = Projection.from_support_mask(alg, [False, True, True, False])
        assert weighted_trace(ctx, p) <= weighted_trace(ctx, q.complement()) + 1e-12


# np.any(x < 0) is False for NaN, so each of these once returned nan
NAN_ENTRY_POINTS = {
    "Measure.cumulative": lambda x: DensityMeasure(StepFunction([0.0, 1.0], [2.0])).cumulative(x),
    "Measure.piece_masses": lambda x: LEBESGUE.piece_masses(np.append(0.0, x)),
    "StepWeight.cumulative_inverse": lambda x: StepWeight(
        StepFunction([0.0, 1.0], [2.0])).cumulative_inverse(x),
    "ExpWeight.cumulative_inverse": lambda x: ExpWeight().cumulative_inverse(x),
    "OrliczFunction.__call__": lambda x: norms_mod.power(2)(x),
    "StepFunction.__init__-breakpoints": lambda x: StepFunction(
        np.append(0.0, x), np.ones(np.size(x))),
    "StepFunction.__init__-values": lambda x: StepFunction(np.arange(np.size(x) + 1.0), x),
    "StepFunction.__call__": lambda x: StepFunction([0.0, 1.0, 2.0], [2.0, 1.0])(x),
    "weighted_rearrangement_oracle": lambda x: weighted_rearrangement_oracle(CTX_312, DIAG_312, x),
    "Operator.__init__-block": lambda x: Operator(
        Algebra.matrix_blocks([np.size(x) + 1], [1.0]), blocks=[np.diag(np.append(0.5, x))]),
}
# the three measure kinds, each through the checks it shares with the others
_MEASURES = {
    "lebesgue": LEBESGUE,
    "density": DensityMeasure(StepFunction([0.0, 1.0], [2.0])),
    "exp": ExpWeight(),
}
for _kind, _m in _MEASURES.items():
    NAN_ENTRY_POINTS[f"{_kind}.cumulative"] = _m.cumulative
    NAN_ENTRY_POINTS[f"{_kind}.piece_masses"] = _m.piece_masses


@pytest.mark.parametrize("x", [math.nan, [0.5, math.nan]], ids=["scalar", "array"])
@pytest.mark.parametrize("call", NAN_ENTRY_POINTS.values(), ids=NAN_ENTRY_POINTS.keys())
def test_domain_checks_reject_nan(call, x):
    with pytest.raises(ValidationError):
        call(x)


@pytest.mark.parametrize("x", [np.array(math.nan), np.float64(math.nan)], ids=["0-d", "float64"])
@pytest.mark.parametrize("call", NAN_ENTRY_POINTS.values(), ids=NAN_ENTRY_POINTS.keys())
def test_domain_checks_reject_0d_nan(call, x):
    with pytest.raises(ValidationError):
        call(x)


@pytest.mark.parametrize("m", _MEASURES.values(), ids=_MEASURES.keys())
def test_0d_input_gives_a_python_float(m):
    f = StepFunction([0.0, 1.0, 2.0], [2.0, 1.0])
    for t in (np.array(1.5), np.float64(1.5), 1.5):
        assert type(f(t)) is float and f(t) == 1.0
        assert type(m.cumulative(t)) is float and m.cumulative(t) == m.cumulative([1.5])[0]
    assert type(weighted_rearrangement_oracle(CTX_312, DIAG_312, np.array(0.5))) is float
    # a 0-d breakpoint array has no pieces
    with pytest.raises(ValidationError, match="1-d array of breakpoints"):
        m.piece_masses(np.array(1.5))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_payloads_are_rejected(value):
    with pytest.raises(ValidationError, match="non-finite"):
        Operator(M3, blocks=[np.diag([1.0, value, 2.0])])
    with pytest.raises(ValidationError, match="finite"):
        StepFunction([0.0, 1.0, value], [1.0, 2.0])
    if value == math.inf:  # a step function may take +inf; a multiplier may not
        with pytest.raises(ValidationError, match="step payload must be finite"):
            Operator(INTERVAL_02, step=StepFunction([0.0, 1.0], [value]))
        with pytest.raises(ValidationError, match="density must be finite"):
            DensityMeasure(StepFunction([0.0, 1.0], [value]))
