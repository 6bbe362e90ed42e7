import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrearr import (
    LEBESGUE,
    DensityMeasure,
    ExpWeight,
    NormOverflowError,
    StepFunction,
    StepWeight,
    ValidationError,
    distribution,
    generalized_inverse,
    integrate,
    rearrange,
    step_add,
    step_equal,
    step_mul,
)

THREE_STEP = StepFunction([0, 1, 2, 3], [3, 2, 1])
DENSITY_21 = StepFunction([0, 1, 3], [2, 1])
WEIGHTED = DensityMeasure(DENSITY_21)
EXP = ExpWeight()


def riemann_refinement_integral(f, density, upper=math.inf):
    # midpoint sum over the union grid; exact for step integrands
    grid = np.union1d(f.breakpoints, density.breakpoints)
    if math.isfinite(upper):
        grid = np.union1d(grid, [upper])
        grid = grid[grid <= upper]
    mids = 0.5 * (grid[:-1] + grid[1:])
    return float(np.sum(f(mids) * density(mids) * np.diff(grid)))


def superlevel_measure(f, m, level):
    # direct measure of {f >= level}, enumerating the pieces
    total = 0.0
    for a, b, v in f.pieces():
        if v >= level:
            total += m.cumulative(b) - m.cumulative(a)
    return total


def scan_inverse(d, t):
    # the infimum in inf{s : d(s) <= t} is attained at 0 or a breakpoint
    for s in d.breakpoints:
        if d(float(s)) <= t:
            return float(s)
    return d.support_end


@st.composite
def step_functions(draw, max_pieces=5, levels=st.floats(0.0, 5.0)):
    k = draw(st.integers(1, max_pieces))
    widths = draw(st.lists(st.floats(0.1, 2.0), min_size=k, max_size=k))
    values = draw(st.lists(levels, min_size=k, max_size=k))
    return StepFunction(np.concatenate([[0.0], np.cumsum(widths)]), values)


def canonical_pieces(breakpoints, values):
    """Pure-Python canonical form: (start, end, value) pieces with the empty
    ones dropped, equal neighbours merged and the zero tail trimmed."""
    pieces = []
    for start, end, v in zip(breakpoints, breakpoints[1:], values):
        if end == start:
            continue
        if pieces and pieces[-1][2] == v:
            pieces[-1] = (pieces[-1][0], end, v)
        else:
            pieces.append((start, end, v))
    while pieces and pieces[-1][2] == 0.0:
        pieces.pop()
    return pieces


@st.composite
def raw_pieces(draw):
    """Breakpoints and values as the internal constructions pass them: ties,
    zero tails, zero-length pieces and ``+inf`` all drawn often."""
    k = draw(st.integers(0, 8))
    widths = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.5]), min_size=k, max_size=k))
    level = st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.inf]), st.floats(-5.0, 5.0))
    values = draw(st.lists(level, min_size=k, max_size=k))
    return np.concatenate([[0.0], np.cumsum(widths)]), np.array(values, dtype=float)


@st.composite
def levels_and_masses(draw):
    """Non-negative levels, distinct or tied (among them ``inf`` and zeros of
    both signs), each with an arbitrary positive mass."""
    levels = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, math.inf]), st.floats(0.0, 1e300)),
        max_size=40,
    ))
    masses = draw(st.lists(st.floats(5e-324, 1e300), min_size=len(levels), max_size=len(levels)))
    return np.array(levels, dtype=float), np.array(masses, dtype=float)


class TestConstruction:
    def test_canonical_merges_equal_neighbours(self):
        f = StepFunction([0, 1, 2, 4], [2, 2, 1])
        assert list(f.breakpoints) == [0, 2, 4]
        assert list(f.values) == [2, 1]

    def test_canonical_strips_zero_tail(self):
        f = StepFunction([0, 1, 2, 3], [1, 0, 0])
        assert list(f.breakpoints) == [0, 1]
        assert list(f.values) == [1]

    def test_zero_function(self):
        z = StepFunction.zero()
        assert z.is_zero()
        assert z(0.0) == 0.0 and z(17.3) == 0.0
        assert StepFunction([0, 1], [0.0]) == z

    def test_interior_zero_survives(self):
        f = StepFunction([0, 1, 2, 3], [1, 0, 2])
        assert f.piece_count == 3
        assert f(1.5) == 0.0

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(ValidationError):
            StepFunction([1, 2], [1.0])
        with pytest.raises(ValidationError):
            StepFunction([0, 2, 2], [1.0, 2.0])
        with pytest.raises(ValidationError):
            StepFunction([0, math.inf], [1.0])
        with pytest.raises(ValidationError):
            StepFunction([0, 1, 2], [1.0])

    def test_scalar_values_give_one_piece(self):
        f = StepFunction([0, 1], 5.0)
        assert list(f.breakpoints) == [0, 1]
        assert list(f.values) == [5.0]
        assert StepFunction([0], []).is_zero()
        with pytest.raises(ValidationError):
            StepFunction([0, 1], None)

    def test_rejects_nan_and_minus_inf(self):
        with pytest.raises(ValidationError):
            StepFunction([0, 1], [math.nan])
        with pytest.raises(ValidationError):
            StepFunction([0, 1], [-math.inf])

    def test_evaluation_rejects_nan(self):
        with pytest.raises(ValidationError):
            THREE_STEP(math.nan)
        with pytest.raises(ValidationError):
            THREE_STEP([0.5, math.nan])

    def test_plus_inf_is_a_value(self):
        f = StepFunction([0, 1, 2], [math.inf, 1.0])
        assert f(0.5) == math.inf

    @given(step_functions())
    @settings(max_examples=60)
    def test_evaluation_is_right_continuous(self, f):
        for a, _, v in f.pieces():
            assert f(a) == v
        assert f(f.support_end) == 0.0

    @given(raw_pieces())
    @settings(max_examples=200)
    def test_canonical_input_is_kept_read_only(self, raw):
        bp, va = raw
        f = StepFunction._raw(bp.copy(), va.copy())
        assert list(f.pieces()) == canonical_pieces(bp.tolist(), va.tolist())
        assert not f.breakpoints.flags.writeable and not f.values.flags.writeable
        # canonical arrays go back in unchanged; the constructor keeps its own copy
        cbp, cva = f.breakpoints.copy(), f.values.copy()
        g = StepFunction(cbp, cva)
        assert g == f
        assert not g.breakpoints.flags.writeable and not g.values.flags.writeable
        cbp += 1.0
        cva[:] = 7.0
        assert g == f
        # the internal constructor keeps canonical input as given
        kept_bp, kept_va = f.breakpoints.copy(), f.values.copy()
        h = StepFunction._raw(kept_bp, kept_va)
        assert h.breakpoints is kept_bp and h.values is kept_va
        assert not kept_bp.flags.writeable and not kept_va.flags.writeable

    @given(step_functions())
    @settings(max_examples=60)
    def test_canonical_form_is_idempotent(self, f):
        again = StepFunction(f.breakpoints, f.values)
        assert again == f


class TestMeasure:
    def test_lebesgue_interval_mass(self):
        assert LEBESGUE.piece_masses([1.0, 4.0]).tolist() == [3.0]
        assert LEBESGUE.piece_masses([2.0, 2.0]).tolist() == [0.0]
        assert LEBESGUE.piece_masses([0.0, math.inf]).tolist() == [math.inf]

    def test_step_density_cumulative_is_piecewise_linear(self):
        assert WEIGHTED.cumulative(0.5) == 1.0
        assert WEIGHTED.cumulative(1.0) == 2.0
        assert WEIGHTED.cumulative(2.5) == 3.5
        assert WEIGHTED.cumulative(math.inf) == 4.0

    def test_exponential_density_closed_form(self):
        whole, far = EXP.piece_masses([0.0, math.inf]), EXP.piece_masses([1.0, 2.0])
        assert whole[0] == pytest.approx(1.0, abs=1e-15)
        assert far[0] == pytest.approx(math.exp(-1) - math.exp(-2), abs=1e-15)

    def test_rejects_bad_density(self):
        with pytest.raises(ValidationError):
            DensityMeasure(StepFunction([0, 1, 2], [1.0, -1.0]))
        with pytest.raises(ValidationError):
            DensityMeasure(StepFunction([0, 1], [math.inf]))


class TestPieceMasses:
    """Each kind's piece masses are its cumulative mass at a piece's end less
    that at its start, computed one piece at a time."""

    # breakpoints 0, 0.3, 1, 2.5, 4, 7.25, cut at `upper`: inside a piece, at a
    # breakpoint, past the support, and not at all
    F = StepFunction([0, 0.3, 1, 2.5, 4, 7.25], [1.0, 2.0, 0.5, 3.0, 1.5])
    KINDS = pytest.mark.parametrize(
        "m",
        [LEBESGUE, WEIGHTED, EXP, StepWeight(DENSITY_21)],
        ids=["lebesgue", "step", "exp", "step-weight"],
    )

    @staticmethod
    def interval_masses(m, bp):
        return np.array([m.cumulative(b) - m.cumulative(a) for a, b in zip(bp[:-1], bp[1:])])

    @pytest.mark.parametrize("upper", [math.inf, 1.7, 2.5, 0.3, 0.1, 9.0])
    @KINDS
    def test_equal_to_interval_masses_bit_for_bit(self, m, upper):
        f = self.F if math.isinf(upper) else step_mul(self.F, StepFunction([0, upper], [1.0]))
        bp = f.breakpoints
        assert np.array_equal(m.piece_masses(bp), self.interval_masses(m, bp))

    @KINDS
    @given(f=step_functions(max_pieces=40))
    @settings(max_examples=60, deadline=None)
    def test_equal_to_interval_masses_on_random_functions(self, m, f):
        bp = f.breakpoints
        assert np.array_equal(m.piece_masses(bp), self.interval_masses(m, bp))


class TestIntegrate:
    def test_indicator_against_exponential_weight(self):
        value = integrate(StepFunction([0, 2], [1.0]), EXP)
        assert value == pytest.approx(1 - math.exp(-2), abs=1e-15)

    def test_zero_function_any_measure(self):
        for m in (LEBESGUE, WEIGHTED, EXP):
            assert integrate(StepFunction.zero(), m) == 0.0

    def test_three_step_against_step_density(self):
        oracle = riemann_refinement_integral(THREE_STEP, DENSITY_21)
        assert oracle == 9.0
        assert integrate(THREE_STEP, WEIGHTED) == pytest.approx(9.0, abs=1e-12)

    def test_partial_upper_limit(self):
        # the integral over [0, 1.5) is the integral of f cut off at 1.5
        oracle = riemann_refinement_integral(THREE_STEP, DENSITY_21, upper=1.5)
        head = step_mul(THREE_STEP, StepFunction([0, 1.5], [1.0]))
        assert integrate(head, WEIGHTED) == pytest.approx(oracle, abs=1e-12)

    def test_infinite_value_on_positive_mass(self):
        f = StepFunction([0, 1], [math.inf])
        assert integrate(f, LEBESGUE) == math.inf

    def test_infinite_value_on_null_set_contributes_nothing(self):
        # the density vanishes beyond 3, where f is infinite
        f = StepFunction([0, 1, 3, 4], [1.0, 0.0, math.inf])
        assert integrate(f, WEIGHTED) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize(
        "f,m",
        [
            # every value and piece mass is finite, but the sum is at least
            # 1.9e308; the float range ends at 1.8e308, so inf would be wrong
            (StepFunction([0, 1, 2], [1e308, 0.9e308]), LEBESGUE),
            (StepFunction([0, 1, 2], [1e308, 0.9e308]), WEIGHTED),
            # the terms are +-2e308, so the float sum is inf - inf = nan
            (StepFunction([0, 2, 4], [1e308, -1e308]), LEBESGUE),
        ],
        ids=["lebesgue", "step", "signed"],
    )
    def test_sum_of_finite_terms_beyond_the_float_range_is_an_error(self, f, m):
        with pytest.raises(NormOverflowError):
            integrate(f, m)

    # W(40) and W(41) both round to 1.0 under the exponential weight, so the
    # piece [40, 41) gets mass 0 (ROADMAP item 2); the fix must flip these
    @pytest.mark.xfail(strict=True, reason="piece masses cancel on far pieces")
    @pytest.mark.parametrize(
        "value,expected", [(5.0, 1.3427360329783e-17), (math.inf, math.inf)], ids=["finite", "inf"]
    )
    def test_far_piece_under_the_exponential_weight(self, value, expected):
        assert integrate(StepFunction([0, 40, 41], [0, value]), EXP) == pytest.approx(
            expected, rel=1e-12, abs=0.0
        )


class TestDistribution:
    def test_indicator_lebesgue(self):
        d = distribution(StepFunction([0, 5], [1.0]), LEBESGUE)
        assert d == StepFunction([0, 1], [5.0])

    def test_three_step_with_density(self):
        d = distribution(THREE_STEP, WEIGHTED)
        for level, expected in [(1.0, 4.0), (2.0, 3.0), (3.0, 2.0)]:
            assert superlevel_measure(THREE_STEP, WEIGHTED, level) == expected
        assert d == StepFunction([0, 1, 2, 3], [4.0, 3.0, 2.0])

    def test_zero_function(self):
        assert distribution(StepFunction.zero(), LEBESGUE).is_zero()

    def test_rejects_negative_values(self):
        for entry in (distribution, rearrange):
            with pytest.raises(ValidationError, match="non-negative"):
                entry(StepFunction([0, 1], [-1.0]), LEBESGUE)

    def test_rejects_infinite_value_on_positive_mass(self):
        for entry in (distribution, rearrange):
            with pytest.raises(ValidationError, match="positive mass"):
                entry(StepFunction([0, 1], [math.inf]), LEBESGUE)

    def test_infinite_value_on_null_set_is_invisible(self):
        f = StepFunction([0, 1, 3, 4], [2.0, 1.0, math.inf])
        d = distribution(f, WEIGHTED)
        assert d == StepFunction([0, 1, 2], [4.0, 2.0])

    def test_shape_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = rng.integers(1, 6)
            f = StepFunction(
                np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.5, k))]),
                rng.uniform(0.0, 4.0, k),
            )
            m = WEIGHTED if rng.random() < 0.5 else LEBESGUE
            d = distribution(f, m)
            assert d.is_nonincreasing()
            for a, _, v in d.pieces():
                assert d(a) == v


class TestRearrange:
    def test_decreasing_function_is_fixed_by_lebesgue(self):
        assert rearrange(THREE_STEP, LEBESGUE) == THREE_STEP

    def test_two_level_sort(self):
        f = StepFunction([0, 1, 2], [1.0, 3.0])
        assert rearrange(f, LEBESGUE) == StepFunction([0, 1, 2], [3.0, 1.0])

    def test_three_step_with_density(self):
        r = rearrange(THREE_STEP, WEIGHTED)
        assert r == StepFunction([0, 2, 3, 4], [3.0, 2.0, 1.0])
        d = distribution(THREE_STEP, WEIGHTED)
        rng = np.random.default_rng(11)
        for t in rng.uniform(0, 5, 200):
            assert r(float(t)) == scan_inverse(d, float(t))

    def test_values_on_null_sets_disappear(self):
        # the density vanishes beyond 3, hiding the value on [3, 4)
        f = StepFunction([0, 3, 4], [1.0, 5.0])
        assert rearrange(f, WEIGHTED) == StepFunction([0, 4], [1.0])

    def test_generalized_inverse_requires_monotone(self):
        with pytest.raises(ValidationError):
            generalized_inverse(StepFunction([0, 1, 2], [1.0, 2.0]))

    @given(step_functions(levels=st.sampled_from([0.0, 0.5, 1.0, 2.5])))
    @settings(max_examples=60)
    def test_equimeasurable_under_lebesgue(self, f):
        # few levels, so ties need not be neighbours; the density vanishes on [1, 2)
        holed = DensityMeasure(StepFunction([0, 1, 2, 4], [2.0, 0.0, 1.0]))
        for m in (LEBESGUE, holed, EXP):
            r = rearrange(f, m)
            assert r.is_nonincreasing()
            d_f = distribution(f, m)
            d_r = distribution(r, LEBESGUE)
            grid = np.union1d(d_f.breakpoints, d_r.breakpoints)
            assert np.allclose(d_f(grid), d_r(grid), atol=1e-10)
            # distribution shares rearrange's sort; the superlevel sets do not
            for level in f.values[f.values > 0]:
                assert superlevel_measure(r, LEBESGUE, level) == pytest.approx(
                    superlevel_measure(f, m, level), abs=1e-10
                )
            assert integrate(r, LEBESGUE) == pytest.approx(integrate(f, m), rel=1e-12, abs=1e-12)

    def test_integral_preserved_on_random_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            k = rng.integers(1, 6)
            f = StepFunction(
                np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.5, k))]),
                rng.uniform(0.0, 4.0, k),
            )
            m = [LEBESGUE, WEIGHTED, EXP][rng.integers(0, 3)]
            assert integrate(rearrange(f, m), LEBESGUE) == pytest.approx(
                integrate(f, m), rel=1e-12, abs=1e-12
            )

    def test_distribution_bound_at_rearrangement(self):
        d = distribution(THREE_STEP, WEIGHTED)
        r = rearrange(THREE_STEP, WEIGHTED)
        for t in np.linspace(0, 5, 101):
            assert d(r(float(t))) <= t + 1e-12


class TestPointwiseOps:
    def test_add_on_refinement(self):
        f = StepFunction([0, 2], [1.0])
        g = StepFunction([0, 1, 3], [2.0, 1.0])
        assert step_add(f, g) == StepFunction([0, 1, 2, 3], [3.0, 2.0, 1.0])

    def test_mul_zero_kills_infinity(self):
        f = StepFunction([0, 1, 2], [math.inf, 1.0])
        g = StepFunction([0, 1, 2], [0.0, 2.0])
        assert step_mul(f, g) == StepFunction([0, 1, 2], [0.0, 2.0])

    def test_scaled_by_zero(self):
        f = StepFunction([0, 1], [math.inf])
        assert f.scaled(0.0).is_zero()

    def test_map_values_requires_zero_fixed_point(self):
        f = StepFunction([0, 1], [2.0])
        with pytest.raises(ValidationError):
            f.map_values(lambda v: v + 1.0)


class TestStepEqual:
    def test_tolerates_breakpoint_jitter(self):
        f = StepFunction([0, 1, 2], [2.0, 1.0])
        g = StepFunction([0, 1 + 1e-13, 2], [2.0, 1.0])
        assert step_equal(f, g)

    def test_tolerates_value_jitter_across_merges(self):
        f = StepFunction([0, 1, 2], [1.0, 1.0 + 1e-12])
        g = StepFunction([0, 2], [1.0])
        assert f.piece_count != g.piece_count
        assert step_equal(f, g)

    def test_ignores_a_sliver_of_the_refinement(self):
        f = StepFunction([0, 1, 1 + 1e-13, 2], [2.0, 7.0, 1.0])
        g = StepFunction([0, 1, 2], [2.0, 1.0])
        assert f.piece_count != g.piece_count
        assert step_equal(f, g)

    def test_compares_a_narrow_piece_of_both_functions(self):
        f = StepFunction([0, 1e-13], [5.0])
        g = StepFunction([0, 1e-13], [1.0])
        assert not step_equal(f, g)

    def test_detects_value_gap(self):
        f = StepFunction([0, 1], [1.0])
        g = StepFunction([0, 1], [1.0 + 1e-6])
        assert not step_equal(f, g)

    def test_infinities_compare_equal(self):
        f = StepFunction([0, 1, 2], [math.inf, 1.0])
        assert step_equal(f, f)


class TestAgainstTheNumpyWrappers:
    """The methods and slice differences the library calls give the bits the
    numpy wrappers they replaced gave; the wrappers are the reference."""

    @staticmethod
    def _functions(rng):
        for k in range(1, 9):
            bp = np.concatenate([[0.0], rng.uniform(0.1, 2.0, k).cumsum()])
            values = rng.choice([0.0, 0.5, 1.0, 3.0, math.inf], size=k)
            yield StepFunction(bp, values)
        yield StepFunction.zero()
        yield StepFunction([-0.0, 1.0, 2.0], [2.0, 1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_evaluation_and_refinement(self, seed):
        rng = np.random.default_rng(seed)
        fs = list(self._functions(rng))
        t = np.concatenate([[0.0, -0.0, math.inf], rng.uniform(0.0, 20.0, 13)])
        for f in fs:
            idx = np.searchsorted(f.breakpoints, t, side="right") - 1
            expected = np.zeros_like(t)
            expected[idx < f.values.size] = f.values[idx[idx < f.values.size]]
            assert f(t).tobytes() == expected.tobytes()
            assert f(t.reshape(4, 4)).tobytes() == expected.tobytes()
            assert f(t.reshape(4, 4)).shape == (4, 4)
            diff = np.diff(f.values)
            assert f.is_nonincreasing() == bool(np.all(f.values >= 0) and np.all(diff < 0))
            for m in (LEBESGUE, EXP, WEIGHTED):
                assert m.piece_masses(f.breakpoints).tobytes() == np.diff(
                    m.cumulative(f.breakpoints)).tobytes()
            for g in fs:
                grid = step_add(f, g).breakpoints
                union = np.union1d(f.breakpoints, g.breakpoints)
                assert set(grid.tolist()) <= set(union.tolist())
                assert (f == g) == (np.array_equal(f.breakpoints, g.breakpoints)
                                    and np.array_equal(f.values, g.values))

    def test_union_matches_np_union1d_and_keeps_the_first_zero(self):
        from wrearr.stepfn import _union

        rng = np.random.default_rng(9)
        for _ in range(200):
            a, b = rng.choice([0.5, 1.0, 2.0, 3.25, math.inf], size=(2, int(rng.integers(1, 30))))
            zero = rng.choice([0.0, -0.0])
            for x, y in ((a, b), (np.append(zero, a), b), (np.append(zero, a), np.append(zero, b))):
                assert _union(x, y).tobytes() == np.union1d(x, y).tobytes()
            # zeros of both signs: np.union1d's pick depends on its hash table;
            # _union keeps the first
            first = _union(np.append(zero, a), np.append(-zero, b))[0]
            assert first == 0.0 and np.signbit(first) == np.signbit(zero)

    def test_members_match_np_isin(self):
        from wrearr.stepfn import _members

        rng = np.random.default_rng(11)
        pool = np.array([0.0, -0.0, 0.25, 1.0, 2.0, 3.5, 7.0, 1e308])
        for _ in range(300):
            # strictly increasing, starting at a zero of either sign
            bp = np.concatenate([rng.choice(pool[:2], 1), np.unique(rng.choice(pool[2:], 4))])
            x = rng.choice(pool, size=int(rng.integers(1, 12)))
            assert (_members(x, bp) == np.isin(x, bp)).all()
        # -0.0 against 0.0 both ways, and points past either end
        for bp, x, inside in (
            ([0.0, 1.0], [-0.0, 0.0, 2.0], [True, True, False]),
            ([-0.0, 1.0], [0.0, -1.0, 1.0], [True, False, True]),
        ):
            assert _members(np.array(x), np.array(bp)).tolist() == inside

    @staticmethod
    def _stable_decreasing(levels, masses, total):
        order = np.argsort(-levels, kind="stable")
        ends = np.minimum(np.cumsum(masses[order]), total)
        return StepFunction._raw(np.concatenate([[0.0], ends]), levels[order])

    @given(atoms=levels_and_masses(), capped=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_decreasing_is_the_stable_sort_bit_for_bit(self, atoms, capped):
        from wrearr.stepfn import _decreasing

        levels, masses = atoms
        total = masses.sum() / 2 if capped else math.inf
        expected = self._stable_decreasing(levels, masses, total)
        got = _decreasing(levels, masses, total)
        assert got.breakpoints.tobytes() == expected.breakpoints.tobytes()
        assert got.values.tobytes() == expected.values.tobytes()

    @pytest.mark.parametrize("size", [17, 200, 1000])
    @pytest.mark.parametrize("tied", [False, True])
    def test_decreasing_on_long_levels(self, size, tied):
        # the lengths of the multipliers the norms sort; from 17 entries on,
        # numpy's default sort is not an insertion sort, so not stable
        from wrearr.stepfn import _decreasing

        rng = np.random.default_rng(size)
        levels = rng.uniform(0.05, 2.0, size)
        if tied:
            levels = rng.choice([0.0, -0.0, 0.5, 1.0, math.inf], size)
        masses = rng.uniform(0.0, 1.0, size) * 2.0 ** rng.integers(-60, 60, size)
        expected = self._stable_decreasing(levels, masses, math.inf)
        got = _decreasing(levels, masses)
        assert got.breakpoints.tobytes() == expected.breakpoints.tobytes()
        assert got.values.tobytes() == expected.values.tobytes()

    def test_breakpoint_order_is_checked_without_overflow(self):
        # the difference -1e308 - 1e308 overflowed to -inf with a RuntimeWarning;
        # a comparison cannot overflow
        with pytest.raises(ValidationError, match="strictly increasing"):
            StepFunction([0.0, 1e308, -1e308], [1.0, 2.0])
