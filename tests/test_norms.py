import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrearr import (
    LEBESGUE,
    Algebra,
    DensityMeasure,
    ExpWeight,
    NormOverflowError,
    NormSpec,
    OrliczFunction,
    Operator,
    ParseError,
    StepFunction,
    StepWeight,
    ValidationError,
    WeightedContext,
    capped,
    cosh_minus_one,
    l_log_l,
    luxemburg_norm,
    membership_route_a,
    membership_route_b,
    modular,
    norm_route_a,
    norm_route_b,
    power,
    singular_value_function,
    weighted_rearrangement,
    weighted_trace,
)
from wrearr import norms
from wrearr.generate import random_context, random_operator, rng_from_seed
from wrearr.norms import _atom_modular, _atoms

M3 = Algebra.matrix_blocks([3], [1.0])
DIAG_312 = Operator.from_diagonal(M3, [3.0, 1.0, 2.0])
CTX_312 = WeightedContext(M3, StepWeight(StepFunction([0, 1, 3], [2.0, 1.0])))
# 0 on [0, 1] and infinite beyond: its Luxemburg norm is the essential supremum
LINF = NormSpec.lp(math.inf).psi
ALL_PSIS = [power(1), power(2), power(3), cosh_minus_one(), l_log_l(), capped(1.0), LINF]
# null on [1, 2) and beyond 3, so pieces there carry no mass
GAPPED = DensityMeasure(StepFunction([0, 1, 2, 3], [2.0, 0.0, 1.0]))
EXP = ExpWeight()
# infinite at every u > 0, so only functions vanishing almost everywhere are members
ZERO_THRESHOLD = OrliczFunction("zero-threshold", lambda u: np.where(u > 0, math.inf, 0.0), 0.0)


@st.composite
def step_functions_with_null_infinities(draw):
    """Levels in [0, 5] on [0, 45), but ``inf`` on [40, 41), where GAPPED
    vanishes and the exponential density's mass rounds to zero, and maybe
    on [1, 2), which is null under GAPPED only."""
    cuts = draw(st.lists(st.floats(0.05, 44.9), min_size=1, max_size=8, unique=True))
    bp = np.union1d([0.0, 1.0, 2.0, 3.0, 40.0, 41.0, 45.0], cuts)
    levels = np.array(
        draw(st.lists(st.floats(0.0, 5.0), min_size=bp.size - 1, max_size=bp.size - 1))
    )
    starts = bp[:-1]
    levels[(starts >= 40.0) & (starts < 41.0)] = math.inf
    if draw(st.booleans()):
        levels[(starts >= 1.0) & (starts < 2.0)] = math.inf
    return StepFunction(bp, levels)


def _spread_instance(rng):
    """A multiplier and a step weight whose piece lengths spread over
    10^-40 .. 10^40, so that masses reach far past any fixed scale bracket."""

    def breakpoints(pieces):
        lengths = 10.0 ** rng.integers(-40, 41, size=pieces)
        return np.unique(np.concatenate([[0.0], np.cumsum(lengths)]))

    bp = breakpoints(int(rng.integers(1, 6)))
    interval = Algebra.commutative(bp[-1])
    step = StepFunction(bp, rng.uniform(-2.0, 2.0, size=bp.size - 1))
    wbp = breakpoints(int(rng.integers(1, 4)))
    density = np.sort(rng.uniform(0.1, 2.0, size=wbp.size - 1))[::-1]
    ctx = WeightedContext(interval, StepWeight(StepFunction(wbp, density)))
    return ctx, Operator.multiplier(interval, step)


def _bisected(psi):
    """The same function without its closed-form norm."""
    return OrliczFunction(psi.name, psi._fn, psi.finite_threshold)


# the functions whose norm the bracketed search finds
SEARCHED_PSIS = [cosh_minus_one(), l_log_l()] + [
    _bisected(psi) for psi in (power(3), capped(1.0), LINF)
]


def _spread_multiplier(rng, exp_weight):
    """A multiplier on [0, 10) with 10 to 1000 pieces and levels spread over
    2^+-24, under the exponential weight or a random non-increasing step one."""
    pieces = int(rng.integers(10, 1001))
    bp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, size=pieces))])
    bp *= 10.0 / bp[-1]
    levels = rng.uniform(0.05, 2.0, size=pieces) * np.exp2(rng.uniform(-24.0, 24.0, size=pieces))
    if exp_weight:
        return StepFunction(bp, levels), ExpWeight()
    k = int(rng.integers(1, 7))
    wbp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 3.0, size=k))])
    density = np.sort(rng.uniform(0.1, 3.0, size=k))[::-1]
    return StepFunction(bp, levels), StepWeight(StepFunction(wbp, density))


def _assert_least_scale(psi, f, m, lam):
    """modular(f / lam) <= 1 < modular(f / below), with below = lam (1 - 1e-14),
    or the float below lam where that product rounds to lam itself."""
    levels, masses, _ = _atoms(f, m)
    with np.errstate(over="ignore"):
        assert _atom_modular(psi, levels, masses, lam) <= 1.0
        if lam > math.ulp(0.0):
            below = min(lam * (1.0 - 1e-14), math.nextafter(lam, 0.0))
            assert _atom_modular(psi, levels, masses, below) > 1.0


@st.composite
def extreme_multipliers(draw):
    """A multiplier and a step weight whose levels, piece lengths and densities
    spread over 2^+-1000.  A density is capped where its piece's mass would
    pass 2^1020, so that the weight's total mass stays finite."""

    def powers_of_two(size):
        return np.exp2(draw(st.lists(st.integers(-1000, 1000), min_size=size, max_size=size)))

    def breakpoints(pieces):
        return np.unique(np.concatenate([[0.0], np.cumsum(powers_of_two(pieces))]))

    bp = breakpoints(draw(st.integers(1, 8)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=bp.size - 1, max_size=bp.size - 1))
    step = StepFunction(bp, np.array(signs) * powers_of_two(bp.size - 1))
    wbp = breakpoints(draw(st.integers(1, 4)))
    density = np.sort(powers_of_two(wbp.size - 1))[::-1]
    with np.errstate(over="ignore"):
        cap = np.exp2(1020.0) / np.diff(wbp)
    density = np.minimum.accumulate(np.minimum(density, cap))
    interval = Algebra.commutative(bp[-1])
    ctx = WeightedContext(interval, StepWeight(StepFunction(wbp, density)))
    return ctx, Operator.multiplier(interval, step)


class TestOrliczFunctions:
    @pytest.mark.parametrize("psi", ALL_PSIS, ids=lambda p: p.name)
    def test_vanishes_at_zero_and_diverges(self, psi):
        assert psi(0.0) == 0.0
        assert psi(math.inf) == math.inf

    @pytest.mark.parametrize("psi", ALL_PSIS, ids=lambda p: p.name)
    def test_convexity_on_random_triples(self, psi):
        rng = rng_from_seed(zlib.crc32(psi.name.encode()))  # str hashes are salted per process
        hi = min(psi.finite_threshold, 20.0)
        for _ in range(200):
            a, b = np.sort(rng.uniform(0.0, hi, size=2))
            mid = 0.5 * (a + b)
            assert psi(mid) <= 0.5 * (psi(a) + psi(b)) + 1e-12

    def test_capped_threshold_and_left_continuity(self):
        psi = capped(1.0)
        assert psi.finite_threshold == 1.0
        assert psi(1.0) == 1.0  # finite at the threshold itself
        assert psi(1.0 + 1e-12) == math.inf
        # left continuity at the threshold
        us = 1.0 - np.logspace(-12, -2, 20)
        assert np.allclose(psi(us), us)

    def test_power_requires_p_at_least_one(self):
        with pytest.raises(ValidationError):
            power(0.5)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValidationError):
            power(2)(-1.0)

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, -math.inf])
    def test_rejects_nan_or_negative_finite_threshold(self, threshold):
        # a NaN threshold would make every membership answer False
        with pytest.raises(ValidationError):
            OrliczFunction("bad", lambda u: u * u, threshold)

    @pytest.mark.parametrize(
        "psi, reference",
        [
            (cosh_minus_one(), lambda u: 2.0 * np.sinh(u / 2.0) ** 2),
            (l_log_l(), lambda u: u * np.log1p(u)),
        ],
        ids=["cosh-1", "llogl"],
    )
    @pytest.mark.parametrize(
        "u",
        [0.0, 2.0**-1000, 1.5, 2.0**1000, math.inf,
         [0.0, 2.0**-1000, 1e-8, 0.5, 1.0, 3.0, 700.0, 1421.0, 2.0**1000, math.inf]],
        ids=["0", "2^-1000", "1.5", "2^1000", "inf", "1-d"],
    )
    def test_in_place_functions_give_the_bits_of_the_plain_expressions(self, psi, reference, u):
        # read-only, so that a write to the argument raises
        u = np.array(u)
        u.setflags(write=False)
        before = u.tobytes()
        with np.errstate(over="ignore"):
            got, expected = np.asarray(psi._fn(u)), np.asarray(reference(u))
        assert got.shape == u.shape and got.tobytes() == expected.tobytes()
        assert u.tobytes() == before

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, 7.0])
    def test_power_norm_gives_the_bits_of_the_plain_expression(self, p):
        rng = rng_from_seed(int(p * 10))
        levels = rng.uniform(0.05, 2.0, 500) * np.exp2(rng.uniform(-24, 24, 500))
        masses = rng.uniform(0.0, 1.0, 500)
        top = levels.max()
        expected = float(top * np.dot((levels / top) ** p, masses) ** (1.0 / p))
        assert norms._power_norm(levels, masses, p) == expected

    def test_rejects_a_function_not_vanishing_at_zero(self):
        with pytest.raises(ValidationError, match="vanish at 0"):
            OrliczFunction("shifted", lambda u: u + 1.0)

    def test_rejects_a_function_finite_at_infinity(self):
        with pytest.raises(ValidationError, match="infinite at infinity"):
            OrliczFunction("bounded", lambda u: np.minimum(u, 1.0))


class TestModular:
    def test_identity_function(self):
        assert modular(power(1), StepFunction([0, 1], [1.0]), LEBESGUE) == 1.0

    def test_capped_blows_up_past_threshold(self):
        f = StepFunction([0, 2], [2.0])
        assert modular(capped(1.0), f, LEBESGUE) == math.inf

    def test_square_of_rectangle(self):
        f = StepFunction([0, 3], [2.0])
        assert modular(power(2), f, LEBESGUE) == pytest.approx(12.0, abs=1e-12)

    def test_rejects_signed_input(self):
        with pytest.raises(ValidationError):
            modular(power(2), StepFunction([0, 1], [-1.0]), LEBESGUE)


class TestLuxemburgNorm:
    def test_identity_gives_l1(self):
        rng = rng_from_seed(77)
        for _ in range(20):
            k = rng.integers(1, 5)
            f = StepFunction(
                np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, k))]),
                rng.uniform(0.1, 3.0, k),
            )
            l1 = modular(power(1), f, LEBESGUE)
            assert luxemburg_norm(power(1), f, LEBESGUE) == pytest.approx(l1, rel=1e-9)

    def test_indicator_square_norm(self):
        f = StepFunction([0, 4], [1.0])
        assert luxemburg_norm(power(2), f, LEBESGUE) == pytest.approx(2.0, rel=1e-9)

    def test_zero_function(self):
        assert luxemburg_norm(power(2), StepFunction.zero(), LEBESGUE) == 0.0

    def test_indicator_power_p_closed_form(self):
        for p in (1.0, 2.0, 3.0):
            for length in (0.5, 1.0, 4.0):
                f = StepFunction([0, length], [1.0])
                assert luxemburg_norm(power(p), f, LEBESGUE) == pytest.approx(
                    length ** (1.0 / p), rel=1e-9
                )

    def test_null_support_has_zero_norm(self):
        m = DensityMeasure(StepFunction([0, 1], [1.0]))
        f = StepFunction([0, 2, 3], [0.0, 5.0])  # lives where the density vanishes
        assert luxemburg_norm(power(2), f, m) == 0.0

    def test_capped_norm_is_max_of_l1_and_sup(self):
        # scales below the sup give an infinite modular, above it the mean
        f = StepFunction([0, 0.25], [2.0])
        value = luxemburg_norm(capped(1.0), f, LEBESGUE)
        assert value == pytest.approx(max(2.0, 0.5), rel=1e-9)
        g = StepFunction([0, 4], [2.0])
        assert luxemburg_norm(capped(1.0), g, LEBESGUE) == pytest.approx(8.0, rel=1e-9)

    @pytest.mark.parametrize("m", [GAPPED, EXP], ids=["step", "exp"])
    @pytest.mark.parametrize("psi", ALL_PSIS, ids=lambda p: p.name)
    @given(f=step_functions_with_null_infinities(), lam=st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_atom_modular_matches_modular_of_scaled_function(self, psi, m, f, lam):
        expected = modular(psi, f.scaled(1.0 / lam), m)
        assert _atom_modular(psi, *_atoms(f, m)[:2], lam) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [GAPPED, EXP], ids=["step", "exp"])
    @pytest.mark.parametrize(
        "psi",
        [power(1), power(2), power(2.5), power(3), capped(0.5), capped(1.0), capped(4.0), LINF],
        ids=lambda p: p.name,
    )
    @given(f=step_functions_with_null_infinities())
    @settings(max_examples=40, deadline=None)
    def test_closed_forms_agree_with_bisection(self, psi, m, f):
        closed = luxemburg_norm(psi, f, m)
        bisected = luxemburg_norm(_bisected(psi), f, m)
        # the search stops within 4 eps relative, or among the subnormals at
        # adjacent floats; the rest is rounding in the closed form
        subnormal_spacing = math.ulp(0.0)
        assert closed == pytest.approx(bisected, rel=1e-14, abs=2 * subnormal_spacing)

    @pytest.mark.parametrize("psi", [cosh_minus_one(), l_log_l()], ids=lambda p: p.name)
    def test_huge_value_on_a_null_piece_is_ignored(self, psi):
        # mass 1 at level 1 on [0, 1) and on [2, 3); 1e19 sits where the density vanishes
        m = DensityMeasure(StepFunction([0, 1, 2, 3], [1.0, 0.0, 1.0]))
        f = StepFunction([0, 1, 2, 3], [1.0, 1e19, 1.0])
        lam = luxemburg_norm(psi, f, m)
        assert 2.0 * psi(1.0 / lam) == pytest.approx(1.0, rel=1e-9)
        if psi.name == "cosh-1":
            assert lam == pytest.approx(1.0 / math.acosh(1.5), rel=1e-9)

    @pytest.mark.parametrize("length", [1e-20, 1e40])
    @pytest.mark.parametrize("psi", [cosh_minus_one(), l_log_l()], ids=lambda p: p.name)
    def test_indicators_of_extreme_length(self, psi, length):
        # least scales far from the level 1: about 4e-19 for llogl on [0, 1e-20),
        # 7e19 (cosh-1) and 1e20 (llogl) on [0, 1e40)
        f = StepFunction([0, length], [1.0])
        lam = luxemburg_norm(psi, f, LEBESGUE)
        assert math.isfinite(lam) and lam > 0.0
        assert length * psi(1.0 / lam) == pytest.approx(1.0, rel=1e-8)

    def test_zero_threshold_norm_is_infinite_at_tiny_levels(self):
        # 1e-300 / lam underflows to 0 for lam above about 1e24, where the modular reads 0
        f = StepFunction([0, 1], [1e-300])
        assert luxemburg_norm(ZERO_THRESHOLD, f, LEBESGUE) == math.inf

    def test_subnormal_levels(self):
        # the modular of 1e-320 on [0, 1) at scale lam is cosh(1e-320 / lam) - 1
        f = StepFunction([0, 1], [1e-320])
        assert luxemburg_norm(cosh_minus_one(), f, LEBESGUE) == pytest.approx(
            1e-320 / math.acosh(2.0), abs=2 * math.ulp(0.0)
        )


class TestLeastScaleSearch:
    """The bracketed search returns the least scale with modular at most 1,
    to within 1e-14 relative, in few modular evaluations."""

    INSTANCES = [
        _spread_multiplier(rng_from_seed(seed), exp_weight)
        for seed in range(12)
        for exp_weight in (False, True)
    ]

    @pytest.mark.parametrize("psi", SEARCHED_PSIS, ids=lambda p: p.name)
    def test_least_scale_on_spread_multipliers(self, psi):
        for f, m in self.INSTANCES:
            _assert_least_scale(psi, f, m, luxemburg_norm(psi, f, m))

    @pytest.mark.parametrize("psi", SEARCHED_PSIS[:2] + SEARCHED_PSIS[3:], ids=lambda p: p.name)
    def test_median_evaluation_count(self, psi, monkeypatch):
        calls = []
        counted = norms._atom_modular

        def counting(*args):
            calls[-1] += 1
            return counted(*args)

        monkeypatch.setattr(norms, "_atom_modular", counting)
        for f, m in self.INSTANCES:
            calls.append(0)
            luxemburg_norm(psi, f, m)
        # a finite threshold starts the search at the least scale with a finite modular
        assert np.median(calls) <= (11 if math.isinf(psi.finite_threshold) else 12)

    def test_function_infinite_at_its_threshold(self):
        # no least scale: the infimum sup / threshold gives an infinite
        # modular, so the search stops within its width above it
        open_cap = OrliczFunction("open-cap", lambda u: np.where(u < 1.0, u, math.inf), 1.0)
        for f, m in self.INSTANCES:
            expected = luxemburg_norm(capped(1.0), f, m)
            assert luxemburg_norm(open_cap, f, m) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("route", ["a", "b"])
    @pytest.mark.parametrize("psi", SEARCHED_PSIS + [ZERO_THRESHOLD], ids=lambda p: p.name)
    @given(instance=extreme_multipliers())
    @settings(max_examples=40, deadline=None)
    def test_accurate_or_typed_error_at_extreme_magnitudes(self, psi, route, instance):
        ctx, a = instance
        spec = NormSpec.orlicz(psi)
        if route == "a":
            member = membership_route_a(ctx, spec, a)
            f, m = singular_value_function(a), ctx.weight
        else:
            member = membership_route_b(ctx, spec, a)
            f, m = weighted_rearrangement(ctx, a), LEBESGUE
        try:
            lam = luxemburg_norm(psi, f, m)
        except NormOverflowError:
            assert member
            return
        if not member:
            assert lam == math.inf
        else:
            assert math.isfinite(lam)
            _assert_least_scale(psi, f, m, lam)


class TestNormOverflow:
    """diag(1e308, 1e308) carries weight mass 3 at level 1e308: its cosh-1 and
    llogl norms are 1e308 times those at level 1, inside the float range,
    while its L1 and capped:1.0 norms are 3e308, beyond it."""

    M2 = Algebra.matrix_blocks([2], [1.0])
    CTX = WeightedContext(M2, StepWeight(StepFunction([0, 1, 3], [2.0, 1.0])))
    HUGE = Operator.from_diagonal(M2, [1e308, 1e308])
    UNIT = Operator.from_diagonal(M2, [1.0, 1.0])

    @pytest.mark.parametrize("route", [norm_route_a, norm_route_b])
    @pytest.mark.parametrize("text", ["orlicz:cosh-1", "orlicz:llogl"])
    def test_member_norm_near_the_float_limit_is_finite(self, text, route):
        spec = NormSpec.parse(text)
        assert membership_route_a(self.CTX, spec, self.HUGE)
        assert membership_route_b(self.CTX, spec, self.HUGE)
        expected = 1e308 * route(self.CTX, spec, self.UNIT)
        assert route(self.CTX, spec, self.HUGE) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("route", [norm_route_a, norm_route_b])
    @pytest.mark.parametrize("text", ["L1", "orlicz:capped:1.0"])
    def test_member_norm_beyond_the_float_range_raises(self, text, route):
        spec = NormSpec.parse(text)
        assert membership_route_a(self.CTX, spec, self.HUGE)
        assert membership_route_b(self.CTX, spec, self.HUGE)
        with pytest.raises(NormOverflowError):
            route(self.CTX, spec, self.HUGE)

    # at capped:0.5 the least scale with a finite modular, 1e308 / 0.5, is past the largest float
    @pytest.mark.parametrize("psi", [power(1), capped(1.0), capped(0.5)], ids=lambda p: p.name)
    def test_bisection_raises_where_the_closed_form_does(self, psi):
        f = StepFunction([0, 3], [1e308])
        for fn in (psi, _bisected(psi)):
            with pytest.raises(NormOverflowError):
                luxemburg_norm(fn, f, LEBESGUE)

    def test_non_members_stay_infinite(self):
        f = StepFunction([0, 1, 2], [math.inf, 1.0])
        for psi in ALL_PSIS:
            assert luxemburg_norm(psi, f, LEBESGUE) == math.inf
        assert luxemburg_norm(ZERO_THRESHOLD, StepFunction([0, 1], [1.0]), LEBESGUE) == math.inf


class TestLpNorm:
    def test_matches_quadrature(self):
        rng = rng_from_seed(99)
        dens = StepFunction([0, 1, 3], [2.0, 1.0])
        m = DensityMeasure(dens)
        for _ in range(20):
            k = rng.integers(1, 5)
            f = StepFunction(
                np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, k))]),
                rng.uniform(0.1, 3.0, k),
            )
            for p in (1.0, 2.0, 3.0):
                grid = np.union1d(f.breakpoints, dens.breakpoints)
                mids = 0.5 * (grid[:-1] + grid[1:])
                quad = float(np.sum(f(mids) ** p * dens(mids) * np.diff(grid))) ** (1 / p)
                norm = luxemburg_norm(NormSpec.lp(p).psi, f, m)
                assert norm == pytest.approx(quad, rel=1e-12)

    def test_sup_norm_respects_measure(self):
        dens = StepFunction([0, 1], [1.0])
        f = StepFunction([0, 1, 2], [1.0, 7.0])
        assert luxemburg_norm(LINF, f, DensityMeasure(dens)) == 1.0
        assert luxemburg_norm(LINF, f, LEBESGUE) == 7.0

    @pytest.mark.parametrize("m", [GAPPED, EXP], ids=["step", "exp"])
    @pytest.mark.parametrize("p", [1.0, 2.5, 3.0, math.inf])
    @given(f=step_functions_with_null_infinities())
    @settings(max_examples=40, deadline=None)
    def test_is_the_luxemburg_norm_of_the_spec_function(self, p, m, f):
        # the textbook Lp norm over the pieces of positive mass
        masses = m.piece_masses(f.breakpoints)
        levels, masses = f.values[masses > 0], masses[masses > 0]
        if math.isinf(p):
            expected = levels.max(initial=0.0)
        else:
            expected = float(np.dot(levels**p, masses)) ** (1 / p)
        assert luxemburg_norm(NormSpec.lp(p).psi, f, m) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_rejects_p_below_one(self, p):
        with pytest.raises(ValidationError):
            NormSpec.lp(p)

    def test_powers_of_levels_past_the_float_range(self):
        # v^p overflows for v = 1e200 and p = 2.5, while the norm does not
        f = StepFunction([0, 4, 5], [1e200, 1e-200])
        expected = 1e200 * 4**0.4
        assert luxemburg_norm(power(2.5), f, LEBESGUE) == pytest.approx(expected, rel=1e-14)


class TestNormSpecParsing:
    @pytest.mark.parametrize(
        "text,kind,detail",
        [
            ("L1", "lp", 1.0),
            ("L2", "lp", 2.0),
            ("L2.5", "lp", 2.5),
            ("Linf", "lp", math.inf),
            ("orlicz:cosh-1", "orlicz", "cosh-1"),
            ("orlicz:llogl", "orlicz", "llogl"),
            ("orlicz:pow:3", "orlicz", "pow:3"),
            ("orlicz:capped:1.0", "orlicz", "capped:1"),
        ],
    )
    def test_valid_specs(self, text, kind, detail):
        spec = NormSpec.parse(text)
        if kind == "lp":
            assert spec.p == detail
        else:
            assert spec.p is None
            assert spec.psi.name == detail

    @pytest.mark.parametrize(
        "text",
        [
            "L0.5", "orlicz:unknown", "orlicz:pow", "orlicz:pow:x", "nonsense", "L",
            # a parameterless builtin rejects a stray parameter
            "orlicz:llogl:banana", "orlicz:cosh-1:2",
        ],
    )
    def test_invalid_specs(self, text):
        with pytest.raises(ParseError):
            NormSpec.parse(text)


class TestRoutes:
    def test_l1_route_a_is_weighted_trace(self):
        rng = rng_from_seed(123)
        for _ in range(15):
            ctx = random_context(rng)
            a = random_operator(rng, ctx.algebra)
            assert norm_route_a(ctx, NormSpec.lp(1), a) == pytest.approx(
                weighted_trace(ctx, a), rel=1e-12, abs=1e-12
            )
            assert norm_route_b(ctx, NormSpec.lp(1), a) == pytest.approx(
                weighted_trace(ctx, a), rel=1e-12, abs=1e-12
            )

    def test_exponential_weight_indicator_value(self):
        interval = Algebra.commutative(2.0)
        ctx = WeightedContext(interval, ExpWeight())
        a = Operator.multiplier(interval, StepFunction([0, 2], [1.0]))
        assert norm_route_a(ctx, NormSpec.lp(1), a) == pytest.approx(
            1 - math.exp(-2), abs=1e-12
        )

    def test_worked_l2_value_on_both_routes(self):
        expected = math.sqrt(23.0)
        assert norm_route_a(CTX_312, NormSpec.lp(2), DIAG_312) == pytest.approx(expected, abs=1e-12)
        assert norm_route_b(CTX_312, NormSpec.lp(2), DIAG_312) == pytest.approx(expected, abs=1e-12)

    def test_zero_operator(self):
        zero = Operator.zero(M3)
        for spec in [NormSpec.lp(2), NormSpec.orlicz(cosh_minus_one())]:
            assert norm_route_a(CTX_312, spec, zero) == 0.0
            assert norm_route_b(CTX_312, spec, zero) == 0.0

    def test_routes_agree_for_every_builtin(self):
        rng = rng_from_seed(321)
        for _ in range(10):
            ctx = random_context(rng)
            a = random_operator(rng, ctx.algebra)
            for psi in ALL_PSIS:
                va = norm_route_a(ctx, NormSpec.orlicz(psi), a)
                vb = norm_route_b(ctx, NormSpec.orlicz(psi), a)
                assert va == pytest.approx(vb, rel=1e-8, abs=1e-10)


class TestMembership:
    def test_bounded_operator_with_finite_weight_mass(self):
        for spec in [NormSpec.lp(1), NormSpec.lp(2), NormSpec.orlicz(power(3))]:
            assert membership_route_a(CTX_312, spec, DIAG_312)
            assert membership_route_b(CTX_312, spec, DIAG_312)

    def test_capped_function_after_rescaling(self):
        spec = NormSpec.orlicz(capped(1.0))
        scaled = (1.0 / DIAG_312.norm()) * DIAG_312
        assert membership_route_a(CTX_312, spec, scaled)
        assert membership_route_b(CTX_312, spec, scaled)

    def test_exponential_weight_indicator_modular_value(self):
        interval = Algebra.commutative(2.0)
        ctx = WeightedContext(interval, ExpWeight())
        a = Operator.multiplier(interval, StepFunction([0, 2], [1.0]))
        spec = NormSpec.orlicz(power(1))
        assert membership_route_a(ctx, spec, a)
        from wrearr import singular_value_function

        value = modular(power(1), singular_value_function(a), ctx.weight)
        assert value == pytest.approx(1 - math.exp(-2), abs=1e-15)

    def test_routes_agree_on_random_corpus(self):
        rng = rng_from_seed(55)
        for _ in range(20):
            ctx = random_context(rng)
            a = random_operator(rng, ctx.algebra)
            for psi in ALL_PSIS:
                spec = NormSpec.orlicz(psi)
                assert membership_route_a(ctx, spec, a) == membership_route_b(ctx, spec, a)

    @pytest.mark.parametrize("psi", ALL_PSIS, ids=lambda p: p.name)
    def test_infinite_only_on_a_null_piece_is_a_member(self, psi):
        # inf sits on [1, 2), where the density vanishes, so no atom carries it
        m = DensityMeasure(StepFunction([0, 1, 2, 3], [1.0, 0.0, 1.0]))
        f = StepFunction([0, 1, 2, 3], [1.0, math.inf, 2.0])
        assert norms._has_finite_modular(psi, f, m)
        assert math.isfinite(luxemburg_norm(psi, f, m))
        assert norms._has_finite_modular(psi, f, m)  # now from the kept atoms

    def test_capped_member_with_levels_past_the_threshold(self):
        # 1e10 > 2^30: every capped modular of a scaling by 2^-30 .. 2^30 is
        # infinite, yet a larger scale makes it finite
        m2 = Algebra.matrix_blocks([2], [1.0])
        ctx = WeightedContext(m2, StepWeight(StepFunction([0, 1, 3], [2.0, 1.0])))
        a = Operator.from_diagonal(m2, [1e10, 1.0])
        spec = NormSpec.orlicz(capped(1.0))
        assert membership_route_a(ctx, spec, a)
        assert membership_route_b(ctx, spec, a)
        assert math.isfinite(norm_route_a(ctx, spec, a))
        assert norm_route_a(ctx, spec, a) == pytest.approx(norm_route_b(ctx, spec, a), rel=1e-12)

    @pytest.mark.parametrize(
        "weight", [StepWeight(StepFunction([0, 4, 9], [1.5, 0.5])), ExpWeight()], ids=["step", "exp"]
    )
    def test_cosh_member_with_levels_spread_over_2_pow_100(self, weight):
        interval = Algebra.commutative(10.0)
        signs = np.where(np.arange(41) % 2, 1.0, -1.0)
        levels = signs * np.exp2(np.linspace(-100.0, 100.0, 41))
        a = Operator.multiplier(interval, StepFunction(np.linspace(0.0, 10.0, 42), levels))
        ctx = WeightedContext(interval, weight)
        spec = NormSpec.orlicz(cosh_minus_one())
        assert membership_route_a(ctx, spec, a)
        assert membership_route_b(ctx, spec, a)
        na, nb = norm_route_a(ctx, spec, a), norm_route_b(ctx, spec, a)
        assert math.isfinite(na) and na == pytest.approx(nb, rel=1e-8)

    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-100, 100),
        spec=st.sampled_from(
            [NormSpec.orlicz(psi) for psi in ALL_PSIS]
            + [NormSpec.orlicz(ZERO_THRESHOLD)]
            + [NormSpec.lp(p) for p in (1.0, 2.5, math.inf)]
        ),
        spread_lengths=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_member_iff_norm_finite_on_both_routes(self, seed, exponent, spec, spread_lengths):
        rng = rng_from_seed(seed)
        if spread_lengths:
            ctx, a = _spread_instance(rng)
        else:
            ctx = random_context(rng)
            a = random_operator(rng, ctx.algebra)
        a = math.ldexp(1.0, exponent) * a
        assert membership_route_a(ctx, spec, a) == math.isfinite(norm_route_a(ctx, spec, a))
        assert membership_route_b(ctx, spec, a) == math.isfinite(norm_route_b(ctx, spec, a))
