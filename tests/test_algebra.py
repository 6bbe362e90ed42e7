import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wrearr.algebra as algebra_mod
from wrearr import (
    LEBESGUE,
    Algebra,
    ExpWeight,
    InfiniteValueError,
    NormOverflowError,
    NormSpec,
    Operator,
    Projection,
    StepFunction,
    ValidationError,
    WeightedContext,
    absolute,
    apply_function,
    capped,
    distribution,
    generalized_inverse,
    integrate,
    norm_route_a,
    norm_route_b,
    partial_isometry_conjugates,
    power,
    rearrange,
    singular_value_function,
    spectral_projection,
    step_equal,
    weighted_trace,
)
from wrearr.generate import (
    random_matrix_algebra,
    random_operator,
    random_orthogonal,
    random_positive_operator,
    rng_from_seed,
)

M2 = Algebra.matrix_blocks([2], [1.0])
M3 = Algebra.matrix_blocks([3], [1.0])


def sv_oracle(op):
    """Singular value function via LAPACK singular values and the
    distribution-then-inverse prescription."""
    levels = []
    masses = {}
    for lam, block in zip(op.algebra.trace_weights, op.blocks):
        for s in np.linalg.svd(block, compute_uv=False):
            if s > 0:
                levels.append(s)
                masses[s] = masses.get(s, 0.0) + lam
    if not levels:
        return StepFunction.zero()
    levels = sorted(set(levels))
    mass_ge = [sum(masses[u] for u in levels if u >= level) for level in levels]
    d = StepFunction([0.0] + levels, mass_ge)
    return generalized_inverse(d)


class TestAlgebraValidation:
    def test_caps(self):
        with pytest.raises(ValidationError):
            Algebra.matrix_blocks([65], [1.0])
        with pytest.raises(ValidationError):
            Algebra.matrix_blocks([64] * 9, [1.0] * 9)
        Algebra.matrix_blocks([64] * 8, [1.0] * 8)

    @pytest.mark.parametrize("size", [2.5, np.float64(2.7), "3", True, np.bool_(True)])
    def test_block_sizes_must_be_integers(self, size):
        with pytest.raises(ValidationError, match="integers"):
            Algebra.matrix_blocks([size], [1.0])

    def test_weights_positive(self):
        with pytest.raises(ValidationError):
            Algebra.matrix_blocks([2], [0.0])
        with pytest.raises(ValidationError):
            Algebra.matrix_blocks([2], [-1.0])

    def test_commutative_bound(self):
        with pytest.raises(ValidationError):
            Algebra.commutative(0.0)
        assert Operator.identity(Algebra.commutative(2.0)).trace() == 2.0

    def test_payload_shape_checked(self):
        with pytest.raises(ValidationError):
            Operator(M2, blocks=[np.zeros((3, 3))])
        with pytest.raises(ValidationError):
            Operator(M2, blocks=[np.array([[math.nan, 0], [0, 0]])])
        interval = Algebra.commutative(1.0)
        with pytest.raises(ValidationError):
            Operator(interval, step=StepFunction([0, 2], [1.0]))
        f = StepFunction([0, 0.5, 1], [1.0, -0.5])
        a = Operator.multiplier(interval, f)
        for make in (lambda: math.nan * a, lambda: a * math.nan,
                     lambda: Operator.multiplier(interval, f.scaled(math.nan))):
            with pytest.raises(ValidationError, match="finite"):
                make()

    @pytest.mark.parametrize(
        "sizes, entries",
        [([2], np.ones((1, 1, 2))), ([1], 1.0), ([2], np.ones((2, 1)))],
        ids=["3-d", "scalar", "column"],
    )
    def test_diagonal_entries_must_be_1d(self, sizes, entries):
        # of the right size, so only their shape is wrong
        with pytest.raises(ValidationError, match="1-d"):
            Operator.from_diagonal(Algebra.matrix_blocks(sizes, [1.0]), entries)

    def test_mixing_algebras_rejected(self):
        a = Operator.identity(M2)
        b = Operator.identity(M3)
        with pytest.raises(ValidationError):
            a + b


class TestOperatorArithmetic:
    def test_trace_with_weights(self):
        alg = Algebra.matrix_blocks([1, 2], [0.5, 1.0])
        op = Operator.from_diagonal(alg, [5.0, 4.0, 4.0])
        assert op.trace() == 0.5 * 5 + 4 + 4

    def test_commutative_trace_is_integral(self):
        interval = Algebra.commutative(3.0)
        op = Operator.multiplier(interval, StepFunction([0, 1, 3], [2.0, -1.0]))
        assert op.trace() == pytest.approx(2.0 - 2.0)
        with pytest.raises(NormOverflowError):
            Operator.multiplier(interval, StepFunction([0, 3], [1e308])).trace()

    def test_norm(self):
        assert Operator.from_diagonal(M2, [3.0, -4.0]).norm() == pytest.approx(4.0)
        interval = Algebra.commutative(2.0)
        op = Operator.multiplier(interval, StepFunction([0, 1, 2], [-2.0, 1.0]))
        assert op.norm() == 2.0

    def test_matmul_and_transpose(self):
        a = Operator(M2, blocks=[np.array([[0.0, 1.0], [0.0, 0.0]])])
        assert np.allclose((a @ a.T).blocks[0], np.diag([1.0, 0.0]))
        assert np.allclose((a.T @ a).blocks[0], np.diag([0.0, 1.0]))


class TestAbsolute:
    def test_diagonal_sign_flip(self):
        a = Operator.from_diagonal(M2, [-3.0, 2.0])
        assert np.allclose(absolute(a).blocks[0], np.diag([3.0, 2.0]), atol=1e-12)

    def test_nilpotent_2x2(self):
        a = Operator(M2, blocks=[np.array([[0.0, 1.0], [0.0, 0.0]])])
        assert np.allclose(absolute(a).blocks[0], np.array([[0.0, 0.0], [0.0, 1.0]]), atol=1e-12)

    def test_commutative_pointwise(self):
        interval = Algebra.commutative(1.0)
        a = Operator.multiplier(interval, StepFunction([0, 1], [-2.0]))
        assert absolute(a).step == StepFunction([0, 1], [2.0])

    def test_square_recovers_gram_matrix(self):
        rng = rng_from_seed(4)
        a = random_operator(rng, random_matrix_algebra(rng))
        pos = absolute(a)
        for b, p in zip(a.blocks, pos.blocks):
            assert np.allclose(p @ p, b.T @ b, atol=1e-11)


class TestSingularValueFunction:
    def test_sorting_diagonal(self):
        a = Operator.from_diagonal(M3, [1.0, 3.0, 2.0])
        assert singular_value_function(a) == StepFunction([0, 1, 2, 3], [3.0, 2.0, 1.0])

    def test_block_weights_spread_values(self):
        alg = Algebra.matrix_blocks([1, 2], [0.5, 1.0])
        a = Operator.from_diagonal(alg, [5.0, 4.0, 4.0])
        expected = StepFunction([0, 0.5, 2.5], [5.0, 4.0])
        assert singular_value_function(a) == expected
        assert step_equal(sv_oracle(a), expected)

    def test_zero_operator(self):
        assert singular_value_function(Operator.zero(M3)).is_zero()

    def test_matches_oracle_on_random_blocks(self):
        rng = rng_from_seed(12)
        for _ in range(25):
            a = random_operator(rng, random_matrix_algebra(rng))
            assert step_equal(singular_value_function(a), sv_oracle(a), 1e-10, 1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_trace_moments_match_matrix_products(self, k):
        # tau(|a|^2k) = int mu_t(a)^2k dt (Fack & Kosaki 1986), the left side
        # from matrix products alone; k = 1 is the Frobenius norm, which every
        # rotation keeps, so only k > 1 sees a solve that stopped short
        rng = rng_from_seed(61)
        for _ in range(300):
            alg = random_matrix_algebra(rng)
            a = random_operator(rng, alg)
            moment = sum(
                lam * np.trace(np.linalg.matrix_power(b.T @ b, k))
                for lam, b in zip(alg.trace_weights, a.blocks)
            )
            mu = singular_value_function(a)
            assert integrate(mu.map_values(lambda u: u ** (2 * k)), LEBESGUE) == pytest.approx(
                moment, rel=1e-12, abs=0.0
            )

    def test_commutative_is_rearrangement(self):
        interval = Algebra.commutative(3.0)
        a = Operator.multiplier(interval, StepFunction([0, 1, 2, 3], [1.0, -3.0, 2.0]))
        assert singular_value_function(a) == StepFunction([0, 1, 2, 3], [3.0, 2.0, 1.0])

    @given(
        pieces=st.lists(
            st.tuples(st.floats(0.01, 4.0), st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.booleans()),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_commutative_is_rearrangement_of_abs_with_ties_and_zeros(self, pieces):
        widths, levels, negative = zip(*pieces)
        bp = np.concatenate([[0.0], np.cumsum(widths)])
        f = StepFunction(bp, np.where(negative, -np.asarray(levels), levels))
        mu = singular_value_function(Operator.multiplier(Algebra.commutative(bp[-1]), f))
        expected = rearrange(f.absolute(), LEBESGUE)
        # tied levels may add their widths in another order, so the
        # breakpoints agree to rounding
        assert np.array_equal(mu.values, expected.values)
        assert np.allclose(mu.breakpoints, expected.breakpoints, rtol=1e-14, atol=0.0)


class TestSpectralProjection:
    def test_diagonal_thresholds(self):
        a = Operator.from_diagonal(M2, [3.0, 1.0])
        assert np.allclose(spectral_projection(a, 2.0).blocks[0], np.diag([1.0, 0.0]))
        assert np.allclose(spectral_projection(a, 5.0).blocks[0], np.zeros((2, 2)))

    def test_rank_one_eigenprojection(self):
        u = np.array([3.0, 4.0]) / 5.0
        a = Operator(M2, blocks=[2.0 * np.outer(u, u)])
        p = spectral_projection(a, 1.0)
        assert np.allclose(p.blocks[0], np.outer(u, u), atol=1e-12)

    def test_commutative_indicator(self):
        interval = Algebra.commutative(3.0)
        a = Operator.multiplier(interval, StepFunction([0, 1, 2, 3], [3.0, 1.0, 2.0]))
        p = spectral_projection(a, 1.5)
        assert p.step == StepFunction([0, 1, 2, 3], [1.0, 0.0, 1.0])

    def test_near_ties_stay_together(self):
        # Jacobi solves a diagonal block exactly, so a gap of 1e-12 is
        # resolved, and 1.0 is not above 1.0
        a = Operator.from_diagonal(M2, [1.0, 1.0 + 1e-12])
        assert spectral_projection(a, 1.0).trace() == pytest.approx(1.0)
        # the computed copies of a repeated eigenvalue split by rounding and
        # may straddle a threshold at it (41 of these 100 blocks give trace 2
        # without clustering); their eigenspace is kept or dropped whole
        rng = rng_from_seed(21)
        for _ in range(100):
            q = random_orthogonal(rng, 3)
            h = (q * [2.0, 1.0, 1.0]) @ q.T
            t = spectral_projection(Operator(M3, blocks=[0.5 * (h + h.T)]), 1.0).trace()
            assert min(abs(t - 1.0), abs(t - 3.0)) < 1e-12

    def test_support_projection_counts_rank(self):
        rng = rng_from_seed(3)
        alg = Algebra.matrix_blocks([3], [0.5])
        a = Operator.from_diagonal(alg, [2.0, 0.0, 1.0])
        p = spectral_projection(absolute(a), 0.0)
        assert p.trace() == pytest.approx(1.0)  # two non-zero entries, weight 0.5

    def test_distribution_matches_projection_trace(self):
        rng = rng_from_seed(8)
        for _ in range(20):
            a = random_operator(rng, random_matrix_algebra(rng))
            d = distribution(singular_value_function(a), LEBESGUE)
            pos = absolute(a)
            for t in rng.uniform(0, a.norm() * 1.1, size=5):
                assert d(float(t)) == pytest.approx(
                    spectral_projection(pos, float(t)).trace(), abs=1e-10
                )

    # Jacobi solves these diagonals exactly, so clustering wider than its
    # error, such as 1e-9 * ||a||, would join the gaps at the threshold
    @pytest.mark.parametrize(
        "entries,threshold",
        [([1.0, 1e-10, 0.0], 0.0), ([1.0, 2e-10, 1e-10], 1.5e-10)],
        ids=["support", "between-small-entries"],
    )
    def test_exact_small_gaps_are_resolved(self, entries, threshold):
        a = Operator.from_diagonal(Algebra.matrix_blocks([3], [1.0]), entries)
        p = spectral_projection(a, threshold)
        assert np.array_equal(p.blocks[0], np.diag([1.0, 1.0, 0.0]))

    def test_requires_positive_input(self):
        a = Operator(M2, blocks=[np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(ValidationError):
            spectral_projection(a, 0.5)
        with pytest.raises(ValidationError):
            spectral_projection(Operator.from_diagonal(M2, [1.0, -1.0]), 0.5)


    def test_nan_threshold_rejected(self):
        interval = Algebra.commutative(1.0)
        for a in (
            Operator.from_diagonal(M2, [2.0, 1.0]),
            Operator.multiplier(interval, StepFunction([0, 1], [2.0])),
        ):
            with pytest.raises(ValidationError, match="threshold"):
                spectral_projection(a, math.nan)

    @pytest.mark.parametrize("threshold", [np.array([1.0, 2.0]), None, "1.0"], ids=["array", "none", "string"])
    def test_non_scalar_threshold_rejected(self, threshold):
        interval = Algebra.commutative(1.0)
        for a in (
            absolute(Operator.from_diagonal(M2, [2.0, -1.0])),
            Operator.multiplier(interval, StepFunction([0, 1], [2.0])),
        ):
            with pytest.raises(ValidationError, match="threshold must be a real number"):
                spectral_projection(a, threshold)
        with pytest.raises(ValidationError, match="threshold must be >= 0"):
            spectral_projection(a, -1.0)

    @pytest.mark.parametrize("k", [-1000, -530, -43, 0, 255, 498, 530, 1000])
    def test_scaled_projection_matches_unscaled(self, k):
        # tolerances are relative to ||a||, so 2^k a splits where a does
        a = random_operator(rng_from_seed(17), Algebra.matrix_blocks([6, 3], [1.0, 0.5]))
        s = singular_value_function(a).values
        theta = math.sqrt(s[3] * s[4])
        expected = spectral_projection(absolute(a), theta)
        scaled = Operator(a.algebra, blocks=[np.ldexp(b, k) for b in a.blocks])
        p = spectral_projection(absolute(scaled), math.ldexp(theta, k))
        for pb, qb in zip(p.blocks, expected.blocks):
            np.testing.assert_allclose(pb, qb, rtol=0, atol=1e-12)


class TestApplyFunction:
    def test_requires_symmetric_input(self):
        a = Operator(M2, blocks=[np.array([[1.0, 1.0], [0.0, 1.0]])])
        with pytest.raises(ValidationError, match="symmetric"):
            apply_function(power(2), a)

    def test_requires_positive_input(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            apply_function(power(2), Operator.from_diagonal(M2, [1.0, -1.0]))

    def test_square_on_diagonal(self):
        a = Operator.from_diagonal(M2, [2.0, 3.0])
        image = apply_function(power(2), a)
        assert np.allclose(image.blocks[0], np.diag([4.0, 9.0]), atol=1e-12)

    def test_zero_fixed_point(self):
        from wrearr import cosh_minus_one

        image = apply_function(cosh_minus_one(), Operator.zero(M3))
        assert all(np.allclose(b, 0.0) for b in image.blocks)

    def test_symmetric_2x2_keeps_eigenvectors(self):
        u = np.array([1.0, 1.0]) / math.sqrt(2)
        w = np.array([1.0, -1.0]) / math.sqrt(2)
        a = Operator(M2, blocks=[1.0 * np.outer(u, u) + 2.0 * np.outer(w, w)])
        image = apply_function(power(2), a)
        expected = 1.0 * np.outer(u, u) + 4.0 * np.outer(w, w)
        assert np.allclose(image.blocks[0], expected, atol=1e-12)

    def test_positivity_boundary_is_the_tolerance(self):
        # tol = 1e-9 * ||a|| = 1e-9: an eigenvalue of -2 tol is rejected, one of -tol/2 kept
        q = np.linalg.qr(rng_from_seed(5).standard_normal((3, 3)))[0]
        for smallest, accepted in ((-2e-9, False), (-0.5e-9, True)):
            h = (q * [1.0, 0.5, smallest]) @ q.T
            a = Operator(M3, blocks=[0.5 * (h + h.T)])
            if accepted:
                image = apply_function(power(2), a)
                assert np.allclose(image.blocks[0], a.blocks[0] @ a.blocks[0], atol=1e-12)
            else:
                with pytest.raises(ValidationError, match="positive semidefinite"):
                    apply_function(power(2), a)

    def test_rejects_the_swap_matrix(self):
        # eigenvalues +1 and -1 share the singular value 1
        a = Operator(M2, blocks=[np.array([[0.0, 1.0], [1.0, 0.0]])])
        with pytest.raises(ValidationError, match="positive semidefinite"):
            apply_function(power(2), a)
        with pytest.raises(ValidationError, match="positive semidefinite"):
            spectral_projection(a, 0.5)

    def test_accepts_low_rank_block_symmetric_within_the_tolerance(self):
        # rank one in dimension 8, plus an antisymmetric perturbation on the null
        # space: |b - b^T| = 0.9 tol, so b is read through its symmetric part
        alg = Algebra.matrix_blocks([8], [1.0])
        q = np.linalg.qr(rng_from_seed(6).standard_normal((8, 3)))[0]
        u, w1, w2 = q.T
        skew = np.outer(w1, w2) - np.outer(w2, w1)
        a = Operator(alg, blocks=[3.0 * np.outer(u, u) + 0.45 * 3e-9 * skew / np.abs(skew).max()])
        assert np.max(np.abs(a.blocks[0] - a.blocks[0].T)) == pytest.approx(0.9 * 3e-9)
        image = apply_function(power(2), a)
        assert np.allclose(image.blocks[0], 9.0 * np.outer(u, u), atol=1e-12)
        p = spectral_projection(a, 1.0)
        assert np.allclose(p.blocks[0], np.outer(u, u), atol=1e-12)

    def test_infinite_value_on_spectrum(self):
        a = Operator.from_diagonal(M2, [2.0, 0.5])
        with pytest.raises(InfiniteValueError):
            apply_function(capped(1.0), a)

    def test_level_sets_commute_with_strictly_increasing_maps(self):
        rng = rng_from_seed(21)
        for _ in range(15):
            alg = random_matrix_algebra(rng)
            a = random_positive_operator(rng, alg)
            t = float(rng.uniform(0, a.norm()))
            psi = power(2)
            lhs = spectral_projection(apply_function(psi, a), psi(t))
            rhs = spectral_projection(a, t)
            for pb, qb in zip(lhs.blocks, rhs.blocks):
                assert np.allclose(pb, qb, atol=1e-10)


class TestProjectionsAndIsometries:
    def test_projection_validation(self):
        with pytest.raises(ValidationError):
            Projection(M2, blocks=[np.array([[0.5, 0.0], [0.0, 1.0]])])
        p = Projection.from_support_mask(M2, [True, False])
        assert p.trace() == 1.0
        assert p.complement().trace() == 1.0

    def test_matrix_unit(self):
        v = Operator(M2, blocks=[np.array([[0.0, 1.0], [0.0, 0.0]])])
        source, rng_proj = partial_isometry_conjugates(v)
        assert np.allclose(source.blocks[0], np.diag([0.0, 1.0]))
        assert np.allclose(rng_proj.blocks[0], np.diag([1.0, 0.0]))

    def test_identity(self):
        one = Operator.identity(M2)
        source, rng_proj = partial_isometry_conjugates(one)
        assert np.allclose(source.blocks[0], np.eye(2))
        assert np.allclose(rng_proj.blocks[0], np.eye(2))

    def test_qr_generated_rank_two_in_m4(self):
        rng = rng_from_seed(17)
        alg = Algebra.matrix_blocks([4], [1.0])
        u = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        w = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        v = Operator(alg, blocks=[u @ w.T])
        assert np.allclose((v @ v.T @ v).blocks[0], v.blocks[0], atol=1e-12)
        source, rng_proj = partial_isometry_conjugates(v)
        assert source.trace() == pytest.approx(2.0, abs=1e-10)
        assert rng_proj.trace() == pytest.approx(2.0, abs=1e-10)

    def test_rejects_non_isometry(self):
        with pytest.raises(ValidationError):
            partial_isometry_conjugates(Operator.from_diagonal(M2, [2.0, 0.0]))


class TestInvariants:
    def test_sv_of_abs_transpose_and_scaling(self):
        rng = rng_from_seed(31)
        for _ in range(20):
            a = random_operator(rng, random_matrix_algebra(rng))
            mu = singular_value_function(a)
            assert step_equal(mu, singular_value_function(absolute(a)), 1e-10, 1e-10)
            assert step_equal(mu, singular_value_function(a.T), 1e-10, 1e-10)
            lam = float(rng.uniform(-3, 3))
            assert step_equal(
                singular_value_function(lam * a), mu.scaled(abs(lam)), 1e-10, 1e-10
            )


class TestSolverCounts:
    """One Jacobi SVD per block per operator, and no SVD to set a tolerance."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"svd": 0}
        solver = algebra_mod.one_sided_svd

        def counting(*args, **kwargs):
            counts["svd"] += 1
            return solver(*args, **kwargs)

        monkeypatch.setattr(algebra_mod, "one_sided_svd", counting)
        return counts

    def test_spectral_request_runs_one_svd_per_operator(self, calls):
        alg = Algebra.matrix_blocks([12], [0.5])
        a = Operator(alg, blocks=[rng_from_seed(11).standard_normal((12, 12))])
        ctx = WeightedContext(alg, ExpWeight())
        l2 = NormSpec.parse("L2")
        weighted_trace(ctx, a)
        norm_route_a(ctx, l2, a)
        norm_route_b(ctx, l2, a)
        s = singular_value_function(a).values
        pos = absolute(a)
        spectral_projection(pos, math.sqrt(s[3] * s[4]))
        assert calls == {"svd": 2}  # one for a, one for |a|
        for t in s[:6]:
            spectral_projection(pos, float(t))
        assert calls == {"svd": 2}

    def test_positive_operator_is_solved_once_per_block(self, calls):
        pos = absolute(random_operator(rng_from_seed(13), Algebra.matrix_blocks([4, 5], [1.0, 2.0])))
        assert calls["svd"] == 2
        for psi in (power(2), power(3), capped(10.0 * pos.norm())):
            apply_function(psi, pos)
        spectral_projection(pos, 0.5 * pos.norm())
        singular_value_function(pos)
        assert calls["svd"] == 4

    def test_projections_of_an_image_share_one_svd(self, calls):
        pos = absolute(random_operator(rng_from_seed(13), Algebra.matrix_blocks([4, 5], [1.0, 2.0])))
        calls["svd"] = 0
        image = apply_function(power(2), pos)
        assert calls["svd"] == 2  # one SVD of pos per block
        for fraction in (0.1, 0.5, 0.9):
            spectral_projection(image, fraction * image.norm())
        # the image's blocks are exactly symmetric, so its own SVD is solved once
        assert calls["svd"] == 4

    def test_absolute_reuses_cached_svd(self, calls):
        a = random_operator(rng_from_seed(12), Algebra.matrix_blocks([4, 5], [1.0, 2.0]))
        singular_value_function(a)
        assert calls["svd"] == 2
        absolute(a)
        assert calls["svd"] == 2


def test_coordinate_weights_are_built_once_and_read_only():
    alg = Algebra.matrix_blocks([2, 1, 3], [0.5, 2.0, 1.25])
    w = alg.coordinate_weights()
    assert w is alg.coordinate_weights()
    assert w.tobytes() == np.repeat([0.5, 2.0, 1.25], [2, 1, 3]).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0
    with pytest.raises(ValidationError):
        Algebra.commutative(1.0).coordinate_weights()
    # the callers that read it leave it as it was
    a = Operator(alg, blocks=[np.ones((2, 2)), [[3.0]], np.eye(3)])
    assert singular_value_function(a).support_end == 6.25  # the zero singular value is trimmed
    assert w.tobytes() == np.repeat([0.5, 2.0, 1.25], [2, 1, 3]).tobytes()


def test_multiplier_calculus_checks_its_domain():
    interval = Algebra.commutative(2.0)
    signed = Operator.multiplier(interval, StepFunction([0.0, 1.0, 2.0], [0.5, -0.5]))
    with pytest.raises(ValidationError, match="spectral projection needs a positive multiplier"):
        spectral_projection(signed, 0.1)
    with pytest.raises(ValidationError, match="functional calculus needs a positive multiplier"):
        apply_function(power(2), signed)
    with pytest.raises(InfiniteValueError):
        apply_function(capped(1.0), Operator.multiplier(interval, StepFunction([0.0, 1.0], [2.0])))
    assert Operator.multiplier(interval, StepFunction([0.0, 1.0], [1.0])).is_projection()
    assert not signed.is_projection()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Operator(M2, step=StepFunction([0, 1], [1.0])), "matrix algebra operators need matrix blocks"),
        (lambda: Operator(Algebra.commutative(1.0), blocks=[np.eye(2)]), "commutative operators need a step payload"),
        (lambda: Operator(Algebra.commutative(1.0), step=[1.0]), "step payload must be a StepFunction"),
        (lambda: Operator(M2, blocks=[np.eye(2), np.eye(2)]), "wrong number of blocks"),
        (lambda: Operator.from_diagonal(Algebra.commutative(1.0), [1.0]), "diagonal construction needs a matrix algebra"),
        (lambda: Operator.from_diagonal(M2, [1.0, 2.0, 3.0]), "wrong number of diagonal entries"),
        (lambda: Operator(M2, blocks=[np.ones((2, 2))]).diagonal_entries(), "operator is not diagonal"),
    ],
    ids=["matrix-with-step", "steps-with-blocks", "step-not-stepfunction", "block-count",
         "diagonal-on-steps", "diagonal-count", "entries-of-non-diagonal"],
)
def test_operator_construction_errors_are_typed(build, message):
    with pytest.raises(ValidationError, match=message):
        build()
