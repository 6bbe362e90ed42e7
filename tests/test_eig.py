import math
from fractions import Fraction

import numpy as np
import pytest

from wrearr import eig
from wrearr.algebra import MAX_BLOCK_SIZE
from wrearr.eig import PYTHON_FLOAT_CUTOFF, one_sided_svd
from wrearr.errors import EigenSolverError, NormOverflowError

# the largest block on the Python-float kernel and the smallest on the numpy one
KERNEL_SIZES = (PYTHON_FLOAT_CUTOFF, PYTHON_FLOAT_CUTOFF + 1)


@pytest.mark.parametrize("n", sorted({1, 2, 3, 5, 8, 16, 20, 21, 64, *KERNEL_SIZES}))
def test_one_sided_svd_matches_lapack(n):
    rng = np.random.default_rng(100 + n)
    a = rng.uniform(-1, 1, size=(n, n))
    s, v = one_sided_svd(a)
    s_ref = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(s, s_ref, atol=1e-11 * (1 + s_ref.max()))
    np.testing.assert_allclose(v @ v.T, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(a.T @ a, v @ np.diag(s**2) @ v.T, atol=1e-11 * (1 + s_ref.max()) ** 2)


def test_one_sided_svd_keeps_exact_zeros_tiny():
    # rank-2 projection in dimension 5: two unit singular values, three zeros
    rng = np.random.default_rng(9)
    q = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    p = q @ q.T
    s, _ = one_sided_svd(p)
    np.testing.assert_allclose(s[:2], 1.0, atol=1e-13)
    assert np.all(s[2:] < 1e-13)


def test_one_sided_svd_tiny_singular_value_keeps_relative_accuracy():
    a = np.diag([1.0, 1e-9])
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    s, _ = one_sided_svd(q @ a @ q.T)
    assert s[1] == pytest.approx(1e-9, rel=1e-9)


def test_non_convergence_reports_block_index(monkeypatch):
    for n in (4, PYTHON_FLOAT_CUTOFF + 1):
        s = np.random.default_rng(1).uniform(-1, 1, (n, n))
        m = s + s.T + np.eye(n)
        monkeypatch.setattr(eig, "MAX_SWEEPS", 0)
        with pytest.raises(EigenSolverError) as err:
            one_sided_svd(m, block_index=7)
        assert err.value.block_index == 7
        assert err.value.sweeps == 0
        monkeypatch.setattr(eig, "MAX_SWEEPS", 1)
        with pytest.raises(EigenSolverError) as err:
            one_sided_svd(m, block_index=3)
        assert err.value.block_index == 3 and err.value.sweeps == 1
        assert 1e-12 < err.value.off_diagonal < 1.0, f"n={n}"
        assert "after 1 sweeps" in str(err.value)
        assert f"{err.value.off_diagonal:.3e}" in str(err.value)


@pytest.mark.parametrize("n", [3, PYTHON_FLOAT_CUTOFF + 1])
def test_invalid_blocks_raise_with_their_block_index(n):
    # the shared prologue rejects them before either kernel runs
    a = np.random.default_rng(n).uniform(-1, 1, (n, n))
    bad = {"non-square": (a[:, :-1], "square"), "vector": (a[0], "square")}
    for value in (np.nan, np.inf, -np.inf):
        b = a.copy()
        b[1, 2] = value
        bad[str(value)] = (b, "non-finite")
    for name, (block, message) in bad.items():
        with pytest.raises(EigenSolverError) as err:
            one_sided_svd(block, block_index=4)
        assert err.value.block_index == 4 and err.value.sweeps is None, name
        assert str(err.value).startswith("block 4: ") and message in str(err.value), name


@pytest.mark.parametrize("n", [3, PYTHON_FLOAT_CUTOFF + 1])
def test_a_largest_singular_value_beyond_the_float_range_raises(n):
    # every entry is finite, but sigma_1 = 1.7e308 n is not: a typed error
    # naming the block, not inf with a RuntimeWarning or a bare OverflowError
    with pytest.raises(NormOverflowError, match="block 5: the operator norm exceeds the float range"):
        one_sided_svd(np.full((n, n), 1.7e308), block_index=5)
    s, _ = one_sided_svd(np.full((n, n), 1.7e308 / n))
    assert s[0] == pytest.approx(1.7e308, rel=1e-15)


def test_both_kernels_hand_the_sweep_python_floats():
    # the stopping test, the norm update and _rotation run on Python floats
    rng = np.random.default_rng(4)
    rows = rng.uniform(-1, 1, (3, 6))
    for pair, square_norms, w in (
        (eig._list_pair, eig._list_square_norms, rows.tolist()),
        (eig._array_pair, eig._array_square_norms, list(rows)),
    ):
        assert type(pair(w, 0, 2, 3)[2]) is float
        assert [type(x) for x in square_norms(w, 3)] == [float] * 3


SCALE_EXPONENTS = [-1000, -530, -43, 0, 255, 498, 530, 1000]


@pytest.mark.parametrize("k", SCALE_EXPONENTS)
def test_solvers_are_scale_equivariant(k):
    # prescaling by a power of two is exact and the stopping rule is relative,
    # so results for 2^k a are exactly those for a times 2^k
    for n in (1, 6, *KERNEL_SIZES):
        a = np.random.default_rng(6).uniform(-1, 1, (n, n))
        s, v = one_sided_svd(a)
        s_k, v_k = one_sided_svd(np.ldexp(a, k))
        np.testing.assert_array_equal(s_k, np.ldexp(s, k), err_msg=f"n={n}")
        np.testing.assert_array_equal(v_k, v, err_msg=f"n={n}")


def _characteristic_polynomial(a):
    """Coefficients of det(x I - a), highest degree first, in exact rational
    arithmetic (Faddeev-LeVerrier)."""
    n = len(a)
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = a M_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(a M_k) / k
        m = [
            [sum(a[i][l] * m[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        coeffs.append(-sum(a[i][l] * m[l][i] for i in range(n) for l in range(n)) / k)
    return coeffs


def _evaluate(coeffs, x):
    value = Fraction(0)
    for c in coeffs:
        value = value * x + c
    return value


GRADED_COLUMN_SCALES = [
    [1e-12, 1.0, 1e-30, 1e-6, 1e-24, 1e-18],
    # squared column norms below the smallest normal float
    [1.0, 1e-20, 1e-160],
    [1.0, 1e-20, 1e-170],
    [1e-60, 1.0, 1e-300, 1e-120, 1e-240, 1e-180],
]


def _gram_polynomial(b):
    """Exact coefficients of the characteristic polynomial of ``b^T b``."""
    n = len(b)
    exact = [[Fraction(float(x)) for x in row] for row in b]
    gram = [[sum(exact[k][i] * exact[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return _characteristic_polynomial(gram)


def _assert_relatively_accurate(b, polynomials):
    """Each singular value of ``b`` is within 1e-13 relative of a root of the
    product of ``polynomials``, the exact characteristic polynomial of ``b^T b``."""
    tol = Fraction(1, 10**13)
    for sigma in one_sided_svd(b)[0]:
        square = Fraction(float(sigma)) ** 2
        below = math.prod(_evaluate(c, square * (1 - tol)) for c in polynomials)
        above = math.prod(_evaluate(c, square * (1 + tol)) for c in polynomials)
        # an eigenvalue of b^T b, a squared singular value, lies in between
        assert below * above <= 0, f"no eigenvalue of b^T b within 1e-13 of {sigma:.6e}^2"


def test_one_sided_svd_keeps_relative_accuracy_on_a_graded_block():
    # columns scaled in permuted order: Jacobi keeps every singular value to
    # high relative accuracy (Demmel and Veselic 1992), where LAPACK's error
    # is relative to the largest one only
    for scales in GRADED_COLUMN_SCALES:
        n = len(scales)
        b = np.random.default_rng(22).uniform(-1, 1, (n, n)) * scales
        _assert_relatively_accurate(b, [_gram_polynomial(b)])


def test_one_sided_svd_keeps_relative_accuracy_on_a_graded_block_above_the_cutoff():
    # a direct sum of graded 6x6 blocks, rows and columns permuted, large
    # enough for the numpy row kernel; b^T b is a permuted direct sum of the
    # parts' Gram matrices, so its characteristic polynomial is their product
    rng = np.random.default_rng(23)
    graded = [s for s in GRADED_COLUMN_SCALES if len(s) == 6]
    parts = [rng.uniform(-1, 1, (6, 6)) * graded[i % len(graded)]
             for i in range(PYTHON_FLOAT_CUTOFF // 6 + 1)]
    n = 6 * len(parts)
    b = np.zeros((n, n))
    for i, part in enumerate(parts):
        b[6 * i:6 * i + 6, 6 * i:6 * i + 6] = part
    b = b[rng.permutation(n)][:, rng.permutation(n)]
    assert n > PYTHON_FLOAT_CUTOFF
    _assert_relatively_accurate(b, [_gram_polynomial(p) for p in parts])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 21, 22, 23, 24, 25])
def test_one_sided_svd_keeps_tiny_columns_accurate_on_the_rescaled_path(n):
    # [big | 1e-150 small]: the tiny columns' squared norms are below _TINY and
    # mostly share one exponent, so their pairs take the rescaled path with
    # d == 0; the tiny singular values are 1e-150 times those of small
    # projected off the range of big
    k = n // 2
    for seed in range(3):
        rng = np.random.default_rng(seed)
        big, small = rng.uniform(-1, 1, (n, k)), rng.uniform(-1, 1, (n, n - k))
        b = np.hstack([big, 1e-150 * small])
        assert (np.sum(b[:, k:] ** 2, axis=0) < eig._TINY).all()
        q = np.linalg.qr(big)[0]
        expected = 1e-150 * np.linalg.svd(small - q @ (q.T @ small), compute_uv=False)
        np.testing.assert_allclose(one_sided_svd(b)[0][k:], expected, rtol=1e-10, err_msg=f"seed={seed}")


def test_one_sided_svd_rejects_a_column_below_the_float_range_at_once():
    # a column whose entries are all subnormal once the largest entry is in
    # [1/2, 1) cannot keep its digits under rotation: a typed error on its
    # first pair, not a wrong value or 100 sweeps
    for n in (3, PYTHON_FLOAT_CUTOFF + 1):
        c = np.random.default_rng(22).uniform(-1, 1, (n, n))
        for scales in ([1.0, 1e-20, 1e-315], [1e300, 1e-10, 1.0]):
            with pytest.raises(EigenSolverError) as err:
                one_sided_svd(c * (scales + [1.0] * (n - 3)), block_index=2)
            assert err.value.block_index == 2 and err.value.sweeps is None
            assert "subnormal" in str(err.value)


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -2.5e-310, 2.0**1000, -(2.0**-1000), -0.75])
def test_one_by_one_block_is_its_absolute_value(x):
    # bit for bit the final norms of the general path, which a 2x2 block with
    # one live column takes
    s, v = one_sided_svd([[x]])
    general = one_sided_svd(np.diag([x, 0.0]))[0][:1]
    assert s.shape == (1,) and s.tobytes() == general.tobytes() == np.float64(abs(x)).tobytes()
    assert v.shape == (1, 1) and v[0, 0] == 1.0


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of pair tests and rotations over both row kernels."""
    calls = {"pair": 0, "rotate": 0}

    def counted(name, key):
        kernel = getattr(eig, name)

        def wrapper(*args):
            calls[key] += 1
            return kernel(*args)

        monkeypatch.setattr(eig, name, wrapper)

    for kind in ("list", "array"):
        counted(f"_{kind}_pair", "pair")
        counted(f"_{kind}_rotate", "rotate")
    return calls


@pytest.mark.parametrize("n", sorted({6, 20, 21, *KERNEL_SIZES}))
def test_one_rotated_pair_retests_only_its_own_pairs(n, kernel_calls):
    # orthogonal columns, then columns 1 and n - 2 mixed: one rotation makes
    # them orthogonal again, after which only pairs holding one of them and
    # tested before it need testing again, at most 2n - 3
    rng = np.random.default_rng(n)
    b = np.linalg.qr(rng.standard_normal((n, n)))[0] * rng.uniform(0.5, 2.0, n)
    b[:, [1, n - 2]] = b[:, [1, n - 2]] @ np.array([[1.0, 0.5], [0.25, 1.0]])
    one_sided_svd(b)
    assert kernel_calls["rotate"] == 1
    assert kernel_calls["pair"] <= n * (n - 1) // 2 + 2 * n - 3


# Over the blocks of test_spectral_blocks_take_fewer_pair_tests_and_rotations,
# the counts of the cyclic order that tested every pair in every sweep.
CYCLIC_PAIR_TESTS = 98956
CYCLIC_ROTATIONS = 70228


def test_spectral_blocks_take_fewer_pair_tests_and_rotations(kernel_calls):
    # six standard normal blocks of each size, on both sides of the cutoff,
    # each solved as a and as |a|
    rng = np.random.default_rng(0)
    for n in (12, 20, 21, 32):
        for _ in range(6):
            a = rng.standard_normal((n, n))
            _, s, vt = np.linalg.svd(a)
            for m in (a, vt.T @ (s[:, None] * vt)):
                one_sided_svd(m)
    assert kernel_calls["pair"] <= 0.85 * CYCLIC_PAIR_TESTS
    assert kernel_calls["rotate"] <= 0.92 * CYCLIC_ROTATIONS


def _assert_matches_lapack(b, err_msg):
    s, v = one_sided_svd(b)
    s_ref = np.linalg.svd(b, compute_uv=False)
    np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-11 * s_ref[0], err_msg=err_msg)
    np.testing.assert_allclose(v.T @ v, np.eye(len(b)), rtol=0, atol=1e-12, err_msg=err_msg)


@pytest.mark.parametrize("n", [3, PYTHON_FLOAT_CUTOFF + 1])
def test_cancelling_columns_converge(n):
    # columns 1 and 2 each equal column 0 up to a relative 1e-5 ... 1e-15, so
    # rotations cancel most of a column's squared norm; its kept norm is then
    # computed again from its row (the quarter rule).  Updated through the
    # cancellation instead, the kept norms lose their digits, and 11 of these
    # 660 blocks at n = 3 and 25 of the 110 at n = 16 run out of sweeps
    for seed in range(60 if n == 3 else 10):
        rng = np.random.default_rng(seed)
        for k in range(5, 16):
            b = rng.uniform(-1, 1, (n, n))
            b[:, 1:3] = b[:, :1] * (1 + 10.0**-k * rng.uniform(-1, 1, (n, 2)))
            _assert_matches_lapack(b, f"seed={seed}, k={k}")


def test_blocks_of_the_largest_size_converge():
    # MAX_BLOCK_SIZE: both kernels form their Gram entries in rounded
    # arithmetic, and these blocks must still stop on the relative test
    n = MAX_BLOCK_SIZE
    rng = np.random.default_rng(64)
    u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    grades = np.logspace(0, -12, n)
    blocks = {
        "column-graded": rng.uniform(-1, 1, (n, n)) * rng.permutation(grades),
        "row-and-column-graded": rng.permutation(grades)[:, None] * rng.uniform(-1, 1, (n, n)) * rng.permutation(grades),
        "clustered": u @ np.diag(1 + 1e-9 * rng.uniform(size=n)) @ v.T,
        "two-cluster": u @ np.diag(np.repeat([1.0, 1e-6], n // 2) * (1 + 1e-9 * rng.uniform(size=n))) @ v.T,
    }
    for name, b in blocks.items():
        _assert_matches_lapack(b, name)
