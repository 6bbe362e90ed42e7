from fractions import Fraction

import numpy as np
import pytest

from wrearr import eig
from wrearr.eig import one_sided_svd
from wrearr.errors import EigenSolverError


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64])
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
    s = np.random.default_rng(1).uniform(-1, 1, (4, 4))
    m = s + s.T + np.eye(4)
    monkeypatch.setattr(eig, "MAX_SWEEPS", 0)
    with pytest.raises(EigenSolverError) as err:
        one_sided_svd(m, block_index=7)
    assert err.value.block_index == 7
    assert err.value.sweeps == 0
    monkeypatch.setattr(eig, "MAX_SWEEPS", 1)
    with pytest.raises(EigenSolverError) as err:
        one_sided_svd(m, block_index=3)
    assert err.value.block_index == 3 and err.value.sweeps == 1
    assert 1e-12 < err.value.off_diagonal < 1.0
    assert "after 1 sweeps" in str(err.value)
    assert f"{err.value.off_diagonal:.3e}" in str(err.value)


SCALE_EXPONENTS = [-1000, -530, -43, 0, 255, 498, 530, 1000]


@pytest.mark.parametrize("k", SCALE_EXPONENTS)
def test_solvers_are_scale_equivariant(k):
    # prescaling by a power of two is exact and the stopping rule is relative,
    # so results for 2^k a are exactly those for a times 2^k
    for n in (1, 6, 17):
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


def test_one_sided_svd_keeps_relative_accuracy_on_a_graded_block():
    # columns scaled in permuted order: Jacobi keeps every singular value to
    # high relative accuracy (Demmel and Veselic 1992), where LAPACK's error
    # is relative to the largest one only
    tol = Fraction(1, 10**13)
    for scales in GRADED_COLUMN_SCALES:
        n = len(scales)
        b = np.random.default_rng(22).uniform(-1, 1, (n, n)) * scales
        exact = [[Fraction(float(x)) for x in row] for row in b]
        gram = [[sum(exact[k][i] * exact[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        coeffs = _characteristic_polynomial(gram)
        for sigma in one_sided_svd(b)[0]:
            square = Fraction(float(sigma)) ** 2
            below = _evaluate(coeffs, square * (1 - tol))
            above = _evaluate(coeffs, square * (1 + tol))
            # an eigenvalue of b^T b, a squared singular value, lies in between
            assert below * above <= 0, f"no eigenvalue of b^T b within 1e-13 of {sigma:.6e}^2"


def test_one_sided_svd_rejects_a_column_below_the_float_range_at_once():
    # a column whose entries are all subnormal once the largest entry is in
    # [1/2, 1) cannot keep its digits under rotation: a typed error on its
    # first pair, not a wrong value or 100 sweeps
    c = np.random.default_rng(22).uniform(-1, 1, (3, 3))
    for scales in ([1.0, 1e-20, 1e-315], [1e300, 1e-10, 1.0]):
        with pytest.raises(EigenSolverError) as err:
            one_sided_svd(c * scales, block_index=2)
        assert err.value.block_index == 2 and err.value.sweeps is None
        assert "subnormal" in str(err.value)
