import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from wrearr import eig
from wrearr.algebra import MAX_BLOCK_SIZE
from wrearr.eig import PYTHON_FLOAT_CUTOFF, one_sided_svd
from wrearr.errors import EigenSolverError, NormOverflowError

# the largest block on the Python-float kernel and the smallest on the batched one
KERNEL_SIZES = (PYTHON_FLOAT_CUTOFF, PYTHON_FLOAT_CUTOFF + 1)
# a size on the batched kernel that stays put when the cutoff moves
BATCHED = 16
assert BATCHED > PYTHON_FLOAT_CUTOFF


def _preconditioned(b):
    """Whether the list kernel starts ``b`` from LAPACK's right singular vectors."""
    return eig._preconditioner(eig._prescaled(b, 0)[0]) is not None


@pytest.fixture
def plain_path(monkeypatch):
    """Sends every block on the list kernel down the path without
    preconditioning, which starts from ``[b^T | I]``."""
    monkeypatch.setattr(eig, "_preconditioner", lambda bt: None)


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


def test_non_convergence_reports_block_index(monkeypatch, plain_path):
    # preconditioned, the n = 4 block is orthogonal to 3.3e-16 after one sweep
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


@pytest.mark.parametrize("n", [3, BATCHED])
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


@pytest.mark.parametrize("n", [3, BATCHED])
def test_a_largest_singular_value_beyond_the_float_range_raises(n):
    # every entry is finite, but sigma_1 = 1.7e308 n is not: a typed error
    # naming the block, not inf with a RuntimeWarning or a bare OverflowError
    with pytest.raises(NormOverflowError, match="block 5: the operator norm exceeds the float range"):
        one_sided_svd(np.full((n, n), 1.7e308), block_index=5)
    s, _ = one_sided_svd(np.full((n, n), 1.7e308 / n))
    assert s[0] == pytest.approx(1.7e308, rel=1e-15)


def test_both_kernels_hand_the_sweep_python_floats():
    # the list kernel's stopping test, norm update and _rotation run on Python
    # floats; the batched kernel keeps its arithmetic in arrays
    rng = np.random.default_rng(4)
    w = rng.uniform(-1, 1, (3, 6)).tolist()
    assert type(eig._list_pair(w, 0, 2, 3)[2]) is float
    assert [type(x) for x in eig._list_square_norms(w, 3)] == [float] * 3


SCALE_EXPONENTS = [-1000, -530, -43, 0, 255, 498, 530, 1000]


@pytest.mark.parametrize("k", SCALE_EXPONENTS)
def test_solvers_are_scale_equivariant(k):
    # prescaling by a power of two is exact and the stopping rule is relative,
    # so results for 2^k a are exactly those for a times 2^k: on the
    # preconditioned list kernel too, whose LAPACK call sees the prescaled
    # block, and on the stacked rotations of the batched kernel, at the
    # benchmark's sizes and the cap, and on an ill-conditioned block that the
    # gate admits by its column spread
    blocks = {f"n={n}": np.random.default_rng(6).uniform(-1, 1, (n, n))
              for n in (1, 3, 4, 5, 6, *KERNEL_SIZES, 32, MAX_BLOCK_SIZE)}
    blocks["spectrum to 2^-30, n=6"] = _ill_conditioned_blocks(6)["spectrum to 2^-30"]
    for name, a in blocks.items():
        n = len(a)
        assert _preconditioned(a) or not 3 <= n <= PYTHON_FLOAT_CUTOFF, name
        s, v = one_sided_svd(a)
        s_k, v_k = one_sided_svd(np.ldexp(a, k))
        np.testing.assert_array_equal(s_k, np.ldexp(s, k), err_msg=name)
        np.testing.assert_array_equal(v_k, v, err_msg=name)


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
    # sigma_n far above n eps 2^10 sigma_1: only the spread of the column
    # norms keeps it off the preconditioned path
    [1.0, 1e-4, 1e-8],
]


def _gram_polynomial(b):
    """Exact coefficients of the characteristic polynomial of ``b^T b``."""
    n = len(b)
    exact = [[Fraction(float(x)) for x in row] for row in b]
    gram = [[sum(exact[k][i] * exact[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return _characteristic_polynomial(gram)


def _assert_relatively_accurate(b, polynomials, tol=Fraction(1, 10**13)):
    """Each squared singular value of ``b`` is within ``tol`` relative of a root
    of the product of ``polynomials``, the exact characteristic polynomial of
    ``b^T b``."""
    width = Fraction(tol)
    for sigma in one_sided_svd(b)[0]:
        square = Fraction(float(sigma)) ** 2
        below = math.prod(_evaluate(c, square * (1 - width)) for c in polynomials)
        above = math.prod(_evaluate(c, square * (1 + width)) for c in polynomials)
        # an eigenvalue of b^T b, a squared singular value, lies in between
        assert below * above <= 0, f"no eigenvalue of b^T b within {float(tol):.1e} of {sigma:.6e}^2"


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
    # enough for the batched kernel; b^T b is a permuted direct sum of the
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


def test_batched_kernel_rotates_tiny_pairs_a_step_at_a_time(monkeypatch):
    # [big | 1e-150 small]: the tiny columns' pairs are tested and rotated on
    # the batched kernel's rescaled path, many pairs to a call; below the
    # cutoff the list kernel hands the block over at the first such pair
    calls = []
    rescaled = eig._rescaled_pairs

    def counted(b, *args):
        calls.append(len(b))
        return rescaled(b, *args)

    monkeypatch.setattr(eig, "_rescaled_pairs", counted)
    assert 6 <= PYTHON_FLOAT_CUTOFF < 24
    for n in (6, 24):
        rng = np.random.default_rng(0)
        k = n // 2
        b = np.hstack([rng.uniform(-1, 1, (n, k)), 1e-150 * rng.uniform(-1, 1, (n, n - k))])
        calls.clear()
        _assert_matches_lapack(b, f"[big | 1e-150 small], n={n}")
        assert calls and max(calls) > 1, f"n={n}: {calls}"


def test_both_kernels_share_one_sweep_budget(monkeypatch):
    # [big | 1e-150 small] at n = 6: the list kernel meets a tiny pair in its
    # first sweep, which counts, and the batched kernel may sweep only the rest
    # of MAX_SWEEPS; a block that still does not converge reports the total
    n, k = 6, 3
    rng = np.random.default_rng(0)
    b = np.hstack([rng.uniform(-1, 1, (n, k)), 1e-150 * rng.uniform(-1, 1, (n, n - k))])
    spent, steps = [], []
    sweep, batch_pairs = eig._sweep, eig._batch_pairs

    def counted_sweep(*args):
        spent.append(sweep(*args))
        return spent[-1]

    def counted_pairs(*args):
        steps.append(1)
        return batch_pairs(*args)

    monkeypatch.setattr(eig, "_sweep", counted_sweep)
    monkeypatch.setattr(eig, "_batch_pairs", counted_pairs)
    converged = []
    for m in range(1, 9):
        monkeypatch.setattr(eig, "MAX_SWEEPS", m)
        spent.clear()
        steps.clear()
        try:
            one_sided_svd(b)
            converged.append(m)
        except EigenSolverError as err:
            assert err.sweeps == m and f"after {m} sweeps" in str(err), f"m={m}"
            assert not converged, f"m={m}"
        assert spent == [1], f"m={m}"
        assert len(steps) <= (m - 1) * (n - 1), f"m={m}: {len(steps)} batched steps"
    assert 1 < converged[0] < 8


def _exact_rotation(alpha, beta, gamma, d):
    """``(c, t)`` to 60 digits for rows divided by ``2^(r + d)`` and ``2^r``
    whose Gram entries are then ``alpha``, ``beta`` and ``gamma``: the rotation
    that annihilates ``gamma 2^d`` between ``alpha 4^d`` and ``beta``."""
    with decimal.localcontext(decimal.Context(prec=60)):
        alpha, beta, gamma = map(decimal.Decimal, (alpha, beta, gamma))
        scale = decimal.Decimal(2) ** d
        zeta = (beta / scale - alpha * scale) / (2 * gamma)
        t = (1 if zeta >= 0 else -1) / (abs(zeta) + (1 + zeta * zeta).sqrt())
        return 1 / (1 + t * t).sqrt(), t


def _relative_errors(values, exact):
    with decimal.localcontext(decimal.Context(prec=60)):
        return [float(abs(decimal.Decimal(v) - x) / abs(x)) for v, x in zip(values, exact)]


def test_batched_rotations_match_the_scalar_rotation_with_rows_apart():
    # _rotations on the rescaled path, for exponent gaps d up to the float
    # range, and _rotation, with d == 0, against the exact rotation: Gram
    # entries of rows divided by 2^(r + d) and 2^r, each with its largest
    # entry in [1/2, 1)
    rng = np.random.default_rng(7)
    m = 400
    d = np.concatenate([np.zeros(40, dtype=int), rng.integers(-1020, 1021, m - 40)])
    alpha, beta = rng.uniform(0.25, 8.0, (2, m))
    gamma = rng.uniform(-1, 1, m) * np.sqrt(alpha * beta)
    k = np.abs(d)
    c, t = eig._rotations(np.ldexp(alpha, d - k), np.ldexp(beta, -d - k), gamma, np.ldexp(2.0, -k))
    args = list(zip(alpha.tolist(), beta.tolist(), gamma.tolist()))
    exact_c, exact_t = zip(*(_exact_rotation(*a, dk) for a, dk in zip(args, d.tolist())))
    scalar_c, scalar_t = zip(*(eig._rotation(*a) for a in args))
    unscaled_c, unscaled_t = zip(*(_exact_rotation(*a, 0) for a in args))
    eps = np.finfo(float).eps
    for name, values, exact in (("batched c", c.tolist(), exact_c), ("batched t", t.tolist(), exact_t),
                                ("scalar c", scalar_c, unscaled_c), ("scalar t", scalar_t, unscaled_t)):
        assert max(_relative_errors(values, exact)) <= 4 * eps, name


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


@pytest.mark.parametrize("x", [-0.0, 5e-324, -5e-324, 2.0**1000, -(2.0**1000), 2.0**-1000, -(2.0**-1000)])
def test_one_by_one_block_skips_the_scaling_with_the_same_bits(x):
    # the scaled path: |a| divided by the power of two that brings it into
    # [1/2, 1), then multiplied back; both steps are exact
    bt, e = eig._prescaled([[x]], 0)
    s, v = one_sided_svd(np.array([[x]]))
    assert s.tobytes() == np.array([math.ldexp(abs(bt[0, 0]), e)]).tobytes()
    assert v.tobytes() == np.ones((1, 1)).tobytes()


@pytest.mark.parametrize("block", [[[np.nan]], [[np.inf]], [[-np.inf]], [1.0], [[1.0, 2.0]]])
def test_invalid_one_by_one_blocks_raise_with_their_block_index(block):
    message = "non-finite" if np.shape(block) == (1, 1) else "square"
    with pytest.raises(EigenSolverError, match=f"^block 3: .*{message}") as err:
        one_sided_svd(block, block_index=3)
    assert err.value.block_index == 3 and err.value.sweeps is None


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of pair tests and rotations over both kernels; a batched call
    counts each of its pairs, one row of its ``(m, 2)`` index array."""
    calls = {"pair": 0, "rotate": 0}

    def counted(name, key):
        kernel = getattr(eig, name)

        def wrapper(w, p, *args):
            calls[key] += len(p) if isinstance(p, np.ndarray) else 1
            return kernel(w, p, *args)

        monkeypatch.setattr(eig, name, wrapper)

    for name, key in (("_list_pair", "pair"), ("_list_rotate", "rotate"),
                      ("_batch_pairs", "pair"), ("_batch_rotate", "rotate")):
        counted(name, key)
    return calls


@pytest.mark.parametrize("n", sorted({6, BATCHED, 20, 21, *KERNEL_SIZES}))
def test_one_rotated_pair_takes_one_sweep_more(n, kernel_calls, plain_path):
    # orthogonal columns, then columns 1 and n - 2 mixed: one rotation makes
    # them orthogonal again.  Either kernel tests every pair in the sweep that
    # rotates them and once more in the sweep that confirms it, rotating none
    rng = np.random.default_rng(n)
    b = np.linalg.qr(rng.standard_normal((n, n)))[0] * rng.uniform(0.5, 2.0, n)
    b[:, [1, n - 2]] = b[:, [1, n - 2]] @ np.array([[1.0, 0.5], [0.25, 1.0]])
    one_sided_svd(b)
    assert kernel_calls["rotate"] == 1
    assert kernel_calls["pair"] == n * (n - 1)


def _assert_matches_lapack(b, err_msg):
    s, v = one_sided_svd(b)
    s_ref = np.linalg.svd(b, compute_uv=False)
    np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-11 * s_ref[0], err_msg=err_msg)
    np.testing.assert_allclose(v.T @ v, np.eye(len(b)), rtol=0, atol=1e-12, err_msg=err_msg)


@pytest.mark.parametrize("n", [3, BATCHED])
def test_cancelling_columns_converge(n):
    # columns 1 and 2 each equal column 0 up to a relative 1e-5 ... 1e-15, so
    # rotations cancel most of a column's squared norm.  The list kernel then
    # computes that column's kept norm again from its row (the quarter rule);
    # the batched kernel does so for every rotated row
    for seed in range(60 if n == 3 else 10):
        rng = np.random.default_rng(seed)
        for k in range(5, 16):
            b = rng.uniform(-1, 1, (n, n))
            b[:, 1:3] = b[:, :1] * (1 + 10.0**-k * rng.uniform(-1, 1, (n, 2)))
            _assert_matches_lapack(b, f"seed={seed}, k={k}")


def test_blocks_of_the_largest_size_converge():
    # MAX_BLOCK_SIZE: the batched kernel forms its Gram entries in rounded
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


@pytest.mark.parametrize("n", sorted({3, 8, *KERNEL_SIZES, BATCHED, 32, MAX_BLOCK_SIZE}))
def test_spectral_projections_match_lapack_within_eps_over_the_gap(n):
    # a positive block with a gap of 1e-4 ||h|| below its top n // 2
    # eigenvalues: the projection onto them is determined to about
    # eps ||h|| / gap (Davis-Kahan), and both kernels, stopping at sqrt(n) eps,
    # agree with LAPACK's to 4 eps ||h|| / gap.  Stopped at a relative 1e-12,
    # they were up to 490 times that far off
    eps = np.finfo(float).eps
    k, gap = n // 2, 1e-4
    for seed in range(5):
        rng = np.random.default_rng(1000 * n + seed)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam = np.concatenate([1.0 + rng.uniform(0, 1, k), 1.0 - gap - rng.uniform(0, 0.5, n - k)])
        lam[k - 1], lam[k] = 1.0, 1.0 - gap
        h = (q * lam) @ q.T
        h = 0.5 * (h + h.T)
        v = one_sided_svd(h)[1][:, :k]
        v_ref = np.linalg.svd(h)[2][:k].T
        err = np.abs(v @ v.T - v_ref @ v_ref.T).max()
        assert err <= 4 * eps * lam.max() / gap, f"seed={seed}: {err:.3e}"


@pytest.mark.parametrize("n", [2, 3, *KERNEL_SIZES, BATCHED, MAX_BLOCK_SIZE - 1, MAX_BLOCK_SIZE])
def test_round_robin_steps_hold_every_pair_once(n):
    # integer index arrays of disjoint pairs, first rows then second rows;
    # for odd n the pair with the dummy player n is left out of each step
    steps = eig._round_robin(n)
    assert steps.dtype == np.intp and steps.shape == (n - 1 + n % 2, 2 * (n // 2))
    pairs = []
    for pq in steps:
        assert len(set(pq.tolist())) == pq.size
        pairs += [tuple(pair) for pair in pq.reshape(2, -1).T.tolist()]
    assert sorted(pairs) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def test_batched_blocks_keep_a_zero_column_exact():
    # every size on the batched kernel, odd and even, with a zero column at a
    # moving place: it never rotates, so its singular value is exactly 0 and
    # its right singular vector exactly the unit vector; the rest is LAPACK's
    for n in range(PYTHON_FLOAT_CUTOFF + 1, MAX_BLOCK_SIZE + 1):
        rng = np.random.default_rng(n)
        b = rng.uniform(-1, 1, (n, n))
        z = 7 * n % 11
        b[:, z] = 0.0
        s, v = one_sided_svd(b)
        s_ref = np.linalg.svd(b, compute_uv=False)
        np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-11 * s_ref[0], err_msg=f"n={n}")
        np.testing.assert_allclose(v.T @ v, np.eye(n), rtol=0, atol=1e-12, err_msg=f"n={n}")
        assert s[-1] == 0.0 and np.array_equal(v[:, -1], np.eye(n)[z]), f"n={n}"


@pytest.mark.parametrize("cutoff", [0, MAX_BLOCK_SIZE])
def test_exactly_parallel_columns_converge(monkeypatch, cutoff):
    # rank one with every column a multiple of one constant vector: each
    # entry of a column goes through the same float operations, so a rotated
    # column left at rounding level stays exactly parallel and fails the test
    # again.  Rotated on down it became subnormal, and the all-ones block
    # raised "a column is all subnormal" at n = 11, 13, 15, 16, ... on either
    # kernel; such a column is now set to zero.  cutoff 0 sends every block to
    # the batched kernel, MAX_BLOCK_SIZE every block to the list kernel
    monkeypatch.setattr(eig, "PYTHON_FLOAT_CUTOFF", cutoff)
    for n in [*range(2, 21), 31, 32, MAX_BLOCK_SIZE - 1, MAX_BLOCK_SIZE]:
        rng = np.random.default_rng(n)
        for name, b in {
            "ones": np.ones((n, n)),
            "full": np.full((n, n), 1.7e308 / n),
            "constant columns": np.outer(np.ones(n), rng.standard_normal(n)),
        }.items():
            _assert_matches_lapack(b, f"{name}, n={n}")


def test_zeroed_rows_leave_both_kernels_at_once(monkeypatch):
    # the all-ones and constant-column blocks end with one live column, the
    # others zeroed by the zeroing rule.  A zeroed row is not tested again, so
    # its squared norm of 0 neither hands a block on the list kernel over to the
    # batched one nor sends a batched step to the rescaled path, which every
    # later step of its sweep took when the row stayed in it
    def rescaled(*args):
        raise AssertionError("a step took the rescaled path")

    batched = []
    batch_sweep = eig._batch_sweep

    def counted(w, n, *args):
        batched.append(n)
        return batch_sweep(w, n, *args)

    monkeypatch.setattr(eig, "_rescaled_pairs", rescaled)
    monkeypatch.setattr(eig, "_batch_sweep", counted)
    for n in range(2, MAX_BLOCK_SIZE + 1):
        rng = np.random.default_rng(n)
        for name, b in {"ones": np.ones((n, n)),
                        "constant columns": np.outer(np.ones(n), rng.standard_normal(n))}.items():
            _assert_matches_lapack(b, f"{name}, n={n}")
    assert min(batched) > PYTHON_FLOAT_CUTOFF  # no block was handed over


def test_graded_rank_deficient_and_projection_blocks_take_the_plain_path():
    # forming C = b V0 costs about n eps sigma_1 absolute, where Jacobi on b
    # keeps graded, rank-deficient and projection blocks relatively accurate.
    # Each has sigma_n < 2^-10 sigma_1 and starts from [b^T | I]: the
    # rank-deficient, all-ones and projection blocks because sigma_n <
    # n eps 2^10 sigma_1, the graded ones because their column norms spread
    # over more than 2^10 (all but the last have that small a sigma_n too)
    blocks = {f"graded {scales}": np.random.default_rng(22).uniform(-1, 1, (len(scales),) * 2) * scales
              for scales in GRADED_COLUMN_SCALES}
    for n in range(3, PYTHON_FLOAT_CUTOFF + 1):
        rng = np.random.default_rng(n)
        q = np.linalg.qr(rng.standard_normal((n, n - 1)))[0]
        blocks[f"rank {n - 1}, n={n}"] = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, n))
        blocks[f"rank 1, n={n}"] = np.outer(rng.standard_normal(n), rng.standard_normal(n))
        blocks[f"ones, n={n}"] = np.ones((n, n))
        blocks[f"projection, n={n}"] = q @ q.T
        blocks[f"projection of rank 1, n={n}"] = np.outer(q[:, 0], q[:, 0])
    for name, b in blocks.items():
        assert not _preconditioned(b), name


def test_diagonal_blocks_are_exact_on_the_preconditioned_path():
    # LAPACK's V0 of a diagonal or signed-permuted diagonal block is a signed
    # permutation, so C = b V0 is exact and its column norms are exactly |d|
    rng = np.random.default_rng(5)
    for n in range(3, PYTHON_FLOAT_CUTOFF + 1):
        for trial in range(20):
            d = np.ldexp(rng.uniform(1, 2, n), rng.integers(-9, 1, n)) * rng.choice([-1.0, 1.0], n)
            b = np.diag(d)[rng.permutation(n)] if trial % 2 else np.diag(d)
            assert _preconditioned(b), f"n={n}, trial={trial}"
            np.testing.assert_array_equal(one_sided_svd(b)[0], np.sort(np.abs(d))[::-1],
                                          err_msg=f"n={n}, trial={trial}")


def _failing_svd(b):
    raise np.linalg.LinAlgError("SVD did not converge")


def _skewed_svd(b, lapack=np.linalg.svd):
    # V0 rows 1e-13 off orthogonal: C = b V0 would shift the singular values
    u, s, vt = lapack(b)
    vt[0] += 1e-13 * vt[1]
    return u, s, vt


@pytest.mark.parametrize("svd", [_failing_svd, _skewed_svd])
def test_a_lapack_failure_or_a_skewed_v0_falls_back_to_the_plain_path(monkeypatch, svd):
    blocks = [np.random.default_rng(n).standard_normal((n, n)) for n in (3, 6, PYTHON_FLOAT_CUTOFF)]
    assert all(_preconditioned(b) for b in blocks)
    with monkeypatch.context() as patch:
        patch.setattr(eig, "_preconditioner", lambda bt: None)
        plain = [one_sided_svd(b) for b in blocks]
    calls = []

    def counted(b):
        calls.append(b)
        return svd(b)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for b, (s, v) in zip(blocks, plain):
        s_f, v_f = one_sided_svd(b)
        assert s_f.tobytes() == s.tobytes() and v_f.tobytes() == v.tobytes(), f"n={len(b)}"
    assert len(calls) == len(blocks)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_preconditioned_path_keeps_relative_accuracy_near_the_gate(n):
    # sigma_n = 2^-9.5 sigma_1, just inside the gate: C = b V0's absolute error
    # of about n eps sigma_1 is still within 1e-13 of sigma_n
    for seed in range(3):
        rng = np.random.default_rng(seed)
        u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        b = (u * 2.0 ** np.linspace(0.0, -9.5, n)) @ v.T
        assert _preconditioned(b), f"seed={seed}"
        _assert_relatively_accurate(b, [_gram_polynomial(b)])


def _ill_conditioned_blocks(n):
    """Blocks of size ``n`` with ``sigma_n < 2^-10 sigma_1`` whose column norms
    lie within 2^10 of each other: ``u diag(2^linspace(0, -k)) v^T`` with
    random orthogonal ``u`` and ``v``, for k = 12, 21 and 30, and the first
    two symmetric ``g g^T / n`` with standard normal ``g`` that are that
    ill-conditioned."""
    rng = np.random.default_rng(n)
    blocks = {}
    for k in (12, 21, 30):
        u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        blocks[f"spectrum to 2^-{k}"] = (u * 2.0 ** np.linspace(0.0, -k, n)) @ v.T
    seed = 1000 * n
    while len(blocks) < 5:
        g = np.random.default_rng(seed).standard_normal((n, n))
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] ** 2 < 2**-10 * s[0] ** 2:
            blocks[f"g g^T / n, seed {seed}"] = g @ g.T / n
        seed += 1
    return blocks


@pytest.mark.parametrize("n", range(3, PYTHON_FLOAT_CUTOFF + 1))
def test_ill_conditioned_blocks_that_are_not_graded_take_the_preconditioned_path(n):
    # sigma_n < 2^-10 sigma_1, but the column norms D lie within 2^10 of each
    # other and sigma_n is far above n eps 2^10 sigma_1.  Plain Jacobi is
    # accurate to about eps kappa(b D^-1) relative here (Demmel and Veselic
    # 1992), and kappa(b) <= kappa(D) kappa(b D^-1), so C = b V0's absolute
    # error of about n eps sigma_1 costs at most the factor n 2^10 against it.
    # Each squared singular value is within a relative n eps kappa(b) of an
    # exact one; these blocks came within 0.05 of that bound
    eps = np.finfo(float).eps
    for name, b in _ill_conditioned_blocks(n).items():
        s = np.linalg.svd(b, compute_uv=False)
        kappa = s[0] / s[-1]
        assert kappa > 2**10 and _preconditioned(b), name
        _assert_relatively_accurate(b, [_gram_polynomial(b)], n * eps * kappa)
