"""The paper's first result at alpha = 2, on the kernels the package has.

For reproducing kernels K_A and K_B, H(K_A) embeds in H(K_B) exactly when
K_A <= C K_B as kernels, so the largest generalized eigenvalue of the Gram
pair (K_A(X, X), K_B(X, X)) stays bounded, by C, as the point set X grows.
A function f lies in H(K) exactly when the squared norm f(X)^T K(X, X)^-1
f(X) of its min-norm interpolant on X stays bounded as X grows; it rises
to ||f||^2 when f is in the space.

X is the midpoint grid (i + 1/2)/M for M = 8, 16, 32, 64.  The grids stop
at 64: cond K_sob(X, X) is 8.0e8 there and 1.3e10 at M = 128.
"""

from functools import cache

import numpy as np

from latticeqmc.kernels import kernel_1d

GRIDS = (8, 16, 32, 64)


@cache
def _gram(family: str, M: int) -> np.ndarray:
    x = (np.arange(M) + 0.5) / M
    return kernel_1d(family, 2, x[:, None], x[None, :])


def _largest_ratio(a: str, b: str, M: int) -> float:
    """The largest lambda with K_a v = lambda K_b v, through the Cholesky factor of K_b."""
    L = np.linalg.cholesky(_gram(b, M))
    C = np.linalg.solve(L, np.linalg.solve(L, _gram(a, M)).T)
    return float(np.linalg.eigvalsh(0.5 * (C + C.T))[-1])


def _interpolant_norm(f, family: str, M: int) -> float:
    y = f((np.arange(M) + 0.5) / M)
    return float(y @ np.linalg.solve(_gram(family, M), y))


def test_korobov_plus_cosine_and_the_odd_sobolev_subspace_have_equivalent_norms():
    """H(K^kor+cos) = H(K^sob_odd) with equivalent norms at alpha = 2: both
    Gram ratios stay flat in M (828.10 -> 828.20 and 0.9997 -> 1.0000),
    within 0.1%."""
    for a, b in (("kor_plus_cos", "sob_odd"), ("sob_odd", "kor_plus_cos")):
        lam = [_largest_ratio(a, b, M) for M in GRIDS]
        assert max(lam) <= 1.001 * min(lam), (a, b, lam)


def test_the_sobolev_space_is_not_in_its_odd_subspace():
    """H(K^sob) is not a subset of H(K^sob_odd) at alpha = 2: the Gram ratio
    grows without bound, about doubling with M (5.07, 10.1, 20.3, 40.6)."""
    lam = [_largest_ratio("sobolev", "sob_odd", M) for M in GRIDS]
    assert all(hi >= 1.9 * lo for lo, hi in zip(lam, lam[1:])), lam


def test_x_squared_is_a_sobolev_function_outside_korobov_plus_cosine():
    """H(K^kor+cos) is strictly smaller than H(K^sob) as sets at alpha = 2,
    the open problem of Dick, Nuyens & Pillichshammer (Numer. Math. 126,
    2014) that the paper solves.  The witness f = x^2 has f'(0) != f'(1).
    Its interpolant norm is bounded in K_sob (4.32 -> 5.01, within 1.2x of
    M = 8) and grows without bound in K_sob_odd, whose space is H(K^kor+cos)
    with an equivalent norm (17.4 -> 159, at least 8x)."""
    sob = [_interpolant_norm(np.square, "sobolev", M) for M in GRIDS]
    odd = [_interpolant_norm(np.square, "sob_odd", M) for M in GRIDS]
    assert max(sob) <= 1.2 * sob[0], sob
    assert odd[-1] >= 8.0 * odd[0], odd
