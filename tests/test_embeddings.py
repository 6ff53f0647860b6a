"""The paper's embeddings and norm equivalences at alpha = 1, 2 and 3, on the
kernels the package has.

For reproducing kernels K_A and K_B, H(K_A) embeds in H(K_B) exactly when
K_A <= C K_B as kernels, so the largest generalized eigenvalue of the Gram
pair (K_A(X, X), K_B(X, X)) stays bounded, by C, as the point set X grows.
A function f lies in H(K) exactly when the squared norm f(X)^T K(X, X)^-1
f(X) of its min-norm interpolant on X stays bounded as X grows; it rises
to ||f||^2 when f is in the space.

X is the midpoint grid (i + 1/2)/M.  The grids stop where double precision
still holds the Gram matrices, whose condition grows with M and alpha:
- alpha = 1: M = 8, 16, 32, 64, 128; cond K_sob(X, X) is 6.6e4 at M = 128.
- alpha = 2: M = 8, 16, 32, 64; cond K_sob is 8.0e8 at M = 64 and 1.3e10 at
  M = 128.
- alpha = 3: M = 8, 16, 24, 32; cond K_sob is 5.0e11 at M = 32 and 1.9e12
  at M = 40, so the grid grows by 8 points, not by doubling.
"""

from functools import cache

import numpy as np

from latticeqmc.kernels import kernel_1d

GRIDS = {1: (8, 16, 32, 64, 128), 2: (8, 16, 32, 64), 3: (8, 16, 24, 32)}


@cache
def _gram(family: str, alpha: int, M: int) -> np.ndarray:
    x = (np.arange(M) + 0.5) / M
    return kernel_1d(family, alpha, x[:, None], x[None, :])


def _largest_ratio(a: str, b: str, alpha: int, M: int) -> float:
    """The largest lambda with K_a v = lambda K_b v, through the Cholesky factor of K_b."""
    L = np.linalg.cholesky(_gram(b, alpha, M))
    C = np.linalg.solve(L, np.linalg.solve(L, _gram(a, alpha, M)).T)
    return float(np.linalg.eigvalsh(0.5 * (C + C.T))[-1])


def _ratios(a: str, b: str, alpha: int) -> list[float]:
    return [_largest_ratio(a, b, alpha, M) for M in GRIDS[alpha]]


def _interpolant_norms(f, family: str, alpha: int) -> list[float]:
    norms = []
    for M in GRIDS[alpha]:
        y = f((np.arange(M) + 0.5) / M)
        norms.append(float(y @ np.linalg.solve(_gram(family, alpha, M), y)))
    return norms


def _flat(values, rel: float = 1e-3) -> bool:
    return max(values) <= (1.0 + rel) * min(values)


def test_korobov_plus_cosine_and_the_odd_sobolev_subspace_have_equivalent_norms():
    """H(K^kor+cos) = H(K^sob_odd) with equivalent norms at alpha = 2: both
    Gram ratios stay flat in M (828.10 -> 828.20 and 0.9997 -> 1.0000),
    within 0.1%."""
    for a, b in (("kor_plus_cos", "sob_odd"), ("sob_odd", "kor_plus_cos")):
        lam = _ratios(a, b, 2)
        assert _flat(lam), (a, b, lam)


def test_the_sobolev_space_is_not_in_its_odd_subspace():
    """H(K^sob) is not a subset of H(K^sob_odd) at alpha = 2: the Gram ratio
    grows without bound, about doubling with M (5.07, 10.1, 20.3, 40.6)."""
    lam = _ratios("sobolev", "sob_odd", 2)
    assert all(hi >= 1.9 * lo for lo, hi in zip(lam, lam[1:])), lam


def test_x_squared_is_a_sobolev_function_outside_korobov_plus_cosine():
    """H(K^kor+cos) is strictly smaller than H(K^sob) as sets at alpha = 2,
    the open problem of Dick, Nuyens & Pillichshammer (Numer. Math. 126,
    2014) that the paper solves.  The witness f = x^2 has f'(0) != f'(1).
    Its interpolant norm is bounded in K_sob (4.32 -> 5.01, within 1.2x of
    M = 8) and grows without bound in K_sob_odd, whose space is H(K^kor+cos)
    with an equivalent norm (17.4 -> 159, at least 8x)."""
    sob = _interpolant_norms(np.square, "sobolev", 2)
    odd = _interpolant_norms(np.square, "sob_odd", 2)
    assert max(sob) <= 1.2 * sob[0], sob
    assert odd[-1] >= 8.0 * odd[0], odd


# -- alpha = 1: every space is the Sobolev space -------------------------------


def test_alpha_1_cosine_and_korobov_plus_cosine_embed_in_the_sobolev_space():
    """H(K^cos) and H(K^kor+cos) embed in H(K^sob) at alpha = 1: the Gram
    ratios are flat in M, at pi^2 = 9.87 and 5 pi^2 / 2 = 24.67."""
    for a, want in (("cosine", np.pi**2), ("kor_plus_cos", 2.5 * np.pi**2)):
        lam = _ratios(a, "sobolev", 1)
        assert _flat(lam) and abs(lam[-1] - want) <= 1e-3 * want, (a, lam)


def test_alpha_1_the_sobolev_space_embeds_in_cosine_and_korobov_plus_cosine():
    """H(K^sob) embeds in H(K^cos) and in H(K^kor+cos) at alpha = 1, so with
    the embeddings the other way the three spaces are one, with equivalent
    norms: the Gram ratios rise to 1 and no further (0.989 -> 1.000 against
    the cosine kernel, 0.970 -> 1.000 against Korobov+cosine)."""
    for b in ("cosine", "kor_plus_cos"):
        lam = _ratios("sobolev", b, 1)
        assert 0.95 <= lam[0] and max(lam) <= 1.0 + 1e-6, (b, lam)
        assert all(lo <= hi for lo, hi in zip(lam, lam[1:])), (b, lam)


def test_alpha_1_x_squared_lies_in_every_space():
    """At alpha = 1 x^2 does not separate the spaces: its interpolant norm
    converges in K_sob (1.20 -> 1.43), K_cos (0.220 -> 0.245) and K_kor+cos
    (0.234 -> 0.319), each step at most 0.7 of the one before as M doubles,
    so the norms are bounded."""
    for family in ("sobolev", "cosine", "kor_plus_cos"):
        norms = _interpolant_norms(np.square, family, 1)
        steps = np.diff(norms)
        assert np.all(steps > 0) and np.all(steps[1:] <= 0.7 * steps[:-1]), (family, norms)


def test_alpha_1_the_odd_sobolev_subspace_is_the_whole_space():
    """At alpha = 1 the only order tau is 1, which is odd, so K^sob_odd is
    K^sob and the odd subspace is all of H(K^sob)."""
    for M in GRIDS[1]:
        assert np.array_equal(_gram("sob_odd", 1, M), _gram("sobolev", 1, M))


# -- alpha = 3 ------------------------------------------------------------------


def test_alpha_3_korobov_plus_cosine_and_the_odd_sobolev_subspace_have_equivalent_norms():
    """H(K^kor+cos) = H(K^sob_odd) with equivalent norms at alpha = 3, where
    sob_odd keeps the orders tau = 1 and 3: both Gram ratios stay flat in M
    (3.125e4 and 1.000), within 0.1%."""
    for a, b in (("kor_plus_cos", "sob_odd"), ("sob_odd", "kor_plus_cos")):
        lam = _ratios(a, b, 3)
        assert _flat(lam), (a, b, lam)


def test_alpha_3_the_sobolev_space_is_not_in_its_odd_subspace():
    """H(K^sob) is not a subset of H(K^sob_odd) at alpha = 3: the Gram ratio
    grows like M^3 (578, 4.6e3, 1.6e4, 3.7e4 at M = 8, 16, 24, 32)."""
    lam = _ratios("sobolev", "sob_odd", 3)
    grids = GRIDS[3]
    assert all(lam[i + 1] >= 0.95 * (grids[i + 1] / grids[i]) ** 3 * lam[i]
               for i in range(len(lam) - 1)), lam


def test_alpha_3_x_squared_is_a_sobolev_function_outside_korobov_plus_cosine():
    """H(K^kor+cos) is strictly smaller than H(K^sob) as sets at alpha = 3.
    The witness f = x^2 has an interpolant norm bounded in K_sob (5.104 ->
    5.111, within 1%) and growing in K_kor+cos (0.43 -> 5.2, at least 10x)."""
    sob = _interpolant_norms(np.square, "sobolev", 3)
    kor_cos = _interpolant_norms(np.square, "kor_plus_cos", 3)
    assert max(sob) <= 1.01 * sob[0], sob
    assert all(lo < hi for lo, hi in zip(kor_cos, kor_cos[1:])), kor_cos
    assert kor_cos[-1] >= 10.0 * kor_cos[0], kor_cos
