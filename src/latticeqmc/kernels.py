"""Reproducing kernels: Korobov, half-period cosine, their sum, and the
non-periodic Sobolev family with its odd-order subspaces.

Univariate closed forms (integer smoothness) are Bernoulli-polynomial
expressions; the cosine and Korobov+cosine kernels and the non-integer
Korobov kernel are truncated series with a rigorous uniform tail bound
available from `series_tail_bound`.  Multivariate kernels combine the
univariate ones through a weight scheme:

    K(x, y) = 1 + sum_{nonempty u} gamma_u prod_{j in u} [K_1(x_j, y_j) - 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, pi

import numpy as np

from .errors import DomainError
from .quadrature import composite_gauss_legendre
from .special_functions import MAX_DEGREE, bernoulli_scaled, riemann_zeta
from .weights import WeightScheme

FAMILIES = ("korobov", "cosine", "kor_plus_cos", "sobolev", "sob_odd", "sob_odd_alpha")
SOBOLEV_FAMILIES = ("sobolev", "sob_odd", "sob_odd_alpha")
DEFAULT_SERIES_KMAX = 10_000
_BLOCK_BUDGET = 1 << 18  # 2 MB per float64 block array; larger blocks ran no faster


def _block_rows(row_elems: int) -> int:
    """Rows per block of every blocked loop, so that a block holds about
    _BLOCK_BUDGET entries (at least one row)."""
    return max(1, _BLOCK_BUDGET // max(1, row_elems))


def _integer_alpha(alpha, step: int = 1) -> int:
    """alpha as an int, if it is an integer >= step divisible by step (step 1:
    a positive integer, step 2: an even one); 4.0 becomes 4."""
    if alpha is None or not step <= alpha < inf or alpha % step != 0:
        raise DomainError(f"alpha must be an integer >= {step} divisible by {step}, got {alpha}")
    return int(alpha)


def _closed_form(family: str, alpha) -> bool:
    """Whether kernel_1d evaluates the family at alpha by Bernoulli
    polynomials (the Sobolev families, and Korobov at integer alpha) rather
    than by a truncated series."""
    return family in SOBOLEV_FAMILIES or (family == "korobov" and alpha % 1 == 0)


def _smoothness(family: str, alpha):
    """The one smoothness rule: alpha as the family takes it.  Every family
    needs a finite alpha > 1/2; a closed form also needs an integer alpha
    within the Bernoulli tables (`_table_order`), returned as an int.  A
    series kernel keeps alpha as given; the helpers of every series kernel
    check it as "cosine"."""
    if family not in FAMILIES:
        raise DomainError(f"unknown kernel family {family!r}")
    if alpha is None or not 0.5 < alpha < inf:
        raise DomainError(f"{family} requires a finite alpha > 1/2, got {alpha}")
    if not _closed_form(family, alpha):
        return alpha
    return _table_order(_integer_alpha(alpha), alpha)


def _table_order(order: int, alpha) -> int:
    """order, if the Bernoulli tables reach degree 2 order; alpha, the
    smoothness the caller passed, is named in the refusal."""
    if 2 * order > MAX_DEGREE:
        raise DomainError(f"alpha = {alpha} needs Bernoulli degree {2 * order} > {MAX_DEGREE}")
    return order


def _tent_alpha(alpha) -> None:
    """The tent results hold in the smoothness-2 space only: alpha is None or 2."""
    if alpha is not None and alpha != 2:
        raise DomainError(f"the tent results hold at alpha = 2 only, got {alpha}")


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel: family, alpha (as `_smoothness` gives it), weights, series truncation."""

    family: str
    alpha: float
    weights: WeightScheme
    series_kmax: int = DEFAULT_SERIES_KMAX

    def __post_init__(self):
        object.__setattr__(self, "alpha", _smoothness(self.family, self.alpha))
        if self.series_kmax < 1:
            raise DomainError("series_kmax must be positive")

    @property
    def s(self) -> int:
        return self.weights.s


# -- univariate kernels (unit weight) --------------------------------------


def _series_1d(alpha: float, x, y, kmax: int, term):
    """1 + sum_{k<=kmax} term(x, y, k) / k^(2 alpha), summed in blocks of k
    whose row is the broadcast of x and y."""
    x = np.asarray(x, dtype=float)[..., None]
    y = np.asarray(y, dtype=float)[..., None]
    out = np.ones(np.broadcast(x, y).shape[:-1])
    rows = _block_rows(out.size)
    for lo in range(1, kmax + 1, rows):
        k = np.arange(lo, min(lo + rows, kmax + 1), dtype=float)
        out = out + np.sum(term(x, y, k) / k ** (2 * alpha), axis=-1)
    return out if out.ndim else float(out)


_SERIES_TERMS = {
    "korobov": lambda x, y, k: 2.0 * np.cos(2 * pi * (x - y) * k),
    "cosine": lambda x, y, k: 2.0 * np.cos(pi * x * k) * np.cos(pi * y * k),
    "kor_plus_cos": lambda x, y, k: (np.cos(2 * pi * (x - y) * k)
                                     + np.cos(pi * x * k) * np.cos(pi * y * k)),
}


def _korobov_closed_form(alpha: int, t):
    """(-1)^(alpha+1) (2 pi)^(2 alpha) b_(2 alpha)(t): the Korobov kernel of
    integer alpha, minus 1, at t = |x - y|."""
    return (-1.0) ** (alpha + 1) * (2 * pi) ** (2 * alpha) * bernoulli_scaled(2 * alpha, t)


def korobov_series_1d(alpha: float, x, y, kmax: int):
    """1 + 2 sum_{k<=kmax} cos(2 pi k (x-y)) / k^(2 alpha), term-by-term, for
    any alpha a series kernel takes."""
    return _series_1d(_smoothness("cosine", alpha), x, y, kmax, _SERIES_TERMS["korobov"])


def _sobolev_taus(family: str, alpha: int) -> list[int]:
    if family == "sobolev":
        return list(range(1, alpha + 1))
    if family == "sob_odd":
        return [t for t in range(1, alpha + 1) if t % 2 == 1]
    return sorted({t for t in range(1, alpha + 1) if t % 2 == 1} | {alpha})


def sobolev_family_1d(family: str, alpha: int, x, y):
    """1 + sum_tau b_tau(x) b_tau(y) + (-1)^(alpha+1) b_{2 alpha}(|x-y|).

    The tau range is all of 1..alpha (sobolev), the odd ones (sob_odd), or
    the odd ones plus alpha itself (sob_odd_alpha).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = 1.0 + (-1.0) ** (alpha + 1) * bernoulli_scaled(2 * alpha, np.abs(x - y))
    for tau in _sobolev_taus(family, alpha):
        out = out + bernoulli_scaled(tau, x) * bernoulli_scaled(tau, y)
    return out if np.ndim(out) else float(out)


def kernel_1d(family: str, alpha: float, x, y, kmax: int = DEFAULT_SERIES_KMAX):
    """Univariate kernel K_(alpha,1,1) of the requested family at (x, y)."""
    alpha = _smoothness(family, alpha)
    if family in SOBOLEV_FAMILIES:
        return sobolev_family_1d(family, alpha, x, y)
    if not _closed_form(family, alpha):
        return _series_1d(alpha, x, y, kmax, _SERIES_TERMS[family])
    t = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    out = 1.0 + _korobov_closed_form(alpha, t)
    return out if np.ndim(out) else float(out)


def _lattice_tables(family: str, alpha: int, D: int):
    """g and beta[tau] at a = 0..D with kernel_1d(family, alpha, a/D, b/D) - 1 =
    g[|a - b|] + sum_tau beta[tau][a] beta[tau][b]: g is the Korobov closed form,
    over (2 pi)^(2 alpha) for the Sobolev families, whose beta[tau] is b_tau."""
    t = np.arange(D + 1) / D
    g = kernel_1d("korobov", alpha, t, 0.0) - 1.0
    if family == "korobov":
        return g, {}
    return g / (2 * pi) ** (2 * alpha), {tau: bernoulli_scaled(tau, t)
                                         for tau in _sobolev_taus(family, alpha)}


def series_tail_bound(alpha: float, kmax: int) -> float:
    """Uniform bound on the truncation error of every series kernel above:
    each dropped term is at most 2 / k^(2 alpha) in absolute value."""
    alpha = _smoothness("cosine", alpha)
    k = np.arange(1, kmax + 1, dtype=float)
    return 2.0 * (riemann_zeta(2 * alpha) - float(np.sum(k ** (-2 * alpha))))


# -- multivariate kernel ----------------------------------------------------


def kernel(spec: KernelSpec, x, y):
    """Weighted multivariate kernel at point arrays of shape (..., s)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != spec.s or y.shape[-1] != spec.s:
        raise DomainError(f"points must have last axis {spec.s}")
    eta = kernel_1d(spec.family, spec.alpha, x, y, spec.series_kmax) - 1.0
    out = 1.0 + spec.weights.combine(eta)
    return out if np.ndim(out) else float(out)


def kernel_mean_identity_check(spec: KernelSpec, x, quad_points: int = 64) -> float:
    """Numerically integrate y -> K(x, y) over the cube; the unit-mean kernels
    used by the worst-case-error shortcut must return 1 here.

    The integral factorizes coordinate-wise; each 1-d factor is integrated by
    composite Gauss-Legendre split at x_j (the |x - y| kink).
    """
    if not _closed_form(spec.family, spec.alpha):
        raise DomainError("mean-identity check applies to the closed-form kernel families")
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.s,):
        raise DomainError(f"x must be a point of dimension {spec.s}")
    panels = max(2, quad_points // 8)
    means = np.empty(spec.s)
    for j in range(spec.s):
        xj = float(x[j])
        means[j] = composite_gauss_legendre(
            lambda t: kernel_1d(spec.family, spec.alpha, xj, t) - 1.0,
            0.0, 1.0, panels=panels, breakpoints=(xj,),
        )
    return float(1.0 + spec.weights.combine(means[None, :])[0])
