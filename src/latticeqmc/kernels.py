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

import json
from dataclasses import dataclass, field, replace
from math import pi

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


def _is_integer(a: float) -> bool:
    return float(a) == int(a)


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel: family, smoothness alpha, weights, and series truncation."""

    family: str
    alpha: float
    weights: WeightScheme
    series_kmax: int = DEFAULT_SERIES_KMAX

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        if self.family in SOBOLEV_FAMILIES:
            if not _is_integer(self.alpha) or self.alpha < 1:
                raise DomainError(f"{self.family} requires integer alpha >= 1")
            if 2 * int(self.alpha) > MAX_DEGREE:
                raise DomainError(f"alpha <= {MAX_DEGREE // 2} supported, got {self.alpha}")
        else:
            if self.alpha <= 0.5:
                raise DomainError(f"{self.family} requires alpha > 1/2, got {self.alpha}")
            if self.family == "korobov" and _is_integer(self.alpha) and 2 * int(self.alpha) > MAX_DEGREE:
                raise DomainError(f"integer alpha <= {MAX_DEGREE // 2} supported")
        if self.series_kmax < 1:
            raise DomainError("series_kmax must be positive")

    @property
    def s(self) -> int:
        return self.weights.s

    def with_weights(self, weights: WeightScheme) -> "KernelSpec":
        return replace(self, weights=weights)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "alpha": self.alpha,
            "kmax": self.series_kmax,
            "weights": self.weights.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(data: dict) -> "KernelSpec":
        return KernelSpec(
            family=data["family"],
            alpha=data["alpha"],
            weights=WeightScheme.from_dict(data["weights"]),
            series_kmax=int(data.get("kmax", DEFAULT_SERIES_KMAX)),
        )

    @staticmethod
    def from_json(text: str) -> "KernelSpec":
        return KernelSpec.from_dict(json.loads(text))


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
    """1 + 2 sum_{k<=kmax} cos(2 pi k (x-y)) / k^(2 alpha), term-by-term."""
    return _series_1d(alpha, x, y, kmax, _SERIES_TERMS["korobov"])


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
    if family in SOBOLEV_FAMILIES:
        if not _is_integer(alpha) or alpha < 1:
            raise DomainError(f"{family} requires integer alpha >= 1")
        return sobolev_family_1d(family, int(alpha), x, y)
    if alpha <= 0.5:
        raise DomainError(f"{family} requires alpha > 1/2")
    if family == "korobov" and _is_integer(alpha):
        t = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        out = 1.0 + _korobov_closed_form(int(alpha), t)
        return out if np.ndim(out) else float(out)
    if family in _SERIES_TERMS:
        return _series_1d(alpha, x, y, kmax, _SERIES_TERMS[family])
    raise DomainError(f"unknown kernel family {family!r}")


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
    if not (spec.family in SOBOLEV_FAMILIES
            or (spec.family == "korobov" and _is_integer(spec.alpha))):
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
