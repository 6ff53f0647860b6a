"""Reproducing kernels: Korobov, half-period cosine, their sum, and the
non-periodic Sobolev family with its odd-order subspaces.

The Korobov, cosine and Korobov+cosine kernels are 1 plus a combination of
kappa(t) = 2 sum_{k>=1} cos(2 pi k t) / k^(2 alpha) (`_KAPPA_COEFFS`): Bernoulli
polynomials at an integer alpha within the tables, as the Sobolev families
are, else the polylog expansion of kappa in closed form (`_kappa`), at every
alpha > 1/2 and every t.  Multivariate kernels combine the univariate ones
through a weight scheme:

    K(x, y) = 1 + sum_{nonempty u} gamma_u prod_{j in u} [K_1(x_j, y_j) - 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import cos, factorial, fsum, gamma, log1p, pi

import numpy as np

from .errors import DomainError
from .numtheory import _MAX, _real, _reals
from .special_functions import MAX_DEGREE, _zeta, _zeta_regular, bernoulli_scaled
from .weights import WeightScheme

FAMILIES = ("korobov", "cosine", "kor_plus_cos", "sobolev", "sob_odd", "sob_odd_alpha")
SOBOLEV_FAMILIES = ("sobolev", "sob_odd", "sob_odd_alpha")
_BLOCK_BUDGET = 1 << 18  # 2 MB per float64 block array; larger blocks ran no faster


def _block_rows(row_elems: int) -> int:
    """Rows per block of every blocked loop, so that a block holds about
    _BLOCK_BUDGET entries (at least one row)."""
    return max(1, _BLOCK_BUDGET // max(1, row_elems))


def _integer_alpha(alpha, step: int = 1) -> int:
    """alpha as an int, if it is a real (`_real`) integer >= step divisible by step
    (step 1: a positive integer, step 2: an even one); 4.0 becomes 4."""
    refusal = f"alpha must be an integer >= {step} divisible by {step}, got {alpha}"
    if (order := _real(alpha, refusal, step)) % step != 0:
        raise DomainError(refusal)
    return int(order)


def _closed_form(family: str, alpha) -> bool:
    """The one rule for a Bernoulli closed form, which kernel_1d and `_kappa` evaluate:
    the Sobolev families always, the families on kappa at an integer alpha with
    2 alpha <= MAX_DEGREE.  Off it `_kappa` takes the polylog expansion."""
    return family in SOBOLEV_FAMILIES or (alpha % 1 == 0 and 2 * alpha <= MAX_DEGREE)


def _smoothness(family: str, alpha):
    """The one smoothness rule: alpha as the family takes it.  Every family needs
    a real (`_real`) alpha > 1/2 whose 2 alpha is a finite double; a Bernoulli closed
    form (`_closed_form`) also needs an integer alpha whose degree 2 alpha the tables
    reach, returned as an int.  A kernel on `_kappa` takes alpha as a float."""
    if family not in FAMILIES:
        raise DomainError(f"unknown kernel family {family!r}")
    refusal = f"{family} requires a finite alpha > 1/2 with 2 alpha a finite double, got {alpha}"
    if not (real := _real(alpha, refusal, high=_MAX / 2)) > 0.5:
        raise DomainError(refusal)
    if not _closed_form(family, real):
        return real
    order = _integer_alpha(alpha)
    if 2 * order > MAX_DEGREE:
        raise DomainError(f"alpha = {alpha} needs Bernoulli degree {2 * order} > {MAX_DEGREE}")
    return order


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel: family, alpha (as `_smoothness` gives it), weights."""

    family: str
    alpha: float
    weights: WeightScheme

    def __post_init__(self):
        object.__setattr__(self, "alpha", _smoothness(self.family, self.alpha))

    @property
    def s(self) -> int:
        return self.weights.s


# -- univariate kernels (unit weight) --------------------------------------


# kernel_1d - 1 on kappa(|x - y|), kappa(|x - y| / 2), kappa((x + y) / 2), by 2 cos(pi k x)
# cos(pi k y) = cos(pi k (x - y)) + cos(pi k (x + y)).
_KAPPA_COEFFS = {"korobov": (1.0, 0.0, 0.0), "cosine": (0.0, 0.5, 0.5),
                 "kor_plus_cos": (0.5, 0.25, 0.25)}


_KAPPA_TERMS = 30  # theta^(2m) / (2m)! zeta(s - 2m) shrinks like 4^-m at theta = pi


@cache
def _kappa_terms(alpha):
    """kappa off the Bernoulli tables as (a, singular), made once per alpha: with s = 2 alpha,
    theta = 2 pi min(t, 1 - t), kappa = sum_(m < 30) a_m theta^(2m) + singular(theta), the
    polylog expansion of 2 Re Li_s(e^(i theta)): a_m = 2 (-1)^m zeta(s - 2m) / (2m)! and
    singular = pi theta^(s-1) / (Gamma(s) cos(pi s / 2)).  Within |eps| <= 1/2 of an odd
    s = 2 m0 + 1 (eps = s - 2 m0 - 1) the poles of that term and of a_m0 cancel, so the two
    are one: b theta^(2 m0) [(zeta(1 + eps) - 1/eps) - expm1(eps c) / eps], b = 2 (-1)^m0 /
    (2 m0)!, c = log theta + sum_k zeta(2k) eps^(2k-1) / (k 4^k) - lgamma(1 + eps) / eps
    - sum_(j <= 2 m0) log1p(eps / j) / eps; at eps = 0 the bracket is Euler's gamma - c."""
    s = 2.0 * alpha
    m0 = round((s - 1.0) / 2)
    eps = s - 2 * m0 - 1
    pair = abs(eps) <= 0.5 and m0 < _KAPPA_TERMS
    a = [0.0 if pair and m == m0 else 2.0 * (-1) ** m * _zeta(s - 2 * m) / factorial(2 * m)
         for m in range(_KAPPA_TERMS)]
    if s >= 171:  # Gamma(s) overflows, and theta^(s-1) / Gamma(s) < 1e-220
        return a, lambda theta: 0.0
    if not pair:
        A = pi / (gamma(s) * cos(pi * s / 2))
        return a, lambda theta: A * theta ** (s - 1.0)
    # lgamma(1 + eps) / eps = -(Euler's gamma) + sum_(k >= 2) (-1)^k zeta(k) eps^(k-1) / k
    lgamma_ratio = -0.5772156649015329 + fsum((-1) ** k * _zeta(k) * eps ** (k - 1) / k
                                              for k in range(2, 66))
    c0 = (fsum(_zeta(2 * k) * eps ** (2 * k - 1) / (k * 4 ** k) for k in range(1, 30))
          - lgamma_ratio - fsum(log1p(eps / j) / eps if eps else 1.0 / j
                                for j in range(1, 2 * m0 + 1)))
    b, z = 2.0 * (-1) ** m0 / factorial(2 * m0), _zeta_regular(1.0 + eps)

    def pole_pair(theta):
        c = np.log(theta) + c0
        return b * theta ** (2 * m0) * (z - (np.expm1(eps * c) / eps if eps else c))

    return a, pole_pair


def _kappa(alpha, t):
    """kappa(t) = 2 sum_(k >= 1) cos(2 pi k t) / k^(2 alpha) at t in [0, 1], in closed form at
    every alpha > 1/2: (-1)^(alpha+1) (2 pi)^(2 alpha) b_(2 alpha)(t) where `_closed_form`
    holds, else one polynomial in theta^2 and one power, log or expm1 (`_kappa_terms`)."""
    if _closed_form("korobov", alpha):
        return (-1.0) ** (alpha + 1) * (2 * pi) ** (2 * alpha) * bernoulli_scaled(2 * alpha, t)
    a, singular = _kappa_terms(alpha)
    theta = 2 * pi * np.minimum(t, 1.0 - t)
    u, out = theta * theta, np.full(theta.shape, a[-1])
    for c in a[-2::-1]:
        out = out * u + c
    # theta = 0 (t = 0 or 1) meets log 0 and 0 * inf; kappa is 2 zeta(2 alpha) there
    with np.errstate(divide="ignore", invalid="ignore"):
        out += singular(theta)
    return np.where(theta > 0, out, 2.0 * _zeta(2.0 * alpha))


def _sobolev_taus(family: str, alpha: int) -> list[int]:
    if family == "sobolev":
        return list(range(1, alpha + 1))
    if family == "sob_odd":
        return [t for t in range(1, alpha + 1) if t % 2 == 1]
    return sorted({t for t in range(1, alpha + 1) if t % 2 == 1} | {alpha})


def kernel_1d(family: str, alpha: float, x, y):
    """Univariate kernel K_(alpha,1,1) of the family at (x, y) in [0, 1]: the Sobolev families
    are 1 + sum_tau b_tau(x) b_tau(y) + (-1)^(alpha+1) b_(2 alpha)(|x - y|), tau over all of
    1..alpha (sobolev), the odd ones (sob_odd), or the odd ones and alpha (sob_odd_alpha); the
    others are 1 plus `_KAPPA_COEFFS` on `_kappa`.  Outside [0, 1] the closed forms are not
    the kernel, so such points (and NaN) are refused (`_reals`)."""
    alpha = _smoothness(family, alpha)
    x, y = (_reals(v, "kernel_1d takes x and y in [0, 1]", 0.0, 1.0) for v in (x, y))
    d = np.abs(x - y)
    if family in SOBOLEV_FAMILIES:
        out = 1.0 + (-1.0) ** (alpha + 1) * bernoulli_scaled(2 * alpha, d)
        for tau in _sobolev_taus(family, alpha):
            out = out + bernoulli_scaled(tau, x) * bernoulli_scaled(tau, y)
        return out if np.ndim(out) else float(out)
    coeffs, args = zip(*[(c, t) for c, t in zip(_KAPPA_COEFFS[family], (d, d / 2, (x + y) / 2))
                         if c])
    args = np.stack(np.broadcast_arrays(*args))
    out = 1.0 + sum(c * k for c, k in zip(coeffs, _kappa(alpha, args)))
    return out if np.ndim(out) else float(out)


def _lattice_tables(family: str, alpha, D: int):
    """g, beta[tau], g_sum (2D + 1 entries, or None) with kernel_1d(family, alpha, a/D, b/D) - 1
    = g[|a - b|] + sum_tau beta[tau][a] beta[tau][b] + g_sum[a + b], all from one Korobov kernel_1d
    table kappa(c / 2D), c = 0..2D: kappa(|a - b| / D) at 2|a - b| (over (2 pi)^(2 alpha), beside
    beta[tau] = b_tau, for the Sobolev families), the half-period terms at |a - b| and a + b;
    at every alpha that KernelSpec takes for the family."""
    t = np.arange(2 * D + 1) / (2 * D)
    kappa = kernel_1d("korobov", alpha, t, 0.0) - 1.0
    if family in SOBOLEV_FAMILIES:
        return kappa[::2] / (2 * pi) ** (2 * alpha), {
            tau: bernoulli_scaled(tau, t[::2]) for tau in _sobolev_taus(family, alpha)}, None
    c_diff, c_half, c_sum = _KAPPA_COEFFS[family]
    return c_diff * kappa[::2] + c_half * kappa[:D + 1], {}, (c_sum * kappa if c_sum else None)


# -- multivariate kernel ----------------------------------------------------


def kernel(spec: KernelSpec, x, y):
    """Weighted multivariate kernel at point arrays of shape (..., s), read by `kernel_1d`."""
    try:
        shapes = np.shape(x)[-1:], np.shape(y)[-1:]
    except ValueError:  # arrays of unequal shapes, which numpy cannot lay out
        shapes = None
    if shapes != ((spec.s,), (spec.s,)):
        raise DomainError(f"points must have last axis {spec.s}")
    eta = kernel_1d(spec.family, spec.alpha, x, y) - 1.0
    out = 1.0 + spec.weights.combine(eta)
    return out if np.ndim(out) else float(out)
