"""Bernoulli polynomials and zeta values.

The polynomial coefficients are generated once as exact rationals through
degree ``MAX_DEGREE`` and cached; evaluation then happens in floating point
via Horner's scheme.  Every kernel and worst-case-error formula in this
package at integer smoothness reduces to these evaluations, which is why the
table is exact rather than recursively computed in floats; at other
smoothness the kernels read zeta at real arguments from one Euler-Maclaurin
body.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, expm1, factorial, fsum, gamma, inf, log, pi, sin

import numpy as np

from .errors import DomainError
from .numtheory import _integer, _real

MAX_DEGREE = 16

__all__ = [
    "MAX_DEGREE",
    "bernoulli_numbers",
    "bernoulli_coefficients",
    "bernoulli_poly",
    "bernoulli_scaled",
    "riemann_zeta",
]


@lru_cache(maxsize=None)
def bernoulli_numbers() -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_MAX_DEGREE as exact Fractions (B_1 = -1/2)."""
    b: list[Fraction] = [Fraction(1)]
    for m in range(1, MAX_DEGREE + 1):
        s = sum(Fraction(comb(m + 1, j)) * b[j] for j in range(m))
        b.append(-s / (m + 1))
    return tuple(b)


@lru_cache(maxsize=None)
def bernoulli_coefficients(tau: int) -> tuple[Fraction, ...]:
    """Exact coefficients of B_tau(x) in increasing powers of x.

    B_tau(x) = sum_k C(tau, k) B_{tau-k} x^k.
    """
    if not 0 <= (tau := _integer(tau, "degree")) <= MAX_DEGREE:
        raise DomainError(f"degree must be in 0..{MAX_DEGREE}, got {tau}")
    numbers = bernoulli_numbers()
    return tuple(Fraction(comb(tau, k)) * numbers[tau - k] for k in range(tau + 1))


@lru_cache(maxsize=None)
def _float_coefficients(tau: int) -> np.ndarray:
    return np.array([float(c) for c in bernoulli_coefficients(tau)])


def bernoulli_poly(tau: int, x):
    """B_tau(x) by Horner's scheme from the exact coefficient table.

    Accepts scalars or numpy arrays; degree limited to MAX_DEGREE.
    """
    coeffs = _float_coefficients(tau)
    x = np.asarray(x, dtype=float)
    acc = np.full(x.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc if acc.ndim else float(acc)


def bernoulli_scaled(tau: int, x):
    """b_tau(x) = B_tau(x) / tau!."""
    return bernoulli_poly(tau, x) / factorial(tau)


_EM_COEFFS = tuple(float(bernoulli_numbers()[2 * j] / factorial(2 * j)) for j in range(1, 8))
# Rounded up by 4 eps, the tail is a bound.  Euler-Maclaurin errs upward (the
# first dropped term, with B_16 < 0, is negative); fsum rounds once; the terms
# that carry the sum are one pow (exact exponent, within an ulp) and at most one
# division: about 2.5 eps in all.  Against mpmath the unrounded sum stayed
# within 1.2 eps for sigma in [1.0001, 32], m <= 10^6 + 1.
_ROUND_UP = 1.0 + 4 * np.finfo(float).eps


def _em_terms(sigma: float, m: int, integral: float) -> list[float]:
    """The Euler-Maclaurin terms of sum_{k >= m} k^-sigma: k = m..m+15 directly,
    then at M = m + 16 the given integral term, the half term and seven
    corrections B_2j/(2j)! sigma (sigma+1) ... (sigma+2j-2) M^(1-sigma-2j)."""
    M = float(m + 16)
    terms = [float(k) ** -sigma for k in range(m, m + 16)]
    terms += [integral, 0.5 * M ** -sigma]
    rising, power = sigma, M ** (-sigma - 1.0)
    for j, c in enumerate(_EM_COEFFS):
        if power == 0.0:  # sigma so large that the rest underflows
            break
        terms.append(c * rising * power)
        rising *= (sigma + 2 * j + 1) * (sigma + 2 * j + 2)
        power /= M * M
    return terms


def _zeta_tail(sigma: float, m: int) -> float:
    """An upper bound, within 7 eps relative, on sum_{k >= m} k^-sigma for
    finite sigma > 1 and integer m >= 1: `_em_terms` with the integral
    M^(1-sigma) / (sigma - 1), rounded up."""
    if not 1.0 < sigma < inf:
        raise DomainError(f"zeta requires a finite sigma > 1, got {sigma}")
    M = float(m + 16)
    return fsum(_em_terms(sigma, m, M ** (1.0 - sigma) / (sigma - 1.0))) * _ROUND_UP


def riemann_zeta(sigma: float) -> float:
    """zeta(sigma) = `_zeta_tail`(sigma, 1) at a `_real` sigma: at most 7 eps above, never below."""
    return _zeta_tail(_real(sigma, f"zeta requires a finite sigma > 1, got {sigma}"), 1)


def _zeta_regular(sigma: float) -> float:
    """zeta(sigma) - 1/(sigma - 1) for sigma >= 1/2, Euler's constant at sigma = 1:
    `_em_terms` at m = 1 with the pole taken out of the integral term,
    (M^(1-sigma) - 1) / (sigma - 1) = -log M expm1(x) / x, x = (1 - sigma) log M."""
    x = (1.0 - sigma) * log(17.0)
    return fsum(_em_terms(sigma, 1, -log(17.0) * (expm1(x) / x if x else 1.0)))


def _zeta(sigma: float) -> float:
    """zeta(sigma) at every real sigma != 1, unrounded: `_zeta_regular` from 1/2 up,
    the functional equation onto 1 - sigma below it (near its trivial zeros good to
    about 1e-16 absolute, not relative)."""
    if sigma >= 0.5:
        return _zeta_regular(sigma) + 1.0 / (sigma - 1.0)
    if sigma == 0:
        return -0.5
    return (2.0 ** sigma * pi ** (sigma - 1.0) * sin(pi * sigma / 2) * gamma(1.0 - sigma)
            * _zeta(1.0 - sigma))
