"""Bernoulli polynomials, their periodic extensions, zeta values, and series oracles.

The polynomial coefficients are generated once as exact rationals through
degree ``MAX_DEGREE`` and cached; evaluation then happens in floating point
via Horner's scheme.  Every kernel and worst-case-error formula in this
package ultimately reduces to these evaluations, which is why the table is
exact rather than recursively computed in floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, inf, pi

import numpy as np

from .errors import DomainError

MAX_DEGREE = 16

__all__ = [
    "MAX_DEGREE",
    "bernoulli_numbers",
    "bernoulli_coefficients",
    "bernoulli_poly",
    "bernoulli_scaled",
    "bernoulli_periodic",
    "riemann_zeta",
    "bernoulli_fourier_partial_sum",
    "fourier_tail_bound",
]


@lru_cache(maxsize=None)
def bernoulli_numbers(max_degree: int = MAX_DEGREE) -> tuple[Fraction, ...]:
    """Bernoulli numbers B_0..B_max_degree as exact Fractions (B_1 = -1/2)."""
    b: list[Fraction] = [Fraction(1)]
    for m in range(1, max_degree + 1):
        s = sum(Fraction(comb(m + 1, j)) * b[j] for j in range(m))
        b.append(-s / (m + 1))
    return tuple(b)


@lru_cache(maxsize=None)
def bernoulli_coefficients(tau: int) -> tuple[Fraction, ...]:
    """Exact coefficients of B_tau(x) in increasing powers of x.

    B_tau(x) = sum_k C(tau, k) B_{tau-k} x^k.
    """
    if tau < 0 or tau > MAX_DEGREE:
        raise DomainError(f"degree must be in 0..{MAX_DEGREE}, got {tau}")
    numbers = bernoulli_numbers(MAX_DEGREE)
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


def bernoulli_periodic(tau: int, x):
    """Periodic extension: B_tau(x - floor(x)).

    Rejected for tau = 1: the extension is discontinuous at the integers and
    no consumer in this package needs it (the kernels evaluate the degree-2a
    polynomial at |x - y| in [0, 1] directly).
    """
    if tau < 2:
        raise DomainError("periodic extension requires tau >= 2")
    x = np.asarray(x, dtype=float)
    return bernoulli_poly(tau, x - np.floor(x))


_ZETA_CUTOFF = 100_000


def riemann_zeta(sigma: float) -> float:
    """zeta(sigma) for finite sigma > 1: direct sum plus Euler-Maclaurin tail.

    Direct summation to 10^5 terms, then the integral term, the half-term
    correction, and four Euler-Maclaurin corrections.  Absolute error is
    below 1e-13 for all sigma >= 1.1 and stays far smaller for sigma >= 2.
    """
    if not 1.0 < sigma < inf:
        raise DomainError(f"zeta requires a finite sigma > 1, got {sigma}")
    m = _ZETA_CUTOFF
    k = np.arange(1, m + 1, dtype=float)
    head = float(np.sum(k ** (-sigma)))
    # Tail sum_{k>m} k^-sigma via Euler-Maclaurin around m.
    tail = m ** (1.0 - sigma) / (sigma - 1.0) - 0.5 * m ** (-sigma)
    # B_{2j}/(2j)! * sigma (sigma+1) ... (sigma+2j-2) * m^(-sigma-2j+1), j=1..4.
    b2j_over_fact = (1.0 / 12, -1.0 / 720, 1.0 / 30240, -1.0 / 1209600)
    rising = sigma
    power = m ** (-sigma - 1.0)
    for j, c in enumerate(b2j_over_fact):
        tail += c * rising * power
        rising *= (sigma + 2 * j + 1) * (sigma + 2 * j + 2)
        power /= float(m) * m
    return head + tail


def bernoulli_fourier_partial_sum(tau: int, x: float, kmax: int) -> float:
    """Truncated Fourier series of b_tau = B_tau / tau! (tau >= 2 only).

    Sums -(2 pi i)^-tau sum_{0<|k|<=kmax} e^{2 pi i k x} / k^tau in its real
    trigonometric form.  Serves as an oracle against the polynomial table;
    the conditionally convergent tau = 1 series is intentionally unsupported.
    """
    if tau < 2:
        raise DomainError("partial sums require tau >= 2")
    if kmax < 1:
        raise DomainError("kmax must be positive")
    k = np.arange(1, kmax + 1, dtype=float)
    if tau % 2 == 0:
        m = tau // 2
        sign = -1.0 if m % 2 == 0 else 1.0
        return sign * 2.0 / (2 * pi) ** tau * float(np.sum(np.cos(2 * pi * k * x) / k**tau))
    m = (tau - 1) // 2
    sign = -1.0 if m % 2 == 0 else 1.0
    return sign * 2.0 / (2 * pi) ** tau * float(np.sum(np.sin(2 * pi * k * x) / k**tau))


def fourier_tail_bound(tau: int, kmax: int) -> float:
    """Rigorous bound on |b_tau(x) - partial sum|, uniform in x.

    The dropped terms are bounded by 2 (2 pi)^-tau sum_{k>kmax} k^-tau.
    """
    tail = riemann_zeta(float(tau)) - float(np.sum(np.arange(1, kmax + 1, dtype=float) ** (-float(tau))))
    return 2.0 / (2 * pi) ** tau * tail
