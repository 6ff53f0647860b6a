"""Bernoulli table, periodic extension, zeta, and Fourier-series oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from latticeqmc.errors import DomainError
from latticeqmc.special_functions import (
    MAX_DEGREE,
    bernoulli_coefficients,
    bernoulli_numbers,
    bernoulli_poly,
    bernoulli_scaled,
    riemann_zeta,
)
from oracles import (bernoulli_fourier_partial_sum, bernoulli_periodic, fourier_tail_bound,
                     series_tail_bound)


def test_bernoulli_poly_classic_values():
    assert bernoulli_poly(2, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert bernoulli_poly(1, 0.5) == pytest.approx(0.0, abs=1e-16)
    # degree-4 closed form x^4 - 2x^3 + x^2 - 1/30 at 1/4, by exact rationals
    x = Fraction(1, 4)
    expected = x**4 - 2 * x**3 + x**2 - Fraction(1, 30)
    assert expected == Fraction(7, 3840)
    assert bernoulli_poly(4, 0.25) == pytest.approx(float(expected), rel=1e-15)


def test_coefficient_table_is_exact_rational():
    # cross-check the generated coefficients against hand-known polynomials
    assert bernoulli_coefficients(0) == (Fraction(1),)
    assert bernoulli_coefficients(1) == (Fraction(-1, 2), Fraction(1))
    assert bernoulli_coefficients(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))
    assert bernoulli_coefficients(4) == (
        Fraction(-1, 30), Fraction(0), Fraction(1), Fraction(-2), Fraction(1),
    )


@pytest.mark.parametrize("tau", range(1, MAX_DEGREE + 1))
def test_derivative_recurrence(tau):
    """B_tau'(x) = tau * B_{tau-1}(x), as a relation on exact coefficients."""
    upper = bernoulli_coefficients(tau)
    lower = bernoulli_coefficients(tau - 1)
    derived = tuple(upper[k] * k for k in range(1, tau + 1))
    assert derived == tuple(tau * c for c in lower)


@pytest.mark.parametrize("tau", range(1, MAX_DEGREE + 1))
def test_zero_mean_and_boundary_match(tau):
    coeffs = bernoulli_coefficients(tau)
    integral = sum(c / (k + 1) for k, c in enumerate(coeffs))
    assert integral == 0
    if tau >= 2:
        assert sum(coeffs) == coeffs[0]  # B_tau(1) == B_tau(0)


@pytest.mark.parametrize("tau", range(1, MAX_DEGREE + 1))
def test_reflection_identity(tau):
    rng = np.random.default_rng(500 + tau)
    x = rng.random(100)
    left = bernoulli_poly(tau, x)
    right = (-1.0) ** tau * bernoulli_poly(tau, 1.0 - x)
    scale = np.max(np.abs(left)) + 1.0
    np.testing.assert_allclose(left, right, atol=5e-15 * scale)


def test_periodic_extension():
    assert bernoulli_periodic(2, 1.25) == pytest.approx(bernoulli_poly(2, 0.25), abs=1e-16)
    assert bernoulli_periodic(2, -0.75) == pytest.approx(bernoulli_poly(2, 0.25), abs=1e-15)
    assert bernoulli_periodic(4, 3.0) == pytest.approx(-1.0 / 30.0, abs=1e-16)
    with pytest.raises(DomainError):
        bernoulli_periodic(1, 0.3)


def test_poly_degree_out_of_range():
    with pytest.raises(DomainError):
        bernoulli_poly(MAX_DEGREE + 1, 0.5)


def test_zeta_classic_values():
    assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-13)
    assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90.0, abs=1e-13)
    # reference value computed once with 30-digit arithmetic
    assert riemann_zeta(1.2) == pytest.approx(5.591582441177751884, abs=1e-13)
    with pytest.raises(DomainError):
        riemann_zeta(1.0)


def test_zeta_rejects_nan_and_inf():
    for sigma in (math.nan, math.inf):
        with pytest.raises(DomainError):
            riemann_zeta(sigma)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_zeta_even_closed_form(k):
    """zeta(2k) = (2 pi)^(2k) |B_2k(0)| / (2 (2k)!)."""
    b = abs(float(bernoulli_numbers()[2 * k]))
    closed = (2 * math.pi) ** (2 * k) * b / (2 * math.factorial(2 * k))
    assert riemann_zeta(2.0 * k) == pytest.approx(closed, abs=1e-12)


def test_zeta_against_scipy_grid():
    scipy_special = pytest.importorskip("scipy.special")
    for sigma in (1.1, 1.3, 1.7, 2.0, 2.5, 3.3, 4.0, 6.0, 8.0, 16.0):
        assert riemann_zeta(sigma) == pytest.approx(float(scipy_special.zeta(sigma, 1)), abs=1e-13)


def test_fourier_partial_sum_single_term():
    # one symmetric pair of the tau=2 series at x=0: -(2 pi i)^-2 * (1 + 1)
    assert bernoulli_fourier_partial_sum(2, 0.0, 1) == pytest.approx(
        1.0 / (2.0 * math.pi**2), rel=1e-15
    )


def test_fourier_partial_sum_converges_to_scaled_polynomial():
    assert bernoulli_fourier_partial_sum(2, 0.5, 10_000) == pytest.approx(
        -1.0 / 24.0, abs=fourier_tail_bound(2, 10_000)
    )
    assert bernoulli_fourier_partial_sum(4, 0.0, 1_000) == pytest.approx(
        -1.0 / 720.0, abs=fourier_tail_bound(4, 1_000)
    )
    with pytest.raises(DomainError):
        bernoulli_fourier_partial_sum(1, 0.5, 100)


@pytest.mark.parametrize("tau", range(2, MAX_DEGREE + 1))
def test_fourier_partial_sum_sweep(tau):
    """Partial sums sit within the rigorous tail bound of b_tau everywhere,
    and within 1e-6 away from the endpoints (kmax = 1e4, tau = 2)."""
    rng = np.random.default_rng(900 + tau)
    kmax = 10_000 if tau == 2 else 2_000
    bound = fourier_tail_bound(tau, kmax)
    for x in rng.random(100):
        err = abs(bernoulli_fourier_partial_sum(tau, x, kmax) - bernoulli_scaled(tau, x))
        assert err <= bound + 1e-15
    if tau == 2:
        for x in rng.uniform(0.01, 0.99, size=100):
            err = abs(bernoulli_fourier_partial_sum(tau, x, kmax) - bernoulli_scaled(tau, x))
            assert err <= 1e-6


def test_quadrature_of_bernoulli_is_zero():
    """Composite Gauss quadrature of B_tau over [0,1] vanishes, tau = 1..16."""
    from latticeqmc.quadrature import composite_gauss_legendre

    for tau in range(1, MAX_DEGREE + 1):
        val = composite_gauss_legendre(lambda t, tau=tau: bernoulli_poly(tau, t), panels=16)
        assert abs(val) <= 1e-12


def _tail_oracle(sigma, kmax, fourier=False):
    """2 sum_{k>kmax} k^-sigma = 2 zeta(sigma, kmax + 1), times (2 pi)^-sigma for the
    Fourier tail, at 40 digits (at 30, mpmath's own zeta(16, 101) is off by 2.4e-9)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        factor = 2 / (2 * mpmath.pi) ** sigma if fourier else 2
        return factor * mpmath.zeta(mpmath.mpf(sigma), kmax + 1)


def _assert_bounds(got, want):
    """got is at or above want and within 1e-14 of it, relative."""
    assert got >= want and got - want <= 1e-14 * want


def test_tail_bounds_are_bounds_and_tight():
    """Both tail bounds against mpmath: never below the true tail, within 1e-14
    relative.  Subtracting a partial sum from zeta could do neither: it gave
    2.66e-15 below the true 2.76e-15 at (4, 100), and 0.0 at kmax = 1e4."""
    _assert_bounds(series_tail_bound(4, 100), _tail_oracle(8, 100))
    _assert_bounds(series_tail_bound(4, 10_000), _tail_oracle(8, 10_000))
    _assert_bounds(fourier_tail_bound(8, 10_000), _tail_oracle(8, 10_000, fourier=True))
    # mpmath's Hurwitz zeta at 40 digits is itself off from sigma = 11 on, at
    # kmax + 1 near 1e2..1e4, so there the grid takes small kmax only
    grid = [(a, k) for a in (0.50005, 0.505, 0.75, 1.0, 1.5, 2.0, 2.75, 4.0, 5.0)
            for k in (1, 15, 100, 999, 10_000, 1_000_000)]
    grid += [(a, k) for a in (6.0, 8.0, 16.0) for k in (1, 2, 15)]
    for alpha, kmax in grid:
        _assert_bounds(series_tail_bound(alpha, kmax), _tail_oracle(2 * alpha, kmax))
    for tau in range(2, MAX_DEGREE + 1):
        for kmax in (1, 15) if tau > 10 else (1, 15, 100, 10_000):
            _assert_bounds(fourier_tail_bound(tau, kmax), _tail_oracle(tau, kmax, fourier=True))


def test_zeta_is_never_below_the_true_value():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for sigma in (1.0001, 1.1, 1.5, 2.0, 3.3, 8.0, 16.0, 32.0):
            _assert_bounds(riemann_zeta(sigma), mpmath.zeta(sigma))


def test_quadrature_refuses_empty_panels():
    from latticeqmc.quadrature import composite_gauss_legendre

    with pytest.raises(DomainError, match="panels must be >= 1, got 0"):
        composite_gauss_legendre(np.cos, panels=0)
