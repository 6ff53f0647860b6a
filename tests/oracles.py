"""Oracles that only the tests use, kept out of the package."""

import itertools
from fractions import Fraction
from itertools import combinations
from math import factorial, pi, prod

import numpy as np

from latticeqmc.errors import DomainError, GuardError
from latticeqmc.kernels import KernelSpec, _closed_form, _smoothness, kernel_1d
from latticeqmc.lattice import LatticeRule, rank1_points
from latticeqmc.numtheory import _integer
from latticeqmc.quadrature import composite_gauss_legendre
from latticeqmc.special_functions import (_ROUND_UP, _zeta_tail, bernoulli_coefficients,
                                          bernoulli_poly)

DUAL_SCAN_GUARD = 20_000_000


def bernoulli_periodic(tau: int, x):
    """Periodic extension: B_tau(x - floor(x)).

    Rejected for tau = 1: the extension is discontinuous at the integers.  The
    package's kernels evaluate the degree-2a polynomial at |x - y| in [0, 1]
    directly, so only the tests use it.
    """
    if tau < 2:
        raise DomainError("periodic extension requires tau >= 2")
    x = np.asarray(x, dtype=float)
    return bernoulli_poly(tau, x - np.floor(x))


def bernoulli_fourier_partial_sum(tau: int, x: float, kmax: int) -> float:
    """Truncated Fourier series of b_tau = B_tau / tau! (tau >= 2 only).

    Sums -(2 pi i)^-tau sum_{0<|k|<=kmax} e^{2 pi i k x} / k^tau in its real
    trigonometric form.  Serves as an oracle against the polynomial table;
    the conditionally convergent tau = 1 series is intentionally unsupported.
    """
    if tau < 2:
        raise DomainError("partial sums require tau >= 2")
    k = np.arange(1, _integer(kmax, "kmax", 1) + 1, dtype=float)
    if tau % 2 == 0:
        m = tau // 2
        sign = -1.0 if m % 2 == 0 else 1.0
        return sign * 2.0 / (2 * pi) ** tau * float(np.sum(np.cos(2 * pi * k * x) / k**tau))
    m = (tau - 1) // 2
    sign = -1.0 if m % 2 == 0 else 1.0
    return sign * 2.0 / (2 * pi) ** tau * float(np.sum(np.sin(2 * pi * k * x) / k**tau))


def fourier_tail_bound(tau: int, kmax: int) -> float:
    """Rigorous bound on |b_tau(x) - partial sum|, uniform in x: 2 (2 pi)^-tau sum_{k>kmax}
    k^-tau (`_zeta_tail`), rounded up once more for the three roundings of the factor."""
    return 2.0 / (2 * pi) ** tau * _zeta_tail(float(tau), _integer(kmax, "kmax", 1) + 1) * _ROUND_UP


def korobov_series_1d(alpha: float, x, y, kmax: int):
    """1 + kappa(|x - y|) by the series kappa(t) = 2 sum_{k<=kmax} cos(2 pi k t) / k^(2 alpha)
    truncated at kmax, for any alpha > 1/2; within `series_tail_bound` of the kernel."""
    alpha, k = _smoothness("cosine", alpha), np.arange(1, _integer(kmax, "kmax", 1) + 1, dtype=float)
    t = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    out = 1.0 + np.cos(2 * pi * np.multiply.outer(t, k)) @ (2.0 * k ** (-2 * alpha))
    return out if out.ndim else float(out)


def series_tail_bound(alpha: float, kmax: int) -> float:
    """Uniform bound on the truncation error of the series of kappa at kmax, and of every
    kernel on it: kappa drops at most 2 sum_{k>kmax} k^(-2 alpha) (`_zeta_tail`), and the
    coefficients of each family on kappa sum to 1."""
    return 2.0 * _zeta_tail(2 * _smoothness("cosine", alpha), _integer(kmax, "kmax", 1) + 1)


def dual_sums(order: int, rule) -> dict:
    """S_u = mean_n prod_{j in u} w(n z_j mod N) for every nonempty u of a rank-1
    rule, with w the residue table of Korobov order o (an integer), as mpmath
    numbers of 50 digits that are exact to their last digit.

    w(r) = (-1)^(o+1) (2 pi)^(2 o) B_(2o)(r/N) / (2o)!, so S_u is the rational
    Q_u = mean_n prod_{j in u} (-1)^(o+1) B_(2o)(n z_j/N mod 1) / (2o)!, summed in
    Fractions over `bernoulli_coefficients`, times (2 pi)^(2 o |u|); mpmath
    makes only that power.  Keys are frozensets of 1-based coordinates."""
    import mpmath

    o, N = _integer(order, "order", 1), rule.N
    coeffs, sign = bernoulli_coefficients(2 * o), Fraction((-1) ** (o + 1), factorial(2 * o))
    w = [sign * sum(c * Fraction(r, N) ** k for k, c in enumerate(coeffs)) for r in range(N)]
    subsets = [u for k in range(1, rule.s + 1) for u in combinations(range(rule.s), k)]
    sums = dict.fromkeys(subsets, Fraction(0))
    for n in range(N):
        row = [w[n * z % N] for z in rule.z]
        for u in subsets:
            sums[u] += prod(row[j] for j in u)
    with mpmath.workdps(50):
        power = (2 * mpmath.pi) ** (2 * o)
        return {frozenset(j + 1 for j in u): mpmath.mpf(q.numerator) / (q.denominator * N)
                * power ** len(u) for u, q in sums.items()}


def is_dual(k, rule: LatticeRule) -> bool:
    """True iff k . z = 0 mod N, for k a vector of integers (exact arithmetic)."""
    k = [_integer(v, "k entry") for v in k]
    if len(k) != rule.s:
        raise DomainError(f"k has length {len(k)}, rule dimension is {rule.s}")
    return sum(kj * zj for kj, zj in zip(k, rule.z)) % rule.N == 0


def dual_projected(rule: LatticeRule, u, kmax: int) -> list[tuple[int, ...]]:
    """Brute-force scan of the dual lattice projected to coordinates u.

    Returns all k_u in (Z\\{0})^|u| with |k_j| <= kmax and (k_u, 0) . z = 0
    mod N, in lexicographic order.  This is a verification oracle, not a
    production path; the scan size is guarded.
    """
    u = sorted(set(_integer(j, "u entry") for j in u))
    if not u or u[0] < 1 or u[-1] > rule.s:
        raise DomainError(f"u must be a nonempty subset of 1..{rule.s}")
    kmax = _integer(kmax, "kmax", 1)
    if (2 * kmax) ** len(u) > DUAL_SCAN_GUARD:
        raise GuardError(f"dual scan of size (2*{kmax})^{len(u)} exceeds the guard")
    values = [k for k in range(-kmax, kmax + 1) if k != 0]
    zu = [rule.z[j - 1] for j in u]
    out = []
    for combo in itertools.product(values, repeat=len(u)):
        if sum(k * z for k, z in zip(combo, zu)) % rule.N == 0:
            out.append(combo)
    return out


def character_sum(rule: LatticeRule, k, method: str = "exact") -> float:
    """(1/N) sum over lattice points of e^{2 pi i k . x}, for k a vector of integers.

    The exact path evaluates the dual-membership criterion (k . z mod N) and
    returns 1.0 or 0.0.  The float path actually sums the complex
    exponentials and returns the real part, for cross-checking.
    """
    if method == "exact":
        return 1.0 if is_dual(k, rule) else 0.0
    if method == "float":
        x = rank1_points(rule).points
        k = np.array([_integer(v, "k entry") for v in k], dtype=float)
        phases = 2.0 * np.pi * (x @ k)
        return float(np.mean(np.cos(phases)))
    raise DomainError(f"unknown method {method!r}")


def kernel_mean_identity_check(spec: KernelSpec, x) -> float:
    """Numerically integrate y -> K(x, y) over the cube; the unit-mean kernels
    used by the worst-case-error shortcut must return 1 here.

    The integral factorizes coordinate-wise; each 1-d factor is integrated by
    composite Gauss-Legendre (8 panels) split at x_j (the |x - y| kink).
    """
    if not _closed_form(spec.family, spec.alpha):
        raise DomainError("mean-identity check applies to the closed-form kernel families")
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.s,):
        raise DomainError(f"x must be a point of dimension {spec.s}")
    means = np.empty(spec.s)
    for j in range(spec.s):
        xj = float(x[j])
        means[j] = composite_gauss_legendre(
            lambda t: kernel_1d(spec.family, spec.alpha, xj, t) - 1.0, 8, (xj,))
    return float(1.0 + spec.weights.combine(means[None, :])[0])
