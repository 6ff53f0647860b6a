"""Closed-form cosine coefficients of the tent-composed and reflection-averaged
kernels, and the quadrature oracles that verify them.

`c_phi(k, l)` is the coefficient (up to 1/pi^4) of cos(2 pi k x) cos(2 pi l y)
in the expansion of K_sob2(tent(x), tent(y)) - 1; `c_sym(k, l, alpha)` plays
the same role (up to (2 pi)^(-2 alpha)) for the reflection-averaged kernel of
the odd+alpha Sobolev subspace.  Each is one separable term plus 2/k^(2 alpha)
on the diagonal k = l (alpha = 2 for c_phi):

    c_phi: [odd k, l: 52/3 - (16/pi^2)(1/k^2 + 1/l^2); even k, l: 4;
            mixed parity: 0] / (k^2 l^2)
    c_sym: 4 / (k^alpha l^alpha)

With v(k) = (odd/k^2, odd/k^4, even/k^2) the separable term of c_phi is
v(k)' M v(l) for the 3 x 3 matrix `_SEPARABLE`, so `tent_kernel_partial_sum`
collapses the double series to two (3, kmax) weight sums and the diagonal:
O(kmax) instead of O(kmax^2).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import fsum, inf, isqrt, pi

import numpy as np

from .errors import DomainError
from .kernels import _block_rows, _integer_alpha, kernel_1d
from .lattice import tent
from .numtheory import _integer, _real, _reals
from .quadrature import composite_gauss_legendre

C_PRIME = 58.0 / 3.0  # uniform bound constant: 0 <= c_phi(k,l) <= C_PRIME/(k^2 l^2)
_SEPARABLE = np.array([[52.0 / 3.0, -16.0 / pi**2, 0.0],
                       [-16.0 / pi**2, 0.0, 0.0],
                       [0.0, 0.0, 4.0]])


def _indices(k, l):
    """k and l as float arrays (`_reals`), if every entry is an integer value >= 1."""
    k, l = (_reals(v, "indices must be positive integers", 1.0) for v in (k, l))
    if not all(np.all(v == np.floor(v)) for v in (k, l)):
        raise DomainError("indices must be positive integers")
    return k, l


def _plus_diagonal(off, k, l, alpha: int):
    """off + 2/k^(2 alpha) where k == l; a float for scalar indices."""
    out = off + np.where(k == l, 2.0 / k ** (2 * alpha), 0.0)
    return out if out.ndim else float(out)


def c_phi(k, l):
    """Tent-kernel cosine coefficient (vectorized, bit-symmetric in k and l)."""
    k, l = _indices(k, l)
    k2, l2 = k**2, l**2
    odd, even = (k % 2 == 1) & (l % 2 == 1), (k % 2 == 0) & (l % 2 == 0)
    # grouped so the expression is bit-identical under swapping k and l
    top = np.where(odd, 52.0 / 3.0 - (16.0 / pi**2) * (1.0 / k2 + 1.0 / l2), 4.0 * even)
    return _plus_diagonal(top / (k2 * l2), k, l, 2)


def c_sym(k, l, alpha: int):
    """Reflection-averaged kernel coefficient: 4/(k^a l^a) + 2/k^(2a) on the
    diagonal."""
    alpha = _integer_alpha(alpha, 2)
    k, l = _indices(k, l)
    return _plus_diagonal(4.0 / (k**alpha * l**alpha), k, l, alpha)


def sin_tent_coeff(k: int, l: int) -> float:
    """Coefficient of cos(2 pi l x) in the expansion of sin(2 pi k tent(x)):
    (8/pi) k / (4 k^2 - l^2) for odd l, zero for even l; k and l are integers >= 1."""
    k, l = _integer(k, "k", 1), _integer(l, "l", 1)
    if l % 2 == 0:
        return 0.0
    return 8.0 / pi * k / (4.0 * k**2 - l**2)


def tent_kernel_partial_sum(x: float, y: float, kmax: int) -> float:
    """(1/pi^4) sum_{k,l<=kmax} c_phi(k,l) cos(2 pi k x) cos(2 pi l y) at x, y in [0, 1]
    (outside it, and NaN, refused as by its reference), in O(kmax) through the
    separable form (module doc)."""
    refusal = "tent_kernel_partial_sum takes x and y in [0, 1]"
    x, y = _real(x, refusal, 0.0, 1.0), _real(y, refusal, 0.0, 1.0)
    k = np.arange(1, _integer(kmax, "kmax", 1) + 1, dtype=float)
    odd = k % 2
    v = np.array([odd / k**2, odd / k**4, (1.0 - odd) / k**2])
    cx, cy = np.cos(2 * pi * k * x), np.cos(2 * pi * k * y)
    return float((v @ cx) @ _SEPARABLE @ (v @ cy) + 2.0 * (cx * cy) @ k**-4.0) / pi**4


def tent_kernel_reference(x: float, y: float) -> float:
    """The quantity the partial sum converges to: K_sob2(tent(x), tent(y)) - 1."""
    return kernel_1d("sobolev", 2, tent(x), tent(y)) - 1.0


_WEIGHTS = {
    "cos2pi": lambda k, t: np.cos(2 * pi * k * t),
    "sin2pi": lambda k, t: np.sin(2 * pi * k * t),
}


def cosine_coeff_quadrature(f, k: int, weight: str = "cos2pi") -> float:
    """integral_0^1 f(t) w_k(t) dt by composite 8-point Gauss-Legendre on 64 panels.

    The panel grid always splits at t = 1/2 so tent-composed integrands are
    smooth per panel.  Note the series coefficient of cos(2 pi k t) is twice
    this integral (k >= 1).
    """
    if weight not in _WEIGHTS:
        raise DomainError(f"unknown weight {weight!r}; choose from {sorted(_WEIGHTS)}")
    k, w = _integer(k, "k", 0), _WEIGHTS[weight]
    return composite_gauss_legendre(lambda t: np.asarray(f(t)) * w(k, t), 64, (0.5,))


def appendix_inner_sum(l: int, which: str, kmax: int) -> tuple[float, float]:
    """Partial sum and closed form of the two auxiliary series at an odd integer l >= 1:

    first:  sum_k 1/(4k^2 - l^2)   = 1/(2 l^2)
    second: sum_k 1/(4k^2 - l^2)^2 = (1/(4 l^2)) (pi^2/4 - 2/l^2)
    """
    if (l := _integer(l, "l", 1)) % 2 == 0:
        raise DomainError(f"l must be a positive odd integer, got {l}")
    if which not in ("first", "second"):
        raise DomainError("which must be 'first' or 'second'")
    kmax, step = _integer(kmax, "kmax", 1), _block_rows(1)

    def block(lo):  # a call, so that one block is freed before the next is made
        den = np.arange(lo, min(lo + step, kmax + 1), dtype=float)  # k, then each term, in place
        den *= den
        den *= 4.0
        den -= float(l) ** 2
        if which == "second":
            den *= den
        return float(np.sum(np.reciprocal(den, out=den)))

    closed = 1.0 / (2.0 * l**2) if which == "first" else (pi**2 / 4.0 - 2.0 / l**2) / (4.0 * l**2)
    return fsum(block(lo) for lo in range(1, kmax + 1, step)), closed  # O(block) at any kmax


# -- the verification suite behind the `verify-appendix` command ------------


def _tiled_bound_check(coef, c: float, a: int, low=-inf):
    """(every coef(k, l) in [low, c/(k^a l^a) + 1e-15], the max ratio, coef symmetric) over
    k, l = 1..1000.  Square tiles pair up i <= j: tile (k_i, l_j) and its mirror (k_j, l_i)
    are computed once each, and a pair with its temporaries, about 16 tiles, fits one block."""
    k, width = np.arange(1.0, 1001.0), isqrt(_block_rows(16))

    def pair(i, j):  # a call, so that one pair's tiles are freed before the next pair's
        down, across = k[i:i + width, None], k[None, j:j + width]
        tile = coef(down, across)
        mirror = tile if i == j else coef(across.T, down.T)
        top = c / (down**a * across**a)  # top.T bounds the mirror, bit for bit
        both = [(tile, top)] + ([(mirror, top.T)] if i != j else [])
        return (all(np.all(v >= low) and np.all(v <= cap + 1e-15) for v, cap in both),
                max(float(np.max(v / cap)) for v, cap in both), np.array_equal(tile, mirror.T))

    folds = [pair(i, j) for i, j in combinations_with_replacement(range(0, len(k), width), 2)]
    return all(f[0] for f in folds), max(f[1] for f in folds), all(f[2] for f in folds)


def run_appendix_checks() -> list[tuple[str, bool, str]]:
    """Run every identity check of this module; returns (name, ok, detail) rows."""
    rng = np.random.default_rng(201808)
    rows: list[tuple[str, bool, str]] = []

    for kmax, tol, name in ((10_000, 5e-4, "tent kernel series, kmax=1e4 (tol 5e-4)"),
                            (1_000, 5e-3, "tent kernel series, kmax=1e3 (tol 5e-3)")):
        worst = max(abs(tent_kernel_partial_sum(x, y, kmax) - tent_kernel_reference(x, y))
                    for x, y in rng.random((20, 2)))
        rows.append((name, worst <= tol, f"max err {worst:.3e}"))

    ok, worst, symmetric = _tiled_bound_check(c_phi, C_PRIME, 2, low=0.0)
    rows.append(("0 <= c_phi(k,l) <= c'/(k^2 l^2), k,l <= 1e3", ok, f"max ratio {worst:.6f}"))
    checks = [_tiled_bound_check(lambda k, l, a=a: c_sym(k, l, a), 6.0, a) for a in (2, 4)]
    symmetric = symmetric and all(c[2] for c in checks)
    rows.append(("c_sym(k,l,a) <= 6/(k^a l^a), k,l <= 1e3, a in {2,4}", all(c[0] for c in checks),
                 f"max ratio {max(c[1] for c in checks):.6f}"))

    worst_cos = worst_sin = 0.0
    for k in range(1, 9):
        def sin_of_tent(t, k=k):
            return np.sin(2 * pi * k * tent(t))
        for l in range(1, 9):
            cos_l = cosine_coeff_quadrature(sin_of_tent, l, weight="cos2pi")
            sin_l = cosine_coeff_quadrature(sin_of_tent, l, weight="sin2pi")
            worst_cos = max(worst_cos, abs(cos_l - 0.5 * sin_tent_coeff(k, l)))
            worst_sin = max(worst_sin, abs(sin_l))
    rows.append(("sine-of-tent cosine coefficients, k,l <= 8 (tol 1e-9)", worst_cos <= 1e-9,
                 f"max err {worst_cos:.3e}"))
    rows.append(("sine-of-tent sine coefficients vanish (tol 1e-10)", worst_sin <= 1e-10,
                 f"max err {worst_sin:.3e}"))

    ok = True
    detail = []
    for l in (1, 3, 5, 7):
        partial, closed = appendix_inner_sum(l, "first", 1_000_000)
        # tail of sum 1/(4k^2-l^2) below k=K is under 1/(4K) and positive
        ok = ok and -1e-13 <= closed - partial <= 1.0 / (4.0 * 1_000_000) + 1e-12
        partial2, closed2 = appendix_inner_sum(l, "second", 1_000_000)
        ok = ok and abs(closed2 - partial2) <= 1e-12
        detail.append(f"l={l}: {closed - partial:.2e}/{closed2 - partial2:.2e}")
    rows.append(("inner-sum identities at kmax=1e6 within tail bounds", ok, "; ".join(detail)))

    rows.append(("coefficient symmetry in (k, l)", bool(symmetric), ""))
    return rows
