"""Closed-form cosine coefficients of the tent-composed and reflection-averaged
kernels, and the quadrature oracles that verify them.

`c_phi(k, l)` is the coefficient (up to 1/pi^4) of cos(2 pi k x) cos(2 pi l y)
in the expansion of K_sob2(tent(x), tent(y)) - 1; `c_sym(k, l, alpha)` plays
the same role (up to (2 pi)^(-2 alpha)) for the reflection-averaged kernel of
the odd+alpha Sobolev subspace.

Reconstruction of the double series in `tent_kernel_partial_sum` exploits that
the off-diagonal part of c_phi is, per parity class, a short sum of separable
products:

    odd  k != l: (52/3) / (k^2 l^2) - (16/pi^2) [1/(k^4 l^2) + 1/(k^2 l^4)]
    even k != l: 4 / (k^2 l^2)

so the double sum collapses to products of four one-dimensional partial sums,
plus a diagonal correction of exactly 2/k^4 (both parities), making kmax = 1e4
reconstruction an O(kmax) computation instead of O(kmax^2).
"""

from __future__ import annotations

from math import pi

import numpy as np

from .errors import DomainError
from .kernels import _integer_alpha, sobolev_family_1d
from .lattice import tent
from .quadrature import composite_gauss_legendre

C_PRIME = 58.0 / 3.0  # uniform bound constant: 0 <= c_phi(k,l) <= C_PRIME/(k^2 l^2)


def c_phi(k, l):
    """Tent-kernel cosine coefficient; five-case closed form (vectorized)."""
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    if np.any(k < 1) or np.any(l < 1):
        raise DomainError("indices must be positive")
    k_odd = np.asarray(k % 2 == 1)
    l_odd = np.asarray(l % 2 == 1)
    eq = np.asarray(k == l)
    out = np.zeros(np.broadcast(k, l).shape)
    oo = k_odd & l_odd
    ee = ~k_odd & ~l_odd
    out = np.where(oo & eq, (58.0 / 3.0 - 32.0 / (pi**2 * k**2)) / k**4, out)
    # grouped so the expression is bit-identical under swapping k and l
    out = np.where(
        oo & ~eq,
        (52.0 / 3.0 - (16.0 / pi**2) * (1.0 / k**2 + 1.0 / l**2)) / (k**2 * l**2),
        out,
    )
    out = np.where(ee & eq, 6.0 / k**4, out)
    out = np.where(ee & ~eq, 4.0 / (k**2 * l**2), out)
    return out if out.ndim else float(out)


def c_sym(k, l, alpha: int):
    """Reflection-averaged kernel coefficient: 6/k^(2a) on the diagonal,
    4/(k^a l^a) off it."""
    alpha = _integer_alpha(alpha, 2)
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    if np.any(k < 1) or np.any(l < 1):
        raise DomainError("indices must be positive")
    out = np.where(k == l, 6.0 / k ** (2 * alpha), 4.0 / (k**alpha * l**alpha))
    return out if out.ndim else float(out)


def sin_tent_coeff(k: int, l: int) -> float:
    """Coefficient of cos(2 pi l x) in the expansion of sin(2 pi k tent(x)):
    (8/pi) k / (4 k^2 - l^2) for odd l, zero for even l."""
    if k < 1 or l < 1:
        raise DomainError("indices must be positive")
    if l % 2 == 0:
        return 0.0
    return 8.0 / pi * k / (4.0 * k**2 - l**2)


def tent_kernel_partial_sum(x: float, y: float, kmax: int) -> float:
    """(1/pi^4) sum_{k,l<=kmax} c_phi(k,l) cos(2 pi k x) cos(2 pi l y),
    evaluated in O(kmax) through the separable decomposition (module doc)."""
    if kmax < 1:
        raise DomainError("kmax must be positive")
    k = np.arange(1, kmax + 1, dtype=float)
    cx = np.cos(2 * pi * k * x)
    cy = np.cos(2 * pi * k * y)
    odd = k % 2 == 1
    even = ~odd
    s1x = float(np.sum(cx[odd] / k[odd] ** 2))
    s1y = float(np.sum(cy[odd] / k[odd] ** 2))
    s2x = float(np.sum(cx[odd] / k[odd] ** 4))
    s2y = float(np.sum(cy[odd] / k[odd] ** 4))
    e1x = float(np.sum(cx[even] / k[even] ** 2))
    e1y = float(np.sum(cy[even] / k[even] ** 2))
    diag = float(np.sum(cx * cy / k**4))
    total = (
        52.0 / 3.0 * s1x * s1y
        - 16.0 / pi**2 * (s2x * s1y + s1x * s2y)
        + 4.0 * e1x * e1y
        + 2.0 * diag
    )
    return total / pi**4


def tent_kernel_reference(x: float, y: float) -> float:
    """The quantity the partial sum converges to: K_sob2(tent(x), tent(y)) - 1."""
    return float(sobolev_family_1d("sobolev", 2, tent(x), tent(y))) - 1.0


_WEIGHTS = {
    "cos2pi": lambda k, t: np.cos(2 * pi * k * t),
    "sin2pi": lambda k, t: np.sin(2 * pi * k * t),
}


def cosine_coeff_quadrature(f, k: int, panels: int = 64, weight: str = "cos2pi") -> float:
    """integral_0^1 f(t) w_k(t) dt by composite 8-point Gauss-Legendre.

    The panel grid always splits at t = 1/2 so tent-composed integrands are
    smooth per panel.  Note the series coefficient of cos(2 pi k t) is twice
    this integral (k >= 1).
    """
    if weight not in _WEIGHTS:
        raise DomainError(f"unknown weight {weight!r}; choose from {sorted(_WEIGHTS)}")
    if k < 0:
        raise DomainError("k must be nonnegative")
    w = _WEIGHTS[weight]
    return composite_gauss_legendre(
        lambda t: np.asarray(f(t)) * w(k, t), 0.0, 1.0, panels=panels, breakpoints=(0.5,)
    )


def appendix_inner_sum(l: int, which: str, kmax: int) -> tuple[float, float]:
    """Partial sum and closed form of the two auxiliary series over odd l:

    first:  sum_k 1/(4k^2 - l^2)   = 1/(2 l^2)
    second: sum_k 1/(4k^2 - l^2)^2 = (1/(4 l^2)) (pi^2/4 - 2/l^2)
    """
    if l < 1 or l % 2 == 0:
        raise DomainError(f"l must be a positive odd integer, got {l}")
    if which not in ("first", "second"):
        raise DomainError("which must be 'first' or 'second'")
    k = np.arange(1, kmax + 1, dtype=float)
    den = 4.0 * k**2 - float(l) ** 2
    if which == "first":
        return float(np.sum(1.0 / den)), 1.0 / (2.0 * l**2)
    return float(np.sum(1.0 / den**2)), (pi**2 / 4.0 - 2.0 / l**2) / (4.0 * l**2)


# -- the verification suite behind the `verify-appendix` command ------------


def run_appendix_checks(rng_seed: int = 201808) -> list[tuple[str, bool, str]]:
    """Run every identity check of this module; returns (name, ok, detail) rows."""
    rng = np.random.default_rng(rng_seed)
    rows: list[tuple[str, bool, str]] = []

    worst = 0.0
    for x, y in rng.random((20, 2)):
        err = abs(tent_kernel_partial_sum(x, y, 10_000) - tent_kernel_reference(x, y))
        worst = max(worst, err)
    rows.append(("tent kernel series, kmax=1e4 (tol 5e-4)", worst <= 5e-4, f"max err {worst:.3e}"))

    worst = 0.0
    for x, y in rng.random((20, 2)):
        err = abs(tent_kernel_partial_sum(x, y, 1_000) - tent_kernel_reference(x, y))
        worst = max(worst, err)
    rows.append(("tent kernel series, kmax=1e3 (tol 5e-3)", worst <= 5e-3, f"max err {worst:.3e}"))

    kk, ll = np.meshgrid(np.arange(1, 1001), np.arange(1, 1001), indexing="ij")
    vals = c_phi(kk, ll)
    bound = C_PRIME / (kk.astype(float) ** 2 * ll.astype(float) ** 2)
    ok = bool(np.all(vals >= 0.0) and np.all(vals <= bound + 1e-15))
    rows.append(("0 <= c_phi(k,l) <= c'/(k^2 l^2), k,l <= 1e3", ok,
                 f"max ratio {float(np.max(vals / bound)):.6f}"))

    ok = True
    worst = 0.0
    for alpha in (2, 4):
        vals = c_sym(kk, ll, alpha)
        bound = 6.0 / (kk.astype(float) ** alpha * ll.astype(float) ** alpha)
        worst = max(worst, float(np.max(vals / bound)))
        ok = ok and bool(np.all(vals <= bound + 1e-15))
    rows.append(("c_sym(k,l,a) <= 6/(k^a l^a), k,l <= 1e3, a in {2,4}", ok,
                 f"max ratio {worst:.6f}"))

    worst = 0.0
    for k in range(1, 9):
        for l in range(1, 9):
            integral = cosine_coeff_quadrature(
                lambda t, k=k: np.sin(2 * pi * k * tent(t)), l, panels=64, weight="cos2pi"
            )
            worst = max(worst, abs(integral - 0.5 * sin_tent_coeff(k, l)))
    rows.append(("sine-of-tent cosine coefficients, k,l <= 8 (tol 1e-9)", worst <= 1e-9,
                 f"max err {worst:.3e}"))

    worst = 0.0
    for k in range(1, 9):
        for l in range(1, 9):
            integral = cosine_coeff_quadrature(
                lambda t, k=k: np.sin(2 * pi * k * tent(t)), l, panels=64, weight="sin2pi"
            )
            worst = max(worst, abs(integral))
    rows.append(("sine-of-tent sine coefficients vanish (tol 1e-10)", worst <= 1e-10,
                 f"max err {worst:.3e}"))

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

    sym_ok = True
    for k in range(1, 30):
        for l in range(1, 30):
            if c_phi(k, l) != c_phi(l, k):
                sym_ok = False
            if c_sym(k, l, 2) != c_sym(l, k, 2):
                sym_ok = False
    rows.append(("coefficient symmetry in (k, l)", sym_ok, ""))

    return rows
