"""Composite Gauss-Legendre quadrature of the Fourier-coefficient checks."""

from __future__ import annotations

from functools import cache

import numpy as np

from .numtheory import _integer, _reals


@cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 8-point rule on [-1, 1], built on first use: importing loads no np.polynomial."""
    return np.polynomial.legendre.leggauss(8)


def composite_gauss_legendre(f, panels: int, breakpoints=()) -> float:
    """Integrate f over [0, 1] with `panels` 8-point Gauss-Legendre panels.

    Interior breakpoints are forced onto panel edges so that integrands with
    kinks (tent compositions, |x - y| factors) stay smooth panel by panel;
    each is read as a real in [0, 1] (`_reals`).  f must accept numpy arrays.
    """
    panels = _integer(panels, "panels", 1)
    cuts = sorted({0.0, 1.0, *_reals(breakpoints, "breakpoints must lie in [0, 1]", 0.0, 1.0).flat})
    edges = [np.linspace(lo, hi, max(1, round(panels * (hi - lo))) + 1)
             for lo, hi in zip(cuts[:-1], cuts[1:])]
    x0, w0 = _gl_rule()
    total = 0.0
    for seg in edges:
        lo, hi = seg[:-1], seg[1:]
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        pts = mid[:, None] + half[:, None] * x0[None, :]
        vals = f(pts)
        total += float(np.sum(vals * w0[None, :] * half[:, None]))
    return total
