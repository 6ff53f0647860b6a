"""Coefficient closed forms and quadrature verification of the series identities."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from latticeqmc import fourier, kernels
from latticeqmc.errors import DomainError
from latticeqmc.fourier import (
    C_PRIME,
    appendix_inner_sum,
    c_phi,
    c_sym,
    cosine_coeff_quadrature,
    run_appendix_checks,
    sin_tent_coeff,
    tent_kernel_partial_sum,
    tent_kernel_reference,
)
from latticeqmc.lattice import tent


def test_c_phi_cases():
    assert c_phi(1, 1) == pytest.approx(58.0 / 3.0 - 32.0 / math.pi**2, rel=1e-15)
    assert c_phi(2, 2) == pytest.approx(6.0 / 16.0, rel=1e-15)
    assert c_phi(1, 2) == 0.0
    assert c_phi(3, 1) == pytest.approx(
        (52.0 / 3.0 - 16.0 / (9 * math.pi**2) - 16.0 / math.pi**2) / 9.0, rel=1e-15
    )
    assert c_phi(2, 4) == pytest.approx(4.0 / 64.0, rel=1e-15)


def test_c_sym_cases():
    assert c_sym(2, 2, 2) == pytest.approx(6.0 / 16.0, rel=1e-15)
    assert c_sym(1, 2, 2) == pytest.approx(1.0, rel=1e-15)
    assert c_sym(3, 3, 4) == pytest.approx(6.0 / 3**8, rel=1e-15)
    with pytest.raises(DomainError):
        c_sym(1, 1, 3)


def test_coefficient_bounds_exhaustive():
    k, l = np.meshgrid(np.arange(1, 1001), np.arange(1, 1001), indexing="ij")
    vals = c_phi(k, l)
    bound = C_PRIME / (k.astype(float) ** 2 * l.astype(float) ** 2)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= bound + 1e-15)
    for alpha in (2, 4):
        vs = c_sym(k, l, alpha)
        assert np.all(vs <= 6.0 / (k.astype(float) ** alpha * l.astype(float) ** alpha) + 1e-15)


def test_coefficient_symmetry():
    k, l = np.meshgrid(np.arange(1, 64), np.arange(1, 64), indexing="ij")
    np.testing.assert_array_equal(c_phi(k, l), c_phi(l, k))
    np.testing.assert_array_equal(c_sym(k, l, 2), c_sym(l, k, 2))


def _c_phi_five_cases(k, l):
    """The five-case closed form of c_phi, kept as an oracle."""
    k, l = k.astype(float), l.astype(float)
    oo = (k % 2 == 1) & (l % 2 == 1)
    ee = (k % 2 == 0) & (l % 2 == 0)
    eq = k == l
    out = np.zeros(np.broadcast(k, l).shape)
    out = np.where(oo & eq, (58.0 / 3.0 - 32.0 / (math.pi**2 * k**2)) / k**4, out)
    out = np.where(
        oo & ~eq,
        (52.0 / 3.0 - (16.0 / math.pi**2) * (1.0 / k**2 + 1.0 / l**2)) / (k**2 * l**2),
        out,
    )
    out = np.where(ee & eq, 6.0 / k**4, out)
    return np.where(ee & ~eq, 4.0 / (k**2 * l**2), out)


def test_separable_forms_match_the_case_oracles():
    """c_phi and c_sym as one separable term plus 2/k^(2a) on the diagonal
    equal the case-by-case closed forms on the 1000 x 1000 grid, and c_phi is
    symmetric bit for bit."""
    k, l = np.meshgrid(np.arange(1, 1001), np.arange(1, 1001), indexing="ij")
    got = c_phi(k, l)
    np.testing.assert_allclose(got, _c_phi_five_cases(k, l), rtol=1e-15, atol=0.0)
    np.testing.assert_array_equal(got, c_phi(l, k))
    assert c_phi(1, 2) == 0.0 and c_phi(2, 1) == 0.0
    kf, lf = k.astype(float), l.astype(float)
    for alpha in (2, 4, 6):
        old = np.where(k == l, 6.0 / kf ** (2 * alpha), 4.0 / (kf**alpha * lf**alpha))
        np.testing.assert_allclose(c_sym(k, l, alpha), old, rtol=1e-15, atol=0.0)
    with pytest.raises(DomainError):
        c_phi(np.array([1, 0]), 1)
    with pytest.raises(DomainError):
        c_sym(1, np.array([2, -1]), 2)


def test_sin_tent_coeff_values():
    assert sin_tent_coeff(1, 1) == pytest.approx(8.0 / (3.0 * math.pi), rel=1e-15)
    assert sin_tent_coeff(1, 2) == 0.0
    assert sin_tent_coeff(2, 3) == pytest.approx(16.0 / (7.0 * math.pi), rel=1e-15)


def test_tent_kernel_series_limit_at_origin():
    # limit value -1 + K_sob2(0, 0) = 1/4 + 1/144 + 1/720 = 31/120
    assert tent_kernel_reference(0.0, 0.0) == pytest.approx(31.0 / 120.0, rel=1e-14)
    got = tent_kernel_partial_sum(0.0, 0.0, 200_000)
    assert got == pytest.approx(31.0 / 120.0, abs=2e-5)


def test_tent_kernel_reconstruction_tolerances():
    rng = np.random.default_rng(12)
    for x, y in rng.random((20, 2)):
        ref = tent_kernel_reference(x, y)
        assert abs(tent_kernel_partial_sum(x, y, 1_000) - ref) <= 5e-3
        assert abs(tent_kernel_partial_sum(x, y, 10_000) - ref) <= 5e-4


def test_tent_kernel_reflection_invariance():
    rng = np.random.default_rng(13)
    for x, y in rng.random((10, 2)):
        a = tent_kernel_partial_sum(x, y, 500)
        b = tent_kernel_partial_sum(1.0 - x, y, 500)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_partial_sum_matches_direct_double_sum():
    """The separable O(kmax) evaluation equals the O(kmax^2) definition."""
    rng = np.random.default_rng(14)
    kmax = 40
    k, l = np.meshgrid(np.arange(1, kmax + 1), np.arange(1, kmax + 1), indexing="ij")
    coeffs = c_phi(k, l)
    for x, y in rng.random((5, 2)):
        direct = float(
            np.sum(coeffs * np.cos(2 * math.pi * k * x) * np.cos(2 * math.pi * l * y))
        ) / math.pi**4
        fast = tent_kernel_partial_sum(x, y, kmax)
        assert fast == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_quadrature_oracle_basics():
    # orthogonality and normalization
    assert cosine_coeff_quadrature(lambda t: np.ones_like(t), 1) == pytest.approx(0.0, abs=1e-14)
    assert cosine_coeff_quadrature(lambda t: np.cos(2 * math.pi * 3 * t), 3) == pytest.approx(
        0.5, abs=1e-13
    )
    # Fourier coefficient of the sine-of-tent function: half the series coefficient
    got = cosine_coeff_quadrature(lambda t: np.sin(2 * math.pi * tent(t)), 1)
    assert got == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-10)


def test_sine_of_tent_quadrature_sweep():
    for k in range(1, 9):
        for l in range(1, 9):
            cos_coeff = cosine_coeff_quadrature(
                lambda t, k=k: np.sin(2 * math.pi * k * tent(t)), l
            )
            assert cos_coeff == pytest.approx(0.5 * sin_tent_coeff(k, l), abs=1e-9)
            sin_coeff = cosine_coeff_quadrature(
                lambda t, k=k: np.sin(2 * math.pi * k * tent(t)), l, weight="sin2pi"
            )
            assert abs(sin_coeff) <= 1e-10


def test_inner_sum_identities():
    partial, closed = appendix_inner_sum(1, "first", 1_000_000)
    assert closed == 0.5
    assert 0.0 <= closed - partial <= 1.0 / (4.0 * 1_000_000) + 1e-12
    partial, closed = appendix_inner_sum(3, "first", 1_000_000)
    assert closed == pytest.approx(1.0 / 18.0, rel=1e-15)
    assert abs(partial - closed) <= 1.0 / (4.0 * 1_000_000) + 1e-12
    partial, closed = appendix_inner_sum(1, "second", 10_000)
    assert closed == pytest.approx(0.25 * (math.pi**2 / 4.0 - 2.0), rel=1e-15)
    assert abs(partial - closed) <= 1e-11
    with pytest.raises(DomainError):
        appendix_inner_sum(2, "first", 100)


def test_appendix_suite_all_green():
    rows = run_appendix_checks()
    assert rows and all(ok for _, ok, _ in rows)
    assert [name for name, _, _ in rows] == [
        "tent kernel series, kmax=1e4 (tol 5e-4)",
        "tent kernel series, kmax=1e3 (tol 5e-3)",
        "0 <= c_phi(k,l) <= c'/(k^2 l^2), k,l <= 1e3",
        "c_sym(k,l,a) <= 6/(k^a l^a), k,l <= 1e3, a in {2,4}",
        "sine-of-tent cosine coefficients, k,l <= 8 (tol 1e-9)",
        "sine-of-tent sine coefficients vanish (tol 1e-10)",
        "inner-sum identities at kmax=1e6 within tail bounds",
        "coefficient symmetry in (k, l)",
    ]


@pytest.mark.parametrize("which", ["first", "second"])
@pytest.mark.parametrize("l", [1, 7])
@pytest.mark.parametrize("blocks", [(1, -1), (1, 1), (3, 5)])
def test_inner_sum_block_edges_against_fsum(which, l, blocks):
    """kmax one below and above a block edge, and three blocks and a few terms: the
    block sums agree with math.fsum of the same float terms, which change sign at
    k = l/2 (at l = 7 the terms at k = 1, 2, 3 are negative)."""
    kmax = blocks[0] * kernels._BLOCK_BUDGET + blocks[1]
    k = np.arange(1, kmax + 1, dtype=float)
    terms = 4.0 * k * k - float(l) ** 2
    terms = 1.0 / (terms * terms if which == "second" else terms)
    partial, _ = appendix_inner_sum(l, which, kmax)
    assert abs(partial - math.fsum(terms.tolist())) <= 1e-15


def _rows_and_tiles(monkeypatch):
    """run_appendix_checks' rows, and the (first k, first l, shape) of each c_phi tile."""
    tiles = []

    def recorded(k, l):
        shape = np.broadcast_shapes(np.shape(k), np.shape(l))
        tiles.append((float(np.min(k)), float(np.min(l)), shape))
        return c_phi(k, l)

    with monkeypatch.context() as patch:
        patch.setattr(fourier, "c_phi", recorded)
        return run_appendix_checks(), tiles


def test_appendix_suite_in_mirror_tiles_matches_the_default_budget(monkeypatch):
    """Under a budget of 16 x 100^2 entries the 1000 x 1000 grid runs in 100-wide tiles,
    off the diagonal as a tile and its mirror: every row but the inner sums' keeps its
    name, flag and detail, and each coefficient is computed once at either budget."""
    default, default_tiles = _rows_and_tiles(monkeypatch)
    monkeypatch.setattr(kernels, "_BLOCK_BUDGET", 16 * 100**2)
    tiled, tiles = _rows_and_tiles(monkeypatch)
    corners = {(1.0 + 100 * i, 1.0 + 100 * j) for i in range(10) for j in range(10)}
    assert sorted(t[:2] for t in tiles) == sorted(corners)  # 10 diagonal, 45 pairs mirrored
    assert {t[2] for t in tiles} == {(100, 100)}
    assert sum(math.prod(t[2]) for t in default_tiles) == 10**6
    inner = "inner-sum identities at kmax=1e6 within tail bounds"
    assert [r for r in tiled if r[0] != inner] == [r for r in default if r[0] != inner]
    assert all(ok for _, ok, _ in tiled)


def test_appendix_suite_holds_no_full_grid():
    """The coefficient grid in tiles and the inner sums in blocks: the suite's traced
    peak (3.5 MB) stays under 8 MB; a whole 1000 x 1000 grid with its bound made 32 MB."""
    tracemalloc.start()
    try:
        run_appendix_checks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize("call,fragment", [
    pytest.param(lambda: sin_tent_coeff(0, 1), "k must be >= 1, got 0", id="sin_tent_coeff"),
    pytest.param(lambda: c_phi(1.5, 1.5), "indices must be positive", id="c_phi/fraction"),
    pytest.param(lambda: c_sym(2, 2.5, 2), "indices must be positive", id="c_sym/fraction"),
    pytest.param(lambda: c_phi(math.nan, 1), "indices must be positive", id="c_phi/nan"),
    pytest.param(lambda: c_phi(math.inf, 1), "indices must be positive", id="c_phi/inf"),
    pytest.param(lambda: c_phi(True, True), "indices must be positive", id="c_phi/bool"),
    pytest.param(lambda: c_sym(True, 1, 2), "indices must be positive", id="c_sym/bool"),
    pytest.param(lambda: cosine_coeff_quadrature(np.cos, 1, weight="tan"),
                 "unknown weight 'tan'", id="cosine_coeff_quadrature/weight"),
    pytest.param(lambda: cosine_coeff_quadrature(np.cos, -1), "k must be >= 0, got -1",
                 id="cosine_coeff_quadrature/k"),
    pytest.param(lambda: appendix_inner_sum(1, "third", 10), "which must be 'first' or 'second'",
                 id="appendix_inner_sum/which"),
    pytest.param(lambda: tent_kernel_partial_sum(math.nan, 0.2, 10),
                 "tent_kernel_partial_sum takes x and y in [0, 1]", id="tent_kernel_partial_sum/nan"),
    pytest.param(lambda: tent_kernel_partial_sum(0.2, 1.5, 10),
                 "tent_kernel_partial_sum takes x and y in [0, 1]", id="tent_kernel_partial_sum/y"),
    pytest.param(lambda: tent_kernel_partial_sum(-0.1, 0.2, 10),
                 "tent_kernel_partial_sum takes x and y in [0, 1]", id="tent_kernel_partial_sum/x"),
])
def test_refusals(call, fragment):
    with pytest.raises(DomainError, match=re.escape(fragment)):
        call()
