"""Kernel evaluations: closed forms, kappa against its series, symmetry, PSD, unit mean."""

import math
import re
from functools import cache

import numpy as np
import pytest

from latticeqmc.errors import DomainError
from latticeqmc.fourier import appendix_inner_sum, c_sym, tent_kernel_partial_sum
from latticeqmc.kernels import FAMILIES, KernelSpec, kernel, kernel_1d
from latticeqmc.lattice import LatticeRule, rank1_points
from latticeqmc.special_functions import MAX_DEGREE
from latticeqmc.weights import WeightScheme
from latticeqmc.worst_case_error import (
    CbcCriterion,
    corollary_bound,
    korobov_residue_table,
    wce_sq_korobov_lattice,
    wce_sq_quadratic_form,
    wce_sym_exact,
)
from oracles import (bernoulli_fourier_partial_sum, dual_projected, fourier_tail_bound,
                     kernel_mean_identity_check, korobov_series_1d, series_tail_bound)


def spec_for(family, alpha, s=1, gamma=1.0):
    return KernelSpec(family=family, alpha=alpha, weights=WeightScheme.product([gamma] * s))


def test_korobov_diagonal_closed_form():
    # alpha = 1 at x = y: 1 + 2 pi^2 B_2(0) = 1 + pi^2 / 3
    assert kernel_1d("korobov", 1, 0.3, 0.3) == pytest.approx(1 + math.pi**2 / 3, rel=1e-15)


def test_sobolev_value_at_origin():
    # 1 + B_1(0)^2 + B_2(0)^2/4 - B_4(0)/24 = 1 + 1/4 + 1/144 + 1/720 = 151/120
    assert kernel_1d("sobolev", 2, 0.0, 0.0) == pytest.approx(151.0 / 120.0, rel=1e-15)


def test_odd_alpha_families_coincide_where_required():
    rng = np.random.default_rng(0)
    x, y = rng.random((2, 100))
    # alpha = 2: odd+alpha subspace kernel is the full Sobolev kernel
    np.testing.assert_allclose(
        kernel_1d("sob_odd_alpha", 2, x, y), kernel_1d("sobolev", 2, x, y),
        rtol=0, atol=1e-15,
    )
    # alpha = 1: all three coincide with the Sobolev kernel
    for fam in ("sob_odd", "sob_odd_alpha"):
        np.testing.assert_allclose(
            kernel_1d(fam, 1, x, y), kernel_1d("sobolev", 1, x, y), rtol=0, atol=1e-15
        )
    # alpha = 4: sob_odd drops the tau = 4 term, sob_odd_alpha keeps it
    d = kernel_1d("sob_odd_alpha", 4, x, y) - kernel_1d("sob_odd", 4, x, y)
    assert np.max(np.abs(d)) > 1e-8


def test_korobov_series_path_matches_bernoulli_form():
    """The series oracle at an integer alpha sits within its tail of the Bernoulli form."""
    rng = np.random.default_rng(2)
    kmax = 100_000
    bound = series_tail_bound(1.0, kmax)
    assert bound <= 1e-4
    for x, y in rng.random((5, 2)):
        series = korobov_series_1d(1.0, x, y, kmax)
        closed = kernel_1d("korobov", 1, x, y)
        assert abs(series - closed) <= bound


def _definition_series(family, alpha, x, y, kmax):
    """The cosine families from their definitions, 1 + sum_k r_k(x, y) / k^(2 alpha)
    with r_k = 2 cos(pi k x) cos(pi k y) (cosine), or that halved plus cos(2 pi k (x - y))."""
    k = np.arange(1, kmax + 1, dtype=float)
    cos_term = 2.0 * np.cos(np.pi * k * x) * np.cos(np.pi * k * y)
    if family == "kor_plus_cos":
        cos_term = 0.5 * cos_term + np.cos(2 * np.pi * k * (x - y))
    return 1.0 + float(np.sum(cos_term / k ** (2 * alpha)))


def test_series_families_tail_bound_is_honest():
    """The series of each family's definition, truncated at kmax, sits within the
    tail bound of the kernel, whether kappa is in Bernoulli form (alpha = 1) or not."""
    for family in ("cosine", "kor_plus_cos"):
        for alpha, kmax in ((0.75, 20_000), (1.0, 20_000), (2.5, 200)):
            gap = kernel_1d(family, alpha, 0.3, 0.9) - _definition_series(family, alpha, 0.3,
                                                                           0.9, kmax)
            assert abs(gap) <= series_tail_bound(alpha, kmax)


@cache
def _kappa_oracle(alpha, t):
    """kappa(t) = 2 sum_k cos(2 pi k t) / k^(2 alpha) = 2 Re Li_(2 alpha)(e^(2 pi i t)),
    2 zeta(2 alpha) at t = 0 and 1, at 20 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        s = 2 * mpmath.mpf(alpha)
        if t in (0.0, 1.0):
            return 2 * mpmath.zeta(s)
        return 2 * mpmath.re(mpmath.polylog(s, mpmath.expjpi(2 * mpmath.mpf(t))))


_POLYLOG_ALPHAS = [1, 2, 3, 0.51, 0.75, 1.25, 1.5, 1.5 - 1e-4, 1.5 + 1e-4, 1.5 - 1e-8,
                   1.5 + 1e-8, 1.626, 2 + 1e-9, 2.5, 2.501, 3.3, 4.5, 7.9, 9, 9.5, 200]


@pytest.mark.parametrize("alpha", _POLYLOG_ALPHAS)
def test_cosine_families_closed_form_match_polylog(alpha):
    """The Korobov, cosine and Korobov+cosine kernels against kappa from mpmath's
    polylog, at random points, on the lines x = y and x + y = 1, at t = 0, 1/2
    and 1 and next to 0 and 1, to 2e-14: by `kernels._kappa` at every alpha off
    the Bernoulli tables (among them odd 2 alpha and its neighbours 1e-4 and 1e-8
    away; 1.626, where 2 alpha is 0.252 above 3 and which erred by 3.4e-14 when
    only 1/4 around odd 2 alpha took the pole pair; 2 + 1e-9, where zeta(2 alpha
    - 4) at 2e-9 meets the pole of zeta(1 - sigma); and 200, where Gamma(2 alpha)
    overflows),
    and in Bernoulli form at integer alpha <= 8.  There the cosine families keep
    4e-15 on the 18 points they had before; next to t = 0 and 1 the Bernoulli
    form errs by up to 7.1e-15 (alpha = 3).  A polylog at non-integer order takes
    mpmath about 20 ms, so those alphas take 4 random points, not 12."""
    strict = 18 if alpha in (1, 2, 3) else 0
    rng = np.random.default_rng(40 + alpha if strict else 40)
    x, y = rng.random((2, 12 if strict else 4))
    x = np.concatenate([x, [0.0, 0.3, 1.0, 0.2, 0.75, 0.0, 1e-9, 1.0, 0.5, 1e-12]])
    y = np.concatenate([y, [0.0, 0.3, 1.0, 0.8, 0.25, 1.0, 0.0, 1e-9, 0.0, 1.0]])
    for family, (c_diff, c_half) in (("korobov", (1, 0)), ("cosine", (0, 0.5)),
                                     ("kor_plus_cos", (0.5, 0.25))):
        got = kernel_1d(family, alpha, x, y)
        for i, (xi, yi, g) in enumerate(zip(x, y, got)):
            want = 1 + c_diff * _kappa_oracle(alpha, abs(xi - yi))
            if c_half:
                want += c_half * (_kappa_oracle(alpha, abs(xi - yi) / 2)
                                  + _kappa_oracle(alpha, (xi + yi) / 2))
            tol = 4e-15 if i < strict and family != "korobov" else 2e-14
            assert g == pytest.approx(float(want), rel=tol, abs=tol)


@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_symmetry(family):
    rng = np.random.default_rng(4)
    alpha = 2 if family != "cosine" else 1.5
    x, y = rng.random((2, 50))
    a = kernel_1d(family, alpha, x, y)
    b = kernel_1d(family, alpha, y, x)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


def test_points_outside_the_unit_interval_are_refused():
    """Outside [0, 1] the closed forms are not the kernel: Korobov at (1.3, 0.1)
    read 9.027 where the periodic kernel is 1.1316, and cosine at x = -0.4
    read 4.142 where it is 1.181 at x = 0.4.  So kernel_1d, and kernel()
    through it, refuse such points and NaN; the ends 0 and 1 are in."""
    for family, alpha, x, y in (("korobov", 1, 1.3, 0.1), ("korobov", 1, 0.1, 1.3),
                                ("cosine", 1, -0.4, 0.1),
                                ("sobolev", 2, 0.2, math.nan), ("cosine", 1.5, 0.2, -1e-12),
                                ("sob_odd", 3, np.array([0.2, 1.5]), 0.3)):
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            kernel_1d(family, alpha, x, y)
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        kernel(spec_for("korobov", 1, s=2), np.array([0.2, 1.3]), np.array([0.1, 0.1]))
    assert kernel_1d("korobov", 1, 1.0, 0.0) == kernel_1d("korobov", 1, 0.0, 0.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_gram_matrix_positive_semidefinite(family):
    rng = np.random.default_rng(5)
    alpha = 2 if family != "kor_plus_cos" else 1.0
    pts = rng.random((8, 2))
    w = WeightScheme.product([0.8, 0.6])
    # alpha = 1.5 puts the cosine families on kappa's polylog form
    for a in (alpha, 1.5) if family in ("cosine", "kor_plus_cos") else (alpha,):
        spec = KernelSpec(family=family, alpha=a, weights=w)
        gram = kernel(spec, pts[:, None, :], pts[None, :, :])
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-9


def test_multivariate_zero_weights_and_single_coordinate():
    w0 = WeightScheme.product([0.0, 0.0])
    spec = KernelSpec(family="sobolev", alpha=2, weights=w0)
    rng = np.random.default_rng(6)
    x, y = rng.random((2, 10, 2))
    np.testing.assert_array_equal(kernel(spec, x, y), np.ones(10))
    g = 0.37
    spec1 = KernelSpec(family="korobov", alpha=1, weights=WeightScheme.product([g]))
    got = kernel(spec1, x[:, :1], y[:, :1])
    want = 1.0 + g * (kernel_1d("korobov", 1, x[:, 0], y[:, 0]) - 1.0)
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_general_weights_match_product_expansion():
    rng = np.random.default_rng(7)
    g1, g2 = 0.9, 0.35
    prod_spec = spec_for("sobolev", 2, s=2)
    prod_spec = KernelSpec(family="sobolev", alpha=2,
                           weights=WeightScheme.product([g1, g2]))
    gen_spec = KernelSpec(family="sobolev", alpha=2, weights=WeightScheme.general(2, {
        frozenset({1}): g1, frozenset({2}): g2, frozenset({1, 2}): g1 * g2,
    }))
    x, y = rng.random((2, 40, 2))
    np.testing.assert_allclose(kernel(prod_spec, x, y), kernel(gen_spec, x, y),
                               rtol=1e-14, atol=1e-14)


def test_kernel_mean_identity():
    rng = np.random.default_rng(8)
    spec = spec_for("sobolev", 2)
    assert kernel_mean_identity_check(spec, np.array([0.3])) == pytest.approx(1.0, abs=1e-10)
    spec2 = KernelSpec(family="korobov", alpha=1, weights=WeightScheme.product([1.0, 1.0]))
    assert kernel_mean_identity_check(spec2, np.array([0.1, 0.9])) == pytest.approx(1.0, abs=1e-10)
    for family in ("sobolev", "sob_odd", "sob_odd_alpha"):
        for alpha in (1, 2, 4):
            spec3 = KernelSpec(family=family, alpha=alpha,
                               weights=WeightScheme.product([0.5, 2.0]))
            x = rng.random(2)
            assert kernel_mean_identity_check(spec3, x) == pytest.approx(1.0, abs=1e-8)
    z = KernelSpec(family="sobolev", alpha=2, weights=WeightScheme.product([0.0]))
    assert kernel_mean_identity_check(z, np.array([0.5])) == 1.0


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_cosine_families_mean_identity(alpha):
    rng = np.random.default_rng(9)
    for family in ("cosine", "kor_plus_cos"):
        spec = KernelSpec(family=family, alpha=alpha, weights=WeightScheme.product([0.5, 2.0]))
        for x in (rng.random(2), np.array([0.0, 1.0]), np.array([0.5, 0.25])):
            assert kernel_mean_identity_check(spec, x) == pytest.approx(1.0, abs=1e-12)


def test_spec_validation():
    w = WeightScheme.product([1.0])
    with pytest.raises(DomainError):
        KernelSpec(family="cosine", alpha=0.5, weights=w)
    with pytest.raises(DomainError):
        KernelSpec(family="sobolev", alpha=1.5, weights=w)
    with pytest.raises(DomainError):
        KernelSpec(family="sobolev", alpha=9, weights=w)
    with pytest.raises(DomainError):
        kernel_mean_identity_check(KernelSpec(family="cosine", alpha=1.5, weights=w), np.array([0.5]))


_W1, _W3 = WeightScheme.product([1.0]), WeightScheme.product([1.0, 0.5, 0.25])
_RULE = LatticeRule(N=13, z=(1, 5, 3))

# Every public entry point that takes a smoothness alpha, and the series oracles on
# kappa: (call, which alpha it takes, whether it returns the alpha it stored).  "real" is any finite
# alpha > 1/2 whose 2 alpha is finite, "int" an integer >= 1, "even" an even integer >= 2.
ALPHA_ENTRY_POINTS = {
    "KernelSpec/sobolev": (lambda a: KernelSpec("sobolev", a, _W1).alpha, "int", True),
    "KernelSpec/korobov": (lambda a: KernelSpec("korobov", a, _W1).alpha, "real", False),
    "KernelSpec/cosine": (lambda a: KernelSpec("cosine", a, _W1).alpha, "real", False),
    "kernel_1d/sob_odd": (lambda a: kernel_1d("sob_odd", a, 0.2, 0.3), "int", False),
    "kernel_1d/kor_plus_cos": (lambda a: kernel_1d("kor_plus_cos", a, 0.2, 0.3), "real", False),
    "korobov_series_1d": (lambda a: korobov_series_1d(a, 0.2, 0.3, 50), "real", False),
    "series_tail_bound": (lambda a: series_tail_bound(a, 50), "real", False),
    "CbcCriterion/plain_korobov": (lambda a: CbcCriterion("plain_korobov", _W3, a).alpha, "real",
                                   True),
    "CbcCriterion/sym": (lambda a: CbcCriterion("sym", _W3, a).alpha, "even", True),
    "wce_sq_korobov_lattice": (lambda a: wce_sq_korobov_lattice(a, _W3, _RULE), "real", False),
    "korobov_residue_table": (lambda a: korobov_residue_table(a, 13).tolist(), "real", False),
    "wce_sym_exact": (lambda a: wce_sym_exact(a, _W3, _RULE), "even", False),
    "CbcCriterion.middle_term/sym": (lambda a: CbcCriterion("sym", _W3, a).middle_term(_RULE),
                                     "even", False),
    # gamma'', the sym modified weights
    "sym_modified_weights": (lambda a: CbcCriterion("sym", _W3, a).modified_weights().gamma,
                             "even", False),
    "corollary_bound/sym": (lambda a: corollary_bound("sym", _W3, 13, 0.9, alpha=a), "even",
                            False),
    "c_sym": (lambda a: c_sym(2, 3, a), "even", False),
}


@pytest.mark.parametrize("name", sorted(ALPHA_ENTRY_POINTS))
def test_every_alpha_entry_point_applies_the_one_smoothness_rule(name):
    call, takes, stores = ALPHA_ENTRY_POINTS[name]
    bad = [math.nan, math.inf, -math.inf, None, 0.5, True, False, np.True_, "2"]
    bad += {"real": [1e308], "int": [2.5], "even": [2.5, 3]}[takes]  # 1e308: 2 alpha = inf
    for alpha in bad:
        with pytest.raises(DomainError):
            call(alpha)
    assert call(4.0) == call(4)
    if stores:
        assert type(call(4.0)) is int


def test_bernoulli_table_limit_fails_at_entry_and_names_alpha():
    for call, alpha in ((lambda: KernelSpec("sobolev", 9, _W1), "9"),
                        (lambda: wce_sym_exact(10, _W3, _RULE), "10")):
        with pytest.raises(DomainError, match=f"alpha = {alpha} "):
            call()
    assert CbcCriterion("sym", _W3, 16).korobov_order == 8
    # closed forms that read no Bernoulli table take no table limit: kappa serves every order
    assert CbcCriterion("sym", _W3, 18).korobov_order == 9
    assert CbcCriterion("plain_korobov", _W3, 9).korobov_order == 9
    assert wce_sq_korobov_lattice(9, _W3, _RULE).value > 0.0
    assert c_sym(2, 3, 18) != 0.0
    assert CbcCriterion("sym", _W3, 18).modified_weights().s == 3
    assert corollary_bound("sym", _W3, 13, 0.9, alpha=18).value > 0.0


def test_tent_results_take_alpha_2_only():
    for alpha in (7.5, 3, 1, math.nan):
        with pytest.raises(DomainError):
            CbcCriterion("tent", _W3, alpha)
        with pytest.raises(DomainError):
            corollary_bound("tent", _W3, 13, 0.9, alpha=alpha)
    for alpha in (None, 2, 2.0):
        assert CbcCriterion("tent", _W3, alpha).korobov_order == 1
        assert corollary_bound("tent", _W3, 13, 0.9, alpha=alpha).value > 0.0


def _accepted_at_parent(family, alpha):
    """The smoothness rule before kappa: the Sobolev families at an integer alpha
    within the Bernoulli tables, Korobov at any non-integer alpha > 1/2 or such an
    integer one, the cosine families at any alpha > 1/2."""
    in_tables = alpha % 1 == 0 and 2 * alpha <= MAX_DEGREE
    if family in ("sobolev", "sob_odd", "sob_odd_alpha"):
        return in_tables
    return family != "korobov" or alpha % 1 != 0 or in_tables


def test_every_alpha_accepted_before_is_still_accepted():
    """No alpha that was accepted is refused; Korobov at integer alpha > 8 moves
    to kappa's polylog form.  The exact engine takes every kernel, and the
    mean-identity check every Bernoulli closed form it took; the symmetrized
    error refuses what the Bernoulli tables do not reach."""
    rule = LatticeRule(N=7, z=(1, 3))
    w = WeightScheme.product([1.0, 0.5])
    for family in FAMILIES:
        for alpha in (0.75, 1, 1.5, 2, 2.5, 3, 4, 4.5, 7, 8, 8.5, 9, 9.5, 10, 17):
            if not _accepted_at_parent(family, alpha):
                continue
            spec = KernelSpec(family, alpha, w)
            assert np.isfinite(kernel(spec, np.array([0.2, 0.7]), np.array([0.4, 0.1])))
            assert np.isfinite(kernel_1d(family, alpha, 0.2, 0.4))
            assert wce_sq_quadratic_form(spec, rank1_points(rule)).value >= 0.0
            if family in ("sobolev", "sob_odd", "sob_odd_alpha") or alpha in range(1, 9):
                assert kernel_mean_identity_check(spec, np.array([0.3, 0.6])) == pytest.approx(
                    1.0, abs=1e-8)
    # the series tail past k = 50 is 1.3e-30, so the two differ by rounding only
    assert kernel_1d("korobov", 9, 0.2, 0.4) == pytest.approx(korobov_series_1d(9, 0.2, 0.4, 50),
                                                              rel=1e-15)
    # the exact symmetrized error still refuses beyond the tables
    with pytest.raises(DomainError, match="alpha = 10 "):
        wce_sym_exact(10, w, rule)


# Every public entry point that takes a series truncation kmax, and the series
# and dual-lattice oracles of the tests, called with it.
KMAX_ENTRY_POINTS = {
    "korobov_series_1d": lambda k: korobov_series_1d(1.5, 0.2, 0.7, k),
    "series_tail_bound": lambda k: series_tail_bound(1.5, k),
    "bernoulli_fourier_partial_sum": lambda k: bernoulli_fourier_partial_sum(2, 0.3, k),
    "fourier_tail_bound": lambda k: fourier_tail_bound(2, k),
    "tent_kernel_partial_sum": lambda k: tent_kernel_partial_sum(0.2, 0.7, k),
    "appendix_inner_sum": lambda k: appendix_inner_sum(3, "first", k),
    "dual_projected": lambda k: dual_projected(_RULE, [1, 2], k),
}


@pytest.mark.parametrize("name", sorted(KMAX_ENTRY_POINTS))
def test_every_kmax_entry_point_applies_the_one_kmax_rule(name):
    call = KMAX_ENTRY_POINTS[name]
    for kmax in (0, -5, 2.5, 3.0, np.float64(3.0), True, None, "3", math.nan):
        with pytest.raises(DomainError):
            call(kmax)
    assert call(np.int64(3)) == call(3) == call(np.int32(3))


@pytest.mark.parametrize("call,fragment", [
    pytest.param(lambda: kernel_1d("nope", 1, 0.5, 0.5), "unknown kernel family 'nope'",
                 id="smoothness/family"),
    pytest.param(lambda: kernel(KernelSpec("korobov", 1, WeightScheme.product([1.0, 1.0])),
                                np.zeros((3, 1)), np.zeros((3, 1))),
                 "points must have last axis 2", id="kernel/shape"),
    pytest.param(lambda: kernel(KernelSpec("korobov", 1, WeightScheme.product([1.0])), 0.3, 0.2),
                 "points must have last axis 1", id="kernel/scalar"),
    pytest.param(lambda: kernel(KernelSpec("korobov", 1, WeightScheme.product([1.0, 1.0])),
                                [np.zeros((2, 2)), np.zeros((2, 3))], np.zeros((2, 2))),
                 "points must have last axis 2", id="kernel/ragged"),
    pytest.param(lambda: kernel_mean_identity_check(
        KernelSpec("korobov", 1, WeightScheme.product([1.0, 1.0])), [0.5]),
                 "x must be a point of dimension 2", id="kernel_mean_identity_check/shape"),
])
def test_refusals(call, fragment):
    with pytest.raises(DomainError, match=re.escape(fragment)):
        call()
