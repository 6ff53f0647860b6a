"""Error formulas, their oracle agreement, and the bound chains."""

import math
import re
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from latticeqmc import kernels, worst_case_error
from latticeqmc.cbc import cbc_fast, cbc_plain
from latticeqmc.errors import DomainError, GuardError
from latticeqmc.kernels import KernelSpec, kernel, kernel_1d
from latticeqmc.lattice import LatticeRule, PointSet, rank1_points, symmetrize, tent_transform
from latticeqmc.special_functions import bernoulli_coefficients
from latticeqmc.weights import WeightScheme
from latticeqmc.worst_case_error import (
    C_PRIME,
    CbcCriterion,
    ErrorReport,
    corollary_bound,
    korobov_residue_table,
    wce_sq_korobov_lattice,
    wce_sq_quadratic_form,
    wce_sym_bound,
    wce_sym_exact,
    wce_tent_bound,
)
import pinned
from oracles import dual_projected, dual_sums


def random_rule(rng, N, s) -> LatticeRule:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return LatticeRule(N=N, z=tuple(int(v) for v in rng.integers(1, N, size=s)))


GOLDEN = math.pi**2 / 12.0  # N=2, z=(1), alpha=1, gamma=1

# Pi(1 + gamma eta) - 1 in weights.combine rounds at about eps per pair
# whatever the value, so values below about 1e-4 cannot be checked to 1e-12
# relative by any double-precision route; this is their absolute floor.
ROUNDING_FLOOR = 1e-15


def test_golden_value_both_paths():
    rule = LatticeRule(N=2, z=(1,))
    w = WeightScheme.product([1.0])
    closed = wce_sq_korobov_lattice(1, w, rule)
    assert closed.value == pytest.approx(GOLDEN, abs=1e-13)
    quad = wce_sq_quadratic_form(KernelSpec(family="korobov", alpha=1, weights=w),
                                 rank1_points(rule))
    assert quad.value == pytest.approx(GOLDEN, abs=1e-13)


@pytest.mark.parametrize("form", ["product", "pod"])
def test_closed_form_row_blocks_match_unblocked_sum(form):
    """At s = 40 both N take several row blocks, the last one partial: the
    Rader order of the prime N = 20011 and the natural order of N = 20000."""
    s = 40
    gam = [1.0 / j**2 for j in range(1, s + 1)]
    w = WeightScheme.product(gam) if form == "product" else WeightScheme.pod([1.0] * s, gam)
    for N in (20011, 20000):
        rule = random_rule(np.random.default_rng(11), N, s)
        for alpha in (1, 2):
            table = korobov_residue_table(alpha, N)
            unblocked = float(np.mean(w.combine(table[rank1_points(rule).numerators])))
            assert wce_sq_korobov_lattice(alpha, w, rule).value == \
                pytest.approx(unblocked, rel=1e-12)


def test_residue_table_reads_alpha_through_the_smoothness_rule():
    """korobov_residue_table takes alpha as the Korobov kernel does: an integral
    float is its integer, and alpha <= 1/2 (where the series diverges), a bool and
    NaN are refused."""
    for N in (13, 101, 1024):
        for alpha in (1, 2):
            assert np.array_equal(korobov_residue_table(float(alpha), N),
                                  korobov_residue_table(alpha, N))
    for alpha in (0.3, 0.5, True, math.nan):
        with pytest.raises(DomainError, match="korobov requires a finite alpha > 1/2"):
            korobov_residue_table(alpha, 13)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 7, 12, 13, 101, 256, 1009])
def test_closed_form_half_sum_matches_full_subset_sum(N):
    """The closed form sums half the points, n standing for n and N - n (in
    Rader order for prime N, whose primitive roots 3, 2, 11 at N = 7,
    13, 1009 make it differ from the natural order); the oracle sums
    gamma_u mean_n prod_{j in u} w(n z_j) over every n and every subset u,
    for odd and even N."""
    rng = np.random.default_rng(N)
    s = 4
    rule = random_rule(rng, N, s)
    nums = rank1_points(rule).numerators
    gam, Gamma = rng.random(s), rng.random(s)
    general = {frozenset(u): float(g) for u, g in
               zip(([1], [2, 3], [1, 2, 4], [1, 2, 3, 4], [4]), rng.random(5))}
    for w in (WeightScheme.product(gam), WeightScheme.pod(Gamma, gam),
              WeightScheme.general(s, general)):
        for alpha in (1, 2, 3):
            table = korobov_residue_table(alpha, N)
            assert np.array_equal(table, table[-np.arange(N) % N])  # w(r) = w(N - r) exactly
            table = table[nums]
            want = sum(g * float(np.mean(np.prod(table[:, sorted(j - 1 for j in u)], axis=1)))
                       for u, g in w.nonempty_subsets())
            assert wce_sq_korobov_lattice(alpha, w, rule).value == pytest.approx(want, rel=1e-13)


def test_zero_weights_give_zero_everywhere():
    rule = LatticeRule(N=5, z=(1, 2))
    w0 = WeightScheme.product([0.0, 0.0])
    assert wce_sq_korobov_lattice(1, w0, rule).value == 0.0
    assert wce_tent_bound(w0, rule).value == 0.0
    assert wce_sym_bound(2, w0, rule).value == 0.0
    assert wce_sym_exact(2, w0, rule).value == 0.0
    assert CbcCriterion("tent", w0).middle_term(rule).value == 0.0
    assert corollary_bound("tent", w0, 5, 1.0).value == 0.0


def test_korobov_vs_quadratic_form_sweep():
    rng = np.random.default_rng(101)
    for N in (2, 3, 5, 7, 13):
        for s in (1, 2, 3):
            for _ in range(3):
                rule = random_rule(rng, N, s)
                w = WeightScheme.product(rng.random(s))
                for alpha in (1, 2, 3):
                    a = wce_sq_korobov_lattice(alpha, w, rule).value
                    spec = KernelSpec(family="korobov", alpha=alpha, weights=w)
                    b = wce_sq_quadratic_form(spec, rank1_points(rule)).value
                    assert abs(a - b) <= 1e-11 * (1.0 + a)


def test_closed_form_equals_quadratic_form_at_every_alpha():
    """Off the Bernoulli tables (real alpha, integer alpha > 8) the closed form
    reads kappa's polylog form, as the Korobov kernel of the exact engine does:
    the two routes agree to rounding on product and POD weights."""
    rng = np.random.default_rng(12)
    for N in (2, 7, 64, 101):
        for s in (1, 2, 4):
            rule = random_rule(rng, N, s)
            g = [1.0, 0.6, 0.3, 0.15][:s]
            for w in (WeightScheme.product(g), WeightScheme.pod([1.0, 0.5, 0.25, 0.125][:s], g)):
                for alpha in (0.75, 1.5, 2.3, 9, 10):
                    closed = wce_sq_korobov_lattice(alpha, w, rule).value
                    spec = KernelSpec("korobov", alpha, w)
                    quad = wce_sq_quadratic_form(spec, rank1_points(rule)).value
                    assert abs(closed - quad) <= 1e-13 * quad + 1e-14


@pytest.mark.parametrize("alpha", [0.75, 1.5, 9])
def test_plain_korobov_criterion_at_every_alpha_stays_below_the_kuo_bound(alpha):
    """CBC with the plain Korobov criterion off the Bernoulli tables: the
    criterion of the constructed rule is the closed form of that rule, and it
    lies below the construction bound at every lambda of a grid in (1/(2 alpha), 1]."""
    w = WeightScheme.product([1.0 / j**2 for j in range(1, 6)])
    crit = CbcCriterion("plain_korobov", w, alpha)
    assert crit.korobov_order == alpha and crit.effective_weights() is w
    with pytest.raises(DomainError, match="no transform weight factor"):
        crit.modified_weights()
    for N in (101, 251, 1009):
        res = cbc_fast(N, 5, crit)
        value = res.per_dimension_error[-1]
        assert value == pytest.approx(crit.value(res.rule()), rel=1e-12)
        for lam in np.linspace(1.0 / (2 * alpha), 1.0, 11)[1:].tolist():
            assert value <= corollary_bound("plain_korobov", w, N, lam, alpha=alpha).value


def test_quadratic_form_at_non_integer_alpha_matches_polylog_double_sum():
    """The engine takes the families on kappa at non-integer alpha: on the plain
    and the tent points of an N = 31, s = 3 rule it equals the double sum over
    all 31^2 pairs of prod_j (1 + gamma_j eta_j) - 1, with eta from kappa(c / 62) =
    2 Re Li_(2 alpha)(e^(2 pi i c / 62)) at 20 digits and summed at 20 digits, to
    1e-13 relative above an absolute floor of 2e-15: 961 pair terms of order 1
    round to about 1e-15 (the tent cosine value at alpha = 2.3 is 7.8e-3 and sits
    1.3e-15 off)."""
    mpmath = pytest.importorskip("mpmath")
    gamma = [1.0, 0.6, 0.3]
    w, rule = WeightScheme.product(gamma), LatticeRule(N=31, z=(1, 12, 7))
    coeffs = {"korobov": (1, 0, 0), "cosine": (0, 0.5, 0.5), "kor_plus_cos": (0.5, 0.25, 0.25)}
    for alpha in (0.75, 1.5, 2.3):
        with mpmath.workdps(20):
            s = 2 * mpmath.mpf(alpha)
            half = [2 * mpmath.zeta(s)] + [2 * mpmath.re(mpmath.polylog(
                s, mpmath.expjpi(mpmath.mpf(2 * c) / 62))) for c in range(1, 32)]
            kappa = half + half[30::-1]  # kappa(c / 62) for c = 0..62
            for ps in (rank1_points(rule), tent_transform(rank1_points(rule))):
                nums = ps.numerators.tolist()
                for family, (c_diff, c_half, c_sum) in coeffs.items():
                    total = mpmath.mpf(0)
                    for a in nums:
                        for b in nums:
                            p = mpmath.mpf(1)
                            for g, aj, bj in zip(gamma, a, b):
                                d = abs(aj - bj)
                                p *= 1 + g * (c_diff * kappa[2 * d] + c_half * kappa[d]
                                              + c_sum * kappa[aj + bj])
                            total += p - 1
                    got = wce_sq_quadratic_form(KernelSpec(family, alpha, w), ps).value
                    assert got == pytest.approx(float(total / 31**2), rel=1e-13, abs=2e-15)


def test_modified_weight_values():
    w = WeightScheme.product([1.0])
    wp = CbcCriterion("tent", w).modified_weights()
    assert wp.gamma[0] == pytest.approx(58.0 / (12.0 * math.pi**4), rel=1e-15)
    w2 = WeightScheme.general(2, {frozenset({1, 2}): 1.0, frozenset({1}): 0.0})
    wp2 = CbcCriterion("tent", w2).modified_weights()
    assert wp2.weight_of([1, 2]) == pytest.approx((58.0 / (12.0 * math.pi**4)) ** 2, rel=1e-14)
    assert wp2.weight_of([1]) == 0.0
    ws = CbcCriterion("sym", w, 2).modified_weights()
    assert ws.gamma[0] == pytest.approx(3.0 / (2**5 * math.pi**4), rel=1e-15)
    ws4 = CbcCriterion("sym", w, 4).modified_weights()
    assert ws4.gamma[0] == pytest.approx(3.0 / (2**9 * math.pi**8), rel=1e-15)
    with pytest.raises(DomainError):
        CbcCriterion("sym", w, 3).modified_weights()


def test_tent_bound_composition():
    rule = LatticeRule(N=2, z=(1,))
    w = WeightScheme.product([1.0])
    bound = wce_tent_bound(w, rule)
    gamma_p = 58.0 / (12.0 * math.pi**4)
    assert bound.value == pytest.approx((math.sqrt(gamma_p) * GOLDEN) ** 2, rel=1e-13)
    assert bound.kind == "theorem_bound"


def test_sym_bound_composition():
    rule = LatticeRule(N=2, z=(1,))
    w = WeightScheme.product([1.0])
    bound = wce_sym_bound(2, w, rule)
    gamma_pp = 3.0 / (2**5 * math.pi**4)
    assert bound.value == pytest.approx((math.sqrt(gamma_pp) * GOLDEN) ** 2, rel=1e-13)


def test_bounds_refuse_weights_of_another_dimension(monkeypatch):
    """The bounds, the middle terms, and the exact errors through their one
    guard, which refuses before any table or point array is built: at prime
    N = 5 (the shift layout) and at composite N = 6 (the row layout), on
    plain and tent points.  One weight once gave the middle term of a
    projection, and three an IndexError."""
    rules = (LatticeRule(N=5, z=(1, 2)), LatticeRule(N=6, z=(1, 5)))
    point_sets = [(rule, ps) for rule in rules
                  for ps in (rank1_points(rule), tent_transform(rank1_points(rule)))]
    for name in ("_lattice_tables", "rank1_points"):
        monkeypatch.setattr(worst_case_error, name,
                            lambda *args, name=name: pytest.fail(f"{name} ran before the check"))
    for rule, ps in point_sets:
        for w in (WeightScheme.product([1.0]), WeightScheme.product([1.0, 1.0, 1.0])):
            with pytest.raises(DomainError):
                wce_tent_bound(w, rule)
            with pytest.raises(DomainError):
                wce_sym_bound(2, w, rule)
            with pytest.raises(DomainError):
                wce_sym_exact(2, w, rule)
            with pytest.raises(DomainError, match=f"weights cover {w.s} coordinates, rule has 2"):
                CbcCriterion("tent", w).middle_term(rule)
            with pytest.raises(DomainError, match=f"weights cover {w.s} coordinates, rule has 2"):
                CbcCriterion("sym", w, 2).middle_term(rule)
            with pytest.raises(DomainError):
                wce_sq_quadratic_form(KernelSpec(family="sobolev", alpha=2, weights=w), ps)


def test_middle_term_closed_form_case():
    """s = 1, N = 2: the dual lattice is the even k != 0, so the inner sum is
    2 zeta(2 o) / 2^(2 o): pi^2/12 for tent (o = 1), pi^4/720 for sym alpha = 4
    (o = 2)."""
    rule = LatticeRule(N=2, z=(1,))
    w = WeightScheme.product([1.0])
    mid = CbcCriterion("tent", w).middle_term(rule)
    gamma_p = 58.0 / (12.0 * math.pi**4)
    assert mid.value == pytest.approx(gamma_p * (math.pi**2 / 12.0) ** 2, rel=1e-14)
    assert mid.kind == "middle_term"
    gamma_pp = 3.0 / (2.0**9 * math.pi**8)
    assert CbcCriterion("sym", w, 4).middle_term(rule).value == pytest.approx(
        gamma_pp * (math.pi**4 / 720.0) ** 2, rel=1e-14)


def test_middle_terms_and_closed_form_against_the_exact_rational_oracle():
    """The middle terms (tent, sym alpha = 2, 4, 6) and the closed form at
    Korobov orders 1, 2, 3 against the dual sums S_u of `oracles.dual_sums`,
    exact rationals times (2 pi)^(2 o |u|), on 12 seeded random rules:
    N in {53, 64, 100, 101, 149, 191}, s <= 4, product weights from U(0.1, 1).

    The relative tolerances are 1.5 times the largest error of the code
    before the middle term walked the half order, on these rules: middle
    term tent and sym alpha = 2 (order 1) 6e-12, sym alpha = 4 2.2e-8,
    sym alpha = 6 8.7e-3; closed form order 1 2.6e-12, order 2 1.6e-8,
    order 3 4.4e-3.  They are wide at high order because the sums cancel
    against residue-table entries of size 2 zeta(2 o) (ROADMAP item 2)."""
    mpmath = pytest.importorskip("mpmath")
    middle_tol = {(None, "tent"): 6e-12, (2, "sym"): 6e-12, (4, "sym"): 2.2e-8,
                  (6, "sym"): 8.7e-3}
    closed_tol = {1: 2.6e-12, 2: 1.6e-8, 3: 4.4e-3}
    rng = np.random.default_rng(0)
    for N in (53, 64, 100, 101, 149, 191) * 2:
        rule = random_rule(rng, N, int(rng.integers(1, 5)))
        w = WeightScheme.product(rng.uniform(0.1, 1.0, size=rule.s))
        sums = {o: dual_sums(o, rule) for o in (1, 2, 3)}
        with mpmath.workdps(50):
            for (alpha, kind), tol in middle_tol.items():
                crit = CbcCriterion(kind, w, alpha)
                modified = crit.modified_weights()
                exact = sum(modified.weight_of(u) * S**2
                            for u, S in sums[crit.korobov_order].items())
                assert abs(crit.middle_term(rule).value - exact) <= tol * exact, (rule, kind)
            for o, tol in closed_tol.items():
                exact = sum(w.weight_of(u) * S for u, S in sums[o].items())
                assert abs(wce_sq_korobov_lattice(o, w, rule).value - exact) <= tol * exact, rule


def test_middle_term_matches_brute_force_dual_enumeration():
    """Per subset u, the scan of the dual box |k_j| <= kmax gives S_box <= S_u,
    and every nonzero k outside the box adds at most
    T_u = (2 zeta(2 o))^|u| - (2 sum_{k<=kmax} k^(-2 o))^|u|; so the exact
    middle term lies between sum_u gamma_u S_box^2 and
    sum_u gamma_u (S_box + T_u)^2."""
    zeta = {1: math.pi**2 / 6.0, 2: math.pi**4 / 90.0}
    kmax = 24
    rng = np.random.default_rng(33)
    for _ in range(5):
        s = int(rng.integers(1, 3))
        N = int(rng.integers(2, 12))
        rule = random_rule(rng, N, s)
        w = WeightScheme.product(rng.random(s))
        for middle, modified, order in (
                (CbcCriterion("tent", w).middle_term(rule),
                 CbcCriterion("tent", w).modified_weights(), 1),
                (CbcCriterion("sym", w, 2).middle_term(rule),
                 CbcCriterion("sym", w, 2).modified_weights(), 1),
                (CbcCriterion("sym", w, 4).middle_term(rule),
                 CbcCriterion("sym", w, 4).modified_weights(), 2)):
            box_sum = 2.0 * sum(k ** (-2.0 * order) for k in range(1, kmax + 1))
            lower = upper = 0.0
            for mask in range(1, 1 << s):
                u = [j + 1 for j in range(s) if mask >> j & 1]
                inner = sum(np.prod([abs(kj) ** (-2.0 * order) for kj in k])
                            for k in dual_projected(rule, u, kmax))
                tail = (2.0 * zeta[order]) ** len(u) - box_sum ** len(u)
                lower += modified.weight_of(u) * inner**2
                upper += modified.weight_of(u) * (inner + tail) ** 2
            assert lower * (1 - 1e-12) <= middle.value <= upper * (1 + 1e-12)


def test_tent_error_bound_chain():
    rng = np.random.default_rng(55)
    for _ in range(15):
        s = int(rng.integers(1, 4))
        N = int(rng.integers(2, 65))
        rule = random_rule(rng, N, s)
        w = WeightScheme.product(rng.random(s))
        spec = KernelSpec(family="sobolev", alpha=2, weights=w)
        exact = wce_sq_quadratic_form(spec, tent_transform(rank1_points(rule))).value
        middle = CbcCriterion("tent", w).middle_term(rule).value
        bound = wce_tent_bound(w, rule).value
        assert exact <= middle * (1 + 1e-11) + 1e-14
        assert middle <= bound * (1 + 1e-11) + 1e-14


def test_sym_error_bound_chain():
    rng = np.random.default_rng(66)
    for _ in range(10):
        s = int(rng.integers(1, 4))
        N = int(rng.integers(2, 65))
        rule = random_rule(rng, N, s)
        w = WeightScheme.product(rng.random(s))
        for alpha in (2, 4):
            exact = wce_sym_exact(alpha, w, rule).value
            middle = CbcCriterion("sym", w, alpha).middle_term(rule).value
            bound = wce_sym_bound(alpha, w, rule).value
            assert exact <= middle * (1 + 1e-11) + 1e-14
            assert middle <= bound * (1 + 1e-11) + 1e-14


@pytest.mark.parametrize("kind,alpha,N", [("tent", None, 1021), ("tent", None, 4099),
                                           ("sym", 2, 1021)])
def test_error_bound_chain_on_cbc_rules(kind, alpha, N):
    """exact <= middle <= bound on CBC rules at s = 6, gamma_j = j^-2."""
    w = WeightScheme.product([1.0 / j**2 for j in range(1, 7)])
    rule = cbc_fast(N, 6, CbcCriterion(kind, w, alpha)).rule()
    if kind == "tent":
        spec = KernelSpec(family="sobolev", alpha=2, weights=w)
        exact = wce_sq_quadratic_form(spec, tent_transform(rank1_points(rule))).value
        middle = CbcCriterion("tent", w).middle_term(rule).value
        bound = wce_tent_bound(w, rule).value
    else:
        exact = wce_sym_exact(alpha, w, rule).value
        middle = CbcCriterion("sym", w, alpha).middle_term(rule).value
        bound = wce_sym_bound(alpha, w, rule).value
    assert 0.0 < exact <= middle * (1 + 1e-11)
    assert middle <= bound * (1 + 1e-11)


def test_sym_exact_equals_quadratic_form_on_multiset():
    """The two-kernel reflection average on the base lattice equals the plain
    quadratic form on all 2^s reflections: alpha = 2 (sobolev) and alpha = 4
    (sob_odd_alpha, where b_3 flips sign under t -> 1 - t as well as b_1),
    product and POD weights."""
    rng = np.random.default_rng(77)
    for i in range(9):
        s = 1 + i % 3
        N = int(rng.integers(2, 20))
        rule = random_rule(rng, N, s)
        gam = rng.random(s)
        multiset = symmetrize(rank1_points(rule))
        for w in (WeightScheme.product(gam), WeightScheme.pod(rng.random(s), gam)):
            for alpha, family in ((2, "sobolev"), (4, "sob_odd_alpha")):
                via_reflections = wce_sym_exact(alpha, w, rule).value
                spec = KernelSpec(family=family, alpha=alpha, weights=w)
                via_multiset = wce_sq_quadratic_form(spec, multiset).value
                assert via_reflections == pytest.approx(via_multiset, rel=1e-9, abs=1e-15)


def test_float_positive_alpha_is_stored_as_an_int():
    rule = LatticeRule(N=13, z=(1, 5, 3))
    w = WeightScheme.product([1.0, 0.5, 0.25])
    crit = CbcCriterion("plain_korobov", w, 4.0)
    assert crit.alpha == 4 and type(crit.alpha) is int
    assert wce_sq_korobov_lattice(4.0, w, rule) == wce_sq_korobov_lattice(4, w, rule)
    assert CbcCriterion("plain_korobov", w, 1.5).alpha == 1.5  # off the tables, kept as given
    for bad in (0, -1, None):
        with pytest.raises(DomainError):
            CbcCriterion("plain_korobov", w, bad)
        with pytest.raises(DomainError):
            wce_sq_korobov_lattice(bad, w, rule)


def test_float_even_alpha_is_the_integer_alpha():
    rule = LatticeRule(N=13, z=(1, 5, 3))
    w = WeightScheme.product([1.0, 0.5, 0.25])
    assert (CbcCriterion("sym", w, 4.0).modified_weights().gamma
            == CbcCriterion("sym", w, 4).modified_weights().gamma)
    assert CbcCriterion("sym", w, 4.0).value(rule) == CbcCriterion("sym", w, 4).value(rule)
    assert wce_sym_exact(4.0, w, rule) == wce_sym_exact(4, w, rule)
    assert (CbcCriterion("sym", w, 4.0).middle_term(rule)
            == CbcCriterion("sym", w, 4).middle_term(rule))
    assert corollary_bound("sym", w, 13, 0.5, alpha=4.0) == corollary_bound("sym", w, 13, 0.5,
                                                                             alpha=4)
    for bad in (2.5, 3, 3.0, 0):
        for call in (lambda: CbcCriterion("sym", w, bad).modified_weights(),
                     lambda: CbcCriterion("sym", w, bad),
                     lambda: wce_sym_exact(bad, w, rule),
                     lambda: CbcCriterion("sym", w, bad).middle_term(rule),
                     lambda: corollary_bound("sym", w, 13, 0.9, alpha=bad)):
            with pytest.raises(DomainError):
                call()


@pytest.mark.parametrize("budget", [1, 37])
def test_results_do_not_depend_on_the_block_budget(budget, monkeypatch):
    """Budget 1 puts one row in every block; at 37 most loops below end in a
    partial block (Korobov rows of 3 entries, k-rows of 5, the 5 distinct
    rows of the N = 9 quadratic forms, 15 entries each, in blocks of 2, 2 and
    1 row); at the default budget each is a single block."""
    rng = np.random.default_rng(12)
    small, rule = random_rule(rng, 5, 3), random_rule(rng, 23, 3)
    folded = LatticeRule(N=9, z=(1, 2, 4))
    gam = rng.random(3)
    prod_w, pod_w = WeightScheme.product(gam), WeightScheme.pod(rng.random(3), gam)
    x, y = rng.random(5), rng.random(5)
    crit = CbcCriterion("sym", pod_w, 2)

    def results():
        tent = [wce_sq_quadratic_form(KernelSpec("sobolev", 2, w),
                                      tent_transform(rank1_points(r))).value
                for w, r in ((prod_w, small), (pod_w, folded))]
        return [*tent, wce_sym_exact(2, pod_w, small).value,
                wce_sym_exact(2, prod_w, folded).value,
                wce_sq_korobov_lattice(2, prod_w, rule).value,
                wce_sq_korobov_lattice(2, pod_w, rule).value,
                *kernel_1d("cosine", 1.5, x, y)]

    default, z = results(), cbc_plain(11, 3, crit).z
    monkeypatch.setattr(kernels, "_BLOCK_BUDGET", budget)
    assert results() == pytest.approx(default, rel=1e-12, abs=ROUNDING_FLOOR)
    assert cbc_plain(11, 3, crit).z == z


# -- exact rationals and direct double sums ----------------------------------


def _b_exact(tau: int, x: Fraction) -> Fraction:
    """b_tau(x) = B_tau(x) / tau! in exact arithmetic."""
    return sum(c * x**k for k, c in enumerate(bernoulli_coefficients(tau))) / math.factorial(tau)


def _eta_exact(family: str, alpha: int, x: Fraction, y: Fraction) -> Fraction:
    """K_1(x, y) - 1 as a rational; the Korobov factor (2 pi)^(2 alpha) is
    taken as the exact value of the double that the library multiplies by."""
    g = (-1) ** (alpha + 1) * _b_exact(2 * alpha, abs(x - y))
    if family == "korobov":
        return Fraction((2 * math.pi) ** (2 * alpha)) * g
    return g + _b_exact(1, x) * _b_exact(1, y) + _b_exact(2, x) * _b_exact(2, y)


def _form_exact(family, alpha, gamma, nums, N, reflect=False) -> Fraction:
    """-1 + N^-2 sum over all pairs of prod_j (1 + gamma_j eta_j); with reflect,
    eta_j is averaged over the four reflections of (x_j, y_j), which is the
    form of the 2^s N-point symmetrized rule for product weights."""
    eta = {}

    def cell(a, b):
        if (a, b) not in eta:
            x, y = Fraction(a, N), Fraction(b, N)
            pairs = [(x, y), (1 - x, y), (x, 1 - y), (1 - x, 1 - y)] if reflect else [(x, y)]
            eta[a, b] = sum(_eta_exact(family, alpha, u, v) for u, v in pairs) / len(pairs)
        return eta[a, b]

    total = Fraction(0)
    for p in nums:
        for q in nums:
            prod = Fraction(1)
            for j, (a, b) in enumerate(zip(p, q)):
                prod *= 1 + gamma[j] * cell(a, b)
            total += prod
    return total / len(nums) ** 2 - 1


RATIONAL_RULES = (LatticeRule(N=7, z=(1, 2, 3)), LatticeRule(N=12, z=(1, 5, 7)),
                  LatticeRule(N=13, z=(1, 5, 3)))


@pytest.mark.parametrize("rule", RATIONAL_RULES, ids=lambda r: f"N{r.N}")
def test_exact_errors_match_rational_oracle(rule):
    """The tent, sym and Korobov errors on lattice points are rational (the
    Korobov one up to the constant (2 pi)^(2 alpha)), so a Fraction sum over
    all N^2 pairs is exact; gamma_j = 1/j^2, s = 3.  The sym values (5e-7
    to 5e-6) sit near the rounding floor."""
    gamma = [Fraction(1, j * j) for j in range(1, 4)]
    w = WeightScheme.product([float(g) for g in gamma])
    nums = rank1_points(rule).numerators.tolist()
    tent_ps = tent_transform(rank1_points(rule))
    tent = wce_sq_quadratic_form(KernelSpec("sobolev", 2, w), tent_ps).value
    want = _form_exact("sobolev", 2, gamma, tent_ps.numerators.tolist(), rule.N)
    assert tent == pytest.approx(float(want), rel=1e-12, abs=0)
    want = _form_exact("sobolev", 2, gamma, nums, rule.N, reflect=True)
    assert wce_sym_exact(2, w, rule).value == pytest.approx(float(want), rel=1e-12,
                                                             abs=ROUNDING_FLOOR)
    for alpha in (1, 2):
        want = float(_form_exact("korobov", alpha, gamma, nums, rule.N))
        quad = wce_sq_quadratic_form(KernelSpec("korobov", alpha, w), rank1_points(rule)).value
        assert quad == pytest.approx(want, rel=1e-12, abs=0)
        assert wce_sq_korobov_lattice(alpha, w, rule).value == pytest.approx(want, rel=1e-12,
                                                                             abs=0)


def _direct_form(family: str, alpha: int, w: WeightScheme, ps: PointSet) -> float:
    """The quadratic form as one unblocked double sum over all m^2 pairs."""
    x = ps.points
    eta = kernel_1d(family, alpha, x[:, None, :], x[None, :, :]) - 1.0
    return float(np.sum(w.combine(eta))) / len(x) ** 2


def _three_weights():
    gam = [1.0, 0.6, 0.3]
    return (WeightScheme.product(gam), WeightScheme.pod([1.0, 0.5, 2.0], gam),
            WeightScheme.general(3, {frozenset({1}): 0.7, frozenset({2, 3}): 0.4,
                                     frozenset({1, 2, 3}): 0.2}))


def _rule(N, z):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return LatticeRule(N=N, z=z)


@pytest.mark.parametrize("w", _three_weights(), ids=("product", "pod", "general"))
def test_engine_equals_direct_double_sum_on_edge_cases(w):
    """Rows that fold or repeat, N = 2 and symmetrized multisets, against
    the unblocked double sum of weights.combine(kernel_1d - 1), to 1e-12
    relative above the rounding floor (the sym values at alpha = 4 are
    1e-15 to 1e-8 and sit on it)."""
    even, shared, two = _rule(12, (1, 5, 7)), _rule(12, (2, 4, 10)), _rule(2, (1, 1, 1))
    cases = [
        ("sobolev", 2, tent_transform(rank1_points(even))),  # x = 1/2 is its own pair
        ("sobolev", 2, rank1_points(shared)),  # every row twice
        ("korobov", 2, rank1_points(shared)),
        ("korobov", 1, rank1_points(even)),
        ("sob_odd", 3, tent_transform(rank1_points(two))),
        ("korobov", 3, rank1_points(two)),
        ("sobolev", 2, symmetrize(rank1_points(even))),
        ("sob_odd_alpha", 4, symmetrize(rank1_points(_rule(7, (1, 2, 3))))),
    ]
    for family, alpha, ps in cases:
        got = wce_sq_quadratic_form(KernelSpec(family, alpha, w), ps).value
        assert got == pytest.approx(_direct_form(family, alpha, w, ps), rel=1e-12,
                                    abs=ROUNDING_FLOOR)
    for rule in (even, shared, two, _rule(13, (1, 5, 3))):
        multiset = symmetrize(rank1_points(rule))
        for alpha in (2, 4):
            want = _direct_form("sob_odd_alpha", alpha, w, multiset)
            assert wce_sym_exact(alpha, w, rule).value == pytest.approx(want, rel=1e-12,
                                                                        abs=ROUNDING_FLOOR)


# -- the shift layout of prime-N lattice rules -------------------------------

SHIFT_PRIMES = (3, 5, 7, 13, 101, 509)  # h = (N - 1)/2 = 1, 2, 3, 6, 50, 254: both parities
FAMILY_ALPHAS = (("korobov", 1), ("korobov", 1.5), ("cosine", 2), ("kor_plus_cos", 1),
                 ("sobolev", 2), ("sob_odd", 3), ("sob_odd_alpha", 4))


def _row_copy(ps: PointSet) -> PointSet:
    """The same multiset with the zero row moved from n = 0 to n = 1, so that
    it is no longer the tent set of a rule and takes the row engine."""
    return PointSet(s=ps.s, kind=ps.kind, numerators=np.roll(ps.numerators, 1, axis=0),
                    denominator=ps.denominator)


@pytest.mark.parametrize("N", SHIFT_PRIMES)
@pytest.mark.parametrize("w", _three_weights(), ids=("product", "pod", "general"))
def test_shift_layout_equals_row_engine(N, w):
    """The tent points of a rule at an odd prime N take the shift layout, a
    row-permuted copy of them the row engine: every family agrees on the two
    to 1e-12 relative above the rounding floor.  The sym error of the rule
    takes the shift layout too, and agrees with the row engine on the
    symmetrized multiset at alpha = 2 and 4."""
    rule = random_rule(np.random.default_rng(N), N, 3)
    ps = tent_transform(rank1_points(rule))
    copy = _row_copy(ps)
    assert worst_case_error._tent_lattice(ps) is not None
    assert worst_case_error._tent_lattice(copy) is None
    for family, alpha in FAMILY_ALPHAS:
        spec = KernelSpec(family, alpha, w)
        assert wce_sq_quadratic_form(spec, ps).value == pytest.approx(
            wce_sq_quadratic_form(spec, copy).value, rel=1e-12, abs=ROUNDING_FLOOR)
    multiset = symmetrize(rank1_points(rule))
    for alpha in (2, 4):
        want = wce_sq_quadratic_form(KernelSpec("sob_odd_alpha", alpha, w), multiset).value
        assert wce_sym_exact(alpha, w, rule).value == pytest.approx(want, rel=1e-12,
                                                                    abs=ROUNDING_FLOOR)


def _longdouble_form(nums, N, g, beta, g_sum, gamma) -> float:
    """-1 + N^-2 sum over all pairs of prod_j (1 + gamma_j eta_j), product
    weights, summed in np.longdouble over the engine's own double tables."""
    L = np.longdouble
    rows, mu = np.unique(nums, axis=0, return_counts=True)
    g, mu, gam = g.astype(L), mu.astype(L), np.array(gamma, dtype=L)
    total = L(0)
    for lo in range(0, len(rows), 16):
        a, b = rows[lo:lo + 16, None, :], rows[None, :, :]
        eta = g[np.abs(a - b)]
        if g_sum is not None:
            eta = eta + g_sum.astype(L)[a + b]
        for t in beta.values():
            eta = eta + t.astype(L)[a] * t.astype(L)[b]
        total += mu[lo:lo + 16] @ (np.prod(1 + gam * eta, axis=-1) - 1) @ mu
    return float(total / (L(N) * N))


def test_shift_layout_is_as_close_to_a_longdouble_oracle_as_the_row_engine():
    """CBC tent and sym (alpha = 2) rules at N = 509, s = 20, gamma_j = j^-2:
    the shift layout sits at most twice as far from a np.longdouble pair sum
    over the same tables as the row engine, plus 1e-12 relative."""
    N, s = 509, 20
    gamma = [j**-2.0 for j in range(1, s + 1)]
    w = WeightScheme.product(gamma)
    tent = tent_transform(rank1_points(cbc_fast(N, s, CbcCriterion("tent", w)).rule()))
    g, beta, g_sum = kernels._lattice_tables("sobolev", 2, N)
    spec = KernelSpec("sobolev", 2, w)
    cases = [(wce_sq_quadratic_form(spec, tent).value,
              wce_sq_quadratic_form(spec, _row_copy(tent)).value,
              _longdouble_form(tent.numerators, N, g, beta, g_sum, gamma))]
    rule = cbc_fast(N, s, CbcCriterion("sym", w, 2)).rule()
    g, beta, _ = kernels._lattice_tables("sob_odd_alpha", 2, N)
    nums = rank1_points(rule).numerators
    folded, tables = np.minimum(nums, N - nums), (0.5 * g, {2: beta[2]}, 0.5 * g)
    cases.append((wce_sym_exact(2, w, rule).value,
                  worst_case_error._row_pairs(w, folded, *tables) / (N * N),
                  _longdouble_form(folded, N, *tables, gamma)))
    for shifted, row, oracle in cases:
        assert abs(shifted - oracle) <= 2 * abs(row - oracle) + 1e-12 * oracle


def _misfires():
    """Point sets and rules that must keep the row engine."""
    tent = tent_transform(rank1_points(LatticeRule(13, (1, 5, 3))))
    changed = tent.numerators.copy()
    changed[4, 1] = 12 - changed[4, 1]
    return [
        ("one row changed", lambda w: wce_sq_quadratic_form(
            KernelSpec("sobolev", 2, w), PointSet(3, "tent", changed, 13))),
        ("plain points", lambda w: wce_sq_quadratic_form(
            KernelSpec("sobolev", 2, w), rank1_points(LatticeRule(13, (1, 5, 3))))),
        ("composite N", lambda w: wce_sq_quadratic_form(
            KernelSpec("sobolev", 2, w), tent_transform(rank1_points(_rule(15, (1, 4, 7)))))),
        ("N = 2", lambda w: wce_sq_quadratic_form(
            KernelSpec("sobolev", 2, w), tent_transform(rank1_points(_rule(2, (1, 1, 1)))))),
        ("sym, composite N", lambda w: wce_sym_exact(2, w, _rule(15, (1, 4, 7)))),
        ("sym, N = 2", lambda w: wce_sym_exact(2, w, _rule(2, (1, 1, 1)))),
        ("symmetrized multiset", lambda w: wce_sq_quadratic_form(
            KernelSpec("sob_odd_alpha", 2, w), symmetrize(rank1_points(LatticeRule(13, (1, 5, 3)))))),
    ]


@pytest.mark.parametrize("w", _three_weights(), ids=("product", "pod", "general"))
def test_the_shift_layout_never_takes_other_point_sets(w, monkeypatch):
    """Composite N, N = 2, plain or symmetrized sets and a tent set with one
    row changed never reach the shift layout, so their values are the row
    engine's, bit for bit."""
    before = {name: call(w).value.hex() for name, call in _misfires()}
    monkeypatch.setattr(worst_case_error, "_shift_pairs",
                        lambda *args: pytest.fail("the shift layout took a non-lattice input"))
    assert {name: call(w).value.hex() for name, call in _misfires()} == before


def _subset_oracle(alpha, gamma, rule):
    """The cosine error of the tent points of a rule of odd N, from kappa(r / N) =
    2 Re Li_(2 alpha)(e^(2 pi i r / N)) at 30 digits.  cos(pi k tent(t)) = cos(2 pi k t),
    so K_cos - 1 = 1/2 [kappa(t - t') + kappa(t + t')] on the lattice, and (n - n',
    n + n') runs over Z_N^2 once: e^2 = sum_u gamma_u 2^-|u| sum_(v in u) S_v S_(u-v),
    S_v = (1/N) sum_n prod_(j in v) kappa(n z_j / N), S_() = 1."""
    mpmath = pytest.importorskip("mpmath")
    N, s = rule.N, rule.s
    with mpmath.workdps(30):
        kappa = [2 * mpmath.re(mpmath.polylog(2 * alpha, mpmath.expjpi(mpmath.mpf(2 * r) / N)))
                 for r in range(N)]
        subsets = [frozenset(j for j in range(s) if mask >> j & 1) for mask in range(1 << s)]
        S = {v: mpmath.fsum(mpmath.fprod(kappa[n * rule.z[j] % N] for j in v)
                            for n in range(N)) / N for v in subsets}
        total = mpmath.fsum(mpmath.fprod(gamma[j] for j in u) / 2 ** len(u)
                            * mpmath.fsum(S[v] * S[u - v] for v in subsets if v <= u)
                            for u in subsets if u)
        return float(total)


@pytest.mark.parametrize("N,alpha,rel", [(101, 1, 1e-12), (101, 2, 1e-11), (509, 2, 1e-9)])
def test_cosine_error_on_tent_points_matches_subset_oracle(N, alpha, rel):
    """The closed-form cosine kernel through the quadratic form engine, to a relative
    tolerance that grows as the value shrinks beside the O(1) terms of the double sum
    that cancel to it: 5e-14 off at N = 101, alpha = 1 (value 7.6e-3), 2.7e-11 off at
    N = 509, alpha = 2 (value 2.0e-6)."""
    gamma = [1.0 / j**2 for j in range(1, 5)]
    w = WeightScheme.product(gamma)
    rule = cbc_fast(N, 4, CbcCriterion("tent", w)).rule()
    got = wce_sq_quadratic_form(KernelSpec("cosine", alpha, w), tent_transform(rank1_points(rule)))
    assert got.value == pytest.approx(_subset_oracle(alpha, gamma, rule), rel=rel, abs=0)


@pytest.mark.parametrize("family", ["cosine", "kor_plus_cos"])
def test_cosine_families_quadratic_form_matches_brute_force(family):
    """On plain lattice points the engine equals -1 plus the mean of kernel() over
    all pairs."""
    rng = np.random.default_rng(17)
    for alpha, N in ((1, 31), (2, 31), (3, 16)):
        w = WeightScheme.product([1.0, 0.6, 0.3])
        ps = rank1_points(random_rule(rng, N, 3))
        x = ps.points
        want = float(np.mean(kernel(KernelSpec(family, alpha, w), x[:, None, :],
                                    x[None, :, :]))) - 1.0
        got = wce_sq_quadratic_form(KernelSpec(family, alpha, w), ps).value
        assert got == pytest.approx(want, rel=1e-11, abs=ROUNDING_FLOOR)


def test_corollary_bound_values_and_domains():
    w = WeightScheme.product([1.0])
    b = corollary_bound("tent", w, 5, 1.0)
    assert b.value == pytest.approx(math.sqrt(C_PRIME) / 24.0, rel=1e-13)
    assert b.lam == 1.0 and b.kind == "corollary_bound"
    bs = corollary_bound("sym", w, 5, 1.0, alpha=2)
    factor = math.sqrt(3.0) * (math.pi**2 / 6.0) / (2.0**1.5 * math.pi**2)
    assert bs.value == pytest.approx(factor / 4.0, rel=1e-13)
    with pytest.raises(DomainError):
        corollary_bound("tent", w, 6, 1.0)  # composite N
    with pytest.raises(DomainError, match=r"^lambda must lie in \(1/2, 1\], got 0.5$"):
        corollary_bound("tent", w, 5, 0.5)
    with pytest.raises(DomainError, match=r"^lambda must lie in \(1/2, 1\], got 0.4$"):
        corollary_bound("sym", w, 5, 0.4, alpha=2)
    with pytest.raises(DomainError, match=r"^lambda must lie in \(1/4, 1\], got 0.25$"):
        corollary_bound("sym", w, 5, 0.25, alpha=4)
    with pytest.raises(DomainError):
        corollary_bound("sym", w, 5, 1.0, alpha=3)


@pytest.mark.parametrize("kind,alpha,order", [("tent", None, 1), ("sym", 2, 1), ("sym", 4, 2)])
def test_corollary_bound_is_one_formula_on_the_criterion_weights(kind, alpha, order):
    """corollary_bound = ((1/(N-1)) sum_u w_u^lambda (2 zeta(2 o lambda))^|u|)^(1/lambda)
    with w the criterion's effective weights, summed subset by subset on
    general weights, with zeta from mpmath, over a lambda grid in (1/(2 o), 1]."""
    mpmath = pytest.importorskip("mpmath")
    w = WeightScheme.general(3, {frozenset({1}): 0.7, frozenset({2}): 0.4,
                                 frozenset({1, 3}): 0.3, frozenset({2, 3}): 0.05,
                                 frozenset({1, 2, 3}): 0.2})
    eff = CbcCriterion(kind, w, alpha).effective_weights()
    N = 1009
    for lam in np.linspace(1.0 / (2 * order), 1.0, 9)[1:].tolist():
        two_zeta = 2.0 * float(mpmath.zeta(2 * order * lam))
        want = (sum(g**lam * two_zeta ** len(u) for u, g in eff.nonempty_subsets())
                / (N - 1)) ** (1.0 / lam)
        got = corollary_bound(kind, w, N, lam, alpha=alpha).value
        assert got == pytest.approx(want, rel=1e-13)


def test_monotonicity_in_weights():
    rng = np.random.default_rng(88)
    rule = random_rule(rng, 17, 3)
    base = {frozenset({1}): 0.4, frozenset({2, 3}): 0.2, frozenset({1, 2, 3}): 0.1}
    w_lo = WeightScheme.general(3, base)
    bumped = dict(base)
    bumped[frozenset({2, 3})] = 0.5
    w_hi = WeightScheme.general(3, bumped)
    assert wce_sq_korobov_lattice(2, w_lo, rule).value <= wce_sq_korobov_lattice(2, w_hi, rule).value
    assert wce_tent_bound(w_lo, rule).value <= wce_tent_bound(w_hi, rule).value
    assert corollary_bound("tent", w_lo, 17, 0.8).value <= corollary_bound("tent", w_hi, 17, 0.8).value


def test_scale_equivariance_closed_form_path():
    """Scaling every general-form weight by a power of two scales the value
    bit-exactly; arbitrary positive factors scale it to rounding."""
    rng = np.random.default_rng(99)
    rule = random_rule(rng, 13, 2)
    subsets = {frozenset({1}): 0.3, frozenset({2}): 0.7, frozenset({1, 2}): 0.25}
    w = WeightScheme.general(2, subsets)
    base = wce_sq_korobov_lattice(1, w, rule).value
    w4 = WeightScheme.general(2, {u: 4.0 * g for u, g in subsets.items()})
    assert wce_sq_korobov_lattice(1, w4, rule).value == 4.0 * base
    c = 1.7
    wc = WeightScheme.general(2, {u: c * g for u, g in subsets.items()})
    assert wce_sq_korobov_lattice(1, wc, rule).value == pytest.approx(c * base, rel=1e-14)


def test_error_report_validation_and_json():
    with pytest.raises(DomainError):
        ErrorReport(value=-1.0, kind="theorem_bound")
    with pytest.raises(DomainError):
        ErrorReport(value=1.0, kind="dual_series_truncated")
    rep = ErrorReport(value=0.25, kind="corollary_bound", lam=0.75)
    data = rep.to_dict()
    assert data["lambda"] == 0.75 and rep.root == 0.5
    rule = LatticeRule(N=3, z=(1,))
    rep = CbcCriterion("tent", WeightScheme.product([1.0])).middle_term(rule)
    assert rep.to_dict() == {"value": rep.value, "kind": "middle_term", "lambda": None,
                             "negative_clamp": 0.0}


def test_overflowing_weights_raise_guard_error():
    """Finite weights whose errors overflow double precision are refused,
    not reported as NaN or inf."""
    w = WeightScheme.product([1e300, 1e300])
    rule = LatticeRule(N=13, z=(1, 5))
    with pytest.raises(GuardError, match="overflow"):
        ErrorReport(value=math.nan, kind="closed_form_lattice")
    with pytest.raises(GuardError, match="overflow"):
        ErrorReport(value=math.inf, kind="middle_term")
    routines = [
        lambda: wce_sq_korobov_lattice(1, w, rule),
        lambda: wce_sym_exact(2, w, rule),
        lambda: wce_sq_quadratic_form(KernelSpec(family="sobolev", alpha=2, weights=w),
                                      tent_transform(rank1_points(rule))),
        lambda: CbcCriterion("tent", w).middle_term(rule),
        lambda: CbcCriterion("sym", w, 2).middle_term(rule),
        lambda: wce_tent_bound(w, rule),
        lambda: wce_sym_bound(2, w, rule),
        lambda: corollary_bound("tent", WeightScheme.product([1e300] * 3), 13, 0.51),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for routine in routines:
            with pytest.raises(GuardError, match="overflow"):
                routine()


def test_overflow_in_either_pair_layout_raises_guard_error():
    """Weights that overflow reach ErrorReport as a non-finite total, not a
    RuntimeWarning, in both pair layouts: the row layout at N = 510, s = 20,
    whose folded rows fill at least 2 blocks, and the shift layout at N = 509."""
    w = WeightScheme.product([1e300] * 20)
    composite = random_rule(np.random.default_rng(510), 510, 20)
    prime = cbc_fast(509, 20, CbcCriterion("tent", WeightScheme.product([1.0] * 20))).rule()
    nums = rank1_points(composite).numerators
    rows = np.unique(np.minimum(nums, 510 - nums), axis=0)
    assert len(rows) > kernels._block_rows(rows.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for rule in (composite, prime):
            with pytest.raises(GuardError, match="overflow"):
                wce_sym_exact(2, w, rule)
            with pytest.raises(GuardError, match="overflow"):
                wce_sq_quadratic_form(KernelSpec("sobolev", 2, w),
                                      tent_transform(rank1_points(rule)))


def test_no_exact_error_starts_a_thread(monkeypatch):
    """Both pair layouts run on the calling thread: no thread starts, and
    every kernel block is made on the caller's thread.  The shift layout
    (odd prime N) and the row layout (composite N) keep the bits they had
    when their blocks could run on a pool of threads.  Every eta of the
    shift layout comes from `_eta`: it is called for the own row, the cross
    row and each block of deltas 0..h//2, h = (N - 1)/2, and no more."""
    caller, eta, calls = threading.current_thread(), worst_case_error._eta, []

    def on_the_caller(*args):
        assert threading.current_thread() is caller, "a kernel block left the calling thread"
        calls.append(1)
        return eta(*args)

    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("an exact error started a thread"))
    monkeypatch.setattr(worst_case_error, "_eta", on_the_caller)
    want = pinned.load()
    assert pinned.exact_error_bits((509, 1021), (2,)) == want["shift_layout"]
    blocks = [-(-((N - 1) // 4 + 1) // kernels._block_rows(20 * (N - 1) // 2))
              for N in (509, 1021)]
    # per N, 4 shift-layout calls: sob2-tent and sym2, each with product and POD weights
    assert len(calls) == sum(4 * (2 + b) for b in blocks)
    assert pinned.exact_error_bits((510, 1024), (2, 4)) == want["row_layout"]


def test_shift_layout_keeps_its_bits_for_every_table_shape():
    assert pinned.table_shape_bits() == pinned.load()["table_shape"]


@pytest.mark.parametrize("budget", pinned.BUDGETS)
def test_closed_form_and_cbc_keep_their_bits(budget):
    """The criteria and the closed form keep the bits they had when every
    residue row was copied into a buffer of its caller: at the default
    budget the closed form is one block; at 1000 entries it takes blocks of
    166 rows, most with lo >= 1 and some wrapping around the Rader table,
    and the composite plain scorer gathers 1 candidate per block."""
    want = pinned.load()["closed_form"]
    assert pinned.closed_form_bits(budget) == {k: v for k, v in want.items()
                                               if k.endswith(f"/b{budget}")}


def test_quadratic_form_guard(monkeypatch):
    w = WeightScheme.product([1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        big = LatticeRule(N=30_000, z=(7,))
    with pytest.raises(GuardError):
        wce_sq_quadratic_form(KernelSpec(family="korobov", alpha=1, weights=w),
                              rank1_points(big))
    # the symmetrized error refuses before it builds the N x s points
    monkeypatch.setattr(worst_case_error, "rank1_points",
                        lambda rule: pytest.fail("points built before the guard"))
    with pytest.raises(GuardError):
        wce_sym_exact(2, w, big)
    # three points over a denominator of 10^9 would need tables of 10^9 entries
    monkeypatch.setattr(worst_case_error, "_lattice_tables",
                        lambda *args: pytest.fail("tables built before the guard"))
    huge = PointSet(s=1, kind="plain", numerators=np.array([[0], [1], [2]]),
                    denominator=10**9)
    with pytest.raises(GuardError):
        wce_sq_quadratic_form(KernelSpec(family="sobolev", alpha=2, weights=w), huge)


@pytest.mark.parametrize("call,error,fragment", [
    pytest.param(lambda: CbcCriterion("tent", WeightScheme.product([1.0, 0.5])).leading_weights(3),
                 DomainError, "weights cover 2 coordinates, need 3", id="leading_weights/short"),
    pytest.param(lambda: CbcCriterion("tent", WeightScheme.product([0.5] * 13)).middle_term(
                     LatticeRule(29, (1,) * 13)),
                 GuardError, "subset enumeration limited to s <= 12", id="middle_term/guard"),
    pytest.param(lambda: CbcCriterion("sym", WeightScheme.product([1.0]), 310), GuardError,
                 "sym alpha = 310: the weight factor 0.0 is not a positive finite double",
                 id="sym_factor/alpha310"),
    pytest.param(lambda: CbcCriterion("sym", WeightScheme.product([1.0]), 312), GuardError,
                 "sym alpha = 312: the weight factor 0.0 is not a positive finite double",
                 id="sym_factor/alpha312"),
])
def test_refusals(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
