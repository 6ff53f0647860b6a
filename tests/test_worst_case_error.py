"""Error formulas, their oracle agreement, and the bound chains."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from latticeqmc import kernels, worst_case_error
from latticeqmc.cbc import cbc_fast, cbc_plain
from latticeqmc.errors import DomainError, GuardError
from latticeqmc.kernels import KernelSpec, kernel_1d
from latticeqmc.lattice import (LatticeRule, PointSet, dual_projected, rank1_points, symmetrize,
                                tent_transform)
from latticeqmc.special_functions import bernoulli_coefficients
from latticeqmc.weights import WeightScheme
from latticeqmc.worst_case_error import (
    C_PRIME,
    CbcCriterion,
    ErrorReport,
    corollary_bound,
    korobov_residue_table,
    sym_modified_weights,
    tent_modified_weights,
    wce_sq_korobov_lattice,
    wce_sq_quadratic_form,
    wce_sym_bound,
    wce_sym_exact,
    wce_sym_middle_term,
    wce_tent_bound,
    wce_tent_middle_term,
)


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
    mid = wce_tent_middle_term(w0, rule, kmax=100)
    assert mid.value == 0.0 and mid.tail_estimate == 0.0
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


def test_quadratic_form_refuses_series_kernels_and_large_sets():
    w = WeightScheme.product([1.0])
    with pytest.raises(DomainError):
        wce_sq_quadratic_form(KernelSpec(family="cosine", alpha=1.0, weights=w),
                              rank1_points(LatticeRule(N=4, z=(1,))))
    with pytest.raises(DomainError):
        wce_sq_quadratic_form(KernelSpec(family="korobov", alpha=1.5, weights=w),
                              rank1_points(LatticeRule(N=4, z=(1,))))


def test_modified_weight_values():
    w = WeightScheme.product([1.0])
    wp = tent_modified_weights(w)
    assert wp.gamma[0] == pytest.approx(58.0 / (12.0 * math.pi**4), rel=1e-15)
    w2 = WeightScheme.general(2, {frozenset({1, 2}): 1.0, frozenset({1}): 0.0})
    wp2 = tent_modified_weights(w2)
    assert wp2.weight_of([1, 2]) == pytest.approx((58.0 / (12.0 * math.pi**4)) ** 2, rel=1e-14)
    assert wp2.weight_of([1]) == 0.0
    ws = sym_modified_weights(2, w)
    assert ws.gamma[0] == pytest.approx(3.0 / (2**5 * math.pi**4), rel=1e-15)
    ws4 = sym_modified_weights(4, w)
    assert ws4.gamma[0] == pytest.approx(3.0 / (2**9 * math.pi**8), rel=1e-15)
    with pytest.raises(DomainError):
        sym_modified_weights(3, w)


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


def test_bounds_refuse_weights_of_another_dimension():
    """The bounds, and the exact errors through their one quadratic-form check."""
    rule = LatticeRule(N=5, z=(1, 2))
    for w in (WeightScheme.product([1.0]), WeightScheme.product([1.0, 1.0, 1.0])):
        with pytest.raises(DomainError):
            wce_tent_bound(w, rule)
        with pytest.raises(DomainError):
            wce_sym_bound(2, w, rule)
        with pytest.raises(DomainError):
            wce_sym_exact(2, w, rule)
        with pytest.raises(DomainError):
            wce_sq_quadratic_form(KernelSpec(family="sobolev", alpha=2, weights=w),
                                  rank1_points(rule))


def test_middle_terms_need_positive_kmax():
    rule = LatticeRule(N=5, z=(1, 2))
    w = WeightScheme.product([1.0, 1.0])
    with pytest.raises(DomainError):
        wce_tent_middle_term(w, rule, kmax=0)
    with pytest.raises(DomainError):
        wce_sym_middle_term(2, w, rule, kmax=0)


def test_middle_term_closed_form_case():
    """s=1, N=2: the inner dual sum is zeta(2)/2 and the term gamma' (zeta(2)/2)^2."""
    rule = LatticeRule(N=2, z=(1,))
    w = WeightScheme.product([1.0])
    mid = wce_tent_middle_term(w, rule, kmax=10_000)
    gamma_p = 58.0 / (12.0 * math.pi**4)
    exact_inner = math.pi**2 / 12.0
    assert mid.value + mid.tail_estimate == pytest.approx(gamma_p * exact_inner**2, rel=1e-12)
    assert mid.value == pytest.approx(gamma_p * exact_inner**2, rel=1e-3)
    assert mid.value <= gamma_p * exact_inner**2
    assert mid.kind == "dual_series_truncated" and mid.truncation_kmax == 10_000


@pytest.mark.parametrize("N,kmax,order", [(2, 40, 1), (13, 1000, 1), (13, 7, 2), (61, 150, 1),
                                           (61, 150, 2)])
def test_truncated_residue_table_matches_mpmath(N, kmax, order):
    """The aliased-DFT table of the middle terms against the cosine series
    summed term by term at 30 digits, for kmax below and above N."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        oracle = np.array([float(2 * mpmath.fsum(mpmath.cospi(mpmath.mpf(2 * k * r) / N)
                                                 / mpmath.mpf(k) ** (2 * order)
                                                 for k in range(1, kmax + 1)))
                           for r in range(N)])
    table = worst_case_error._truncated_residue_table(order, N, kmax)
    assert table.shape == (N,)
    assert np.max(np.abs(table - oracle)) <= 16 * np.finfo(float).eps * np.max(np.abs(oracle))


def test_middle_term_matches_brute_force_dual_enumeration():
    """Character-sum evaluation == explicit truncated dual scan (small kmax)."""
    rng = np.random.default_rng(33)
    for _ in range(5):
        s = int(rng.integers(1, 3))
        N = int(rng.integers(2, 12))
        rule = random_rule(rng, N, s)
        w = WeightScheme.product(rng.random(s))
        kmax = 24
        mid = wce_tent_middle_term(w, rule, kmax=kmax)
        gamma_p = tent_modified_weights(w)
        total = 0.0
        for mask in range(1, 1 << s):
            u = [j + 1 for j in range(s) if mask >> j & 1]
            inner = sum(
                np.prod([1.0 / kj**2 for kj in k]) for k in dual_projected(rule, u, kmax)
            )
            total += gamma_p.weight_of(u) * inner**2
        assert mid.value == pytest.approx(total, rel=1e-10, abs=1e-15)


def test_tent_error_bound_chain():
    rng = np.random.default_rng(55)
    for _ in range(15):
        s = int(rng.integers(1, 4))
        N = int(rng.integers(2, 65))
        rule = random_rule(rng, N, s)
        w = WeightScheme.product(rng.random(s))
        spec = KernelSpec(family="sobolev", alpha=2, weights=w)
        exact = wce_sq_quadratic_form(spec, tent_transform(rank1_points(rule))).value
        mid = wce_tent_middle_term(w, rule, kmax=2_000)
        bound = wce_tent_bound(w, rule).value
        middle = mid.value + mid.tail_estimate
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
            mid = wce_sym_middle_term(alpha, w, rule, kmax=2_000)
            bound = wce_sym_bound(alpha, w, rule).value
            middle = mid.value + mid.tail_estimate
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
        mid = wce_tent_middle_term(w, rule)
        bound = wce_tent_bound(w, rule).value
    else:
        exact = wce_sym_exact(alpha, w, rule).value
        mid = wce_sym_middle_term(alpha, w, rule)
        bound = wce_sym_bound(alpha, w, rule).value
    middle = mid.value + mid.tail_estimate
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
    for bad in (1.5, 0, -1, None):
        with pytest.raises(DomainError):
            CbcCriterion("plain_korobov", w, bad)
        with pytest.raises(DomainError):
            wce_sq_korobov_lattice(bad, w, rule)


def test_float_even_alpha_is_the_integer_alpha():
    rule = LatticeRule(N=13, z=(1, 5, 3))
    w = WeightScheme.product([1.0, 0.5, 0.25])
    assert sym_modified_weights(4.0, w).gamma == sym_modified_weights(4, w).gamma
    assert CbcCriterion("sym", w, 4.0).value(rule) == CbcCriterion("sym", w, 4).value(rule)
    assert wce_sym_exact(4.0, w, rule) == wce_sym_exact(4, w, rule)
    assert wce_sym_middle_term(4.0, w, rule, kmax=50) == wce_sym_middle_term(4, w, rule, kmax=50)
    assert corollary_bound("sym", w, 13, 0.5, alpha=4.0) == corollary_bound("sym", w, 13, 0.5,
                                                                             alpha=4)
    for bad in (2.5, 3, 3.0, 0):
        for call in (lambda: sym_modified_weights(bad, w),
                     lambda: CbcCriterion("sym", w, bad),
                     lambda: wce_sym_exact(bad, w, rule),
                     lambda: wce_sym_middle_term(bad, w, rule, kmax=50),
                     lambda: corollary_bound("sym", w, 13, 0.9, alpha=bad)):
            with pytest.raises(DomainError):
                call()


@pytest.mark.parametrize("budget", [1, 37])
def test_results_do_not_depend_on_the_block_budget(budget, monkeypatch):
    """Budget 1 puts one row in every block; at 37 most loops below end in a
    partial block (Korobov rows of 3 entries, k-rows of 5, the 5 distinct
    rows of the N = 9 quadratic forms, 15 entries each, in blocks of 2, 2 and
    1 row, and the middle term's k = 1..300 in blocks of 37); at the default
    budget each is a single block."""
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
        mid = wce_tent_middle_term(pod_w, small, kmax=300)
        return [*tent, wce_sym_exact(2, pod_w, small).value,
                wce_sym_exact(2, prod_w, folded).value,
                wce_sq_korobov_lattice(2, prod_w, rule).value,
                wce_sq_korobov_lattice(2, pod_w, rule).value,
                mid.value, mid.value + mid.tail_estimate,
                *kernel_1d("cosine", 1.5, x, y, kmax=300)]

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
    with pytest.raises(DomainError):
        corollary_bound("tent", w, 5, 0.5)
    with pytest.raises(DomainError):
        corollary_bound("sym", w, 5, 0.4, alpha=2)
    with pytest.raises(DomainError):
        corollary_bound("sym", w, 5, 1.0, alpha=3)


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
        ErrorReport(value=1.0, kind="theorem_bound", tail_estimate=0.1)
    rep = ErrorReport(value=0.25, kind="corollary_bound", lam=0.75)
    data = rep.to_dict()
    assert data["lambda"] == 0.75 and rep.root == 0.5
    rule = LatticeRule(N=3, z=(1,))
    rep = wce_tent_middle_term(WeightScheme.product([1.0]), rule, kmax=50)
    assert rep.to_dict()["tail_estimate"] is not None


def test_overflowing_weights_raise_guard_error():
    """Finite weights whose errors overflow double precision are refused,
    not reported as NaN or inf."""
    w = WeightScheme.product([1e300, 1e300])
    rule = LatticeRule(N=13, z=(1, 5))
    with pytest.raises(GuardError, match="overflow"):
        ErrorReport(value=math.nan, kind="closed_form_lattice")
    with pytest.raises(GuardError, match="overflow"):
        ErrorReport(value=1.0, kind="dual_series_truncated", tail_estimate=math.inf)
    routines = [
        lambda: wce_sq_korobov_lattice(1, w, rule),
        lambda: wce_sym_exact(2, w, rule),
        lambda: wce_sq_quadratic_form(KernelSpec(family="sobolev", alpha=2, weights=w),
                                      tent_transform(rank1_points(rule))),
        lambda: wce_tent_middle_term(w, rule, kmax=50),
        lambda: wce_sym_middle_term(2, w, rule, kmax=50),
        lambda: wce_tent_bound(w, rule),
        lambda: wce_sym_bound(2, w, rule),
        lambda: corollary_bound("tent", WeightScheme.product([1e300] * 3), 13, 0.51),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for routine in routines:
            with pytest.raises(GuardError, match="overflow"):
                routine()


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
