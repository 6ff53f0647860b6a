"""CBC construction: plain vs fast equivalence, criteria, primitive roots."""

import math
import warnings

import numpy as np
import pytest

from latticeqmc.cbc import CbcCriterion, cbc_fast, cbc_plain
from latticeqmc.errors import DomainError, GuardError
from latticeqmc.lattice import LatticeRule, rank1_points
from latticeqmc.numtheory import is_prime, nearest_prime, primitive_root
from latticeqmc.special_functions import bernoulli_scaled
from latticeqmc.weights import WeightScheme
from latticeqmc.worst_case_error import C_PRIME, corollary_bound, wce_sq_korobov_lattice

PRIMES_TO_101 = [p for p in range(2, 102) if is_prime(p)]


def test_primitive_roots():
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(13) == 2
    assert primitive_root(2) == 1
    with pytest.raises(DomainError):
        primitive_root(8)
    for p in PRIMES_TO_101[1:]:
        g = primitive_root(p)
        assert sorted(pow(g, i, p) for i in range(p - 1)) == list(range(1, p))


def test_is_prime_and_nearest():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)
    assert nearest_prime(64) == 67  # distance ties resolve upward
    assert nearest_prime(128) == 127
    assert nearest_prime(8192) == 8191


def test_criterion_validation():
    w = WeightScheme.product([1.0, 1.0])
    with pytest.raises(DomainError):
        CbcCriterion(kind="sym", base_weights=w, alpha=3)
    with pytest.raises(DomainError):
        CbcCriterion(kind="sym", base_weights=w)
    with pytest.raises(DomainError):
        CbcCriterion(kind="nope", base_weights=w)
    with pytest.raises(DomainError):
        cbc_fast(9, 2, CbcCriterion(kind="tent", base_weights=w))  # composite N
    with pytest.raises(DomainError):
        cbc_plain(5, 2, CbcCriterion(kind="tent",
                                     base_weights=WeightScheme.general(2, {frozenset({1}): 1.0})))


def test_tent_criterion_matches_product_form_display():
    """Criterion value == -1 + mean prod_j (1 + 2 sqrt(c') sqrt(g_j) b_2(x_j))."""
    rng = np.random.default_rng(1)
    gam = rng.random(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rule = LatticeRule(N=16, z=(1, 5, 9))
    crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product(gam))
    x = rank1_points(rule).points
    factors = 1.0 + 2.0 * math.sqrt(C_PRIME) * np.sqrt(gam)[None, :] * bernoulli_scaled(2, x)
    direct = float(np.mean(np.prod(factors, axis=1))) - 1.0
    assert crit.value(rule) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("alpha", [2, 4])
def test_sym_criterion_matches_product_form_display(alpha):
    rng = np.random.default_rng(2)
    gam = rng.random(2)
    rule = LatticeRule(N=11, z=(1, 4))
    crit = CbcCriterion(kind="sym", base_weights=WeightScheme.product(gam), alpha=alpha)
    x = rank1_points(rule).points
    coef = math.sqrt(3.0) * (-1.0) ** (1 + alpha // 2) / math.sqrt(2.0)
    factors = 1.0 + coef * np.sqrt(gam)[None, :] * bernoulli_scaled(alpha, x)
    direct = float(np.mean(np.prod(factors, axis=1))) - 1.0
    assert crit.value(rule) == pytest.approx(direct, rel=1e-13)


def test_spec_examples():
    res = cbc_plain(5, 2, CbcCriterion(kind="tent", base_weights=WeightScheme.product([1.0, 1.0])))
    assert res.z == (1, 2)  # z=3 mirrors z=2; smallest wins the tie
    res1 = cbc_plain(7, 1, CbcCriterion(kind="plain_korobov",
                                        base_weights=WeightScheme.product([0.5]), alpha=2))
    assert res1.z == (1,)
    res2 = cbc_fast(2, 3, CbcCriterion(kind="tent", base_weights=WeightScheme.product([1.0] * 3)))
    assert res2.z == (1, 1, 1)


def test_per_dimension_errors_recheck():
    gam = tuple(1.0 / j**2 for j in range(1, 4))
    crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product(gam))
    res = cbc_plain(13, 3, crit)
    for d in range(1, 4):
        sub = CbcCriterion(kind="tent", base_weights=WeightScheme.product(gam[:d]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = sub.value(LatticeRule(N=13, z=res.z[:d]))
        assert abs(v - res.per_dimension_error[d - 1]) <= 1e-13 * (1.0 + abs(v))


@pytest.mark.parametrize("kind,alpha", [("tent", None), ("sym", 2)])
def test_plain_fast_equivalence(kind, alpha):
    rng = np.random.default_rng(7)
    for p in PRIMES_TO_101:
        s = int(rng.integers(1, 6))
        gam = tuple(float(g) for g in rng.random(s))
        crit = CbcCriterion(kind=kind, base_weights=WeightScheme.product(gam), alpha=alpha)
        a = cbc_plain(p, s, crit)
        b = cbc_fast(p, s, crit)
        assert a.z == b.z
        for va, vb in zip(a.per_dimension_error, b.per_dimension_error):
            assert abs(va - vb) <= 1e-12 * (1.0 + abs(va))


def test_plain_fast_equivalence_pod_weights():
    rng = np.random.default_rng(8)
    for p in (11, 31, 53):
        s = 4
        w = WeightScheme.pod(rng.random(s), rng.random(s))
        crit = CbcCriterion(kind="sym", base_weights=w, alpha=2)
        a = cbc_plain(p, s, crit)
        b = cbc_fast(p, s, crit)
        assert a.z == b.z
        for va, vb in zip(a.per_dimension_error, b.per_dimension_error):
            assert abs(va - vb) <= 1e-12 * (1.0 + abs(va))
        # the cached criterion is the real criterion of the constructed rule
        v = crit.value(LatticeRule(N=p, z=a.z))
        assert abs(v - a.per_dimension_error[-1]) <= 1e-12 * (1.0 + abs(v))


@pytest.mark.parametrize("kind,alpha", [("tent", None), ("sym", 2), ("plain_korobov", 2)])
def test_plain_fast_equivalence_n4099(kind, alpha):
    """N = 4099 splits the plain scorer into five candidate blocks, the last
    one partial, so the reused buffers are sliced in every way they can be."""
    s = 8
    gam = [1.0 / j**2 for j in range(1, s + 1)]
    crit = CbcCriterion(kind=kind, base_weights=WeightScheme.product(gam), alpha=alpha)
    a = cbc_plain(4099, s, crit)
    b = cbc_fast(4099, s, crit)
    assert a.z == b.z
    for va, vb in zip(a.per_dimension_error, b.per_dimension_error):
        assert abs(va - vb) <= 1e-12 * (1.0 + abs(va))


def test_overflowing_weights_fail_loudly():
    """Finite weights whose scores overflow must not yield a default vector."""
    crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product([1.0] + [1e308] * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for run in (cbc_fast, cbc_plain):
            with pytest.raises(GuardError):
                run(13, 4, crit)


def test_pod_criterion_against_general_weights_oracle():
    """POD-weight criterion equals the same error computed with the POD scheme
    expanded to explicit subsets."""
    rng = np.random.default_rng(9)
    s = 3
    Gamma, gam = rng.random(s), rng.random(s)
    pod = WeightScheme.pod(Gamma, gam)
    crit = CbcCriterion(kind="plain_korobov", base_weights=pod, alpha=1)
    res = cbc_plain(11, s, crit)
    rule = LatticeRule(N=11, z=res.z)
    expanded = WeightScheme.general(s, {u: pod.weight_of(u)
                                        for u, _ in pod.nonempty_subsets()})
    direct = wce_sq_korobov_lattice(1, expanded, rule).value
    assert res.per_dimension_error[-1] == pytest.approx(direct, rel=1e-12)


def test_determinism():
    crit = CbcCriterion(kind="tent",
                        base_weights=WeightScheme.product([1.0 / j**2 for j in range(1, 6)]))
    a = cbc_fast(101, 5, crit)
    b = cbc_fast(101, 5, crit)
    assert a.z == b.z and a.per_dimension_error == b.per_dimension_error


def test_corollary_guarantee_for_constructed_vectors():
    gam = tuple(1.0 / j**2 for j in range(1, 6))
    w = WeightScheme.product(gam)
    for N in (101, 251):
        res = cbc_fast(N, 5, CbcCriterion(kind="tent", base_weights=w))
        crit_val = res.per_dimension_error[-1]
        for lam in np.linspace(0.55, 1.0, 10):
            assert crit_val <= corollary_bound("tent", w, N, float(lam)).value
        res = cbc_fast(N, 5, CbcCriterion(kind="sym", base_weights=w, alpha=2))
        crit_val = res.per_dimension_error[-1]
        for lam in np.linspace(0.55, 1.0, 10):
            assert crit_val <= corollary_bound("sym", w, N, float(lam), alpha=2).value


def test_result_serialization():
    res = cbc_fast(5, 2, CbcCriterion(kind="tent", base_weights=WeightScheme.product([1.0, 1.0])))
    data = res.to_dict()
    assert data["z"] == [1, 2] and data["n"] == 5 and data["prime"] is True
    assert len(data["criterion_per_dim"]) == 2
    assert res.rule() == LatticeRule(N=5, z=(1, 2))
