"""Primality over the whole 64-bit range, the integer helpers' refusals, the
one integer rule that every count, index and size of the package goes through,
and the one real-number rule that every real parameter and array of reals goes
through."""

import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from latticeqmc.cbc import cbc_fast, cbc_plain
from latticeqmc.errors import DomainError
from latticeqmc.experiments import (
    ExperimentConfig,
    exact_integral,
    experiment_config,
    integrand_eval,
    run_experiment,
)
from latticeqmc.fourier import (
    appendix_inner_sum,
    c_phi,
    c_sym,
    cosine_coeff_quadrature,
    sin_tent_coeff,
    tent_kernel_partial_sum,
)
from latticeqmc.kernels import kernel_1d
from latticeqmc.lattice import LatticeRule, PointSet, fibonacci_rule, tent
from latticeqmc.numtheory import fibonacci, is_prime, nearest_prime, prime_factors, primitive_root
from latticeqmc.quadrature import composite_gauss_legendre
from latticeqmc.special_functions import bernoulli_poly, riemann_zeta
from latticeqmc.weights import WeightScheme
from latticeqmc.worst_case_error import CbcCriterion, corollary_bound, korobov_residue_table
from oracles import character_sum, dual_projected, is_dual

# the least strong pseudoprime to all twelve bases 2..37: 399165290221 * 798330580441
PSI_12 = 318665857834031151167461


def test_is_prime_matches_a_sieve_to_one_million():
    n = 10**6
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    assert np.array_equal([is_prime(k) for k in range(n + 1)], sieve)


@pytest.mark.parametrize("n", [3215031751, 2152302898747, 3474749660383, 341550071728321,
                               3825123056546413051])
def test_strong_pseudoprimes_to_the_small_bases_are_composite(n):
    """Each passes Miller-Rabin to a prefix of the bases, so only a later base
    rejects it."""
    assert not is_prime(n)


def test_primes_at_the_top_of_the_64_bit_range():
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)  # the largest prime below 2^64
    assert not is_prime(2**64 - 1)


def test_nearest_prime_below_three_is_two():
    assert [nearest_prime(n) for n in (-5, 0, 1, 2, 3)] == [2, 2, 2, 2, 3]


@pytest.mark.parametrize("call,fragment", [
    pytest.param(lambda: is_prime(PSI_12), "exact for n < 2**64", id="is_prime/psi_12"),
    pytest.param(lambda: is_prime(2**64), "exact for n < 2**64", id="is_prime/2^64"),
    pytest.param(lambda: prime_factors(1), "n must be >= 2, got 1", id="prime_factors"),
    pytest.param(lambda: fibonacci(0), "fibonacci index must be >= 1", id="fibonacci"),
])
def test_refusals(call, fragment):
    with pytest.raises(DomainError, match=re.escape(fragment)):
        call()


_W3 = WeightScheme.product([1.0, 0.5, 0.25])
_TENT = CbcCriterion("tent", _W3)
_RULE = LatticeRule(5, (1, 2))

# Every integer parameter of the package and of the dual-lattice oracles, called with
# it: (call, the low bound it takes or None, whether the call returns the value as
# stored).  Each call accepts 3.
INTEGER_ENTRY_POINTS = {
    "is_prime": (is_prime, None, False),
    "nearest_prime": (nearest_prime, None, True),
    "prime_factors": (prime_factors, 2, False),
    "primitive_root": (primitive_root, None, False),
    "fibonacci": (fibonacci, 1, False),
    "corollary_bound/N": (lambda n: corollary_bound("tent", _W3, n, 0.9).value, None, False),
    "LatticeRule/N": (lambda n: LatticeRule(n, (1, 2)).N, None, True),
    "LatticeRule/z": (lambda n: LatticeRule(5, (1, n)).z[1], None, True),
    "PointSet/s": (lambda n: PointSet(s=n, kind="plain", numerators=np.zeros((1, 3), dtype=int),
                                      denominator=1).s, 1, True),
    "PointSet/denominator": (lambda n: PointSet(s=1, kind="plain", numerators=np.array([[1]]),
                                                denominator=n).denominator, 1, True),
    "fibonacci_rule": (fibonacci_rule, 3, False),
    "dual_projected/kmax": (lambda n: dual_projected(_RULE, [1, 2], n), 1, False),
    "dual_projected/u": (lambda n: dual_projected(LatticeRule(13, (1, 5, 3)), [1, n], 2), None,
                         False),
    "is_dual/k": (lambda n: is_dual((n, 2), _RULE), None, False),
    "character_sum/float_k": (lambda n: character_sum(_RULE, (n, 2), method="float"), None, False),
    "cbc/N": (lambda n: cbc_fast(n, 2, _TENT).z, 2, False),
    "cbc/s": (lambda n: cbc_plain(13, n, _TENT).z, 1, False),
    "tent_kernel_partial_sum/kmax": (lambda n: tent_kernel_partial_sum(0.2, 0.7, n), 1, False),
    "appendix_inner_sum/kmax": (lambda n: appendix_inner_sum(3, "first", n), 1, False),
    "appendix_inner_sum/l": (lambda n: appendix_inner_sum(n, "second", 10), 1, False),
    "sin_tent_coeff/k": (lambda n: sin_tent_coeff(n, 1), 1, False),
    "sin_tent_coeff/l": (lambda n: sin_tent_coeff(1, n), 1, False),
    "cosine_coeff_quadrature/k": (lambda n: cosine_coeff_quadrature(np.cos, n), 0, False),
    "WeightScheme/s": (lambda n: WeightScheme(s=n, form="general").s, 1, True),
    # tuples, not sets: {1, True} is {1}
    "weight_of": (lambda n: _W3.weight_of((2, n)), None, False),
    "general/subset": (lambda n: WeightScheme.general(3, {(2, n): 0.5}).weight_of((2, 3)), None,
                       False),
    "ExperimentConfig/N_list": (lambda n: ExperimentConfig("x", (n, 13), 2, "bivar").N_list[0],
                                None, True),
    "ExperimentConfig/dims": (lambda n: ExperimentConfig("x", (13,), n, "f1").dims, None, True),
    "bernoulli_poly/degree": (lambda n: bernoulli_poly(n, 0.3), None, False),
    "composite_gauss_legendre/panels": (lambda n: composite_gauss_legendre(np.cos, n), 1, False),
    "korobov_residue_table/N": (lambda n: korobov_residue_table(2, n).tolist(), 1, False),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ENTRY_POINTS))
def test_every_integer_entry_applies_the_one_integer_rule(name):
    call, low, stores = INTEGER_ENTRY_POINTS[name]
    for value in (2.5, 3.0, np.float64(3.0), True, None, "3", math.nan):
        with pytest.raises(DomainError, match=re.escape(f"must be an integer, got {value!r}")):
            call(value)
    if low is not None:
        with pytest.raises(DomainError, match=re.escape(f"must be >= {low}, got {low - 1}")):
            call(low - 1)
    assert call(np.int64(3)) == call(3) == call(np.int32(3))
    if stores:
        assert type(call(np.int64(3))) is int


# Every real parameter of the package, called with it: (call, a value it takes that
# float32 holds exactly, whether the call returns the value as stored).  Each entry
# keeps its own bounds and refusal text; the alphas have their own table in
# tests/test_kernels.py.
REAL_ENTRY_POINTS = {
    "product/gamma": (lambda g: WeightScheme.product([0.5, g]).gamma[1], 0.75, True),
    "pod/gamma": (lambda g: WeightScheme.pod([1.0, 0.5], [0.5, g]).gamma[1], 0.75, True),
    "pod/Gamma": (lambda g: WeightScheme.pod([1.0, g], [0.5, 0.5]).Gamma[1], 0.75, True),
    "general/subset": (lambda g: WeightScheme.general(2, {(1, 2): g}).weight_of((1, 2)), 0.75,
                       True),
    "WeightScheme/gamma": (lambda g: WeightScheme(s=1, gamma=(g,)).gamma[0], 0.75, True),
    "WeightScheme/subsets": (lambda g: WeightScheme(s=1, form="general",
                                                    subsets={frozenset({1}): g}).weight_of((1,)),
                             0.75, True),
    # the report as JSON, which holds its value and lambda and fails on a numpy float32
    "corollary_bound/lambda": (lambda lam: json.dumps(corollary_bound("tent", _W3, 13, lam)
                                                      .to_dict()), 0.75, False),
    "exact_integral/omega": (lambda w: exact_integral("f2", omega=[0.5, w], c2=1.0), 0.75, False),
    "exact_integral/c2": (lambda c: exact_integral("f2", omega=[0.5, 0.75], c2=c), 2.0, False),
    "riemann_zeta/sigma": (riemann_zeta, 2.0, False),
    "tent_kernel_partial_sum/x": (lambda x: tent_kernel_partial_sum(x, 0.2, 10), 0.75, False),
    "tent_kernel_partial_sum/y": (lambda y: tent_kernel_partial_sum(0.2, y, 10), 0.75, False),
    "CbcCriterion/tent_alpha": (lambda a: CbcCriterion("tent", _W3, a).alpha, 2.0, True),
}
NONE_IS_THE_DEFAULT = {"CbcCriterion/tent_alpha"}  # alpha None: not given, and kept so


@pytest.mark.parametrize("name", sorted(REAL_ENTRY_POINTS))
def test_every_real_entry_applies_the_one_real_number_rule(name):
    call, value, stores = REAL_ENTRY_POINTS[name]
    for bad in (True, np.True_, None, "0.5", math.nan, math.inf, -math.inf, 10**400):
        if bad is None and name in NONE_IS_THE_DEFAULT:
            assert call(None) is None
            continue
        with pytest.raises(DomainError):
            call(bad)
    got = [call(kind(value)) for kind in (float, np.float64, np.float32, Fraction)]
    assert got == [got[0]] * 4
    if stores:
        assert [type(g) for g in got] == [float] * 4


_F1_S20_AT_67 = replace(experiment_config("f1_s20"), N_list=(67,))


def _cells(v):
    """67 x 20 external points, every cell v: an array broadcast (a read-only view of it,
    dtype kept), anything else as nested lists of v, or of a list v's entries."""
    if isinstance(v, np.ndarray):
        return np.broadcast_to(v, (67, 20))
    return [(v if isinstance(v, list) else [v]) * 20] * 67


# Every entry that takes an array of reals, called with it: (call, a value it takes that
# float32 holds exactly).  Each keeps its own bounds and refusal text.
REAL_ARRAY_ENTRY_POINTS = {
    "tent": (tent, 0.75),
    "kernel_1d/x": (lambda x: kernel_1d("korobov", 2, x, 0.2), 0.75),
    "kernel_1d/y": (lambda y: kernel_1d("sobolev", 2, 0.2, y), 0.75),
    "integrand_eval/x": (lambda x: integrand_eval("f1", x, omega=[0.5]), 0.75),
    "run_experiment/external_points": (
        lambda v: run_experiment(_F1_S20_AT_67, _cells(v)).rows[0].err_external, 0.75),
    "c_phi/k": (lambda k: c_phi(k, 3), 3.0),
    "c_sym/l": (lambda l: c_sym(3, l, 2), 3.0),
    "composite_gauss_legendre/breakpoints": (
        lambda t: composite_gauss_legendre(lambda x: np.abs(x - 0.75), 4, t), 0.75),
    "exact_integral/omega": (lambda w: exact_integral("f2", omega=w, c2=1.0), 0.75),
}


@pytest.mark.parametrize("name", sorted(REAL_ARRAY_ENTRY_POINTS))
def test_every_real_array_entry_applies_the_one_real_number_rule(name):
    """A bool or a string is refused however it comes (alone, in a list, as a dtype), and so
    are None, NaN, ±inf, a complex and a list of arrays of unequal shapes; a list, an array of
    any real or integer dtype and a list of Fractions give one result, and the caller's array
    is never written."""
    call, value = REAL_ARRAY_ENTRY_POINTS[name]
    for bad in ("0.5", ["0.5"], True, np.True_, [0.5, True], np.array([True]), np.array(["0.5"]),
                None, math.nan, math.inf, -math.inf, 0.5 + 0j, [np.zeros((2, 2)), np.zeros((2, 3))]):
        with pytest.raises(DomainError):
            call(bad)
    forms = [value, [value], np.array([value]), np.array([value], dtype=np.float32),
             [Fraction(value)]] + ([np.array([int(value)])] if value % 1 == 0 else [])
    kept = [np.copy(f) for f in forms]
    got = [np.ravel(call(f)).tolist() for f in forms]
    assert got == [got[0]] * len(forms)
    for form, copy in zip(forms, kept):
        assert np.array_equal(form, copy) and np.asarray(form).dtype == copy.dtype
