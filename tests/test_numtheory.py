"""Primality over the whole 64-bit range, and the integer helpers' refusals."""

import re

import numpy as np
import pytest

from latticeqmc.errors import DomainError
from latticeqmc.numtheory import fibonacci, is_prime, nearest_prime, prime_factors

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
    pytest.param(lambda: prime_factors(1), "prime_factors requires n >= 2", id="prime_factors"),
    pytest.param(lambda: fibonacci(0), "fibonacci index must be >= 1", id="fibonacci"),
])
def test_refusals(call, fragment):
    with pytest.raises(DomainError, match=re.escape(fragment)):
        call()
