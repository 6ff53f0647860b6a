"""Small integer-arithmetic helpers: primality, primitive roots, Fibonacci numbers.

Primality uses the deterministic Miller-Rabin base set that is exact for all
64-bit integers, so `is_prime` is a proof, not a probabilistic test, in the
range this package operates in.
"""

from __future__ import annotations

from .errors import DomainError

# Witnesses proven sufficient for n < psi_12 = 318665857834031151167461, the least
# strong pseudoprime to all twelve, so for every 64-bit input.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64; larger n are refused."""
    if n < 2:
        return False
    if n >= 2**64:
        raise DomainError(f"is_prime is exact for n < 2**64, got {n}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 2 by trial division."""
    if n < 2:
        raise DomainError(f"prime_factors requires n >= 2, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primitive_root(n: int) -> int:
    """Smallest generator of the multiplicative group mod a prime n.

    Returns 1 for n = 2 (the group is trivial).  Verified by checking
    g^((n-1)/p) != 1 mod n for every prime factor p of n - 1.
    """
    if not is_prime(n):
        raise DomainError(f"primitive_root requires a prime, got {n}")
    if n == 2:
        return 1
    factors = prime_factors(n - 1)
    for g in range(2, n):
        if all(pow(g, (n - 1) // p, n) != 1 for p in factors):
            return g
    raise RuntimeError(f"no primitive root found for prime {n}")  # unreachable


def nearest_prime(n: int) -> int:
    """Prime closest to n; ties between n-d and n+d resolve upward."""
    if n < 3:
        return 2
    d = 0
    while True:
        if is_prime(n + d):
            return n + d
        if n - d >= 2 and is_prime(n - d):
            return n - d
        d += 1


def fibonacci(m: int) -> int:
    """F_m with F_1 = F_2 = 1."""
    if m < 1:
        raise DomainError(f"fibonacci index must be >= 1, got {m}")
    a, b = 1, 1
    for _ in range(m - 1):
        a, b = b, a + b
    return a
