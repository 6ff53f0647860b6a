"""Small number helpers: the one integer and real-number rules (`_integer`, `_real`
and its array form `_reals`), primality, primitive roots, Fibonacci numbers, and the
order fast CBC and the closed form walk Z_N.

Primality uses the deterministic Miller-Rabin base set that is exact for all
64-bit integers, so `is_prime` is a proof, not a probabilistic test, in the
range this package operates in.  `_HalfOrder` is the one home of that order:
the half points of Z_N, at prime N in the Rader order of a primitive root
(Nuyens & Cools 2006), with the residue table laid out along it.
"""

from __future__ import annotations

import numbers
import operator
import sys
from math import inf, nan

import numpy as np

from .errors import DomainError

# Witnesses proven sufficient for n < psi_12 = 318665857834031151167461, the least
# strong pseudoprime to all twelve, so for every 64-bit input.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX = sys.float_info.max  # the real-number rules' default bounds, so NaN and ±inf fail them


def _integer(value, what: str, low: int | None = None) -> int:
    """The one integer rule of every count, index and size: value as a Python int,
    from any integer type (`operator.index`) but bool, and >= low if low is given."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    n = operator.index(value)
    if low is not None and n < low:
        raise DomainError(f"{what} must be >= {low}, got {n}")
    return n


def _real(value, refusal: str, low: float = -_MAX, high: float = _MAX) -> float:
    """The one real-number rule: value as a Python float, from any `numbers.Real` but bool,
    in [low, high] (a float skips the isinstance tests); else DomainError(refusal)."""
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        value = float(value) if real else nan
    except OverflowError:  # an integer or a fraction beyond the double range
        value = inf
    if low <= value <= high:
        return value
    raise DomainError(refusal)


def _reals(values, refusal: str, low: float = -_MAX, high: float = _MAX) -> np.ndarray:
    """The real-number rule on arrays: values as a float64 array of their shape, each entry in
    [low, high], and values never written; an ndarray read by its dtype (integer or real kinds),
    anything else entry by entry through `_real` (a list's bools too); else DomainError(refusal)."""
    if not isinstance(values, np.ndarray):
        try:
            entries = np.array(values, dtype=object)
        except ValueError:  # arrays of unequal shapes, which numpy cannot lay out
            raise DomainError(refusal) from None
        out = [_real(v, refusal, low, high) for v in entries.flat]
        return np.array(out, dtype=float).reshape(entries.shape)
    if values.dtype.kind not in "iuf":
        raise DomainError(refusal)
    out = np.asarray(values, dtype=float)
    if out.size and not (out.min() >= low and out.max() <= high):  # a NaN compares False
        raise DomainError(refusal)
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64; larger n are refused."""
    n = _integer(n, "n")
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
    """Distinct prime factors of an integer n >= 2 by trial division."""
    n = _integer(n, "n", 2)
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
    if not is_prime(n := _integer(n, "n")):
        raise DomainError(f"primitive_root requires a prime, got {n}")
    if n == 2:
        return 1
    factors = prime_factors(n - 1)
    for g in range(2, n):
        if all(pow(g, (n - 1) // p, n) != 1 for p in factors):
            return g
    raise RuntimeError(f"no primitive root found for prime {n}")  # unreachable


def _rader_half(N: int, g: int) -> np.ndarray:
    """perm[i] = g^i mod N for i < h = N // 2, filled by doubling the known prefix."""
    h = N // 2
    perm = np.empty(h, dtype=np.int64)
    perm[0] = 1
    k = 1
    while k < h:
        m = min(k, h - k)
        perm[k : k + m] = perm[:m] * pow(g, k, N) % N
        k += m
    return perm


class _HalfOrder:
    """The half points of Z_N and the residue table w(r) = table[r], N = len(table),
    in the one order that both the CBC sweep and the closed form walk.

    The summand of a point n depends on n only through w(n z_j mod N), and
    w(r) = w(N - r), so the point n stands for n and N - n.  The half points
    are n = 0 (index 0) then cand[i] (index i + 1), counted mult times (1 at
    n = 0 and at n = N/2 for even N, the prime N = 2 included, else 2); the
    candidates z = cand[i] run over 1..N//2 once.  For prime N, with g a
    primitive root and h = N//2, cand[i] = min(g^i, N - g^i) (Rader order):
    g^h = -1 makes w(cand[i]) of period h in i, and a2 holds it for i < 2h,
    so the residues of the points cand[m..] under z = cand[k] are the slice
    of a2 that starts at k + m; a2 has the table's dtype, and of the table
    only w0 = w(0) is kept.  Other N have no such order (non-units), so a2
    is None, cand = 1..N//2 and a residue is a gather from the kept table."""

    def __init__(self, table: np.ndarray):
        N, h = len(table), len(table) // 2
        self.N, self.w0, self.table, self.a2, self.block = N, table[0], None, None, np.empty(0)
        if is_prime(N):
            perm = _rader_half(N, primitive_root(N))
            self.cand = np.minimum(perm, N - perm, out=perm)
            self.a2 = np.empty(2 * h, dtype=table.dtype)
            np.take(table, self.cand, out=self.a2[:h], mode="clip")  # unbuffered, see residues
            self.a2[h:] = self.a2[:h]
        else:
            self.table, self.cand = table, np.arange(1, h + 1, dtype=np.int64)
        self.mult = np.full(h + 1, 2.0)
        self.mult[0] = self.mult[h if N % 2 == 0 else 0] = 1.0

    def index(self, z: np.ndarray) -> np.ndarray:
        """The i with cand[i] = min(z, N - z), for each entry of z in 1..N-1."""
        pos = np.empty(len(self.cand) + 1, dtype=np.int64)
        pos[self.cand] = np.arange(len(self.cand))
        return pos[np.minimum(z, self.N - z)]

    def residues(self, idx, lo: int, hi: int):
        """w(n cand[k] mod N) at the half points lo..hi-1, one row per k in
        idx: past n = 0 at prime N, slices of a2 (no copy); else the rows of
        one block that the order reuses, valid until the next call."""
        if self.a2 is not None and lo > 0:
            return [self.a2[k + lo - 1 : k + hi - 1] for k in idx]
        m, n = len(idx), hi - lo
        if self.block.size < m * n:
            self.block = np.empty(m * n)
        out = self.block[: m * n].reshape(m, n)
        if self.a2 is not None:
            out[:, 0] = self.w0
            for k, row in zip(idx, out):
                row[1:] = self.a2[k : k + n - 1]
            return out
        r = np.multiply.outer(self.cand[idx], np.arange(lo, hi))
        np.remainder(r, self.N, out=r)
        # every index is already reduced mod N; "clip" keeps numpy from buffering out
        return np.take(self.table, r, out=out, mode="clip")


def nearest_prime(n: int) -> int:
    """Prime closest to the integer n; ties between n-d and n+d resolve upward."""
    n = _integer(n, "n")
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
    """F_m with F_1 = F_2 = 1, for an integer m >= 1."""
    m = _integer(m, "fibonacci index", 1)
    a, b = 1, 1
    for _ in range(m - 1):
        a, b = b, a + b
    return a
