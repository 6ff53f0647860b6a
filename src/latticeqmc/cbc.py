"""Component-by-component search for generating vectors.

Each criterion (tent, reflection/sym, plain Korobov) is the exact squared
worst-case error of the prefix rule in a Korobov space of some order with
some effective weights (see `CbcCriterion`), so one greedy sweep serves all
three.  The sweep keeps the running weighted sum W(n) of the prefix rule
over the points n and asks a scorer for T(z) = sum_n omega(n z mod N) W(n)
over the candidates z = 1..N//2; the two scorers differ only in how they
compute it.  Since omega(r) = omega(N - r), T(z) = T(N - z) for every N,
and the tie rule keeps the smaller of the two, so the upper half of 1..N-1
is never scored.  For the same reason W(n) = W(N - n), so the state is kept
on half the points, each standing for n and N - n, in an order the scorer
owns.  The plain scorer keeps n = 0..N//2 in natural order and sums
directly, O(N) per candidate.  The FFT scorer (Nuyens & Cools) exploits
that for prime N the candidate scores form a circular correlation once
candidates and points are reindexed by powers of a primitive root g (Rader
reordering); it keeps n = 0 and g^i, i < h = (N-1)/2.  Because g^h = -1,
the omega side of that correlation is real, even and of period h, so it
folds to one real correlation of length h (`np.fft.rfft`), taken at length
h when no prime factor of h exceeds FFT_DIRECT_MAX_PRIME and zero-padded to a
5-smooth length >= 2h - 1 otherwise; O(N log N) per dimension.  The state
row of a chosen z = g^j is then a shift of that omega side by j.

Both scorers share one tie rule -- smallest candidate within a small relative
band of the minimum -- so they return identical vectors even though their
floating-point roundings differ at the 1e-15 level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GuardError
from .kernels import _block_rows
from .lattice import LatticeRule
from .numtheory import is_prime, prime_factors, primitive_root
from .weights import _Running
from .worst_case_error import (CbcCriterion, _half_multiplicity, _rader_half,
                               korobov_residue_table)

TIE_TOL = 1e-10
# The largest prime factor of h = (N-1)/2 up to which one rfft/irfft pair of
# length h beat the pair at the padded 5-smooth length >= 2h - 1 in every
# timing taken (numpy 2.4, h from 3e4 to 5e5); above it the direct length
# lost at some sizes, by 5x and more for prime h.
FFT_DIRECT_MAX_PRIME = 97


@dataclass(frozen=True)
class CbcResult:
    z: tuple[int, ...]
    per_dimension_error: tuple[float, ...]
    elapsed: float
    n: int
    prime: bool

    def rule(self) -> LatticeRule:
        return LatticeRule(N=self.n, z=self.z)

    def to_dict(self) -> dict:
        return {
            "z": list(self.z),
            "criterion_per_dim": list(self.per_dimension_error),
            "n": self.n,
            "prime": self.prime,
        }


def _select(scores: np.ndarray, cand: np.ndarray) -> int:
    """Index of the smallest candidate cand[i] whose score sits within
    TIE_TOL of the minimum."""
    m = float(np.min(scores))
    if not np.isfinite(m):
        raise GuardError(f"CBC score minimum is {m}: the weights overflow double precision")
    tied = np.flatnonzero(scores <= m + TIE_TOL * (1.0 + abs(m)))
    return int(tied[np.argmin(cand[tied])])


class _PlainScorer:
    """The points n = 0..N//2 in natural order and the candidates z = 1..N//2,
    for any N; T(z) by direct sums, in blocks of candidates.  The index and
    gather buffers are allocated once and reused in every dimension."""

    def __init__(self, N: int, omega: np.ndarray):
        half = N // 2
        self.N, self.omega = N, omega
        self.points = np.arange(half + 1, dtype=np.int64)
        self.cand = self.points[1:]
        self.chunk = min(_block_rows(half + 1), half)
        self.idx = np.empty((self.chunk, half + 1), dtype=np.int64)
        self.vals = np.empty((self.chunk, half + 1))

    def score(self, w: np.ndarray) -> np.ndarray:
        idx, vals, half = self.idx, self.vals, len(self.cand)
        t = np.empty(half)
        for lo in range(0, half, self.chunk):
            m = min(self.chunk, half - lo)
            np.multiply(self.cand[lo : lo + m, None], self.points, out=idx[:m])
            np.remainder(idx[:m], self.N, out=idx[:m])
            # every index is already reduced mod N; "clip" keeps numpy from buffering out
            np.take(self.omega, idx[:m], out=vals[:m], mode="clip")
            t[lo : lo + m] = vals[:m] @ w
        return t

    def row(self, i: int) -> np.ndarray:
        return self.omega[self.points * self.cand[i] % self.N]


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, for n >= 1."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


class _FftScorer:
    """The points n = 0 and g^i, i < h = (N-1)/2, for prime N with primitive
    root g (Rader order), and the candidates min(g^j, N - g^j), j < h, which
    run over 1..h once; T as one real circular correlation of length h.

    g^h = -1 and omega(r) = omega(N - r) give a[i] = omega(g^i) period h, so
    T(g^j) = omega(0) w(0) + c[j] with c[j] = sum_i a[(i + j) mod h] w(g^i),
    the point g^i standing for g^i and N - g^i, and T(N - g^j) = T(g^j).
    The row of z = g^j at g^i is omega(g^(i+j)) = a[(i + j) mod h], a shift
    of a.  a and its rfft are shared by all dimensions.  When h has a prime
    factor above FFT_DIRECT_MAX_PRIME, c is the head of the linear
    correlation of [a, a[:h-1]] with w, zero-padded to the smallest 5-smooth
    length >= 2h - 1.
    """

    def __init__(self, N: int, omega: np.ndarray):
        h = N // 2  # (N - 1) / 2, and 1 for N = 2
        perm = _rader_half(N, primitive_root(N), h)
        self.points = np.concatenate(([0], perm))
        self.cand = np.minimum(perm, N - perm)
        a = self.a = omega[perm]
        direct = h == 1 or max(prime_factors(h)) <= FFT_DIRECT_MAX_PRIME
        self.L = h if direct else _smooth_length(2 * h - 1)
        self.f_a = np.fft.rfft(a if self.L == h else np.concatenate([a, a[: h - 1]]), self.L)
        self.buf = np.empty(h + 1)
        self.buf[0] = omega[0]

    def score(self, w: np.ndarray) -> np.ndarray:
        c = np.fft.irfft(self.f_a * np.conj(np.fft.rfft(w[1:], self.L)), self.L)
        return self.buf[0] * w[0] + c[: len(self.a)]

    def row(self, j: int) -> np.ndarray:
        """omega(0) and the shift a[(i + j) mod h], in a buffer that the next
        call overwrites."""
        a, buf = self.a, self.buf
        buf[1 : len(a) - j + 1] = a[j:]
        buf[len(a) - j + 1 :] = a[:j]
        return buf


def _sweep(N: int, s: int, crit: CbcCriterion, scorer_class) -> CbcResult:
    """The greedy loop: z_1 = 1, then each z_d minimizes const + T(z) / N over
    z = 1..N//2 (T(z) = T(N - z), and the tie rule keeps the smaller), where
    const is the criterion of dimension d - 1.

    The scorer owns the order of the half points that the state is kept on:
    `points` lists them, `cand` maps a score index to its candidate (index 0
    is z = 1), `score(w)` gives T over `cand` from the state's weight vector
    times the multiplicities, and `row(i)` gives omega(n cand[i] mod N) at
    the points."""
    if s < 1:
        raise DomainError(f"need s >= 1, got {s}")
    start = time.perf_counter()
    scorer = scorer_class(N, korobov_residue_table(crit.korobov_order, N))
    mult = _half_multiplicity(scorer.points, N)
    state = _Running(crit.leading_weights(s), mult.shape)
    z: list[int] = []
    errs: list[float] = []
    for _ in range(s):
        i = 0
        if errs:
            # weights that overflow make the minimum non-finite, which _select refuses
            with np.errstate(over="ignore", invalid="ignore"):
                scores = errs[-1] + scorer.score(mult * state.weight_vector()) / N
            i = _select(scores, scorer.cand)
        state.add(scorer.row(i))
        z.append(int(scorer.cand[i]))
        errs.append(state.mean(mult))
    return CbcResult(z=tuple(z), per_dimension_error=tuple(errs),
                     elapsed=time.perf_counter() - start, n=N, prime=is_prime(N))


def cbc_plain(N: int, s: int, crit: CbcCriterion) -> CbcResult:
    """Greedy construction with the O(N) per-candidate sweep; O(s N^2) total."""
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    return _sweep(N, s, crit, _PlainScorer)


def cbc_fast(N: int, s: int, crit: CbcCriterion) -> CbcResult:
    """Same output as cbc_plain, for prime N, in O(s N log N) (product weights)
    or O(s N log N + s^2 N) (POD weights)."""
    if not is_prime(N):
        raise DomainError(f"fast construction requires prime N, got {N}")
    return _sweep(N, s, crit, _FftScorer)
