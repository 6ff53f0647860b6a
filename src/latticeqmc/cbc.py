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
on half the points, each standing for n and N - n, in the order of
`worst_case_error._HalfOrder`, which the closed-form recheck walks too: for
prime N, n = 0 and the powers g^i of a primitive root g, i < h = (N-1)/2
(Rader order), for other N, n = 0..N//2.  The plain scorer sums directly,
O(N) per candidate: at prime N one dot product of a slice of the Rader
table with the state, at other N a gather of the candidate's residues and
a matrix product per block of candidates.  The FFT scorer (Nuyens & Cools)
exploits that for prime N the candidate scores in Rader order form a
circular correlation.  Because g^h = -1, the omega side of that
correlation is real, even and of period h, so it folds to one real
correlation of length h (`np.fft.rfft`), taken at length h when no prime
factor of h exceeds FFT_DIRECT_MAX_PRIME and zero-padded to a 5-smooth
length >= 2h - 1 otherwise; O(N log N) per dimension.

Both scorers share one tie rule -- smallest candidate within a small relative
band of the minimum -- so they return identical vectors even though their
floating-point roundings differ at the 1e-15 level; at prime N both walk the
Rader order, so their criteria are equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GuardError
from .kernels import _block_rows
from .lattice import LatticeRule
from .numtheory import is_prime, prime_factors
from .weights import _Running
from .worst_case_error import CbcCriterion, _HalfOrder, korobov_residue_table

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
    """T(z) by direct sums over the half points, O(N) per candidate, for any
    N.  At prime N, T(cand[j]) = omega(0) w(0) + c[j] with c[j] = sum_i
    a2[i + j] w(cand[i]) (`_HalfOrder`), one dot product per candidate over
    a slice of the doubled Rader table (`np.correlate`), with no residue
    matrix.  Other N gather the residues in blocks of candidates into a
    buffer allocated once and reused in every dimension."""

    def __init__(self, order: _HalfOrder):
        h = len(order.cand)
        self.order, self.vals = order, None
        if order.a2 is None:
            self.vals = np.empty((min(_block_rows(h + 1), h), h + 1))

    def score(self, w: np.ndarray) -> np.ndarray:
        order, h = self.order, len(self.order.cand)
        if order.a2 is not None:
            return order.table[0] * w[0] + np.correlate(order.a2[: 2 * h - 1], w[1:], "valid")
        vals, t = self.vals, np.empty(h)
        for lo in range(0, h, len(vals)):
            hi = min(lo + len(vals), h)
            t[lo:hi] = order.residues(np.arange(lo, hi), 0, h + 1, vals[: hi - lo]) @ w
        return t


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
    """T as one real circular correlation of length h = (N-1)/2, for prime N
    in the Rader order: with a[i] = omega(cand[i]) of period h, T(cand[j]) =
    omega(0) w(0) + c[j], c[j] = sum_i a[(i + j) mod h] w(cand[i]).  The rfft
    of a is shared by all dimensions.  When h has a prime factor above
    FFT_DIRECT_MAX_PRIME, c is the head of the linear correlation of
    a2[:2h - 1] = [a, a[:h-1]] (`_HalfOrder`) with w, zero-padded to the
    smallest 5-smooth length >= 2h - 1.
    """

    def __init__(self, order: _HalfOrder):
        h = len(order.cand)
        direct = h == 1 or max(prime_factors(h)) <= FFT_DIRECT_MAX_PRIME
        self.L = h if direct else _smooth_length(2 * h - 1)
        self.f_a = np.fft.rfft(order.a2[: h if direct else 2 * h - 1], self.L)
        self.omega0 = order.table[0]

    def score(self, w: np.ndarray) -> np.ndarray:
        c = np.fft.irfft(self.f_a * np.conj(np.fft.rfft(w[1:], self.L)), self.L)
        return self.omega0 * w[0] + c[: len(w) - 1]


def _sweep(N: int, s: int, crit: CbcCriterion, scorer_class) -> CbcResult:
    """The greedy loop: z_1 = 1, then each z_d minimizes const + T(z) / N over
    z = 1..N//2 (T(z) = T(N - z), and the tie rule keeps the smaller), where
    const is the criterion of dimension d - 1.

    The state is kept on the half points of the `_HalfOrder`, whose `cand`
    maps a score index to its candidate (index 0 is z = 1); the scorer gives
    T over `cand` from the state's weight vector times the multiplicities,
    and the row of the chosen candidate is its residues at the half points."""
    if s < 1:
        raise DomainError(f"need s >= 1, got {s}")
    order = _HalfOrder(N, korobov_residue_table(crit.korobov_order, N))
    scorer, mult = scorer_class(order), order.mult
    state = _Running(crit.leading_weights(s), mult.shape)
    row = np.empty(mult.shape)
    z: list[int] = []
    errs: list[float] = []
    for _ in range(s):
        i = 0
        if errs:
            # weights that overflow make the minimum non-finite, which _select refuses
            with np.errstate(over="ignore", invalid="ignore"):
                scores = errs[-1] + scorer.score(mult * state.weight_vector()) / N
            i = _select(scores, order.cand)
        state.add(order.residues(i, 0, len(row), row))
        z.append(int(order.cand[i]))
        errs.append(state.mean(mult))
    return CbcResult(z=tuple(z), per_dimension_error=tuple(errs), n=N, prime=is_prime(N))


def cbc_plain(N: int, s: int, crit: CbcCriterion) -> CbcResult:
    """Greedy construction with the O(N) per-candidate sweep; O(s N^2) total."""
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    return _sweep(N, s, crit, _PlainScorer)


def cbc_fast(N: int, s: int, crit: CbcCriterion) -> CbcResult:
    """Same output as cbc_plain, for prime N, in O(s N log N) (product weights)
    or O(s N log N + s^2 N) (POD weights: about s^2/4 row updates of N/2
    entries in the state and one (s/2 + 1)^2 matrix product, see `_Running`)."""
    if not is_prime(N):
        raise DomainError(f"fast construction requires prime N, got {N}")
    return _sweep(N, s, crit, _FftScorer)


def cbc_construct(N: int, s: int, crit: CbcCriterion) -> CbcResult:
    """The construction at any N >= 2: `cbc_fast` at prime N, `cbc_plain` otherwise."""
    return (cbc_fast if is_prime(N) else cbc_plain)(N, s, crit)
