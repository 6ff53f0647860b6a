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
`numtheory._HalfOrder`, which the closed-form recheck walks too: for
prime N, n = 0 and the powers g^i of a primitive root g, i < h = (N-1)/2
(Rader order), for other N, n = 0..N//2.  A scorer takes W on the half
points and counts each point as the order does.  The plain scorer sums
directly, O(N) per candidate: at prime N one dot product of a slice of the
Rader table with the state, at other N a matrix product per block of
candidates, whose residues the order gathers into one reused block.  The
FFT scorer (Nuyens & Cools) exploits that for prime N the candidate scores in Rader order
form a circular correlation.  Because g^h = -1, the omega side of that correlation is real,
even and of period h, so it folds to one real correlation of length h (`np.fft.rfft`), taken
at length h when no prime factor of h exceeds FFT_DIRECT_MAX_PRIME and zero-padded to a
5-smooth length >= 2h - 1 otherwise; O(N log N) per dimension; at even lengths L >=
FFT_SPLIT_MIN in two polyphase halves, c[2l + q] = irfft(X_q Y_0 + X_{q+1} Y_1)[l]
(`_FftScorer`), each stage's second on the sweep's one worker thread.  `cbc_fast` scores
with it at prime N and with the plain scorer elsewhere, in arrays it owns.

Both scorers share one tie rule -- smallest candidate within a small relative
band of the minimum -- so they return identical vectors even though their
floating-point roundings differ at the 1e-15 level; at prime N both walk the
Rader order, so their criteria are equal bit for bit.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .kernels import _block_rows
from .lattice import LatticeRule, _rule_size
from .numtheory import _HalfOrder, _integer, prime_factors
from .weights import _Running
from .worst_case_error import CbcCriterion, korobov_residue_table

TIE_TOL = 1e-10
# The largest prime factor of h = (N-1)/2 up to which one rfft/irfft pair of
# length h beat the pair at the padded 5-smooth length >= 2h - 1 in every
# timing taken (numpy 2.4, h from 3e4 to 5e5); above it the direct length
# lost at some sizes, by 5x and more for prime h.
FFT_DIRECT_MAX_PRIME = 97
# The smallest even FFT length at which the scorer splits.  Tent sweeps, s = 100, 2 cores, per-
# process minima, split vs not: lost at L = 16384 (34-36 vs 30-31 ms), mixed at 24576-30720, won
# at 32768 in 10 of 14 (by ~5%) and at 40960 in 8 of 11, and in all from 43200 to 65610 (10-25%).
FFT_SPLIT_MIN = 2**15


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


@dataclass
class _PlainScorer:
    """T(z) from w on the half points, each counted mult times, by direct
    sums, O(N) per candidate, for any N.  At prime N, T(cand[j]) = omega(0)
    w(0) + mult[-1] c[j], c[j] = sum_i a2[i + j] w(cand[i]) (`_HalfOrder`),
    one dot product per candidate over a slice of the doubled Rader table
    (`np.correlate`), with no residue matrix.  Other N multiply mult * w by
    the residues of a block of candidates at a time."""

    order: _HalfOrder

    def score(self, w: np.ndarray) -> np.ndarray:
        order, h, mult = self.order, len(self.order.cand), self.order.mult
        if order.a2 is not None:
            return order.w0 * w[0] + mult[-1] * np.correlate(order.a2[: 2 * h - 1], w[1:], "valid")
        w, step = mult * w, min(_block_rows(h + 1), h)
        return np.concatenate([order.residues(range(lo, min(lo + step, h)), 0, h + 1) @ w
                               for lo in range(0, h, step)])


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
    """T as one real circular correlation of length h = (N-1)/2, for prime N in the Rader
    order, from w on the half points: with a[i] = omega(cand[i]) of period h, T(cand[j]) =
    omega(0) w(0) + c[j], c[j] = sum_i m a[(i + j) mod h] w(cand[i]), where m = mult[-1]
    counts each cand[i]: the length-L correlation of x = m a2[:2h - 1] = m [a, a[:h-1]]
    (`_HalfOrder`) with y = w[1:], zero-padded to the smallest 5-smooth L >= 2h - 1 if h has
    a prime factor above FFT_DIRECT_MAX_PRIME, else cropped to L = h.  It is taken in P
    polyphase parts, P = 2 at even L >= FFT_SPLIT_MIN, else 1: with M = L / P, X_k =
    rfft(x[k::P]) for k < P, at P = 2 X_2 = rfft(roll(x[0::2], -1)) (`f_a`, for every
    dimension) and Y_p = conj(rfft(y[p::P], M)), c[P l + q] = irfft_M(sum_p X_{p+q} Y_p)[l].
    The sweep lends a splitting scorer one worker (`pool`), which runs phase 1 of the
    forward (p) and inverse (q) stages under the caller's errstate (numpy keeps it per
    thread); without it the phases run in turn.  The arrays are the scorer's own, filled in
    place (`out=`, numpy >= 2.0); `score` returns a view of c, valid until the next call."""

    def __init__(self, order: _HalfOrder):
        h, m = len(order.cand), order.mult[-1]
        direct = h == 1 or max(prime_factors(h)) <= FFT_DIRECT_MAX_PRIME
        L = self.L = h if direct else _smooth_length(2 * h - 1)
        P = self.P = 2 if L % 2 == 0 and L >= FFT_SPLIT_MIN else 1
        x = np.pad(m * order.a2[: 2 * h - 1][:L], (0, max(0, L + 1 - 2 * h))).reshape(-1, P).T
        self.f_a = np.fft.rfft(np.vstack([x, np.roll(x[: P - 1], -1, axis=1)]))  # m = 2 or 1: exact
        self.omega0, self.pool = order.w0, None
        self.spectrum, self.c = np.empty_like(self.f_a[:P]), np.empty(L)
        self.prod = self.spectrum[None] if P == 1 else np.empty((P,) + self.spectrum.shape, complex)

    def _forward(self, p: int, y: np.ndarray) -> None:
        f = np.fft.rfft(y[p :: self.P], self.L // self.P, out=self.spectrum[p])
        np.conj(f, out=f)

    def _inverse(self, q: int) -> None:
        # f_a first at every L: numpy's complex multiply is not bitwise commutative
        prod = np.multiply(self.f_a[q : q + self.P], self.spectrum, out=self.prod[q])
        for row in prod[1:]:
            prod[0] += row
        np.fft.irfft(prod[0], self.L // self.P, out=self.c[q :: self.P])

    def score(self, w: np.ndarray) -> np.ndarray:
        for stage, args in ((self._forward, (w[1:],)), (self._inverse, ())):
            job = self.pool and self.pool.submit(contextvars.copy_context().run, stage, 1, *args)
            for p in range(1 if job else self.P):
                stage(p, *args)
            if job:
                job.result()
        c = self.c[: len(w) - 1]
        c += self.omega0 * w[0]
        return c


def _sweep(N: int, s: int, crit: CbcCriterion, fft: bool) -> CbcResult:
    """The greedy loop: z_1 = 1, then each z_d minimizes const + T(z) / N over
    z = 1..N//2 (T(z) = T(N - z), and the tie rule keeps the smaller), where
    const is the criterion of dimension d - 1.

    The state is kept on the half points of the `_HalfOrder`, whose `cand`
    maps a score index to its candidate (index 0 is z = 1); the scorer gives
    T over `cand` from the state's weight vector on the half points as it
    is, each point counted as the order counts it, and the row of the
    chosen candidate is its residues at the half points.  The scores are
    made in place in the scorer's output (the plain scorer's is fresh)."""
    N, s = _rule_size(_integer(N, "N", 2)), _integer(s, "s", 1)
    order = _HalfOrder(korobov_residue_table(crit.korobov_order, N))
    mult, prime = order.mult, order.a2 is not None
    scorer = (_FftScorer if fft and prime else _PlainScorer)(order)
    state = _Running(crit.leading_weights(s), mult.shape)
    z: list[int] = []
    errs: list[float] = []
    with contextlib.ExitStack() as stack:
        if getattr(scorer, "P", 1) == 2:
            from concurrent.futures import ThreadPoolExecutor  # loaded only by a sweep that splits
            scorer.pool = stack.enter_context(ThreadPoolExecutor(max_workers=1))
        for _ in range(s):
            i = 0
            if errs:
                # weights that overflow make the minimum non-finite, which _select refuses
                with np.errstate(over="ignore", invalid="ignore"):
                    scores = scorer.score(state.weight_vector())
                    scores /= N
                    scores += errs[-1]
                i = _select(scores, order.cand)
            state.add(order.residues([i], 0, len(mult))[0])
            z.append(int(order.cand[i]))
            errs.append(state.mean(mult))
    return CbcResult(z=tuple(z), per_dimension_error=tuple(errs), n=N, prime=prime)


def cbc_plain(N: int, s: int, crit: CbcCriterion) -> CbcResult:
    """Greedy construction with the O(N) per-candidate sweep; O(s N^2) total."""
    return _sweep(N, s, crit, fft=False)


def cbc_fast(N: int, s: int, crit: CbcCriterion) -> CbcResult:
    """Same output as cbc_plain at every N >= 2, at prime N in O(s N log N)
    (product weights) or O(s N log N + s^2 N) (POD weights: s^2/4 row updates
    of N/2 entries and one (s/2 + 1)^2 matrix product, see `_Running`)."""
    return _sweep(N, s, crit, fft=True)
