"""Component-by-component search for generating vectors.

Each criterion (tent, reflection/sym, plain Korobov) is the exact squared
worst-case error of the prefix rule in a Korobov space of some order with
some effective weights (see `CbcCriterion`), so one greedy sweep serves all
three.  The sweep asks a scorer for T(z) = sum_n omega(n z mod N) W(n) over
the candidates z = 1..N//2; the two scorers differ only in how they compute
it.  Since omega(r) = omega(N - r), T(z) = T(N - z) for every N, and the tie
rule keeps the smaller of the two, so the upper half of 1..N-1 is never
scored.  The plain scorer sums directly, O(N) per candidate.  The FFT scorer
(Nuyens & Cools) exploits that for prime N the candidate scores form a
circular correlation once candidates and points are reindexed by powers of a
primitive root g (Rader reordering).  Because g^((N-1)/2) = -1, the omega
side of that correlation is real, even and of period h = (N-1)/2, so it
folds to one real correlation of length h (`np.fft.rfft`), zero-padded to a
5-smooth length when h itself is not; O(N log N) per dimension.

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
from .numtheory import is_prime, primitive_root
from .weights import _Running
from .worst_case_error import CbcCriterion, korobov_residue_table

TIE_TOL = 1e-10


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


def _select(scores: np.ndarray) -> int:
    """Smallest candidate whose score sits within TIE_TOL of the minimum.
    Candidate i corresponds to z = i + 1."""
    m = float(np.min(scores))
    if not np.isfinite(m):
        raise GuardError(f"CBC score minimum is {m}: the weights overflow double precision")
    thresh = m + TIE_TOL * (1.0 + abs(m))
    return int(np.argmax(scores <= thresh)) + 1


def _plain_scorer(N: int, omega: np.ndarray):
    """T(z) for z = 1..N//2 by direct sums, in blocks of candidates.  The index
    and gather buffers are allocated once and reused in every dimension."""
    half = N // 2
    n_idx = np.arange(N, dtype=np.int64)
    chunk = min(_block_rows(N), half)
    idx = np.empty((chunk, N), dtype=np.int64)
    vals = np.empty((chunk, N))

    def score(w: np.ndarray) -> np.ndarray:
        t = np.empty(half)
        for lo in range(1, half + 1, chunk):
            m = min(chunk, half + 1 - lo)
            np.multiply(np.arange(lo, lo + m, dtype=np.int64)[:, None], n_idx, out=idx[:m])
            np.remainder(idx[:m], N, out=idx[:m])
            # every index is already reduced mod N; "clip" keeps numpy from buffering out
            np.take(omega, idx[:m], out=vals[:m], mode="clip")
            t[lo - 1 : lo - 1 + m] = vals[:m] @ w
        return t

    return score


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


def _rader_half(N: int, g: int, h: int) -> np.ndarray:
    """perm[i] = g^i mod N for i < h, filled by doubling the known prefix."""
    perm = np.empty(h, dtype=np.int64)
    perm[0] = 1
    k = 1
    while k < h:
        m = min(k, h - k)
        perm[k : k + m] = perm[:m] * pow(g, k, N) % N
        k += m
    return perm


def _fft_scorer(N: int, omega: np.ndarray):
    """T(z) for z = 1..N//2, prime N, as one real circular correlation of
    length h = (N-1)/2 in the Rader order n = g^i.

    The full correlation has length N-1, but g^h = -1 and omega(r) =
    omega(N - r) give a[i] = omega(g^i) period h, so the weight side folds to
    b[i] = w(g^i) + w(N - g^i) and c[j] = sum_i a[(i + j) mod h] b[i] is
    T(g^j) - omega(0) w(0), which is also T(N - g^j); min(g^j, N - g^j) runs
    over 1..h once.  a and its rfft are shared by all dimensions.  When h is
    not 5-smooth, c is the head of the linear correlation of [a, a[:h-1]]
    with b, zero-padded to the smallest 5-smooth length >= 2h - 1.
    """
    h = N // 2  # (N - 1) / 2, and 1 for N = 2
    perm = _rader_half(N, primitive_root(N), h)
    neg = N - perm
    cand = np.minimum(perm, neg) - 1
    a = omega[perm]
    L = h if _smooth_length(h) == h else _smooth_length(2 * h - 1)
    f_a = np.fft.rfft(a if L == h else np.concatenate([a, a[: h - 1]]), L)
    fold = N > 2  # for N = 2, -1 = 1: the cycle has one element, nothing to fold

    def score(w: np.ndarray) -> np.ndarray:
        b = w[perm] + w[neg] if fold else w[perm]
        c = np.fft.irfft(f_a * np.conj(np.fft.rfft(b, L)), L)
        t = np.empty(h)
        t[cand] = omega[0] * w[0] + c[:h]
        return t

    return score


def _sweep(N: int, s: int, crit: CbcCriterion, make_scorer) -> CbcResult:
    """The greedy loop: z_1 = 1, then each z_d minimizes const + T(z) / N over
    z = 1..N//2 (T(z) = T(N - z), and the tie rule keeps the smaller), where
    const is the criterion of dimension d - 1."""
    if s < 1:
        raise DomainError(f"need s >= 1, got {s}")
    start = time.perf_counter()
    omega = korobov_residue_table(crit.korobov_order, N)
    state = _Running(crit.leading_weights(s), (N,))
    score = make_scorer(N, omega)
    n_idx = np.arange(N, dtype=np.int64)
    z: list[int] = []
    errs: list[float] = []
    for _ in range(s):
        best = _select(errs[-1] + score(state.weight_vector()) / N) if errs else 1
        state.add(omega[n_idx * best % N])
        z.append(best)
        errs.append(state.mean())
    return CbcResult(z=tuple(z), per_dimension_error=tuple(errs),
                     elapsed=time.perf_counter() - start, n=N, prime=is_prime(N))


def cbc_plain(N: int, s: int, crit: CbcCriterion) -> CbcResult:
    """Greedy construction with the O(N) per-candidate sweep; O(s N^2) total."""
    if N < 2:
        raise DomainError(f"need N >= 2, got {N}")
    return _sweep(N, s, crit, _plain_scorer)


def cbc_fast(N: int, s: int, crit: CbcCriterion) -> CbcResult:
    """Same output as cbc_plain, for prime N, in O(s N log N) (product weights)
    or O(s N log N + s^2 N) (POD weights)."""
    if not is_prime(N):
        raise DomainError(f"fast construction requires prime N, got {N}")
    return _sweep(N, s, crit, _fft_scorer)
