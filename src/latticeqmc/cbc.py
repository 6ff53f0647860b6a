"""Component-by-component search for generating vectors.

Each criterion (tent, reflection/sym, plain Korobov) is the exact squared
worst-case error of the prefix rule in a Korobov space of some order with
some effective weights (see `CbcCriterion`), so one greedy sweep serves all
three.  The sweep asks a scorer for T(z) = sum_n omega(n z mod N) W(n) over
every candidate z; the two scorers differ only in how they compute it.  The
plain scorer sums directly, O(N) per candidate.  The FFT scorer (Nuyens &
Cools) exploits that for prime N the candidate scores form a length-(N-1)
circular correlation once candidates and points are reindexed by powers of a
primitive root (Rader reordering), evaluated in O(N log N) per dimension.

Both scorers share one tie rule -- smallest candidate within a small relative
band of the minimum -- so they return identical vectors even though their
floating-point roundings differ at the 1e-15 level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GuardError
from .lattice import LatticeRule
from .numtheory import is_prime, primitive_root
from .worst_case_error import CbcCriterion, korobov_residue_table

TIE_TOL = 1e-10
_CHUNK_ELEMS = 1 << 22


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


class _ProductState:
    """Per-point running products prod_j (1 + g_j omega(n z_j)) for product weights."""

    def __init__(self, n: int, gamma: tuple[float, ...]):
        self.p = np.ones(n)
        self.gamma = gamma

    def weight_vector(self, d: int) -> tuple[float, np.ndarray]:
        return float(np.mean(self.p)) - 1.0, self.gamma[d - 1] * self.p

    def update(self, d: int, omega_at_z: np.ndarray) -> None:
        self.p *= 1.0 + self.gamma[d - 1] * omega_at_z

    def criterion(self) -> float:
        return float(np.mean(self.p)) - 1.0


class _PodState:
    """Order-indexed elementary-symmetric state for POD weights."""

    def __init__(self, n: int, gamma: tuple[float, ...], order_weights: tuple[float, ...]):
        self.elem = np.zeros((len(gamma) + 1, n))
        self.elem[0] = 1.0
        self.gamma = gamma
        self.Gamma = order_weights

    def weight_vector(self, d: int) -> tuple[float, np.ndarray]:
        const = float(np.mean(sum(self.Gamma[o - 1] * self.elem[o] for o in range(1, d))))
        w = self.gamma[d - 1] * sum(
            self.Gamma[o - 1] * self.elem[o - 1] for o in range(1, d + 1)
        )
        return const, w

    def update(self, d: int, omega_at_z: np.ndarray) -> None:
        v = self.gamma[d - 1] * omega_at_z
        for o in range(min(d, len(self.gamma)), 0, -1):
            self.elem[o] += v * self.elem[o - 1]

    def criterion(self) -> float:
        d = len(self.gamma)
        return float(np.mean(sum(self.Gamma[o - 1] * self.elem[o] for o in range(1, d + 1))))


def _make_state(n: int, s: int, crit: CbcCriterion):
    eff = crit.leading_weights(s)
    if eff.form == "product":
        return _ProductState(n, eff.gamma)
    return _PodState(n, eff.gamma, eff.Gamma)


def _plain_scorer(N: int, omega: np.ndarray):
    """T(z) for z = 1..N-1 by direct sums, in blocks of candidates.  The index
    and gather buffers are allocated once and reused in every dimension."""
    n_idx = np.arange(N, dtype=np.int64)
    chunk = min(max(1, _CHUNK_ELEMS // N), N - 1)
    idx = np.empty((chunk, N), dtype=np.int64)
    vals = np.empty((chunk, N))

    def score(w: np.ndarray) -> np.ndarray:
        t = np.empty(N - 1)
        for lo in range(1, N, chunk):
            m = min(chunk, N - lo)
            np.multiply(np.arange(lo, lo + m, dtype=np.int64)[:, None], n_idx, out=idx[:m])
            np.remainder(idx[:m], N, out=idx[:m])
            # every index is already reduced mod N; "clip" keeps numpy from buffering out
            np.take(omega, idx[:m], out=vals[:m], mode="clip")
            t[lo - 1 : lo - 1 + m] = vals[:m] @ w
        return t

    return score


def _fft_scorer(N: int, omega: np.ndarray):
    """T(z) for z = 1..N-1, prime N, as one circular correlation of length N-1
    in the Rader order n = g^i; the FFT of omega is shared by all dimensions."""
    g = primitive_root(N)
    perm = np.empty(N - 1, dtype=np.int64)
    perm[0] = 1
    for i in range(1, N - 1):
        perm[i] = perm[i - 1] * g % N
    f_omega = np.fft.fft(omega[perm])

    def score(w: np.ndarray) -> np.ndarray:
        t = np.empty(N - 1)
        t[perm - 1] = omega[0] * w[0] + np.fft.ifft(f_omega * np.conj(np.fft.fft(w[perm]))).real
        return t

    return score


def _sweep(N: int, s: int, crit: CbcCriterion, make_scorer) -> CbcResult:
    """The greedy loop: z_1 = 1, then each z_d minimizes const + T(z) / N."""
    if s < 1:
        raise DomainError(f"need s >= 1, got {s}")
    start = time.perf_counter()
    omega = korobov_residue_table(crit.korobov_order, N)
    state = _make_state(N, s, crit)
    score = make_scorer(N, omega)
    n_idx = np.arange(N, dtype=np.int64)
    z: list[int] = []
    errs: list[float] = []
    for d in range(1, s + 1):
        if d == 1:
            best = 1
        else:
            const, w = state.weight_vector(d)
            best = _select(const + score(w) / N)
        state.update(d, omega[n_idx * best % N])
        z.append(best)
        errs.append(state.criterion())
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
