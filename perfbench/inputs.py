"""Seeded input generator for the benchmark workloads.

The seed picks, for every band below, one prime N of the band's class, and
the order of the operations in a pass.  The default seed gives the default
grid, whose outputs are recorded in ``reference.json``.  The generator uses
its own sieve, so the program under test sees only the generated inputs.

A class is a property of N - 1, the length of the FFT in ``cbc_fast``: it is
smooth (every prime factor small, so the FFT is a few radix passes) or it
has one large prime factor (the FFT falls back to a Bluestein transform).
Bands are narrow, so that the cost of an operation varies little with the
seed: work is normalised per N, but a single operation's time is not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
WORKLOADS = ("cbc_fft", "cbc_state", "exact_error", "cli_pipeline")
_SIEVE_LIMIT = 140_000


def _smallest_factor_table(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


_SPF = _smallest_factor_table(_SIEVE_LIMIT)


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of 2 <= n <= _SIEVE_LIMIT."""
    out: list[int] = []
    while n > 1:
        p = _SPF[n]
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _SPF[n] == n


def _smooth(bound: int):
    """N - 1 has no prime factor above ``bound``."""
    return lambda f, n: max(f) <= bound


def _two_p(f, n):
    """N - 1 = 2p with p > 1000 prime: a Bluestein-length FFT."""
    return f == [2, (n - 1) // 2] and (n - 1) // 2 > 1000


def _mixed(f, n):
    """N - 1 23-smooth with two or more prime factors in 13..23: generic radix passes."""
    return max(f) <= 23 and sum(13 <= p <= 23 for p in f) >= 2


def _any(f, n):
    return True


@dataclass(frozen=True)
class Band:
    """Primes N in [lo, hi] whose N - 1 passes ``test(factors, N)``."""

    lo: int
    hi: int
    default: int
    test: object

    def members(self) -> list[int]:
        return [n for n in range(self.lo, self.hi + 1)
                if is_prime(n) and self.test(prime_factors(n - 1), n)]


BANDS = {
    # cbc_fft: one smooth, one Bluestein and one mixed-radix FFT length.
    "fft_smooth": Band(56_000, 76_000, 65_537, _smooth(5)),
    "fft_rough": Band(62_000, 69_000, 65_543, _two_p),
    "fft_mixed": Band(128_000, 132_000, 131_101, _mixed),
    # cbc_state: the FFT is cheap; the POD state update and plain scorer are not.
    "state_fast": Band(7_800, 8_600, 8_191, _smooth(13)),
    "plain_product": Band(1_480, 1_560, 1_499, _any),
    "plain_pod": Band(1_480, 1_560, 1_531, _any),
    # exact_error: cost is N^2 s whatever N - 1 is.
    "exact_small": Band(499, 523, 509, _any),
    "exact_large": Band(1_009, 1_039, 1_021, _any),
    # cli_pipeline: a Bluestein-length CBC and a rule to export and evaluate.
    "cli_cbc": Band(16_000, 17_000, 16_187, _two_p),
    "cli_rule": Band(1_009, 1_039, 1_021, _any),
}

CBC_FFT_DIMS = 100
CBC_STATE_FAST_DIMS = 100
CBC_PLAIN_DIMS = 20
EXACT_DIMS = 20
CLI_CBC_DIMS = 50
CLI_RULE_DIMS = 6


@dataclass(frozen=True)
class Op:
    """One operation of a workload.  ``key`` names its inputs; two ops with
    equal keys must produce equal outputs, which is what ``reference.json``
    is indexed by.  ``work`` is the op's share of ``work_per_s``."""

    key: str
    kind: str
    params: dict = field(hash=False)
    work: float = 1.0


def product_gamma(s: int) -> list[float]:
    return [1.0 / j**2 for j in range(1, s + 1)]


def pod_order_weights(s: int) -> list[float]:
    out, f = [], 1.0
    for k in range(1, s + 1):
        f *= k
        out.append(f)
    return out


def pick(rng: random.Random | None, band: Band, taken: tuple[int, ...] = ()) -> int:
    if rng is None:
        return band.default
    return rng.choice([n for n in band.members() if n not in taken])


def _cbc_fft(rng) -> list[Op]:
    s = CBC_FFT_DIMS
    ops = []
    for band in ("fft_smooth", "fft_rough", "fft_mixed"):
        n = pick(rng, BANDS[band])
        ops.append(Op(f"cbc_fast/tent/product/s{s}/N{n}", "cbc_fast",
                      {"N": n, "s": s, "criterion": "tent", "weights": "product"}, n * s))
    return ops


def _cbc_state(rng) -> list[Op]:
    s, sp = CBC_STATE_FAST_DIMS, CBC_PLAIN_DIMS
    n = pick(rng, BANDS["state_fast"])
    n_prod = pick(rng, BANDS["plain_product"])
    n_pod = pick(rng, BANDS["plain_pod"], (n_prod,))
    return [
        Op(f"cbc_fast/tent/pod/s{s}/N{n}", "cbc_fast",
           {"N": n, "s": s, "criterion": "tent", "weights": "pod"}, n * s),
        Op(f"cbc_fast/sym4/pod/s{s}/N{n}", "cbc_fast",
           {"N": n, "s": s, "criterion": "sym", "alpha": 4, "weights": "pod"}, n * s),
        Op(f"cbc_plain/tent/product/s{sp}/N{n_prod}", "cbc_plain",
           {"N": n_prod, "s": sp, "criterion": "tent", "weights": "product"}, n_prod * sp),
        Op(f"cbc_plain/tent/pod/s{sp}/N{n_pod}", "cbc_plain",
           {"N": n_pod, "s": sp, "criterion": "tent", "weights": "pod"}, n_pod * sp),
    ]


def _exact_error(rng) -> list[Op]:
    s = EXACT_DIMS
    ops = []
    for band in ("exact_small", "exact_large"):
        n = pick(rng, BANDS[band])
        ops.append(Op(f"exact/tent_sob2/s{s}/N{n}", "exact_tent", {"N": n, "s": s}, n * n * s))
        ops.append(Op(f"exact/sym2/s{s}/N{n}", "exact_sym", {"N": n, "s": s, "alpha": 2},
                      n * n * s))
    return ops


def _cli_pipeline(rng) -> list[Op]:
    n_cbc = pick(rng, BANDS["cli_cbc"])
    n_rule = pick(rng, BANDS["cli_rule"])
    sc, sr = CLI_CBC_DIMS, CLI_RULE_DIMS
    rule = {"N": n_rule, "s": sr}
    return [
        Op("cli/experiment/figure1", "cli_experiment", {"name": "figure1"}),
        Op("cli/experiment/f1_s100", "cli_experiment", {"name": "f1_s100"}),
        Op(f"cli/cbc/tent/s{sc}/N{n_cbc}", "cli_cbc", {"N": n_cbc, "s": sc}),
        Op(f"cli/wce/sym/s{sr}/N{n_rule}", "cli_wce", dict(rule, space="sym")),
        Op(f"cli/wce/sob2-tent/s{sr}/N{n_rule}", "cli_wce", dict(rule, space="sob2-tent")),
        Op(f"cli/points/sym/s{sr}/N{n_rule}", "cli_points", rule),
        Op("cli/verify-appendix", "cli_verify_appendix", {}),
    ]


_BUILDERS = {"cbc_fft": _cbc_fft, "cbc_state": _cbc_state,
             "exact_error": _exact_error, "cli_pipeline": _cli_pipeline}


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of one pass.  The default seed keeps the listed order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    if rng is not None:
        rng.shuffle(ops)
    return ops
