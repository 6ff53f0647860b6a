"""CBC construction: plain vs fast equivalence, criteria, primitive roots."""

import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from latticeqmc import cbc
from latticeqmc.cbc import TIE_TOL, CbcCriterion, cbc_fast, cbc_plain
from latticeqmc.errors import DomainError, GuardError
from latticeqmc.lattice import LatticeRule, rank1_points
from latticeqmc.numtheory import _HalfOrder, _rader_half, is_prime, nearest_prime, primitive_root
from latticeqmc.special_functions import bernoulli_scaled
from latticeqmc.weights import WeightScheme, _Running
from latticeqmc.worst_case_error import (
    C_PRIME,
    corollary_bound,
    korobov_residue_table,
    wce_sq_korobov_lattice,
)

import pinned

PRIMES_TO_101 = [p for p in range(2, 102) if is_prime(p)]


def test_primitive_roots():
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(13) == 2
    assert primitive_root(2) == 1
    with pytest.raises(DomainError):
        primitive_root(8)
    for p in PRIMES_TO_101[1:]:
        g = primitive_root(p)
        assert sorted(pow(g, i, p) for i in range(p - 1)) == list(range(1, p))


def test_is_prime_and_nearest():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)
    assert nearest_prime(64) == 67  # distance ties resolve upward
    assert nearest_prime(128) == 127
    assert nearest_prime(8192) == 8191


def test_criterion_validation():
    w = WeightScheme.product([1.0, 1.0])
    with pytest.raises(DomainError):
        CbcCriterion(kind="sym", base_weights=w, alpha=3)
    with pytest.raises(DomainError):
        CbcCriterion(kind="sym", base_weights=w)
    with pytest.raises(DomainError):
        CbcCriterion(kind="nope", base_weights=w)
    with pytest.raises(DomainError):
        cbc_fast(1, 2, CbcCriterion(kind="tent", base_weights=w))  # N < 2
    with pytest.raises(DomainError):
        cbc_plain(5, 2, CbcCriterion(kind="tent",
                                     base_weights=WeightScheme.general(2, {frozenset({1}): 1.0})))


def test_float_even_alpha_builds_the_same_vectors():
    w = WeightScheme.product([1.0 / j**2 for j in range(1, 7)])
    for construct in (cbc_fast, cbc_plain):
        a = construct(101, 6, CbcCriterion("sym", w, 4.0))
        b = construct(101, 6, CbcCriterion("sym", w, 4))
        assert a.z == b.z and a.per_dimension_error == b.per_dimension_error


def test_tent_criterion_matches_product_form_display():
    """Criterion value == -1 + mean prod_j (1 + 2 sqrt(c') sqrt(g_j) b_2(x_j))."""
    rng = np.random.default_rng(1)
    gam = rng.random(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rule = LatticeRule(N=16, z=(1, 5, 9))
    crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product(gam))
    x = rank1_points(rule).points
    factors = 1.0 + 2.0 * math.sqrt(C_PRIME) * np.sqrt(gam)[None, :] * bernoulli_scaled(2, x)
    direct = float(np.mean(np.prod(factors, axis=1))) - 1.0
    assert crit.value(rule) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("alpha", [2, 4])
def test_sym_criterion_matches_product_form_display(alpha):
    rng = np.random.default_rng(2)
    gam = rng.random(2)
    rule = LatticeRule(N=11, z=(1, 4))
    crit = CbcCriterion(kind="sym", base_weights=WeightScheme.product(gam), alpha=alpha)
    x = rank1_points(rule).points
    coef = math.sqrt(3.0) * (-1.0) ** (1 + alpha // 2) / math.sqrt(2.0)
    factors = 1.0 + coef * np.sqrt(gam)[None, :] * bernoulli_scaled(alpha, x)
    direct = float(np.mean(np.prod(factors, axis=1))) - 1.0
    assert crit.value(rule) == pytest.approx(direct, rel=1e-13)


def test_spec_examples():
    res = cbc_plain(5, 2, CbcCriterion(kind="tent", base_weights=WeightScheme.product([1.0, 1.0])))
    assert res.z == (1, 2)  # z=3 mirrors z=2; smallest wins the tie
    res1 = cbc_plain(7, 1, CbcCriterion(kind="plain_korobov",
                                        base_weights=WeightScheme.product([0.5]), alpha=2))
    assert res1.z == (1,)
    res2 = cbc_fast(2, 3, CbcCriterion(kind="tent", base_weights=WeightScheme.product([1.0] * 3)))
    assert res2.z == (1, 1, 1)


def test_per_dimension_errors_recheck():
    gam = tuple(1.0 / j**2 for j in range(1, 4))
    crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product(gam))
    res = cbc_plain(13, 3, crit)
    for d in range(1, 4):
        sub = CbcCriterion(kind="tent", base_weights=WeightScheme.product(gam[:d]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v = sub.value(LatticeRule(N=13, z=res.z[:d]))
        assert abs(v - res.per_dimension_error[d - 1]) <= 1e-13 * (1.0 + abs(v))


def _plain_equals_fast(N, s, crit):
    """Run both constructions, check that they agree, and return the fast
    one.  At prime N both keep the state in the same Rader order, and at
    other N both are the plain sweep, so the criteria agree bit for bit."""
    a = cbc_plain(N, s, crit)
    b = cbc_fast(N, s, crit)
    assert a.z == b.z
    assert a.per_dimension_error == b.per_dimension_error
    return b


@pytest.mark.parametrize("kind,alpha", [("tent", None), ("sym", 2)])
def test_plain_fast_equivalence(kind, alpha):
    rng = np.random.default_rng(7)
    for p in PRIMES_TO_101:
        s = int(rng.integers(1, 6))
        gam = tuple(float(g) for g in rng.random(s))
        crit = CbcCriterion(kind=kind, base_weights=WeightScheme.product(gam), alpha=alpha)
        _plain_equals_fast(p, s, crit)


def test_plain_fast_equivalence_pod_weights():
    rng = np.random.default_rng(8)
    for p in (11, 31, 53):
        s = 4
        w = WeightScheme.pod(rng.random(s), rng.random(s))
        crit = CbcCriterion(kind="sym", base_weights=w, alpha=2)
        res = _plain_equals_fast(p, s, crit)
        # the cached criterion is the real criterion of the constructed rule
        v = crit.value(LatticeRule(N=p, z=res.z))
        assert abs(v - res.per_dimension_error[-1]) <= 1e-12 * (1.0 + abs(v))


@pytest.mark.parametrize("kind,alpha", [("tent", None), ("sym", 2), ("plain_korobov", 2)])
def test_plain_fast_equivalence_n4099(kind, alpha):
    """N = 4099 gives the plain scorer's correlation 2049 candidates and
    pads the FFT scorer's correlation (h = 2049 = 3 * 683 has a prime
    factor above FFT_DIRECT_MAX_PRIME).  Every per-dimension criterion is
    the closed form of its prefix rule."""
    s = 20
    gam = [1.0 / j**2 for j in range(1, s + 1)]
    crit = CbcCriterion(kind=kind, base_weights=WeightScheme.product(gam), alpha=alpha)
    res = _plain_equals_fast(4099, s, crit)
    for d in range(2, s + 1):
        v = crit.value(LatticeRule(N=4099, z=res.z[:d]))
        assert abs(v - res.per_dimension_error[d - 1]) <= 1e-12 * (1.0 + abs(v))


@pytest.mark.parametrize("alpha", [0.75, 1.5])
@pytest.mark.parametrize("N", [1009, 4099])
def test_plain_fast_equivalence_off_the_bernoulli_tables(N, alpha):
    """The plain Korobov criterion at real alpha reads its residue table from
    kappa's polylog form; plain and FFT CBC still agree bit for bit."""
    s = 10
    gam = [1.0 / j**2 for j in range(1, s + 1)]
    for w in (WeightScheme.product(gam), WeightScheme.pod([1.0] * s, gam)):
        _plain_equals_fast(N, s, CbcCriterion(kind="plain_korobov", base_weights=w, alpha=alpha))


@pytest.mark.parametrize("N,s,kind,alpha,form", [
    (4099, 8, "tent", None, "pod"), (4099, 8, "sym", 4, "pod"), (8191, 6, "tent", None, "product"),
    (16381, 10, "tent", None, "product"), (16381, 10, "sym", 2, "product"),
    (65543, 4, "tent", None, "pod")])
def test_plain_fast_equivalence_larger_n(N, s, kind, alpha, form):
    """Up to N = 65543, where h = 32771 is prime and the FFT scorer pads."""
    gam = [1.0 / j**2 for j in range(1, s + 1)]
    w = (WeightScheme.product(gam) if form == "product"
         else WeightScheme.pod([float(math.factorial(k)) for k in range(1, s + 1)], gam))
    _plain_equals_fast(N, s, CbcCriterion(kind=kind, base_weights=w, alpha=alpha))


def _brute_force_scores(N, omega, w):
    """T(z) = sum_n omega(n z mod N) W(n) for z = 1..N//2, one z at a time."""
    n = np.arange(N)
    return np.array([omega[n * z % N] @ w for z in range(1, N // 2 + 1)])


@pytest.mark.parametrize("N", [2, 3, 4, 12, 13, 101, 256, 1009])
def test_half_order(N):
    """The half points n = 0, cand[0..] cover 0..N//2 up to n -> N - n with
    multiplicities summing to N; `index` inverts `cand` for z and N - z; and
    `residues` equals the gather table[n cand[k] mod N] on any block of half
    points: the first (with n = 0), one with lo > 0, a partial last one,
    and for prime N blocks that wrap around the Rader table; one row per
    index, for one index or several.  At prime N a row past n = 0 is a view
    of the doubled table, not a copy; every other row lives in the order's
    one block, allocated once for the largest request."""
    table = korobov_residue_table(1, N)  # distinct values at r = 0..N//2
    order = _HalfOrder(table)
    h, prime = N // 2, order.a2 is not None
    assert order.cand[0] == 1 and sorted(order.cand.tolist()) == list(range(1, h + 1))
    assert order.mult.shape == (h + 1,) and np.sum(order.mult) == N
    z = np.arange(1, N)
    assert np.array_equal(order.cand[order.index(z)], np.minimum(z, N - z))
    assert np.array_equal(order.index(z), order.index(N - z))
    points = np.concatenate(([0], order.cand))
    blocks = {(lo, hi) for lo, hi in [(0, h + 1), (0, 1), (1, h + 1), (h // 2, h + 1),
                                      (h - 2, h), (1, h // 3 + 2), (h // 3 + 1, h // 3 + h // 2 + 1)]
              if 0 <= lo < hi}
    js = sorted({0, 1 % h, h // 2, h - 1})
    for idx in [[j] for j in js] + [js, js[::-1], np.array(js)]:
        for lo, hi in blocks:
            got = order.residues(idx, lo, hi)
            want = table[np.multiply.outer(order.cand[idx], points[lo:hi]) % N]
            assert len(got) == len(idx)
            for row, want_row in zip(got, want):
                assert row.shape == (hi - lo,) and np.array_equal(row, want_row), (idx, lo, hi)
                in_a2 = prime and lo >= 1
                assert np.shares_memory(row, order.a2 if in_a2 else order.block), (idx, lo, hi)
    block = order.block
    order.residues(js, 0, h + 1)
    assert order.block is block and block.size == len(js) * (h + 1)


@pytest.mark.parametrize("N", [2, 3, 4, 13, 101, 256])
def test_half_order_keeps_the_table_only_where_it_gathers(N):
    """At prime N the order keeps w(0) of the table and a2 in the table's dtype
    (the integer fold tables of the shift layout), so the N entries are freed;
    other N gather from the table and keep it.  mult is 1 at n = 0 and at
    n = N/2 for even N, else 2."""
    fold = np.minimum(np.arange(N), N - np.arange(N))
    order = _HalfOrder(fold)
    h = N // 2
    assert order.w0 == 0 and (order.table is None) == is_prime(N)
    if is_prime(N):
        assert order.a2.dtype == fold.dtype and np.array_equal(order.a2, np.tile(order.cand, 2))
    else:
        assert order.table is fold
    want = [1.0] + [1.0 if 2 * c == N else 2.0 for c in order.cand]
    assert order.mult.tolist() == want and len(want) == h + 1


@pytest.mark.parametrize("N", [2, 3, 5, 257, 641, 1009, 1021, 4079, 4099])
@pytest.mark.parametrize("scorer_class", [cbc._PlainScorer, cbc._FftScorer],
                         ids=["_plain_scorer", "_fft_scorer"])
def test_scorers_match_brute_force(N, scorer_class):
    """The state lives on the half points of the `_HalfOrder`, each standing
    for n and N - n, so each scorer is fed a symmetric W(n) = W(N - n), the
    only kind the sweep makes, on the half points and unweighted: the
    scorer counts each point as the order does, and the brute force sums
    over all N points.  The FFT scorer takes the direct length
    h = (N-1)/2 when h is 5-smooth (257, 641) or has no prime factor above
    FFT_DIRECT_MAX_PRIME without being 5-smooth (1009: 2^3 3^2 7, 1021:
    2 3 5 17), and zero-pads when h is prime (4079) or 3 * 683 (4099); h is
    1..2 for the tiny N."""
    rng = np.random.default_rng(N)
    n = np.arange(N)
    for order in (1, 2):
        omega = korobov_residue_table(order, N)
        w = rng.random(N)
        w = w + w[-n % N]
        brute = _brute_force_scores(N, omega, w)
        half = _HalfOrder(omega)
        t = scorer_class(half).score(w[np.concatenate(([0], half.cand))])
        assert t.shape == (N // 2,)
        assert np.max(np.abs(t - brute[half.cand - 1])) <= 1e-12 * np.max(np.abs(brute))


@pytest.mark.parametrize("form", ["product", "pod"])
@pytest.mark.parametrize("N", [3, 5, 7, 13, 101, 1499, 4099])
def test_prime_plain_scores_equal_the_residue_matrix_product(N, form):
    """At prime N the plain scorer correlates the doubled Rader table with
    the state; the old route, the (h, h + 1) residue matrix with each column
    counted as the order counts its point, times the state, stays here as
    the oracle.  The states are those of a sweep: the weight vector, as the
    sweep hands it over, after adding the rows of a few candidates.  The
    first is constant, where T cancels to near zero (the residue table sums
    to about 0), so the error is measured against the sum of the absolute
    terms."""
    s = 6
    gam = [1.0 / j**2 for j in range(1, s + 1)]
    w = (WeightScheme.product(gam) if form == "product"
         else WeightScheme.pod([float(math.factorial(k)) for k in range(1, s + 1)], gam))
    order = _HalfOrder(korobov_residue_table(1, N))
    h = len(order.cand)
    scorer = cbc._PlainScorer(order)
    state = _Running(w, order.mult.shape)
    for j in (0, h // 2, h - 1, h // 3, 1 % h):
        v = state.weight_vector()
        rows = np.array(order.residues(range(h), 0, h + 1)) * order.mult
        err = np.abs(scorer.score(v) - rows @ v)
        assert np.all(err <= 1e-13 * (np.abs(rows) @ np.abs(v)))
        state.add(order.residues([j], 0, h + 1)[0])


def test_prime_plain_builds_no_residue_matrix(monkeypatch):
    """At prime N, cbc_plain reads residues one row at a time (the chosen
    candidate's), never an array of candidates."""
    residues = _HalfOrder.residues

    def one_row(self, idx, lo, hi):
        assert len(idx) == 1, "residue matrix built at prime N"
        return residues(self, idx, lo, hi)

    monkeypatch.setattr(_HalfOrder, "residues", one_row)
    w = WeightScheme.product([1.0 / j**2 for j in range(1, 7)])
    for N in (2, 13, 101, 4099):
        crit = CbcCriterion(kind="tent", base_weights=w)
        assert cbc_plain(N, 6, crit) == cbc_fast(N, 6, crit)


@pytest.mark.parametrize("N", [3, 5, 257, 641, 4079, 4099])
def test_folded_rader_order_covers_half_range(N):
    g = primitive_root(N)
    h = (N - 1) // 2
    perm = _rader_half(N, g)
    assert perm.tolist() == [pow(g, i, N) for i in range(h)]
    assert sorted(np.minimum(perm, N - perm).tolist()) == list(range(1, h + 1))


def test_smooth_length_is_minimal():
    smooth = sorted(2**a * 3**b * 5**c for a in range(15) for b in range(10) for c in range(7)
                    if 2**a * 3**b * 5**c <= 10_000)
    for n in range(1, 5001):
        assert cbc._smooth_length(n) == next(m for m in smooth if m >= n)
    # 5-smooth h are fixed points (N = 257 and 641 take length h directly); h = 2039
    # (prime) and 2049 = 3 * 683 are not (N = 4079 and 4099 pad to the 5-smooth L >= 2h - 1)
    assert all(cbc._smooth_length(h) == h for h in (128, 320))
    assert not any(cbc._smooth_length(h) == h for h in (2039, 2049))


@pytest.mark.parametrize("N,L", [
    (2, 1), (3, 1),          # h = 1
    (257, 128),              # h = 2^7, 5-smooth
    (1021, 510),             # h = 2 3 5 17
    (131101, 65550),         # h = 2 3 5^2 19 23
    (389, 194),              # h = 2 97, at the limit
    (607, 625),              # h = 3 101, just above it
    (4099, 4320),            # h = 3 683
    (4079, 4096),            # h = 2039, prime
])
def test_fft_length_depends_only_on_the_largest_prime_factor_of_h(N, L):
    assert cbc.FFT_DIRECT_MAX_PRIME == 97
    assert cbc._FftScorer(_HalfOrder(korobov_residue_table(1, N))).L == L


def _two_phase_correlation(x, y, L):
    """The length-L circular correlation of x with y (both zero-padded to L)
    in two polyphase halves, allocating: with M = L / 2, X_k = rfft(x[k::2])
    for k < 2, X_2 = rfft(roll(x[0::2], -1)) and Y_p = conj(rfft(y[p::2], M)),
    c[2 l + q] = irfft_M(X_q Y_0 + X_{q+1} Y_1)[l]."""
    xp, yp, M = np.zeros(L), np.zeros(L), L // 2
    xp[: min(len(x), L)], yp[: len(y)] = x[:L], y
    X = [np.fft.rfft(xp[0::2]), np.fft.rfft(xp[1::2]), np.fft.rfft(np.roll(xp[0::2], -1))]
    Y = [np.conj(np.fft.rfft(yp[p::2], M)) for p in (0, 1)]
    c = np.empty(L)
    for q in (0, 1):
        c[q::2] = np.fft.irfft(X[q] * Y[0] + X[q + 1] * Y[1], M)
    return c


@pytest.mark.parametrize("N", [2, 1021, 227, 65537, 16187])
def test_fft_scorer_scores_into_one_buffer_with_the_same_bits(N):
    """The FFT scorer fills its own spectra and correlation in place, at the
    direct length (N = 2, h = 1; N = 1021, h = 510; N = 65537, h = 2^15) and
    padded (N = 227, h = 113 above FFT_DIRECT_MAX_PRIME; N = 16187, h = 8093
    prime), and returns views of one buffer, each valid until the next call.
    Fed the state unweighted, it has the bits of the allocating expression
    on the weighted state mult * w, with the rfft of the unscaled Rader
    table: the count is 2 (1 at N = 2), a power of two, so scaling f_a in
    place of w rounds alike.  Below FFT_SPLIT_MIN that expression is one
    correlation, whose product takes f_a first at every length: numpy's
    complex multiply is not bitwise commutative, and `f_a * conj(...)` is
    evaluated as conj(...) * f_a once numpy elides the temporary (256 KiB).
    At N = 65537 (L = 2^15 = FFT_SPLIT_MIN) the scorer splits: it has the
    bits of the two-phase expression, on the calling thread alone and with
    a worker, and is within 1e-13 max|c| of the one correlation."""
    order = _HalfOrder(korobov_residue_table(1, N))
    scorer, h = cbc._FftScorer(order), len(order.cand)
    assert (scorer.L == h) == (N not in (227, 16187))
    assert scorer.P == (2 if N == 65537 else 1)
    f_a = np.fft.rfft(order.a2[: 2 * h - 1], scorer.L)
    rng = np.random.default_rng(N)
    views = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        for run in range(2):
            scorer.pool = pool if run and scorer.P == 2 else None
            w = rng.random(h + 1)
            views.append(scorer.score(w))
            spectrum = np.multiply(f_a, np.conj(np.fft.rfft((order.mult * w)[1:], scorer.L)))
            one = np.fft.irfft(spectrum, scorer.L)[:h] + order.w0 * w[0]
            assert views[-1].shape == (h,)
            if scorer.P == 1:
                assert views[-1].tobytes() == one.tobytes()
                continue
            want = _two_phase_correlation(order.a2[: 2 * h - 1], (order.mult * w)[1:], scorer.L)
            assert views[-1].tobytes() == (want[:h] + order.w0 * w[0]).tobytes()
            assert np.max(np.abs(views[-1] - one)) <= 1e-13 * np.max(np.abs(one))
    assert np.shares_memory(*views)


@pytest.mark.parametrize("N,L", [(24593, 12296), (40961, 20480), (65537, 32768),
                                 (65543, 65610), (131101, 65550), (32401, 16200), (59051, 59049)])
def test_fft_scorer_splits_at_even_lengths_from_the_threshold(N, L):
    """Two polyphase halves exactly at even L >= FFT_SPLIT_MIN = 2^15; odd L
    (N = 59051, h = 5^2 1181, padded to 3^10) and shorter L keep one."""
    assert cbc.FFT_SPLIT_MIN == 2**15
    scorer = cbc._FftScorer(_HalfOrder(korobov_residue_table(1, N)))
    assert (scorer.L, scorer.P) == (L, 2 if L % 2 == 0 and L >= 2**15 else 1)
    assert scorer.f_a.shape == (2 * scorer.P - 1, L // scorer.P // 2 + 1)


@pytest.mark.parametrize("N", [65537, 65543, 131101])
def test_split_sweep_builds_the_unsplit_vectors_and_criteria(N, monkeypatch):
    """At each of the three kinds of split length (2^15 direct, padded 65610
    for h = 32771 prime, direct 65550 = 2 3 5^2 19 23), the split sweep picks
    the unsplit sweep's z, and its criteria have the same bits."""
    crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product([j**-2.0
                                                                        for j in range(1, 11)]))
    split = cbc_fast(N, 10, crit)
    monkeypatch.setattr(cbc, "FFT_SPLIT_MIN", 2**40)
    assert cbc._FftScorer(_HalfOrder(korobov_residue_table(1, N))).P == 1
    unsplit = cbc_fast(N, 10, crit)
    assert split.z == unsplit.z
    assert [float.hex(e) for e in split.per_dimension_error] == [
        float.hex(e) for e in unsplit.per_dimension_error]


def test_split_sweep_runs_one_worker_and_leaves_no_thread(monkeypatch):
    """A splitting sweep runs phase 1 of each forward stage on one other
    thread, and that thread is gone when cbc_fast returns."""
    seen = set()
    forward = cbc._FftScorer._forward

    def spy(self, p, y):
        seen.add((p, threading.get_ident()))
        forward(self, p, y)

    monkeypatch.setattr(cbc._FftScorer, "_forward", spy)
    before = threading.active_count()
    crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product([1.0, 0.5, 0.25, 0.125]))
    cbc_fast(65537, 4, crit)
    assert threading.active_count() == before
    idents = {p: {t for q, t in seen if q == p} for p in (0, 1)}
    assert idents[0] == {threading.get_ident()} and len(idents[1]) == 1
    assert idents[1] != idents[0]


def test_tent_cbc_criteria_are_the_same_with_one_or_two_blas_threads():
    """The sweep's mean takes its dot in blocks of at most 8192 entries, each
    one single-threaded OpenBLAS call, so tent criteria past 8192 points have
    the same bits on 1 and 2 BLAS threads (a single np.vdot over the h + 1
    half points did not: the last criteria differed at N = 65537 and
    131101).  The closed-form recheck and the POD contraction still go
    through multithreaded BLAS calls; this checks the sweep alone."""
    code = ("import json; from latticeqmc import CbcCriterion, WeightScheme, cbc_fast; "
            "c = CbcCriterion('tent', WeightScheme.product([j ** -2.0 for j in range(1, 11)])); "
            "r = [cbc_fast(n, 10, c) for n in (65537, 131101)]; "
            "print(json.dumps([[x.z, [float.hex(e) for e in x.per_dimension_error]] for x in r]))")
    root = Path(__file__).resolve().parent.parent
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]


def test_sweep_past_2_20_keeps_its_bits():
    """The one sweep past N = 2^20 in tier-1: the mean's 64 blocks and the
    split scorer at h = 524286 keep z and the criteria bits."""
    assert pinned.sweep_bits() == pinned.load()["sweep_2_20"]


@pytest.mark.parametrize("N", [2, 3, 227, 1021, 16187])
def test_prime_plain_scorer_has_the_bits_of_the_weighted_correlation(N):
    """Fed the state unweighted, the plain scorer at prime N scales its one
    correlation by the count of the candidate points, 2 (1 at N = 2), and
    keeps the bits of correlating the weighted state mult * w."""
    order = _HalfOrder(korobov_residue_table(1, N))
    h = len(order.cand)
    w = np.random.default_rng(N).random(h + 1)
    want = order.w0 * w[0] + np.correlate(order.a2[: 2 * h - 1], (order.mult * w)[1:], "valid")
    assert cbc._PlainScorer(order).score(w).tobytes() == want.tobytes()


@pytest.mark.parametrize("N,units", [(16381, 11), (16187, 14), (65537, 13)])
def test_fft_sweep_allocates_near_its_floor(N, units):
    """The traced peak of a warm tent sweep, in arrays of h = (N-1)/2 doubles:
    the half order (cand, a2, mult), the FFT scorer (the rfft of a2, its
    spectrum and correlation), the state and one residue row, plus the
    transients of `_Running`; the padded length (N = 16187, h = 8093 prime)
    adds about three.  No dimension allocates FFT outputs.  The split
    (N = 65537, L = h = 2^15) keeps three phase spectra of L/4 + 1 complex
    entries where one correlation keeps one of L/2 + 1 (1.5 units, not 1)
    and adds the (2, 2, L/4 + 1) complex products of its two halves
    (2 units): it measures 12.6 units, one correlation 10.0."""
    w = WeightScheme.product([1.0 / j**2 for j in range(1, 9)])
    crit = CbcCriterion(kind="tent", base_weights=w)
    cbc_fast(N, 8, crit)
    tracemalloc.start()
    try:
        cbc_fast(N, 8, crit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= units * 8 * ((N - 1) // 2)


def _full_range_greedy(N, s, crit):
    """CBC over every candidate 1..N-1, each scored by the closed-form
    criterion of the prefix rule, with the library's tie rule."""
    z, errs = [1], [crit.value(LatticeRule(N=N, z=(1,)))]
    for d in range(2, s + 1):
        vals = np.array([crit.value(LatticeRule(N=N, z=tuple(z) + (c,))) for c in range(1, N)])
        m = float(np.min(vals))
        z.append(int(np.argmax(vals <= m + TIE_TOL * (1.0 + abs(m)))) + 1)
        errs.append(float(vals[z[-1] - 1]))
    return tuple(z), errs


@pytest.mark.parametrize("N", [12, 100, 256])
def test_plain_composite_n_matches_full_range_greedy(N):
    """Scoring only 1..N//2 loses nothing for composite N either, and
    cbc_fast builds the same rules there."""
    s = 4
    gam = [1.0 / j**2 for j in range(1, s + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for crit in (CbcCriterion(kind="tent", base_weights=WeightScheme.product(gam)),
                     CbcCriterion(kind="sym", base_weights=WeightScheme.pod([1.0] * s, gam),
                                  alpha=2)):
            res = _plain_equals_fast(N, s, crit)
            assert res.prime is False
            z, errs = _full_range_greedy(N, s, crit)
            assert res.z == z
            for a, b in zip(res.per_dimension_error, errs):
                assert abs(a - b) <= 1e-12 * (1.0 + abs(b))


def test_overflowing_weights_fail_loudly():
    """Finite weights whose scores overflow must not yield a default vector,
    nor a warning: at N = 65537 the split scorer's worker thread, whose
    numpy errstate is its own, runs under the sweep's."""
    for gamma in ([1.0] + [1e308] * 3, [1e300] * 4):
        crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product(gamma))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run, N in ((cbc_fast, 13), (cbc_plain, 13), (cbc_fast, 65537)):
                with pytest.raises(GuardError):
                    run(N, 4, crit)


def test_pod_criterion_against_general_weights_oracle():
    """POD-weight criterion equals the same error computed with the POD scheme
    expanded to explicit subsets."""
    rng = np.random.default_rng(9)
    s = 3
    Gamma, gam = rng.random(s), rng.random(s)
    pod = WeightScheme.pod(Gamma, gam)
    crit = CbcCriterion(kind="plain_korobov", base_weights=pod, alpha=1)
    res = cbc_plain(11, s, crit)
    rule = LatticeRule(N=11, z=res.z)
    expanded = WeightScheme.general(s, {u: pod.weight_of(u)
                                        for u, _ in pod.nonempty_subsets()})
    direct = wce_sq_korobov_lattice(1, expanded, rule).value
    assert res.per_dimension_error[-1] == pytest.approx(direct, rel=1e-12)


def test_determinism():
    crit = CbcCriterion(kind="tent",
                        base_weights=WeightScheme.product([1.0 / j**2 for j in range(1, 6)]))
    a = cbc_fast(101, 5, crit)
    b = cbc_fast(101, 5, crit)
    assert a.z == b.z and a.per_dimension_error == b.per_dimension_error


def test_corollary_guarantee_for_constructed_vectors():
    gam = tuple(1.0 / j**2 for j in range(1, 6))
    w = WeightScheme.product(gam)
    for N in (101, 251):
        res = cbc_fast(N, 5, CbcCriterion(kind="tent", base_weights=w))
        crit_val = res.per_dimension_error[-1]
        for lam in np.linspace(0.55, 1.0, 10):
            assert crit_val <= corollary_bound("tent", w, N, float(lam)).value
        res = cbc_fast(N, 5, CbcCriterion(kind="sym", base_weights=w, alpha=2))
        crit_val = res.per_dimension_error[-1]
        for lam in np.linspace(0.55, 1.0, 10):
            assert crit_val <= corollary_bound("sym", w, N, float(lam), alpha=2).value


def test_cbc_grid_fixture():
    """Every run of the CBC grid of tests/data/pinned.json gives the recorded
    generating vector exactly and the recorded per-dimension criteria to rounding."""
    rows = pinned.load()["cbc_grid"]
    assert [{k: r[k] for k in r if k not in ("z", "criteria")} for r in rows] == \
        list(pinned.grid_cases())
    for r in rows:
        res = pinned.grid_run(r)
        assert list(res.z) == r["z"], r
        for got, want in zip(res.per_dimension_error, r["criteria"], strict=True):
            assert pinned.grid_close(got, want), r


def test_result_serialization():
    res = cbc_fast(5, 2, CbcCriterion(kind="tent", base_weights=WeightScheme.product([1.0, 1.0])))
    data = res.to_dict()
    assert data["z"] == [1, 2] and data["n"] == 5 and data["prime"] is True
    assert len(data["criterion_per_dim"]) == 2
    assert res.rule() == LatticeRule(N=5, z=(1, 2))


def test_result_at_a_numpy_n_serializes():
    crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product([1.0, 0.5, 0.25]))
    res = cbc_fast(np.int64(101), 3, crit)
    assert type(res.n) is int and res == cbc_fast(101, 3, crit)
    assert json.loads(json.dumps(res.to_dict()))["n"] == 101


@pytest.mark.parametrize("call,fragment", [
    pytest.param(lambda: cbc_plain(13, 0, CbcCriterion("tent", WeightScheme.product([1.0]))),
                 "s must be >= 1, got 0", id="sweep/s"),
    pytest.param(lambda: cbc_plain(1, 1, CbcCriterion("tent", WeightScheme.product([1.0]))),
                 "N must be >= 2, got 1", id="cbc_plain/N"),
    pytest.param(lambda: cbc_fast(101.0, 3, CbcCriterion("tent", WeightScheme.product([1.0]))),
                 "N must be an integer, got 101.0", id="cbc_fast/float_N"),
    pytest.param(lambda: cbc_plain(101, 3.0, CbcCriterion("tent", WeightScheme.product([1.0]))),
                 "s must be an integer, got 3.0", id="cbc_plain/float_s"),
    pytest.param(lambda: cbc_fast(101, True, CbcCriterion("tent", WeightScheme.product([1.0]))),
                 "s must be an integer, got True", id="cbc_fast/bool_s"),
    pytest.param(lambda: cbc_fast(2**31 + 1, 1, CbcCriterion("tent", WeightScheme.product([1.0]))),
                 "N must be in 1..2147483648, got 2147483649", id="sweep/N_above_MAX_N"),
])
def test_refusals(call, fragment):
    with pytest.raises(DomainError, match=re.escape(fragment)):
        call()
