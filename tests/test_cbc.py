"""CBC construction: plain vs fast equivalence, criteria, primitive roots."""

import importlib.util
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from latticeqmc import cbc
from latticeqmc.cbc import TIE_TOL, CbcCriterion, cbc_fast, cbc_plain
from latticeqmc.errors import DomainError, GuardError
from latticeqmc.lattice import LatticeRule, rank1_points
from latticeqmc.numtheory import is_prime, nearest_prime, primitive_root
from latticeqmc.special_functions import bernoulli_scaled
from latticeqmc.weights import WeightScheme
from latticeqmc.worst_case_error import (
    C_PRIME,
    _HalfOrder,
    _rader_half,
    corollary_bound,
    korobov_residue_table,
    wce_sq_korobov_lattice,
)

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
        cbc_fast(9, 2, CbcCriterion(kind="tent", base_weights=w))  # composite N
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
    """Run both constructions at prime N, check that they agree, and return
    the fast one.  Both keep the state in the same Rader order, so the
    criteria agree bit for bit."""
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
    """N = 4099 splits the plain scorer's 2049 candidates into blocks, the
    last one partial, and pads the FFT scorer's correlation (h = 2049 =
    3 * 683 has a prime factor above FFT_DIRECT_MAX_PRIME).  Every
    per-dimension criterion is the closed form of its prefix rule."""
    s = 20
    gam = [1.0 / j**2 for j in range(1, s + 1)]
    crit = CbcCriterion(kind=kind, base_weights=WeightScheme.product(gam), alpha=alpha)
    res = _plain_equals_fast(4099, s, crit)
    for d in range(2, s + 1):
        v = crit.value(LatticeRule(N=4099, z=res.z[:d]))
        assert abs(v - res.per_dimension_error[d - 1]) <= 1e-12 * (1.0 + abs(v))


@pytest.mark.parametrize("N,s,kind,alpha,form", [
    (4099, 8, "tent", None, "pod"), (4099, 8, "sym", 4, "pod"), (8191, 6, "tent", None, "product")])
def test_plain_fast_equivalence_larger_n(N, s, kind, alpha, form):
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
    `residues` equals the gather table[n cand[j] mod N] on any block of half
    points: the first (with n = 0), one with lo > 0, a partial last one,
    and for prime N blocks that wrap around the Rader table; for one index j
    or an array of them, one row of out each."""
    table = korobov_residue_table(1, N)  # distinct values at r = 0..N//2
    order = _HalfOrder(N, table)
    h = N // 2
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
    for j in js + [np.array(js), np.array(js[::-1])]:
        for lo, hi in blocks:
            out = np.full(np.shape(j) + (h + 3,), np.nan)
            got = order.residues(j, lo, hi, out)
            assert got.shape == np.shape(j) + (hi - lo,) and np.shares_memory(got, out)
            want = table[np.multiply.outer(order.cand[j], points[lo:hi]) % N]
            assert np.array_equal(got, want), (j, lo, hi)
            assert np.isnan(out[..., hi - lo :]).all()


def _brute_force_scores(N, omega, w):
    """T(z) = sum_n omega(n z mod N) W(n) for z = 1..N//2, one z at a time."""
    n = np.arange(N)
    return np.array([omega[n * z % N] @ w for z in range(1, N // 2 + 1)])


@pytest.mark.parametrize("N", [2, 3, 5, 257, 641, 1009, 1021, 4079, 4099])
@pytest.mark.parametrize("scorer_class", [cbc._PlainScorer, cbc._FftScorer],
                         ids=["_plain_scorer", "_fft_scorer"])
def test_scorers_match_brute_force(N, scorer_class):
    """The state lives on the half points of the `_HalfOrder`, each standing
    for n and N - n, so each scorer is fed a symmetric W(n) = W(N - n), the
    only kind the sweep makes.  The FFT scorer takes the direct length
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
        half = _HalfOrder(N, omega)
        t = scorer_class(half).score(half.mult * w[np.concatenate(([0], half.cand))])
        assert t.shape == (N // 2,)
        assert np.max(np.abs(t - brute[half.cand - 1])) <= 1e-12 * np.max(np.abs(brute))


@pytest.mark.parametrize("N", [3, 5, 257, 641, 4079, 4099])
def test_folded_rader_order_covers_half_range(N):
    g = primitive_root(N)
    h = (N - 1) // 2
    perm = _rader_half(N, g, h)
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
    assert cbc._FftScorer(_HalfOrder(N, korobov_residue_table(1, N))).L == L


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
    """Scoring only 1..N//2 loses nothing for composite N either."""
    s = 4
    gam = [1.0 / j**2 for j in range(1, s + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for crit in (CbcCriterion(kind="tent", base_weights=WeightScheme.product(gam)),
                     CbcCriterion(kind="sym", base_weights=WeightScheme.pod([1.0] * s, gam),
                                  alpha=2)):
            res = cbc_plain(N, s, crit)
            z, errs = _full_range_greedy(N, s, crit)
            assert res.z == z
            for a, b in zip(res.per_dimension_error, errs):
                assert abs(a - b) <= 1e-12 * (1.0 + abs(b))


def test_overflowing_weights_fail_loudly():
    """Finite weights whose scores overflow must not yield a default vector."""
    crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product([1.0] + [1e308] * 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for run in (cbc_fast, cbc_plain):
            with pytest.raises(GuardError):
                run(13, 4, crit)


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


def _load_grid_recorder():
    path = Path(__file__).parent / "data" / "record_cbc_grid.py"
    spec = importlib.util.spec_from_file_location("record_cbc_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Criteria may move by summation order between two correct trees: the largest
# such move seen so far was 2.7e-12 relative (s = 100), and mean(p) - 1 near
# zero carries an absolute rounding floor of a few eps * log2(N).
GRID_RTOL = 3e-12
GRID_ATOL = 64 * np.finfo(float).eps


def test_cbc_grid_fixture():
    """Every run of tests/data/cbc_grid.json (recorded by the script beside
    it) gives the recorded generating vector exactly and the recorded
    per-dimension criteria to rounding."""
    recorder = _load_grid_recorder()
    rows = json.loads(recorder.OUT.read_text())
    assert [{k: r[k] for k in r if k not in ("z", "criteria")} for r in rows] == \
        list(recorder.cases())
    for r in rows:
        res = recorder.run(r)
        assert list(res.z) == r["z"], r
        for got, want in zip(res.per_dimension_error, r["criteria"], strict=True):
            assert abs(got - want) <= GRID_RTOL * abs(want) + GRID_ATOL, r


def test_result_serialization():
    res = cbc_fast(5, 2, CbcCriterion(kind="tent", base_weights=WeightScheme.product([1.0, 1.0])))
    data = res.to_dict()
    assert data["z"] == [1, 2] and data["n"] == 5 and data["prime"] is True
    assert len(data["criterion_per_dim"]) == 2
    assert res.rule() == LatticeRule(N=5, z=(1, 2))
