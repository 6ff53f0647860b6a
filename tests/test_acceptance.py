"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as they go.
Tolerances are pinned here and nowhere else.
"""

import math
import time
import warnings
from dataclasses import replace
from math import gcd

import numpy as np

from latticeqmc.cbc import CbcCriterion, cbc_fast, cbc_plain
from latticeqmc.experiments import experiment_config, run_experiment, slope_fit
from latticeqmc.fourier import (
    C_PRIME,
    appendix_inner_sum,
    c_phi,
    cosine_coeff_quadrature,
    sin_tent_coeff,
    tent_kernel_partial_sum,
    tent_kernel_reference,
)
from latticeqmc.kernels import KernelSpec
from latticeqmc.lattice import (
    LatticeRule,
    distinct_count,
    rank1_points,
    symmetrize,
    tent,
    tent_transform,
)
from latticeqmc.numtheory import is_prime
from latticeqmc.weights import WeightScheme
from latticeqmc.worst_case_error import (
    corollary_bound,
    wce_sq_korobov_lattice,
    wce_sq_quadratic_form,
    wce_sym_bound,
    wce_sym_exact,
    wce_tent_bound,
)
from oracles import character_sum


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_rule(rng, N, s) -> LatticeRule:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return LatticeRule(N=N, z=tuple(int(v) for v in rng.integers(1, N, size=s)))


def _random_unit_rule(rng, N, s) -> LatticeRule:
    z = []
    while len(z) < s:
        c = int(rng.integers(1, N))
        if gcd(c, N) == 1:
            z.append(c)
    return LatticeRule(N=N, z=tuple(z))


def test_criterion_1_oracle_equivalence_korobov():
    start = time.perf_counter()
    rng = np.random.default_rng(20250801)
    worst = 0.0
    count = 0
    for N in (2, 3, 5, 7, 13):
        for s in (1, 2, 3):
            for alpha in (1, 2, 3):
                for _ in range(10):
                    rule = _random_rule(rng, N, s)
                    w = WeightScheme.product(rng.random(s))
                    a = wce_sq_korobov_lattice(alpha, w, rule).value
                    spec = KernelSpec(family="korobov", alpha=alpha, weights=w)
                    b = wce_sq_quadratic_form(spec, rank1_points(rule)).value
                    rel = abs(a - b) / (1.0 + a)
                    worst = max(worst, rel)
                    count += 1
                    assert rel <= 1e-11
    elapsed = time.perf_counter() - start
    _report("criterion 1: Korobov oracle equivalence",
            worst <= 1e-11 and elapsed < 10.0,
            f"{count} instances, worst |diff|/(1+value) = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_golden_value():
    rule = LatticeRule(N=2, z=(1,))
    w = WeightScheme.product([1.0])
    golden = math.pi**2 / 12.0
    a = wce_sq_korobov_lattice(1, w, rule).value
    b = wce_sq_quadratic_form(KernelSpec(family="korobov", alpha=1, weights=w),
                              rank1_points(rule)).value
    ok = abs(a - golden) <= 1e-13 and abs(b - golden) <= 1e-13
    _report("criterion 2: golden value pi^2/12", ok,
            f"closed-form diff {abs(a - golden):.2e}, quadratic-form diff {abs(b - golden):.2e}")


def test_criterion_3_tent_chain():
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    violations = 0
    for _ in range(50):
        s = int(rng.integers(1, 4))
        N = int(rng.integers(2, 65))
        rule = _random_rule(rng, N, s)
        w = WeightScheme.product(rng.random(s))
        spec = KernelSpec(family="sobolev", alpha=2, weights=w)
        exact = wce_sq_quadratic_form(spec, tent_transform(rank1_points(rule))).value
        middle = CbcCriterion("tent", w).middle_term(rule).value
        bound = wce_tent_bound(w, rule).value
        if not (exact <= middle * (1 + 1e-11) + 1e-14 and middle <= bound * (1 + 1e-11) + 1e-14):
            violations += 1
    elapsed = time.perf_counter() - start
    _report("criterion 3: tent error <= middle term <= squared criterion",
            violations == 0 and elapsed < 60.0,
            f"50 instances, {violations} violations, {elapsed:.1f}s")


def test_criterion_4_sym_chain_and_identity():
    rng = np.random.default_rng(41)
    violations = 0
    worst_gap = 0.0
    for i in range(50):
        s = int(rng.integers(1, 4))
        N = int(rng.integers(2, 65))
        rule = _random_rule(rng, N, s)
        w = WeightScheme.product(rng.random(s))
        for alpha in (2, 4):
            if wce_sym_exact(alpha, w, rule).value > wce_sym_bound(alpha, w, rule).value * (1 + 1e-11) + 1e-14:
                violations += 1
        if i < 20:  # multiset identity at alpha = 2
            qf = wce_sq_quadratic_form(KernelSpec(family="sobolev", alpha=2, weights=w),
                                       symmetrize(rank1_points(rule))).value
            ex = wce_sym_exact(2, w, rule).value
            worst_gap = max(worst_gap, abs(qf - ex) / (1.0 + qf))
    _report("criterion 4: sym chain and alpha=2 space identity",
            violations == 0 and worst_gap <= 1e-11,
            f"{violations} chain violations, worst identity gap {worst_gap:.2e}")


def test_criterion_5_appendix_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_rec = max(
        abs(tent_kernel_partial_sum(x, y, 10_000) - tent_kernel_reference(x, y))
        for x, y in rng.random((20, 2))
    )
    worst_quad = 0.0
    for k in range(1, 9):
        for l in range(1, 9):
            got = cosine_coeff_quadrature(lambda t, k=k: np.sin(2 * math.pi * k * tent(t)), l)
            worst_quad = max(worst_quad, abs(got - 0.5 * sin_tent_coeff(k, l)))
    sums_ok = True
    for l in (1, 3, 5, 7, 9):
        p1, c1 = appendix_inner_sum(l, "first", 1_000_000)
        sums_ok &= 0.0 <= c1 - p1 <= 1.0 / (4.0 * 1_000_000) + 1e-12
        p2, c2 = appendix_inner_sum(l, "second", 1_000_000)
        sums_ok &= abs(c2 - p2) <= 1e-12
    kk, ll = np.meshgrid(np.arange(1, 1001), np.arange(1, 1001), indexing="ij")
    vals = c_phi(kk, ll)
    coef_ok = bool(np.all(vals >= 0.0)
                   and np.all(vals <= C_PRIME / (kk.astype(float)**2 * ll.astype(float)**2) + 1e-15))
    elapsed = time.perf_counter() - start
    ok = worst_rec <= 5e-4 and worst_quad <= 1e-9 and sums_ok and coef_ok and elapsed < 30.0
    _report("criterion 5: appendix identities", ok,
            f"reconstruction {worst_rec:.2e}, quadrature {worst_quad:.2e}, "
            f"sums {'ok' if sums_ok else 'BAD'}, coef bound {'ok' if coef_ok else 'BAD'}, {elapsed:.1f}s")


def test_criterion_6_cbc_equivalence_and_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(43)
    primes = [p for p in range(2, 102) if is_prime(p)]
    mismatches = 0
    for p in primes:
        s = int(rng.integers(1, 6))
        gam = tuple(float(v) for v in rng.random(s))
        for kind, alpha in (("tent", None), ("sym", 2)):
            crit = CbcCriterion(kind=kind, base_weights=WeightScheme.product(gam), alpha=alpha)
            a = cbc_plain(p, s, crit)
            b = cbc_fast(p, s, crit)
            if a.z != b.z:
                mismatches += 1
            if any(abs(x - y) > 1e-12 * (1.0 + abs(x))
                   for x, y in zip(a.per_dimension_error, b.per_dimension_error)):
                mismatches += 1
    w5 = WeightScheme.product([1.0 / j**2 for j in range(1, 6)])
    bound_ok = True
    for N in (101, 251, 1009):
        for kind, alpha in (("tent", None), ("sym", 2)):
            crit = CbcCriterion(kind=kind, base_weights=w5, alpha=alpha)
            val = cbc_fast(N, 5, crit).per_dimension_error[-1]
            lam_lo = 0.5 if kind == "tent" else 1.0 / 2
            for lam in list(np.linspace(lam_lo + 0.05, 0.95, 5)) + [1.0]:
                bound_ok &= val <= corollary_bound(kind, w5, N, float(lam), alpha=alpha).value
    elapsed = time.perf_counter() - start
    _report("criterion 6: CBC fast == plain and construction bounds",
            mismatches == 0 and bound_ok and elapsed < 120.0,
            f"{mismatches} mismatches over primes <= 101, bounds {'ok' if bound_ok else 'BAD'}, {elapsed:.1f}s")


def test_criterion_7_bivariate_fibonacci_convergence():
    start = time.perf_counter()
    cfg = experiment_config("figure1")
    cfg = replace(cfg, N_list=tuple(n for n in cfg.N_list if n <= 6765))  # F_7..F_20
    res = run_experiment(cfg)
    window = (55, 6765)  # F_10..F_20
    in_window = [r for r in res.rows if window[0] <= r.N <= window[1]]
    slope_sym = slope_fit(in_window, "sym")
    slope_lat = slope_fit(in_window, "lattice")
    envelope_c = max(r.err_tent * r.N**1.7 for r in in_window[:3])
    tent_ok = all(r.err_tent <= envelope_c * r.N**-1.7 * (1 + 1e-12) for r in in_window)
    elapsed = time.perf_counter() - start
    ok = (-2.3 <= slope_sym <= -1.7) and (-1.3 <= slope_lat <= -0.8) and tent_ok and elapsed < 60.0
    _report("criterion 7: bivariate Fibonacci convergence", ok,
            f"sym slope {slope_sym:+.2f}, lattice slope {slope_lat:+.2f}, "
            f"tent under {envelope_c:.2f} N^-1.7: {tent_ok}, {elapsed:.1f}s")


def test_criterion_8_high_dimensional_convergence():
    start = time.perf_counter()
    details = []
    ok = True
    for name in ("f1_s20", "f2c1_s20", "f2c2_s20", "f1_s100"):
        cfg = experiment_config(name)
        cfg = replace(cfg, N_list=tuple(n for n in cfg.N_list if n <= 8191))  # near 2^6..2^13
        res = run_experiment(cfg)
        slope = slope_fit(res.rows, "tent")
        details.append(f"{name}: {slope:+.2f}")
        ok &= slope <= -1.7
    elapsed = time.perf_counter() - start
    ok &= elapsed < 600.0
    _report("criterion 8: high-dimensional tent convergence", ok,
            ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_9_structural_checks():
    rng = np.random.default_rng(44)
    count_ok = True
    for N in range(2, 65):
        for s in (1, 2, 3, 4):
            for _ in range(5):
                rule = _random_unit_rule(rng, N, s)
                ps = symmetrize(rank1_points(rule))
                expected = (1 << (s - 1)) * (N + 1) if N % 2 else (1 << (s - 1)) * N + 1
                if len(ps) != (1 << s) * N or distinct_count(ps) != expected:
                    count_ok = False
    char_ok = True
    for _ in range(100):
        s = int(rng.integers(1, 4))
        rule = _random_rule(rng, int(rng.integers(2, 64)), s)
        k = tuple(int(v) for v in rng.integers(-40, 41, size=s))
        if abs(character_sum(rule, k) - character_sum(rule, k, method="float")) > 1e-12:
            char_ok = False
    _report("criterion 9: point-set structure", count_ok and char_ok,
            f"distinct counts {'ok' if count_ok else 'BAD'}, "
            f"character sums {'ok' if char_ok else 'BAD'}")
