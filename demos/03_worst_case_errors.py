"""Worst-case errors three ways, and the error-bound chains.

The squared worst-case error of a lattice rule in a Korobov space has an
exact O(N s) closed form at every alpha > 1/2 (Bernoulli polynomials at an
integer alpha <= 8, kappa's polylog form elsewhere); the kernel quadratic
form reproduces it to machine precision.  For transformed rules the library evaluates the exact
error, the middle term (its projected dual sums read exactly from the
residue table of the Bernoulli closed form, with no truncation), and the
squared-criterion upper bound: each dominates the previous one, and a line
reads VIOLATED where one does not.
"""

import math

import numpy as np

from latticeqmc import (
    CbcCriterion,
    KernelSpec,
    LatticeRule,
    WeightScheme,
    corollary_bound,
    rank1_points,
    tent_transform,
    wce_sq_korobov_lattice,
    wce_sq_quadratic_form,
    wce_sym_bound,
    wce_sym_exact,
    wce_tent_bound,
)


def chain(exact, middle, bound):
    """'' if exact <= middle <= bound to rounding, else ' VIOLATED'."""
    ok = exact <= middle * (1 + 1e-11) and middle <= bound * (1 + 1e-11)
    return "" if ok else "  VIOLATED"


# The one value you can check by hand: N=2, z=(1), alpha=1, gamma=1.
rule = LatticeRule(N=2, z=(1,))
w1 = WeightScheme.product([1.0])
print("squared error, closed form :", wce_sq_korobov_lattice(1, w1, rule).value)
print("squared error, quad form   :",
      wce_sq_quadratic_form(KernelSpec(family="korobov", alpha=1, weights=w1),
                            rank1_points(rule)).value)
print("pi^2 / 12                  :", math.pi**2 / 12)

# Off the Bernoulli tables (here alpha = 1.5) the residue table of the closed
# form and the Korobov kernel of the quadratic form both read kappa's polylog form.
rule5 = LatticeRule(N=101, z=(1, 27, 38))
w5 = WeightScheme.product([1.0, 0.5, 0.25])
print("\nalpha = 1.5, N=101:")
print(f"  closed form {wce_sq_korobov_lattice(1.5, w5, rule5).value:.15e}")
print(f"  quad form   "
      f"{wce_sq_quadratic_form(KernelSpec('korobov', 1.5, w5), rank1_points(rule5)).value:.15e}")

# A 3-d rule with decaying weights: the tent chain.
rule3 = LatticeRule(N=53, z=(1, 23, 14))
w3 = WeightScheme.product([1.0, 0.25, 1.0 / 9.0])
spec = KernelSpec(family="sobolev", alpha=2, weights=w3)
exact = wce_sq_quadratic_form(spec, tent_transform(rank1_points(rule3)))
mid = CbcCriterion("tent", w3).middle_term(rule3)
bound = wce_tent_bound(w3, rule3)
print("\ntent-transformed rule, N=53:")
print(f"  exact squared error   {exact.value:.6e}")
print(f"  middle term           {mid.value:.6e}")
print(f"  squared criterion     {bound.value:.6e}{chain(exact.value, mid.value, bound.value)}")

# The reflection (symmetrization) chain at alpha = 2 and 4.
for alpha in (2, 4):
    ex = wce_sym_exact(alpha, w3, rule3).value
    md = CbcCriterion("sym", w3, alpha).middle_term(rule3).value
    bd = wce_sym_bound(alpha, w3, rule3).value
    print(f"symmetrized rule, alpha={alpha}: exact {ex:.6e} <= middle {md:.6e}"
          f" <= bound {bd:.6e}{chain(ex, md, bd)}")

# Construction bounds: what any CBC-built vector is guaranteed to beat.
print("\nlambda sweep of the prime-N tent bound (N=53):")
for lam in (0.6, 0.8, 1.0):
    print(f"  lambda={lam:.1f}: {corollary_bound('tent', w3, 53, lam).value:.6e}")
