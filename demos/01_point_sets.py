"""Tour of rank-1 lattice point sets and their transforms.

A rank-1 rule places N points at the fractional parts of n z / N.  The tent
map folds them into a symmetric configuration; symmetrization reflects them
across every coordinate.  Both transforms keep all coordinates on the exact
grid i/N, which this library exploits to count points in integer arithmetic;
dual-lattice membership, k . z = 0 mod N, is an integer test too.
"""

from latticeqmc import (
    LatticeRule,
    distinct_count,
    fibonacci_rule,
    rank1_points,
    symmetrize,
    tent_transform,
)

rule = LatticeRule(N=5, z=(1, 2))
plain = rank1_points(rule)
print("plain rank-1 points, N=5, z=(1,2):")
print(plain.points)

print("\ntent-transformed (duplicates retained, cardinality preserved):")
print(tent_transform(plain).points)

sym = symmetrize(plain)
print(f"\nsymmetrized multiset: {len(sym)} listed points, "
      f"{distinct_count(sym)} distinct (2^(s-1)(N+1) = {2 * (5 + 1)})")

# The dual lattice indexes the Fourier modes the rule fails to integrate: the rule
# sums e^{2 pi i k . x} to 1 for k in it, to 0 for every other k.
print("\nk=(2,-1) in the dual (k . z = 0 mod N):", (2 * rule.z[0] - rule.z[1]) % rule.N == 0)

# Fibonacci rules: the classical two-dimensional family used in the
# bivariate convergence study.
fib = fibonacci_rule(10)
print(f"\nFibonacci rule m=10: N={fib.N}, z={fib.z}")

# Everything exports to CSV/JSON with 17 significant digits.
print("\nJSON export of the N=2 set:", rank1_points(LatticeRule(N=2, z=(1,))).to_json())
