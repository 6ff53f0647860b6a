"""Component-by-component construction, plain and FFT-accelerated.

The greedy search fixes z_1 = 1 and, for each further coordinate, picks the
candidate minimizing the exact squared criterion of the prefix rule.  z and
N - z always score the same, so only z = 1..N//2 are scored.  For prime N
the candidate sweep is a circular correlation after primitive-root
reindexing, which folds to one real correlation of length (N-1)/2, so the
fast path needs O(N log N) per dimension instead of O(N^2).  Both paths
share a deterministic tie rule and return identical vectors.
"""

import time

from latticeqmc import CbcCriterion, WeightScheme, cbc_fast, cbc_plain, corollary_bound

gamma = [1.0 / j**2 for j in range(1, 9)]
crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product(gamma))

t0 = time.perf_counter()
plain = cbc_plain(127, 8, crit)
t1 = time.perf_counter()
fast = cbc_fast(127, 8, crit)
t2 = time.perf_counter()
print("N=127, s=8, tent criterion, gamma_j = j^-2")
print("  plain z:", plain.z, f"({(t1 - t0) * 1e3:.1f} ms)")
print("  fast  z:", fast.z, f"({(t2 - t1) * 1e3:.1f} ms)")
print("  criterion per dimension:", [f"{v:.3e}" for v in fast.per_dimension_error])

# the speedup becomes decisive at larger N
t0 = time.perf_counter()
big = cbc_fast(8191, 20, CbcCriterion(kind="tent",
                                      base_weights=WeightScheme.product([1.0 / j**2 for j in range(1, 21)])))
print(f"\nN=8191, s=20 fast construction: {time.perf_counter() - t0:.2f}s, z[:6]={big.z[:6]}")

# reflection criterion for symmetrized rules (even smoothness)
sym = cbc_fast(127, 4, CbcCriterion(kind="sym", base_weights=WeightScheme.product(gamma[:4]), alpha=4))
print("\nN=127, s=4, reflection criterion at alpha=4:", sym.z)

# every constructed vector is certified by the lambda-family of bounds
w = WeightScheme.product(gamma)
val = fast.per_dimension_error[-1]
print("\ncertificates for the tent vector (criterion value %.3e):" % val)
for lam in (0.6, 0.8, 1.0):
    b = corollary_bound("tent", w, 127, lam).value
    print(f"  lambda={lam:.1f}: bound {b:.3e}  ({'holds' if val <= b else 'VIOLATED'})")
