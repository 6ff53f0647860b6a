"""The reproducing kernels behind every error computation.

Six univariate families: Korobov (periodic), half-period cosine, their sum,
the non-periodic Sobolev kernel, and the odd / odd+alpha Sobolev subspace
kernels.  Integer-smoothness kernels have Bernoulli closed forms (the cosine
families through kappa(t) = 2 sum_k cos(2 pi k t) / k^(2 alpha)); at every
other alpha kappa has a closed form too, the polylog expansion in 2 pi t, so
no kernel is a truncated series.
"""

import numpy as np

from latticeqmc import KernelSpec, WeightScheme, kernel, kernel_1d

print("closed forms at x = y = 0.3:")
for family, alpha in (("korobov", 1), ("sobolev", 2), ("sob_odd", 4), ("sob_odd_alpha", 4)):
    print(f"  {family:14s} alpha={alpha}: {kernel_1d(family, alpha, 0.3, 0.3):.12f}")

# kappa is in closed form at every alpha: Bernoulli polynomials at integer alpha,
# its polylog expansion elsewhere.  The defining series 1 + 2 sum_k cos(pi k x)
# cos(pi k y) / k^(2 alpha), cut at kmax, still misses up to 2 sum_{k>kmax}
# k^(-2 alpha) < 2 kmax^(1 - 2 alpha) / (2 alpha - 1): 2e-4 at kmax = 10^4 and
# alpha = 1, 1e-8 at alpha = 1.5.
for alpha in (1, 1.5):
    closed = kernel_1d("cosine", alpha, 0.2, 0.7)
    print(f"\ncosine alpha={alpha} in closed form: {closed:.15f}")
    for kmax in (100, 1_000, 10_000):
        k = np.arange(1, kmax + 1, dtype=float)
        terms = np.cos(np.pi * k * 0.2) * np.cos(np.pi * k * 0.7) / k ** (2 * alpha)
        series = 1.0 + 2.0 * float(np.sum(terms))
        gap, bound = abs(series - closed), 2.0 * kmax ** (1 - 2 * alpha) / (2 * alpha - 1)
        verdict = "ok" if gap <= bound + 1e-14 else "VIOLATED"
        print(f"  series to kmax={kmax:6d}: {series:.15f}  gap {gap:.2e} <= {bound:.2e}  {verdict}")

# At alpha = 2 the odd+alpha subspace kernel IS the full Sobolev kernel;
# at alpha = 1 all Sobolev-family kernels coincide.
x, y = np.random.default_rng(0).random((2, 4))
print("\nsob_odd_alpha(2) - sobolev(2):",
      np.max(np.abs(kernel_1d("sob_odd_alpha", 2, x, y) - kernel_1d("sobolev", 2, x, y))))

# Multivariate kernels combine coordinates through a weight scheme.
w = WeightScheme.product([1.0, 0.25, 0.0625])
spec = KernelSpec(family="sobolev", alpha=2, weights=w)
pt_a = np.array([0.1, 0.5, 0.9])
pt_b = np.array([0.3, 0.3, 0.3])
print("\nweighted 3-d Sobolev kernel:", kernel(spec, pt_a, pt_b))
