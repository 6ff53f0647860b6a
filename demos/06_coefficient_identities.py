"""The series identities that make the tent and reflection bounds work.

The tent-composed second-order Sobolev kernel expands into a double cosine
series whose coefficients c_phi(k, l) are a separable term plus 2/k^4 on the
diagonal, all bounded by c' / (k^2 l^2) with c' = 58/3 -- that single
constant drives the modified weights of the tent bound.  The
reflection-averaged kernel expands with coefficients c_sym(k, l, alpha) =
4 / (k l)^alpha plus 2/k^(2 alpha) on the diagonal, bounded by 6 / (k l)^alpha.
"""

from latticeqmc import (
    c_phi,
    c_sym,
    run_appendix_checks,
    sin_tent_coeff,
    tent_kernel_partial_sum,
)
from latticeqmc.fourier import tent_kernel_reference

print("coefficient samples:")
for k, l in ((1, 1), (1, 3), (2, 2), (2, 4), (1, 2)):
    print(f"  c_phi({k},{l}) = {c_phi(k, l):.6f}    c_sym({k},{l},2) = {c_sym(k, l, 2):.6f}")
print("  sin-of-tent coefficient (k=2, l=3):", sin_tent_coeff(2, 3))

print("\nreconstructing the tent kernel from the series at (0.3, 0.7):")
ref = tent_kernel_reference(0.3, 0.7)
for kmax in (10, 100, 1_000, 10_000):
    val = tent_kernel_partial_sum(0.3, 0.7, kmax)
    print(f"  kmax={kmax:6d}: {val:.10f}   |error| = {abs(val - ref):.2e}")
print(f"  closed form : {ref:.10f}")

print("\nfull identity check table (same as `latticeqmc verify-appendix`):")
for name, ok, detail in run_appendix_checks():
    print(f"  {'PASS' if ok else 'FAIL'}  {name}  {detail}")
