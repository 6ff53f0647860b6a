"""The two convergence studies, at a scale that runs in seconds.

Study one: a bivariate analytic integrand on Fibonacci lattices.  The plain
rule converges like N^-1; the tent-transformed and symmetrized rules reach
N^-2, the tent rule oscillating with the parity of N.

Study two: 20- and 100-dimensional product integrands on tent-transformed
rules built per N by the fast CBC algorithm with decaying weights; the
errors again fall like N^-2.
"""

from dataclasses import replace

from latticeqmc import experiment_config, fitted_slopes, run_experiment, slope_fit

cfg = experiment_config("figure1")
cfg = replace(cfg, N_list=tuple(n for n in cfg.N_list if n <= 6765))
res = run_experiment(cfg)
print("bivariate integrand on Fibonacci lattices:")
print(f"{'N':>6} {'used':>6} {'lattice':>10} {'tent':>10} {'sym':>10}  parity")
for r in res.rows:
    print(f"{r.N:6d} {r.points_used:6d} {r.err_lattice:10.2e} {r.err_tent:10.2e} "
          f"{r.err_sym:10.2e}  {r.parity}")
window = [r for r in res.rows if 55 <= r.N <= 6765]
print("slopes over the window N in [55, 6765]:")
for col in ("lattice", "tent", "sym"):
    print(f"  {col:8s} {slope_fit(window, col):+.2f}")

print("\nhigh-dimensional tent rules (CBC-built per N):")
for name in ("f1_s20", "f2c2_s20"):
    cfg = experiment_config(name)
    cfg = replace(cfg, N_list=cfg.N_list[:7])
    res = run_experiment(cfg)
    slopes = fitted_slopes(res)
    last = res.rows[-1]
    print(f"  {name}: slope {slopes['tent']:+.2f}, error at N={last.N}: {last.err_tent:.2e}")

print("\n(CSV export: run_experiment(...).to_csv_text(), or the CLI"
      " `latticeqmc experiment --name figure1 --out out.csv`)")
