"""Integrands, exact integrals, experiment harness, slope fitting."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from latticeqmc.errors import DomainError
from latticeqmc.experiments import (
    C1,
    ConvergenceRow,
    exact_integral,
    experiment_config,
    fitted_slopes,
    integrand_eval,
    run_experiment,
    slope_fit,
)
from latticeqmc.lattice import LatticeRule, rank1_points, symmetrize
from latticeqmc.quadrature import composite_gauss_legendre


def test_integrand_values():
    assert integrand_eval("bivar", [[0.0, 0.0]])[0] == 0.0
    assert integrand_eval("bivar", [[1.0, 1.0]])[0] == pytest.approx(math.e / (math.e - 2.0))
    # f1 at x = 1 is 1 + omega (1 - 1/(1 + C1)), with C1 = 1.3
    assert integrand_eval("f1", [[1.0]], omega=[1.0])[0] == pytest.approx(2.0 - 1.0 / 2.3)
    assert integrand_eval("f2", [[0.0]], omega=[1.0], c2=1.0)[0] == pytest.approx(2.0)
    with pytest.raises(DomainError):
        integrand_eval("nope", [[0.5]])
    with pytest.raises(DomainError):
        integrand_eval("bivar", [[0.5]])


@pytest.mark.parametrize("name,c2", [("f1", 1.0), ("f2", 1.0), ("f2", 2.0)])
def test_integrand_eval_leaves_the_callers_points_unchanged(name, c2):
    """f1 and f2 work in place on the power of x, a fresh array, never on x, and
    give the bits of the formula written as one expression."""
    x = np.random.default_rng(0).random((6, 3))
    before = x.copy()
    w = np.array([1.0, 0.5, 0.25])
    values = integrand_eval(name, x, omega=w, c2=c2)
    np.testing.assert_array_equal(x, before)
    if name == "f1":
        want = np.prod(1.0 + w * (x**C1 - 1.0 / (1.0 + C1)), axis=1)
    else:
        want = np.prod(1.0 + w / (1.0 + w * x**c2), axis=1)
    assert np.array_equal(values, want)


def test_exact_integrals():
    assert exact_integral("bivar") == 1.0
    assert exact_integral("f1", omega=[1.0, 2.0]) == 1.0
    assert exact_integral("f2", omega=[1.0, 1.0], c2=1.0) == pytest.approx((1 + math.log(2.0)) ** 2)
    assert exact_integral("f2", omega=[1.0], c2=2.0) == pytest.approx(1.0 + math.atan(1.0))
    with pytest.raises(DomainError):
        exact_integral("f2", omega=[1.0], c2=3.0)


def test_exact_integrals_against_quadrature():
    """Cross-check the closed forms with a dense tensor Gauss grid (s = 2)."""
    x, w = np.polynomial.legendre.leggauss(48)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    grid = np.array([[a, b] for a in x for b in x])
    wgt = np.array([wa * wb for wa in w for wb in w])
    for name, kwargs, tol in (
        ("bivar", {}, 1e-12),
        ("f1", {"omega": (1.0, 0.5)}, 1e-7),  # x^1.3 (default c1) kink at 0 slows Gauss
        ("f2", {"omega": (1.0, 0.5), "c2": 1.0}, 1e-12),
        ("f2", {"omega": (1.0, 0.5), "c2": 2.0}, 1e-12),
    ):
        quad = float(wgt @ integrand_eval(name, grid, **kwargs))
        assert quad == pytest.approx(exact_integral(name, **kwargs), abs=tol)


def test_f2_integral_at_negative_omega_against_quadrature():
    """-1 < omega < 0: at c2 = 2 the integral of omega / (1 + omega x^2) is
    -a artanh(a) with a = sqrt(-omega), as sqrt(omega) has no real value; at
    c2 = 1 it is log1p(omega).  64-panel Gauss-Legendre in 1-d."""
    for omega in (-0.5, -0.9, -0.1):
        for c2 in (1.0, 2.0):
            quad = composite_gauss_legendre(
                lambda x: integrand_eval("f2", x[:, None], omega=[omega], c2=c2), 64)
            assert exact_integral("f2", omega=[omega], c2=c2) == pytest.approx(quad, rel=1e-14)
    assert exact_integral("f2", omega=[-0.5], c2=2.0) == pytest.approx(0.3767747598597695,
                                                                       rel=1e-15)


def test_symmetrized_average_equals_reflected_averages():
    rng = np.random.default_rng(21)
    for _ in range(5):
        s = int(rng.integers(1, 4))
        N = int(rng.integers(2, 30))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rule = LatticeRule(N=N, z=tuple(int(v) for v in rng.integers(1, N, size=s)))
        plain = rank1_points(rule)
        omega = tuple(rng.random(s))
        q_sym = float(np.mean(integrand_eval("f2", symmetrize(plain).points, omega=omega)))
        acc = []
        for mask in range(1 << s):
            pts = plain.points.copy()
            for j in range(s):
                if mask >> j & 1:
                    pts[:, j] = 1.0 - pts[:, j]
            acc.append(float(np.mean(integrand_eval("f2", pts, omega=omega))))
        assert abs(q_sym - float(np.mean(acc))) <= 1e-13


def test_slope_fit_power_laws():
    def rows_from(errs, Ns):
        return [ConvergenceRow(N=n, points_used=n, err_lattice=e, err_tent=e,
                               err_sym=e, parity="odd") for n, e in zip(Ns, errs)]

    Ns = [8, 16, 32, 64, 128]
    rows = rows_from([c * n**-2.0 for n, c in zip(Ns, [3.0] * 5)], Ns)
    assert slope_fit(rows, "lattice") == pytest.approx(-2.0, abs=1e-12)
    rows = rows_from([5.0 / n for n in Ns], Ns)
    assert slope_fit(rows, "tent") == pytest.approx(-1.0, abs=1e-12)
    rows = rows_from([0.25] * 5, Ns)
    assert slope_fit(rows, "sym") == pytest.approx(0.0, abs=1e-12)


def test_slope_fit_floor_exclusion_and_window():
    rows = [ConvergenceRow(N=n, points_used=n, err_lattice=1.0 / n, err_tent=math.nan,
                           err_sym=0.0, parity="odd") for n in (2, 4, 8, 16)]
    with pytest.warns(UserWarning):
        with pytest.raises(DomainError):
            slope_fit(rows, "sym")
    with pytest.raises(DomainError):
        slope_fit([r for r in rows if 2 <= r.N <= 4], "lattice")


def test_config_validation():
    with pytest.raises(DomainError):
        experiment_config("unknown")
    cfg = experiment_config("figure1")
    with pytest.raises(DomainError):
        replace(cfg, N_list=(21, 13))
    with pytest.raises(DomainError):
        replace(cfg, dims=30)  # Fibonacci rules are two-dimensional


def test_figure1_small_run():
    cfg = experiment_config("figure1")
    cfg = replace(cfg, N_list=(13, 21, 34))
    res = run_experiment(cfg)
    assert [r.N for r in res.rows] == [13, 21, 34]
    r13 = res.rows[0]
    assert r13.points_used == 28  # 2^(s-1)(N+1) distinct points at N=13
    assert r13.parity == "odd" and res.rows[2].parity == "even"
    assert all(np.isfinite([r.err_lattice, r.err_tent, r.err_sym]).all() for r in res.rows)
    assert res.vectors[13] == (1, 8)
    text = res.to_csv_text()
    assert text.splitlines()[0] == "N,points_used,err_lattice,err_tent,err_sym,parity"
    assert len(text.splitlines()) == 4


def test_cbc_experiment_small_run_and_external_points():
    cfg = experiment_config("f1_s20")
    cfg = replace(cfg, N_list=(67, 127, 257))
    rng = np.random.default_rng(42)
    ext = rng.random((257, 20))
    res = run_experiment(cfg, external_points=ext)
    assert res.has_external
    for r in res.rows:
        assert math.isfinite(r.err_external)
        assert math.isnan(r.err_sym)  # sym not run in high dimension
        assert r.points_used == r.N
    assert "err_external" in res.to_csv_text().splitlines()[0]
    # tent beats plain Monte-Carlo-style external points at these sizes
    assert res.rows[-1].err_tent < res.rows[-1].err_external


def test_external_points_too_short_warns():
    cfg = experiment_config("f1_s20")
    cfg = replace(cfg, N_list=(67,))
    with pytest.warns(UserWarning):
        res = run_experiment(cfg, external_points=np.random.default_rng(1).random((10, 20)))
    assert math.isnan(res.rows[0].err_external)


def test_fitted_slopes_dict():
    cfg = replace(experiment_config("figure1"), N_list=(13, 21, 34, 55, 89))
    res = run_experiment(cfg)
    slopes = fitted_slopes(res)
    assert set(slopes) == {"lattice", "tent", "sym"}
    assert slopes["sym"] < -1.0


def test_fitted_slopes_are_nan_where_too_few_rows_fit():
    """Where too few rows fit, the slope is the DomainError that refused the fit,
    never a silent NaN; the CLI prints that refusal."""
    res = run_experiment(replace(experiment_config("figure1"), N_list=(13, 21)))
    slopes = fitted_slopes(res)
    assert set(slopes) == {"lattice", "tent", "sym"}
    for fit in slopes.values():
        assert isinstance(fit, DomainError) and "slope fit needs >= 3 usable rows" in str(fit)


@pytest.mark.parametrize("budget", [None, 7])
def test_errors_come_from_numerator_blocks_with_the_bits_of_the_float_view(monkeypatch, budget):
    """run_experiment never reads PointSet.points: it evaluates row blocks of the
    numerators, here one block or one to three rows per block, and its errors
    equal those from the full float view with ==.  The f1 study builds no point
    set at all: its lattice and tent numerators are made block by block."""
    from latticeqmc import experiments, kernels
    from latticeqmc.lattice import PointSet, tent_transform

    if budget is not None:
        monkeypatch.setattr(kernels, "_BLOCK_BUDGET", budget)
    configs = [replace(experiment_config("figure1"), N_list=(13, 21, 34, 55, 89)),
               replace(experiment_config("f1_s20"), N_list=(67, 127))]
    with monkeypatch.context() as patch:
        def refuse(*args, **kwargs):
            raise AssertionError("the float view, or a whole point set, was built")
        patch.setattr(PointSet, "points", property(refuse))
        results = [run_experiment(configs[0])]
        # rank1_points and tent_transform, the latter through the PointSet it builds
        patch.setattr(experiments, "rank1_points", refuse)
        patch.setattr(PointSet, "__post_init__", refuse)
        results.append(run_experiment(configs[1]))

    for cfg, res in zip(configs, results):
        target = exact_integral(cfg.integrand, cfg.omega, cfg.c2)

        def error(ps):
            return abs(float(np.mean(integrand_eval(cfg.integrand, ps.points, cfg.omega,
                                                    cfg.c2))) - target)

        for r in res.rows:
            plain = rank1_points(LatticeRule(r.N, res.vectors[r.N]))
            assert r.err_lattice == error(plain)
            assert r.err_tent == error(tent_transform(plain))
            if cfg.integrand == "bivar":
                assert r.err_sym == error(symmetrize(plain))


def test_f1_s100_holds_no_whole_point_set():
    """At N = 16381, s = 100 the plain and tent numerators were 13 MB each as whole
    arrays (a 39.3 MB traced peak); made block by block, the run with its fast CBC
    peaks at 8.7 MB and stays under 12 MB."""
    cfg = replace(experiment_config("f1_s100"), N_list=(16381,))
    run_experiment(cfg)  # the first call's one-off tables are not the run's
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


@pytest.mark.parametrize("name,N_list", [("figure1", (13, 21, 34)), ("f1_s20", (67, 127))])
def test_the_rule_as_external_points_gives_the_lattice_error(name, N_list):
    """External points equal to the rule's own .points go through the blocked
    mean the rule takes, so err_external == err_lattice at each N."""
    cfg = replace(experiment_config(name), N_list=N_list)
    vectors = run_experiment(cfg).vectors
    for N in N_list:
        points = rank1_points(LatticeRule(N, vectors[N])).points
        (row,) = run_experiment(replace(cfg, N_list=(N,)), external_points=points).rows
        assert row.err_external == row.err_lattice


@pytest.mark.parametrize("call,fragment", [
    pytest.param(lambda: integrand_eval("f1", [[0.5, 0.5]], omega=[1.0]),
                 "need 2 coefficients, got 1", id="integrand_eval/omega"),
    pytest.param(lambda: integrand_eval("nope", [[0.5]], omega=[1.0]), "unknown integrand 'nope'",
                 id="integrand_eval/name"),
    pytest.param(lambda: integrand_eval("nope", [[0.5]]), "unknown integrand 'nope'",
                 id="integrand_eval/name_before_omega"),
    pytest.param(lambda: exact_integral("nope"), "unknown integrand 'nope'",
                 id="exact_integral/name"),
    pytest.param(lambda: integrand_eval("f1", [[0.5, 1.7]], omega=[1.0, 0.5]),
                 "the integrands take points in [0, 1]^s", id="integrand_eval/above"),
    pytest.param(lambda: integrand_eval("f2", [[-0.5]], omega=[1.0]),
                 "the integrands take points in [0, 1]^s", id="integrand_eval/below"),
    pytest.param(lambda: integrand_eval("bivar", [[0.5, math.nan]]),
                 "the integrands take points in [0, 1]^s", id="integrand_eval/nan"),
    pytest.param(lambda: integrand_eval("f1", [[0.5]], omega=[math.nan]),
                 "the integrands take a finite omega and c2", id="integrand_eval/omega_nan"),
    pytest.param(lambda: integrand_eval("f2", [[0.5]], omega=[1.0], c2=math.inf),
                 "the integrands take a finite omega and c2", id="integrand_eval/c2_inf"),
    pytest.param(lambda: exact_integral("f2", omega=[math.inf], c2=1.0),
                 "the integrands take a finite omega and c2", id="exact_integral/omega_inf"),
    pytest.param(lambda: exact_integral("f1", omega=[math.nan]),
                 "the integrands take a finite omega and c2", id="exact_integral/omega_nan"),
    # at omega <= -1, 1 + omega x^c2 reaches 0 on [0, 1]: f2 has a pole there
    pytest.param(lambda: integrand_eval("f2", [[1.0]], omega=[-1.0]),
                 "f2 takes omega > -1", id="integrand_eval/f2_omega_minus_1"),
    pytest.param(lambda: integrand_eval("f2", [[0.5, 0.5]], omega=[0.5, -2.0], c2=2.0),
                 "f2 takes omega > -1", id="integrand_eval/f2_omega_below"),
    pytest.param(lambda: exact_integral("f2", omega=[-2.0]),
                 "f2 takes omega > -1", id="exact_integral/f2_omega_minus_2"),
    pytest.param(lambda: exact_integral("f2", omega=[0.5, -1.0], c2=2.0),
                 "f2 takes omega > -1", id="exact_integral/f2_c2_omega_minus_1"),
    pytest.param(lambda: replace(experiment_config("figure1"), dims=3),
                 "Fibonacci rules are two-dimensional", id="config/bivar_dims"),
])
def test_refusals(call, fragment):
    with pytest.raises(DomainError, match=re.escape(fragment)):
        call()
