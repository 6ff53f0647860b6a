"""Convergence experiments: QMC errors of plain, tent-transformed, and
symmetrized lattice rules on smooth test integrands, as CSV tables with
fitted convergence rates.

Everything here is deterministic: Fibonacci rules for the bivariate study,
fast-CBC tent-criterion rules for the high-dimensional product integrands.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cbc import CbcCriterion, cbc_fast
from .errors import DomainError
from .kernels import _block_rows
from .lattice import (
    LatticeRule,
    _rank1_rows,
    _tent_numerators,
    distinct_count,
    fibonacci_rule,
    rank1_points,
    symmetrize,
)
from .numtheory import _integer, _real, _reals, fibonacci, nearest_prime
from .weights import WeightScheme
from .worst_case_error import C_PRIME

ERROR_FLOOR = 1e-15
C1 = 1.3  # the exponent of f1 in every study
CSV_HEADER = "N,points_used,err_lattice,err_tent,err_sym,parity"

_PRESETS = {  # name: (integrand, s, decay of omega_j and of the CBC weights, c2)
    "f1_s20": ("f1", 20, 2, 1.0), "f2c1_s20": ("f2", 20, 2, 1.0), "f2c2_s20": ("f2", 20, 2, 2.0),
    "f1_s100": ("f1", 100, 3, 1.0), "f2c1_s100": ("f2", 100, 3, 1.0), "f2c2_s100": ("f2", 100, 3, 2.0),
}
PRESET_NAMES = ("figure1", *_PRESETS)  # figure1: the bivariate integrand on Fibonacci rules
_OUTSIDE_THE_CUBE = "the integrands take points in [0, 1]^s, not outside it or NaN"


# -- integrands ---------------------------------------------------------------


def _coefficients(name: str, omega, c2) -> tuple[np.ndarray, float]:
    """omega as a flat float array (`_reals`) and c2 as a float (`_real`), and for f2
    refused unless omega > -1, where 1 + omega x^c2 stays positive on [0, 1]."""
    refusal = "the integrands take a finite omega and c2"
    w = _reals(omega, refusal).ravel()
    if name == "f2" and np.any(w <= -1.0):
        raise DomainError(f"f2 takes omega > -1, got {omega}")
    return w, _real(c2, refusal)


def integrand_eval(name: str, x, omega=(), c2: float = 1.0):
    """Evaluate a test integrand at points x in [0, 1]^s, of shape (m, s); f1 takes
    the exponent C1.  A point outside the cube, NaN included, is refused (`_reals`)."""
    x = np.atleast_2d(_reals(x, _OUTSIDE_THE_CUBE, 0.0, 1.0))
    if name == "bivar":
        if x.shape[1] != 2:
            raise DomainError("the bivariate integrand needs s = 2")
        return x[:, 1] * np.exp(x[:, 0] * x[:, 1]) / (math.e - 2.0)
    if name not in ("f1", "f2"):
        raise DomainError(f"unknown integrand {name!r}")
    w, c2 = _coefficients(name, omega, c2)
    if x.shape[1] != len(w):
        raise DomainError(f"need {x.shape[1]} coefficients, got {len(w)}")
    # the power is the one fresh (m, s) array, and the steps after it work on it in place
    # in the formula's order; x**c keeps numpy's scalar fast paths (x**2.0 is a square)
    if name == "f1":  # 1 + w (x^C1 - 1/(1 + C1))
        t = x**C1
        t -= 1.0 / (1.0 + C1)
        t *= w
    else:  # 1 + w / (1 + w x^c2)
        t = x**c2
        t *= w
        t += 1.0
        np.divide(w, t, out=t)
    t += 1.0
    return np.prod(t, axis=1)


def exact_integral(name: str, omega=(), c2: float = 1.0) -> float:
    """Closed-form integrals of the test integrands over the unit cube (f1 integrates
    to 1 for every exponent)."""
    w, c2 = _coefficients(name, omega, c2)
    if name in ("bivar", "f1"):
        return 1.0
    if name == "f2":
        if c2 == 1.0:
            return float(np.prod(1.0 + np.log1p(w)))
        if c2 == 2.0:  # a arctan(a) at omega = a^2 >= 0, -a artanh(a) at omega = -a^2
            a, neg = np.sqrt(np.abs(w)), w < 0
            t = np.where(neg, -np.arctanh(np.where(neg, a, 0.0)), np.arctan(a))
            return float(np.prod(1.0 + a * t))
        raise DomainError(f"no closed form for the second integrand with exponent {c2}")
    raise DomainError(f"unknown integrand {name!r}")


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    N_list: tuple[int, ...]
    dims: int
    integrand: str  # "bivar" on Fibonacci rules, f1 and f2 on fast-CBC tent rules
    omega: tuple[float, ...] = ()
    c2: float = 1.0
    cbc_gamma: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "N_list", tuple(_integer(N, "N") for N in self.N_list))
        object.__setattr__(self, "dims", _integer(self.dims, "dims"))
        if list(self.N_list) != sorted(set(self.N_list)):
            raise DomainError("N_list must be strictly increasing")
        if self.integrand == "bivar" and self.dims != 2:
            raise DomainError("Fibonacci rules are two-dimensional")


def experiment_config(name: str) -> ExperimentConfig:
    """The named experiment presets (N grids are defaults, override as needed)."""
    if name == "figure1":
        return ExperimentConfig(name=name, N_list=tuple(fibonacci(m) for m in range(7, 26)),
                                dims=2, integrand="bivar")
    if name not in _PRESETS:
        raise DomainError(f"unknown experiment {name!r}; choose from {PRESET_NAMES}")
    integrand, s, decay, c2 = _PRESETS[name]
    j = np.arange(1, s + 1, dtype=float)
    return ExperimentConfig(
        name=name, N_list=tuple(nearest_prime(2**p) for p in range(6, 15)), dims=s,
        integrand=integrand, omega=tuple(1.0 / j**decay), c2=c2,
        cbc_gamma=tuple(1.0 / (4.0 * C_PRIME * j**decay)),
    )


# -- running ------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    points_used: int
    err_lattice: float
    err_tent: float
    err_sym: float
    parity: str
    err_external: float = math.nan


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[ConvergenceRow, ...]
    vectors: dict[int, tuple[int, ...]]
    has_external: bool = False

    def to_csv_text(self) -> str:
        header = CSV_HEADER + (",err_external" if self.has_external else "")
        lines = [header]
        for r in self.rows:
            cells = [str(r.N), str(r.points_used), f"{r.err_lattice:.17g}",
                     f"{r.err_tent:.17g}", f"{r.err_sym:.17g}", r.parity]
            if self.has_external:
                cells.append(f"{r.err_external:.17g}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _fibonacci_rule_for(N: int) -> LatticeRule:
    m = 3
    while fibonacci(m) < N:
        m += 1
    if fibonacci(m) != N:
        raise DomainError(f"Fibonacci rules take N = F_m with m >= 3 (2, 3, 5, 8, ...), got {N}")
    return fibonacci_rule(m)


def _build_rule(cfg: ExperimentConfig, N: int) -> LatticeRule:
    if cfg.integrand == "bivar":
        return _fibonacci_rule_for(N)
    crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product(cfg.cbc_gamma))
    return cbc_fast(N, cfg.dims, crit).rule()


def run_experiment(cfg: ExperimentConfig, external_points=None) -> ExperimentResult:
    """Build the rule for each N, average the integrand over its plain and
    tent-transformed points (and symmetrized ones in the bivariate study),
    and tabulate absolute errors against the exact integral."""
    target = exact_integral(cfg.integrand, cfg.omega, cfg.c2)
    f = partial(integrand_eval, cfg.integrand, omega=cfg.omega, c2=cfg.c2)

    def error(values) -> float:
        return abs(float(np.mean(np.concatenate(values))) - target)

    def qmc_error(x, D=1) -> float:
        """|mean - target| over row blocks of x / float(D): numerators over D, or points, D = 1."""
        step = _block_rows(x.shape[1])
        return error([f(x[lo:lo + step] / float(D)) for lo in range(0, len(x), step)])

    ext = (None if external_points is None
           else np.atleast_2d(_reals(external_points, _OUTSIDE_THE_CUBE, 0.0, 1.0)))
    rows = []
    vectors = {}
    for N in cfg.N_list:
        rule = _build_rule(cfg, N)
        vectors[N] = rule.z
        step = _block_rows(rule.s)  # each row block of numerators, and its tent map, made once
        pairs = [(f(x / float(N)), f(_tent_numerators(x, N) / float(N)))
                 for x in (_rank1_rows(rule, lo, min(lo + step, N)) for lo in range(0, N, step))]
        err_lattice, err_tent = (error(values) for values in zip(*pairs))
        err_sym = math.nan
        points_used = N
        if cfg.integrand == "bivar":
            sym = symmetrize(rank1_points(rule))
            err_sym = qmc_error(sym.numerators, sym.denominator)
            points_used = distinct_count(sym)
        err_external = math.nan
        if ext is not None:
            if ext.shape[0] >= N and ext.shape[1] == cfg.dims:
                err_external = qmc_error(ext[:N])
            else:
                warnings.warn(f"external point file cannot serve N={N}, s={cfg.dims}")
        rows.append(ConvergenceRow(
            N=N, points_used=points_used, err_lattice=err_lattice, err_tent=err_tent,
            err_sym=err_sym, parity="even" if N % 2 == 0 else "odd",
            err_external=err_external,
        ))
    return ExperimentResult(config=cfg, rows=tuple(rows), vectors=vectors,
                            has_external=ext is not None)


def slope_fit(rows, column: str) -> float:
    """Least-squares slope of log(error) against log(N) over the given rows.

    Errors at or below the 1e-15 floor are dropped with a warning; at least
    three points must remain.
    """
    pts = []
    dropped = 0
    for r in rows:
        err = getattr(r, f"err_{column}")
        if not math.isfinite(err):
            continue
        if err <= ERROR_FLOOR:
            dropped += 1
            continue
        pts.append((math.log(r.N), math.log(err)))
    if dropped:
        warnings.warn(f"{dropped} error(s) at the 1e-15 floor excluded from the slope fit")
    if len(pts) < 3:
        raise DomainError(f"slope fit needs >= 3 usable rows, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    x = x - x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))


def fitted_slopes(result: ExperimentResult) -> dict[str, float | DomainError]:
    """The slope of every rule column present in the result, or the DomainError
    that refused its fit (never a silent NaN)."""
    out = {}
    columns = ["lattice", "tent"] + (["sym"] if result.config.integrand == "bivar" else [])
    columns += ["external"] if result.has_external else []
    for col in columns:
        try:
            out[col] = slope_fit(result.rows, col)
        except DomainError as exc:
            out[col] = exc
    return out
