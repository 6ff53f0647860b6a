"""Worst-case integration errors and their certified bounds.

Squared worst-case errors come from three routes that cross-check each other:

* the kernel quadratic form -1 + |P|^-2 sum_{x,y in P} K(x,y), valid for the
  unit-mean kernel families (closed-form Korobov and the Sobolev family);
* the group-collapsed Bernoulli closed form for rank-1 lattice rules in
  Korobov spaces, exact in O(N s) for product weights;
* truncated dual-lattice series with an exact tail (the truncated and full
  projected dual sums are both evaluated through the character-sum
  factorization, so the reported tail is the actual truncation remainder).

On top sit the tent and reflection bounds (squared criterion values with the
modified weights) and the prime-N construction bounds parameterized by
lambda.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .errors import DomainError, GuardError
from .fourier import C_PRIME
from .kernels import KernelSpec, SOBOLEV_FAMILIES, kernel_1d
from .lattice import LatticeRule, PointSet, rank1_points
from .numtheory import is_prime
from .special_functions import MAX_DEGREE, bernoulli_scaled, riemann_zeta
from .weights import WeightScheme

TENT_WEIGHT_FACTOR = C_PRIME / (4.0 * pi**4)
QUADRATIC_FORM_GUARD = 20_000
SUBSET_DIM_GUARD = 12
_BLOCK_ELEMS = 1 << 24
_ROW_BLOCK_ELEMS = 1 << 18

CRITERION_KINDS = ("tent", "sym", "plain_korobov")

REPORT_KINDS = (
    "exact_quadratic_form",
    "closed_form_lattice",
    "dual_series_truncated",
    "theorem_bound",
    "corollary_bound",
)


@dataclass(frozen=True)
class ErrorReport:
    """A squared worst-case error (or bound on one) with its provenance."""

    value: float
    kind: str
    truncation_kmax: int | None = None
    tail_estimate: float | None = None
    lam: float | None = None
    negative_clamp: float = 0.0

    def __post_init__(self):
        if self.kind not in REPORT_KINDS:
            raise DomainError(f"unknown report kind {self.kind!r}")
        if self.value < 0:
            raise DomainError("reported value must be nonnegative")
        if (self.tail_estimate is not None) != (self.kind == "dual_series_truncated"):
            raise DomainError("tail_estimate accompanies exactly the truncated-series kind")

    @property
    def root(self) -> float:
        return sqrt(self.value)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "kind": self.kind,
            "truncation_kmax": self.truncation_kmax,
            "tail_estimate": self.tail_estimate,
            "lambda": self.lam,
            "negative_clamp": self.negative_clamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _clamped(raw: float, kind: str, **kwargs) -> ErrorReport:
    return ErrorReport(value=max(raw, 0.0), kind=kind,
                       negative_clamp=max(-raw, 0.0), **kwargs)


# -- quadratic form ----------------------------------------------------------


def wce_sq_quadratic_form(spec: KernelSpec, ps: PointSet) -> ErrorReport:
    """-1 + |P|^-2 sum_{x,y in P} K(x, y) for unit-mean kernel families.

    Families whose kernel does not integrate to 1 over the cube are refused:
    they would need the full three-term error formula.
    """
    closed_korobov = spec.family == "korobov" and float(spec.alpha) == int(spec.alpha)
    if not (closed_korobov or spec.family in SOBOLEV_FAMILIES):
        raise DomainError(
            f"quadratic-form shortcut needs a unit-mean closed-form kernel, not {spec.family!r}"
        )
    if ps.s != spec.s:
        raise DomainError(f"point set dimension {ps.s} != weight dimension {spec.s}")
    m = len(ps)
    if m > QUADRATIC_FORM_GUARD:
        raise GuardError(f"{m} points exceed the O(|P|^2) guard of {QUADRATIC_FORM_GUARD}")
    x = ps.points
    block = max(1, _BLOCK_ELEMS // (m * ps.s))
    parts = []
    for lo in range(0, m, block):
        xb = x[lo : lo + block]
        eta = kernel_1d(spec.family, spec.alpha, xb[:, None, :], x[None, :, :]) - 1.0
        parts.append(np.sum(spec.weights.combine(eta)))
    raw = float(np.sum(parts)) / (m * m)  # the constant 1 cancels against -1
    return _clamped(raw, "exact_quadratic_form")


# -- Bernoulli closed form for lattice rules in Korobov spaces ---------------


def korobov_residue_table(alpha: int, N: int) -> np.ndarray:
    """w(r) = (-1)^(alpha+1) (2 pi)^(2 alpha) b_(2 alpha)(r / N) for r = 0..N-1."""
    r = np.arange(N, dtype=float) / N
    return (-1.0) ** (alpha + 1) * (2 * pi) ** (2 * alpha) * bernoulli_scaled(2 * alpha, r)


def wce_sq_korobov_lattice(alpha: int, weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Exact squared worst-case error of a rank-1 lattice rule in the weighted
    Korobov space of integer smoothness alpha, via the single-sum Bernoulli form.
    The N x s residues are made and summed in row blocks of about 2^18
    entries, so memory is O(N), not O(N s)."""
    if int(alpha) != alpha or alpha < 1:
        raise DomainError(f"alpha must be a positive integer, got {alpha}")
    if 2 * alpha > MAX_DEGREE:
        raise DomainError(f"alpha <= {MAX_DEGREE // 2} supported")
    if weights.s != rule.s:
        raise DomainError(f"weight dimension {weights.s} != rule dimension {rule.s}")
    N = rule.N
    table = korobov_residue_table(int(alpha), N)
    z = np.array(rule.z, dtype=np.int64)
    rows = max(1, _ROW_BLOCK_ELEMS // rule.s)
    total = 0.0
    for lo in range(0, N, rows):
        n_block = np.arange(lo, min(lo + rows, N), dtype=np.int64)
        total += float(np.sum(weights.combine(table[np.outer(n_block, z) % N])))
    return _clamped(total / N, "closed_form_lattice")


# -- modified weights and the construction criterion ------------------------


def tent_modified_weights(weights: WeightScheme) -> WeightScheme:
    """gamma'_u = gamma_u (c'/(4 pi^4))^|u| with c' = 58/3."""
    return weights.scaled_per_coordinate(TENT_WEIGHT_FACTOR)


def sym_modified_weights(alpha: int, weights: WeightScheme) -> WeightScheme:
    """gamma''_u = gamma_u (3 / (2^(2 alpha + 1) pi^(2 alpha)))^|u|, even alpha."""
    if alpha % 2 != 0 or alpha < 2:
        raise DomainError(f"alpha must be even and >= 2, got {alpha}")
    return weights.scaled_per_coordinate(3.0 / (2.0 ** (2 * alpha + 1) * pi ** (2 * alpha)))


@dataclass(frozen=True)
class CbcCriterion:
    """A construction criterion: which transform the rule is destined for.

    tent:          order-1 Korobov error with weights gamma'^(1/2)
    sym:           order-(alpha/2) Korobov error with weights gamma''^(1/2), even alpha
    plain_korobov: order-alpha Korobov error with the weights as given
    """

    kind: str
    base_weights: WeightScheme
    alpha: int | None = None

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise DomainError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "sym":
            if self.alpha is None or self.alpha % 2 != 0 or self.alpha < 2:
                raise DomainError("sym criterion needs an even alpha >= 2")
        if self.kind == "plain_korobov":
            if self.alpha is None or int(self.alpha) != self.alpha or self.alpha < 1:
                raise DomainError("plain criterion needs an integer alpha >= 1")

    @property
    def korobov_order(self) -> int:
        if self.kind == "tent":
            return 1
        if self.kind == "sym":
            return self.alpha // 2
        return int(self.alpha)

    def effective_weights(self) -> WeightScheme:
        if self.kind == "tent":
            return tent_modified_weights(self.base_weights).sqrt()
        if self.kind == "sym":
            return sym_modified_weights(self.alpha, self.base_weights).sqrt()
        return self.base_weights

    def leading_weights(self, s: int) -> WeightScheme:
        """The effective product or POD weights of the first s coordinates."""
        w = self.effective_weights()
        if w.s < s:
            raise DomainError(f"weights cover {w.s} coordinates, need {s}")
        if w.form == "product":
            return WeightScheme.product(w.gamma[:s])
        if w.form == "pod":
            return WeightScheme.pod(w.Gamma[:s], w.gamma[:s])
        raise DomainError("CBC supports product or POD weights only")

    def value(self, rule: LatticeRule) -> float:
        """The criterion of a full rule, recomputed from scratch."""
        eff = self.effective_weights()
        if eff.s != rule.s:
            eff = self.leading_weights(rule.s)
        return wce_sq_korobov_lattice(self.korobov_order, eff, rule).value


def _squared_criterion(crit: CbcCriterion, rule: LatticeRule) -> ErrorReport:
    """The criterion of the rule, squared.  It is computed at the rule's full
    dimension, so weights of another dimension are refused, not truncated."""
    value = wce_sq_korobov_lattice(crit.korobov_order, crit.effective_weights(), rule).value
    return ErrorReport(value=value**2, kind="theorem_bound")


# -- tent-transform bounds ---------------------------------------------------


def wce_tent_bound(weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Square of the tent criterion (order-1 Korobov error with weights
    gamma'^(1/2)): an upper bound for the squared error of the
    tent-transformed rule in the second-order Sobolev space."""
    return _squared_criterion(CbcCriterion("tent", weights), rule)


def _projected_dual_sums(rule: LatticeRule, weights: WeightScheme,
                         order: int, kmax: int) -> dict:
    """Truncated and full projected-dual sums sum_{k_u} prod 1/k_j^(2 order),
    for every nonempty subset u with nonzero weight.

    Both sums factor through characters of the lattice group:
    the box-truncated sum uses g(r) = 2 sum_{k<=kmax} cos(2 pi k r/N) / k^(2 order),
    the full sum uses the Bernoulli closed form of the same series.
    """
    if rule.s > SUBSET_DIM_GUARD:
        raise GuardError(f"subset enumeration limited to s <= {SUBSET_DIM_GUARD}")
    n = rule.N
    r = np.arange(n, dtype=float) / n
    chunk = max(1, _BLOCK_ELEMS // (8 * n))
    g_trunc = np.zeros(n)
    for lo in range(1, kmax + 1, chunk):
        k = np.arange(lo, min(lo + chunk, kmax + 1), dtype=float)
        g_trunc += 2.0 * np.sum(np.cos(2 * pi * r[:, None] * k) / k ** (2 * order), axis=1)
    g_full = korobov_residue_table(order, n)
    nums = rank1_points(rule).numerators
    m_trunc = g_trunc[nums]
    m_full = g_full[nums]
    out = {}
    for u, g in weights.nonempty_subsets():
        cols = [j - 1 for j in sorted(u)]
        s_trunc = float(np.mean(np.prod(m_trunc[:, cols], axis=1)))
        s_full = float(np.mean(np.prod(m_full[:, cols], axis=1)))
        out[u] = (g, s_trunc, s_full)
    return out


def _middle_term(modified: WeightScheme, order: int, rule: LatticeRule,
                 kmax: int) -> ErrorReport:
    """sum_u gamma_u (sum_{k_u in dual_u} prod 1/k_j^(2 order))^2, truncated at kmax,
    with the exact truncation remainder as tail_estimate."""
    if kmax < 1:
        raise DomainError("kmax must be positive")
    sums = _projected_dual_sums(rule, modified, order, kmax)
    value = 0.0
    tail = 0.0
    for _, (g, s_trunc, s_full) in sorted(sums.items(), key=lambda t: (len(t[0]), sorted(t[0]))):
        value += g * s_trunc**2
        tail += g * max(s_full**2 - s_trunc**2, 0.0)
    return ErrorReport(value=value, kind="dual_series_truncated",
                       truncation_kmax=kmax, tail_estimate=tail)


def wce_tent_middle_term(weights: WeightScheme, rule: LatticeRule,
                         kmax: int = 10_000) -> ErrorReport:
    """Truncated middle bound sum_u gamma'_u (sum_{k_u in dual_u} prod 1/k_j^2)^2.

    tail_estimate is the exact truncation remainder: the full inner sums have
    a Bernoulli closed form, so value + tail_estimate is the untruncated
    middle term (which sits between the exact tent error and the squared
    criterion bound).
    """
    return _middle_term(tent_modified_weights(weights), 1, rule, kmax)


# -- symmetrized-rule errors and bounds --------------------------------------


def _reflection_averaged_eta(alpha: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mean of K_odd+alpha(.,.) - 1 over the four reflections of (x, y)."""
    def f(a, b):
        return kernel_1d("sob_odd_alpha", alpha, a, b) - 1.0

    return 0.25 * (f(x, y) + f(1.0 - x, y) + f(x, 1.0 - y) + f(1.0 - x, 1.0 - y))


def wce_sym_exact(alpha: int, weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Exact squared worst-case error of the symmetrized rule in the
    odd+alpha Sobolev subspace (even alpha), via the reflection-averaged
    kernel on the base lattice: O(N^2 s) instead of (2^s N)^2 pairs."""
    if alpha % 2 != 0 or alpha < 2:
        raise DomainError(f"alpha must be even and >= 2, got {alpha}")
    if 2 * alpha > MAX_DEGREE:
        raise DomainError(f"alpha <= {MAX_DEGREE // 2} supported")
    if weights.s != rule.s:
        raise DomainError(f"weight dimension {weights.s} != rule dimension {rule.s}")
    if rule.N > QUADRATIC_FORM_GUARD:
        raise GuardError(f"N = {rule.N} exceeds the O(N^2) guard of {QUADRATIC_FORM_GUARD}")
    x = rank1_points(rule).points
    n = rule.N
    block = max(1, _BLOCK_ELEMS // (n * rule.s))
    parts = []
    for lo in range(0, n, block):
        xb = x[lo : lo + block]
        eta = _reflection_averaged_eta(int(alpha), xb[:, None, :], x[None, :, :])
        parts.append(np.sum(weights.combine(eta)))
    raw = float(np.sum(parts)) / (n * n)
    return _clamped(raw, "exact_quadratic_form")


def wce_sym_bound(alpha: int, weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Square of the sym criterion (order-(alpha/2) Korobov error with
    weights gamma''^(1/2))."""
    return _squared_criterion(CbcCriterion("sym", weights, alpha), rule)


def wce_sym_middle_term(alpha: int, weights: WeightScheme, rule: LatticeRule,
                        kmax: int = 10_000) -> ErrorReport:
    """Truncated middle bound for symmetrized rules (even alpha), analogous to
    the tent middle term with 1/k_j^alpha inner sums."""
    return _middle_term(sym_modified_weights(alpha, weights), alpha // 2, rule, kmax)


# -- prime-N construction bounds ---------------------------------------------


def corollary_bound(kind: str, weights: WeightScheme, N: int, lam: float,
                    alpha: int | None = None) -> ErrorReport:
    """The lambda-parameterized bound on the squared construction criterion
    for prime N:

        (1/(N-1))^(1/lambda) (sum_u gamma_u^(lambda/2) factor^|u|)^(1/lambda)

    with the tent factor 2^(1-l) c'^(l/2) zeta(2l) / pi^(2l) for l in (1/2, 1],
    or the reflection factor 3^(l/2) zeta(a l) / (2^((2a+1)l/2 - 1) pi^(a l))
    for even alpha and l in (1/alpha, 1].
    """
    if not is_prime(N):
        raise DomainError(f"the construction bound requires prime N, got {N}")
    if kind == "tent":
        if not 0.5 < lam <= 1.0:
            raise DomainError(f"lambda must lie in (1/2, 1], got {lam}")
        factor = 2.0 ** (1.0 - lam) * C_PRIME ** (lam / 2.0) * riemann_zeta(2.0 * lam) / pi ** (2.0 * lam)
    elif kind == "sym":
        if alpha is None or alpha % 2 != 0 or alpha < 2:
            raise DomainError("sym bound needs an even alpha >= 2")
        if not 1.0 / alpha < lam <= 1.0:
            raise DomainError(f"lambda must lie in (1/{alpha}, 1], got {lam}")
        factor = (
            3.0 ** (lam / 2.0) * riemann_zeta(alpha * lam)
            / (2.0 ** ((2 * alpha + 1) * lam / 2.0 - 1.0) * pi ** (alpha * lam))
        )
    else:
        raise DomainError(f"kind must be 'tent' or 'sym', got {kind!r}")
    powered = weights.powered(lam / 2.0)
    subset_sum = float(powered.combine(np.full((1, weights.s), factor))[0])
    value = (subset_sum / (N - 1)) ** (1.0 / lam)
    return ErrorReport(value=value, kind="corollary_bound", lam=lam)
