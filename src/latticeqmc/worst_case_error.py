"""Worst-case integration errors and their certified bounds.

Squared worst-case errors come from three routes that cross-check each other:

* the kernel quadratic form -1 + |P|^-2 sum_{x,y in P} K(x,y), valid for the
  unit-mean kernel families (closed-form Korobov and the Sobolev family).
  One engine, `_quadratic_form`, serves both exact errors: the plain kernel
  on any point set (tent points among them), and for symmetrized rules the
  reflection-averaged kernel 1/2 [K(x,y) + K(x,1-y)] on the N base-lattice
  points instead of K on all 2^s N reflections.  It works on the integer
  numerators over the denominator D: equal rows (n and N - n fold together
  on tent points and under the reflection average) are summed once with
  their multiplicity, kernel symmetry leaves one triangle of the pairs, and
  the kernel is read from tables of D + 1 entries;
* the group-collapsed Bernoulli closed form for rank-1 lattice rules in
  Korobov spaces, exact in O(N s) for product weights;
* truncated dual-lattice series with an exact tail (the truncated and full
  projected dual sums are both evaluated through the character-sum
  factorization, so the reported tail is the actual truncation remainder).

On top sit the tent and reflection bounds (squared criterion values with the
modified weights) and the prime-N construction bounds parameterized by
lambda.  Every blocked sum here sizes its blocks from the one block budget
of `kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, pi, sqrt

import numpy as np

from .errors import DomainError, GuardError
from .fourier import C_PRIME
from .kernels import (DEFAULT_SERIES_KMAX, KernelSpec, _block_rows, _closed_form,
                      _integer_alpha, _korobov_closed_form, _lattice_tables, _table_order,
                      _tent_alpha)
from .lattice import LatticeRule, PointSet, rank1_points
from .numtheory import is_prime, primitive_root
from .special_functions import riemann_zeta
from .weights import WeightScheme

TENT_WEIGHT_FACTOR = C_PRIME / (4.0 * pi**4)
QUADRATIC_FORM_GUARD = 20_000
SUBSET_DIM_GUARD = 12

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
    """A squared worst-case error (or bound on one) with its provenance.
    A value or tail that is not finite (weights that overflow double
    precision) is refused with GuardError, never reported."""

    value: float
    kind: str
    truncation_kmax: int | None = None
    tail_estimate: float | None = None
    lam: float | None = None
    negative_clamp: float = 0.0

    def __post_init__(self):
        if self.kind not in REPORT_KINDS:
            raise DomainError(f"unknown report kind {self.kind!r}")
        if not (isfinite(self.value) and isfinite(self.tail_estimate or 0.0)):
            raise GuardError(f"{self.kind} value {self.value}, tail {self.tail_estimate}: the "
                             "weights overflow double precision")
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


def _power(x: float, p: float) -> float:
    """x ** p, or inf where Python's float power overflows (ErrorReport refuses it)."""
    try:
        return x**p
    except OverflowError:
        return inf


def _clamped(raw: float, kind: str, **kwargs) -> ErrorReport:
    return ErrorReport(value=max(raw, 0.0), kind=kind,
                       negative_clamp=max(-raw, 0.0), **kwargs)


# -- quadratic form ----------------------------------------------------------


def _quadratic_form(weights: WeightScheme, m: int, D: int, build) -> ErrorReport:
    """|P|^-2 sum_{x,y in P} weights.combine(eta(x, y)) for eta = K_1 - 1 of a
    unit-mean kernel (its constant 1 cancels against the -1), clamped at 0.

    build() gives the (m, s) numerators over D and tables of D + 1 entries,
    eta(a, b) = g[|a - b|] + sum_tau beta[tau][a] beta[tau][b] (+ g_sum[a + b]
    if given); it runs once m and D have passed the guard.  Each distinct row
    counts with its multiplicity mu; eta is symmetric, so the row block
    [lo, hi) of the r rows meets only the columns [lo, r): its own square
    once, the rest twice.  eta is made on (s, rows, columns) arrays, so that
    its passes run along the long axis."""
    if max(m, D) > QUADRATIC_FORM_GUARD:
        raise GuardError(f"{m} points over denominator {D}: both must be at most the "
                         f"O(|P|^2) guard of {QUADRATIC_FORM_GUARD}")
    nums, g, beta, g_sum = build()
    if nums.shape[1] != weights.s:
        raise DomainError(f"point dimension {nums.shape[1]} != weight dimension {weights.s}")
    rows, mu = np.unique(nums, axis=0, return_counts=True)
    rows, mu = np.ascontiguousarray(rows.T), mu.astype(float)
    r, step = len(mu), _block_rows(rows.size)
    total = 0.0
    # weights that overflow make the total non-finite, which ErrorReport refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, r, step):
            hi = min(lo + step, r)
            a, b = rows[:, lo:hi, None], rows[:, None, lo:]
            eta = g[np.abs(a - b)]
            if g_sum is not None:
                eta += g_sum[a + b]
            for t in beta.values():
                eta += t[a] * t[b]
            cols = 2.0 * mu[lo:]
            cols[:hi - lo] = mu[lo:hi]
            total += float(mu[lo:hi] @ weights.combine(np.moveaxis(eta, 0, -1)) @ cols)
    return _clamped(total / (m * m), "exact_quadratic_form")


def wce_sq_quadratic_form(spec: KernelSpec, ps: PointSet) -> ErrorReport:
    """-1 + |P|^-2 sum_{x,y in P} K(x, y) for unit-mean kernel families.

    Families whose kernel does not integrate to 1 over the cube are refused:
    they would need the full three-term error formula.
    """
    if not _closed_form(spec.family, spec.alpha):
        raise DomainError(
            f"quadratic-form shortcut needs a unit-mean closed-form kernel, not {spec.family!r}"
        )
    return _quadratic_form(spec.weights, len(ps), ps.denominator, lambda: (
        ps.numerators, *_lattice_tables(spec.family, spec.alpha, ps.denominator), None))


# -- Bernoulli closed form for lattice rules in Korobov spaces ---------------


def korobov_residue_table(alpha: int, N: int) -> np.ndarray:
    """w(r) = (-1)^(alpha+1) (2 pi)^(2 alpha) b_(2 alpha)(r / N) for r = 0..N-1.

    w(N - r) = w(r), and the table holds it bit for bit: r <= N/2 is
    evaluated and mirrored, so sums over the half points n <= N/2 and over
    another order of the points (the CBC sweep's) read the same values."""
    half = _korobov_closed_form(alpha, np.arange(N // 2 + 1, dtype=float) / N)
    return np.concatenate([half, half[N - N // 2 - 1 : 0 : -1]])


def _rader_half(N: int, g: int, h: int) -> np.ndarray:
    """perm[i] = g^i mod N for i < h, filled by doubling the known prefix."""
    perm = np.empty(h, dtype=np.int64)
    perm[0] = 1
    k = 1
    while k < h:
        m = min(k, h - k)
        perm[k : k + m] = perm[:m] * pow(g, k, N) % N
        k += m
    return perm


class _HalfOrder:
    """The half points of Z_N and the residue table w(r) = table[r], in the
    one order that both the CBC sweep and the closed form walk.

    The summand of a point n depends on n only through w(n z_j mod N), and
    w(r) = w(N - r), so the point n stands for n and N - n.  The half points
    are n = 0 (index 0) then cand[i] (index i + 1), counted mult times; the
    candidates z = cand[i] run over 1..N//2 once.  For prime N, with g a
    primitive root and h = N//2, cand[i] = min(g^i, N - g^i) (Rader order):
    g^h = -1 makes a[i] = w(cand[i]) of period h, so the residue of the
    point cand[k] under z = cand[j] is a[(k + j) mod h], a wrap-around slice
    of a.  Other N have no such order (non-units), so cand = 1..N//2 and a
    residue is a gather from the table."""

    def __init__(self, N: int, table: np.ndarray):
        h = N // 2
        self.N, self.table, self.a = N, table, None
        if is_prime(N):
            perm = _rader_half(N, primitive_root(N), h)
            self.cand = np.minimum(perm, N - perm, out=perm)
            self.a = table[self.cand]
        else:
            self.cand = np.arange(1, h + 1, dtype=np.int64)
        self.mult = np.concatenate(([1.0], np.where(2 * self.cand == N, 1.0, 2.0)))

    def index(self, z: np.ndarray) -> np.ndarray:
        """The i with cand[i] = min(z, N - z), for each entry of z in 1..N-1."""
        pos = np.empty(len(self.cand) + 1, dtype=np.int64)
        pos[self.cand] = np.arange(len(self.cand))
        return pos[np.minimum(z, self.N - z)]

    def residues(self, j, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """w(n cand[j] mod N) at the half points of index lo..hi-1, written
        to and returned as out[..., :hi - lo]; j is one index, or an array
        of them with one row of out each."""
        out = out[..., : hi - lo]
        if self.a is None:
            r = np.multiply.outer(self.cand[j], np.arange(lo, hi))
            np.remainder(r, self.N, out=r)
            # every index is already reduced mod N; "clip" keeps numpy from buffering out
            return np.take(self.table, r, out=out, mode="clip")
        rows, a = out.reshape(-1, hi - lo), self.a  # one row per index
        if lo == 0:
            rows[:, 0], rows, lo = self.table[0], rows[:, 1:], 1
        h, n = len(a), rows.shape[1]
        for k, row in zip(np.ravel(j).tolist(), rows):
            start = (lo - 1 + k) % h
            row[: h - start] = a[start : start + n]
            if start + n > h:  # wraps around the end of a
                row[h - start :] = a[: start + n - h]
        return out


def wce_sq_korobov_lattice(alpha: int, weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Exact squared worst-case error of a rank-1 lattice rule in the weighted
    Korobov space of integer smoothness alpha, via the single-sum Bernoulli form.
    The summand of n equals that of N - n (w(r) = w(N - r)), so the sum runs
    over the half points of `_HalfOrder` with their multiplicities, in the
    order of the CBC sweep: for prime N each coordinate's residues are a
    shift of one table.  The residues are made as (s, rows) blocks of one
    block budget, so memory is O(N), not O(N s)."""
    alpha = _table_order(_integer_alpha(alpha), alpha)
    if weights.s != rule.s:
        raise DomainError(f"weight dimension {weights.s} != rule dimension {rule.s}")
    order = _HalfOrder(rule.N, korobov_residue_table(alpha, rule.N))
    idx = order.index(np.array(rule.z, dtype=np.int64))
    mult = order.mult
    step = _block_rows(rule.s)
    eta = np.empty((rule.s, min(step, len(mult))))
    total = 0.0
    # weights that overflow make the total non-finite, which ErrorReport refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(mult), step):
            hi = min(lo + step, len(mult))
            total += float(mult[lo:hi] @ weights.combine(order.residues(idx, lo, hi, eta).T))
    return _clamped(total / rule.N, "closed_form_lattice")


# -- modified weights and the construction criterion ------------------------


def tent_modified_weights(weights: WeightScheme) -> WeightScheme:
    """gamma'_u = gamma_u (c'/(4 pi^4))^|u| with c' = 58/3."""
    return weights.scaled_per_coordinate(TENT_WEIGHT_FACTOR)


def sym_modified_weights(alpha: int, weights: WeightScheme) -> WeightScheme:
    """gamma''_u = gamma_u (3 / (2^(2 alpha + 1) pi^(2 alpha)))^|u|, even alpha."""
    alpha = _integer_alpha(alpha, 2)
    return weights.scaled_per_coordinate(3.0 / (2.0 ** (2 * alpha + 1) * pi ** (2 * alpha)))


@dataclass(frozen=True)
class CbcCriterion:
    """A construction criterion: which transform the rule is destined for.

    tent:          order-1 Korobov error with weights gamma'^(1/2), alpha None or 2
    sym:           order-(alpha/2) Korobov error with weights gamma''^(1/2), even alpha
    plain_korobov: order-alpha Korobov error with the weights as given
    """

    kind: str
    base_weights: WeightScheme
    alpha: int | None = None

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise DomainError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "tent":
            _tent_alpha(self.alpha)
        if self.kind == "sym":
            object.__setattr__(self, "alpha", _integer_alpha(self.alpha, 2))
        if self.kind == "plain_korobov":
            object.__setattr__(self, "alpha", _integer_alpha(self.alpha))
        _table_order(self.korobov_order, self.alpha)

    @property
    def korobov_order(self) -> int:
        if self.kind == "tent":
            return 1
        if self.kind == "sym":
            return self.alpha // 2
        return self.alpha

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
    return ErrorReport(value=_power(value, 2), kind="theorem_bound")


# -- tent-transform bounds ---------------------------------------------------


def wce_tent_bound(weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Square of the tent criterion (order-1 Korobov error with weights
    gamma'^(1/2)): an upper bound for the squared error of the
    tent-transformed rule in the second-order Sobolev space."""
    return _squared_criterion(CbcCriterion("tent", weights), rule)


def _truncated_residue_table(order: int, N: int, kmax: int) -> np.ndarray:
    """g(r) = 2 sum_{k<=kmax} cos(2 pi k r/N) / k^(2 order) for r = 0..N-1.

    cos(2 pi k r/N) depends only on k mod N, so g is the real part of the
    length-N DFT of the aliased sums A_c = sum_{k<=kmax, k = c mod N}
    k^(-2 order): O(kmax + N log N), not N kmax cosines.  The k run in
    blocks of the one block budget, so memory is O(N) whatever kmax."""
    aliased = np.zeros(N)
    step = _block_rows(1)
    for lo in range(1, kmax + 1, step):
        k = np.arange(lo, min(lo + step, kmax + 1))
        aliased += np.bincount(k % N, weights=k.astype(float) ** (-2 * order), minlength=N)
    return 2.0 * np.fft.fft(aliased).real


def _middle_term(modified: WeightScheme, order: int, rule: LatticeRule,
                 kmax: int) -> ErrorReport:
    """sum_u gamma_u (sum_{k_u in dual_u} prod 1/k_j^(2 order))^2, truncated at kmax,
    with the exact truncation remainder as tail_estimate.

    Both inner sums factor through characters of the lattice group: the
    box-truncated one uses g(r) = 2 sum_{k<=kmax} cos(2 pi k r/N) / k^(2 order)
    (`_truncated_residue_table`), the full one the Bernoulli closed form of
    the same series.
    """
    if kmax < 1:
        raise DomainError("kmax must be positive")
    if rule.s > SUBSET_DIM_GUARD:
        raise GuardError(f"subset enumeration limited to s <= {SUBSET_DIM_GUARD}")
    nums = rank1_points(rule).numerators
    m_trunc = _truncated_residue_table(order, rule.N, kmax)[nums]
    m_full = korobov_residue_table(order, rule.N)[nums]
    value = tail = 0.0
    for u, g in sorted(modified.nonempty_subsets(), key=lambda t: (len(t[0]), sorted(t[0]))):
        cols = [j - 1 for j in sorted(u)]
        s_trunc = float(np.mean(np.prod(m_trunc[:, cols], axis=1)))
        s_full = float(np.mean(np.prod(m_full[:, cols], axis=1)))
        value += g * s_trunc**2
        tail += g * max(s_full**2 - s_trunc**2, 0.0)
    return ErrorReport(value=value, kind="dual_series_truncated",
                       truncation_kmax=kmax, tail_estimate=tail)


def wce_tent_middle_term(weights: WeightScheme, rule: LatticeRule,
                         kmax: int = DEFAULT_SERIES_KMAX) -> ErrorReport:
    """Truncated middle bound sum_u gamma'_u (sum_{k_u in dual_u} prod 1/k_j^2)^2.

    tail_estimate is the exact truncation remainder: the full inner sums have
    a Bernoulli closed form, so value + tail_estimate is the untruncated
    middle term (which sits between the exact tent error and the squared
    criterion bound).
    """
    return _middle_term(tent_modified_weights(weights), 1, rule, kmax)


# -- symmetrized-rule errors and bounds --------------------------------------


def wce_sym_exact(alpha: int, weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Exact squared worst-case error of the symmetrized rule in the
    odd+alpha Sobolev subspace (even alpha): the quadratic form of the
    reflection-averaged kernel on the base lattice, O(N^2 s) instead of
    (2^s N)^2 pairs.

    b_tau(1 - t) = (-1)^tau b_tau(t) makes K = K_odd+alpha invariant under
    reflecting both arguments, so its average over the four reflections of
    (x, y) is 1/2 [K(x, y) + K(x, 1 - y)].  There the odd tau cancel, leaving
    eta = b_alpha(x) b_alpha(y) + 1/2 [G(|x - y|) + G(|x + y - 1|)] with
    G(t) = -b_(2 alpha)(t) = G(1 - t).  eta is unchanged by x -> 1 - x, so
    each numerator a becomes min(a, N - a), which folds row N - n onto row
    n.  Then a + b <= N, and G(|x + y - 1|) = G(x + y) is read at a + b in
    the table of N + 1 entries.
    """
    alpha = _integer_alpha(alpha, 2)
    N = rule.N

    def build():
        g, beta = _lattice_tables("sob_odd_alpha", alpha, N)
        nums = rank1_points(rule).numerators
        return np.minimum(nums, N - nums), 0.5 * g, {alpha: beta[alpha]}, 0.5 * g

    return _quadratic_form(weights, N, N, build)


def wce_sym_bound(alpha: int, weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Square of the sym criterion (order-(alpha/2) Korobov error with
    weights gamma''^(1/2))."""
    return _squared_criterion(CbcCriterion("sym", weights, alpha), rule)


def wce_sym_middle_term(alpha: int, weights: WeightScheme, rule: LatticeRule,
                        kmax: int = DEFAULT_SERIES_KMAX) -> ErrorReport:
    """Truncated middle bound for symmetrized rules (even alpha), analogous to
    the tent middle term with 1/k_j^alpha inner sums."""
    alpha = _integer_alpha(alpha, 2)
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
        _tent_alpha(alpha)
        if not 0.5 < lam <= 1.0:
            raise DomainError(f"lambda must lie in (1/2, 1], got {lam}")
        factor = 2.0 ** (1.0 - lam) * C_PRIME ** (lam / 2.0) * riemann_zeta(2.0 * lam) / pi ** (2.0 * lam)
    elif kind == "sym":
        alpha = _integer_alpha(alpha, 2)
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
    value = _power(subset_sum / (N - 1), 1.0 / lam)
    return ErrorReport(value=value, kind="corollary_bound", lam=lam)
