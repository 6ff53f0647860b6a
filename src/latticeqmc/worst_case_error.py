"""Worst-case integration errors and their certified bounds.

Squared worst-case errors come from three routes that cross-check each other:

* the kernel quadratic form -1 + |P|^-2 sum_{x,y in P} K(x,y), valid for the
  unit-mean kernels: all six families at every alpha they take, the Korobov
  and cosine families off the Bernoulli tables through kappa in closed form.
  Both exact errors sum the pairs of integer numerators over a denominator D
  through one formula (`_eta`), the plain kernel on any point set (tent
  points among them), and for symmetrized rules the reflection-averaged
  kernel 1/2 [K(x,y) + K(x,1-y)] on the N base-lattice points instead of K
  on all 2^s N reflections.  After one guard (`_guard`) each entry calls one
  of two pair layouts itself.  `_row_pairs` takes any point set: equal rows
  (n and N - n fold together on tent points and under the reflection
  average) are summed once with their multiplicity, and kernel symmetry
  leaves one triangle of the pairs.  `_shift_pairs` takes a rank-1 rule at
  an odd prime N and its table of folded numerators (tent points, or the
  sym error): in the Rader order of `_HalfOrder` every coordinate's
  numerators are one cyclic shift of a single sequence, so each block of
  kernel values is made once for all s coordinates;
* the group-collapsed closed form for rank-1 lattice rules in Korobov
  spaces, exact in O(N s) for product weights at every alpha > 1/2 (the
  residue table is kappa: Bernoulli polynomials within the tables, else its
  polylog expansion).

The tent and reflection chains share one shape: exact error <= middle term
sum_u gamma_u f^|u| (sum_{k_u in dual_u} prod 1/|k_j|^(2 o))^2 <= squared
criterion (the Korobov error of order o with weights (gamma_u f^|u|)^(1/2)),
with one (order o, weight factor f) pair per transform (`CbcCriterion`).  The
middle terms read the dual sums exactly from the residue table of the closed
form; the prime-N construction bounds are parameterized by lambda.  Every
blocked sum here sizes its blocks from the one block budget of `kernels` and
runs on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite, pi, sqrt

import numpy as np

from .errors import DomainError, GuardError
from .fourier import C_PRIME
from .kernels import KernelSpec, _block_rows, _integer_alpha, _kappa, _lattice_tables, _smoothness
from .lattice import LatticeRule, PointSet, rank1_points, tent_transform
from .numtheory import is_prime, primitive_root
from .special_functions import riemann_zeta
from .weights import WeightScheme

QUADRATIC_FORM_GUARD = 20_000
SUBSET_DIM_GUARD = 12

REPORT_KINDS = (
    "exact_quadratic_form",
    "closed_form_lattice",
    "middle_term",
    "theorem_bound",
    "corollary_bound",
)


@dataclass(frozen=True)
class ErrorReport:
    """A squared worst-case error (or bound on one) with its provenance.
    A value that is not finite (weights that overflow double precision) is
    refused with GuardError, never reported."""

    value: float
    kind: str
    lam: float | None = None
    negative_clamp: float = 0.0

    def __post_init__(self):
        if self.kind not in REPORT_KINDS:
            raise DomainError(f"unknown report kind {self.kind!r}")
        if not isfinite(self.value):
            raise GuardError(f"{self.kind} value {self.value}: the weights overflow double "
                             "precision")
        if self.value < 0:
            raise DomainError("reported value must be nonnegative")

    @property
    def root(self) -> float:
        return sqrt(self.value)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "kind": self.kind,
            "lambda": self.lam,
            "negative_clamp": self.negative_clamp,
        }


def _power(x: float, p: float) -> float:
    """x ** p, or inf where Python's float power overflows (ErrorReport refuses it)."""
    try:
        return x**p
    except OverflowError:
        return inf


def _clamped(raw: float, kind: str) -> ErrorReport:
    return ErrorReport(value=max(raw, 0.0), kind=kind, negative_clamp=max(-raw, 0.0))


# -- quadratic form ----------------------------------------------------------


def _eta(g, beta, g_sum, a, b) -> np.ndarray:
    """eta(a, b) = g[|a - b|] + g_sum[a + b] + sum_tau beta[tau][a] beta[tau][b] = K_1 - 1 of
    a unit-mean kernel at the numerator arrays a and b over D (broadcast), the one formula
    that both pair layouts read.  g and beta[tau] have D + 1 entries; g_sum has 2D + 1 (the
    cosine families), D + 1 where the numerators are folded to a + b <= D
    (`wce_sym_exact`), or is None."""
    eta = g[np.abs(a - b)]
    if g_sum is not None:
        eta += g_sum[a + b]
    for t in beta.values():
        eta += t[a] * t[b]
    return eta


def _guard(weights: WeightScheme, m: int, D: int, s: int) -> None:
    """Refuse a pair sum over m points of dimension s with numerators over D
    beyond the O(|P|^2) guard, then one whose dimension is not the weights',
    before any table or point array is built."""
    if max(m, D) > QUADRATIC_FORM_GUARD:
        raise GuardError(f"{m} points over denominator {D}: both must be at most the "
                         f"O(|P|^2) guard of {QUADRATIC_FORM_GUARD}")
    if s != weights.s:
        raise DomainError(f"point dimension {s} != weight dimension {weights.s}")


def _row_pairs(weights: WeightScheme, nums: np.ndarray, g, beta, g_sum) -> float:
    """sum_{x,y} weights.combine(eta(x, y)) over the (m, s) numerators of any
    point set.  Each distinct row counts with its multiplicity mu; eta is
    symmetric, so the row block [lo, hi) of the r rows meets only the
    columns [lo, r): its own square once, the rest twice.  eta is made on
    (s, rows, columns) arrays, so that its passes run along the long axis."""
    rows, mu = np.unique(nums, axis=0, return_counts=True)
    rows, mu = np.ascontiguousarray(rows.T), mu.astype(float)
    r, step = len(mu), _block_rows(rows.size)
    total = 0.0  # not sum(): from Python 3.12 it compensates, which moves the bits
    # weights that overflow make the total non-finite, which ErrorReport refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, r, step):
            hi = min(lo + step, r)
            eta = _eta(g, beta, g_sum, rows[:, lo:hi, None], rows[:, None, lo:])
            cols = 2.0 * mu[lo:]
            cols[:hi - lo] = mu[lo:hi]
            total += float(mu[lo:hi] @ weights.combine(np.moveaxis(eta, 0, -1)) @ cols)
    return total


def _shift_pairs(weights: WeightScheme, rule: LatticeRule, fold: np.ndarray,
                 g, beta, g_sum) -> float:
    """The pair sum of `_row_pairs` over the folded points of a rank-1 rule at
    an odd prime N, where fold[r] is the folded numerator of the residue r.

    In the `_HalfOrder` of N over fold, with its table a2 = [T, T] of period
    h = (N - 1)/2 and k_j = order.index(z_j), the point n = 0 has numerator
    fold[0] in every coordinate and counts once; the half point p in Z_h
    (standing for +-g^p) counts twice, and its numerator in coordinate j is
    a2[p + k_j].  So the n = 0 cross terms are the s slices [k_j, k_j + h)
    of the one row eta(fold[0], a2), and with q = p + delta, eta_j(p, q) =
    E[delta, (p + k_j) mod h] for E[delta, a] = eta(T[a], T[a + delta]): one
    block of E, made once, serves every coordinate as a shifted copy.  delta
    and -delta give equal sums over p, so delta runs over 0..h//2, counted
    twice except delta = 0 and, for even h, delta = h/2.  `combine` reads a
    block of deltas (s * deltas * h <= one block budget) as the s shifted
    slices of [E, E], uncopied."""
    order = _HalfOrder(rule.N, fold)
    a2, h, s = order.a2, len(order.cand), rule.s
    shifts = order.index(np.array(rule.z, dtype=np.int64)).tolist()
    delta = np.arange(h // 2 + 1)
    # after[d, a] = T[(a + d) mod h], a view of a2
    after = np.lib.stride_tricks.sliding_window_view(a2, h)[:len(delta)]
    count = np.where((delta == 0) | (2 * delta == h), 1.0, 2.0)
    step, zero = _block_rows(s * h), fold[:1]
    # weights that overflow make the total non-finite, which ErrorReport refuses
    with np.errstate(over="ignore", invalid="ignore"):
        own = weights.combine(np.broadcast_to(_eta(g, beta, g_sum, zero, zero), (1, s)))
        row = _eta(g, beta, g_sum, zero, a2)
        cross = weights.combine([row[kj:kj + h] for kj in shifts])
        total = float(own[0]) + 4.0 * float(cross.sum())
        for lo in range(0, len(delta), step):
            E = _eta(g, beta, g_sum, a2[:h], after[lo:lo + step])
            E = np.concatenate([E, E], axis=1)  # eta_j(p, p + delta) = E[delta, p + k_j]
            part = weights.combine([E[:, kj:kj + h] for kj in shifts]).sum(axis=1)
            total += 4.0 * float(count[lo:lo + step] @ part)
    return total


def wce_sq_quadratic_form(spec: KernelSpec, ps: PointSet) -> ErrorReport:
    """-1 + |P|^-2 sum_{x,y in P} K(x, y) for every kernel of KernelSpec, all unit-mean:
    the tables of `_lattice_tables` hold each one in closed form, kappa off the
    Bernoulli tables included.  A point set that is exactly the tent transform
    of a rank-1 rule at an odd prime N goes to `_shift_pairs`, any other to
    `_row_pairs`."""
    m, D = len(ps), ps.denominator
    _guard(spec.weights, m, D, ps.s)
    rule, tables = _tent_lattice(ps), _lattice_tables(spec.family, spec.alpha, D)
    if rule is None:
        total = _row_pairs(spec.weights, ps.numerators, *tables)
    else:  # residue r has the tent numerator N - |2r - N|
        total = _shift_pairs(spec.weights, rule, D - np.abs(2 * np.arange(D) - D), *tables)
    return _clamped(total / (m * m), "exact_quadratic_form")


def _tent_lattice(ps: PointSet) -> LatticeRule | None:
    """The rule whose tent points ps is, row for row, if its N = ps.denominator
    is an odd prime, else None.  Row n = 1 holds 2 min(z_j, N - z_j), and the
    folded z of a rule gives the same tent points, so one O(N s) regeneration
    decides."""
    N, nums = int(ps.denominator), ps.numerators
    if ps.kind != "tent" or N < 3 or len(ps) != N or not is_prime(N):
        return None
    z = nums[1] // 2
    if np.any(nums[1] % 2) or not np.all(z >= 1):
        return None
    rule = LatticeRule(N, tuple(z.tolist()))
    return rule if np.array_equal(tent_transform(rank1_points(rule)).numerators, nums) else None


# -- closed form for lattice rules in Korobov spaces -------------------------


def korobov_residue_table(alpha: float, N: int) -> np.ndarray:
    """w(r) = kappa(r / N) = 2 sum_(k >= 1) cos(2 pi k r / N) / k^(2 alpha) for
    r = 0..N-1, from `_kappa` at every alpha > 1/2 (at an integer alpha within
    the Bernoulli tables, (-1)^(alpha+1) (2 pi)^(2 alpha) b_(2 alpha)(r / N)).

    w(N - r) = w(r), and the table holds it bit for bit: r <= N/2 is
    evaluated and mirrored, so sums over the half points n <= N/2 and over
    another order of the points (the CBC sweep's) read the same values."""
    half = _kappa(alpha, np.arange(N // 2 + 1, dtype=float) / N)
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
    g^h = -1 makes w(cand[i]) of period h in i, and a2 holds it for i < 2h,
    so the residues of the points cand[k..] under z = cand[j] are the slice
    of a2 that starts at (k + j) mod h.  Other N have no such order
    (non-units), so a2 is None, cand = 1..N//2 and a residue is a gather
    from the table."""

    def __init__(self, N: int, table: np.ndarray):
        h = N // 2
        self.N, self.table, self.a2 = N, table, None
        if is_prime(N):
            perm = _rader_half(N, primitive_root(N), h)
            self.cand = np.minimum(perm, N - perm, out=perm)
            self.a2 = table[np.concatenate([self.cand, self.cand])]
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
        if self.a2 is None:
            r = np.multiply.outer(self.cand[j], np.arange(lo, hi))
            np.remainder(r, self.N, out=r)
            # every index is already reduced mod N; "clip" keeps numpy from buffering out
            return np.take(self.table, r, out=out, mode="clip")
        rows = out.reshape(-1, hi - lo)  # one row per index
        if lo == 0:
            rows[:, 0], rows, lo = self.table[0], rows[:, 1:], 1
        h, n = len(self.cand), rows.shape[1]
        for k, row in zip(np.ravel(j).tolist(), rows):
            start = (lo - 1 + k) % h
            row[:] = self.a2[start : start + n]
        return out


def wce_sq_korobov_lattice(alpha: float, weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Exact squared worst-case error of a rank-1 lattice rule in the weighted
    Korobov space of smoothness alpha (every alpha the Korobov kernel takes),
    via the single sum over the residue table.
    The summand of n equals that of N - n (w(r) = w(N - r)), so the sum runs
    over the half points of `_HalfOrder` with their multiplicities, in the
    order of the CBC sweep: for prime N each coordinate's residues are a
    shift of one table.  The residues are made as (s, rows) blocks of one
    block budget, so memory is O(N), not O(N s)."""
    alpha = _smoothness("korobov", alpha)
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


@dataclass(frozen=True)
class CbcCriterion:
    """A construction criterion: the Korobov error of order `korobov_order`
    with the effective weights, for the transform the rule is destined for.
    The one place that knows each transform's (order o, weight factor f) and
    the alpha it takes, both computed once, here:

        tent (alpha None or 2): o = 1,         f = c'/(4 pi^4), c' = 58/3
        sym (even alpha):       o = alpha / 2, f = 3 / (2^(2 alpha + 1) pi^(2 alpha))
        plain_korobov:          o = alpha, as the Korobov kernel takes it; no f

    The effective weights are (gamma_u f^|u|)^(1/2), or for plain_korobov
    the weights as given.
    """

    kind: str
    base_weights: WeightScheme
    alpha: float | None = None
    korobov_order: float = field(init=False)
    factor: float | None = field(init=False)

    def __post_init__(self):
        alpha = self.alpha
        if self.kind == "tent":
            if alpha is not None and alpha != 2:
                raise DomainError(f"the tent results hold at alpha = 2 only, got {alpha}")
            order, factor = 1, C_PRIME / (4.0 * pi**4)
        elif self.kind == "sym":
            alpha = _integer_alpha(alpha, 2)
            order, factor = alpha // 2, 3.0 / (_power(2.0, 2 * alpha + 1) * _power(pi, 2 * alpha))
        elif self.kind == "plain_korobov":
            alpha = _smoothness("korobov", alpha)
            order, factor = alpha, None
        else:
            raise DomainError(f"unknown criterion kind {self.kind!r}")
        if factor is not None and not 0.0 < factor < inf:
            raise GuardError(f"{self.kind} alpha = {alpha}: the weight factor {factor} is not a "
                             "positive finite double")
        for name, value in (("alpha", alpha), ("korobov_order", order), ("factor", factor)):
            object.__setattr__(self, name, value)

    def modified_weights(self) -> WeightScheme:
        """gamma_u f^|u|, the weights of the transform's middle term (tent, sym)."""
        if self.factor is None:
            raise DomainError(f"{self.kind} has no transform weight factor")
        return self.base_weights.scaled_per_coordinate(self.factor)

    def effective_weights(self) -> WeightScheme:
        if self.factor is None:
            return self.base_weights
        return self.modified_weights().sqrt()

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


def tent_modified_weights(weights: WeightScheme) -> WeightScheme:
    """gamma'_u = gamma_u f^|u| with the tent factor f of `CbcCriterion`."""
    return CbcCriterion("tent", weights).modified_weights()


def sym_modified_weights(alpha: int, weights: WeightScheme) -> WeightScheme:
    """gamma''_u = gamma_u f^|u| with the sym factor f of `CbcCriterion`, even alpha."""
    return CbcCriterion("sym", weights, alpha).modified_weights()


def _squared_criterion(crit: CbcCriterion, rule: LatticeRule) -> ErrorReport:
    """The criterion of the rule, squared.  It is computed at the rule's full
    dimension, so weights of another dimension are refused, not truncated."""
    value = wce_sq_korobov_lattice(crit.korobov_order, crit.effective_weights(), rule).value
    return ErrorReport(value=_power(value, 2), kind="theorem_bound")


def _middle_term(crit: CbcCriterion, rule: LatticeRule) -> ErrorReport:
    """The middle term sum_u gamma_u f^|u| S_u^2 of the transform's bound
    chain, (o, f) from the criterion, exactly.

    S_u = sum_{k_u in dual_u} prod_{j in u} 1/|k_j|^(2 o), over the dual
    lattice projected on u with every k_j nonzero, is the character sum
    mean_n prod_{j in u} w(n z_j mod N) of the residue table w
    (`korobov_residue_table`), which holds the whole series in closed form.
    """
    if rule.s > SUBSET_DIM_GUARD:
        raise GuardError(f"subset enumeration limited to s <= {SUBSET_DIM_GUARD}")
    table = korobov_residue_table(crit.korobov_order, rule.N)[rank1_points(rule).numerators]
    value = 0.0
    for u, g in crit.modified_weights().nonempty_subsets():
        value += g * float(np.mean(np.prod(table[:, [j - 1 for j in sorted(u)]], axis=1))) ** 2
    return ErrorReport(value=value, kind="middle_term")


# -- tent-transform bounds ---------------------------------------------------


def wce_tent_bound(weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Square of the tent criterion (`CbcCriterion`): an upper bound for the
    squared error of the tent-transformed rule in the second-order Sobolev
    space."""
    return _squared_criterion(CbcCriterion("tent", weights), rule)


def wce_tent_middle_term(weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """The middle term of the tent chain (`_middle_term`): it lies between the
    exact squared error of the tent-transformed rule and `wce_tent_bound`."""
    return _middle_term(CbcCriterion("tent", weights), rule)


# -- symmetrized-rule errors and bounds --------------------------------------


def wce_sym_exact(alpha: int, weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Exact squared worst-case error of the symmetrized rule in the
    odd+alpha Sobolev subspace (even alpha; b_tau for tau <= alpha comes from
    the Bernoulli tables, so `_smoothness` limits alpha): the quadratic form
    of the reflection-averaged kernel on the base lattice, O(N^2 s) instead
    of (2^s N)^2 pairs.

    b_tau(1 - t) = (-1)^tau b_tau(t) makes K = K_odd+alpha invariant under
    reflecting both arguments, so its average over the four reflections of
    (x, y) is 1/2 [K(x, y) + K(x, 1 - y)].  There the odd tau cancel, leaving
    eta = b_alpha(x) b_alpha(y) + 1/2 [G(|x - y|) + G(|x + y - 1|)] with
    G(t) = -b_(2 alpha)(t) = G(1 - t).  eta is unchanged by x -> 1 - x, so
    each numerator a becomes min(a, N - a), which folds row N - n onto row
    n.  Then a + b <= N, and G(|x + y - 1|) = G(x + y) is read at a + b in
    the table of N + 1 entries.  At an odd prime N the folded points take the
    shift layout (`_shift_pairs`), at any other N the row layout.
    """
    alpha = _smoothness("sob_odd_alpha", _integer_alpha(alpha, 2))
    N = rule.N
    _guard(weights, N, N, rule.s)
    g, beta, _ = _lattice_tables("sob_odd_alpha", alpha, N)
    tables = (0.5 * g, {alpha: beta[alpha]}, 0.5 * g)
    if N % 2 and is_prime(N):  # residue r folds to min(r, N - r)
        r = np.arange(N)
        total = _shift_pairs(weights, rule, np.minimum(r, N - r), *tables)
    else:
        nums = rank1_points(rule).numerators
        total = _row_pairs(weights, np.minimum(nums, N - nums), *tables)
    return _clamped(total / (N * N), "exact_quadratic_form")


def wce_sym_bound(alpha: int, weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """Square of the sym criterion (`CbcCriterion`), even alpha: an upper
    bound for the squared error of the symmetrized rule."""
    return _squared_criterion(CbcCriterion("sym", weights, alpha), rule)


def wce_sym_middle_term(alpha: int, weights: WeightScheme, rule: LatticeRule) -> ErrorReport:
    """The middle term of the reflection chain, even alpha (`_middle_term`): it
    lies between `wce_sym_exact` and `wce_sym_bound`."""
    return _middle_term(CbcCriterion("sym", weights, alpha), rule)


# -- prime-N construction bounds ---------------------------------------------


def corollary_bound(kind: str, weights: WeightScheme, N: int, lam: float,
                    alpha: float | None = None) -> ErrorReport:
    """The lambda-parameterized bound on the construction criterion for prime N
    (Kuo, J. Complexity 19, 2003), one formula for every kind: with the order o
    and the effective weights w of `CbcCriterion`,

        ((1/(N-1)) sum_u w_u^lambda (2 zeta(2 o lambda))^|u|)^(1/lambda)

    for lambda in (1/(2 o), 1].
    """
    if not is_prime(N):
        raise DomainError(f"the construction bound requires prime N, got {N}")
    crit = CbcCriterion(kind, weights, alpha)
    order = crit.korobov_order
    if not 1.0 / (2 * order) < lam <= 1.0:
        raise DomainError(f"lambda must lie in (1/{2 * order}, 1], got {lam}")
    two_zeta = np.full((1, weights.s), 2.0 * riemann_zeta(2.0 * order * lam))
    subset_sum = float(crit.effective_weights().powered(lam).combine(two_zeta)[0])
    return ErrorReport(value=_power(subset_sum / (N - 1), 1.0 / lam), kind="corollary_bound",
                       lam=lam)
