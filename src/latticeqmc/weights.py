"""Weight schemes over coordinate subsets: product, POD, and general form.

A scheme assigns gamma_u >= 0 to every nonempty subset u of {1, ..., s}
(1-based coordinates, matching the JSON wire format "1,3": 0.5).  The empty
set implicitly carries weight 1 and is never stored.

The central operation is `combine`, the weighted sum

    sum_{nonempty u} gamma_u prod_{j in u} eta_j

for per-coordinate values eta_j, evaluated without subset enumeration for
product weights (a running product) and POD weights (the elementary
symmetric sums, forward over the first s // 2 coordinates and backward over
the rest, about s^2/4 row updates), and by explicit iteration for general
weights.  The product and POD recurrence is `_Running`, which the CBC sweep
also keeps one coordinate at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations, repeat

import numpy as np

from .errors import DomainError, GuardError
from .numtheory import _integer, _real

GENERAL_DIM_GUARD = 20
_MEAN_BLOCK = 8192  # the longest np.vdot seen to have the same bits on 1 and 2 OpenBLAS threads


@dataclass(frozen=True)
class WeightScheme:
    """Weights gamma_u for nonempty u, in product, POD, or general form.

    product: gamma_u = prod_{j in u} gamma[j-1]
    pod:     gamma_u = Gamma[|u|-1] * prod_{j in u} gamma[j-1]
    general: explicit sparse map subset -> weight (absent means 0)
    """

    s: int
    form: str = "product"
    gamma: tuple[float, ...] = ()
    Gamma: tuple[float, ...] = ()
    subsets: dict[frozenset[int], float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "s", _integer(self.s, "dimension", 1))
        if self.form not in ("product", "pod", "general"):
            raise DomainError(f"unknown weight form {self.form!r}")
        # each form leaves the fields it does not use empty
        if len(self.gamma) != (n := 0 if self.form == "general" else self.s):
            raise DomainError(f"need {n} coordinate weights, got {len(self.gamma)}")
        if len(self.Gamma) != (n := self.s if self.form == "pod" else 0):
            raise DomainError(f"need {n} order weights, got {len(self.Gamma)}")
        if self.subsets and self.form != "general":
            raise DomainError(f"{self.form} weights take no subsets")
        refusal, low = repeat("weights must be finite and nonnegative"), repeat(0.0)
        for name in ("gamma", "Gamma"):
            object.__setattr__(self, name, tuple(map(_real, getattr(self, name), refusal, low)))
        values = map(_real, self.subsets.values(), refusal, low)
        object.__setattr__(self, "subsets", dict(zip(self.subsets, values)))
        if self.form == "general":
            if self.s > GENERAL_DIM_GUARD:
                raise GuardError(f"general weights limited to s <= {GENERAL_DIM_GUARD}")
            for u in self.subsets:
                if not u or not all(1 <= _integer(j, "subset coordinate") <= self.s for j in u):
                    raise DomainError(f"bad subset {sorted(u)} for dimension {self.s}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def product(gamma) -> "WeightScheme":
        return WeightScheme(s=len(gamma := tuple(gamma)), form="product", gamma=gamma)

    @staticmethod
    def pod(Gamma, gamma) -> "WeightScheme":
        gamma, Gamma = tuple(gamma), tuple(Gamma)
        return WeightScheme(s=len(gamma), form="pod", gamma=gamma, Gamma=Gamma)

    @staticmethod
    def general(s: int, subsets: dict) -> "WeightScheme":
        clean = {frozenset(u): g for u, g in subsets.items()}
        if len(clean) < len(subsets) or any(len(frozenset(u)) < len(u) for u in subsets):
            raise DomainError(f"general weights name a subset twice or repeat a coordinate in "
                              f"one: {[tuple(u) for u in subsets]}")
        return WeightScheme(s=s, form="general", subsets=clean)

    # -- basic queries -----------------------------------------------------

    def weight_of(self, u) -> float:
        """gamma_u for an arbitrary subset of the integers 1..s (empty set -> 1)."""
        u = frozenset(_integer(j, "subset coordinate") for j in u)
        if not u:
            return 1.0
        if not all(1 <= j <= self.s for j in u):
            raise DomainError(f"subset {sorted(u)} out of range for s={self.s}")
        return self._weight(u)

    def _weight(self, u: frozenset) -> float:
        """gamma_u for a nonempty subset of 1..s, unchecked; the product runs in increasing j."""
        if self.form == "general":
            return self.subsets.get(u, 0.0)
        out = self.Gamma[len(u) - 1] if self.form == "pod" else 1.0
        for j in sorted(u):
            out *= self.gamma[j - 1]
        return out

    def nonempty_subsets(self):
        """Iterate (u, gamma_u) over subsets with nonzero stored weight, in
        (size, sorted) order for every form."""
        if self.form == "general":
            items = sorted(self.subsets.items(), key=lambda t: (len(t[0]), sorted(t[0])))
        elif self.s > GENERAL_DIM_GUARD:
            raise GuardError(f"subset iteration limited to s <= {GENERAL_DIM_GUARD}")
        else:
            items = ((u, self._weight(u)) for k in range(1, self.s + 1)
                     for u in map(frozenset, combinations(range(1, self.s + 1), k)))
        for u, g in items:
            if g != 0.0:
                yield u, g

    # -- derived schemes ---------------------------------------------------

    def scaled_per_coordinate(self, factor: float) -> "WeightScheme":
        """New scheme with gamma_u * factor^|u| (weight modification maps)."""
        return replace(self, gamma=tuple(g * factor for g in self.gamma),
                       subsets={u: g * factor ** len(u) for u, g in self.subsets.items()})

    def powered(self, p: float) -> "WeightScheme":
        """New scheme with gamma_u^p (POD and product forms are closed under this)."""
        return replace(self, gamma=tuple(g**p for g in self.gamma),
                       Gamma=tuple(g**p for g in self.Gamma),
                       subsets={u: g**p for u, g in self.subsets.items()})

    # -- the workhorse -----------------------------------------------------

    def combine(self, eta) -> np.ndarray:
        """sum_{nonempty u} gamma_u prod_{j in u} eta_j.

        eta is an (..., s) array, reduced over its last axis, or a list or
        tuple of s equal-shape arrays, its columns eta_1..eta_s, read as given
        and never stacked.  Product weights cost O(s), POD O(s^2) (s^2/4 row
        updates and one small matrix product), general O(2^s) (guarded).
        """
        if isinstance(eta, (list, tuple)):
            cols = [np.asarray(c, dtype=float) for c in eta]
        else:
            eta = np.asarray(eta, dtype=float)
            cols = [eta[..., j] for j in range(eta.shape[-1])]
        if len(cols) != self.s or len({c.shape for c in cols}) > 1:
            raise DomainError(f"eta needs {self.s} equal-shape coordinates, got {len(cols)} of "
                              f"shapes {sorted({c.shape for c in cols})}")
        if self.form == "general":
            out = np.zeros(cols[0].shape)
            for u, g in self.nonempty_subsets():
                term = np.ones(cols[0].shape)
                for j in sorted(u):
                    term = term * cols[j - 1]
                out = out + g * term
            return out
        run = _Running(self, cols[0].shape)
        for col in cols:
            run.add(col)
        return run.value()

    # -- parsing -----------------------------------------------------------

    @staticmethod
    def from_dict(data) -> "WeightScheme":
        """A scheme from any JSON value, read as the JSON wire format: gamma and
        Gamma are arrays of numbers, subsets an object of numbers (a JSON true
        is not a number), and each form takes only the keys it reads.  A fault
        of that format raises `_MalformedWeights`."""
        if not isinstance(data, dict):
            raise _MalformedWeights(f"{data!r} is not a JSON object")
        form = data.get("form")
        reads = {"product": ("form", "gamma"), "pod": ("form", "gamma", "Gamma"),
                 "general": ("form", "subsets", "s")}.get(form) if type(form) is str else None
        if reads is None:
            raise _MalformedWeights(f"unknown weight form {form!r}")
        if unread := [key for key in data if key not in reads]:
            raise _MalformedWeights(f"form {form!r} takes only the keys {reads}, not {unread}")
        if form == "product":
            return WeightScheme.product(_json_numbers(data, "gamma"))
        if form == "pod":
            return WeightScheme.pod(_json_numbers(data, "Gamma"), _json_numbers(data, "gamma"))
        keys = _json_numbers(data, "subsets")
        subsets = {_subset_key(key): g for key, g in keys.items()}
        if len(subsets) < len(keys):
            raise DomainError(f"general weights name a subset twice: {list(keys)}")
        s = data.get("s", max((max(u) for u in subsets), default=1))
        if type(s) is not int:
            raise _MalformedWeights(f"general weights need an integer s, got {s!r}")
        return WeightScheme.general(s, subsets)


class _MalformedWeights(DomainError):
    """A fault in the format of the weights JSON: a value of the wrong type
    or a missing key."""


def _json_numbers(data: dict, key: str):
    """data[key] if it is a JSON array of numbers, or for subsets an object of numbers."""
    if key not in data:
        raise _MalformedWeights(f"form {data['form']!r} needs the key {key!r}")
    value, kind = data[key], dict if key == "subsets" else list
    numbers = value.values() if isinstance(value, dict) else value
    if type(value) is not kind or not all(type(g) in (int, float) for g in numbers):
        raise _MalformedWeights(f"{key!r} must be a JSON {'array' if kind is list else 'object'}"
                                f" of numbers, got {value!r}")
    return value


def _subset_key(key) -> tuple[int, ...]:
    """The coordinates a general-weights key names, "1,3" or "1, 3": ASCII
    decimal integers >= 1 joined by commas, spaces around each allowed."""
    parts = [t.strip(" ") for t in key.split(",")] if type(key) is str else [""]
    try:
        coords = tuple(int(t) for t in parts if t.isascii() and t.isdigit())
    except ValueError:  # more digits than int() reads
        coords = ()
    if len(coords) < len(parts) or min(coords) < 1:
        raise _MalformedWeights(f"subset key {key!r} is not a comma-separated list of "
                                "coordinates >= 1")
    return coords


class _Running:
    """The weighted sum over the coordinates added so far, one coordinate
    eta_d (an array of the given shape) at a time, with x_j = gamma_j eta_j.
    Adding eta_d adds weight_vector() * eta_d.

    Product weights keep p = prod_j (1 + x_j), the empty product (ones)
    until the first factor is written into it in place; the sum is p - 1.

    POD weights meet in the middle.  With G_0 = 0 and G_k = Gamma_k, the sum
    over s coordinates is sum_k G_k e_k(x_1..x_s), and e_k splits as
    sum_i e_i(head) e_{k-i}(tail).  The first h = s // 2 coordinates (the
    head) go forward into the elementary symmetric sums e_0..e_h of the
    x_j, e_k += x_d e_{k-1}.  After the h-th, one Hankel product contracts
    them to F_m = sum_i G_{i+m+1} e_i for m = -1..s-h-1, and e is dropped.
    Each later coordinate d goes backward, F_m += x_d F_{m+1} for
    m = -1..s-d-1 in increasing m.  The sum is then F_{-1} and the factor of
    the next coordinate gamma_{d+1} F_0.  That is about s^2/4 row updates
    per point, where the forward recurrence alone takes s^2/2, and h = s // 2
    minimizes h^2/2 + (s-h)^2/2."""

    def __init__(self, weights: WeightScheme, shape):
        self.w, self.d = weights, 0
        if weights.form == "product":
            self.p = np.ones(shape)
            return
        self.G = np.concatenate([[0.0], weights.Gamma])
        self.half, self.F = weights.s // 2, None
        self.e = np.zeros((self.half + 1,) + shape)
        self.e[0] = 1.0
        if self.half == 0:
            self._contract()

    def _contract(self) -> None:
        rows = self.w.s - self.half + 1
        hankel = self.G[np.add.outer(np.arange(rows), np.arange(self.half + 1))]
        self.F, self.e = np.tensordot(hankel, self.e, axes=1), None

    def add(self, eta_d: np.ndarray) -> None:
        g = self.w.gamma[self.d]
        self.d += 1
        if self.w.form == "product" and self.d == 1:  # 1 * v = v: p takes v in place
            np.multiply(eta_d, g, out=self.p)
            self.p += 1.0
            return
        v = g * eta_d
        if self.w.form == "product":
            v += 1.0
            self.p *= v
        elif self.F is None:
            for k in range(self.d, 0, -1):
                self.e[k] += v * self.e[k - 1]
            if self.d == self.half:
                self._contract()
        else:
            F = self.F
            for m in range(self.w.s - self.d + 1):
                F[m] += v * F[m + 1]

    def _pod(self, m: int) -> np.ndarray:
        """sum_k G_{k+m} e_k: F_{m-1}, or in the head its contraction with e."""
        if self.F is not None:
            return self.F[m]
        return np.tensordot(self.G[1 : self.d + 1 + m], self.e[1 - m : self.d + 1], axes=1)

    def weight_vector(self) -> np.ndarray:
        """The factor of eta_d in the sum once the next coordinate d is added."""
        g = self.w.gamma[self.d]
        return g * (self.p if self.w.form == "product" else self._pod(1))

    def value(self) -> np.ndarray:
        if self.w.form == "product":
            return self.p - 1.0
        return self._pod(0).copy()

    def mean(self, mult: np.ndarray) -> float:
        """The mean over the points, entry i counted mult[i] times:
        mean(p) - 1 for product weights, which rounds otherwise than
        mean(p - 1).  Its dot runs in blocks of _MEAN_BLOCK entries, summed in order, each one
        single-threaded OpenBLAS call, so that it does not follow the BLAS thread count."""
        v, one = (self.p, 1.0) if self.w.form == "product" else (self._pod(0), 0.0)
        dots = [np.vdot(mult[i : i + _MEAN_BLOCK], v[i : i + _MEAN_BLOCK])
                for i in range(0, len(v), _MEAN_BLOCK)]
        return float(sum(dots[1:], dots[0])) / float(np.sum(mult)) - one
