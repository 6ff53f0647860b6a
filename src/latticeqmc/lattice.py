"""Rank-1 lattice point sets, tent-transformed and symmetrized variants.

Coordinates of every point set produced here are rationals i/N.  The integer
numerators are kept alongside the float view: the tent map and the coordinate
reflections act exactly on numerators (i -> N - |2i - N| and i -> N - i), so
duplicate detection never touches floating point.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DomainError, GuardError
from .kernels import _block_rows
from .numtheory import _integer, _reals, fibonacci

MAX_N = 2**31  # keeps n*z products inside int64
SYMMETRIZE_DIM_GUARD = 20
_COMPRESSORS = {".gz": "gzip", ".bz2": "bz2", ".xz": "lzma", ".lzma": "lzma"}


def _open_text(path):
    """The file at path opened to write text, compressed by its suffix."""
    codec = _COMPRESSORS.get(os.path.splitext(os.fspath(path))[1])
    return __import__(codec).open(path, "wt") if codec else open(path, "w")


def _rule_size(N: int) -> int:
    """N as every rule and CBC sweep takes it: 1..MAX_N."""
    if not 1 <= N <= MAX_N:
        raise DomainError(f"N must be in 1..{MAX_N}, got {N}")
    return N


@dataclass(frozen=True)
class LatticeRule:
    """A rank-1 rule: N points in dimension s with generating vector z, both
    stored as Python ints (any integer type is taken, a bool or a float is not)."""

    N: int
    z: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "N", _rule_size(_integer(self.N, "N")))
        object.__setattr__(self, "z", tuple(_integer(zj, "generator entry") for zj in self.z))
        if not self.z:
            raise DomainError("generating vector must be nonempty")
        for zj in self.z:
            if not 1 <= zj <= self.N - 1:
                raise DomainError(f"generator entries must lie in 1..N-1, got {zj}")
        bad = [j + 1 for j, zj in enumerate(self.z) if gcd(zj, self.N) != 1]
        if bad:
            warnings.warn(
                f"generator entries at coordinates {bad} share a factor with N={self.N}; "
                "the point set projects onto fewer than N distinct values there",
                stacklevel=3,
            )

    @property
    def s(self) -> int:
        return len(self.z)


@dataclass(frozen=True)
class PointSet:
    """An ordered multiset of points in [0,1]^s with exact rational coordinates.

    numerators is an integer array of shape (n_points, s) with at least one
    point; every coordinate is numerators/denominator.  s and the denominator are
    integers >= 1, stored as Python ints.  kind is one of "plain", "tent",
    "symmetrized".
    """

    s: int
    kind: str
    numerators: np.ndarray
    denominator: int

    def __post_init__(self):
        object.__setattr__(self, "s", _integer(self.s, "s", 1))
        object.__setattr__(self, "denominator", _integer(self.denominator, "denominator", 1))
        if self.kind not in ("plain", "tent", "symmetrized"):
            raise DomainError(f"unknown point-set kind {self.kind!r}")
        if not (isinstance(self.numerators, np.ndarray)
                and np.issubdtype(self.numerators.dtype, np.integer)):
            raise DomainError("numerators must be an integer array")
        if self.numerators.ndim != 2 or self.numerators.shape[1] != self.s:
            raise DomainError("numerators must have shape (n_points, s)")
        if len(self.numerators) == 0:
            raise DomainError("a point set needs at least one point")
        if self.numerators.min() < 0 or self.numerators.max() > self.denominator:
            raise DomainError("coordinates must lie in [0, 1]")

    def __len__(self) -> int:
        return self.numerators.shape[0]

    @property
    def points(self) -> np.ndarray:
        """Float view, shape (n_points, s)."""
        return self.numerators / float(self.denominator)

    def to_csv(self, path) -> None:
        """Write the float view as "%.17g" rows joined by ",", the bytes of
        np.savetxt, to a path or an open text handle.  A path ending in .gz,
        .bz2, .xz or .lzma is compressed, as savetxt does.

        Each block of rows formats each distinct numerator once: i / float(D)
        is the quotient that .points holds.  Memory is O(block), not O(D)."""
        if not hasattr(path, "write"):
            with _open_text(path) as fh:
                self.to_csv(fh)
            return
        D = float(self.denominator)
        step = _block_rows(self.s)
        end = (np.arange(self.s) == self.s - 1).astype(np.intp)  # picks the cell's "\n" over ","
        for start in range(0, len(self), step):
            values, index = np.unique(self.numerators[start:start + step], return_inverse=True)
            text = (f"{i / D:.17g}" for i in values.tolist())
            cells = np.array([(f"{t},", f"{t}\n") for t in text], dtype=object)
            path.write("".join(cells[index.reshape(-1, self.s), end].ravel().tolist()))

    def to_json(self) -> str:
        return json.dumps(
            {"n": len(self), "s": self.s, "kind": self.kind, "points": self.points.tolist()}
        )


def _rank1_rows(rule: LatticeRule, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of n z mod N (int64), whole in rank1_points, by blocks in experiments."""
    return np.outer(np.arange(lo, hi, dtype=np.int64), np.array(rule.z, dtype=np.int64)) % rule.N


def _tent_numerators(nums, D: int) -> np.ndarray:
    """The tent map on numerators over D, exact: i -> D - |2i - D|."""
    return D - np.abs(2 * nums - D)


def rank1_points(rule: LatticeRule) -> PointSet:
    """The point set { {n z / N} : 0 <= n < N }, exact in integer arithmetic."""
    return PointSet(rule.s, "plain", _rank1_rows(rule, 0, rule.N), rule.N)


def tent(x):
    """The tent map 1 - |2x - 1| on [0, 1]; x outside it (and NaN) is refused (`_reals`)."""
    x = _reals(x, "tent takes x in [0, 1]", 0.0, 1.0)
    out = 1.0 - np.abs(2.0 * x - 1.0)
    return out if out.ndim else float(out)


def tent_transform(ps: PointSet) -> PointSet:
    """Apply the tent map componentwise.  Duplicates are kept: QMC averages
    over the result must match the equal-weight average over the original rule."""
    if ps.kind != "plain":
        raise DomainError(f"tent transform expects a plain point set, got {ps.kind!r}")
    return PointSet(ps.s, "tent", _tent_numerators(ps.numerators, ps.denominator), ps.denominator)


def symmetrize(ps: PointSet) -> PointSet:
    """All 2^s coordinate reflections of the point set, as one listed multiset.

    Block b (0 <= b < 2^s) applies x_j -> 1 - x_j exactly when bit j-1 of b is
    set; each block lists the original points in order.
    """
    if ps.kind != "plain":
        raise DomainError(f"symmetrization expects a plain point set, got {ps.kind!r}")
    if ps.s > SYMMETRIZE_DIM_GUARD:
        raise GuardError(f"symmetrization limited to s <= {SYMMETRIZE_DIM_GUARD}")
    nums, D = ps.numerators, ps.denominator
    flip = (np.arange(1 << ps.s)[:, None, None] >> np.arange(ps.s)) & 1
    return PointSet(s=ps.s, kind="symmetrized", denominator=D,
                    numerators=np.where(flip, D - nums, nums).reshape(-1, ps.s))


def distinct_count(ps: PointSet) -> int:
    """Number of distinct points in a symmetrized multiset (exact comparison).

    Numerators lie in 0..D, so while (D + 1)^s < 2^63 each point is one int64
    key in radix D + 1, counted by one sort; larger sets compare rows as tuples."""
    if ps.kind != "symmetrized":
        raise DomainError("distinct_count is defined for symmetrized point sets")
    radix = ps.denominator + 1
    if radix**ps.s < 2**63:
        place = radix ** np.arange(ps.s, dtype=np.int64)
        keys = ps.numerators.astype(np.int64, copy=False) @ place
        keys.sort()  # in place: the product is a fresh array, the numerators stay as they are
        return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    return len({tuple(row) for row in ps.numerators.tolist()})


def fibonacci_rule(m: int) -> LatticeRule:
    """The 2-d rule with N = F_m points and z = (1, F_{m-1}), for an integer m >= 3."""
    if (m := _integer(m, "m", 3)) > 46:
        raise GuardError("F_m exceeds the supported point-count range for m > 46")
    return LatticeRule(N=fibonacci(m), z=(1, fibonacci(m - 1)))
