"""Point-set generation, transforms, dual-lattice checks, character sums."""

import io
import json
import math
import re

import numpy as np
import pytest

from latticeqmc import kernels
from latticeqmc.errors import DomainError, GuardError
from latticeqmc.lattice import (
    LatticeRule,
    PointSet,
    distinct_count,
    fibonacci_rule,
    rank1_points,
    symmetrize,
    tent,
    tent_transform,
)
from oracles import character_sum, dual_projected, is_dual


def random_rule(rng, N, s) -> LatticeRule:
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # random z may share factors with N
        return LatticeRule(N=N, z=tuple(int(v) for v in rng.integers(1, N, size=s)))


def random_unit_rule(rng, N, s) -> LatticeRule:
    """Generator entries coprime to N: the closed-form distinct counts of
    symmetrized sets presume every coordinate projection has N distinct values."""
    from math import gcd

    z = []
    while len(z) < s:
        c = int(rng.integers(1, N))
        if gcd(c, N) == 1:
            z.append(c)
    return LatticeRule(N=N, z=tuple(z))


def test_rank1_small_sets():
    ps = rank1_points(LatticeRule(N=2, z=(1,)))
    np.testing.assert_array_equal(ps.points.ravel(), [0.0, 0.5])
    ps = rank1_points(LatticeRule(N=5, z=(1, 2)))
    expected = [(0.0, 0.0), (0.2, 0.4), (0.4, 0.8), (0.6, 0.2), (0.8, 0.6)]
    np.testing.assert_allclose(ps.points, expected, atol=1e-16)


def test_rank1_modular_enumeration():
    rule = LatticeRule(N=13, z=(1, 8))
    ps = rank1_points(rule)
    assert len(ps) == 13
    for n in range(13):
        assert ps.numerators[n, 0] == n
        assert ps.numerators[n, 1] == n * 8 % 13
    # coordinates are exactly i/N: the float view times N is integral
    np.testing.assert_array_equal(ps.points * 13, ps.numerators)


def test_generator_range_validation():
    with pytest.raises(DomainError):
        LatticeRule(N=5, z=(0,))
    with pytest.raises(DomainError):
        LatticeRule(N=5, z=(5,))
    with pytest.warns(UserWarning):
        LatticeRule(N=6, z=(1, 2))  # shared factor: warned, not rejected


def test_shared_factor_warning_names_the_line_that_built_the_rule():
    """Not the __init__ that dataclass generates, whose file is "<string>"."""
    with pytest.warns(UserWarning, match="share a factor") as record:
        LatticeRule(N=4, z=(1, 2))
    assert [w.filename for w in record] == [__file__]


def test_tent_values():
    assert tent(0.25) == 0.5
    assert tent(0.5) == 1.0
    assert tent(0.75) == 0.5
    x = np.linspace(0, 1, 33)
    np.testing.assert_allclose(tent(x), tent(1.0 - x), atol=0.0)


def test_tent_transform_keeps_duplicates():
    ps = tent_transform(rank1_points(LatticeRule(N=2, z=(1,))))
    np.testing.assert_array_equal(ps.points.ravel(), [0.0, 1.0])
    ps3 = tent_transform(rank1_points(LatticeRule(N=3, z=(1,))))
    np.testing.assert_allclose(sorted(ps3.points.ravel()), [0.0, 2.0 / 3.0, 2.0 / 3.0])
    assert len(ps3) == 3
    ps52 = tent_transform(rank1_points(LatticeRule(N=5, z=(1, 2))))
    base = rank1_points(LatticeRule(N=5, z=(1, 2))).points
    np.testing.assert_allclose(ps52.points, tent(base))
    np.testing.assert_allclose(tent(1.0 - base), tent(base), atol=0.0)  # reflection identity
    with pytest.raises(DomainError):
        tent_transform(ps52)


def test_symmetrize_lists_blocks_in_reflection_order():
    """Block b reflects coordinate j + 1 exactly when bit j of b is set and
    lists the points in the order of the base rule."""
    base = rank1_points(LatticeRule(N=13, z=(1, 5, 3))).numerators
    got = symmetrize(rank1_points(LatticeRule(N=13, z=(1, 5, 3)))).numerators
    assert got.shape == (8 * 13, 3) and got.dtype == base.dtype
    for b in range(8):
        for j in range(3):
            want = 13 - base[:, j] if b >> j & 1 else base[:, j]
            np.testing.assert_array_equal(got[13 * b:13 * (b + 1), j], want)
    # block 5 reflects the first and third coordinates of the point n = 1
    assert got[13 * 5 + 1].tolist() == [12, 5, 10]


def test_symmetrize_multiset():
    ps = symmetrize(rank1_points(LatticeRule(N=2, z=(1,))))
    assert len(ps) == 4
    assert sorted(ps.points.ravel()) == [0.0, 0.5, 0.5, 1.0]
    ps2 = symmetrize(rank1_points(LatticeRule(N=5, z=(1, 2))))
    assert len(ps2) == 20
    assert distinct_count(ps2) == 12  # 2^(s-1) (N+1) for odd N


def test_distinct_count_closed_forms():
    import warnings

    assert distinct_count(symmetrize(rank1_points(LatticeRule(N=2, z=(1,))))) == 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ps = symmetrize(rank1_points(LatticeRule(N=4, z=(1, 3))))
    assert distinct_count(ps) == 2 * 4 + 1  # 2^(s-1) N + 1 for even N
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = int(rng.integers(1, 5))
        N = int(rng.integers(2, 65))
        rule = random_unit_rule(rng, N, s)
        ps = symmetrize(rank1_points(rule))
        assert len(ps) == (1 << s) * N
        expected = (1 << (s - 1)) * (N + 1) if N % 2 else (1 << (s - 1)) * N + 1
        assert distinct_count(ps) == expected


@pytest.mark.parametrize("D,s", [(12, 3), (2**21 - 2, 3), (2**21 - 1, 3), (2**31, 2), (2**31, 3)])
def test_distinct_count_matches_tuple_set(D, s):
    """The int64 key in radix D + 1 holds while (D + 1)^s < 2^63 (the first,
    second and fourth sets, the second just below the limit); the others
    take the tuple fallback.  Rows mix 0, 1, D - 1 and D, which a key of too
    small a radix would confuse, with repeats."""
    ps = edge_heavy_set(D, s)
    nums = ps.numerators.copy()
    assert ((D + 1) ** s < 2**63) == (D < 2**21 - 1 or s == 2)
    assert distinct_count(ps) == len({tuple(row) for row in nums.tolist()}) < len(nums)
    np.testing.assert_array_equal(ps.numerators, nums)  # the keys are sorted, not the input


def edge_heavy_set(D, s) -> PointSet:
    """400 symmetrized rows drawn from 0, 1, D - 1, D and three random
    numerators, so rows repeat and sit at both ends of [0, 1]."""
    rng = np.random.default_rng(D + s)
    pool = np.concatenate([[0, 1, D - 1, D], rng.integers(0, D + 1, 3)])
    return PointSet(s=s, kind="symmetrized", numerators=rng.choice(pool, size=(400, s)),
                    denominator=D)


def test_distinct_count_of_one_point_and_of_fibonacci_rules():
    one = PointSet(s=3, kind="symmetrized", numerators=np.array([[0, 2, 5]]), denominator=5)
    assert distinct_count(one) == 1
    for m in range(7, 13):
        ps = symmetrize(rank1_points(fibonacci_rule(m)))
        nums = ps.numerators.copy()
        assert distinct_count(ps) == len({tuple(row) for row in nums.tolist()})
        np.testing.assert_array_equal(ps.numerators, nums)


def test_distinct_count_needs_unit_generators():
    """With gcd(z, N) > 1 the coordinate projection collapses and the closed
    form overcounts; the formula applies to unit generators only."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ps = symmetrize(rank1_points(LatticeRule(N=10, z=(8,))))
    assert distinct_count(ps) == 6 != 2 * 10 // 2 + 1


def test_symmetrize_dimension_guard():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rule = LatticeRule(N=3, z=(1,) * 21)
    with pytest.raises(GuardError):
        symmetrize(rank1_points(rule))


def test_is_dual():
    rule = LatticeRule(N=5, z=(1, 2))
    assert is_dual((2, -1), rule)
    assert not is_dual((1, 0), rule)
    assert is_dual((0, 0), rule)


def test_dual_projected_examples():
    assert dual_projected(LatticeRule(N=2, z=(1,)), [1], 5) == [(-4,), (-2,), (2,), (4,)]
    got = dual_projected(LatticeRule(N=5, z=(1, 2)), [1, 2], 2)
    assert got == [(-2, 1), (-1, -2), (1, 2), (2, -1)]
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rule = LatticeRule(N=7, z=(3,))
    assert dual_projected(rule, [1], 15) == [(-14,), (-7,), (7,), (14,)]


def test_dual_projected_negation_closure_and_guard():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rule = random_rule(rng, int(rng.integers(2, 20)), 2)
        out = set(dual_projected(rule, [1, 2], 6))
        assert {tuple(-v for v in k) for k in out} == out
    with pytest.raises(GuardError):
        dual_projected(LatticeRule(N=5, z=(1, 2, 3, 4)), [1, 2, 3, 4], 1000)


def test_character_sum_exact_vs_float():
    assert character_sum(LatticeRule(N=5, z=(1, 2)), (2, -1)) == 1.0
    assert character_sum(LatticeRule(N=5, z=(1, 2)), (1, 0)) == 0.0
    rng = np.random.default_rng(17)
    for _ in range(100):
        s = int(rng.integers(1, 4))
        rule = random_rule(rng, int(rng.integers(2, 50)), s)
        k = tuple(int(v) for v in rng.integers(-30, 31, size=s))
        exact = character_sum(rule, k)
        approx = character_sum(rule, k, method="float")
        assert abs(exact - approx) <= 1e-12


def test_fibonacci_rules():
    assert fibonacci_rule(7) == LatticeRule(N=13, z=(1, 8))
    assert fibonacci_rule(10) == LatticeRule(N=55, z=(1, 34))
    assert fibonacci_rule(20) == LatticeRule(N=6765, z=(1, 4181))
    with pytest.raises(DomainError):
        fibonacci_rule(2)
    with pytest.raises(GuardError):
        fibonacci_rule(47)


def test_export_round_trips(tmp_path):
    ps = rank1_points(LatticeRule(N=5, z=(1, 2)))
    path = tmp_path / "points.csv"
    ps.to_csv(path)
    again = np.loadtxt(path, delimiter=",")
    np.testing.assert_array_equal(again, ps.points)  # 17 digits: round trip exact
    data = json.loads(ps.to_json())
    assert data["n"] == 5 and data["s"] == 2 and data["kind"] == "plain"
    np.testing.assert_array_equal(np.array(data["points"]), ps.points)


def savetxt_text(ps: PointSet) -> str:
    buf = io.StringIO()
    np.savetxt(buf, ps.points, delimiter=",", fmt="%.17g")
    return buf.getvalue()


def first_difference(got: str, want: str):
    """None for equal texts, else the first row where they part.  Asserting
    on this, not on the texts, spares a line diff of thousands of rows."""
    if got == want:
        return None
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    row = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return row, got[row:row + 1], want[row:row + 1]


@pytest.mark.parametrize("budget", [None, 7])  # 7 entries: every block holds 1 to 7 rows
@pytest.mark.parametrize("D,s", [(1, 2), (2, 1), (2, 3), (1021, 3)])
def test_csv_export_is_the_bytes_of_savetxt(D, s, budget, monkeypatch):
    """Each block formats each distinct numerator once; the rows must still
    be savetxt's, for plain, tent and symmetrized sets and across blocks."""
    if budget is not None:
        monkeypatch.setattr(kernels, "_BLOCK_BUDGET", budget)
    rng = np.random.default_rng(D + s)
    if D == 1:  # no rule has D = 1, so the sets are listed directly
        nums = rng.integers(0, 2, size=(9, s))
        sets = [PointSet(s=s, kind=k, numerators=nums, denominator=1)
                for k in ("plain", "tent", "symmetrized")]
    else:
        plain = rank1_points(random_rule(rng, D, s))
        sets = [plain, tent_transform(plain), symmetrize(plain)]
    for ps in sets:
        buf = RowCountingText()
        ps.to_csv(buf)
        assert first_difference(buf.getvalue(), savetxt_text(ps)) is None
        assert max(buf.rows_per_write) <= kernels._block_rows(s)  # O(block) memory


class RowCountingText(io.StringIO):
    def __init__(self):
        super().__init__()
        self.rows_per_write = []

    def write(self, text):
        self.rows_per_write.append(text.count("\n"))
        return super().write(text)


def test_csv_export_to_a_path_a_str_and_a_handle_at_max_n(tmp_path):
    """D = 2^31 = MAX_N: no table of D entries may be built."""
    ps = edge_heavy_set(2**31, 3)
    expected = savetxt_text(ps)
    ps.to_csv(tmp_path / "a.csv")
    ps.to_csv(str(tmp_path / "b.csv"))
    with open(tmp_path / "c.csv", "w") as fh:
        ps.to_csv(fh)
    for name in ("a.csv", "b.csv", "c.csv"):
        assert first_difference((tmp_path / name).read_bytes().decode(), expected) is None


@pytest.mark.parametrize("numerators,denominator", [
    (np.array([[0]]), 0),                          # no denominator: coordinates 0/0
    (np.zeros((0, 1), dtype=np.int64), 5),         # no points: the mean over them is 0/0
    (np.array([[0.5]]), 1),                        # a coordinate that is not a ratio
])
def test_point_set_rejects_what_is_no_rational_point_set(numerators, denominator):
    with pytest.raises(DomainError):
        PointSet(s=1, kind="plain", numerators=numerators, denominator=denominator)


def _point_set(kind="plain", nums=((0, 1), (1, 2)), D=2):
    return PointSet(s=2, kind=kind, numerators=np.array(nums), denominator=D)


@pytest.mark.parametrize("call,fragment", [
    pytest.param(lambda: LatticeRule(N=0, z=(1,)), "N must be in 1..", id="rule/N"),
    pytest.param(lambda: LatticeRule(N=5, z=()), "generating vector must be nonempty",
                 id="rule/empty_z"),
    pytest.param(lambda: LatticeRule(101.0, (1, 3)), "N must be an integer, got 101.0",
                 id="rule/float_N"),
    pytest.param(lambda: LatticeRule(101, (1.5, 3)),
                 "generator entry must be an integer, got 1.5", id="rule/float_z"),
    pytest.param(lambda: LatticeRule(101, (True, 3)),
                 "generator entry must be an integer, got True", id="rule/bool_z"),
    pytest.param(lambda: _point_set(kind="halton"), "unknown point-set kind 'halton'",
                 id="point_set/kind"),
    pytest.param(lambda: PointSet(s=3, kind="plain", numerators=np.zeros((2, 2), dtype=int),
                                  denominator=2),
                 "numerators must have shape (n_points, s)", id="point_set/shape"),
    pytest.param(lambda: _point_set(nums=((0, 3),)), "coordinates must lie in [0, 1]",
                 id="point_set/range"),
    pytest.param(lambda: symmetrize(tent_transform(_point_set())),
                 "symmetrization expects a plain point set, got 'tent'", id="symmetrize/kind"),
    pytest.param(lambda: distinct_count(_point_set()),
                 "distinct_count is defined for symmetrized point sets", id="distinct_count/kind"),
    pytest.param(lambda: is_dual((1, 2, 3), LatticeRule(5, (1, 2))),
                 "k has length 3, rule dimension is 2", id="is_dual/length"),
    pytest.param(lambda: dual_projected(LatticeRule(5, (1, 2)), (3,), 2),
                 "u must be a nonempty subset of 1..2", id="dual_projected/u"),
    pytest.param(lambda: character_sum(LatticeRule(5, (1, 2)), (1, 1), method="fft"),
                 "unknown method 'fft'", id="character_sum/method"),
    pytest.param(lambda: tent(2.0), "tent takes x in [0, 1]", id="tent/above"),
    pytest.param(lambda: tent(-0.25), "tent takes x in [0, 1]", id="tent/below"),
    pytest.param(lambda: tent(np.array([0.5, math.nan])), "tent takes x in [0, 1]", id="tent/nan"),
])
def test_refusals(call, fragment):
    with pytest.raises(DomainError, match=re.escape(fragment)):
        call()
