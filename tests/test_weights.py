import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latticeqmc.cbc import CbcCriterion
from latticeqmc.errors import DomainError, GuardError
from latticeqmc.weights import WeightScheme, _Running


def brute_force_combine(w: WeightScheme, eta: np.ndarray) -> float:
    total = 0.0
    for mask in range(1, 1 << w.s):
        u = frozenset(j + 1 for j in range(w.s) if mask >> j & 1)
        term = w.weight_of(u)
        for j in u:
            term *= eta[j - 1]
        total += term
    return total


def test_product_weight_of():
    w = WeightScheme.product([0.5, 2.0, 0.25])
    assert w.weight_of([1]) == 0.5
    assert w.weight_of([1, 3]) == 0.125
    assert w.weight_of([]) == 1.0


def test_pod_weight_of():
    w = WeightScheme.pod([1.0, 0.5, 0.1], [1.0, 2.0, 3.0])
    assert w.weight_of([2]) == 2.0
    assert w.weight_of([1, 2]) == 0.5 * 2.0
    assert w.weight_of([1, 2, 3]) == 0.1 * 6.0


def test_general_weight_lookup_and_default_zero():
    w = WeightScheme.general(3, {frozenset({1}): 0.7, frozenset({1, 3}): 0.2})
    assert w.weight_of([1, 3]) == 0.2
    assert w.weight_of([2, 3]) == 0.0


@pytest.mark.parametrize("form", ["product", "pod", "general"])
def test_combine_matches_brute_force(form):
    rng = np.random.default_rng(42)
    for s in (1, 2, 4, 6):
        if form == "product":
            w = WeightScheme.product(rng.random(s))
        elif form == "pod":
            w = WeightScheme.pod(rng.random(s), rng.random(s))
        else:
            subsets = {}
            for mask in range(1, 1 << s):
                if rng.random() < 0.6:
                    subsets[frozenset(j + 1 for j in range(s) if mask >> j & 1)] = float(rng.random())
            w = WeightScheme.general(s, subsets)
        eta = rng.standard_normal(s)
        got = float(w.combine(eta[None, :])[0])
        want = brute_force_combine(w, eta)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-14)


def test_general_equals_expanded_product():
    """s=2 product weights expand to gamma_{1}, gamma_{2}, gamma_1*gamma_2."""
    rng = np.random.default_rng(1)
    g1, g2 = rng.random(2)
    prod = WeightScheme.product([g1, g2])
    gen = WeightScheme.general(2, {
        frozenset({1}): g1, frozenset({2}): g2, frozenset({1, 2}): g1 * g2,
    })
    eta = rng.standard_normal((50, 2))
    np.testing.assert_allclose(prod.combine(eta), gen.combine(eta), rtol=1e-14, atol=1e-14)


def test_nonempty_subsets_come_in_size_then_sorted_order_for_every_form():
    """The one subset order that sums over subsets (the middle terms) rely on
    for their bits: by size, then by the sorted coordinates; zero weights skipped."""
    gamma = [0.9, 0.0, 0.4, 0.7]
    every = sorted((frozenset(j + 1 for j in range(4) if m >> j & 1) for m in range(1, 16)),
                   key=lambda u: (len(u), sorted(u)))
    schemes = (WeightScheme.product(gamma), WeightScheme.pod([1.0, 0.5, 0.25, 2.0], gamma),
               WeightScheme.general(4, {u: 1.0 for u in reversed(every) if 2 not in u}))
    for w in schemes:
        got = list(w.nonempty_subsets())
        assert [u for u, _ in got] == [u for u in every if 2 not in u]
        assert all(g == w.weight_of(u) for u, g in got)


def test_nonempty_subsets_skip_the_integer_rule(monkeypatch):
    """The subsets a scheme enumerates are its own, so listing them runs no
    integer check per coordinate; `weight_of` still checks what callers pass.
    Each gamma_u keeps the bits of weight_of(u), which multiplies in increasing
    coordinate order however u is listed: at s = 12, gamma_j = j^-2, the tuples
    (3, 9, 10, 11) and (11, 9, 10, 3) and the frozenset give one gamma_u."""
    from latticeqmc import weights as weights_module

    gamma = [1.0 / j**2 for j in range(1, 13)]
    schemes = (WeightScheme.product(gamma), WeightScheme.pod([1.0 + k for k in range(12)], gamma))
    want = [[(u, w.weight_of(u)) for u, _ in w.nonempty_subsets()] for w in schemes]

    def refuse(*args):
        raise AssertionError("integer rule applied to a subset the scheme built")

    monkeypatch.setattr(weights_module, "_integer", refuse)
    for w, pairs in zip(schemes, want):
        got = list(w.nonempty_subsets())
        assert len(got) == 2**12 - 1 and [(u, g.hex()) for u, g in got] == [
            (u, g.hex()) for u, g in pairs]
    monkeypatch.undo()
    for w in schemes:
        listed = ((3, 9, 10, 11), (11, 9, 10, 3), frozenset({3, 9, 10, 11}))
        assert len({w.weight_of(u).hex() for u in listed}) == 1
    for bad in (1.5, True):
        with pytest.raises(DomainError, match="subset coordinate must be an integer"):
            schemes[0].weight_of({bad})


def test_scaled_and_powered_schemes():
    w = WeightScheme.product([0.9, 0.4])
    scaled = w.scaled_per_coordinate(0.25)
    assert scaled.weight_of([1, 2]) == pytest.approx(0.9 * 0.4 * 0.25**2, rel=1e-15)
    root = w.powered(0.5)
    assert root.weight_of([1, 2]) == pytest.approx(np.sqrt(0.9 * 0.4), rel=1e-15)
    g = WeightScheme.general(2, {frozenset({1, 2}): 0.5})
    assert g.scaled_per_coordinate(0.1).weight_of([1, 2]) == pytest.approx(0.5 * 0.01, rel=1e-15)
    assert g.powered(0.5).weight_of([1, 2]) == pytest.approx(np.sqrt(0.5), rel=1e-15)


def test_derived_schemes_equal_the_constructor_built_ones():
    """scaled_per_coordinate, powered and leading_weights map gamma, Gamma
    and subsets with no branch on the form; each result is the scheme the
    form's constructor builds from the mapped values."""
    gamma, Gamma = [0.9, 0.4, 0.25], [1.0, 0.5, 2.0]
    subsets = {(1,): 0.7, (1, 3): 0.2, (2, 3): 0.5}
    f, p = 0.3, 0.5
    product, pod = WeightScheme.product(gamma), WeightScheme.pod(Gamma, gamma)
    general = WeightScheme.general(3, subsets)
    assert product.scaled_per_coordinate(f) == WeightScheme.product([g * f for g in gamma])
    assert pod.scaled_per_coordinate(f) == WeightScheme.pod(Gamma, [g * f for g in gamma])
    assert general.scaled_per_coordinate(f) == \
        WeightScheme.general(3, {u: g * f ** len(u) for u, g in subsets.items()})
    assert product.powered(p) == WeightScheme.product([g**p for g in gamma])
    assert pod.powered(p) == WeightScheme.pod([g**p for g in Gamma], [g**p for g in gamma])
    assert general.powered(p) == WeightScheme.general(3, {u: g**p for u, g in subsets.items()})
    for w in (product, pod):
        eff = CbcCriterion("tent", w).effective_weights()
        want = (WeightScheme.product(eff.gamma[:2]) if w.form == "product"
                else WeightScheme.pod(eff.Gamma[:2], eff.gamma[:2]))
        assert CbcCriterion("tent", w).leading_weights(2) == want
        assert CbcCriterion("tent", w).leading_weights(3) == eff
    with pytest.raises(DomainError, match="CBC supports product or POD weights only"):
        CbcCriterion("tent", general).leading_weights(2)


@pytest.mark.parametrize("data,fragment", [
    pytest.param({"form": "product"}, "needs the key 'gamma'", id="product/no_gamma"),
    pytest.param({"form": "pod", "gamma": [1]}, "needs the key 'Gamma'", id="pod/no_Gamma"),
    pytest.param([1.0], "[1.0] is not a JSON object", id="array"),
    pytest.param(None, "None is not a JSON object", id="null"),
    pytest.param("x", "'x' is not a JSON object", id="string"),
    *(pytest.param({"form": "general", "subsets": {key: 1.0}}, f"subset key {key!r}",
                   id=f"key={key!r}")
      for key in ("1_0", "+2", "\uff11", "0", "-1", "", "1,,2", "a", 1)),
    pytest.param({"form": "general", "subsets": {"1" + "0" * 4300: 1.0}}, "subset key '1000",
                 id="key=4301_digits"),
    pytest.param({"form": ["product"], "gamma": [1]}, "unknown weight form ['product']",
                 id="form=array"),
    pytest.param({"form": {}}, "unknown weight form {}", id="form=object"),
])
def test_from_dict_refuses_every_format_fault_with_a_domain_error(data, fragment):
    """Each of these once raised KeyError or AttributeError (the int key 1
    of a Python dict too), was read as another subset ("1_0" as 10, "+2" as
    2, the full-width one as 1), or was refused as "dimension must be >= 1"
    ("0", "-1").  A key of more digits than int() reads raised its
    ValueError, and a form that is an array or object the TypeError of an
    unhashable dict key."""
    with pytest.raises(DomainError, match=re.escape(fragment)):
        WeightScheme.from_dict(data)


def test_from_dict_allows_spaces_around_subset_coordinates():
    assert WeightScheme.from_dict({"form": "general", "subsets": {"1, 2": 0.5, " 3": 0.25}}) == \
        WeightScheme.general(3, {(1, 2): 0.5, (3,): 0.25})


def test_from_dict_parses_the_json_wire_format():
    text = """[{"form": "product", "gamma": [1.0, 0.5]},
               {"form": "pod", "Gamma": [1.0, 0.25], "gamma": [0.3, 0.3]},
               {"form": "general", "s": 3, "subsets": {"1,3": 0.5}},
               {"form": "general", "subsets": {"2": 0.7, "1,3": 0.5}}]"""
    product, pod, general, inferred = (WeightScheme.from_dict(d) for d in json.loads(text))
    assert product == WeightScheme.product([1.0, 0.5])
    assert pod == WeightScheme.pod([1.0, 0.25], [0.3, 0.3])
    assert general == WeightScheme.general(3, {frozenset({1, 3}): 0.5})
    assert inferred == WeightScheme.general(3, {frozenset({2}): 0.7, frozenset({1, 3}): 0.5})
    with pytest.raises(DomainError):
        WeightScheme.from_dict({"form": "nope"})


@pytest.mark.parametrize("data,fragment", [
    pytest.param({"subsets": {"1,2": 0.5, "2,1": 0.25}}, "name a subset twice", id="twice"),
    pytest.param({"subsets": {"1,1": 3.0}}, "repeat a coordinate", id="1,1"),
    pytest.param({"subsets": {"1,2": 0.5, "1, 2": 0.25}}, "name a subset twice", id="1, 2"),
    pytest.param({"s": 0, "subsets": {"1": 1.0}}, "dimension must be >= 1, got 0", id="s=0"),
    pytest.param({"s": 2.7, "subsets": {"1": 1.0}}, "need an integer s, got 2.7", id="s=2.7"),
    pytest.param({"s": True, "subsets": {"1": 1.0}}, "need an integer s, got True", id="s=true"),
    pytest.param({"s": "2", "subsets": {"1": 1.0}}, "need an integer s, got '2'", id="s='2'"),
])
def test_from_dict_refuses_a_repeated_subset_or_a_bad_s(data, fragment):
    """Each of these once came back as some other scheme: the last of two
    weights for {1, 2}, the subset {1} for "1,1", or s read as the largest
    coordinate named (s = 0), int(s) (2.7) or 1 (true)."""
    with pytest.raises(DomainError, match=re.escape(fragment)):
        WeightScheme.from_dict({"form": "general", **data})


def test_from_dict_refuses_weights_json_of_the_wrong_type():
    """Each of these once came back as some other scheme (gamma "25" as
    (2, 5), true as 1.0, "0.5" as 0.5) or raised an AttributeError (subsets
    [] or null).  A JSON integer is a number; a JSON true is not."""
    bad = [{"form": "product", "gamma": g} for g in ("25", 3, None, [True, 0.5], [1, "0.5"],
                                                     {"0.5": 3})]
    bad += [{"form": "pod", "Gamma": G, "gamma": g}
            for G, g in (("12", [1, 0.5]), ([1, 2], "12"), ([1, False], [1, 0.5]))]
    bad += [{"form": "general", "subsets": u}
            for u in ({"1,2": "0.5"}, {"1,2": True}, [], None, [["1,2", 0.5]])]
    for data in bad:
        with pytest.raises(DomainError, match="must be a JSON (array|object) of numbers"):
            WeightScheme.from_dict(data)
    assert WeightScheme.from_dict({"form": "product", "gamma": [1, 2]}) == \
        WeightScheme.product([1.0, 2.0])
    assert WeightScheme.from_dict({"form": "general", "subsets": {"1,2": 3}}) == \
        WeightScheme.general(2, {(1, 2): 3.0})


@pytest.mark.parametrize("form", ["product", "pod"])
@pytest.mark.parametrize("layout", ["contiguous", "moveaxis"])
def test_running_sum_adds_one_coordinate_at_a_time(form, layout):
    rng = np.random.default_rng(7)
    s = 6
    gamma, Gamma = rng.random(s), rng.random(s)
    w = WeightScheme.product(gamma) if form == "product" else WeightScheme.pod(Gamma, gamma)
    eta = rng.standard_normal((7, 5, s))
    if layout == "moveaxis":  # the layout the quadratic-form engine passes
        eta = np.moveaxis(np.ascontiguousarray(np.moveaxis(eta, -1, 0)), 0, -1)
        assert not eta.flags.c_contiguous
    run = _Running(w, eta.shape[:-1])
    before = np.zeros(eta.shape[:-1])
    for d in range(1, s + 1):
        step = run.weight_vector() * eta[..., d - 1]
        run.add(eta[..., d - 1])
        head = (WeightScheme.product(gamma[:d]) if form == "product"
                else WeightScheme.pod(Gamma[:d], gamma[:d]))
        if form == "product":
            np.testing.assert_array_equal(run.value(), head.combine(eta[..., :d]))
        else:  # the state switches phase after s // 2 coordinates, the head after d // 2
            subsets = WeightScheme.general(d, dict(head.nonempty_subsets()))
            np.testing.assert_allclose(run.value(), subsets.combine(eta[..., :d]),
                                       rtol=1e-13, atol=0)
        np.testing.assert_allclose(before + step, run.value(), rtol=1e-13, atol=0)
        before = run.value()
    mult = rng.integers(1, 3, eta.shape[:-1]).astype(float)  # points counted once or twice
    assert run.mean(mult) == pytest.approx(
        float(np.sum(mult * w.combine(eta)) / np.sum(mult)), rel=1e-13)
    np.testing.assert_array_equal(w.combine(eta), w.combine(np.ascontiguousarray(eta)))


def pod_subset_sum(Gamma, x, shift: int) -> np.ndarray:
    """sum over every subset u of the rows of x (the empty one too) of
    G_{|u|+shift} prod_{j in u} x[j], with G_0 = 0 and G_k = Gamma[k-1]."""
    G = [0.0, *Gamma]
    total = np.zeros(np.shape(x)[1:])
    for mask in range(1 << len(x)):
        u = [j for j in range(len(x)) if mask >> j & 1]
        total = total + G[len(u) + shift] * np.prod([x[j] for j in u], axis=0)
    return total


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 7, 12])
def test_pod_running_sums_match_explicit_subset_sums(s, shape):
    """value() and weight_vector() at every d, on both sides of the switch
    from the forward e_k to the backward F_m after coordinate s // 2, within
    1e-13 of the sum of the terms' magnitudes: the random eta cancel, down to
    1e-3 of that sum, in some entries."""
    rng = np.random.default_rng(s)
    Gamma, gamma = rng.random(s), rng.random(s)
    eta = rng.standard_normal((s,) + shape)
    x = gamma.reshape((s,) + (1,) * len(shape)) * eta
    run = _Running(WeightScheme.pod(Gamma, gamma), shape)
    for d in range(s + 1):
        if d:
            run.add(eta[d - 1])
        checks = [(run.value(), 1.0, 0)]
        if d < s:
            checks.append((run.weight_vector(), gamma[d], 1))
        for got, g, shift in checks:
            want = g * pod_subset_sum(Gamma, x[:d], shift)
            scale = g * pod_subset_sum(Gamma, np.abs(x[:d]), shift)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize("shape", [(9,), (4, 5), ()])
def test_pod_sums_match_python_sums_over_the_orders(shape):
    """The oracle keeps e_0..e_s of the gamma_j eta_j by the forward recurrence
    and adds Gamma_k e_k one order at a time over all s orders, with
    Gamma_k = k! spanning 32 decades at s = 30; the state switches to its
    backward phase after coordinate 15."""
    rng = np.random.default_rng(3)
    s = 30
    Gamma = [float(math.factorial(k)) for k in range(1, s + 1)]
    w = WeightScheme.pod(Gamma, 1.0 / np.arange(1, s + 1) ** 2)
    run = _Running(w, shape)
    e = [np.ones(shape)] + [np.zeros(shape) for _ in range(s)]
    for d in range(s):
        want = w.gamma[d] * sum(Gamma[k] * e[k] for k in range(s))
        np.testing.assert_allclose(run.weight_vector(), want, rtol=1e-13, atol=0)
        eta = rng.standard_normal(shape)
        run.add(eta)
        for k in range(d + 1, 0, -1):
            e[k] = e[k] + w.gamma[d] * eta * e[k - 1]
        want = sum(Gamma[k - 1] * e[k] for k in range(1, s + 1))
        np.testing.assert_allclose(run.value(), want, rtol=1e-13, atol=0)


def test_pod_cbc_is_the_same_with_one_or_two_blas_threads():
    """The POD sums go through BLAS (the head's contraction is a matrix
    product); their result must not depend on its thread count: the CBC
    sweeps, the closed-form rechecks of their rules, and one combine on an
    (r, c, s) block."""
    code = ("import json, math; import numpy as np; "
            "from latticeqmc import CbcCriterion, WeightScheme, cbc_fast; "
            "w = WeightScheme.pod([float(math.factorial(k)) for k in range(1, 21)], "
            "[j ** -2.0 for j in range(1, 21)]); "
            "c = [CbcCriterion(k, w, a) for k, a in (('tent', None), ('sym', 4))]; "
            "r = [cbc_fast(4099, 20, x) for x in c]; "
            "eta = np.random.default_rng(5).standard_normal((60, 70, 20)); "
            "print(json.dumps([[x.z, [float.hex(e) for e in x.per_dimension_error], "
            "float.hex(k.value(x.rule()))] for k, x in zip(c, r)] "
            "+ [[float.hex(float(v)) for v in w.combine(eta).ravel()]]))")
    root = Path(__file__).resolve().parent.parent
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_combine_on_columns_has_the_bits_of_the_stacked_array(shape):
    """combine on a list of s column views (strided, like the shift layout's
    slices) gives the float.hex of combine on the stacked (..., s) array, for
    every weight form; a list of the wrong length or of unequal shapes is
    refused."""
    rng = np.random.default_rng(len(shape))
    s = 6
    wide = rng.uniform(-0.5, 1.5, size=shape + (2 * s,))
    cols = [wide[..., 2 * j] for j in range(s)]
    stacked = np.stack(cols, axis=-1)
    gamma = rng.uniform(0.1, 1.0, size=s)
    schemes = (WeightScheme.product(gamma), WeightScheme.pod(rng.uniform(0.5, 2.0, size=s), gamma),
               WeightScheme.general(s, {(1,): 0.5, (2, 4): 0.25, (1, 3, 5, 6): 2.0}))
    for w in schemes:
        want = [float.hex(float(v)) for v in np.ravel(w.combine(stacked))]
        for given in (cols, tuple(cols)):
            got = w.combine(given)
            assert got.shape == shape
            assert [float.hex(float(v)) for v in np.ravel(got)] == want
        with pytest.raises(DomainError):
            w.combine(cols[:-1])
        with pytest.raises(DomainError):
            w.combine(cols[:-1] + [np.zeros(shape + (1,))])


def test_validation():
    with pytest.raises(DomainError):
        WeightScheme.product([-0.1])
    with pytest.raises(DomainError):
        WeightScheme.pod([1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        WeightScheme.general(2, {frozenset({5}): 1.0})
    with pytest.raises(DomainError):
        WeightScheme.general(3, {(1, 2): 0.5, (2, 1): 0.25})
    with pytest.raises(GuardError):
        WeightScheme.general(25, {frozenset({1}): 1.0})
    with pytest.raises(DomainError):
        WeightScheme.product([1.0]).combine(np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 # float() of these raised OverflowError
                                 pytest.param(10**400, id="10**400"),
                                 pytest.param(-10**400, id="-10**400")])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(DomainError):
        WeightScheme.product([1.0, bad, 0.5])
    with pytest.raises(DomainError):
        WeightScheme.pod([1.0, 1.0], [1.0, bad])
    with pytest.raises(DomainError):
        WeightScheme.pod([1.0, bad], [1.0, 1.0])
    with pytest.raises(DomainError):
        WeightScheme.general(2, {frozenset({1}): 1.0, frozenset({1, 2}): bad})


@pytest.mark.parametrize("call,error,fragment", [
    pytest.param(lambda: WeightScheme(s=0), DomainError, "dimension must be >= 1, got 0",
                 id="s"),
    pytest.param(lambda: WeightScheme(s=1, form="lattice"), DomainError,
                 "unknown weight form 'lattice'", id="form"),
    pytest.param(lambda: WeightScheme(s=2, form="product", gamma=(1.0,)), DomainError,
                 "need 2 coordinate weights, got 1", id="gamma_length"),
    # each form leaves the fields it does not use empty
    pytest.param(lambda: WeightScheme(s=1, gamma=(1.0,), Gamma=(1.0,)), DomainError,
                 "need 0 order weights, got 1", id="product/Gamma"),
    pytest.param(lambda: WeightScheme(s=1, gamma=(1.0,), subsets={frozenset({1}): 1.0}),
                 DomainError, "product weights take no subsets", id="product/subsets"),
    pytest.param(lambda: WeightScheme(s=1, form="general", gamma=(1.0,)), DomainError,
                 "need 0 coordinate weights, got 1", id="general/gamma"),
    pytest.param(lambda: WeightScheme.product([1.0, 0.5]).weight_of({3}), DomainError,
                 "subset [3] out of range for s=2", id="weight_of/range"),
    pytest.param(lambda: next(WeightScheme.product([0.5] * 21).nonempty_subsets()), GuardError,
                 "subset iteration limited to s <= 20", id="nonempty_subsets/guard"),
])
def test_refusals(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
