import json
import math

import numpy as np
import pytest

from latticeqmc.errors import DomainError, GuardError
from latticeqmc.weights import WeightScheme


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


def test_scaled_and_powered_schemes():
    w = WeightScheme.product([0.9, 0.4])
    scaled = w.scaled_per_coordinate(0.25)
    assert scaled.weight_of([1, 2]) == pytest.approx(0.9 * 0.4 * 0.25**2, rel=1e-15)
    root = w.sqrt()
    assert root.weight_of([1, 2]) == pytest.approx(np.sqrt(0.9 * 0.4), rel=1e-15)
    g = WeightScheme.general(2, {frozenset({1, 2}): 0.5})
    assert g.scaled_per_coordinate(0.1).weight_of([1, 2]) == pytest.approx(0.5 * 0.01, rel=1e-15)
    assert g.powered(0.5).weight_of([1, 2]) == pytest.approx(np.sqrt(0.5), rel=1e-15)


def test_json_round_trip():
    for w in (
        WeightScheme.product([1.0, 0.5]),
        WeightScheme.pod([1.0, 0.25], [0.3, 0.3]),
        WeightScheme.general(3, {frozenset({1, 3}): 0.5}),
    ):
        again = WeightScheme.from_json(w.to_json())
        assert again == w
    # wire format spot check
    data = json.loads(WeightScheme.general(3, {frozenset({1, 3}): 0.5}).to_json())
    assert data["subsets"] == {"1,3": 0.5}


def test_validation():
    with pytest.raises(DomainError):
        WeightScheme.product([-0.1])
    with pytest.raises(DomainError):
        WeightScheme.pod([1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        WeightScheme.general(2, {frozenset({5}): 1.0})
    with pytest.raises(GuardError):
        WeightScheme.general(25, {frozenset({1}): 1.0})
    with pytest.raises(DomainError):
        WeightScheme.product([1.0]).combine(np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(DomainError):
        WeightScheme.product([1.0, bad, 0.5])
    with pytest.raises(DomainError):
        WeightScheme.pod([1.0, 1.0], [1.0, bad])
    with pytest.raises(DomainError):
        WeightScheme.pod([1.0, bad], [1.0, 1.0])
    with pytest.raises(DomainError):
        WeightScheme.general(2, {frozenset({1}): 1.0, frozenset({1, 2}): bad})
