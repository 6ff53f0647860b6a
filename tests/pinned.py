"""The pinned values, tests/data/pinned.json, and the one script that records them.

    PYTHONPATH=src python tests/pinned.py

recomputes every group, prints one line per key (unchanged; moved by k ulps
and by a relative amount; z moved; new; gone) and rewrites the file with one
line per key and per grid row, so a dry run is a `git diff` and a moved value
a one-line diff.  The tests compare the producers below with `load()`: the bit
groups exactly, the CBC grid by `grid_close`; a grid row that still holds keeps
its recorded text.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import warnings
from collections import Counter
from pathlib import Path

from latticeqmc import kernels
from latticeqmc.cbc import CbcCriterion, cbc_fast, cbc_plain
from latticeqmc.kernels import KernelSpec
from latticeqmc.lattice import rank1_points, tent_transform
from latticeqmc.weights import WeightScheme
from latticeqmc.worst_case_error import wce_sq_quadratic_form, wce_sym_exact

PATH = Path(__file__).resolve().parent / "data" / "pinned.json"
BUDGETS = (kernels._BLOCK_BUDGET, 1000)


def _product_and_pod(gamma) -> dict:
    """gamma as product weights, and as POD weights with Gamma_k = k!."""
    s = len(gamma)
    return {"product": WeightScheme.product(gamma),
            "pod": WeightScheme.pod([float(math.factorial(k)) for k in range(1, s + 1)], gamma)}


def exact_error_bits(Ns, alphas) -> dict:
    """float.hex of value - negative_clamp of the tent and sym exact errors
    of CBC rules (`cbc_fast`) at s = 20, gamma_j = j^-2, built with
    product weights and measured with product and POD (Gamma_k = k!) weights."""
    s = 20
    weights = _product_and_pod([j ** -2.0 for j in range(1, s + 1)])
    got = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # composite N: some z_j share a factor
        for N in Ns:
            tent = cbc_fast(N, s, CbcCriterion("tent", weights["product"])).rule()
            tent = tent_transform(rank1_points(tent))
            sym = {a: cbc_fast(N, s, CbcCriterion("sym", weights["product"], a)).rule()
                   for a in alphas}
            for name, w in weights.items():
                reports = {"sob2-tent": wce_sq_quadratic_form(KernelSpec("sobolev", 2, w), tent)}
                reports.update({f"sym{a}": wce_sym_exact(a, w, rule) for a, rule in sym.items()})
                for key, rep in reports.items():
                    got[f"{key}/{name}/N{N}"] = (rep.value - rep.negative_clamp).hex()
    return got


def table_shape_bits() -> dict:
    """float.hex of value - negative_clamp (sym alpha = 4 clamps to 0.0) of
    the tent errors of CBC tent rules in six more kernel cases and of the
    sym alpha = 4 error, s = 20, product weights gamma_j = j^-2."""
    s = 20
    w = WeightScheme.product([j ** -2.0 for j in range(1, s + 1)])
    families = (("korobov", 2), ("cosine", 2), ("kor_plus_cos", 2), ("sobolev", 3),
                ("sob_odd", 3), ("sob_odd_alpha", 4))
    got = {}
    for N in (509, 1021):
        tent = tent_transform(rank1_points(cbc_fast(N, s, CbcCriterion("tent", w)).rule()))
        reports = {f"{f}{a}-tent": wce_sq_quadratic_form(KernelSpec(f, a, w), tent)
                   for f, a in families}
        reports["sym4"] = wce_sym_exact(4, w, cbc_fast(N, s, CbcCriterion("sym", w, 4)).rule())
        for key, rep in reports.items():
            got[f"{key}/N{N}"] = (rep.value - rep.negative_clamp).hex()
    return got


def closed_form_bits(budget) -> dict:
    """float.hex of the CBC per-dimension criteria (`cbc_fast`) and of the
    closed-form recheck of the rule built, tent and sym alpha = 2 at s = 6,
    gamma_j = j^-2, product and POD (Gamma_k = k!) weights, at the prime
    N = 1021 (Rader slices) and the composite N = 1024 (gathered residues),
    with `kernels._BLOCK_BUDGET` set to budget while they run."""
    s = 6
    got, default = {}, kernels._BLOCK_BUDGET
    kernels._BLOCK_BUDGET = budget
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # composite N: some z_j share a factor
            for N in (1021, 1024):
                for name, w in _product_and_pod([j ** -2.0 for j in range(1, s + 1)]).items():
                    for key, crit in (("tent", CbcCriterion("tent", w)),
                                      ("sym2", CbcCriterion("sym", w, 2))):
                        res = cbc_fast(N, s, crit)
                        got[f"{key}/{name}/N{N}/b{budget}"] = {
                            "criteria": [e.hex() for e in res.per_dimension_error],
                            "recheck": crit.value(res.rule()).hex()}
    finally:
        kernels._BLOCK_BUDGET = default
    return got


# The CBC grid: `cbc_fast` at prime N whose h = (N-1)/2 is 1, 5-smooth, has its largest
# prime factor in 7..17 (1009, 1021, 4421, 8191, 11969) or has the prime factor 683 (4099);
# `cbc_plain` at prime and composite N; s = 12; every criterion (tent, sym alpha = 2 and 4,
# plain Korobov alpha = 1 and 2); product and POD weights.
GRID_S = 12
GRID_FAST_N = (2, 3, 13, 101, 1009, 1021, 4099, 4421, 8191, 11969)
GRID_PLAIN_N = (2, 3, 12, 13, 100, 101, 256, 1009)
GRID_CRITERIA = (("tent", None), ("sym", 2), ("sym", 4), ("plain_korobov", 1),
                 ("plain_korobov", 2))
CONSTRUCTIONS = {"cbc_fast": cbc_fast, "cbc_plain": cbc_plain}

# Criteria may move by summation order between two correct trees: the largest
# such move seen so far was 2.7e-12 relative (s = 100), and mean(p) - 1 near
# zero carries an absolute rounding floor of a few eps * log2(N).
GRID_RTOL = 3e-12
GRID_ATOL = 64 * sys.float_info.epsilon


def grid_close(got: float, want: float) -> bool:
    return abs(got - want) <= GRID_RTOL * abs(want) + GRID_ATOL


def grid_cases():
    for construction, ns in (("cbc_fast", GRID_FAST_N), ("cbc_plain", GRID_PLAIN_N)):
        for N in ns:
            for kind, alpha in GRID_CRITERIA:
                for form in ("product", "pod"):
                    yield {"construction": construction, "N": N, "s": GRID_S,
                           "kind": kind, "alpha": alpha, "form": form}


def grid_run(case: dict):
    gam = [1.0 / j**2 for j in range(1, GRID_S + 1)]
    crit = CbcCriterion(kind=case["kind"], base_weights=_product_and_pod(gam)[case["form"]],
                        alpha=case["alpha"])
    return CONSTRUCTIONS[case["construction"]](case["N"], case["s"], crit)


def grid_rows() -> list:
    return [{**case, "z": list(res.z), "criteria": list(res.per_dimension_error)}
            for case in grid_cases() for res in [grid_run(case)]]


def sweep_bits() -> dict:
    """z and the float.hex of the criteria of a tent sweep past 2^20, s = 10,
    gamma_j = j^-2: its mean takes 64 blocks and its scorer splits at
    h = 524286.  Not its recheck, whose BLAS dot follows the thread count."""
    w = WeightScheme.product([j ** -2.0 for j in range(1, 11)])
    res = cbc_fast(1048573, 10, CbcCriterion("tent", w))
    return {"tent/product/N1048573": {"z": list(res.z),
                                      "criteria": [e.hex() for e in res.per_dimension_error]}}


GROUPS = {
    # the exact errors, recorded while the shift layout still ran on the block pool
    "shift_layout": lambda: exact_error_bits((509, 1021), (2,)),
    # the same at composite N (the row layout), recorded while its blocks still ran on the
    # block pool; value - negative_clamp is the signed total before the clamp at 0
    "row_layout": lambda: exact_error_bits((510, 1024), (2, 4)),
    # the shift layout's exact errors for the table shapes shift_layout does not hold (no
    # beta with and without a sum table, two and three beta, one beta at alpha = 4 beside a
    # sum table), recorded while each block still gathered every beta[tau] at its far-side
    # numerators; value - negative_clamp as above
    "table_shape": table_shape_bits,
    # the CBC criteria and the closed-form recheck, recorded while every residue row was
    # copied into a buffer of its caller
    "closed_form": lambda: {k: v for b in BUDGETS for k, v in closed_form_bits(b).items()},
    "cbc_grid": grid_rows,
    "sweep_2_20": sweep_bits,
}


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def render(groups: dict) -> str:
    """The file's text: one line per key, or per row of a group that is a list."""
    blocks = []
    for name, entries in groups.items():
        if isinstance(entries, list):
            lines, ends = [json.dumps(row) for row in entries], "[]"
        else:
            lines, ends = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()], "{}"
        blocks.append(f"{json.dumps(name)}: {ends[0]}\n" + ",\n".join(lines) + f"\n{ends[1]}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _keyed(entries) -> dict:
    if isinstance(entries, dict):
        return entries
    return {f"{r['construction']}/N{r['N']}/{r['kind']}{r['alpha'] or ''}/{r['form']}": r
            for r in entries}


def _numbers(value) -> dict:
    """A pinned value as named lists of numbers, each float.hex text read back."""
    named = value if isinstance(value, dict) else {"value": value}
    return {name: [float.fromhex(v) if isinstance(v, str) else v
                   for v in (x if isinstance(x, list) else [x])]
            for name, x in named.items() if name in ("value", "z", "criteria", "recheck")}


def _ordinal(x: float) -> int:
    """x's place among the doubles: neighbours differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & (2**63 - 1))


def describe(old, new) -> str:
    if old is None or new is None:
        return "new" if old is None else "gone"
    old, new = _numbers(old), _numbers(new)
    if old.get("z") != new.get("z"):
        return "z moved"
    moves = []
    for name, was in old.items():
        pairs = [(a, b) for a, b in zip(was, new[name], strict=True) if a != b]
        if pairs:
            ulps = max(abs(_ordinal(b) - _ordinal(a)) for a, b in pairs)
            rel = max(abs(b - a) / abs(a) if a else math.inf for a, b in pairs)
            what = f"{name} ({len(pairs)} of {len(was)}) by up to" if len(was) > 1 else f"{name} by"
            moves.append(f"{what} {ulps} ulps, {rel:.2g} relative")
    return "moved: " + "; ".join(moves) if moves else "unchanged"


def _holds(old, new) -> bool:
    """Whether a recorded grid row still passes its test against the new run."""
    return old is not None and old["z"] == new["z"] and all(
        grid_close(b, a) for a, b in zip(old["criteria"], new["criteria"], strict=True))


def main() -> None:
    old = load() if PATH.exists() else {}
    new = {name: produce() for name, produce in GROUPS.items()}
    counts = Counter()
    for group in dict.fromkeys([*old, *new]):
        was, now = _keyed(old.get(group, {})), _keyed(new.get(group, {}))
        # a grid row is compared to a tolerance: while it holds, the recorded row stays
        kept = {key: was[key] for key, row in now.items()
                if group == "cbc_grid" and _holds(was.get(key), row)}
        for key in dict.fromkeys([*was, *now]):
            line = describe(was.get(key), now.get(key))
            if key in kept and line != "unchanged":
                line += "; within the grid's tolerance, kept"
            counts[line.split(":")[0] + (" (kept)" if "kept" in line else "")] += 1
            print(f"{group}/{key}: {line}")
        if group in new:
            rows = {**now, **kept}
            new[group] = list(rows.values()) if isinstance(new[group], list) else rows
    PATH.write_text(render(new), encoding="utf-8")
    print(", ".join(f"{n} {what}" for what, n in counts.items()) + f"; wrote {PATH.name}")


if __name__ == "__main__":
    main()
