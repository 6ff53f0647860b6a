"""Record the CBC bit-identity grid into cbc_grid.json.

    PYTHONPATH=src python tests/data/record_cbc_grid.py

Run it from the root of a checkout whose generating vectors are trusted.
`tests/test_cbc.py::test_cbc_grid_fixture` reruns every case and requires
the same z and the same per-dimension criteria to a rounding tolerance, so
a change that moves a vector shows as a diff of this file.

The grid: `cbc_fast` at prime N whose h = (N-1)/2 is 1, 5-smooth, has its
largest prime factor in 7..17 (1009, 1021, 4421, 8191, 11969) or has the
prime factor 683 (4099); `cbc_plain` at prime and composite N; s = 12; every criterion (tent, sym alpha = 2 and 4, plain Korobov
alpha = 1 and 2); product weights gamma_j = j^-2 and POD weights with
Gamma_k = k! and the same gamma_j.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from latticeqmc.cbc import CbcCriterion, cbc_fast, cbc_plain
from latticeqmc.weights import WeightScheme

S = 12
FAST_N = (2, 3, 13, 101, 1009, 1021, 4099, 4421, 8191, 11969)
PLAIN_N = (2, 3, 12, 13, 100, 101, 256, 1009)
CRITERIA = (("tent", None), ("sym", 2), ("sym", 4), ("plain_korobov", 1), ("plain_korobov", 2))
FORMS = ("product", "pod")
CONSTRUCTIONS = {"cbc_fast": cbc_fast, "cbc_plain": cbc_plain}
OUT = Path(__file__).with_name("cbc_grid.json")


def weights(form: str) -> WeightScheme:
    gam = [1.0 / j**2 for j in range(1, S + 1)]
    if form == "product":
        return WeightScheme.product(gam)
    return WeightScheme.pod([float(math.factorial(k)) for k in range(1, S + 1)], gam)


def cases():
    for construction, ns in (("cbc_fast", FAST_N), ("cbc_plain", PLAIN_N)):
        for N in ns:
            for kind, alpha in CRITERIA:
                for form in FORMS:
                    yield {"construction": construction, "N": N, "s": S,
                           "kind": kind, "alpha": alpha, "form": form}


def run(case: dict):
    crit = CbcCriterion(kind=case["kind"], base_weights=weights(case["form"]),
                        alpha=case["alpha"])
    return CONSTRUCTIONS[case["construction"]](case["N"], case["s"], crit)


def main() -> None:
    rows = []
    for case in cases():
        res = run(case)
        rows.append(json.dumps({**case, "z": list(res.z),
                                "criteria": list(res.per_dimension_error)}))
    OUT.write_text("[\n" + ",\n".join(rows) + "\n]\n")
    print(f"recorded {len(rows)} runs into {OUT.name}")


if __name__ == "__main__":
    main()
