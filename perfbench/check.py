"""Output checker: every operation's output is checked, and a failed check
counts against ``ok_rate`` exactly like an operation that raised.

Two kinds of check:

* invariants, for any seed: the CBC recheck agrees with the last
  per-dimension criterion, plain and fast CBC give the same vector, an exact
  error never exceeds its bound, CLI commands exit 0 with parseable output,
  and exported points equal an independent recomputation;
* reference outputs recorded at the parent commit, for every op whose input
  key is in ``reference.json`` (all ops of the default seed): identical
  generating vectors, and numbers equal to the tolerances below.

Exact errors are compared with EXACT_RTOL, wide enough for the rounding of
the O(N^2 s) sums (two double-precision routes differ by 2.4e-4 relative at
N = 2003), so that a change that makes them more accurate does not fail.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import product_weights

RECHECK_RTOL = 1e-9
EXACT_RTOL = 1e-3
BOUND_RTOL = 1e-9
CSV_RTOL = 1e-9
ERROR_FLOOR = 1e-15


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def summarize(op, out: dict) -> dict:
    """The part of an op's output that ``reference.json`` records."""
    if op.kind in ("cbc_fast", "cbc_plain"):
        return {"z": out["z"], "last": out["last"]}
    if op.kind in ("exact_tent", "exact_sym"):
        return {"exact": out["exact"], "bound": out["bound"]}
    if op.kind == "cli_experiment":
        return {"csv": out["out"].read_text()}
    if op.kind == "cli_cbc":
        data = json.loads(out["out"].read_text())
        return {"z": data["z"], "last": data["criterion_per_dim"][-1]}
    if op.kind == "cli_wce":
        return {"value": json.loads(out["out"].read_text())["value"]}
    return {}


def check(ctx, op, out: dict) -> list[str]:
    """Problems found in one op's output; empty when it is correct."""
    try:
        problems = _INVARIANTS[op.kind](ctx, op, out)
        if not problems and op.key in ctx.refs:
            problems = _against_reference(op, summarize(op, out), ctx.refs[op.key])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"{op.key}: {p}" for p in problems]


# -- invariants ---------------------------------------------------------------


def _vector_problems(z, n: int, s: int) -> list[str]:
    """Candidates z and N - z score the same and the tie rule keeps the
    smaller, so every entry of a CBC vector lies in 1..(N-1)/2."""
    if len(z) != s or z[0] != 1 or not all(1 <= v <= (n - 1) // 2 for v in z):
        return [f"malformed generating vector of length {len(z)}"]
    return []


def _cbc_fast(ctx, op, out):
    p = op.params
    problems = _vector_problems(out["z"], p["N"], p["s"])
    if not _close(out["recheck"], out["last"], RECHECK_RTOL):
        problems.append(f"recheck {out['recheck']!r} != last criterion {out['last']!r}")
    return problems


def _cbc_plain(ctx, op, out):
    p = op.params
    problems = _vector_problems(out["z"], p["N"], p["s"])
    fast = ctx.lib.cbc.cbc_fast(p["N"], p["s"], ctx.prepared[op.key])
    if list(fast.z) != out["z"]:
        problems.append("plain and fast CBC vectors differ")
    return problems


def _exact(ctx, op, out):
    exact, bound = out["exact"], out["bound"]
    if not (math.isfinite(exact) and exact >= 0 and math.isfinite(bound) and bound > 0):
        return [f"non-finite or negative values exact={exact!r} bound={bound!r}"]
    if exact > bound * (1 + EXACT_RTOL):
        return [f"exact error {exact!r} exceeds its bound {bound!r}"]
    return []


def _cli_status(out) -> list[str]:
    if out["code"] != 0:
        return [f"exit code {out['code']}: {out['stderr'].strip()[-300:]}"]
    if out["out"] is not None and not out["out"].is_file():
        return ["no output file"]
    return []


def _cli_experiment(ctx, op, out):
    problems = _cli_status(out)
    if problems:
        return problems
    lines = out["out"].read_text().splitlines()
    cfg = ctx.lib.pkg.experiment_config(op.params["name"])
    if lines[0] != ctx.lib.pkg.experiments.CSV_HEADER or len(lines) != len(cfg.N_list) + 1:
        return ["experiment CSV has the wrong header or row count"]
    for line in lines[1:]:
        errs = [float(c) for c in line.split(",")[2:5]]
        if any(e < 0 for e in errs if not math.isnan(e)):
            return [f"negative error in row {line!r}"]
    return []


def _cli_cbc(ctx, op, out):
    problems = _cli_status(out)
    if problems:
        return problems
    p = op.params
    data = json.loads(out["out"].read_text())
    problems = _vector_problems(data["z"], p["N"], p["s"])
    if problems:
        return problems
    crit = ctx.lib.cbc.CbcCriterion(kind="tent", base_weights=product_weights(ctx.lib, p["s"]))
    recheck = crit.value(ctx.lib.pkg.LatticeRule(N=p["N"], z=tuple(data["z"])))
    if not _close(recheck, data["criterion_per_dim"][-1], RECHECK_RTOL):
        problems.append("recheck disagrees with the last per-dimension criterion")
    return problems


def _cli_argument(ctx, op, flag: str) -> str:
    argv = ctx.prepared[op.key][0]
    return argv[argv.index(flag) + 1]


def _cli_wce(ctx, op, out):
    problems = _cli_status(out)
    if problems:
        return problems
    p = op.params
    data = json.loads(out["out"].read_text())
    value = data["value"]
    if not (math.isfinite(value) and value >= 0 and _close(data["root"], math.sqrt(value), 1e-12)):
        return [f"malformed error report {data!r}"]
    z = tuple(int(v) for v in _cli_argument(ctx, op, "--z").split(","))
    rule = ctx.lib.pkg.LatticeRule(N=p["N"], z=z)
    w = product_weights(ctx.lib, p["s"])
    if p["space"] == "sym":
        bound = ctx.lib.wce.wce_sym_bound(2, w, rule).value
    else:
        bound = ctx.lib.wce.wce_tent_bound(w, rule).value
    if value > bound * (1 + EXACT_RTOL):
        return [f"exact error {value!r} exceeds its bound {bound!r}"]
    return []


def _cli_points(ctx, op, out):
    problems = _cli_status(out)
    if problems:
        return problems
    p = op.params
    n, s = p["N"], p["s"]
    z = np.array([int(v) for v in _cli_argument(ctx, op, "--z").split(",")], dtype=np.int64)
    base = np.outer(np.arange(n, dtype=np.int64), z) % n
    blocks = []
    for mask in range(1 << s):
        flip = np.array([(mask >> j) & 1 for j in range(s)], dtype=bool)
        blocks.append(np.where(flip, n - base, base))
    expected = np.vstack(blocks) / float(n)
    got = np.loadtxt(out["out"], delimiter=",", ndmin=2)
    if got.shape != expected.shape or not np.array_equal(got, expected):
        return [f"exported points differ from the symmetrized rule (shape {got.shape})"]
    return []


def _cli_verify_appendix(ctx, op, out):
    problems = _cli_status(out)
    rows = out["stdout"].splitlines()
    if not problems and (not rows or not all("  PASS  " in r for r in rows)):
        problems = ["verify-appendix reported a failed or missing check"]
    return problems


_INVARIANTS = {"cbc_fast": _cbc_fast, "cbc_plain": _cbc_plain, "exact_tent": _exact,
               "exact_sym": _exact, "cli_experiment": _cli_experiment, "cli_cbc": _cli_cbc,
               "cli_wce": _cli_wce, "cli_points": _cli_points,
               "cli_verify_appendix": _cli_verify_appendix}


# -- reference outputs --------------------------------------------------------


def _csv_equal(got: str, want: str) -> bool:
    g, w = got.splitlines(), want.splitlines()
    if len(g) != len(w) or g[0] != w[0]:
        return False
    for gl, wl in zip(g[1:], w[1:]):
        gc, wc = gl.split(","), wl.split(",")
        if len(gc) != len(wc) or gc[:2] != wc[:2] or gc[5:] != wc[5:]:
            return False
        for a, b in zip(map(float, gc[2:5]), map(float, wc[2:5])):
            if math.isnan(a) or math.isnan(b):
                if not (math.isnan(a) and math.isnan(b)):
                    return False
            elif max(a, b) > ERROR_FLOOR and abs(a - b) > CSV_RTOL * abs(b) + ERROR_FLOOR:
                return False
    return True


def _against_reference(op, got: dict, want: dict) -> list[str]:
    problems = []
    if "z" in want and got["z"] != want["z"]:
        problems.append("generating vector differs from the reference")
    if "last" in want and not _close(got["last"], want["last"], RECHECK_RTOL):
        problems.append(f"criterion {got['last']!r} differs from the reference {want['last']!r}")
    if "exact" in want and not _close(got["exact"], want["exact"], EXACT_RTOL):
        problems.append(f"exact error {got['exact']!r} differs from the reference")
    if "bound" in want and not _close(got["bound"], want["bound"], BOUND_RTOL):
        problems.append(f"bound {got['bound']!r} differs from the reference")
    if "value" in want and not _close(got["value"], want["value"], EXACT_RTOL):
        problems.append(f"error {got['value']!r} differs from the reference")
    if "csv" in want and not _csv_equal(got["csv"], want["csv"]):
        problems.append("experiment CSV differs from the reference")
    return problems
