"""Set-up and operations of the benchmark workloads.

``setup`` imports the program from the checkout's ``src``, generates the
seeded inputs, builds what the operations take as given (weights, criteria,
the rules of ``exact_error`` and the command lines of ``cli_pipeline``) and
loads the reference outputs.  ``run_op`` runs one operation and returns its
raw output; checking it is ``check.py``'s job and is never timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
CLI_TIMEOUT_S = 150


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/latticeqmc`` to benchmark."""


def import_program() -> SimpleNamespace:
    """Import latticeqmc from this checkout, never from anywhere else."""
    if not (SRC / "latticeqmc" / "__init__.py").is_file():
        raise ProgramMissing(f"no latticeqmc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import latticeqmc
    import latticeqmc.cli

    if Path(latticeqmc.__file__).resolve().parent != SRC / "latticeqmc":
        raise ProgramMissing(f"latticeqmc was imported from {latticeqmc.__file__}, not {SRC}")
    return SimpleNamespace(pkg=latticeqmc, cbc=latticeqmc.cbc, cli=latticeqmc.cli,
                           lattice=latticeqmc.lattice, weights=latticeqmc.weights,
                           kernels=latticeqmc.kernels, wce=latticeqmc.worst_case_error)


@dataclass
class Context:
    workload: str
    seed: int
    ops: list
    lib: SimpleNamespace
    refs: dict
    workdir: Path
    prepared: dict = field(default_factory=dict)


def product_weights(lib, s: int):
    return lib.weights.WeightScheme.product(inputs.product_gamma(s))


def pod_weights(lib, s: int):
    return lib.weights.WeightScheme.pod(inputs.pod_order_weights(s), inputs.product_gamma(s))


def criterion(lib, params: dict):
    s = params["s"]
    w = pod_weights(lib, s) if params["weights"] == "pod" else product_weights(lib, s)
    return lib.cbc.CbcCriterion(kind=params["criterion"], base_weights=w,
                                alpha=params.get("alpha"))


def _rule(lib, n: int, s: int, kind: str, alpha: int | None = None):
    crit = lib.cbc.CbcCriterion(kind=kind, base_weights=product_weights(lib, s), alpha=alpha)
    return lib.cbc.cbc_fast(n, s, crit).rule()


def _weights_json(s: int) -> str:
    return json.dumps({"form": "product", "gamma": inputs.product_gamma(s)})


def _cli_argv(lib, op, workdir: Path) -> tuple[list[str], Path | None]:
    p = op.params
    if op.kind == "cli_experiment":
        out = workdir / f"experiment_{p['name']}.csv"
        return ["experiment", "--name", p["name"], "--out", str(out)], out
    if op.kind == "cli_cbc":
        out = workdir / "cbc.json"
        return ["cbc", "--n", str(p["N"]), "--dims", str(p["s"]), "--criterion", "tent",
                "--weights", _weights_json(p["s"]), "--out", str(out)], out
    if op.kind == "cli_verify_appendix":
        return ["verify-appendix"], None
    z = ",".join(str(v) for v in _rule(lib, p["N"], p["s"], "tent").z)
    if op.kind == "cli_wce":
        out = workdir / f"wce_{p['space']}.json"
        argv = ["wce", "--space", p["space"], "--n", str(p["N"]), "--z", z,
                "--weights", _weights_json(p["s"]), "--out", str(out)]
        return argv + (["--alpha", "2"] if p["space"] == "sym" else []), out
    if op.kind == "cli_points":
        out = workdir / "points.csv"
        return ["points", "--n", str(p["N"]), "--z", z, "--transform", "sym",
                "--out", str(out)], out
    raise ValueError(f"unknown cli op {op.kind!r}")


def setup(workload: str, seed: int, workdir: Path) -> Context:
    lib = import_program()
    ctx = Context(workload=workload, seed=seed, ops=inputs.generate(workload, seed), lib=lib,
                  refs=json.loads(REFERENCE.read_text()), workdir=Path(workdir))
    for op in ctx.ops:
        p = op.params
        if op.kind in ("cbc_fast", "cbc_plain"):
            ctx.prepared[op.key] = criterion(lib, p)
        elif op.kind == "exact_tent":
            rule = _rule(lib, p["N"], p["s"], "tent")
            ps = lib.lattice.tent_transform(lib.lattice.rank1_points(rule))
            spec = lib.kernels.KernelSpec(family="sobolev", alpha=2,
                                          weights=product_weights(lib, p["s"]))
            ctx.prepared[op.key] = (rule, ps, spec)
        elif op.kind == "exact_sym":
            ctx.prepared[op.key] = _rule(lib, p["N"], p["s"], "sym", p["alpha"])
        else:
            ctx.prepared[op.key] = _cli_argv(lib, op, ctx.workdir)
    return ctx


# -- operations ---------------------------------------------------------------


def run_op(ctx: Context, op, cli_in_process: bool) -> dict:
    lib, prep, p = ctx.lib, ctx.prepared[op.key], op.params
    if op.kind == "cbc_fast":
        res = lib.cbc.cbc_fast(p["N"], p["s"], prep)
        return {"z": list(res.z), "last": res.per_dimension_error[-1],
                "recheck": prep.value(res.rule())}
    if op.kind == "cbc_plain":
        res = lib.cbc.cbc_plain(p["N"], p["s"], prep)
        return {"z": list(res.z), "last": res.per_dimension_error[-1]}
    if op.kind == "exact_tent":
        rule, ps, spec = prep
        return {"exact": lib.wce.wce_sq_quadratic_form(spec, ps).value,
                "bound": lib.wce.wce_tent_bound(spec.weights, rule).value}
    if op.kind == "exact_sym":
        w = product_weights(lib, p["s"])
        return {"exact": lib.wce.wce_sym_exact(p["alpha"], w, prep).value,
                "bound": lib.wce.wce_sym_bound(p["alpha"], w, prep).value}
    argv, out = prep
    if out is not None and out.exists():
        out.unlink()
    if cli_in_process:
        return _cli_in_process(lib, argv, out)
    return _cli_subprocess(argv, out, ctx.workdir)


def _cli_in_process(lib, argv: list[str], out) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "out": out}


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                       if env.get("PYTHONPATH") else []))
    return env


def _cli_subprocess(argv: list[str], out, workdir: Path) -> dict:
    proc = subprocess.run([sys.executable, "-m", "latticeqmc.cli", *argv], cwd=workdir,
                          env=program_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "out": out}
