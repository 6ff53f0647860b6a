"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They shrink every band and dimension so that a run of each workload takes
seconds; the command-line experiments and ``verify-appendix`` keep their
fixed size, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import inputs
import run
import tracing
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

TINY_BANDS = {name: inputs.Band(n, n, n, inputs._any) for name, n in {
    "fft_smooth": 97, "fft_rough": 107, "fft_mixed": 137, "state_fast": 101,
    "plain_product": 53, "plain_pod": 59, "exact_small": 31, "exact_large": 37,
    "cli_cbc": 131, "cli_rule": 31}.items()}
TINY_DIMS = {"CBC_FFT_DIMS": 4, "CBC_STATE_FAST_DIMS": 4, "CBC_PLAIN_DIMS": 3,
             "EXACT_DIMS": 3, "CLI_CBC_DIMS": 3, "CLI_RULE_DIMS": 2}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(inputs, "BANDS", TINY_BANDS)
    for name, value in TINY_DIMS.items():
        monkeypatch.setattr(inputs, name, value)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# -- inputs -------------------------------------------------------------------


def test_default_seed_gives_the_default_grid_and_seeds_repeat():
    for band in inputs.BANDS.values():
        assert band.default in band.members()
    assert [op.params["N"] for op in inputs.generate("cbc_fft", inputs.DEFAULT_SEED)] == [
        65537, 65543, 131101]
    for workload in inputs.WORKLOADS:
        assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
        keys = {op.key for op in inputs.generate(workload, inputs.DEFAULT_SEED)}
        assert keys <= set(json.loads(workloads.REFERENCE.read_text()))


# -- checker ------------------------------------------------------------------


def test_checker_flags_a_corrupted_vector():
    ctx = workloads.setup("cbc_fft", inputs.DEFAULT_SEED, workloads.HERE / ".work")
    op = ctx.ops[0]
    ref = ctx.refs[op.key]
    good = {"z": list(ref["z"]), "last": ref["last"], "recheck": ref["last"]}
    assert check.check(ctx, op, good) == []
    corrupted = dict(good, z=good["z"][:5] + [good["z"][5] + 1] + good["z"][6:])
    assert any("differs from the reference" in p for p in check.check(ctx, op, corrupted))
    out_of_range = dict(good, z=good["z"][:-1] + [op.params["N"]])
    assert any("malformed" in p for p in check.check(ctx, op, out_of_range))
    drifted = dict(good, recheck=ref["last"] * (1 + 1e-6))
    assert any("recheck" in p for p in check.check(ctx, op, drifted))


def test_checker_flags_a_failed_cli_exit():
    ctx = workloads.setup("cli_pipeline", inputs.DEFAULT_SEED, workloads.HERE / ".work")
    op = next(op for op in ctx.ops if op.kind == "cli_verify_appendix")
    failed = {"code": 2, "stdout": "", "stderr": "error: boom", "out": None}
    assert any("exit code 2" in p for p in check.check(ctx, op, failed))
    fail_row = {"code": 0, "stdout": "identity  FAIL  detail\n", "stderr": "", "out": None}
    assert check.check(ctx, op, fail_row)


def test_exact_error_tolerance_admits_the_documented_rounding():
    ctx = workloads.setup("exact_error", inputs.DEFAULT_SEED, workloads.HERE / ".work")
    op = ctx.ops[0]
    ref = ctx.refs[op.key]
    rounded = {"exact": ref["exact"] * (1 + 2.4e-4), "bound": ref["bound"]}
    assert check.check(ctx, op, rounded) == []
    above_bound = {"exact": ref["bound"] * 1.01, "bound": ref["bound"]}
    assert check.check(ctx, op, above_bound)


# -- tracing ------------------------------------------------------------------


def test_self_time_is_never_negative_and_children_nest():
    lib = workloads.import_program()
    tracer = tracing.Tracer()
    tracer.install(lib.pkg)
    try:
        tracer.active = True
        crit = workloads.criterion(lib, {"s": 5, "weights": "pod", "criterion": "tent"})
        result = lib.cbc.cbc_fast(101, 5, crit)
        crit.value(result.rule())
        lib.cli.main(["verify-appendix"])
    finally:
        tracer.active = False
        tracer.uninstall()
    assert lib.cbc.cbc_fast.__name__ == "cbc_fast" and not hasattr(lib.cbc.cbc_fast,
                                                                    "__wrapped__")
    names = {span.name for span in tracer.spans}
    assert {"cbc.cbc_fast", "cbc.fft", "cbc.recheck", "weights.combine",
            "fourier.run_appendix_checks", "cli.main"} <= names
    for span in tracer.spans:
        assert span.self_s >= -1e-9, span.name
        if span.parent is not None:
            assert span.parent.start <= span.start <= span.end <= span.parent.end
    stats = tracing.pass_stats(tracer.spans)
    assert all(st["self_s"] >= -1e-9 for st in stats.values())
    assert stats["cbc.fft"]["count"] == 100 * (1 + 2 * 4)


def test_a_mapped_layer_without_calls_is_reported():
    assert {"cbc.fft", "cbc.cbc_fast", "cbc.recheck"} <= set(tracing.empty_layers({}, "cbc_fft"))
    assert "cli.main" not in tracing.empty_layers({}, "cbc_fft")


# -- whole runs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, tiny, capsys):
    for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)])
        result = _result(capsys)
        assert code == 0 and result["correct"], result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[listed]]
        assert result["failed"] == 0 and result["attempted"] >= 2 * len(
            inputs.generate(workload, inputs.DEFAULT_SEED))


def test_run_refuses_a_directory_without_the_program(tmp_path):
    for rel in BENCHMARK["paths"]:
        shutil.copytree(workloads.ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "cbc_fft",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not Path(tmp_path, "perfbench", ".work").exists()
