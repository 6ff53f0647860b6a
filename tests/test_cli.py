"""Command-line surface: flags, outputs, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from latticeqmc import cli
from latticeqmc.cbc import CbcCriterion, cbc_fast, cbc_plain
from latticeqmc.cli import WEIGHTS_HELP, main
from latticeqmc.experiments import experiment_config, run_experiment
from latticeqmc.lattice import LatticeRule, rank1_points, symmetrize, tent_transform
from latticeqmc.weights import WeightScheme
from latticeqmc.worst_case_error import corollary_bound, wce_sq_korobov_lattice, wce_sym_exact

import cli_cases


CASES = cli_cases.load()
SRC = Path(__file__).resolve().parent.parent / "src"


def _rows(test):
    """The rows of tests/data/cli_cases.json that this test runs."""
    return [row for row in CASES if row["test"] == test]


def _cases(test):
    """The rows of one test as pytest params, one per id."""
    ids = dict.fromkeys(row["id"] for row in _rows(test))
    return [pytest.param([r for r in _rows(test) if r["id"] == i], id=i) for i in ids]


@pytest.fixture
def run_cases(tmp_path, monkeypatch, capsys):
    """Run rows of the case table in tmp_path through main, or as a child process
    where the row says so, and check each as tests/cli_cases.py does."""
    monkeypatch.chdir(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run(rows):
        assert rows
        for row in rows:
            if row.get("child"):
                cli_cases.run(row, [sys.executable, "-m", "latticeqmc.cli"], tmp_path, env)
                continue
            cli_cases.write_inputs(row, tmp_path)
            for argv in row.get("before", ()):
                assert main(argv) == 0
            capsys.readouterr()
            code = main(row["argv"])
            out, err = capsys.readouterr()
            cli_cases.check(row, code, out, err, tmp_path)
    return run

def test_points_csv(tmp_path):
    out = tmp_path / "pts.csv"
    assert main(["points", "--n", "5", "--z", "1,2", "--transform", "none",
                 "--format", "csv", "--out", str(out)]) == 0
    pts = np.loadtxt(out, delimiter=",")
    np.testing.assert_array_equal(pts, rank1_points(LatticeRule(N=5, z=(1, 2))).points)


@pytest.mark.parametrize("suffix,module", [(".gz", "gzip"), (".bz2", "bz2"), (".xz", "lzma"),
                                           (".lzma", "lzma")])
def test_points_csv_compresses_by_suffix_as_savetxt_does(tmp_path, suffix, module):
    import importlib

    args = ["points", "--n", "7", "--z", "1,3", "--transform", "sym", "--out"]
    assert main(args + [str(tmp_path / "p.csv")]) == 0
    assert main(args + [str(tmp_path / f"p.csv{suffix}")]) == 0
    with importlib.import_module(module).open(tmp_path / f"p.csv{suffix}", "rt") as fh:
        assert fh.read() == (tmp_path / "p.csv").read_text()


@pytest.mark.parametrize("suffix,module", [(".gz", "gzip"), (".bz2", "bz2"), (".xz", "lzma"),
                                           (".lzma", "lzma")])
def test_every_out_compresses_by_suffix(tmp_path, suffix, module):
    """JSON outputs (points --format json, wce, cbc) once went out as plain
    text under a compressed name."""
    import importlib

    weights = '{"form":"product","gamma":[1.0,0.25]}'
    commands = {"points": ["points", "--n", "7", "--z", "1,3", "--format", "json"],
                "wce": ["wce", "--space", "sym", "--n", "13", "--z", "1,5", "--weights", weights],
                "cbc": ["cbc", "--n", "13", "--dims", "2", "--criterion", "tent",
                        "--weights", weights]}
    for name, args in commands.items():
        plain, packed = tmp_path / f"{name}.json", tmp_path / f"{name}.json{suffix}"
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--out", str(packed)]) == 0
        with importlib.import_module(module).open(packed, "rt") as fh:
            assert fh.read() == plain.read_text()


def test_points_tent_and_sym_json(tmp_path):
    out = tmp_path / "pts.json"
    assert main(["points", "--n", "5", "--z", "1,2", "--transform", "tent",
                 "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    expected = tent_transform(rank1_points(LatticeRule(N=5, z=(1, 2))))
    assert data["kind"] == "tent" and data["n"] == 5
    np.testing.assert_allclose(np.array(data["points"]), expected.points)

    assert main(["points", "--n", "5", "--z", "1,2", "--transform", "sym",
                 "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 20
    sym = symmetrize(rank1_points(LatticeRule(N=5, z=(1, 2))))
    np.testing.assert_allclose(np.array(data["points"]), sym.points)


def test_wce_korobov(tmp_path):
    out = tmp_path / "wce.json"
    weights = json.dumps({"form": "product", "gamma": [1.0]})
    assert main(["wce", "--space", "korobov", "--alpha", "1", "--n", "2", "--z", "1",
                 "--weights", weights, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["value"] == pytest.approx(np.pi**2 / 12.0, abs=1e-13)
    assert data["kind"] == "closed_form_lattice"
    assert data["root"] == pytest.approx(np.sqrt(np.pi**2 / 12.0))
    # the exact key set: no report carries a truncation or a tail
    assert set(data) == {"value", "kind", "lambda", "negative_clamp", "space", "n", "z", "root"}


def test_wce_tent_and_sym_spaces(tmp_path):
    out = tmp_path / "wce.json"
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"form": "product", "gamma": [0.5, 0.5]}))
    assert main(["wce", "--space", "sob2-tent", "--n", "13", "--z", "1,8",
                 "--weights", str(wfile), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "exact_quadratic_form"
    assert main(["wce", "--space", "sym", "--alpha", "2", "--n", "13", "--z", "1,8",
                 "--weights", str(wfile), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["value"] > 0


def test_bound_stdout(capsys):
    weights = json.dumps({"form": "product", "gamma": [1.0]})
    assert main(["bound", "--kind", "tent", "--n", "5", "--lambda", "1.0",
                 "--weights", weights]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == pytest.approx(
        corollary_bound("tent", WeightScheme.product([1.0]), 5, 1.0).value
    )
    assert set(data) == {"value", "kind", "lambda", "negative_clamp", "bound_kind", "n", "root"}


def test_cbc_fast_and_plain(tmp_path):
    """The command picks the sweep from N: the FFT for prime N, the plain
    sweep for composite N, with no flag either way."""
    gamma = [1.0, 0.5, 0.25]
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({"form": "product", "gamma": gamma}))
    out = tmp_path / "cbc.json"
    for n, prime in ((101, True), (100, False)):
        assert main(["cbc", "--n", str(n), "--dims", "3", "--criterion", "tent",
                     "--weights", str(wfile), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        plain = cbc_plain(n, 3, CbcCriterion("tent", WeightScheme.product(gamma)))
        assert data["z"] == list(plain.z) and data["prime"] is prime
    assert main(["cbc", "--n", "7", "--dims", "2", "--criterion", "sym", "--alpha", "2",
                 "--weights", str(wfile), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 7


@pytest.mark.parametrize("cmd", ["wce", "bound", "cbc"])
def test_every_weights_option_takes_json_text_or_a_file(cmd, tmp_path, capsys):
    """One help string for --weights, and cbc reads inline JSON as wce does."""
    with pytest.raises(SystemExit):
        main([cmd, "--help"])
    assert WEIGHTS_HELP in " ".join(capsys.readouterr().out.split())
    if cmd == "cbc":
        text = json.dumps({"form": "product", "gamma": [1.0, 0.5]})
        wfile = tmp_path / "w.json"
        wfile.write_text(text)
        outs = [tmp_path / "inline.json", tmp_path / "file.json"]
        for weights, out in zip((text, str(wfile)), outs):
            assert main(["cbc", "--n", "13", "--dims", "2", "--criterion", "tent",
                         "--weights", weights, "--out", str(out)]) == 0
        assert json.loads(outs[0].read_text()) == json.loads(outs[1].read_text())


def test_experiment_run(tmp_path):
    out = tmp_path / "exp.csv"
    assert main(["experiment", "--name", "figure1", "--n-list", "13,21,34,55,89",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,points_used,err_lattice,err_tent,err_sym,parity"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "13" and first[1] == "28" and first[5] == "odd"


def test_experiment_with_external_points(tmp_path):
    ext = tmp_path / "ext.csv"
    rng = np.random.default_rng(0)
    np.savetxt(ext, rng.random((130, 20)), delimiter=",")
    out = tmp_path / "exp.csv"
    assert main(["experiment", "--name", "f1_s20", "--n-list", "67,127",
                 "--external-points", str(ext), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].endswith(",err_external")


@pytest.mark.parametrize("suffix", [".gz", ".xz"])
@pytest.mark.parametrize("name,N", [("figure1", 89), ("f1_s20", 127)])
def test_exported_points_read_back_as_external_points_give_the_lattice_error(name, N, suffix,
                                                                             tmp_path):
    """`points --out` writes a rule's points and `experiment --external-points`
    reads them back through one compressed file: err_external (column 7) equals
    err_lattice (column 3) with ==, since both average the same floats."""
    cfg = replace(experiment_config(name), N_list=(N,))
    z = run_experiment(cfg).vectors[N]
    pts, table = tmp_path / f"pts.csv{suffix}", tmp_path / "rt.csv"
    assert main(["points", "--n", str(N), "--z", ",".join(map(str, z)), "--out", str(pts)]) == 0
    assert main(["experiment", "--name", name, "--n-list", str(N), "--external-points", str(pts),
                 "--out", str(table)]) == 0
    header, row = table.read_text().splitlines()
    assert header.split(",")[2] == "err_lattice" and header.split(",")[6] == "err_external"
    assert float(row.split(",")[2]) == float(row.split(",")[6])


@pytest.mark.parametrize("rows",
                         _cases("test_external_points_outside_the_cube_exit_2_with_one_line"))
def test_external_points_outside_the_cube_exit_2_with_one_line(rows, run_cases):
    """An --external-points file of f1_s20's 67 x 20 points, all 0.5 but one
    cell that is NaN or 1.7, is refused: no err_external is printed for it."""
    run_cases(rows)


def test_experiment_takes_composite_n_as_cbc_does(tmp_path, monkeypatch):
    """A composite --n-list runs `cbc_fast`, which takes the plain sweep there,
    as `cbc` does: exit 0, and the experiment's rules are cbc_plain's."""
    results = []

    def recorded(cfg, external_points=None):
        results.append(run_experiment(cfg, external_points))
        return results[-1]

    monkeypatch.setattr(cli, "run_experiment", recorded)
    out = tmp_path / "exp.csv"
    # plain CBC picks z sharing a factor with N here, which LatticeRule warns about
    with pytest.warns(UserWarning, match="share a factor"):
        assert main(["experiment", "--name", "f1_s20", "--n-list", "64,128",
                     "--out", str(out)]) == 0
    cfg = experiment_config("f1_s20")
    crit = CbcCriterion(kind="tent", base_weights=WeightScheme.product(cfg.cbc_gamma))
    assert results[0].vectors == {N: cbc_plain(N, cfg.dims, crit).z for N in (64, 128)}
    assert len(out.read_text().strip().splitlines()) == 3


def test_runtime_imports_only_numpy():
    """The package and its CLI load neither the test oracles' scipy and mpmath,
    nor concurrent.futures, nor numpy.polynomial, which the quadrature rule
    loads on first use."""
    code = ("import sys, latticeqmc, latticeqmc.cli; print([m for m in ('scipy', 'mpmath', "
            "'concurrent.futures', 'numpy.polynomial') if m in sys.modules])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent
                                                          / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_appendix_passes(run_cases):
    run_cases(_rows("test_verify_appendix_passes"))


def test_exit_code_precondition(run_cases):
    run_cases(_rows("test_exit_code_precondition"))


@pytest.mark.parametrize("rows", _cases("test_malformed_weights_are_a_precondition_violation"))
def test_malformed_weights_are_a_precondition_violation(rows, run_cases):
    run_cases(rows)


def test_weights_file_that_is_not_utf8_is_a_precondition_violation(run_cases):
    """A file starting with byte 0xff once exited 1 with a UnicodeDecodeError traceback."""
    run_cases(_rows("test_weights_file_that_is_not_utf8_is_a_precondition_violation"))


def test_tent_commands_refuse_alpha_other_than_2(run_cases):
    run_cases(_rows("test_tent_commands_refuse_alpha_other_than_2"))


def test_wce_korobov_takes_a_real_alpha(capsys):
    weights = json.dumps({"form": "product", "gamma": [1.0, 0.5]})
    assert main(["wce", "--space", "korobov", "--alpha", "1.5", "--n", "13", "--z", "1,5",
                 "--weights", weights]) == 0
    data = json.loads(capsys.readouterr().out)
    want = wce_sq_korobov_lattice(1.5, WeightScheme.product([1.0, 0.5]), LatticeRule(13, (1, 5)))
    assert data["kind"] == "closed_form_lattice" and data["value"] == want.value


def test_integer_alpha_prints_the_bytes_of_the_integer_path(capsys):
    """--alpha is read as a float; an integer value prints the same bytes as
    the library called with that int."""
    gamma = [1.0, 0.5, 0.25]
    w, rule = WeightScheme.product(gamma), LatticeRule(13, (1, 5, 3))
    weights = json.dumps({"form": "product", "gamma": gamma})

    def wce_line(report, space):
        payload = report.to_dict()
        payload.update({"space": space, "n": 13, "z": [1, 5, 3], "root": report.root})
        return json.dumps(payload) + "\n"

    bound = corollary_bound("sym", w, 13, 0.9, alpha=4)
    bound_payload = {**bound.to_dict(), "bound_kind": "sym", "n": 13, "root": bound.root}
    cases = [
        (["wce", "--space", "korobov", "--n", "13", "--z", "1,5,3"], "2",
         wce_line(wce_sq_korobov_lattice(2, w, rule), "korobov")),
        (["wce", "--space", "sym", "--n", "13", "--z", "1,5,3"], "2",
         wce_line(wce_sym_exact(2, w, rule), "sym")),
        (["bound", "--kind", "sym", "--n", "13", "--lambda", "0.9"], "4",
         json.dumps(bound_payload) + "\n"),
        (["cbc", "--n", "13", "--dims", "3", "--criterion", "sym"], "4",
         json.dumps(cbc_fast(13, 3, CbcCriterion("sym", w, 4)).to_dict()) + "\n"),
    ]
    for args, alpha, want in cases:
        for text in (alpha, alpha + ".0"):
            assert main(args + ["--alpha", text, "--weights", weights]) == 0
            assert capsys.readouterr().out == want


@pytest.mark.parametrize("rows", _cases("test_sym_commands_refuse_an_alpha_that_is_not_even"))
def test_sym_commands_refuse_an_alpha_that_is_not_even(rows, run_cases):
    run_cases(rows)


def test_points_csv_on_stdout_matches_the_file(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    args = ["points", "--n", "7", "--z", "1,3", "--transform", "tent"]
    assert main(args + ["--out", str(out)]) == 0
    assert main(args) == 0
    assert capsys.readouterr().out == out.read_text()


def test_exit_code_guard(run_cases):
    """Symmetrizing a 21-dimensional rule trips the 2^s multiset guard."""
    run_cases(_rows("test_exit_code_guard"))


@pytest.mark.parametrize("message,line", [
    ("Unable to allocate 160. GiB for an array", "guard: Unable to allocate 160. GiB for an array"),
    ("", "guard: allocation refused"),
])
def test_a_refused_allocation_exits_with_the_guard_code(message, line, monkeypatch, capsys):
    """numpy's MemoryError for an array it cannot allocate is a size guard:
    exit 3 and one guard line, not a traceback and exit 1."""
    def refuse(ps):
        raise MemoryError(*([message] if message else []))

    monkeypatch.setattr(cli, "symmetrize", refuse)
    z = ",".join(str(j) for j in range(1, 21))
    assert main(["points", "--n", "1021", "--z", z, "--transform", "sym", "--out", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


@pytest.mark.parametrize("rows",
                         _cases("test_general_weights_that_repeat_a_subset_or_give_a_bad_s_exit_2"))
def test_general_weights_that_repeat_a_subset_or_give_a_bad_s_exit_2(rows, run_cases):
    """Each of these weights once matched the rule's dimension and exited 0."""
    run_cases(rows)


def test_overflowing_weights_exit_with_the_guard_code(run_cases):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run_cases(_rows("test_overflowing_weights_exit_with_the_guard_code"))


@pytest.mark.parametrize("rows", _cases("test_overflowing_weights_print_only_the_guard_line"))
def test_overflowing_weights_print_only_the_guard_line(rows, run_cases):
    """Run as a user runs it, with Python's default warning filters: numpy's
    overflow warnings must not reach stderr ahead of the guard line."""
    run_cases(rows)


@pytest.mark.parametrize("rows",
                         _cases("test_experiment_input_errors_are_a_precondition_violation"))
def test_experiment_input_errors_are_a_precondition_violation(rows, run_cases):
    run_cases(rows)


@pytest.mark.parametrize("rows", _cases("test_refusals"))
def test_refusals(rows, run_cases):
    run_cases(rows)


@pytest.mark.parametrize("rows", _cases("test_script_cases_run_through_main"))
def test_script_cases_run_through_main(rows, run_cases):
    """The cases CI runs through the installed script, here through main."""
    run_cases(rows)
