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


@pytest.mark.parametrize("cell", ["nan", "1.7"])
def test_external_points_outside_the_cube_exit_2_with_one_line(cell, tmp_path, capsys):
    """An --external-points file of f1_s20's 67 x 20 points, all 0.5 but one
    cell that is NaN or 1.7, is refused: no err_external is printed for it."""
    cells = np.full((67, 20), "0.5", dtype=object)
    cells[30, 7] = cell
    ext = tmp_path / "ext.csv"
    ext.write_text("".join(",".join(row) + "\n" for row in cells))
    assert main(["experiment", "--name", "f1_s20", "--n-list", "67",
                 "--external-points", str(ext)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the integrands take points in [0, 1]^s, not outside it or NaN"]


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


def test_verify_appendix_passes(capsys):
    assert main(["verify-appendix"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_exit_code_precondition():
    weights = json.dumps({"form": "product", "gamma": [1.0]})
    # composite N for the construction bound -> precondition violation
    assert main(["bound", "--kind", "tent", "--n", "6", "--lambda", "1.0",
                 "--weights", weights]) == 2
    # lambda out of range
    assert main(["bound", "--kind", "tent", "--n", "5", "--lambda", "0.5",
                 "--weights", weights]) == 2
    # bad generating vector entry
    assert main(["points", "--n", "5", "--z", "0", "--out", "-"]) == 2


@pytest.mark.parametrize("weights,message", [
    ("{bad", "is not valid JSON"),
    ('{"form":"product"}', "needs the key 'gamma'"),
    ("no_such_weights.json", "which names no file, is not valid JSON"),
    ("[1.0]", "is not a JSON object"),
    ('{"form":"product","gamma":3}', "malformed value"),
    # each of these once exited 0 with other weights ("25" read as (2, 5), true as 1.0) ...
    ('{"form":"product","gamma":"25"}', "'gamma' must be a JSON array of numbers"),
    ('{"form":"product","gamma":[true,0.5]}', "'gamma' must be a JSON array of numbers"),
    ('{"form":"product","gamma":[1,"0.5"]}', "'gamma' must be a JSON array of numbers"),
    ('{"form":"general","subsets":{"1,2":"0.5"}}', "'subsets' must be a JSON object of numbers"),
    ('{"form":"general","subsets":{"1,2":true}}', "'subsets' must be a JSON object of numbers"),
    # ... and these exited 1 with an AttributeError traceback
    ('{"form":"general","subsets":[]}', "'subsets' must be a JSON object of numbers"),
    ('{"form":"general","subsets":null}', "'subsets' must be a JSON object of numbers"),
    # ... and each of these was read as another subset ("1_0" as 10), refused as
    # "dimension must be >= 1" ("0") or without naming --weights
    ('{"form":"general","subsets":{"1_0":1}}', "has a malformed value: subset key '1_0'"),
    ('{"form":"general","subsets":{"+2":1}}', "subset key '+2'"),
    ('{"form":"general","subsets":{"0":1}}', "subset key '0'"),
    ('{"form":"general","subsets":{"1,,2":1}}', "subset key '1,,2'"),
    ('{"form":"pod","gamma":[1]}', "needs the key 'Gamma'"),
    ('{"form":"nope","gamma":[1]}', "unknown weight form 'nope'"),
    ("null", "is not a JSON object"),
    # each of these exited 0 with the keys its form does not read dropped
    ('{"form":"product","gamma":[1,0.5],"s":3,"Gamma":[9,9],"gamma2":[7]}',
     "form 'product' takes only the keys ('form', 'gamma'), not ['s', 'Gamma', 'gamma2']"),
    ('{"form":"pod","gamma":[1],"Gamma":[1],"subsets":{"1":1}}', "not ['subsets']"),
    # json.loads refuses an integer of 4,401 digits with a ValueError that is not a
    # JSONDecodeError, which exited 1 with a traceback
    pytest.param('{"form":"product","gamma":[1%s]}' % ("0" * 4400),
                 "is not valid JSON: Exceeds the limit (4300 digits)", id="4401_digits"),
    # these exited 1 with a TypeError traceback, and "is not valid JSON" for valid JSON
    ('{"form":["product"],"gamma":[1]}', "has a malformed value: unknown weight form ['product']"),
    pytest.param('{"form":"general","subsets":{"1%s":1}}' % ("0" * 4300),
                 "has a malformed value: subset key '1000", id="key_of_4301_digits"),
])
def test_malformed_weights_are_a_precondition_violation(weights, message, capsys):
    assert main(["bound", "--kind", "tent", "--n", "13", "--lambda", "0.9",
                 "--weights", weights]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --weights") and message in err


def test_weights_file_that_is_not_utf8_is_a_precondition_violation(tmp_path, capsys):
    """A file starting with byte 0xff once exited 1 with a UnicodeDecodeError traceback."""
    wfile = tmp_path / "bad.json"
    wfile.write_bytes(b"\xff{")
    assert main(["wce", "--space", "korobov", "--n", "13", "--z", "1,5",
                 "--weights", str(wfile)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: --weights file {str(wfile)!r} is not valid JSON: ")


def test_tent_commands_refuse_alpha_other_than_2():
    weights = json.dumps({"form": "product", "gamma": [1.0]})
    assert main(["bound", "--kind", "tent", "--alpha", "3", "--n", "5", "--lambda", "1.0",
                 "--weights", weights]) == 2
    assert main(["bound", "--kind", "tent", "--alpha", "2", "--n", "5", "--lambda", "1.0",
                 "--weights", weights]) == 0
    assert main(["wce", "--space", "sob2-tent", "--alpha", "3", "--n", "5", "--z", "1",
                 "--weights", weights]) == 2


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


@pytest.mark.parametrize("alpha", ["3", "2.5"])
def test_sym_commands_refuse_an_alpha_that_is_not_even(alpha, capsys):
    weights = json.dumps({"form": "product", "gamma": [1.0, 0.5]})
    for args in (["wce", "--space", "sym", "--n", "13", "--z", "1,5"],
                 ["bound", "--kind", "sym", "--n", "13", "--lambda", "0.9"],
                 ["cbc", "--n", "13", "--dims", "2", "--criterion", "sym"]):
        assert main(args + ["--alpha", alpha, "--weights", weights]) == 2
        assert capsys.readouterr().err.startswith("error: alpha must be an integer >= 2 "
                                                  "divisible by 2")


def test_points_csv_on_stdout_matches_the_file(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    args = ["points", "--n", "7", "--z", "1,3", "--transform", "tent"]
    assert main(args + ["--out", str(out)]) == 0
    assert main(args) == 0
    assert capsys.readouterr().out == out.read_text()


def test_exit_code_guard():
    # symmetrizing a 21-dimensional rule trips the 2^s multiset guard
    z = ",".join(["1"] * 21)
    assert main(["points", "--n", "3", "--z", z, "--transform", "sym", "--out", "-"]) == 3


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


@pytest.mark.parametrize("weights,z", [
    ('{"form": "general", "subsets": {"1,2": 0.5, "2,1": 0.25}}', "1,5"),
    ('{"form": "general", "subsets": {"1,2": 0.5, "1,2": 0.25}}', "1,5"),
    ('{"form": "general", "subsets": {"1,1": 3.0, "2": 1.0}}', "1,5"),
    ('{"form": "general", "s": 0, "subsets": {"1,2": 1.0}}', "1,5"),
    ('{"form": "general", "s": 2.7, "subsets": {"1": 1.0}}', "1,5"),
    ('{"form": "general", "s": true, "subsets": {"1": 1.0}}', "1"),
])
def test_general_weights_that_repeat_a_subset_or_give_a_bad_s_exit_2(weights, z, capsys):
    """Each of these weights once matched the rule's dimension and exited 0."""
    assert main(["wce", "--space", "korobov", "--n", "13", "--z", z, "--weights", weights]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_overflowing_weights_exit_with_the_guard_code(capsys):
    weights = json.dumps({"form": "product", "gamma": [1e300, 1e300]})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["wce", "--space", "korobov", "--n", "13", "--z", "1,5",
                     "--weights", weights]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("guard:")


@pytest.mark.parametrize("args,gamma", [
    (["wce", "--space", "korobov", "--n", "13", "--z", "1,5"], [1e300, 1e300]),
    (["wce", "--space", "sob2-tent", "--n", "13", "--z", "1,5"], [1e300, 1e300]),
    (["cbc", "--n", "13", "--dims", "4", "--criterion", "tent"], [1.0] + [1e308] * 3),
], ids=["wce_korobov", "wce_sob2_tent", "cbc"])
def test_overflowing_weights_print_only_the_guard_line(args, gamma):
    """Run as a user runs it, with Python's default warning filters: numpy's
    overflow warnings must not reach stderr ahead of the guard line."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    weights = json.dumps({"form": "product", "gamma": gamma})
    proc = subprocess.run([sys.executable, "-m", "latticeqmc.cli", *args, "--weights", weights],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("guard: "), proc.stderr


@pytest.mark.parametrize("args,message", [
    (["figure1", "--n-list", "13,x"], "--n-list '13,x'"),
    (["f1_s20", "--n-list", "67", "--external-points", "no_such_points.csv"],
     "cannot read --external-points 'no_such_points.csv'"),
    (["f1_s20", "--n-list", "67", "--external-points", "MALFORMED"],
     "cannot read --external-points"),
])
def test_experiment_input_errors_are_a_precondition_violation(args, message, tmp_path,
                                                               capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,0.2\nfoo,bar\n")
    args = [str(bad) if a == "MALFORMED" else a for a in args]
    assert main(["experiment", "--name"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("args,code,fragment", [
    pytest.param(["wce", "--space", "korobov", "--n", "13", "--z", "1,5", "--weights",
                  '{"form": "product", "gamma": [1.0, -0.5]}'], 2,
                 "error: weights must be finite and nonnegative", id="wce/negative_gamma"),
    pytest.param(["wce", "--space", "korobov", "--n", "13", "--z", "1,5", "--weights",
                  '{"form": "product", "gamma": [1.0, 0.5, 0.25]}'], 2,
                 "error: weights cover 3 coordinates, rule has 2", id="wce/dimension_mismatch"),
    pytest.param(["wce", "--space", "sym", "--n", "13", "--z", "1,5", "--weights",
                  '{"form": "product", "gamma": [1.0, 0.5, 0.25]}'], 2,
                 "error: weights cover 3 coordinates", id="wce/sym_dimension_mismatch"),
    pytest.param(["wce", "--space", "sob2-tent", "--n", "13", "--z", "1,5", "--weights",
                  '{"form": "product", "gamma": [1.0, 0.5, 0.25]}'], 2,
                 "error: weights cover 3 coordinates", id="wce/sob2_tent_dimension_mismatch"),
    # float() overflowed on a weight of 401 digits, which exited 1 with a traceback
    pytest.param(["bound", "--kind", "tent", "--n", "13", "--lambda", "0.9", "--weights",
                  '{"form": "product", "gamma": [1%s]}' % ("0" * 400)], 2,
                 "error: weights must be finite and nonnegative", id="bound/beyond_double"),
    pytest.param(["experiment", "--name", "figure1", "--n-list", "14"], 2,
                 "error: 14 is not a Fibonacci number", id="experiment/not_fibonacci"),
    pytest.param(["cbc", "--n", "101", "--dims", "2", "--criterion", "sym", "--alpha", "310",
                  "--weights", '{"form": "product", "gamma": [1.0, 0.25]}'], 3,
                 "guard: sym alpha = 310: the weight factor 0.0 is not a positive finite double",
                 id="cbc/sym_factor_underflows"),
    pytest.param(["points", "--n", "7", "--z", "1,3", "--out", "no_such_dir/pts.csv"], 2,
                 "error: cannot write --out 'no_such_dir/pts.csv': No such file or directory",
                 id="points/unwritable_out"),
    pytest.param(["wce", "--space", "korobov", "--n", "13", "--z", "1,5", "--weights",
                  '{"form": "product", "gamma": [1.0, 0.5]}', "--out", "no_such_dir/wce.json"], 2,
                 "error: cannot write --out 'no_such_dir/wce.json'", id="wce/unwritable_out"),
    pytest.param(["cbc", "--n", "13", "--dims", "2", "--criterion", "tent", "--weights",
                  '{"form": "product", "gamma": [1.0, 0.5]}', "--out", "no_such_dir/z.json"], 2,
                 "error: cannot write --out 'no_such_dir/z.json'", id="cbc/unwritable_out"),
    pytest.param(["experiment", "--name", "figure1", "--n-list", "13,21", "--out",
                  "no_such_dir/table.csv"], 2,
                 "error: cannot write --out 'no_such_dir/table.csv'", id="experiment/unwritable_out"),
])
def test_refusals(args, code, fragment, capsys):
    assert main(args) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(fragment)
