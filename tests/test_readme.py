"""The README's code runs as written: the Quick start block, every
`latticeqmc` line of the Command line block through `cli.main`, and every
entry of the table of the α each entry takes."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from latticeqmc import cli
from latticeqmc.cbc import CbcCriterion
from latticeqmc.errors import DomainError, GuardError
from latticeqmc.fourier import c_sym
from latticeqmc.lattice import LatticeRule
from latticeqmc.weights import WeightScheme
from latticeqmc.worst_case_error import (
    corollary_bound,
    korobov_residue_table,
    wce_sq_korobov_lattice,
    wce_sym_bound,
    wce_sym_exact,
)

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> str:
    """The first ```lang block of the README section ## heading."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    exec(compile(_block("Quick start", "python"), "README.md", "exec"), {})
    exact, _, bound = capsys.readouterr().out.split()
    assert 0.0 <= float(exact) <= float(bound)


def test_every_command_line_runs(tmp_path, monkeypatch):
    """Each line is `echo '<text>' > <file>`, which writes the file, or a
    `latticeqmc` command, which must exit 0.  The one input the block does
    not make, the external point file of `experiment --external-points`
    (a digital net produced elsewhere), is stood in for by random points of
    its shape: s = 20, and rows for the largest N of the f2c1_s20 grid."""
    monkeypatch.chdir(tmp_path)
    np.savetxt("sobol.csv", np.random.default_rng(0).random((2**14, 20)), delimiter=",")
    ran = []
    for line in _block("Command line", "sh").splitlines():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        if words[0] == "echo":
            assert len(words) == 4 and words[2] == ">", line
            Path(words[3]).write_text(words[1])
            continue
        assert words[0] == "latticeqmc", line
        assert cli.main(words[1:]) == 0, line
        ran.append(words[1])
    assert {"points", "wce", "bound", "cbc", "experiment", "verify-appendix"} <= set(ran)


W, RULE = WeightScheme.product([1.0, 0.5]), LatticeRule(13, (1, 5))
WEIGHTS = '{"form":"product","gamma":[1,0.5]}'
# Each entry of the table, as a call of alpha (library) or the argv before --alpha (CLI).
ENTRIES = {
    "wce_sq_korobov_lattice": lambda a: wce_sq_korobov_lattice(a, W, RULE),
    "korobov_residue_table": lambda a: korobov_residue_table(a, 13),
    'CbcCriterion("plain_korobov", w, α)':
        lambda a: CbcCriterion("plain_korobov", W, a).value(RULE),
    "wce --space korobov": ["wce", "--space", "korobov", "--n", "13", "--z", "1,5"],
    'CbcCriterion("sym", w, α)': lambda a: CbcCriterion("sym", W, a).middle_term(RULE),
    "wce_sym_bound": lambda a: wce_sym_bound(a, W, RULE),
    'corollary_bound("sym", …)': lambda a: corollary_bound("sym", W, 13, 0.9, alpha=a),
    "bound --kind sym": ["bound", "--kind", "sym", "--n", "13", "--lambda", "0.9"],
    "cbc --criterion sym": ["cbc", "--n", "13", "--dims", "2", "--criterion", "sym"],
    "wce_sym_exact": lambda a: wce_sym_exact(a, W, RULE),
    "wce --space sym": ["wce", "--space", "sym", "--n", "13", "--z", "1,5"],
    "c_sym": lambda a: c_sym(1, 2, a),
    'CbcCriterion("tent", w, α)': lambda a: CbcCriterion("tent", W, a).middle_term(RULE),
    'corollary_bound("tent", …)': lambda a: corollary_bound("tent", W, 13, 0.9, alpha=a),
    "bound --kind tent": ["bound", "--kind", "tent", "--n", "13", "--lambda", "0.9"],
    "wce --space sob2-tent": ["wce", "--space", "sob2-tent", "--n", "13", "--z", "1,5"],
}


def _alpha_table():
    """(entries, accepted alpha, refused alpha, message) for each row of the table
    headed | Entry | α it takes |: the entries are the code spans of the first
    cell, the accepted alpha the bold number of the second, and the third cell
    reads `refused alpha`: message."""
    lines = README.split("\n| Entry | α it takes |", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    rows = []
    for line in lines:
        entries, takes, refused = (cell.strip() for cell in line.strip("|").split("|"))
        alpha, message = re.fullmatch(r"`([^`]+)`: (.+)", refused).groups()
        accepted = re.search(r"\*\*(.+?)\*\*", takes).group(1)
        rows.append((re.findall(r"`([^`]+)`", entries), accepted, alpha, message))
    return rows


ALPHA_TABLE = _alpha_table()


def _refusal(entry, alpha: str, capsys):
    """None if the entry takes alpha (given as the README writes it), else its message."""
    call = ENTRIES[entry]
    if isinstance(call, list):
        code = cli.main(call + ["--alpha", alpha, "--weights", WEIGHTS])
        err = capsys.readouterr().err
        return err if code else None
    try:
        call(int(alpha) if alpha.isdigit() else float(alpha))
    except (DomainError, GuardError) as exc:
        return str(exc)
    return None


def test_the_alpha_table_names_every_entry_once():
    named = [entry for entries, *_ in ALPHA_TABLE for entry in entries]
    assert sorted(named) == sorted(ENTRIES)


@pytest.mark.parametrize("entries,accepted,refused,message", ALPHA_TABLE,
                         ids=[row[0][0].replace("α", "alpha") for row in ALPHA_TABLE])
def test_every_entry_takes_and_refuses_the_alpha_the_table_gives(entries, accepted, refused,
                                                                 message, capsys):
    for entry in entries:
        assert _refusal(entry, accepted, capsys) is None, (entry, accepted)
        assert message in (_refusal(entry, refused, capsys) or ""), (entry, refused)
