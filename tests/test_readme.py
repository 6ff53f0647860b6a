"""The README's code runs as written: the Quick start block, and every
`latticeqmc` line of the Command line block through `cli.main`."""

import re
import shlex
from pathlib import Path

import numpy as np

from latticeqmc import cli

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
