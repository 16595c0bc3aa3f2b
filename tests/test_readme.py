"""The README's documented commands and snippet run as written."""

import json
import shlex
from pathlib import Path

from qw3.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str) -> str:
    """The first fenced code block after a README heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_readme_cli_examples_run(tmp_path):
    lines = [line for line in fenced_block("## CLI").splitlines() if line.startswith("qw3 ")]
    assert len(lines) == 6
    root = None
    for line in lines:
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            out = argv.index("--out") + 1
            argv[out] = str(tmp_path / argv[out])
        if "<root>" in argv:
            argv[argv.index("<root>")] = repr(root)
        assert main(argv) == 0, line
        if argv[0] == "roots":
            root = json.loads(Path(argv[out]).read_text())["records"][0]["lambda"]


def test_readme_library_snippet_runs(capsys):
    exec(fenced_block("## Library"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
