"""The README's python example runs and prints what its comments say, and
its command-line examples exit 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from origamikz.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_commented_values():
    text = README.read_text()
    start = text.index("```python\n") + len("```python\n")
    code = text[start:text.index("```", start)]
    expected = [
        line.split("  # ", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_readme_commands_exit_zero(tmp_path, capsys):
    # every line of the README's `origamikz ...` block, run on L(2,4)
    text = README.read_text()
    block = next(b for b in re.findall(r"```\w*\n(.*?)```", text, re.S)
                 if b.startswith("origamikz "))
    lines = [line.split("  #", 1)[0] for line in block.splitlines()]
    surface = tmp_path / "l24.txt"
    surface.write_text("d=5\nh=(1 2)\nv=(1 3 4 5)\n")
    for line in lines:
        argv = [str(surface) if a == "l24.txt" else a for a in shlex.split(line)[1:]]
        assert main(argv) == 0, line
    capsys.readouterr()
    assert len(lines) == 8
