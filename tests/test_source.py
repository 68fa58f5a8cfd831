"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "origamikz"


def test_no_assert_statements():
    # invariant checks must raise, so they survive python -O
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found


def test_cli_import_skips_dataclasses_and_inspect():
    # every command line pays for the import; these two modules cost a
    # quarter of it and nothing in the package needs them
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (
        "import sys, origamikz.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
