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


def test_no_handler_catches_tracing_error():
    # a TracingError is a failed internal check: no except clause may
    # skip past it
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(node.type)}
                if "TracingError" in names:
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


def test_homology_pipeline_does_not_import_fractions():
    # the Gram system and the pairing are solved in integers, and the
    # action layer carries points as integers over one denominator
    for name in ("homology.py", "monodromy.py", "origami.py"):
        path = SRC / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            assert "fractions" not in modules, "%s:%d" % (name, node.lineno)


def test_no_unused_imports():
    # a name imported but never read is dead weight on every import;
    # __init__.py imports only to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += ["%s:%d %s" % (path.name, line, name)
                  for name, line in imported.items() if name not in used]
    assert not found, found


def test_no_unread_module_names():
    # a module-level assignment, function or class that nothing in the
    # package reads, and that __init__.py does not re-export, is dead code
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += ["%s:%d %s" % (name, node.lineno, b) for b in bound if b not in read]
    assert not found, found


def test_tracer_does_no_fraction_arithmetic():
    # the square-crossing stepper, the two tracers and the start points
    # and label points they are handed or return run on integers over one
    # common denominator; Fractions are built only for a traced curve's
    # segments, once per point
    path = SRC / "geometry.py"
    tree = ast.parse(path.read_text(), str(path))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    banned = {"Fraction", "F0", "F1", "FHALF"}
    found = []
    for name in ("_on_grid", "_step", "_trace_closed", "_raw_saddles", "_trace_core",
                 "_label_saddles"):
        for node in ast.walk(funcs[name]):
            ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if ref in banned:
                found.append("%s:%d %s" % (name, node.lineno, ref))
    assert not found, found
