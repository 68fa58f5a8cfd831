"""Static checks on the package source."""

import ast
import importlib
import os
import re
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


_ROLE = re.compile(r":(?:func|class|meth|attr|data|exc):`([^`]*)`")


def _src_definitions():
    # every name a src module or class binds, bare and dotted by module
    # and class: functions, classes, assignments, and self.X attributes
    names = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(), str(path)).body:
            for scope, name in _bound_names(node):
                names.update((name, scope + name, module + "." + scope + name))
    return names


def _assigned(node):
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        return node.targets if isinstance(node, ast.Assign) else [node.target]
    return []


def _bound_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield "", node.name
    for t in _assigned(node):
        yield from (("", n.id) for n in ast.walk(t) if isinstance(n, ast.Name))
    if isinstance(node, ast.ClassDef):
        scope = node.name + "."
        for member in node.body:
            if isinstance(member, ast.FunctionDef):
                yield scope, member.name
            yield from ((scope, t.id) for t in _assigned(member) if isinstance(t, ast.Name))
        for sub in ast.walk(node):
            yield from ((scope, t.attr) for t in _assigned(sub)
                        if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == "self")


def _imports(target):
    # a dotted name outside the package, resolved as an import would
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for part in parts[cut:]:
                obj = getattr(obj, part)
        except AttributeError:
            return False
        return True
    return False


def test_docstring_references_resolve():
    # a :func:, :class:, :meth:, :attr:, :data: or :exc: target names
    # something src defines (optionally as origamikz.<module>...), or,
    # dotted, something an import finds, as fractions.Fraction
    defined = _src_definitions()
    found, checked = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            for target in _ROLE.findall(ast.get_docstring(node) or ""):
                checked += 1
                local = target.removeprefix("origamikz.")
                if local in defined:
                    continue
                if local == target and "." in target and _imports(target):
                    continue
                found.append("%s: %s" % (path.name, target))
    assert checked > 0
    assert not found, found
