"""Every name that a module under ``src/`` or ``tests/`` imports is read
somewhere in that module.  ``__init__.py`` files are skipped (their
imports are the package's re-exports), and so is ``__future__``.  And
every function the benchmark's tracer wraps still exists."""

import ast
import importlib.util
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _modules():
    for top in ("src", "tests"):
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.join(dirpath, name)


def unused_imports(path):
    """(line, name) of each name imported in ``path`` and never read; a
    string annotation reads the names of the expression it holds."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or
                          alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) \
                else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read |= {n.id for n in ast.walk(ast.parse(ann.value,
                                                          mode="eval"))
                         if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_no_unused_imports():
    found = [f"{os.path.relpath(path, ROOT)}:{line}: {name}"
             for path in _modules() for line, name in unused_imports(path)]
    assert not found, "imported and never used:\n" + "\n".join(found)


def test_every_tracer_target_exists():
    # the tracer skips a target it cannot find, and that layer's metrics
    # vanish from the benchmark result; read its table without running it
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"symreach.{module}")
        for part in attr.split("."):  # Grid.boxes_to_cells: via the class
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"symreach.{module}.{attr}")
    assert not missing, "tracer targets not found: " + ", ".join(missing)
