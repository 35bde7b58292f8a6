"""The package holds only what the program runs: `__init__.py` is a docstring,
and every top-level name a module defines is used by the package, the scripts
or the benchmark harness (test-only code lives in tests/oracle.py)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heislab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_init_is_only_a_docstring():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def test_every_top_level_name_is_used():
    used = set()
    for path in MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted(
            (ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)  # names perfbench looks up with getattr
    unused = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{path.name}:{name}" for name in names if name not in used]
    assert not unused


def test_every_import_is_at_module_level():
    # an import inside a function or class would hide a dependency, and so a cycle
    nested = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [f"{path.name}:{sub.lineno}" for sub in ast.walk(node)
                           if isinstance(sub, (ast.Import, ast.ImportFrom))]
    assert not nested
