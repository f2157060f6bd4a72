"""The package needs nothing at run time beyond the standard library, no
module imports a name it does not use, and no private definition is unused."""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heegaardrect"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.setdefault(path.name, []).append(name)
    assert outside == {}


def _unused_imports(path: Path) -> list:
    """Names `path` imports but never reads; `__future__` imports and the
    `__all__` re-exports of an `__init__.py` are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    sources = [p for d in ("src", "tests", "scripts") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(sources) > 10
    unused = {str(p.relative_to(ROOT)): names for p in sources if (names := _unused_imports(p))}
    assert unused == {}


def _references(tree: ast.AST) -> Counter:
    """How often each name is read in `tree`, as a bare name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_no_unused_private_names():
    """Every private function, method or class of the package is referenced in
    `src/` outside its own definition, so a refactor leaves no orphan behind."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))]
    assert trees
    total = sum(map(_references, trees), Counter())
    unused = sorted(
        node.name
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and total[node.name] <= _references(node)[node.name]
    )
    assert unused == []
