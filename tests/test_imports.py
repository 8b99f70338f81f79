"""Every name a program module imports is used in that module.

No linter ships with the project, so this is the unused-import check: it
parses each module under ``src/`` and ``jobs/`` and fails on an imported
name that the module never reads. A package ``__init__`` re-exports through
``__all__``, so names listed there count as used.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "jobs") for p in (ROOT / d).rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {ln}: {name}" for name, ln in imported.items() if name not in used]


def test_no_unused_imports():
    unused = {
        str(p.relative_to(ROOT)): names
        for p in MODULES
        if (names := _unused_imports(ast.parse(p.read_text())))
    }
    assert unused == {}
