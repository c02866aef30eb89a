import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """Names an `import` binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_detector():
    src = "import os, re\nfrom a.b import c as d, e\nimport x.y\nre.sub; e(x.y)\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]


def test_no_unused_imports():
    # the package root's imports are its exports, so it is left out
    files = [f for f in sorted((ROOT / "src" / "conic_lab").glob("*.py")) if f.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    found = [f"{f.relative_to(ROOT)}:{line}: {name}"
             for f in files for line, name in unused_imports(f.read_text())]
    assert not found, found
