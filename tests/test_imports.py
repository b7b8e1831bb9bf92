"""Every module in src/ and tests/ uses each name it imports.

A stdlib `ast` check: an imported name counts as used when it is read
anywhere in the module or listed in the module's `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in source and never read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_import_check_finds_unused_names():
    source = "import os\nimport a.b\nfrom x import y as z, w, v\nprint(w, a)\n__all__ = ['v']\n"
    assert unused_imports(source) == ["os", "z"]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])
    assert paths
    unused = {
        str(p.relative_to(ROOT)): names
        for p in paths
        if (names := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert not unused, unused
