"""Every module in src/ and tests/ uses each name it imports, and src/ defines no dead names.

Stdlib `ast` checks: an imported name counts as used when it is read
anywhere in the module or listed in the module's `__all__`; a module-level
function, class or constant of src/ counts as live when it is read anywhere
in src/ or listed in some `__all__` there.
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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
    return [name for name in imported if name not in used]


def exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def dead_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and constants that no module reads or exports.

    A name is read where it is loaded, where an attribute of that name is
    taken, or where `from ... import` names it; dunder names are exempt.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
        read |= exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return [
        f"{module}:{name}"
        for module, name in defined
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    ]


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


def test_dead_name_check_finds_unread_definitions():
    sources = {
        "a": "X = 1\n_Y = 2\ndef f():\n    return _Y\nclass C:\n    pass\n__version__ = '1'\n",
        "b": "from a import f\nimport a\nprint(a.X)\n__all__ = ['g']\ndef g():\n    pass\n",
    }
    assert dead_names(sources) == ["a:C"]


def test_no_module_level_name_in_src_is_dead():
    sources = {
        str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
        for p in sorted(ROOT.glob("src/**/*.py"))
    }
    assert sources
    assert not dead_names(sources)
