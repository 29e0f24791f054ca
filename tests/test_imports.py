import ast
from pathlib import Path

import bpgates

MODULES = sorted(p for p in Path(bpgates.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names an import statement of source binds that no expression of
    it uses, `from __future__` imports aside."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport re\nimport os.path\nfrom a import b as c\nos.sep\n"
    assert unused_imports(source) == ["re", "c"]


def test_src_modules_use_every_import():
    assert MODULES
    assert {p.name: unused_imports(p.read_text()) for p in MODULES} == {p.name: [] for p in MODULES}


def private_names(source: str) -> set[str]:
    """The `_name`s, dunders aside, that source defines at module level."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in defined if name.startswith("_") and not name.startswith("__")}


def referenced_names(source: str) -> set[str]:
    """The names source reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_unreferenced_private_names_are_found():
    source = "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\nx = m._g\n"
    assert private_names(source) == {"_A", "_B", "_f", "_C"}
    assert private_names(source) - referenced_names(source) == {"_B", "_f", "_C"}


def test_src_modules_reference_every_private_name():
    # a private helper a replaced path leaves behind is referenced nowhere in src/
    sources = [p.read_text() for p in Path(bpgates.__file__).parent.glob("*.py")]
    referenced = set().union(*map(referenced_names, sources))
    assert set().union(*map(private_names, sources)) - referenced == set()
