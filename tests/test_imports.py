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
