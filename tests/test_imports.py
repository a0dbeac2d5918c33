"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

import surgedec

SRC = Path(surgedec.__file__).parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    src = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nd()\n"
    assert unused_imports(src) == [(2, "os"), (3, "b")]
    # __init__.py imports names only to re-export them
    dead = {path.name: found for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"
            and (found := unused_imports(path.read_text()))}
    assert dead == {}
