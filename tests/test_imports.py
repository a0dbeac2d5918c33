"""Every name a module imports is read somewhere in that module, and no
module of the package imports itself through a chain of relative imports."""

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


def relative_imports(source: str, modules) -> set:
    """The package modules a module's relative imports load: from .m
    import ... loads m, from . import n loads module n, or the package's
    __init__ for a name that is not a module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name if a.name in modules else "__init__" for a in node.names)
    return out


def import_cycles(sources: dict) -> list:
    """The modules of sources (name -> source text) that reach themselves
    through relative imports, sorted."""
    deps = {m: relative_imports(src, sources) & sources.keys() for m, src in sources.items()}
    cyclic = []
    for start in sorted(deps):
        seen, todo = set(), list(deps[start])
        while todo:
            m = todo.pop()
            if m not in seen:
                seen.add(m)
                todo.extend(deps[m])
        if start in seen:
            cyclic.append(start)
    return cyclic


def test_no_import_cycle_inside_the_package():
    planted = {"__init__": "from .a import f\n",
               "a": "from .b import g\n\ndef f():\n    from . import b\n",
               "b": "from . import a\n",
               "c": "from .a import f\nfrom . import f as h\n"}
    assert import_cycles(planted) == ["a", "b"]
    assert import_cycles({**planted, "b": "import a\n"}) == []
    assert import_cycles({m: "from . import h\n" for m in ("__init__", "x")}) == ["__init__"]
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert import_cycles(sources) == []
