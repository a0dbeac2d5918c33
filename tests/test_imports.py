"""Every name a module imports is read somewhere in that module, no
module of the package imports itself through a chain of relative imports,
and every function, method and class the package defines is read by the
package or named, with a reason, as read only from outside it."""

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


# defined in the package but read only by the tests or the benchmark
READ_OUTSIDE = {
    "graph.face_of": "tests check the cache's face tags edge by edge against it",
    "graph.kind_of": "tests count edges by kind with it",
    "graph.pack_vid": "tests build vertex ids with it; unpack_vid is its inverse",
    "noise.flipped_edges": "tests compare a sample's flipped edges against the graph's",
    "oracle.oracle_mwpm": "tests bound the decoders' correction weight with it",
    "stats.intervals_overlap": "bench/run.py imports it to compare runs",
    "topology.n_nodes": "tests check a topology's size with it",
    "uf._find": "tests/helpers.py's reference kernel calls it; the hot loops inline it",
    "wire.opcode_of": "tests check a message's opcode with it",
}


def unread_definitions(sources: dict) -> list:
    """The 'module.name' of each function, method and class defined in
    sources (module name -> source text) whose name no source reads, as a
    Name or an Attribute load, and __init__'s __all__ does not list, sorted.
    Dunder methods are called by the language and are skipped."""
    defined, read = [], set()
    for mod, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append(f"{mod}.{node.name}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (mod == "__init__" and isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                read.update(ast.literal_eval(node.value))
    return sorted(q for q in defined if q.rsplit(".", 1)[1] not in read)


def test_every_definition_is_read():
    planted = {"__init__": "from .a import f\n__all__ = ['f']\n",
               "a": ("def f():\n    return g()\n\ndef g():\n    pass\n\n"
                     "def h():\n    def inner():\n        pass\n\n"
                     "class C:\n    def __init__(self):\n        self.m()\n\n"
                     "    def m(self):\n        pass\n\n    def n(self):\n        pass\n")}
    assert unread_definitions(planted) == ["a.C", "a.h", "a.inner", "a.n"]
    # a name only another module's __all__ lists is still unread
    assert "a.h" in unread_definitions({**planted, "b": "__all__ = ['h']\n"})
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    # an entry for a name the package reads, or no longer defines, is stale
    assert unread_definitions(sources) == sorted(READ_OUTSIDE)
