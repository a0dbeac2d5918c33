"""Every name a module imports is read somewhere in that module, no
module of the package imports itself through a chain of relative imports,
every function, method and class the package defines is read by the
package or named, with a reason, as read only from outside it, and edge
keys are built only where a correction leaves the library."""

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
    "graph.pack_vid": "tests build vertex ids with it; unpack_vid is its inverse",
    "noise.flipped_edges": "tests compare a sample's flipped edges against the graph's",
    "stats.intervals_overlap": "bench/run.py imports it to compare runs",
    "uf._find": "tests/helpers.py's reference kernel calls it; the hot loops inline it",
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


# the only readers of DecodingGraph.edge_keys outside graph: inside the
# library an edge is its id, so keys are built only where a correction
# leaves it
KEY_READERS = {
    "uf.UfState.correction": "a state's correction, read by decode_region's callers",
    "windows.Pipeline.run": "a pipeline's or a fusion plan's correction",
}


def edge_key_readers(sources: dict) -> list:
    """The scope, 'module[.Class][.function...]', of each read of
    edge_keys (a name, an attribute or a string) in sources (module name
    -> source text), every module but graph, sorted and once each."""
    out = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if ((isinstance(child, ast.Name) and child.id == "edge_keys")
                    or (isinstance(child, ast.Attribute) and child.attr == "edge_keys")
                    or (isinstance(child, ast.Constant) and child.value == "edge_keys")):
                out.add(scope)
            visit(child, scope)

    for mod, source in sources.items():
        if mod != "graph":
            visit(ast.parse(source), mod)
    return sorted(out)


def test_edge_keys_are_built_only_for_a_correction():
    planted = {"graph": "def edge_keys(eids):\n    return eids\n\nx = edge_keys([])\n",
               "a": ("class C:\n    def run(self, g):\n        return g.edge_keys([])\n\n"
                     "    def m(self, g):\n        keys = g.edge_keys\n        return keys\n\n"
                     "def h(g):\n    def inner():\n        return getattr(g, 'edge_keys')\n"
                     "    return inner\n"),
               "b": "from .graph import edge_keys\nx = edge_keys\n"}
    assert edge_key_readers(planted) == ["a.C.m", "a.C.run", "a.h.inner", "b"]
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert edge_key_readers(sources) == sorted(KEY_READERS)
