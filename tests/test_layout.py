"""Import layout of the package.

Intra-package imports must form an acyclic graph and must sit at module
level: an import inside a function hides a dependency from the reader
and is the usual way a cycle gets papered over.  No module reads the
process environment: every setting is an argument or a command line
option.  No module calls json's indenting encoder.  The linear algebra
kernel imports nothing from fractions.  The CLI imports no private
name.  Only the package calls the trusted constructors that skip input
checks.  Only the value base class writes __eq__ and __hash__, and
every imported name is used.  Every public top-level name is read by
the package, exported, or imported by the acceptance tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

import betticone

PACKAGE = Path(betticone.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
REPO = Path(__file__).resolve().parents[1]


def _targets(node):
    """Package modules an import statement pulls from, or []."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] if "." in alias.name
                else "__init__" for alias in node.names
                if alias.name.split(".")[0] == "betticone"]
    if not isinstance(node, ast.ImportFrom):
        return []
    parts = (node.module or "").split(".")
    if node.level == 0:
        if parts[0] != "betticone":
            return []
        parts = parts[1:]
    if parts and parts[0]:
        return [parts[0]]
    return [alias.name if alias.name in MODULES else "__init__"
            for alias in node.names]


def _edges():
    return {name: {target for node in ast.walk(tree)
                   for target in _targets(node) if target != name}
            for name, tree in MODULES.items()}


def test_layout_helper_reads_every_import_form():
    tree = ast.parse("import betticone.rays\n"
                     "from betticone.bigraded import matching_graph\n"
                     "from . import __version__\n"
                     "from . import rays\n"
                     "from .errors import BetticoneError\n"
                     "import json\n")
    assert [t for node in tree.body for t in _targets(node)] == [
        "rays", "bigraded", "__init__", "rays", "errors"]


def test_intra_package_imports_are_acyclic():
    edges = _edges()
    state = {}

    def visit(name, path):
        if state.get(name) == "done":
            return
        assert state.get(name) != "open", \
            "import cycle: " + " -> ".join(path + [name])
        state[name] = "open"
        for target in sorted(edges[name]):
            visit(target, path + [name])
        state[name] = "done"

    for name in sorted(edges):
        visit(name, [])


def _private_imports(tree):
    """(line, dotted name) for each package import of a name or module
    that starts with "_" and is no dunder such as __version__."""
    def private(part):
        return part.startswith("_") and not part.endswith("__")
    return [(node.lineno, name) for node in ast.walk(tree) if _targets(node)
            for name in ([alias.name for alias in node.names]
                         if isinstance(node, ast.Import) else
                         [f"{node.module or ''}.{alias.name}"
                          for alias in node.names])
            if any(private(part) for part in name.split("."))]


def test_the_cli_imports_no_private_name():
    probe = ast.parse("from ._linalg import rank\n"
                      "from .rays import _dense_shapes, box_rays\n"
                      "from . import __version__, _linalg\n"
                      "import betticone._linalg\n"
                      "from json import _private\n")
    assert [line for line, _ in _private_imports(probe)] == [1, 2, 3, 4]
    found = _private_imports(MODULES["cli"])
    assert not found, found


def _reads_environment(node):
    """os.environ or os.getenv, as an attribute or a from-import."""
    names = ("environ", "getenv")
    if isinstance(node, ast.Attribute):
        return (isinstance(node.value, ast.Name) and node.value.id == "os"
                and node.attr in names)
    return (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in names for alias in node.names))


def test_no_module_reads_the_environment():
    found = [f"{name} line {node.lineno}"
             for name, tree in MODULES.items() for node in ast.walk(tree)
             if _reads_environment(node)]
    assert not found, found


def test_no_function_imports_from_the_package():
    found = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if _targets(node):
                    found.append(f"{name}.{func.name} line {node.lineno}")
    assert not found, found


def test_no_module_calls_the_indent_encoder():
    """--json output has one writer, cli._json_text; json.dumps(...,
    indent=2) is its reference route in tests/test_cli.py only."""
    found = [f"{name} line {node.lineno}"
             for name, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and any(kw.arg == "indent" for kw in node.keywords)]
    assert not found, found


def test_linalg_works_on_int_rows_only():
    """_linalg reduces int rows; rationals are cleared where they enter,
    in module_engine, so the kernel never imports fractions."""
    found = [node.lineno for node in ast.walk(MODULES["_linalg"])
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and "fractions" in {getattr(node, "module", None),
                                 *(alias.name for alias in node.names)}]
    assert not found, found


def test_only_the_package_calls_the_trusted_constructors():
    """_trusted skips every input check, so its callers must argue the
    invariants; tests and the benchmark go through the public
    constructors."""
    outside = [path for path in sorted(REPO.rglob("*.py"))
               if path.relative_to(REPO).parts[0] not in ("src", "build")
               and not any(part.startswith(".")
                           for part in path.relative_to(REPO).parts)]
    assert Path(__file__).resolve() in outside
    found = [f"{path.relative_to(REPO)} line {node.lineno}"
             for path in outside
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "_trusted"]
    assert not found, found


def test_only_the_value_base_defines_equality():
    """A value type's equality and hash come from its _key() through
    bigraded.Value; no other class writes __eq__ or __hash__."""
    found = [f"{name}.{cls.name}"
             for name, tree in MODULES.items() for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef)
             and (name, cls.name) != ("bigraded", "Value")
             and any(isinstance(node, ast.FunctionDef)
                     and node.name in ("__eq__", "__hash__")
                     for node in cls.body)]
    assert not found, found


def _imported_names(tree):
    """(name, line) for every name an import statement binds."""
    return [((alias.asname or alias.name).split(".")[0], node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names]


def test_every_imported_name_is_used():
    """Outside __init__, which re-exports, a module imports only what
    it reads."""
    found = []
    for name, tree in MODULES.items():
        if name == "__init__":
            continue
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{name} line {line}: {bound}"
                  for bound, line in _imported_names(tree)
                  if bound not in used]
    assert not found, found


def _public_definitions(tree):
    """(name, statement) for each public function, class and constant
    a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if not name.startswith("_"))


def _names_read(node):
    """Every name a statement reads, attributes and imported names
    included."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def test_the_library_keeps_only_what_it_calls():
    """Each public top-level name of the package is read by package code
    outside its own definition (an import in __init__ exports it), or
    is imported by the acceptance tests; a helper that only the tests
    call lives in the tests."""
    accepted = {alias.name
                for node in ast.walk(ast.parse(
                    (REPO / "tests" / "test_acceptance.py").read_text(
                        encoding="utf-8")))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "betticone"
                for alias in node.names}
    reads = [(node, _names_read(node))
             for tree in MODULES.values() for node in tree.body]
    found = [f"{module}.{name}"
             for module, tree in MODULES.items()
             for name, definition in _public_definitions(tree)
             if name not in accepted
             and not any(name in names for node, names in reads
                         if node is not definition)]
    assert not found, found
