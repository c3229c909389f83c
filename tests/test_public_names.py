"""Every public module-level name of ``quditlab`` has a production reader.

A name defined at module level in ``src/quditlab`` and not starting with an
underscore must be reached from the benchmark (``bench/*.py``), from the
acceptance suite (``tests/test_acceptance.py``) or from package code that
is itself reached; a name that only its own definition, ``__all__`` or
unit tests read belongs in ``tests/``.  The allowlist names the exceptions
and why each one stays.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quditlab"

ALLOWED = {
    "enumerate_condensable": "every condensable algebra; the planned gapped-boundary output reads it",
    "product_theory": "the Deligne product that the planned walls and Ising condensation build on",
    "bombin_to_kitaev": "the Bombin-to-Kitaev site map, pinned by the lattice tests",
}


def _defined(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _references(nodes, imports=True):
    """Every identifier read, as a name or an attribute, and with ``imports``
    also every imported name."""
    out = set()
    for top in nodes:
        for n in ast.walk(top):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif imports and isinstance(n, ast.alias):
                out.add(n.name)
    return out


def _unread_names():
    """``module.name`` of each public definition that no production code
    reaches.

    A definition is reached when the benchmark or the acceptance suite
    names it, when a module-level statement of the package that defines
    nothing names it, or when a reached definition names it; an allowlisted
    name counts as reached.  Names are matched as identifiers, so a method
    of the same name also counts as a reader.
    """
    definitions, live = {}, set(ALLOWED)
    readers = [ast.parse(p.read_text())
               for p in [*sorted((ROOT / "bench").glob("*.py")),
                         ROOT / "tests" / "test_acceptance.py"]]
    live |= _references(readers)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = _defined(node)
            if "__all__" in names:
                continue
            if names:
                for name in names:
                    definitions.setdefault(name, []).append((path.stem, node))
            else:
                live |= _references([node], imports=False)
    frontier = list(live)
    while frontier:
        for _, node in definitions.get(frontier.pop(), ()):
            new = _references([node], imports=False) - live
            live |= new
            frontier += new
    return sorted(f"{module}.{name}" for name, defs in definitions.items()
                  for module, _ in defs if not name.startswith("_") and name not in live)


def test_every_public_name_has_a_production_reader():
    unread = _unread_names()
    assert not unread, f"no production reader: {unread}"


def _bound(node):
    """The names a module-level statement binds, imports included."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    return _defined(node)


def test_every_all_entry_names_a_module_level_definition():
    # a stale ``__all__`` entry breaks ``from quditlab.<module> import *``
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = ast.parse(path.read_text()).body
        bound = {name for node in body for name in _bound(node)}
        for node in body:
            if "__all__" in _defined(node):
                stale += [f"{path.stem}.{e.value}" for e in node.value.elts
                          if e.value not in bound]
    assert not stale, f"__all__ names no definition: {stale}"


def test_allowlist_names_exist():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            defined.update(_defined(node))
    assert set(ALLOWED) <= defined
