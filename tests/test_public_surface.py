"""The package's surface: its callers, its imports and its reprs.

Every public name of the package has a caller outside the tests.  A
public top-level function, or a public method of a public class, in
the package must be named (read as a name or an attribute) somewhere in
the package or in ``perfbench/`` outside its own ``def``.  A name only
tests reach is code kept for the tests: they should call the engine
code behind it.  The documented library entry points are the
exceptions.

The package imports nothing outside the standard library, and each
value type's repr names its type.
"""

import ast
import pathlib
import sys

import pytest

import lefweave
from lefweave import presets
from lefweave.arcs import ArcSystem, standard_arc
from lefweave.dsl import parse
from lefweave.fibers import PlumbingTree, plumbing_lattice

PACKAGE = pathlib.Path(lefweave.__file__).resolve().parent
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# README documents these for library users; no module calls them
ENTRY_POINTS = {"dsl.pretty_print", "invariants.total_space_homology",
                "invariants.middle_intersection_form"}


def _public_defs(module, tree):
    """(qualified name, def node) of each public function and method."""
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield "%s.%s" % (module, node.name), node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield "%s.%s.%s" % (module, node.name, item.name), item


def _record_uses(node, inside, uses):
    """uses[name] gets the defs enclosing each place ``name`` is read."""
    if isinstance(node, ast.FunctionDef):
        inside = inside + (node,)
    elif isinstance(node, ast.Name):
        uses.setdefault(node.id, []).append(inside)
    elif isinstance(node, ast.Attribute):
        uses.setdefault(node.attr, []).append(inside)
    for child in ast.iter_child_nodes(node):
        _record_uses(child, inside, uses)


def test_every_public_name_is_reached_outside_the_tests():
    defs, uses = [], {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == PACKAGE:
            defs.extend(_public_defs(path.stem, tree))
        _record_uses(tree, (), uses)
    unreached = [
        qualified for qualified, node in defs
        if qualified not in ENTRY_POINTS
        and all(node in inside for inside in uses.get(node.name, ()))]
    assert unreached == []


def test_the_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside.extend(
                (path.name, name) for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names)
    assert outside == []


def _values():
    arcs = ArcSystem(3, 2)
    fiber = plumbing_lattice(PlumbingTree.path(2), 2)
    cycle = presets.x1().cycles[1]
    return {
        "MatchingArc": standard_arc(arcs, 1),
        "ArcSystem": arcs,
        "Workspace": parse("datum X = preset x1\nsearch X depth=1\n"),
        "PlumbingTree": PlumbingTree.path(2),
        "FiberModel": fiber,
        "IntLattice": fiber.lattice,
        "SphereClass": fiber.lattice.basis_sphere(1),
        "TwistWord": cycle.word,
        "VanishingCycle": cycle,
    }


@pytest.mark.parametrize("name", sorted(_values()))
def test_repr_names_the_type(name):
    value = _values()[name]
    assert type(value).__name__ == name
    assert repr(value).startswith(name + "(")
