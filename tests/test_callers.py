"""Every top-level function and class of harmlab, and every non-dunder
method, property and `self.` attribute of a top-level class, is called in
code outside the unit tests: the library itself, a bench workload, a demo
or an acceptance criterion loads its name.  Only an `ast.Name` or
`ast.Attribute` in load context counts, so a docstring, a comment, a
string, an import or the `__all__` list names a definition without
calling it.  A load of `C.m` or `mod.C.m`, C a top-level library class,
counts for the member m of C and of C's library bases only; any other
attribute load counts for every definition of its name."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "harmlab"
# the bench tracer is left out: its patch table names library functions
# to wrap them and calls none of them, so a name it lists is not called
CALLERS = [*sorted(p for p in (ROOT / "bench").glob("*.py")
                   if p.name != "tracing.py"),
           *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
# public API kept without a caller, with the reason; a kept class keeps
# its methods and attributes
KEPT = {
    # it writes the JSON graph format that load_graph and the CLI read
    "graphs.py: save_graph",
    # the bench tracer patches StoppedWalk.__init__ and raises without the
    # class; it goes with ROADMAP item 3(b)
    "walk.py: StoppedWalk",
}


def library_classes(trees):
    """Each top-level class of the library with its lineage: the class and
    the library classes it derives from."""
    bases = {node.name: [b.id if isinstance(b, ast.Name) else b.attr
                         for b in node.bases
                         if isinstance(b, (ast.Name, ast.Attribute))]
             for tree in trees for node in tree.body
             if isinstance(node, ast.ClassDef)}

    def lineage(c):
        return {c}.union(*(lineage(b) for b in bases[c] if b in bases))

    return {c: lineage(c) for c in bases}


def loaded_names(node, classes):
    """How often code under `node` loads each name: the id of each
    ast.Name and the attr of each ast.Attribute in load context, the
    latter keyed "C.attr" when loaded from a class C in `classes`."""
    out = Counter()
    for n in ast.walk(node):
        if not isinstance(getattr(n, "ctx", None), ast.Load):
            continue
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            v = n.value
            owner = (v.id if isinstance(v, ast.Name) else
                     v.attr if isinstance(v, ast.Attribute) else None)
            out[f"{owner}.{n.attr}" if owner in classes else n.attr] += 1
    return out


def calls(loads, classes, owner, name):
    """The loads that count for `name`, a member of the class `owner` or
    (owner None) a top-level definition."""
    if owner is None:
        return loads[name]
    return loads[name] + sum(loads[f"{c}.{name}"]
                             for c, line in classes.items() if owner in line)


def definitions(module, tree):
    """(label, owner, name, node) of each top-level function and class
    (owner None), and of each non-dunder method, property and `self.`
    attribute of a top-level class (node None: an attribute's stores load
    nothing)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        label = f"{module}: {node.name}"
        yield label, None, node.name, node
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [m for m in node.body if isinstance(m, functions)
                   and not (m.name.startswith("__") and m.name.endswith("__"))]
        for m in methods:
            yield f"{label}.{m.name}", node.name, m.name, m
        attrs = {a.attr for a in ast.walk(node)
                 if isinstance(a, ast.Attribute)
                 and isinstance(a.ctx, ast.Store)
                 and isinstance(a.value, ast.Name) and a.value.id == "self"}
        for a in sorted(attrs - {m.name for m in methods}):
            yield f"{label}.{a}", node.name, a, None


def uncalled(library, callers):
    """Labels of the definitions in `library` (file name -> source) whose
    name no code loads outside the definition itself, in the library or
    in `callers` (sources)."""
    trees = {name: ast.parse(text) for name, text in library.items()}
    classes = library_classes(trees.values())
    loads = sum((loaded_names(t, classes)
                 for t in [*trees.values(), *map(ast.parse, callers)]),
                Counter())
    out = []
    for module, tree in trees.items():
        for label, owner, name, node in definitions(module, tree):
            own = (calls(loaded_names(node, classes), classes, owner, name)
                   if node else 0)
            if calls(loads, classes, owner, name) <= own:
                out.append(label)
    return out


def test_only_code_that_loads_a_name_counts():
    library = {"m.py": '''
__all__ = ["quiet", "loud", "Box"]


def quiet():
    """quiet() is named here and calls itself, which counts for nothing."""
    return quiet()


def loud():
    return Box().shown()


class Box:
    def __init__(self):
        self.used, self.unused = 1, 2

    def shown(self):
        return self.used
'''}
    caller = '''
"""A docstring that calls quiet()."""
from m import quiet
# quiet()
label = "quiet()"
loud()
'''
    assert uncalled(library, [caller]) == ["m.py: quiet", "m.py: Box.unused"]


def test_a_load_from_a_class_counts_for_that_class_and_its_bases():
    library = {"m.py": '''
class A:
    def f(self):
        return 1


class B:
    def f(self):
        return 2

    def g(self):
        return 3


class C(B):
    pass
'''}
    caller = '''
import m
A.f(None)
m.C.g(None)
'''
    assert uncalled(library, [caller]) == ["m.py: B.f"]


def test_every_definition_has_a_caller_outside_the_unit_tests():
    library = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unused = uncalled(library, [p.read_text() for p in CALLERS])
    kept = [u for u in unused
            if u in KEPT or any(u.startswith(k + ".") for k in KEPT)]
    assert [u for u in unused if u not in kept] == []
    assert KEPT <= set(kept)  # an entry that gained a caller goes
