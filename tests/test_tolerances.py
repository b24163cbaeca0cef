"""Every tolerance is defined once, in harmlab.tolerances, with a reason."""

import ast
from pathlib import Path

import harmlab

SRC = Path(harmlab.__file__).parent
TABLE = SRC / "tolerances.py"


def modules():
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def test_no_small_float_literal_outside_the_table():
    found = [f"{name}:{node.lineno} {node.value!r}"
             for name, tree in modules().items() if name != TABLE.name
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 0 < abs(node.value) < 1e-6]
    assert found == []


def test_table_holds_only_constants_each_with_a_reason():
    tree = ast.parse(TABLE.read_text())
    lines = TABLE.read_text().splitlines()
    body = tree.body[1:]  # after the docstring
    assert all(isinstance(node, ast.Assign) and len(node.targets) == 1
               and isinstance(node.value, ast.Constant) for node in body)
    assert len(body) <= 12
    for node in body:
        # the line above each name is its reason
        assert lines[node.lineno - 2].startswith("# "), node.targets[0].id


def test_every_tolerance_is_read():
    names = {node.targets[0].id for node in ast.parse(TABLE.read_text()).body
             if isinstance(node, ast.Assign)}
    imported = {alias.name for name, tree in modules().items()
                if name != TABLE.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "tolerances" for alias in node.names}
    assert names - imported == set()


def test_no_module_defines_its_own_tolerance():
    # a module-level name ending in _TOL, _EPS or FACTOR outside the table
    own = [f"{name}: {target.id}" for name, tree in modules().items()
           if name != TABLE.name for node in tree.body
           if isinstance(node, ast.Assign) for target in node.targets
           if isinstance(target, ast.Name)
           and target.id.endswith(("_TOL", "_EPS", "_FACTOR"))]
    assert own == []
