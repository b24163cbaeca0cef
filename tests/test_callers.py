"""Every top-level function and class of harmlab has a caller outside the
unit tests: the library itself, a bench workload, a demo or an acceptance
criterion names it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "harmlab"
CALLERS = [*sorted((ROOT / "bench").glob("*.py")),
           *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def test_every_definition_has_a_caller_outside_the_unit_tests():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    outside = "".join(p.read_text() for p in CALLERS)
    unused = []
    for name, text in modules.items():
        lines = text.splitlines(keepends=True)
        rest = "".join(t for m, t in modules.items() if m != name) + outside
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # the module's text without the definition itself
            own = "".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            if not re.search(rf"\b{node.name}\b", own + rest):
                unused.append(f"{name}: {node.name}")
    assert unused == []
