"""Every top-level function and class of harmlab has a caller outside the
unit tests: the library itself, a bench workload, a demo or an acceptance
criterion names it.  An import or the `__all__` list names a definition
without calling it, so their lines are not searched."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "harmlab"
# the bench tracer is left out: its patch table names library functions
# to wrap them and calls none of them, so a name it lists is not called
CALLERS = [*sorted(p for p in (ROOT / "bench").glob("*.py")
                   if p.name != "tracing.py"),
           *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
# public API kept without a caller, with the reason
KEPT = {
    # it writes the JSON graph format that load_graph and the CLI read
    "graphs.py: save_graph",
    # the bench tracer patches StoppedWalk.__init__ and raises without the
    # class; it goes with ROADMAP item 3(b)
    "walk.py: StoppedWalk",
}


def searched_lines(text):
    """The lines of `text`, with its import statements and its `__all__`
    assignment blanked (so line numbers still match the parse)."""
    lines = text.splitlines(keepends=True)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            lines[node.lineno - 1:node.end_lineno] = [""] * (
                node.end_lineno - node.lineno + 1)
    return lines


def test_every_definition_has_a_caller_outside_the_unit_tests():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    searched = {name: searched_lines(text) for name, text in modules.items()}
    outside = "".join("".join(searched_lines(p.read_text())) for p in CALLERS)
    unused = []
    for name, text in modules.items():
        lines = searched[name]
        rest = "".join("".join(ls) for m, ls in searched.items()
                       if m != name) + outside
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # the module's text without the definition itself
            own = "".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            if not re.search(rf"\b{node.name}\b", own + rest):
                unused.append(f"{name}: {node.name}")
    assert [u for u in unused if u not in KEPT] == []
