"""The library keeps only what the program calls."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(folder):
    for path in sorted((ROOT / folder).rglob("*.py")):
        if not path.name.startswith("test_"):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_definition_has_a_caller_outside_the_tests():
    """Each public function or method defined in src/countmix/*.py is named
    somewhere in the code of src/, scripts/ or perfbench/ (test files aside).

    A use is a Name or an Attribute node: string literals, ``__all__`` and
    ``from ... import`` lines do not count, so neither does a re-export from
    ``__init__.py``.  The check is by name alone.  It cannot see dunders, and
    it passes any definition whose name is as common as ``copy``: any
    ``.copy()`` call anywhere counts as a use.
    """
    used = set()
    for folder in ("src", "scripts", "perfbench"):
        for _, tree in _trees(folder):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    unused = []
    for path, tree in _trees("src/countmix"):
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            scope, defs = ((f"{node.name}.", node.body) if isinstance(node, ast.ClassDef)
                           else ("", [node]))
            unused += [f"{path.stem}.{scope}{f.name}" for f in defs
                       if isinstance(f, ast.FunctionDef)
                       and not f.name.startswith("_") and f.name not in used]
    assert unused == []
