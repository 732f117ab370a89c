"""The library keeps only what the program calls."""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(folder):
    for path in sorted((ROOT / folder).rglob("*.py")):
        if not path.name.startswith("test_"):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _loaded_names():
    """Every name that the code of src/, scripts/ or perfbench/ (test files
    aside) reads, as a Name or an Attribute node in a load context.

    String literals, ``__all__``, ``from ... import`` lines and assignments do
    not count, so neither does a re-export from ``__init__.py`` or a
    constant's own definition.  The check is by name alone.  It cannot see
    dunders, and it passes any definition whose name is as common as
    ``copy``: any ``.copy()`` call anywhere counts as a use.
    """
    used = set()
    for folder in ("src", "scripts", "perfbench"):
        for _, tree in _trees(folder):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
    return used


def _library_modules():
    for path, tree in _trees("src/countmix"):
        if path.name != "__init__.py":
            yield path.stem, tree


def test_every_public_definition_has_a_caller_outside_the_tests():
    """Each public function or method defined in src/countmix/*.py is read
    somewhere in the code of src/, scripts/ or perfbench/ (see _loaded_names)."""
    used = _loaded_names()
    unused = []
    for module, tree in _library_modules():
        for node in tree.body:
            scope, defs = ((f"{node.name}.", node.body) if isinstance(node, ast.ClassDef)
                           else ("", [node]))
            unused += [f"{module}.{scope}{f.name}" for f in defs
                       if isinstance(f, ast.FunctionDef)
                       and not f.name.startswith("_") and f.name not in used]
    assert unused == []


def test_every_private_function_and_constant_is_read():
    """Each private module-level function or constant of src/countmix/*.py
    (a name that starts with one underscore) is read somewhere in the code of
    src/, scripts/ or perfbench/ (see _loaded_names): a helper that nothing
    calls any more, or a constant that only its own assignment names, fails."""
    used = _loaded_names()
    unused = []
    for module, tree in _library_modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            unused += [f"{module}.{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in used]
    assert unused == []


def test_every_exported_name_is_defined():
    """Each name in the ``__all__`` of a src/countmix module is bound in that
    module, so a definition that goes cannot leave its export behind."""
    missing = []
    for module, _ in _library_modules():
        loaded = importlib.import_module(f"countmix.{module}")
        missing += [f"{module}.{name}" for name in loaded.__all__ if not hasattr(loaded, name)]
    assert missing == []
