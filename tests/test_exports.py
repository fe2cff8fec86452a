"""Every public top-level name of every ``cyber0`` module has a caller
outside the tests.

A public function, class or constant that only tests use is API the
simulator does not need. The callers searched are the package's modules,
the benchmark harness in perfbench/ (its own tests excluded) and scripts/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyber0"


def public_names() -> set[str]:
    """The functions, classes and assigned names at the top level of each
    module whose names do not start with an underscore; a name a module
    imports is another module's."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def loaded_names() -> set[str]:
    """Every name the callers read, bare or as an attribute; a definition,
    an assignment target, an import, a string or a comment is no caller.
    A name imported ``as`` another is read where its file reads the other."""
    files = list(PACKAGE.glob("*.py"))
    files += (ROOT / "perfbench").glob("*.py")
    files += (ROOT / "scripts").glob("*.py")
    names = set()
    for path in files:
        read, renamed = set(), {}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                renamed.update((alias.asname, alias.name) for alias in node.names if alias.asname)
        names |= read | {renamed[name] for name in read & renamed.keys()}
    return names


def test_every_export_has_a_caller_outside_tests():
    assert public_names() - loaded_names() == set()
