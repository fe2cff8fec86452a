"""Every name the ``cyber0`` package exports has a caller outside the tests.

A public name that only tests call is API the simulator does not need. The
callers searched are the package's other modules, the benchmark harness in
perfbench/ (its own tests excluded) and scripts/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyber0"

# the literal mu > 0 bracket, the reference the engine's batched kernel is
# tested against
TEST_ONLY = {"zo_coefficient"}


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def loaded_names() -> set[str]:
    """Every name the callers read, bare or as an attribute; a definition,
    an assignment target, a string or a comment is no caller."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    files += (ROOT / "scripts").glob("*.py")
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_tests():
    assert exported_names() - loaded_names() == TEST_ONLY
