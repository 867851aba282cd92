"""No library module imports a name it does not use."""

import ast
from pathlib import Path

import resistor

PACKAGE = Path(resistor.__file__).parent

# (module, name) imports kept unused on purpose: perfbench/tracer.py
# wraps resistor.oracles.locally_affine_index, and a wrap needs the name
ALLOWED_UNUSED = {("oracles", "locally_affine_index")}


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by the module's top-level imports that no expression in
    the module reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_module_level_import_is_unused():
    # __init__.py is exempt: its imports are the package's public names
    unused = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert unused == ALLOWED_UNUSED
