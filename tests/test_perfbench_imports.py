"""The benchmark's imports of the package resolve: a name moved or removed
from `src/` fails here, not first in the benchmark's smoke run."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _imports(path: Path, package: str):
    """(module, name) for each `from <module> import <name>` of `package` in
    a file, relative imports resolved against `package`; name None for a
    plain `import <module>`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = f"{package}.{node.module}" if node.level else node.module
            if module == package or module.startswith(package + "."):
                yield from ((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name == package or alias.name.startswith(package + "."))


def _unresolved(imports) -> list:
    return [f"{module}:{name}" for module, name in imports
            if name is not None and not hasattr(importlib.import_module(module), name)]


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda path: path.name)
def test_perfbench_imports_of_the_package_resolve(path):
    imports = list(_imports(path, "recidrisk"))
    for module, _ in imports:
        importlib.import_module(module)
    assert _unresolved(imports) == []


def test_every_name_the_package_init_imports_exists():
    imports = list(_imports(ROOT / "src" / "recidrisk" / "__init__.py", "recidrisk"))
    assert imports
    assert _unresolved(imports) == []
