"""Every exported name exists.

A stale ``__all__`` entry does not fail at import, only when a star import
or a reader reaches for it, so deleting a function must delete its export.
"""

import ast
import importlib
from pathlib import Path

import trailergen
from trailergen import autodiff


def test_autodiff_all_names_exist():
    missing = [name for name in autodiff.__all__ if not hasattr(autodiff, name)]
    assert not missing
    assert len(set(autodiff.__all__)) == len(autodiff.__all__)


def test_package_reexports_exist_and_are_public():
    """Each name ``trailergen/__init__.py`` imports from a submodule exists
    there, and is listed in that submodule's ``__all__`` when it has one."""
    tree = ast.parse(Path(trailergen.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.module]
    assert imports
    for node in imports:
        module = importlib.import_module(f"trailergen.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert alias.name in getattr(module, "__all__", [alias.name]), \
                f"{node.module}.{alias.name} is not in __all__"
