import ast
import importlib
import pkgutil
from pathlib import Path

import memsplate


def test_every_export_resolves():
    # a name deleted from a module but left in its __all__ or in the package's
    # imports is a stale export
    stale = []
    for info in pkgutil.iter_modules(memsplate.__path__):
        mod = importlib.import_module(f"memsplate.{info.name}")
        stale += [f"{info.name}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    tree = ast.parse(Path(memsplate.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"memsplate.{node.module}")
            names = getattr(mod, "__all__", []) if node.names[0].name == "*" else [a.name for a in node.names]
            stale += [f"{node.module}.{n}" for n in names if not (hasattr(mod, n) and hasattr(memsplate, n))]
    assert not stale
