"""No module of ``qmsemi`` imports a name it neither uses nor re-exports, every
``__all__`` entry exists, and the package re-exports only listed names."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qmsemi"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{line}: {name}" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_no_unused_import_in_the_package():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(files) >= 10
    found = [f"{p.name}:{hit}" for p in files for hit in unused_imports(p.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_guard_sees_plain_from_and_aliased_imports():
    src = (
        "from __future__ import annotations\n"
        "import math\nimport numpy as np\nimport scipy.linalg\n"
        "from .matops import hs_inner, vec\nfrom .io import dump_json\n"
        "__all__ = ['dump_json']\n"
        "def f(x):\n    return vec(np.abs(x))\n"
    )
    assert unused_imports(src) == ["2: math", "4: scipy", "5: hs_inner"]


def test_every_all_entry_is_defined_in_its_module():
    missing = []
    for path in sorted(SRC.glob("*.py")):
        mod = importlib.import_module(f"qmsemi.{path.stem}")
        missing += [f"{path.name}: {name}" for name in getattr(mod, "__all__", [])
                    if not hasattr(mod, name)]
    assert not missing, "\n".join(missing)


def test_package_imports_only_names_its_modules_list():
    tree = ast.parse((SRC / "__init__.py").read_text())
    froms = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert len(froms) >= 8
    unlisted = [f"{node.module}: {alias.name}" for node in froms for alias in node.names
                if alias.name not in importlib.import_module(f"qmsemi.{node.module}").__all__]
    assert not unlisted, "\n".join(unlisted)
