"""Every program module uses what it imports.

An AST scan of each module under ``src/umla`` (package ``__init__`` files
re-export, so they are skipped): a name bound by an import must be read
somewhere in the module or be listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "umla"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line, for every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read_names(tree: ast.Module) -> set:
    """Names the module reads, including those inside string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(ann) if ann is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _read_names(ast.parse(part.value, mode="eval"))
    return names


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_uses_its_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read_names(tree) | _exported(tree)
    unused = {
        name: line for name, line in _imported(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"
