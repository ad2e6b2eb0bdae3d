"""Every program module uses what it imports, and every private helper has a reader.

An AST scan of each module under ``src/umla`` (package ``__init__`` files
re-export, so they are skipped): a name bound by an import must be read
somewhere in the module or be listed in its ``__all__``.  A second scan
covers the whole package: every module-level private name and every
private method of a class (one leading underscore) must be read somewhere
in it, so a refactor cannot leave a helper without callers.
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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module) -> dict:
    """Private name -> line, for module-level defs, classes and assignments,
    and ``Class._method`` -> line for the private methods of classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in ast.walk(node):
                if isinstance(item, ast.ClassDef):
                    for meth in item.body:
                        if isinstance(
                            meth, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ) and _private(meth.name):
                            out[f"{item.name}.{meth.name}"] = meth.lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for n in nodes for t in ast.walk(n) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if _private(name):
                out[name] = node.lineno
    return out


def _package_reads() -> set:
    """Names loaded or read as attributes anywhere in the package."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_private_names_have_readers():
    reads = _package_reads()
    unread = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, line in _private_definitions(ast.parse(path.read_text())).items()
        if name.rsplit(".", 1)[-1] not in reads
    ]
    assert not unread, f"private names nothing reads: {unread}"
