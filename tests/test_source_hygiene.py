"""No dead module-level names in ``src/nhcomp``.

Each module is parsed with ``ast``. A module-level import must be used in
its own module, and a module-level ``_private`` function, class or constant
must be referenced somewhere in the package; a name listed in ``__all__``
counts as used. A refactor that moves a computation elsewhere then cannot
leave the old helper or its import behind.
"""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "nhcomp"
_MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(_SRC.glob("*.py"))}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _referenced(tree):
    """Every name a module reads: loaded names, attribute names and the
    names it imports from another module."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _bound(target):
    """The names an assignment target binds, through tuple unpacking."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _bound(elt)]
    return []


def _loaded(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_every_module_level_import_is_used(name):
    tree = _MODULES[name]
    used = _loaded(tree) | _exported(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [b for b in bound if b not in used]
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_every_private_module_level_name_is_referenced():
    referenced = set()
    for tree in _MODULES.values():
        referenced |= _referenced(tree) | _exported(tree)
    dead = []
    for name, tree in _MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [b for t in node.targets for b in _bound(t)]
            elif isinstance(node, ast.AnnAssign):
                defined = _bound(node.target)
            else:
                continue
            dead += [
                f"{name}:{d}"
                for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in referenced
            ]
    assert not dead, f"private module-level names nothing in the package references: {dead}"
