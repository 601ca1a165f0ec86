"""No dead module-level names in ``src/nhcomp``.

Each module is parsed with ``ast``. A module-level import must be used in
its own module, and a module-level ``_private`` function, class or constant
must be referenced somewhere in the package; a name listed in ``__all__``
counts as used. A refactor that moves a computation elsewhere then cannot
leave the old helper or its import behind.

A name listed in ``__all__`` must in turn be used by more than unit tests:
by package code, ``tests/test_acceptance.py`` or a backticked span of
``README.md``. Only the names in ``_TEST_REFERENCES`` are exempt.

No module calls ``np.trace``: ``tensor3.trace`` gives its bits on a 3x3
array at a fraction of its cost.
"""

import ast
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "nhcomp"
_MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(_SRC.glob("*.py"))}

# exported names only unit tests call, each kept as the reference of the
# test named beside it
_TEST_REFERENCES = {
    "oldroyd_rate": "tests/test_stability.py::TestRateIdentities::test_oldroyd_vs_fd",
    "bh_rate": "tests/test_stability.py::TestRateIdentities::test_bh_rate_vs_fd",
    "coaxial_matrices": (
        "tests/test_stability.py::TestGridSearch::test_coaxial_matrix_matches_contractions"
    ),
}


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


def _readme_identifiers():
    """Every identifier inside a backticked span of README.md, code fences
    left out."""
    text = re.sub(r"```.*?```", "", (_ROOT / "README.md").read_text(), flags=re.S)
    return {
        word
        for span in re.findall(r"`([^`]+)`", text)
        for word in re.findall(r"[A-Za-z_]\w*", span)
    }


def test_every_exported_name_is_used_beyond_its_unit_tests():
    acceptance = ast.parse((_ROOT / "tests" / "test_acceptance.py").read_text())
    used = _referenced(acceptance) | _readme_identifiers()
    for tree in _MODULES.values():
        used |= _referenced(tree)
    test_only = sorted(
        f"{name}:{n}" for name, tree in _MODULES.items() for n in _exported(tree) if n not in used
    )
    assert {t.split(":")[1] for t in test_only} == set(_TEST_REFERENCES), (
        f"exported names only unit tests use: {test_only}; "
        f"of these only {sorted(_TEST_REFERENCES)} may stay, as test references"
    )


@pytest.mark.parametrize("name", sorted(_TEST_REFERENCES))
def test_each_kept_test_reference_is_read_by_its_test(name):
    path, *scope = _TEST_REFERENCES[name].split("::")
    node = ast.parse((_ROOT / path).read_text())
    for part in scope:
        node = next(
            n
            for n in node.body
            if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part
        )
    assert name in _loaded(node)


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_no_module_calls_np_trace(name):
    lines = [
        node.lineno
        for node in ast.walk(_MODULES[name])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "trace"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ]
    assert not lines, f"{name} calls np.trace on lines {lines}; use tensor3.trace"
