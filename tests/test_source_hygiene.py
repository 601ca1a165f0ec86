"""No dead module-level names in ``src/nhcomp``.

Each module is parsed with ``ast``. A module-level import must be used in
its own module, and a module-level ``_private`` function, class or constant
must be referenced somewhere in the package; a name listed in ``__all__``
counts as used. A refactor that moves a computation elsewhere then cannot
leave the old helper or its import behind.

A name listed in ``__all__`` must in turn be used by more than unit tests:
by package code, ``tests/test_acceptance.py`` or a backticked span of
``README.md``. Only the names in ``_TEST_REFERENCES`` are exempt. The same
holds for every field of a ``@dataclass`` in the package: package code reads
it as an attribute, or as a string in a function that calls ``getattr``.
Only the fields in ``_TEST_FIELDS`` are exempt.

No module calls ``np.trace``: ``tensor3.trace`` gives its bits on a 3x3
array at a fraction of its cost. No module reads ``numpy.random``:
``tangent-check`` reads its motions from a table, and the import costs
each process about 6 MB. No private function enters a numpy error
state: each public entry point holds one for its whole body, and the
helpers it calls run under it. No module but ``_kernels``, which states
each load case once as a record, compares a value with a load case name:
every other module reads what a case is from its record. Likewise only the
functions in ``_FAMILY_READERS`` compare a value with a volumetric family
code (``FAMILY_*``): ``_kernels.columns`` states each family's closed forms
once, and every other caller reads a column from it.

No function keeps state in a module-level name: none writes one through a
subscript or attribute store, or rebinds one through ``global``, unless
``_MODULE_STATE`` lists it with the reason it may.
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
}


# dataclass fields only unit tests read, each kept as the reference of the
# test named beside it
_TEST_FIELDS = {
    "ContractionReport.recomposed": (
        "tests/test_stability.py::TestHill::test_recomposition_invariant"
    ),
    "VolFunEval.jhp": "tests/test_volfun.py::test_internal_consistency_jhp_and_chi",
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


def _test_node(reference):
    """The class or function a ``path::Class::test`` reference names."""
    path, *scope = reference.split("::")
    node = ast.parse((_ROOT / path).read_text())
    for part in scope:
        node = next(
            n
            for n in node.body
            if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part
        )
    return node


@pytest.mark.parametrize("name", sorted(_TEST_REFERENCES))
def test_each_kept_test_reference_is_read_by_its_test(name):
    assert name in _loaded(_test_node(_TEST_REFERENCES[name]))


def _fields(tree):
    """``Class.field`` for every annotated field of a ``@dataclass`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}"


def _attributes_read(tree):
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _getattr_strings(tree):
    """The strings inside each function that calls ``getattr``: the names it
    can look up, such as the quantities ``homsolve`` reads off a result."""
    return {
        const.value
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and "getattr" in _loaded(fn)
        for const in ast.walk(fn)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    }


def test_every_dataclass_field_is_read_beyond_its_unit_tests():
    acceptance = ast.parse((_ROOT / "tests" / "test_acceptance.py").read_text())
    read = _referenced(acceptance) | _readme_identifiers()
    for tree in _MODULES.values():
        read |= _attributes_read(tree) | _getattr_strings(tree)
    test_only = sorted(
        field
        for tree in _MODULES.values()
        for field in _fields(tree)
        if field.split(".")[1] not in read
    )
    assert test_only == sorted(_TEST_FIELDS), (
        f"dataclass fields only unit tests read: {test_only}; "
        f"of these only {sorted(_TEST_FIELDS)} may stay, as test references"
    )


@pytest.mark.parametrize("field", sorted(_TEST_FIELDS))
def test_each_kept_test_field_is_read_by_its_test(field):
    assert field.split(".")[1] in _attributes_read(_test_node(_TEST_FIELDS[field]))


def _np_calls(node, attr):
    """Line numbers of the ``np.<attr>(...)`` calls inside ``node``."""
    return [
        call.lineno
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == attr
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id in ("np", "numpy")
    ]


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_no_module_calls_np_trace(name):
    lines = _np_calls(_MODULES[name], "trace")
    assert not lines, f"{name} calls np.trace on lines {lines}; use tensor3.trace"


def _np_random_lines(tree):
    """Line numbers of the imports of numpy.random and of the reads of
    np.random or numpy.random."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{'numpy' if node.value.id == 'np' else node.value.id}.{node.attr}"]
        else:
            continue
        if any(n == "numpy.random" or n.startswith("numpy.random.") for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_no_module_reads_numpy_random(name):
    lines = _np_random_lines(_MODULES[name])
    assert not lines, f"{name} reads numpy.random on lines {lines}"


def test_the_numpy_random_gate_sees_each_form():
    src = "import numpy.random\nfrom numpy import random\nfrom numpy.random import x\nnp.random.rng()"
    assert _np_random_lines(ast.parse(src)) == [1, 2, 3, 4]


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_no_private_function_enters_an_error_state(name):
    entered = [
        f"{node.name} (line {line})"
        for node in ast.walk(_MODULES[name])
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        for line in _np_calls(node, "errstate")
    ]
    assert not entered, f"{name}: private functions call np.errstate: {entered}"


_CASE_NAMES = {"ul", "elp", "ulp"}


def _case_comparisons(tree):
    """Line numbers of the comparisons with a load case name, alone or
    inside a tuple, list or set literal."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                literal = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                elts = operand.elts if literal else [operand]
                if any(isinstance(e, ast.Constant) and e.value in _CASE_NAMES for e in elts):
                    lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", sorted(set(_MODULES) - {"_kernels.py"}))
def test_no_module_but_the_record_compares_a_case_name(name):
    lines = _case_comparisons(_MODULES[name])
    assert not lines, f"{name} compares a load case name on lines {lines}; read the LoadCase record"


def test_the_case_gates_see_the_records():
    # the comparison gate catches a name test, and the dataclass-field gate
    # covers the record's fields
    assert _case_comparisons(ast.parse('case == "ul" or case in ("elp", "ulp")')) == [1, 1]
    assert {"LoadCase.name", "LoadCase.f22"} <= set(_fields(_MODULES["_kernels.py"]))


# the functions that may compare a value with a volumetric family code: the
# one statement of each family's closed forms, the span that bounds them,
# their log-space continuation, and the quadratic's radical
_FAMILY_READERS = {
    "_kernels.py:columns",
    "volfun.py:_direct_span",
    "volfun.py:_log_tuple",
    "homsolve.py:closed_form_quadratic_mixed",
}


def _is_family_code(node):
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name.startswith("FAMILY_")


def _family_comparisons(tree):
    """The module-level functions and classes (``<module>`` for other
    statements) that compare a value with a ``FAMILY_*`` code, alone or
    inside a tuple, list or set literal."""
    found = set()
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    literal = isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                    if any(map(_is_family_code, operand.elts if literal else [operand])):
                        found.add(where)
    return found


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_only_the_family_statements_compare_a_family_code(name):
    found = {f"{name}:{where}" for where in _family_comparisons(_MODULES[name])}
    stray = sorted(found - _FAMILY_READERS)
    assert not stray, f"{stray} compare a volumetric family code; read a column of _kernels.columns"


def test_the_family_gate_sees_each_form():
    # a bare, an attribute and a tuple-member code, in a function, a method
    # and at module level; and every listed reader still compares one
    source = (
        "def f(family):\n    return family == FAMILY_HN\n"
        "class V:\n    def g(self):\n        return self.family != _k.FAMILY_OGDEN\n"
        "x = 1 if family in (_k.FAMILY_HN, 0) else 2\n"
    )
    assert _family_comparisons(ast.parse(source)) == {"f", "V", "<module>"}
    found = {f"{n}:{w}" for n, tree in _MODULES.items() for w in _family_comparisons(tree)}
    assert _FAMILY_READERS <= found


# module-level names that a function may write, each with its reason
_MODULE_STATE = {
    "_kernels.py:_scan_slot": (
        "the nu-free terms of the last residual scan, which the models of one "
        "sweep stretch that differ only in nu share"
    ),
}


def _module_names(tree):
    """The names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(b for t in node.targets for b in _bound(t))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names.update(_bound(node.target))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _store_base(node):
    """The name at the root of a subscript or attribute chain, or None."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _locals(fn):
    """The names a function, or a function nested in it, binds: its
    arguments and every name it stores or deletes, ``global`` names aside."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arguments):
            args = (*node.posonlyargs, *node.args, *node.kwonlyargs, node.vararg, node.kwarg)
            names.update(a.arg for a in args if a is not None)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
    declared = {name for g in ast.walk(fn) if isinstance(g, ast.Global) for name in g.names}
    return names - declared


def _module_state_writes(tree):
    """(name, line) of each write of a module-level name inside a function:
    a ``global`` statement naming it, or a subscript or attribute store or
    delete whose root is that name and no local of the outermost function
    around it (:func:`_locals`)."""
    module = _module_names(tree)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    functions = [n for n in ast.walk(tree) if isinstance(n, kinds)]
    nested = {id(inner) for fn in functions for inner in ast.walk(fn) if inner is not fn}
    writes = []
    for fn in (f for f in functions if id(f) not in nested):
        local = _locals(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                writes += [(name, node.lineno) for name in node.names if name in module]
            elif isinstance(node, (ast.Subscript, ast.Attribute)) and not isinstance(
                node.ctx, ast.Load
            ):
                base = _store_base(node)
                if base in module and base not in local:
                    writes.append((base, node.lineno))
    return writes


@pytest.mark.parametrize("name", sorted(_MODULES))
def test_no_function_keeps_unlisted_module_state(name):
    unlisted = [
        f"{base} (line {line})"
        for base, line in _module_state_writes(_MODULES[name])
        if f"{name}:{base}" not in _MODULE_STATE
    ]
    assert not unlisted, f"{name}: functions write module-level names: {unlisted}"


def test_each_listed_module_state_is_written():
    written = {
        f"{name}:{base}"
        for name, tree in _MODULES.items()
        for base, _ in _module_state_writes(tree)
    }
    assert written == set(_MODULE_STATE)


def test_the_module_state_gate_sees_each_form():
    src = (
        "import x\n_x, _y, _z = [None], None, {}\n"
        "def f(v):\n    _x[0] = v\n    _z.a.b = v\n    del _z[v]\n"
        "def g():\n    global _y\n    _y = 1\n"
        "def h(_x):\n    _x[0] = 1\n    _z = {}\n    _z[1] = 2\n"
        "    def inner():\n        _z[2] = 3\n"
    )
    assert _module_state_writes(ast.parse(src)) == [("_x", 4), ("_z", 5), ("_z", 6), ("_y", 8)]
