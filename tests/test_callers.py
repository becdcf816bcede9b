"""Static rules, checked on the parsed code, so a name in a string or a
comment does not count.

The README's rule that a name in the library needs a caller outside the
tests: each name in ``egadm.__all__`` is loaded as a name or read as an
attribute somewhere in the package's own modules (``__init__.py``, which
only re-exports, aside), ``bench/*.py`` or ``demos/*.py``.

The front-end protocol: the package reaches a front end only through its
instance's ``as_problem`` and ``stop_rule``, so no module in it asks
whether an instance is a basis-pursuit or a fused one.

One copy of the setting checks: ``problem.py`` says what a valid scalar
setting is, so no other module in the package names ``np.bool_`` to
write a bool test of its own, and a check's value is the setting to
hold: outside ``problem.py`` no call of ``_check_bound`` or
``_check_gamma`` stands alone as a statement, its result dropped.

One owner of the monitoring rule: ``solver.py`` alone decides which
solves record the certificate, so no other module of the package reads
a variant's ``extragradient`` to decide it again."""

import ast
from pathlib import Path

import egadm

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "egadm"
INSTANCE_CLASSES = {"BasisPursuitInstance", "FusedLogisticInstance"}


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))


def _loaded_names():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    names = set()
    for path in files:
        for node in _nodes(path):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    assert sorted(set(egadm.__all__) - _loaded_names()) == []


def test_no_module_in_the_package_tests_an_instance_against_a_front_end_class():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _nodes(path):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"):
                continue
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for arg in node.args[1:] for n in ast.walk(arg)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if named & INSTANCE_CLASSES:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_problem_py_names_numpy_bool():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "problem.py"
             for node in _nodes(path)
             if (isinstance(node, ast.Attribute) and node.attr == "bool_")
             or (isinstance(node, ast.Name) and node.id == "bool_")
             or (isinstance(node, ast.alias) and node.name == "bool_")]
    assert found == []


def test_no_module_drops_the_value_of_a_setting_check():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "problem.py"
             for node in _nodes(path)
             if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
             and isinstance(node.value.func, ast.Name)
             and node.value.func.id in ("_check_bound", "_check_gamma")]
    assert found == []


def test_only_solver_py_reads_extragradient():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "solver.py"
             for node in _nodes(path)
             if isinstance(node, ast.Attribute) and node.attr == "extragradient"]
    assert found == []
