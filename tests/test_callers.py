"""The README's rule that a name in the library needs a caller outside the
tests: each name in ``egadm.__all__`` is loaded as a name or read as an
attribute somewhere in the package's own modules (``__init__.py``, which
only re-exports, aside), ``bench/*.py`` or ``demos/*.py``.  The code is
parsed, so a name in a string or a comment does not count."""

import ast
from pathlib import Path

import egadm

ROOT = Path(__file__).resolve().parents[1]


def _loaded_names():
    files = [p for p in (ROOT / "src" / "egadm").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    assert sorted(set(egadm.__all__) - _loaded_names()) == []
