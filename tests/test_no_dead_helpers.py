"""Every function, method and class the package defines is named somewhere.

The check reads the sources and imports nothing.  A definition in
src/resform counts as used when its name appears in src, tests or
perfbench as an identifier, an attribute, an imported name or a word of a
string literal, as perfbench's tracer and monkeypatch look names up by
string.  Docstrings do not count, and neither does the definition itself.
Dunder methods are called by the language and are left out.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "resform"
WORD = re.compile(r"[A-Za-z_]\w*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _defined(tree):
    for node in ast.walk(tree):
        if isinstance(node, DEFINITIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")):
            yield node.lineno, node.name


def _named(tree):
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module,) + DEFINITIONS) and ast.get_docstring(node) is not None
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from WORD.findall(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            yield from WORD.findall(node.value)


def _dead(defining, using):
    named = {name for path in using for name in _named(_parse(path))}
    return [f"{path.name}:{line}: {name}" for path in defining
            for line, name in _defined(_parse(path)) if name not in named]


def test_every_helper_in_the_package_is_named_somewhere():
    defining = sorted(SRC.glob("*.py"))
    using = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert defining and len(using) > len(defining)
    assert _dead(defining, using) == []


def test_the_scan_sees_each_kind_of_use(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""dead_in_docstring is not a use."""\n'
        "from mod import imported\n"
        "def called(): pass\n"
        "def attribute(): pass\n"
        "def by_string(): pass\n"
        "def imported(): pass\n"
        "def dead_in_docstring(): pass\n"
        "class Dead:\n"
        '    """called is named here only in a docstring."""\n'
        "    def __repr__(self): pass\n"
        "    def dead(self): pass\n"
        "called()\n"
        "obj.attribute\n"
        "getattr(obj, 'mod.by_string')\n"
    )
    assert _dead([sample], [sample]) == [
        "sample.py:7: dead_in_docstring", "sample.py:8: Dead", "sample.py:11: dead"]
