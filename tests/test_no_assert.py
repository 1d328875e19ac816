"""No invariant check in the package may vanish under python -O, and none
may escape the CLI as a bare ArithmeticError."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "resform"


def _stripped_checks(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("AssertionError", "ArithmeticError"):
                yield node.lineno, f"raise {exc.id}"


def test_package_has_no_assert_or_assertion_error():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{p.name}:{line}: {what}" for p in files for line, what in _stripped_checks(p)]
    assert found == []


def test_the_scan_sees_both_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("assert x\nraise AssertionError('no')\nraise AssertionError\n"
                      "raise ArithmeticError('no')\nraise ArithmeticError\n"
                      "raise ZeroDivisionError('fine')\n")
    assert [line for line, _ in _stripped_checks(sample)] == [1, 2, 3, 4, 5]
