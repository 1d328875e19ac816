"""The catalog is the second, independent side of verify: nothing it
imports, directly or through other package modules, may reach the residue
engine or numpy.  The arithmetic at the bottom (finite fields, univariate
and multivariate polynomials) reaches no package module but errors, and no
numpy.  The check reads the sources and imports nothing."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "resform"
FORBIDDEN = {"milnor", "residue", "linalg", "wittring", "epsilon", "homog", "corpus", "cli"}


def _imports(path):
    """Package modules and top-level outside modules that a file imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                yield parts[1] if parts[0] == "resform" and len(parts) > 1 else parts[0]
        elif isinstance(node, ast.ImportFrom):
            mod = (node.module or "").split(".")
            if node.level == 0 and mod[0] != "resform":
                yield mod[0]
            elif mod[-1] in ("", "resform"):  # from . import x
                yield from (alias.name for alias in node.names)
            else:
                yield mod[-1] if node.level else mod[1]


def _reachable(src, start):
    """Every module reachable from `start` over the import edges of src."""
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        path = src / f"{name}.py"
        if path.exists():
            todo.extend(_imports(path))
    return seen - {start}


def test_catalog_reaches_no_residue_code():
    reached = _reachable(SRC, "catalog")
    assert "gfield" in reached and "mpoly" in reached
    assert reached & (FORBIDDEN | {"numpy"}) == set()


@pytest.mark.parametrize("name", ["gfield", "unipoly", "mpoly"])
def test_the_arithmetic_layer_stays_at_the_bottom(name):
    package = {path.stem for path in SRC.glob("*.py")}
    reached = _reachable(SRC, name)
    assert reached & package <= {"errors"}
    assert "numpy" not in reached


def test_the_scan_follows_imports(tmp_path):
    (tmp_path / "catalog.py").write_text("from .gfield import gauss_sum\n")
    (tmp_path / "gfield.py").write_text("from . import unipoly\nimport resform.milnor\n")
    (tmp_path / "unipoly.py").write_text("from resform.linalg import det_ring\n")
    (tmp_path / "linalg.py").write_text("import numpy as np\n")
    assert _reachable(tmp_path, "catalog") == {"gfield", "unipoly", "milnor", "linalg", "numpy"}
    (tmp_path / "catalog.py").write_text("from .milnor import milnor_algebra\n")
    assert _reachable(tmp_path, "catalog") & FORBIDDEN == {"milnor"}
