"""The geometric side and the catalog against exact Frobenius determinants.

frobenius_oracle reads epsilon off the exponential sums of f, a route that
uses neither the residue engine nor the catalog.  A disagreement is a FAIL
to report, not a sign to tune either side.
"""

import ast
import pathlib
from fractions import Fraction

import pytest

from frobenius_oracle import (
    as_number,
    epsilon_power,
    exponential_sum,
    frobenius_det,
    gauss_sum,
    milnor_orlik,
    weights,
)
from resform.catalog import arithmetic_side
from resform.epsilon import geometric_side
from resform.gfield import gauss_sum as hasse_davenport_gauss_sum
from resform.gfield import gf_create, legendre
from resform.milnor import milnor_algebra
from resform.mpoly import parse_poly

ORACLE = pathlib.Path(__file__).resolve().parent / "frobenius_oracle.py"

# (p, m, variables, f): prime-field coefficients, mu <= 8
ODD_CASES = [
    (3, 1, "t", "t^2"),
    (5, 1, "t", "2*t^2"),
    (7, 1, "t", "t^2"),
    (13, 1, "t", "3*t^2"),
    (3, 2, "t", "t^2"),
    (5, 2, "t", "2*t^2"),
    (3, 1, "x,y,z", "x^2+y^2+z^2"),
    (5, 1, "x,y", "2*x^2+y^2"),
    (3, 2, "x,y,z", "x^2+y^2+z^2"),
    (3, 1, "t", "t^4"),
    (5, 1, "t", "t^3"),
    (5, 1, "t", "t^4"),
    (7, 1, "t", "t^3"),
    (7, 1, "t", "2*t^6"),
    (11, 1, "t", "t^5"),
    (13, 1, "t", "t^4"),
    (5, 2, "t", "t^3"),
    (7, 1, "x,y", "x^3+y^3"),
    (13, 1, "x,y", "x^2+y^3"),
    (5, 1, "x,y,z", "x^2+y^2+z^3"),
    (7, 1, "x,y,z", "x^2+y^3+z^3"),
    # A_3 chains
    (3, 1, "x,y", "x^2*y+y^2"),
    (7, 1, "x,y", "x^2*y+3*y^2"),
    (11, 1, "x,y", "x^2*y+2*y^2"),
    (3, 2, "x,y", "x^2*y+y^2"),
    # D_4, as a chain and as a loop
    (5, 1, "x,y", "x^2*y+y^3"),
    (7, 1, "x,y", "x^2*y+y^3"),
    (13, 1, "x,y", "x^2*y+y^3"),
    (5, 2, "x,y", "x^2*y+y^3"),
    (5, 1, "x,y", "x^2*y+x*y^2"),
    (7, 1, "x,y", "x^2*y+3*x*y^2"),
    # D_5
    (3, 1, "x,y", "x^2*y+y^4"),
    (5, 1, "x,y", "x^2*y+y^4"),
    (7, 1, "x,y", "x^2*y+2*y^4"),
    (3, 2, "x,y", "x^2*y+y^4"),
    # E_6
    (5, 1, "x,y", "x^3+y^4"),
    (7, 1, "x,y", "x^3+y^4"),
]
CHAR2_CASES = [
    (2, 1, "t", "t^3"),
    (2, 2, "t", "t^3"),
    (2, 3, "t", "t^3"),
    (2, 1, "t", "t^5"),
    (2, 2, "t", "t^5"),
    (2, 1, "t", "t^7"),
    (2, 1, "x,y", "x^2+x*y"),
    (2, 1, "x,y", "x^2+x*y+y^2"),
    (2, 2, "x,y", "x^2+x*y+y^2"),
    (2, 1, "x,y", "x^3+y^3"),
    (2, 1, "x,y,z", "x^2+x*y+y^2+z^3"),
    (2, 1, "x,y,z", "x^3+y^3+z^3"),
    # D_4 as a loop
    (2, 1, "x,y", "x^2*y+x*y^2"),
    (2, 2, "x,y", "x^2*y+x*y^2"),
    # E_7
    (2, 1, "x,y", "x^3*y+y^3"),
    (2, 2, "x,y", "x^3*y+y^3"),
    # E_8
    (2, 1, "x,y", "x^3+y^5"),
    (2, 2, "x,y", "x^3+y^5"),
]
CASES = ODD_CASES + CHAR2_CASES
# the cases whose every block has a catalog entry
CATALOG_CASES = [
    (3, 1, "t", "t^2"),
    (5, 1, "t", "2*t^2"),
    (13, 1, "t", "3*t^2"),
    (5, 2, "t", "2*t^2"),
    (3, 1, "x,y,z", "x^2+y^2+z^2"),
    (5, 1, "x,y", "2*x^2+y^2"),
    (2, 1, "t", "t^3"),
    (2, 3, "t", "t^3"),
    (2, 1, "x,y", "x^2+x*y"),
    (2, 2, "x,y", "x^2+x*y+y^2"),
    (2, 1, "x,y,z", "x^2+x*y+y^2+z^3"),
]


def _ids(cases):
    return [f"{poly}/F{p}^{m}" for p, m, _, poly in cases]


def _case(p, m, names, poly):
    return parse_poly(poly, gf_create(p, m), names.split(","))


def _as_power(value, n):
    """epsilon^((-1)^(n+1)) as an exact number."""
    return as_number(value if n % 2 else value.inverse())


@pytest.mark.parametrize("p, m, names, poly", CASES, ids=_ids(CASES))
def test_the_geometric_side_is_read_off_the_frobenius_determinant(p, m, names, poly):
    f = _case(p, m, names, poly)
    assert milnor_algebra(f).mu == milnor_orlik(f)
    assert _as_power(geometric_side(f), f.n_vars) == epsilon_power(f)


@pytest.mark.parametrize("p, m, names, poly", CATALOG_CASES, ids=_ids(CATALOG_CASES))
def test_the_catalog_is_read_off_the_frobenius_determinant(p, m, names, poly):
    f = _case(p, m, names, poly)
    value, _ = arithmetic_side(f)
    assert _as_power(value, f.n_vars) == epsilon_power(f)


def test_the_determinant_pins_the_power_of_two():
    """The literal convention, exponent 0, fails exactly where n*mu is odd
    and 2 is not a square, and there are such cases."""
    failed = []
    for p, m, names, poly in CASES:
        f = _case(p, m, names, poly)
        n, field = f.n_vars, f.ring
        literal = _as_power(geometric_side(f, "literal"), n) == epsilon_power(f)
        if not literal:
            failed.append((poly, field.q))
        odd = field.p != 2 and n * milnor_orlik(f) % 2 and legendre(field(2)) == -1
        assert literal != odd, (poly, field.q)
    assert {("t^2", 3), ("2*t^2", 5), ("x^2+y^2+z^2", 3)} <= set(failed)


@pytest.mark.parametrize("p, m, names, poly", [
    (11, 1, "t", "t^5"),
    (5, 1, "x,y", "x^2*y+y^3"),
    (3, 1, "x,y", "x^2*y+y^4"),
    (2, 1, "x,y", "x^3*y+y^3"),
    (2, 1, "x,y", "x^3+y^5"),
])
def test_purity_halves_the_sums_without_changing_the_determinant(p, m, names, poly):
    f = _case(p, m, names, poly)
    assert frobenius_det(f) == frobenius_det(f, shortcut=False)


def test_a_sum_counted_by_hand():
    """x^2+x*y+y^2 over F_2 is 0 at the origin and 1 elsewhere: 1 - 3."""
    f = _case(2, 1, "x,y", "x^2+x*y+y^2")
    assert exponential_sum(f, 1) == -2
    assert exponential_sum(f, 2) == 4


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)])
def test_the_counted_gauss_sum_is_hasse_davenports(p, m):
    field = gf_create(p, m)
    assert gauss_sum(field) == hasse_davenport_gauss_sum(field)


def test_weights_and_the_milnor_orlik_number():
    field = gf_create(5, 1)
    f = parse_poly("x^2*y+y^4", field, ["x", "y"])
    assert weights(f) == (Fraction(3, 8), Fraction(1, 4))
    assert milnor_orlik(f) == 5
    for poly in ("x^3+x*y+y^3", "x^2*y", "x^2*y+x^3*y^2"):
        with pytest.raises(ValueError):
            weights(parse_poly(poly, field, ["x", "y"]))


def test_the_oracle_reads_neither_the_engine_nor_sympy():
    tree = ast.parse(ORACLE.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"__future__", "math", "fractions", "numpy", "resform.gfield"}
