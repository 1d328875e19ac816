import random

import pytest

from resform.errors import PolySyntaxError, UnknownVariable
from resform import mpoly
from resform.gfield import gf_create
from resform.mpoly import (
    MultiPoly,
    ZZ,
    divided_difference,
    parse_poly,
    partials,
    variable_blocks,
)


def _random_poly(rng, ring, n, max_deg=4, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randrange(0, max_deg) for _ in range(n))
        terms[e] = ring(rng.randrange(1, 7))
    return MultiPoly(ring, n, terms)


def test_parse_and_render_round_trip():
    f7 = gf_create(7, 1)
    f = parse_poly("x^3 + 2*x*y - y + 5", f7, ["x", "y"])
    assert f.terms[(3, 0)] == f7(1)
    assert f.terms[(1, 1)] == f7(2)
    assert f.terms[(0, 1)] == f7(-1)
    assert f.terms[(0, 0)] == f7(5)
    again = parse_poly(f.render(["x", "y"]), f7, ["x", "y"])
    assert again == f


def test_parse_errors():
    f7 = gf_create(7, 1)
    with pytest.raises(UnknownVariable, match=r"^unknown name 'z'$"):
        parse_poly("x + z", f7, ["x", "y"])
    with pytest.raises(PolySyntaxError, match=r"^unexpected token '\*'$"):
        parse_poly("x ++* y", f7, ["x", "y"])


@pytest.mark.parametrize("text, message", [
    ("", "empty expression"),
    ("  ", "empty expression"),
    ("x $ y", "unexpected character '$' at position 2"),
    ("x + 1\u00b2", "unexpected character '\u00b2' at position 5"),
    ("x+\u00b2", "unexpected character '\u00b2' at position 2"),
    ("\u00b2", "unexpected character '\u00b2' at position 0"),
    ("x^", "exponent must be an integer literal"),
    ("x^-1", "exponent must be an integer literal"),
    ("x^y", "exponent must be an integer literal"),
    ("(x+y", "expected closing parenthesis"),
    ("x+", "unexpected token None"),
    ("**x", "unexpected token '^'"),
    ("()", "unexpected token ')'"),
    ("x)", "trailing input near token 1"),
    ("x y", "trailing input near token 1"),
    ("x^2^3", "trailing input near token 3"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(PolySyntaxError) as err:
        parse_poly(text, gf_create(7, 1), ["x", "y"])
    assert str(err.value) == message


def test_names_and_numerals_outside_ascii():
    f7 = gf_create(7, 1)
    assert parse_poly("x^\u0663", f7, ["x"]) == parse_poly("x^3", f7, ["x"])
    with pytest.raises(UnknownVariable, match="unknown name 'x\u00b2'"):
        parse_poly("x\u00b2", f7, ["x"])
    assert parse_poly("\u00e9^2", f7, ["\u00e9"]).terms == {(2,): f7(1)}


def test_each_product_of_the_expansion_is_capped(monkeypatch):
    f7 = gf_create(7, 1)
    names = ["x", "y", "z"]
    monkeypatch.setattr(mpoly, "MAX_EXPANSION", 6)
    assert len(parse_poly("(x+y)*(x+y+z)", f7, names).terms) == 5
    with pytest.raises(PolySyntaxError) as err:
        parse_poly("(x+y)*(x+y+z+1)", f7, names)
    assert str(err.value) == "expanding the input multiplies 2 by 4 terms, more than 6 term pairs"
    # a single term is raised without expanding anything
    assert parse_poly("(3*x*y)^100000", f7, names).terms == {(100000, 100000, 0): f7(3) ** 100000}
    # squaring (x+y+z) multiplies 9 pairs
    with pytest.raises(PolySyntaxError, match="multiplies 3 by 3 terms"):
        parse_poly("(x+y+z)^2", f7, names)


def test_ring_axioms_on_samples():
    rng = random.Random(11)
    f5 = gf_create(5, 1)
    for _ in range(15):
        a = _random_poly(rng, f5, 2)
        b = _random_poly(rng, f5, 2)
        c = _random_poly(rng, f5, 2)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        assert a * b == b * a


def test_evaluate_by_hand():
    f7 = gf_create(7, 1)
    f = parse_poly("x^2*y + 3*y^2 + x", f7, ["x", "y"])
    # 4*5 + 3*25 + 2 = 97 = 6 mod 7
    assert f.evaluate([f7(2), f7(5)]) == f7(6)


def test_integer_polynomials():
    x = MultiPoly.var(ZZ, 2, 0)
    y = MultiPoly.var(ZZ, 2, 1)
    f = (x + y) ** 3
    assert f.terms[(2, 1)] == 3
    assert f.evaluate([2, 1]) == 27
    assert (2 * x).terms[(1, 0)] == 2


def test_partials():
    f7 = gf_create(7, 1)
    f = parse_poly("x^3 + x*y^2", f7, ["x", "y"])
    gx, gy = partials(f)
    assert gx == parse_poly("3*x^2 + y^2", f7, ["x", "y"])
    assert gy == parse_poly("2*x*y", f7, ["x", "y"])


def test_divided_difference_telescopes():
    """Sum of dd_j(g) * (x_j - y_j) recovers g(x) - g(y)."""
    rng = random.Random(23)
    f7 = gf_create(7, 1)
    for n in (1, 2, 3):
        g = _random_poly(rng, f7, n)
        gx = g.embed(2 * n, 0)
        gy = g.embed(2 * n, n)
        acc = MultiPoly.zero(f7, 2 * n)
        for j in range(n):
            xj = MultiPoly.var(f7, 2 * n, j)
            yj = MultiPoly.var(f7, 2 * n, n + j)
            acc = acc + divided_difference(g, j) * (xj - yj)
        assert acc == gx - gy


def test_embed_offsets():
    f7 = gf_create(7, 1)
    f = parse_poly("x^2 + 1", f7, ["x"])
    g = f.embed(3, 1)
    assert g.terms == {(0, 2, 0): f7(1), (0, 0, 0): f7(1)}


def test_variable_blocks_order_by_first_variable_and_drop_the_constant():
    f7 = gf_create(7, 1)
    names = ["a", "b", "c", "d", "e"]
    f = parse_poly("3 + d^2*b + b^4 + 2*c^3 + a*c", f7, names)
    blocks = variable_blocks(f)
    assert [vs for vs, _ in blocks] == [(0, 2), (1, 3)]
    assert [g.render(["u", "v"]) for _, g in blocks] == ["2*v^3 + u*v", "u^4 + u*v^2"]
    assert variable_blocks(MultiPoly.const(f7, 2, 5)) == []
