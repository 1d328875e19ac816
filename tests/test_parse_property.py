"""parse_poly against MultiPoly arithmetic on random expression trees.

A tree is written out as text in the grammar parse_poly reads, and the same
tree is evaluated with MultiPoly's own +, - and * inside the test (a power
as a repeated product); the two polynomials must agree term for term.
"""

import math

from hypothesis import given, settings, strategies as st

from resform.gfield import gf_create
from resform.mpoly import MultiPoly, parse_poly

NAMES = ["x", "y", "z"]
FIELDS = [(7, 1), (3, 2), (2, 2)]

# Binding strength of each node when written out: a node is put in
# parentheses wherever its context asks for a stronger one.
SUM, TERM, FACTOR, POWER, ATOM = range(5)
PREC = {"add": SUM, "sub": SUM, "mul": TERM, "sign": FACTOR, "pow": POWER,
        "paren": ATOM, "int": ATOM, "var": ATOM, "gen": ATOM}

leaves = st.one_of(
    st.tuples(st.just("int"), st.integers(0, 20)),
    st.tuples(st.just("var"), st.sampled_from(NAMES)),
    st.tuples(st.just("gen")),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
        # u + (t - t): the bracket cancels to zero and leaves u to be checked
        st.tuples(children, children).map(
            lambda ut: ("add", ut[0], ("paren", ("sub", ut[1], ut[1])))),
        st.tuples(st.just("sign"), st.text("+-", min_size=1, max_size=3), children),
        st.tuples(st.just("pow"), children, st.integers(0, 3), st.sampled_from(["^", "**"])),
        # a power of a sum, so that square-and-multiply meets several terms
        st.tuples(st.just("pow"), st.tuples(st.just("add"), children, children),
                  st.integers(2, 5), st.sampled_from(["^", "**"])),
        st.tuples(st.just("paren"), children),
    )


trees = st.recursive(leaves, _extend, max_leaves=8)


def _write(tree, need, space, has_gen):
    """The text of tree where its context asks for binding strength need."""
    kind = tree[0]
    if kind == "int":
        text = str(tree[1])
    elif kind == "var":
        text = tree[1]
    elif kind == "gen":
        text = "g" if has_gen else "1"
    elif kind == "paren":
        text = "(" + _write(tree[1], SUM, space, has_gen) + ")"
    elif kind == "sign":
        text = tree[1] + _write(tree[2], POWER, space, has_gen)
    elif kind == "pow":
        text = _write(tree[1], ATOM, space, has_gen) + tree[3] + str(tree[2])
    else:
        op = {"add": "+", "sub": "-", "mul": "*"}[kind]
        left = _write(tree[1], PREC[kind], space, has_gen)
        right = _write(tree[2], PREC[kind] + 1, space, has_gen)
        text = left + (f" {op} " if space else op) + right
    return text if PREC[kind] >= need else "(" + text + ")"


def _evaluate(tree, field):
    n = len(NAMES)
    kind = tree[0]
    if kind == "int":
        return MultiPoly.const(field, n, tree[1])
    if kind == "var":
        return MultiPoly.var(field, n, NAMES.index(tree[1]))
    if kind == "gen":
        return MultiPoly.const(field, n, field.gen() if field.m > 1 else field(1))
    if kind == "paren":
        return _evaluate(tree[1], field)
    if kind == "sign":
        value = _evaluate(tree[2], field)
        return -value if tree[1].count("-") % 2 else value
    if kind == "pow":
        one = MultiPoly.const(field, n, 1)
        return math.prod([_evaluate(tree[1], field)] * tree[2], start=one)
    left, right = _evaluate(tree[1], field), _evaluate(tree[2], field)
    return {"add": left + right, "sub": left - right, "mul": left * right}[kind]


@settings(max_examples=150)
@given(trees, st.sampled_from(FIELDS), st.booleans())
def test_parse_agrees_with_multipoly_arithmetic(tree, pm, space):
    field = gf_create(*pm)
    has_gen = field.m > 1
    text = _write(tree, SUM, space, has_gen)
    constants = {"g": field.gen()} if has_gen else None
    assert parse_poly(text, field, NAMES, constants=constants) == _evaluate(tree, field), text


def test_the_writer_respects_the_grammar():
    """Spot checks that the trees are written with the parser's precedence:
    signs bind looser than ^, and the right operand of - is one term."""
    x, y = ("var", "x"), ("var", "y")
    assert _write(("sign", "-", ("pow", x, 2, "^")), SUM, False, False) == "-x^2"
    assert _write(("pow", ("sign", "-", x), 2, "**"), SUM, False, False) == "(-x)**2"
    assert _write(("sub", x, ("add", x, y)), SUM, True, False) == "x - (x + y)"
    assert _write(("mul", ("sign", "+-", x), ("sign", "-", y)), SUM, False, True) == "+-x*-y"
