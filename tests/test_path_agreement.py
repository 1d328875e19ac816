"""A linear change of coordinates leaves the invariants of a singularity alone.

f -> f o A for A in GL_n(F_q) keeps mu and the Arf class, and it turns a
separable input, whose Witt lift is split into blocks, into one that
mostly is not, so the blockwise route and the whole-lift route must agree.
Every lift here has at most 3 variables and a residue-field D0 of at most 3,
so each whole-lift elimination stays small.

A sum of blocks in at most 3 variables over F_{2^m} has Arf class 0: a
one-variable block has even mu, so the Kronecker law raises a two-variable
block's det G to an even power.  The Morse shape x^2+x*y+a*y^2, whose class
is Tr(a), supplies class 1.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from resform.gfield import gf_create, trace_bit
from resform.linalg import det_expand
from resform.milnor import milnor_algebra
from resform.mpoly import MultiPoly, parse_poly
from resform.residue import arf_invariant, witt_lift

# (variables, polynomial, whether its Witt lift is split into blocks)
SHAPES = [
    ("x,y,z", "x^2+x*y+a*y^2+c*z^3", True),
    ("x,y", "x^3+a*x^2+c*y^3", True),
    ("x,y", "x^2+x*y+a*y^2", False),
]


def _compose(f: MultiPoly, A) -> MultiPoly:
    """f(A x): the i-th variable becomes sum_j A[i][j] * x_j."""
    ring, n = f.ring, f.n_vars
    images = [sum((MultiPoly.var(ring, n, j).scale(a) for j, a in enumerate(row)),
                  MultiPoly.const(ring, n, 0)) for row in A]
    one = MultiPoly.const(ring, n, 1)
    out = MultiPoly.const(ring, n, 0)
    for e, c in f.terms.items():
        out = out + math.prod((images[i] ** k for i, k in enumerate(e)), start=one).scale(c)
    return out


@st.composite
def _inputs(draw):
    field = gf_create(2, draw(st.integers(1, 3)))
    names, text, split = draw(st.sampled_from(SHAPES))
    bit = draw(st.integers(0, 1))
    a = draw(st.sampled_from([e for e in field.elements() if trace_bit(e) == bit]))
    c = draw(st.sampled_from([e for e in field.elements() if not e.is_zero()]))
    f = parse_poly(text, field, names.split(","), constants={"a": a, "c": c})
    n = f.n_vars
    A = [[field.decode(draw(st.integers(0, field.q - 1))) for _ in range(n)] for _ in range(n)]
    assume(not det_expand(A).is_zero())
    return f, A, split


@settings(max_examples=150)
@given(_inputs())
def test_a_char2_coordinate_change_keeps_mu_and_the_arf_class(case):
    f, A, split = case
    fa = _compose(f, A)
    assert (milnor_algebra(witt_lift(f)).blocks is not None) == split
    assert milnor_algebra(fa).mu == milnor_algebra(f).mu
    assert arf_invariant(fa) == arf_invariant(f)
