"""A linear change of coordinates leaves the invariants of a singularity alone.

f -> f o A for A in GL_n(F_q) keeps mu, the discriminant class of the
residue form, the geometric epsilon and the Arf class, and it turns a
separable input, whose algebra (or Witt lift's) is split into blocks, into
one that mostly is not, so the blockwise route and the whole elimination
must agree.  Every input here has at most 3 variables and a residue-field
D0 of at most 3, so each whole elimination stays small.

A sum of blocks in at most 3 variables over F_{2^m} has Arf class 0: a
one-variable block has even mu, so the Kronecker law raises a two-variable
block's det G to an even power.  The Morse shape x^2+x*y+a*y^2, whose class
is Tr(a), supplies class 1.
"""

import math

from hypothesis import assume, given, settings, strategies as st

from resform.epsilon import verify_identity
from resform.gfield import gf_create, trace_bit
from resform.linalg import det_expand, det_ring
from resform.milnor import milnor_algebra
from resform.mpoly import MultiPoly, parse_poly
from resform.residue import arf_invariant, disc_square_class, gram_matrix, witt_lift

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


# (variables, polynomial, whether its algebra is split into blocks) in odd
# characteristic; the Morse shape is presented by the scan, and every mu is
# at most 6, small enough to solve G
ODD_SHAPES = [
    ("x,y", "a*x^3+c*y^4", True),
    ("x,y,z", "a*x^2+c*y^3+z^4", True),
    ("x,y,z", "a*x^3+c*y^3+z^2", True),
    ("x,y", "a*x^5+c*y^2", True),
    ("x,y", "a*x^2+c*y^2", False),
]
# the det C an algebra keeps is set by the first read and reused by the
# second, at another scale or through another consumer
READS = {
    "verify": lambda f: verify_identity(f)["geometric"],
    "disc": lambda f: disc_square_class(gram_matrix(f, 1)).sign,
    "gram": lambda f: disc_square_class(gram_matrix(f, 3)).sign,
}
ORDERS = [("verify", "disc"), ("disc", "gram"), ("gram", "verify")]


@st.composite
def _odd_inputs(draw):
    field = gf_create(draw(st.sampled_from([5, 7, 11, 13])), 1)
    names, text, split = draw(st.sampled_from(ODD_SHAPES))
    a, c = (field(draw(st.integers(1, field.p - 1))) for _ in range(2))
    f = parse_poly(text, field, names.split(","), constants={"a": a, "c": c})
    # a degree the characteristic divides has a vanishing partial
    assume(all(k % field.p for e in f.terms for k in e if k))
    n = f.n_vars
    A = [[field(draw(st.integers(0, field.p - 1))) for _ in range(n)] for _ in range(n)]
    assume(not det_expand(A).is_zero())
    return f, A, split, draw(st.sampled_from(ORDERS))


@settings(max_examples=60)
@given(_odd_inputs())
def test_an_odd_coordinate_change_keeps_mu_and_the_discriminant(case):
    f, A, split, order = case
    fa = _compose(f, A)
    assert (milnor_algebra(f).blocks is not None) == split
    assert milnor_algebra(fa).mu == milnor_algebra(f).mu
    for read in order:
        assert READS[read](fa) == READS[read](f), read
    G = gram_matrix(f, 1)
    assert det_ring(f.ring, G.matrix) == G.det
