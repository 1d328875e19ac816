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

from resform import milnor
from resform.epsilon import verify_identity
from resform.errors import NotIsolated
from resform.gfield import gf_create, trace_bit
from resform.linalg import coded, det_expand, det_ring
from resform.milnor import MilnorAlgebra, milnor_algebra
from resform.mpoly import MultiPoly, parse_poly, partials
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
# characteristic; the Morse shape is presented by its Hessian, and every mu
# is at most 6, small enough to solve G
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


def _degree_1_reference(f: MultiPoly):
    """The presentation that the elimination at degree 1 certifies, with
    1/det C read off its pivot inverses, or None when it certifies nothing.

    The relation matrix is the partials' on columns x_{n-1}, ..., x_0, 1,
    so its pivot block is the Hessian with its n columns reversed, a
    permutation of sign (-1)^(n(n-1)/2)."""
    n = f.n_vars
    cols, red, pivots, _, inverses = milnor._eliminate(partials(f), f.ring, n, 1)
    presented = milnor._certified(cols, red, pivots, 1)
    if presented is None:
        return None
    inv_det = coded(f.ring).product(inverses)
    return MilnorAlgebra(f.ring, n, 1, *presented), -inv_det if n * (n - 1) // 2 % 2 else inv_det


@st.composite
def _morse_inputs(draw):
    """A quadratic form over F_q, n <= 4, with a constant term and terms of
    degree 3 drawn too; in characteristic 2 with its Witt lift, perturbed
    by twice a polynomial without a linear term."""
    p, m = draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2),
                                 (2, 1), (2, 2), (2, 3)]))
    field = gf_create(p, m)
    n = draw(st.integers(1, 4))

    def element():
        return field.decode(draw(st.integers(0, field.q - 1)))

    def exponent(*vs):
        return tuple(sum(v == i for v in vs) for i in range(n))

    def poly():
        terms = {exponent(): element()}
        for i in range(n):
            for j in range(i, n):
                terms[exponent(i, j)] = element()
        for _ in range(draw(st.integers(0, 2))):
            cubic = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3))
            terms[exponent(*cubic)] = element()
        return MultiPoly(field, n, terms)

    f = poly()
    if p != 2:
        return [f]
    lift = witt_lift(f)
    return [f, lift, lift + poly().map_coeffs(lift.ring, lift.ring).scale(2)]


@settings(max_examples=150)
@given(_morse_inputs())
def test_a_morse_point_read_off_its_hessian_is_the_degree_1_elimination(inputs):
    """A field input whose partials all have order 1, and the Witt lifts of
    such a Morse point, which have no linear term, get the algebra and the
    1/det C that the certifying elimination at degree 1 gave; a Hessian
    that certifies nothing is one that elimination does not certify
    either."""
    f = inputs[0]
    try:
        if milnor._orders(f) != [1] * f.n_vars:
            return
    except NotIsolated:
        return
    if _degree_1_reference(f) is None:
        assert milnor._morse(f) is None, f
        return
    for h in inputs:
        ref_alg, ref_inv_det = _degree_1_reference(h)
        alg = milnor_algebra(h)
        assert (alg.D, alg.mu) == (1, 1)
        assert (alg.basis, alg.monomials) == (ref_alg.basis, ref_alg.monomials)
        assert (alg.normal_forms == ref_alg.normal_forms).all()
        assert alg.inv_bezoutian_det == ref_inv_det, h
