"""Milnor algebras of isolated singularities.

The local algebra R[[x]]/(Jacobian ideal) is presented by elimination on
monomials below a truncation degree D.  Over a field D is the smallest D0
with m^{D0} contained in the Jacobian ideal.  Over the length-3 Witt ring,
with D0 that of the residue field, one elimination at D0 is tried first:
graded Nakayama holds there too, as the variables lie in the maximal ideal
(2, x), so the field scan's certificate on it proves m^{D0} inside J and
D = D0.  When it fails, the same elimination proves D = 3*D0 - 2k
(_lift_degree), and one elimination at D - 1 presents the algebra.

The bound.  Write (x)^N for the ideal of the degree-N monomials in
R[[x]], R = W_3.  Mod 2 the elimination at D0 performs the residue field's
pivot steps on the residue field's rows: the rows W_3 adds, shifts of a
partial whose lowest degree drops below its reduction's, are 0 mod 2, and
stay so.  The field certifies D0, so the degree-D0 columns are unit pivots,
and the rest of their rows is even.  Let k be the least degree of a column
outside that block holding a nonzero entry in those rows, and s = D0 - k.
Each row is a degree-D0 monomial plus twice terms of degree k..D0-1, and
lies in J + (x)^(D0+1), so

    (x)^D0 lies in J + 2(x)^k + (x)^(D0+1).

Multiplied by (x)^(N-D0), for N >= D0, this reads: (x)^N lies in
J + 2(x)^(N-s) + (x)^(N+1).  Put into its own last term again and again, it
gives (x)^N inside J + 2(x)^(N-s) + (x)^M for every M, and Krull's
intersection theorem in the Noetherian local ring R[[x]] leaves (x)^N inside
J + 2(x)^(N-s).  Applied once more to (x)^(N-s), when N - s >= D0, it puts
(x)^N inside J + 4(x)^(N-2s); and the field certificate, (x)^D0 inside
J + 2R[[x]], puts it inside J + 8R[[x]] = J once N - 2s >= D0.  So
D = D0 + 2s = 3*D0 - 2k, with D0 + 2 <= D <= 3*D0 when D0 fails.  k = 0 is
the bound 3*D0 that (J + (2))^3 inside J + (8) = J gives without reading
the rows, and _lift_degree takes it should the top block not be unit
pivots or a tail digit be odd, which the field's certificate rules out.
The fallback's stuck column and the basis check still decide NotFlat.

The search for D0 starts at a proven lower bound.  The orders k_i of the
partials are read off f's exponents (_orders), so an input that does not
need its own scan never builds its partials.  When the initial forms of the
partials span every monomial of degree s = 1 + sum(k_i - 1), they are a
regular sequence, J's initial ideal is theirs and D0 = s (Valla; Fulton,
Intersection Theory, Cor. 12.4), so the scan starts there; otherwise, or
when s is at most min k_i + 1, it starts at min k_i, since J lies in
m^{min k_i}.  A cone whose partials are homogeneous and fail that test is
not isolated, and is rejected without a scan.  So is an input whose scan
fails at every degree up to the Bezout bound on mu.  A scan that reaches
the cap DEGREE_CAP first has proved nothing, and raises ResourceLimit, not
NotIsolated.

The relation matrix stays in the elimination kernel's digit form from build
to normal forms: it is written as a (rows, cols, m) integer array, reduced
there and certified there, and the normal forms are kept as the reduced
digit matrix N over the monomials below D (NormalForms): a pivot column's
row holds its pivot row's negated entries on the free columns, a basis
monomial's row is its unit vector.  N is built on its first read; the
residue engine reads it as digits, and a monomial's normal form becomes
ring elements only when nf_monomial reads it.

A Thom-Sebastiani sum f = f_1 + ... + f_k, k >= 2, of polynomials in
pairwise disjoint sets of variables (a constant term belongs to none) has
J(f) = J(f_1) + ... + J(f_k), so its algebra is the tensor product of
theirs (Sebastiani-Thom, Un resultat sur la monodromie, Invent. Math.
1971), composed from the blocks' algebras without eliminating f's own
relation matrix.  Every algebra is kept on its polynomial (MultiPoly's
_algebra), but only eliminations are cached: a product lives on f alone,
so it never pushes the blocks it is built from out of the cache, and the
cache's bound counts eliminations.  The split is kept on f too
(mpoly.variable_blocks), so every consumer of one polynomial shares one
split and one product: a verify of a split sum whose blocks are cached
splits f once and composes one product, and a second verify of the same f
does neither.  Composing is cheap, as the product's standard monomials are
the products of the blocks': each such product is standard, and there are
mu = prod mu_i of them.  They are enumerated and sorted only on the first
read of the basis, its index or a normal form, once per composed algebra,
as mu, D and the Gram determinant need none of them.  A monomial's normal
form is the product of its block parts' forms, so the product's N is the
Kronecker product of the blocks' N in the kernel's digits, built on the
first read of a normal form or of the Bezoutian (_product_forms).  The
truncation degree is D = sum D_i - (k - 1): every monomial of that degree
has some block part of degree at least D_i, which lies in J_i, so m^D lies
in J.  Over a field D is also the least D0, as some monomial of
degree D_i - 1 survives in each block and the product of their normal forms
is nonzero, as a tensor product of nonzero vectors over a field is.  Morse
and smooth points are not split: their scan is already one small
elimination, at D = 1, and a Morse point's also gives its Bezoutian
determinant, read off its pivot inverses (_morse_inv_bezoutian_det), so the
residue engine builds no Bezoutian for it unless the Gram matrix itself is
read.  A W_3 lift certified at degree 1 gets it the same way.  Over a
field a block that raises NotIsolated or ResourceLimit ends f with its
error: a block that is not isolated makes the tensor product infinite, and
f's own scan would have to pass the block's degree in more variables.  So
does a product whose D passes the cap, as D is then f's least D0.

The Witt lift of a separable characteristic-2 input splits the same way,
once its reduction's algebra is a product: it is then the tensor product
over W_3 of its own blocks' algebras.  Each block's algebra is free with a
monomial basis, or raises NotFlat, so the products of the blocks' basis
monomials are a basis and normal forms multiply; a product whose
coefficients vanish mod 8 is a zero normal form, not a failure.  The same
argument shows that D = sum D_i - (k - 1) is a certified truncation degree
over W_3: m^{D_i} lies in J_i for each block, so m^D lies in J.  It need
not be least, as a W_3 D never was, and it may exceed the cap, which the
whole lift's 3*D0 - 2k is not held to either.  A lift whose blocks are not
those of a split reduction (a lift perturbation may couple variables), or
one with a block that raises, is eliminated whole, so its errors and
their messages are its own.

A W_3 algebra is checked against its reduction once, where a lift is
eliminated whole: standard monomials that differ from the residue field's
raise NotFlat, as the lift's algebra then does not lift the reduction's on
the same monomial basis.  A split lift needs no check of its own.
Every term of the reduction is a term of the lift, so each of the lift's
blocks is a union of the reduction's blocks; the standard monomials of a
disjoint sum are the products of the blocks', so once every block of the
lift has the basis of its own reduction, the lift has its reduction's.

A W_3 lift that is eliminated whole and fails the D0 certificate pays a
second elimination at 3*D0 - 2k - 1.  A scan upward from D0 + 1 to the
least certified degree would cost more.  On the a7 lifts of the char2-witt
benchmark (the first 60 pool entries per slot, each with both lift
perturbations, the algebra cache cleared per entry), 266 W_3 eliminations
fail at D0; the scan would eliminate 10388 columns in total on them, the
fallback 3828 (5547 at 3*D0 - 1), and its D is the least certified degree
for 164 of them.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import (DegenerateFiber, NotFlat, NotIsolated, OddProduct, ResformError,
                     ResourceLimit)
from .linalg import coded
from .mpoly import MultiPoly, partials, variable_blocks
from . import unipoly

DEGREE_CAP = 24
# digits one relation matrix, or a product's normal-form matrix, may hold,
# 128 MiB as int32; the largest matrix of the test suite and the corpus
# holds 6.4M
MAX_RELATION_CELLS = 2 ** 25


def mono_key(e):
    """Graded order key; within a degree the first variable weighs least."""
    return (sum(e), tuple(reversed(e)))


def monomials_upto(n_vars: int, max_deg: int):
    """All exponent tuples with total degree <= max_deg."""

    def gen(k, budget):
        if k == 0:
            yield ()
            return
        for head in range(budget + 1):
            for rest in gen(k - 1, budget - head):
                yield (head,) + rest

    return list(gen(n_vars, max_deg))


# Most recently used last.  The bound counts monomials, not entries, so the
# memo stays this small however high a scan in many variables goes; a range
# larger than the bound is not kept.
_MONOMIALS: dict = {}
_MONOMIALS_MAX = 1024


def _monomials(n_vars: int, upto: int, lo: int):
    """The monomials of degree lo..upto in monomials_upto's order, the same
    sorted from the highest degree down, and their index in that order.

    Shift lists keep the first order, so the relation rows, and over W_3
    what a non-free elimination leaves over, are those of a fresh
    enumeration; columns take the second.
    """
    key = (n_vars, upto, max(lo, 0))
    hit = _MONOMIALS.pop(key, None)
    if hit is None:
        monos = [e for e in monomials_upto(n_vars, upto) if sum(e) >= lo]
        cols = sorted(monos, key=mono_key, reverse=True)
        hit = monos, cols, {e: j for j, e in enumerate(cols)}
    if len(hit[0]) <= _MONOMIALS_MAX:
        _MONOMIALS[key] = hit
    held = sum(len(monos) for monos, _, _ in _MONOMIALS.values())
    while held > _MONOMIALS_MAX:
        held -= len(_MONOMIALS.pop(next(iter(_MONOMIALS)))[0])
    return hit


def _eliminate(grads, ring, n_vars: int, upto: int, lo: int = 0):
    """Reduced relation matrix on the monomials of degree lo..upto.

    Each row is x^alpha * g for a partial g of order k and
    lo - k <= |alpha| <= upto - k, so its terms start in degree lo or above;
    it is truncated above upto, where its lowest term always survives, and
    written as digits straight into the kernel's array.  With lo = upto the
    rows are the degree-upto multiples of the partials' initial forms.
    Columns run from the highest degree down; returns (columns, reduced
    digit array, pivot columns, stuck column or None, pivot inverses), the
    last three as CodedOps.rref gives them.  A matrix of more than
    MAX_RELATION_CELLS digits raises ResourceLimit before it is allocated.
    """
    _, cols, col_index = _monomials(n_vars, upto, lo)
    shifts = [(g, _monomials(n_vars, upto - g.low_degree(), lo - g.low_degree())[0])
              for g in grads]
    shape = (sum(len(alphas) for _, alphas in shifts), len(cols), ring.m)
    if math.prod(shape) > MAX_RELATION_CELLS:
        raise ResourceLimit(
            f"the relation matrix in degree {upto} would hold {' x '.join(map(str, shape))} "
            f"digits, more than MAX_RELATION_CELLS = {MAX_RELATION_CELLS}"
        )
    A = np.zeros(shape, dtype=np.int32)
    r = 0
    for g, alphas in shifts:
        for alpha in alphas:
            for e, c in g.terms.items():
                shifted = tuple(a + b for a, b in zip(e, alpha))
                if sum(shifted) <= upto:
                    A[r, col_index[shifted]] = c.coeffs
            r += 1
    A, pivots, stuck, _, inverses = coded(ring).rref(A)
    return cols, A, pivots, stuck, inverses


def _certified(cols, red, pivots, d):
    """The presentation below degree d that an elimination at d certifies.

    The certificate holds when every degree-d column is a pivot whose row
    is that monomial alone: every degree-d monomial then lies in
    J + m^{d+1}, so m^d lies in J by graded Nakayama, and the remaining rows
    restricted to degree < d are the reduced echelon form of the relations
    there.  Returns (columns, reduced digit rows, pivots) below d, or None.
    """
    top = sum(1 for e in cols if sum(e) == d)
    if pivots[:top] != list(range(top)) or red[:top, top:].any():
        return None
    return cols[top:], red[top:, top:], [c - top for c in pivots[top:]]


def _lift_degree(cols, red, pivots, d0: int) -> int:
    """The truncation degree 3*d0 - 2k that a W_3 lift's elimination at its
    reduction's D0 = d0 proves when it does not certify d0.

    Mod 2 this elimination is the reduction's, which certifies d0, so the
    degree-d0 columns are unit pivots and the rest of their rows is even;
    k is the least degree of a column holding a nonzero entry there (module
    docstring).  Should the pivots or the parity say otherwise, k = 0, as
    3*d0 always holds.
    """
    top = sum(1 for e in cols if sum(e) == d0)
    tail = red[:top, top:]
    if pivots[:top] != list(range(top)) or (tail & 1).any():
        return 3 * d0
    # the certificate failed, so the tail holds a nonzero entry; columns run
    # from the highest degree down, so the last such column has the least
    last = tail.any(axis=(0, 2)).nonzero()[0][-1]
    return 3 * d0 - 2 * sum(cols[top + last])


def _orders(f: MultiPoly):
    """The orders of f's partials over a field, read off f's exponents.

    d/dx_i sends distinct terms to distinct terms and kills exactly those
    whose i-th exponent the characteristic p divides, so
    ord d_i f = min{|e| : e a term of f, p does not divide e_i} - 1.
    Refuses a constant f and a partial that vanishes identically, where no
    degree can certify.
    """
    if f.total_degree() < 1:
        raise NotIsolated("constant polynomial has no isolated singularity")
    p = f.ring.p
    lows = [None] * f.n_vars
    for e in f.terms:
        d = sum(e)
        for i, k in enumerate(e):
            if k % p and (lows[i] is None or d < lows[i]):
                lows[i] = d
    if None in lows:
        raise NotIsolated(
            "a partial derivative vanishes identically, so the Jacobian ideal "
            "has fewer generators than variables"
        )
    return [d - 1 for d in lows]


def _scan(f: MultiPoly, orders, cap: int):
    """Smallest D0 with every degree-D0 monomial in J + m^{D0+1}, over a field.

    By graded Nakayama this certifies m^{D0} inside the Jacobian ideal of
    the complete local ring at the origin.  The certifying elimination also
    presents the algebra (_certified).  Returns D0, the (columns, reduced
    digit rows, pivots) of that presentation, and the certifying
    elimination's pivot inverses.

    The search starts at a lower bound.  Let k_i be the order of the i-th
    partial and s = 1 + sum(k_i - 1).  When every k_i >= 1 and
    s >= min k_i + 2, one elimination in degree s alone tests whether the
    initial forms of the partials reach every degree-s monomial.  If they
    do, they cut out only the origin, so they are a regular sequence and
    generate the initial ideal of J (Valla; equivalently mu = prod k_i,
    Fulton, Intersection Theory, Cor. 12.4).  The quotient then has the Hilbert
    function of a complete intersection, nonzero in degree s - 1 and zero
    in degree s, so m^{s-1} is not in J and m^s is: D0 = s, and the scan
    starts there.  Otherwise it starts at max(1, min k_i), which is a lower
    bound because J lies in m^{min k_i}.  The certificate is still checked
    at the start, so a wrong start could only skip a smaller D0, never
    certify a wrong one.  A constant partial (k_i = 0, a smooth point)
    makes J the unit ideal; s means nothing there and the scan starts at 1.
    At s = min k_i + 1 the test would at best replace the one elimination
    at min k_i, and it has more pivots than that one, so it is skipped.

    If the test fails and every partial is homogeneous, J is its own
    initial ideal and misses a degree-s monomial, so it is not m-primary:
    f is not isolated, every degree would fail, and the scan is skipped.

    The search stops at the product of the partials' degrees: for an
    isolated singularity D0 <= mu, and mu is at most that product by the
    refined Bezout theorem.  Failing every degree up to it proves f is not
    isolated, as the cone test does, and both raise NotIsolated.  A scan
    that stops at the cap first has proved nothing, and raises
    ResourceLimit.
    """
    grads = partials(f)
    bezout = 1
    for g in grads:
        bezout *= max(g.total_degree(), 1)
    start = max(1, min(orders))
    s = 1 + sum(k - 1 for k in orders)
    cone = False  # a cone that is not isolated: no degree certifies
    if min(orders) >= 1 and s > start + 1:
        cols, _, pivots, _, _ = _eliminate(grads, f.ring, f.n_vars, s, lo=s)
        if len(pivots) == len(cols):
            start = s
        else:
            cone = all(g.total_degree() == k for g, k in zip(grads, orders))
    if not cone:
        for d0 in range(start, min(cap, bezout) + 1):
            cols, red, pivots, _, inverses = _eliminate(grads, f.ring, f.n_vars, d0)
            certified = _certified(cols, red, pivots, d0)
            if certified is not None:
                return d0, certified, inverses
            del red  # not held while the next degree's matrix is built
    if bezout < cap:
        raise NotIsolated(
            f"Jacobian ideal is not monomial-cofinite below degree {bezout}, "
            "the Bezout bound on the Milnor number"
        )
    if cone or bezout == cap:
        raise NotIsolated(f"Jacobian ideal is not monomial-cofinite below degree {cap}")
    raise ResourceLimit(
        f"no degree up to DEGREE_CAP = {cap} certifies the Jacobian ideal, "
        f"and its Bezout bound {bezout} lies above the cap"
    )


def _morse_inv_bezoutian_det(ring, n_vars: int, inverses):
    """1/det C for a Morse point, from the pivot inverses of the elimination
    that certified D = 1 and mu = 1.

    Let L_ij be the x_j-coefficient of d_i f, the Hessian at the origin.
    Over a field, D = 1 and mu = 1 make every partial of order 1: one of
    higher order adds no row in degree 1, so the n degree-1 columns could
    not all be pivots, and one with a constant term makes the unit monomial
    a pivot too.  Over W_3 the reduction's partials are of order 1, and a partial
    may have a constant term c, a multiple of 2; its shifted rows hold no
    unit and are never pivots, and c leaves L^-1 c in the unit column of the
    pivot rows, where the certificate needs 0.  So in both cases the
    certifying matrix is the n x (n+1) matrix of rows d_0 f, ..., d_{n-1} f
    on columns x_{n-1}, ..., x_0, 1, its first n columns are the pivots, and
    the product of the pivot values is the determinant of that n x n block:
    L with its columns reversed.  Reversing n columns is a permutation with
    n(n-1)/2 inversions, so the product is (-1)^(n(n-1)/2) * det L, and the
    product of the pivot inverses is (-1)^(n(n-1)/2) / det L.  The
    Bezoutian matrix C is 1 x 1: every monomial of degree >= 1 has normal
    form 0, so C holds the constant term of the divided-difference
    determinant, det L.  C is symmetric, and det L is a unit as every pivot
    is, so the checks residue._inv_bezoutian_det makes hold.
    """
    inv_det = coded(ring).product(inverses)
    return -inv_det if n_vars * (n_vars - 1) // 2 % 2 else inv_det


class MilnorAlgebra:
    """Finite free presentation of R[x]/J on standard monomials.

    `blocks` holds the (variables, block, block algebra) triples of f's
    variable-disjoint summands when the algebra was built as the tensor
    product of theirs, and is None otherwise.  Such a product knows mu and
    D from its blocks; its `basis`, `basis_index` and `forms` are built on
    the first read of any of them or of `nf_monomial`.  `forms` holds the
    normal forms as the digit matrix N (NormalForms), which the residue
    engine reads as it is.
    `inv_bezoutian_det` is 1/det C for f's Bezoutian matrix C, the Gram
    determinant of the residue form for dt.  On a Morse point's algebra,
    D = 1 and mu = 1 over a field or over W_3, milnor_algebra sets it from
    the certifying elimination's pivot inverses; on any other eliminated
    algebra residue.gram_matrix sets it, from the pivot inverses of one
    elimination of C, once C is checked symmetric and invertible, so every
    consumer of f shares that elimination.  A product keeps none: its
    1/det C is read off its blocks' algebras.
    """

    __slots__ = ("ring", "n_vars", "D", "mu", "blocks", "inv_bezoutian_det",
                 "basis", "basis_index", "forms")

    def __init__(self, ring, n_vars, D, mu, blocks=None):
        self.ring = ring
        self.n_vars = n_vars
        self.D = D
        self.mu = mu
        self.blocks = blocks
        self.inv_bezoutian_det = None

    def _present(self, basis, forms):
        self.basis = basis
        self.basis_index = {e: i for i, e in enumerate(basis)}
        self.forms = forms

    def __getattr__(self, name):
        # reached only when a slot is unset: a product's presentation before
        # its first read
        if name not in ("basis", "basis_index", "forms") or self.blocks is None:
            raise AttributeError(name)
        self._present(*_product_presentation(self.blocks, self.n_vars))
        return getattr(self, name)

    def nf_monomial(self, exps) -> dict:
        """Sparse coefficient vector of a monomial over the basis."""
        e = tuple(exps)
        if sum(e) >= self.D:
            return {}
        return self.forms[e]

    def to_json(self) -> dict:
        return {"mu": self.mu, "basis": [list(e) for e in self.basis],
                "D": self.D}

    def __repr__(self):
        return f"MilnorAlgebra(mu={self.mu}, D={self.D}, over {self.ring!r})"


class NormalForms(dict):
    """Normal forms over the basis, kept as the digit matrix N.

    Row rows[e] of `digits` (shape (len(monomials), mu, m)) holds the
    digits of the normal form of the monomial e = monomials[row]; a
    monomial below D that has no row has normal form 0.  `build`, a
    function of no arguments, makes N on the first read of `digits`, so an
    algebra whose forms are never read (a Witt lift's reduction, a Morse
    point) makes none.  As a dict, a monomial's sparse form
    {basis index: element} is decoded from its row on first request and
    kept.
    """

    def __init__(self, ring, monomials, build):
        super().__init__()
        self.ring = ring
        self.monomials = monomials
        self._build = build

    @functools.cached_property
    def digits(self):
        digits, self._build = self._build(), None
        return digits

    @functools.cached_property
    def rows(self):
        return {e: r for r, e in enumerate(self.monomials)}

    def __missing__(self, e):
        r = self.rows.get(e)
        value = {}
        if r is not None:
            row, ring = self.digits[r], self.ring
            elem = type(ring.one)
            value = {int(i): elem(ring, row[i].tolist()) for i in np.flatnonzero(row.any(axis=1))}
        self[e] = value
        return value


def _presentation(ring, cols, red, pivots):
    """Basis and normal forms read off a reduced relation matrix.

    Every monomial below D is a column.  A pivot column's row of N holds
    the negated entries of its pivot row on the free columns, as the row
    reads e = -sum(row[j] * cols[j]); a free column's row is the unit vector
    of its basis monomial.  Columns run from the highest mono_key down, so
    the free ones, reversed, are the sorted basis.  Only the pivot rows'
    free entries are kept from red until N is built.
    """
    pivot_set = set(pivots)
    free = [j for j in range(len(cols)) if j not in pivot_set][::-1]
    neg = -red[:len(pivots)][:, free] % ring.b

    def build():
        N = np.zeros((len(cols), len(free), ring.m), dtype=np.int32)
        N[free, np.arange(len(free)), 0] = 1
        N[pivots] = neg
        return N

    return [cols[j] for j in free], NormalForms(ring, cols, build)


def _product(f: MultiPoly, cap: int):
    """f's algebra as the tensor product of its blocks' algebras.

    Returns (D, mu, blocks), blocks the (variables, block, block algebra)
    triples, or None when f is a single block or a block raises another
    error; the caller then presents f whole, so those errors and their
    messages are its own.  Over a field a block's NotIsolated or
    ResourceLimit ends f: a block that is not isolated makes the tensor
    product infinite, and f's own scan would need a degree at least the
    block's.  A block's OddProduct says nothing of f's parity, and a W_3
    lift is eliminated whole on any block error.  Every variable lies in
    some block, as no partial of f vanishes.
    """
    split = variable_blocks(f)
    if len(split) < 2:
        return None
    field = f.ring.b == f.ring.residue
    try:
        blocks = [(vs, block, milnor_algebra(block, cap)) for vs, block in split]
    except (NotIsolated, ResourceLimit):
        if field:
            raise
        return None
    except ResformError:
        return None
    D = sum(alg.D for _, _, alg in blocks) - len(blocks) + 1
    if D > cap and field:
        # D is f's least D0, so f's own scan stops at the cap too; a W_3
        # lift's whole elimination is never held to the cap
        raise ResourceLimit(
            f"the product of the blocks' algebras has truncation degree {D}, "
            f"above DEGREE_CAP = {cap}"
        )
    return D, math.prod(alg.mu for _, _, alg in blocks), blocks


def _joined(blocks, n_vars: int, parts):
    """The monomial in n_vars variables whose block parts are parts."""
    e = [0] * n_vars
    for (vs, _, _), part in zip(blocks, parts):
        for v, k in zip(vs, part):
            e[v] = k
    return tuple(e)


def _product_presentation(blocks, n_vars: int):
    """Sorted basis and normal forms of a tensor product of algebras.

    The products of the blocks' basis monomials are enumerated in the
    order of their block basis indices, the order of the Kronecker
    product's columns, and sorted with their position there.
    """
    monos = sorted(((_joined(blocks, n_vars, parts), j) for j, parts in
                    enumerate(itertools.product(*(alg.basis for _, _, alg in blocks)))),
                   key=lambda t: mono_key(t[0]))
    return [e for e, _ in monos], _product_forms(blocks, n_vars, [j for _, j in monos])


def _product_forms(blocks, n_vars: int, order):
    """Normal forms of a tensor product: N is the Kronecker product of the
    blocks' N, as a monomial's form is the product of its block parts'.

    Its rows are the products of the blocks' monomials with a row, and
    every other monomial below D has some block part of degree at least
    D_i, so form 0.  Column order[j] of the Kronecker product is basis
    monomial j.  Over W_3 a product of nonzero coefficients can vanish; its
    digits are then zero.  An N of more than MAX_RELATION_CELLS digits
    raises ResourceLimit before it is built, on every read.
    """
    ring = blocks[0][2].ring

    def build():
        ops, m = coded(ring), ring.m
        shape = (len(monomials), len(order), m)
        if math.prod(shape) > MAX_RELATION_CELLS:
            raise ResourceLimit(
                f"the normal forms of the product would hold {' x '.join(map(str, shape))} "
                f"digits, more than MAX_RELATION_CELLS = {MAX_RELATION_CELLS}"
            )
        N = np.array([[ring.one.coeffs]], dtype=np.int32)
        for _, _, alg in blocks:
            B = alg.forms.digits
            (r, c), (rb, cb) = N.shape[:2], B.shape[:2]
            N = ops.matmul(N.reshape(r * c, 1, m), B.reshape(1, rb * cb, m))
            N = N.reshape(r, c, rb, cb, m).transpose(0, 2, 1, 3, 4).reshape(r * rb, c * cb, m)
        return np.ascontiguousarray(N[:, order])

    monomials = [_joined(blocks, n_vars, parts) for parts in
                 itertools.product(*(alg.forms.monomials for _, _, alg in blocks))]
    return NormalForms(ring, monomials, build)


# Most recently used last.  Only algebras that an elimination built are
# kept: a field scan's and a whole W_3 lift's.  A product is kept on its
# polynomial alone, so the bound counts eliminations and the inverse
# Bezoutian determinants stored on them; it is a bound rather than a clear
# so that a call costs the same however many polynomials came before it.
_ALGEBRAS: dict = {}
_ALGEBRAS_MAX = 256


def milnor_algebra(f: MultiPoly, cap: int = DEGREE_CAP) -> MilnorAlgebra:
    """Quotient by the Jacobian ideal, presented below the truncation degree.

    One elimination per polynomial and cap, shared by every consumer.  The
    algebra is kept on f with its cap, so every later read of f at that cap
    returns it at once; an equal polynomial shares an eliminated algebra
    through the cache.  A sum of blocks in disjoint variables gets the
    tensor product of the blocks' algebras, composed from theirs and kept
    on f alone: over a field except at a Morse or a smooth point, where the
    scan is already one small elimination, and over W_3 when the residue
    field's algebra is such a product.  A W_3 lift eliminated whole has the
    truncation degree D of the residue field's D0 when one elimination at
    D0 certifies it, and the 3*D0 - 2k that elimination proves otherwise,
    and raises NotFlat unless its basis is the residue field's; a split lift
    has that check from its blocks.  A W_3 lift that misses the cache reads
    its reduction's algebra first, at the same cap.  NotIsolated means a
    proof that f is not isolated; a truncation degree past the cap,
    unproved, raises ResourceLimit.  No error is kept: each read raises it
    anew.
    """
    held = f._algebra
    if held is not None and held[0] == cap:
        return held[1]
    ring = f.ring
    n = f.n_vars
    key = (ring, n, frozenset(f.terms.items()), cap)
    alg = _ALGEBRAS.pop(key, None)
    if alg is not None:
        _ALGEBRAS[key] = alg
        f._algebra = cap, alg
        return alg
    field = ring.b == ring.residue  # over W_3 the scan runs mod 2
    if field:
        orders = _orders(f)
        split = min(orders) >= 1 and max(orders) >= 2  # neither smooth nor Morse
    else:
        reduced = milnor_algebra(f.map_coeffs(lambda c: c.reduce(), ring.field), cap=cap)
        split = reduced.blocks is not None
    product = _product(f, cap) if split else None
    if product is not None:
        alg = MilnorAlgebra(ring, n, *product)
    else:
        if field:
            D, presented, inverses = _scan(f, orders, cap)
        else:
            # the residue field's D0 certifies most lifts; the rest take the
            # degree their elimination at D0 proves
            D = reduced.D
            grads = partials(f)
            cols, red, pivots, stuck, inverses = _eliminate(grads, ring, n, D)
            presented = _certified(cols, red, pivots, D)
            if presented is None:
                D = _lift_degree(cols, red, pivots, D)
                del red  # not held while the fallback's matrix is built
                cols, red, pivots, stuck, inverses = _eliminate(grads, ring, n, D - 1)
                presented = cols, red, pivots
            if stuck is not None:
                raise NotFlat(
                    f"monomial {cols[stuck]} carries a non-unit relation; quotient is not free"
                )
        basis, forms = _presentation(ring, *presented)
        if not field and basis != reduced.basis:
            raise NotFlat("Witt-lift basis does not match its mod-2 reduction")
        alg = MilnorAlgebra(ring, n, D, len(basis))
        alg._present(basis, forms)
        if D == 1 and alg.mu == 1:
            alg.inv_bezoutian_det = _morse_inv_bezoutian_det(ring, n, inverses)
    if ring.residue == 2 and n % 2 == 1 and alg.mu % 2 == 1:
        raise OddProduct(
            f"parity violated: odd mu={alg.mu} with odd n_vars={n} in characteristic 2"
        )
    if product is None:
        if len(_ALGEBRAS) >= _ALGEBRAS_MAX:
            del _ALGEBRAS[next(iter(_ALGEBRAS))]
        _ALGEBRAS[key] = alg
    f._algebra = cap, alg
    return alg


def _render_uni(field, cs) -> str:
    poly = MultiPoly(field, 1, {(i,): c for i, c in enumerate(cs)})
    return poly.render(["x"])


def family_milnor_profile(f_family: MultiPoly, field, values):
    """Critical-point multiplicities of a one-parameter univariate family.

    f_family lives in two variables: the fiber variable first, the
    parameter second.  For each parameter value the derivative is factored
    and every root contributes its multiplicity as a local Milnor number.
    """
    if f_family.n_vars != 2:
        raise ValueError("family must have one fiber variable and one parameter")
    out = []
    for v in values:
        vv = field(v)
        dense_len = f_family.total_degree() + 1
        dense = [field.zero] * dense_len
        for e, c in f_family.terms.items():
            dense[e[0]] = dense[e[0]] + c * vv ** e[1]
        df = unipoly.deriv_p(unipoly.trim(dense))
        if not df:
            raise DegenerateFiber(f"derivative vanishes identically at {vv!r}")
        _, facs = unipoly.factor(field, df)
        points = []
        total = 0
        for g, mult in facs:
            d = unipoly.degree(g)
            label = repr(-g[0]) if d == 1 else _render_uni(field, g)
            points.append({"point": label, "degree": d, "mu": mult})
            total += d * mult
        out.append({"value": repr(vv), "points": points, "total": total})
    return out
