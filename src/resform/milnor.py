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

The search for D0 starts at Wiebe's bound s = 1 + sum(k_i - 1), the k_i
the orders of the partials, read off f's exponents (_orders), so an input
that does not need its own scan never builds its partials.  When the
partials' initial forms span degree s, D0 = s is proven before it is
eliminated, and one elimination below it presents the algebra (_scan).  A
cone whose partials are homogeneous and fail that test is not isolated,
and is not scanned.  The cap DEGREE_CAP bounds the scan and nothing else,
and the scan ends in one of three ways, each named by its own proof: when
the Bezout bound on mu is at most the cap, failing every degree up to it
proves f not isolated (a cone is reported so too); above it a cone raises
NotIsolated naming the degree s its partials miss; any other scan that
reaches the cap has proved nothing, and raises ResourceLimit.

A relation matrix is sized before it is listed: its shape is counted from
binomials (_count) and held to MAX_RELATION_CELLS, and its rows and columns
list monomials in one order (_monomials).  It stays in the elimination
kernel's digit form from build to normal forms: it is written as a
(rows, cols, m) integer array, reduced and certified there, and the normal
forms are kept as the reduced digit matrix N over the monomials below D
(MilnorAlgebra.normal_forms): a pivot column's row holds its pivot row's
negated entries on the free columns, a basis monomial's row is its unit
vector.  N is built on its first read, and the residue engine reads it as
digits; nf_monomial alone decodes a row into ring elements.

A Thom-Sebastiani sum f = f_1 + ... + f_k, k >= 2, of polynomials in
pairwise disjoint sets of variables (a constant term belongs to none) has
J(f) = J(f_1) + ... + J(f_k), so its algebra is the tensor product of
theirs (Sebastiani-Thom, Un resultat sur la monodromie, Invent. Math.
1971), composed from the blocks' algebras without eliminating f's own
relation matrix.  An algebra belongs to its polynomial alone, whatever cap
it was read at: every algebra is kept on its polynomial (MultiPoly's
_algebra), but only eliminations are cached: a product lives on f alone,
so it never pushes the blocks it is built from out of the cache, and the
cache's bound counts eliminations.  The split is kept on f too
(mpoly.variable_blocks), so every consumer of one polynomial shares one
split and one product: a verify of a split sum whose blocks are cached
splits f once and composes one product, and a second verify of the same f
does neither.  Composing is cheap, as the product's standard monomials are
the products of the blocks': each such product is standard, and there are
mu = prod mu_i of them.  They are enumerated and sorted only on the first
read of the basis, its index or N, once per composed algebra, as mu, D and
the Gram determinant need none of them.  A monomial's normal form is the
product of its block parts' forms, so the product's N is the Kronecker
product of the blocks' N in the kernel's digits, built on the first read
of a normal form with a row or of the Bezoutian (ProductAlgebra).  The
truncation degree is D = sum D_i - (k - 1): every monomial of that degree
has some block part of degree at least D_i, which lies in J_i, so m^D lies
in J.  Over a field D is also the least D0, as some monomial of
degree D_i - 1 survives in each block and the product of their normal forms
is nonzero, as a tensor product of nonzero vectors over a field is.  Morse
and smooth points are not split.  A smooth point's scan is one small
elimination, at D = 1.  A Morse point, every partial of order 1, is
presented by no relation matrix at all: one linalg.unit_det of its n x n
Hessian L, written from f's degree-2 terms, certifies D = 1 and mu = 1
exactly when L is invertible, and its pivot inverses give 1/det L, the
inverse Bezoutian determinant (_morse), so the residue engine builds no
Bezoutian for it unless the Gram matrix itself is read.  A singular L
proves D0 >= 2, and the scan starts there.  The W_3 lift of a Morse point
without a degree-1 term is presented by its Hessian too, which is a unit
mod 2; a lift with a linear term is eliminated whole (below).  A block
that raises NotIsolated or ResourceLimit ends f with its error, over a
field and over W_3 alike: a block that is not isolated makes the tensor
product infinite, and f's own presentation would start at a degree at
least the block's D0, in more variables.  A product is bounded by what it builds, not by
the cap: its D may pass the cap, and its basis, its monomials and N are
each held to MAX_RELATION_CELLS, their sizes read off the blocks, before
any of them is enumerated.

The Witt lift of a separable characteristic-2 input splits the same way,
once its reduction's algebra is a product: it is then the tensor product
over W_3 of its own blocks' algebras.  Each block's algebra is free with a
monomial basis, or raises NotFlat, so the products of the blocks' basis
monomials are a basis and normal forms multiply; a product whose
coefficients vanish mod 8 is a zero normal form, not a failure.  The same
argument shows that D = sum D_i - (k - 1) is a certified truncation degree
over W_3: m^{D_i} lies in J_i for each block, so m^D lies in J.  It need
not be least, as a W_3 D never was.  A lift whose blocks are not
those of a split reduction (a lift perturbation may couple variables), or
one with a block that raises NotFlat or OddProduct, is eliminated whole,
so those errors and their messages are its own.

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
for 164 of them.  A Morse point's lift with a linear term 2c always fails
at D0 = 1: the pivot rows keep L^-1 * 2c != 0 in the constant column, the
one column below degree 1, so k = 0 and D = 3.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DegenerateFiber, NotFlat, NotIsolated, OddProduct, ResourceLimit
from .linalg import coded, unit_det
from .mpoly import MultiPoly, partials, variable_blocks
from . import unipoly

DEGREE_CAP = 24
# digits one relation matrix, or a product's normal-form matrix, may hold,
# 128 MiB as int32; the largest matrix of the test suite and the corpus
# holds 6.4M.  A product's basis or monomials count 8 digits an exponent:
# a listed exponent takes about 26 bytes, an int32 digit 4.
MAX_RELATION_CELLS = 2 ** 25


def _within_cells(what: str, shape):
    """Raise ResourceLimit, naming what and its shape, when an array of
    that shape would hold more than MAX_RELATION_CELLS digits; called before
    it is built."""
    if math.prod(shape) > MAX_RELATION_CELLS:
        raise ResourceLimit(f"{what} would hold {' x '.join(map(str, shape))} digits, "
                            f"more than MAX_RELATION_CELLS = {MAX_RELATION_CELLS}")


def mono_key(e):
    """Graded order key; within a degree the first variable weighs least."""
    return (sum(e), tuple(reversed(e)))


# Most recently used last.  The bound counts monomials, not entries, so the
# memo stays this small however high a scan in many variables goes; a range
# larger than the bound is not kept.
_MONOMIALS: dict = {}
_MONOMIALS_MAX = 1024


def _count(n_vars: int, upto: int, lo: int) -> int:
    """The number of monomials in n_vars variables of degree lo..upto."""
    lo = max(lo, 0)
    return math.comb(upto + n_vars, n_vars) - math.comb(lo - 1 + n_vars, n_vars) if upto >= lo else 0


def _monomials(n_vars: int, upto: int, lo: int):
    """The monomials of degree lo..upto from the highest mono_key down, one
    degree at a time, and their index in that list.

    Columns and shift lists take this one order.  Over a field the reduced
    matrix does not depend on the rows' order.  Over W_3 the pivot columns,
    the span of the leftover rows, the stuck column and a flat lift's pivot
    rows do not; the tails _lift_degree reads at a failed D0 may, and so
    may the D they prove, though every such D is proven.
    """
    key = (n_vars, upto, max(lo, 0))
    hit = _MONOMIALS.pop(key, None)
    if hit is None:
        cols = [tuple(c.count(v) for v in range(n_vars)) for d in range(upto, key[2] - 1, -1)
                for c in itertools.combinations_with_replacement(range(n_vars - 1, -1, -1), d)]
        hit = cols, {e: j for j, e in enumerate(cols)}
        if len(cols) > _MONOMIALS_MAX:
            return hit
        held = len(cols) + sum(len(kept) for kept, _ in _MONOMIALS.values())
        while held > _MONOMIALS_MAX:
            held -= len(_MONOMIALS.pop(next(iter(_MONOMIALS)))[0])
    _MONOMIALS[key] = hit
    return hit


def _eliminate(grads, ring, n_vars: int, upto: int, lo: int = 0):
    """Reduced relation matrix on the monomials of degree lo..upto.

    Each row is x^alpha * g for a partial g of order k and
    lo - k <= |alpha| <= upto - k, so its terms start in degree lo or above;
    it is truncated above upto, where its lowest term always survives, and
    written as digits straight into the kernel's array.  With lo = upto the
    rows are the degree-upto multiples of the partials' initial forms.
    Columns, and each partial's shifts alpha, run in _monomials' order;
    returns (columns, reduced digit array, pivot columns, stuck column or
    None, pivot inverses), the last three as CodedOps.rref gives them.  A
    shape (_count) of more than MAX_RELATION_CELLS digits raises
    ResourceLimit before any monomial is listed.
    """
    orders = [g.low_degree() for g in grads]
    shape = (sum(_count(n_vars, upto - k, lo - k) for k in orders), _count(n_vars, upto, lo), ring.m)
    _within_cells(f"the relation matrix in degree {upto}", shape)
    cols, col_index = _monomials(n_vars, upto, lo)
    A = np.zeros(shape, dtype=np.int32)
    r = 0
    for g, k in zip(grads, orders):
        for alpha in _monomials(n_vars, upto - k, lo - k)[0]:
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
    top = _count(len(cols[0]), d, d)
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
    top = _count(len(cols[0]), d0, d0)
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
    the complete local ring at the origin.  Returns D0 and the (columns,
    reduced digit rows, pivots) of the presentation below D0.

    The search starts at Wiebe's bound.  Let k_i be the order of the i-th
    partial and s = 1 + sum(k_i - 1).  At an isolated point with every
    k_i >= 1 the partials d_i f = sum_j A_ij x_j, A_ij in m^{k_i - 1}, are
    a regular sequence, and det A, which lies in m^{s-1}, generates the
    socle of k[[x]]/J (H. Wiebe, Math. Ann. 179, 1969): m^{s-1} is not in
    J, so D0 >= s.  An f with every k_i = 1 is scanned only once its
    Hessian is singular (_morse), which proves D0 >= 2; at a smooth point
    (some k_i = 0) J is the unit ideal and the scan starts at 1.  An f that
    is not isolated fails at every degree, wherever the scan starts.

    When s >= min k_i + 2, one elimination in degree s alone tests whether
    the partials' initial forms reach every degree-s monomial.  If they do,
    they are a regular sequence generating J's initial ideal (Valla;
    Fulton, Intersection Theory, Cor. 12.4), whose Hilbert function is
    nonzero in degree s - 1 and zero in degree s: D0 = s is proven, and one
    elimination at s - 1 presents the algebra.  That is the presentation
    _certified would read off an elimination at s, as the shifts of degree
    s - k_i vanish below s and a reduced echelon form over a field is
    unique.  At s <= min k_i + 1 every shift in degree s has degree at most
    1, so the test would nearly repeat the elimination at s, and it is
    skipped: a binary cubic eliminates once.  If the test fails and every
    partial is homogeneous, J is its own initial ideal and misses a
    degree-s monomial: f is not isolated, and the scan is skipped.

    The search stops at the product of the partials' degrees: for an
    isolated singularity D0 <= mu, and mu is at most that product by the
    refined Bezout theorem.  Failing every degree up to it proves f is not
    isolated, and raises NotIsolated whenever that bound is at most the
    cap; above it a cone raises NotIsolated naming s, and a scan that stops
    at the cap has proved nothing, and raises ResourceLimit.
    """
    grads = partials(f)
    bezout = math.prod(max(g.total_degree(), 1) for g in grads)
    n, last = f.n_vars, min(cap, bezout)
    s = 1 + sum(k - 1 for k in orders)
    start = max(2, s) if min(orders) >= 1 else 1
    cone = False  # a cone that is not isolated: no degree certifies
    if min(orders) >= 1 and s > min(orders) + 1:
        cols, _, pivots, _, _ = _eliminate(grads, f.ring, n, s, lo=s)
        if len(pivots) < len(cols):
            cone = all(g.total_degree() == k for g, k in zip(grads, orders))
        elif s <= last:
            return s, _eliminate(grads, f.ring, n, s - 1)[:3]
    if not cone:
        for d0 in range(start, last + 1):
            cols, red, pivots, _, _ = _eliminate(grads, f.ring, n, d0)
            certified = _certified(cols, red, pivots, d0)
            if certified is not None:
                return d0, certified
            del red  # not held while the next degree's matrix is built
    if bezout <= cap:
        raise NotIsolated(
            f"Jacobian ideal is not monomial-cofinite below degree {bezout}, "
            "the Bezout bound on the Milnor number"
        )
    if cone:
        raise NotIsolated(
            f"the partials are homogeneous and miss a monomial of degree {s}, "
            "so the Jacobian ideal is not monomial-cofinite"
        )
    raise ResourceLimit(
        f"no degree up to DEGREE_CAP = {cap} certifies the Jacobian ideal, "
        f"and its Bezout bound {bezout} lies above the cap"
    )


def _morse(f: MultiPoly):
    """f's algebra at a Morse point, with D = 1, mu = 1 and basis [1], or
    None when the Hessian L of f at the origin is singular.

    L_ij is the x_j-coefficient of d_i f: L_ii is twice the coefficient of
    x_i^2 and L_ij, i != j, the coefficient of x_i*x_j.  Its digits are
    written straight from f's degree-2 terms; the constant term and the
    terms of degree 3 or more do not enter it.  milnor_algebra calls this
    over a field when every partial has order 1, and on a W_3 lift of a
    Morse point that has no degree-1 term.  Either way no partial has a
    constant term and each has order 1, so the elimination at degree 1 would
    be the n x (n+1) matrix of the partials truncated above degree 1, on
    columns x_{n-1}, ..., x_0, 1: L with its columns reversed, beside a zero
    constant column.  It certifies D = 1 exactly when its n degree-1
    columns are unit pivots, that is when L is invertible, and then the
    unit monomial is the one standard monomial.  Over W_3 L reduces to the
    Morse point's Hessian, so it is a unit.  When L is singular over a
    field, D0 >= 2 (_scan).

    The Bezoutian matrix C is 1 x 1: every monomial of degree >= 1 has
    normal form 0, so C holds the constant term of the divided-difference
    determinant, det L.  So 1/det C is the product of the pivot inverses of
    the one elimination of L (linalg.unit_det), kept on the algebra, and
    the residue engine builds no Bezoutian unless the Gram matrix itself is
    read.  C is symmetric, and det L is a unit as every pivot is, so the
    checks residue._inv_bezoutian_det makes hold.
    """
    ring, n = f.ring, f.n_vars
    L = np.zeros((n, n, ring.m), dtype=np.int32)
    for e, c in f.terms.items():
        if sum(e) == 2:
            i, j = [v for v, k in enumerate(e) for _ in range(k)]
            if i == j:
                L[i, i] = [2 * d % ring.b for d in c.coeffs]
            else:
                L[i, j] = L[j, i] = c.coeffs
    ops = coded(ring)
    _, k, _, inverses = unit_det(ops, L)
    if k < n:
        return None
    alg = MilnorAlgebra(ring, n, 1, [(0,) * n], np.zeros((0, 1, ring.m), dtype=np.int32), [])
    alg.inv_bezoutian_det = ops.product(inverses)
    return alg


class MilnorAlgebra:
    """Finite free presentation of R[x]/J on standard monomials, read off a
    reduced relation matrix.

    Every monomial below D is a column of `monomials`, which run from the
    highest mono_key down, so the free ones, reversed, are the sorted
    basis.  The normal forms are the digit matrix N (`normal_forms`, shape
    (len(monomials), mu, m)): row `rows[e]` holds the digits of the normal
    form of e, and a monomial below D without a row has normal form 0.  A
    pivot column's row holds the negated entries of its pivot row on the
    free columns, as the row reads e = -sum(row[j] * monomials[j]); a basis
    monomial's row is its unit vector.  Only the pivot rows' free entries
    are kept until N is built, on its first read, so an algebra whose
    normal forms are never read (a Witt lift's reduction, a Morse point)
    builds none; the residue engine reads N as digits.  A Morse point's
    algebra (_morse) has the one monomial 1, a basis monomial, and no
    pivot rows.

    `blocks` holds the (variables, block, block algebra) triples of a
    product (ProductAlgebra), and is None here.  `inv_bezoutian_det` is
    1/det C for f's Bezoutian matrix C, the Gram determinant of the residue
    form for dt.  On a Morse point's algebra, D = 1 and mu = 1 over a field
    or over W_3, _morse sets it from the pivot inverses of the unit_det of
    the Hessian; on any other eliminated algebra residue.gram_matrix sets
    it, from the pivot inverses of one elimination of C, once C is checked
    symmetric and invertible, so every consumer of f shares that
    elimination.  A product keeps none: its 1/det C is read off its blocks'
    algebras.
    """

    blocks = None

    def __init__(self, ring, n_vars, D, cols, red, pivots):
        pivot_set = set(pivots)
        free = [j for j in range(len(cols)) if j not in pivot_set][::-1]
        self._init(ring, n_vars, D, len(free))
        self.monomials = cols
        self.basis = [cols[j] for j in free]
        self._pivots = pivots
        self._neg = -red[:len(pivots)][:, free] % ring.b

    def _init(self, ring, n_vars, D, mu):
        """The fields every algebra sets, eliminated or a product."""
        self.ring, self.n_vars, self.D, self.mu = ring, n_vars, D, mu
        self.inv_bezoutian_det = None

    @functools.cached_property
    def basis_index(self):
        return {e: i for i, e in enumerate(self.basis)}

    @functools.cached_property
    def rows(self):
        return {e: r for r, e in enumerate(self.monomials)}

    @functools.cached_property
    def normal_forms(self):
        N = np.zeros((len(self.monomials), self.mu, self.ring.m), dtype=np.int32)
        N[[self.rows[e] for e in self.basis], np.arange(self.mu), 0] = 1
        N[self._pivots] = self._neg
        del self._pivots, self._neg
        return N

    def nf_monomial(self, exps) -> dict:
        """Sparse coefficient vector of a monomial over the basis, decoded
        from its row of N."""
        r = self.rows.get(tuple(exps))
        if r is None:
            return {}
        row, ring = self.normal_forms[r], self.ring
        elem = type(ring.one)
        return {int(i): elem(ring, row[i].tolist()) for i in np.flatnonzero(row.any(axis=1))}

    def to_json(self) -> dict:
        return {"mu": self.mu, "basis": [list(e) for e in self.basis],
                "D": self.D}

    def __repr__(self):
        return f"MilnorAlgebra(mu={self.mu}, D={self.D}, over {self.ring!r})"


class ProductAlgebra(MilnorAlgebra):
    """The tensor product of the algebras of f's variable-disjoint blocks.

    mu and D come from the blocks.  The basis is the products of the
    blocks' basis monomials, sorted; `monomials` are the products of the
    blocks' monomials with a row, and every other monomial below D has some
    block part of degree at least D_i, so form 0.  N is the Kronecker
    product of the blocks' N, as a monomial's form is the product of its
    block parts'.  Each is built on its first read, as a cached property
    in place of the attribute MilnorAlgebra.__init__ sets, and each raises
    ResourceLimit on every read whose list or matrix would hold more than
    MAX_RELATION_CELLS digits, its size read off the blocks first.
    """

    def __init__(self, ring, n_vars, D, blocks):
        self._init(ring, n_vars, D, math.prod(alg.mu for _, _, alg in blocks))
        self.blocks = blocks

    def _joined(self, parts):
        """The monomial in n_vars variables whose block parts are parts."""
        e = [0] * self.n_vars
        for (vs, _, _), part in zip(self.blocks, parts):
            for v, k in zip(vs, part):
                e[v] = k
        return tuple(e)

    def _enumerated(self, name):
        """The products of the blocks' lists `name`, held to the cell bound
        at 8 digits an exponent before they are enumerated."""
        lists = [getattr(alg, name) for _, _, alg in self.blocks]
        _within_cells(f"the {name} of the product", (math.prod(map(len, lists)), self.n_vars, 8))
        return map(self._joined, itertools.product(*lists))

    @functools.cached_property
    def basis(self):
        return sorted(self._enumerated("basis"), key=mono_key)

    @functools.cached_property
    def monomials(self):
        return list(self._enumerated("monomials"))

    @functools.cached_property
    def normal_forms(self):
        """Column j of the blocks' Kronecker product is the basis monomial
        whose block parts have the block basis indices that j's mixed-radix
        digits name, so N takes those columns in basis order.  Over W_3 a
        product of nonzero coefficients can vanish; its digits are then
        zero.  An N of more than MAX_RELATION_CELLS digits raises
        ResourceLimit before it is built, on every read."""
        ring = self.ring
        ops, m = coded(ring), ring.m
        _within_cells("the normal forms of the product", (len(self.monomials), self.mu, m))
        N = np.array([[ring.one.coeffs]], dtype=np.int32)
        order = [0] * self.mu
        for vs, _, alg in self.blocks:
            B = alg.normal_forms
            (r, c), (rb, cb) = N.shape[:2], B.shape[:2]
            N = ops.matmul(N.reshape(r * c, 1, m), B.reshape(1, rb * cb, m))
            N = N.reshape(r, c, rb, cb, m).transpose(0, 2, 1, 3, 4).reshape(r * rb, c * cb, m)
            index = alg.basis_index
            order = [j * alg.mu + index[tuple(e[v] for v in vs)] for j, e in zip(order, self.basis)]
        return np.ascontiguousarray(N[:, order])


def _product(f: MultiPoly, cap: int):
    """f's algebra as the tensor product of its blocks' algebras, each read
    at cap.

    Returns the ProductAlgebra, or None when f is a single block or a block
    raises NotFlat or OddProduct; the caller then presents f whole, so
    those errors and their messages are its own, as a block's OddProduct
    says nothing of f's parity.  A block's NotIsolated or ResourceLimit
    ends f, over a field and over W_3: a block that is not isolated makes
    the tensor product infinite, and f's own presentation would start at a
    degree at least the block's D0, in more variables.  Every variable lies
    in some block, as no partial of f vanishes.  The product's own D is not
    held to the cap; what it builds is held to the cell bound.
    """
    split = variable_blocks(f)
    if len(split) < 2:
        return None
    try:
        blocks = [(vs, block, milnor_algebra(block, cap)) for vs, block in split]
    except (NotFlat, OddProduct):
        return None
    return ProductAlgebra(f.ring, f.n_vars, sum(alg.D - 1 for _, _, alg in blocks) + 1, blocks)


# Most recently used last.  Only algebras that an elimination built are
# kept: a field scan's and a whole W_3 lift's.  A product is kept on its
# polynomial alone, so the bound counts eliminations and the inverse
# Bezoutian determinants stored on them; it is a bound rather than a clear
# so that a call costs the same however many polynomials came before it.
_ALGEBRAS: dict = {}
_ALGEBRAS_MAX = 256


def milnor_algebra(f: MultiPoly, cap: int = DEGREE_CAP) -> MilnorAlgebra:
    """Quotient by the Jacobian ideal, presented below the truncation degree.

    One elimination per polynomial, shared by every consumer.  The algebra
    belongs to f alone: it is kept on f, so every later read of f, at any
    cap, returns it at once, and an equal polynomial shares an eliminated
    algebra through the cache.  The cap bounds only a scan that has not
    yet run, and is passed on to a split sum's blocks and to a Witt lift's
    reduction.  A Morse point, every partial of order 1 over a field or the
    lift of one without a linear term over W_3, is presented by one
    unit_det of its Hessian and builds no partials; over a field a singular
    Hessian sends f to the scan from degree 2.  Any other field scan starts
    at Wiebe's bound s = 1 + sum(k_i - 1) on D0, and once it has proven
    D0 = s presents the algebra by one elimination below it (_scan).  A sum
    of blocks in disjoint variables gets the tensor product of the blocks'
    algebras, composed from theirs and kept on f alone: over a field
    except at a Morse or a smooth point, and over W_3 when the residue
    field's algebra is such a product.  In either ring a block's
    NotIsolated or ResourceLimit ends the sum, and its NotFlat or
    OddProduct sends the sum to its own presentation (_product).  A W_3
    lift eliminated whole has the truncation degree D of the residue
    field's D0 when one elimination at D0 certifies it, and the 3*D0 - 2k
    that elimination proves otherwise, and raises NotFlat unless its basis
    is the residue field's; a split lift has that check from its blocks.  A
    W_3 lift that misses the cache reads its reduction's algebra first, at
    the same cap.  NotIsolated means a proof that f is not isolated; a scan
    past the cap, unproved, raises ResourceLimit.  No error is kept: each
    read raises it anew.
    """
    if f._algebra is not None:
        return f._algebra
    ring, n = f.ring, f.n_vars
    key = (ring, n, frozenset(f.terms.items()))
    alg = _ALGEBRAS.pop(key, None)
    if alg is not None:
        _ALGEBRAS[key] = f._algebra = alg
        return alg
    field = ring.b == ring.residue  # over W_3 the scan runs mod 2
    alg = None
    if field:
        orders = _orders(f)
        if min(orders) == max(orders) == 1:
            alg = _morse(f)  # None: the Hessian is singular, so D0 >= 2
        elif min(orders) >= 1:  # neither smooth nor Morse
            alg = _product(f, cap)
    else:
        reduced = milnor_algebra(f.map_coeffs(lambda c: c.reduce(), ring.field), cap=cap)
        if (reduced.D, reduced.mu) == (1, 1) and not any(sum(e) == 1 for e in f.terms):
            alg = _morse(f)
        elif reduced.blocks is not None:
            alg = _product(f, cap)
    if alg is None:
        if field:
            D, presented = _scan(f, orders, cap)
        else:
            # the residue field's D0 certifies most lifts; the rest take the
            # degree their elimination at D0 proves
            D = reduced.D
            grads = partials(f)
            cols, red, pivots, stuck, _ = _eliminate(grads, ring, n, D)
            presented = _certified(cols, red, pivots, D)
            if presented is None:
                D = _lift_degree(cols, red, pivots, D)
                del red  # not held while the fallback's matrix is built
                cols, red, pivots, stuck, _ = _eliminate(grads, ring, n, D - 1)
                presented = cols, red, pivots
            if stuck is not None:
                raise NotFlat(
                    f"monomial {cols[stuck]} carries a non-unit relation; quotient is not free"
                )
        alg = MilnorAlgebra(ring, n, D, *presented)
        if not field and alg.basis != reduced.basis:
            raise NotFlat("Witt-lift basis does not match its mod-2 reduction")
    if ring.residue == 2 and n % 2 == 1 and alg.mu % 2 == 1:
        raise OddProduct(
            f"parity violated: odd mu={alg.mu} with odd n_vars={n} in characteristic 2"
        )
    if alg.blocks is None:
        if len(_ALGEBRAS) >= _ALGEBRAS_MAX:
            del _ALGEBRAS[next(iter(_ALGEBRAS))]
        _ALGEBRAS[key] = alg
    f._algebra = alg
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
