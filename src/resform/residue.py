"""The residue pairing engine.

The Bezoutian of the partials is the element of A tensor A dual to the
residue pairing on the Milnor algebra A (Scheja-Storch), so the Gram matrix
of the pairing is G = alpha^n * C^-1 for the Bezoutian matrix C, and the
residue functional is its row at the unit monomial.  The discriminant needs
only det G = alpha^(n*mu) / det C, which one elimination of C gives; G
itself is solved on first access, as one solve of [C | alpha^n * I].  From
det G come the discriminant square class and the Arf invariant of
characteristic-2 singularities via the length-3 Witt lift; from G the
tensor and trace-pushforward laws.

C runs on the kernel's digits from start to finish.  The determinant of
the divided differences is expanded over Z, on the ring's coefficients
packed into integers, with a product that drops every term whose x-part or
y-part has degree at least D, since its normal form is 0.  The surviving
coefficients, reduced to digits, form the digit matrix Delta over the
x-parts and y-parts that occur; with N_x and N_y the rows of the algebra's
normal-form matrix N (milnor.MilnorAlgebra.normal_forms) at those parts,
C = N_x^T * Delta * N_y is two coded products (linalg.CodedOps.matmul).
C's digits go to the elimination that reads 1/det C as they are, and the
solve of G eliminates the digits [C | alpha^n * I]; only 1/det C and G are
decoded to elements.  On a homogeneous f of degree d the determinant has
degree n(d-2), below D, so the truncation drops nothing there.

When the Milnor algebra of f is the tensor product of its blocks' (f a sum
of polynomials f_i in n_i disjoint variables, see milnor), so is the
Bezoutian: the matrix of divided differences is block-diagonal up to one
permutation of its rows and columns, its determinant is the product of the
blocks', and C is the Kronecker product of the C_i on the sorted product
basis.  So det C = prod det(C_i)^(mu/mu_i), over any commutative ring:
over a field and for the W_3 lift of a separable characteristic-2 input
alike.  C is symmetric or invertible exactly when every C_i is, so the
blocks' checks are f's.  G itself is still solved from f's own C, built
from the normal forms of the algebra the form holds, whose N is the
Kronecker product of the blocks', when it is read; that algebra builds its
product basis on the first read of the form's basis or matrix, and N only
on the first read of the matrix.

Every entry point reads f's Milnor algebra itself: milnor_algebra keeps it
on f, so the reads after the first cost nothing.  1/det C, the Gram
determinant for dt, is kept on the Milnor algebra of an elimination, which
milnor_algebra also caches for equal polynomials, and only once C is
checked symmetric and invertible; the scale alpha enters det G by the known
power alpha^(n*mu).  So verify, disc, arf, a split sum's blocks and the
Witt lift that arf and verify both build eliminate C once, at any unit
scale, and an error is raised anew on every call.  No determinant is
inverted: 1/det C is the product of the inverses of that elimination's
pivots, which the kernel forms to scale each pivot row
(linalg.CodedOps.rref).  A Morse point's algebra (D = 1, mu = 1) holds
1/det C from the start: its C is the 1 x 1 matrix [det Hess f(0)], and
milnor reads 1/det C off the pivot inverses of the one unit_det of the
Hessian that certifies D = 1, so its Bezoutian is built only when the
Gram matrix itself is read.  A split sum's algebra, kept on f alone, keeps no 1/det C: it lists
its blocks' algebras, which keep theirs.  Neither C nor the solved matrix
is kept anywhere.
"""

from __future__ import annotations

import functools
import math
from operator import add

import numpy as np

from .errors import (
    EvenCharacteristic,
    NonUnit,
    NonUnitScale,
    OddCharacteristic,
    RingMismatch,
    SingularBezoutian,
)
from .gfield import Field, legendre
from .linalg import coded, det_expand, det_ring, solve_coded, solve_ring, unit_det
from .milnor import milnor_algebra, mono_key
from .mpoly import ZZ, MultiPoly, divided_difference, partials
from .unipoly import QuotientField
from .wittring import (
    ArfClass,
    arf_from_unit,
    gr_create,
    square_class_normalize,
    teichmuller,
)


class SquareClass:
    """Square class of a unit in an odd-characteristic finite field."""

    __slots__ = ("field", "sign", "rep")

    def __init__(self, field, value):
        value = field(value)
        s = legendre(value)
        if s == 0:
            raise NonUnit("square class of zero is undefined")
        self.field = field
        self.sign = s
        self.rep = value

    def is_trivial(self) -> bool:
        return self.sign == 1

    def __eq__(self, other):
        if isinstance(other, SquareClass):
            return self.field == other.field and self.sign == other.sign
        if isinstance(other, int):
            return self.sign == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.sign))

    def __repr__(self):
        return f"SquareClass({'+1' if self.sign == 1 else '-1'}, rep={self.rep!r})"

    def to_json(self) -> dict:
        return {"legendre": self.sign, "representative": repr(self.rep)}


class GramForm:
    """Symmetric Gram matrix of the residue pairing on a monomial basis.

    `basis` and `solve` are functions of no arguments that return the basis
    and the matrix rows; each runs on the first read of `basis` or `matrix`,
    and its result is kept.  So a split sum's product basis, built on the
    first read of the Milnor algebra's, is built only when a form's basis,
    matrix or JSON is read.  `solve` is dropped once the matrix is read, so
    nothing it holds, a Bezoutian matrix say, is kept.
    """

    def __init__(self, ring, n_vars, mu, basis, solve, scale, det):
        if not det.is_unit():
            raise NonUnit("gram determinant is not a unit")
        self.ring = ring
        self.n_vars = n_vars
        self.mu = mu
        self.scale = scale
        self.det = det
        self._basis = basis
        self._solve = solve

    @functools.cached_property
    def basis(self):
        return self._basis()

    @functools.cached_property
    def matrix(self):
        matrix = self._solve()
        del self._solve
        return matrix

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "scale": repr(self.scale),
            "basis": [list(e) for e in self.basis],
            "gram": [[repr(x) for x in row] for row in self.matrix],
        }

    def __repr__(self):
        return f"GramForm(mu={self.mu}, scale={self.scale!r}, over {self.ring!r})"


def _truncated_product(n: int, D: int):
    """The product of two polynomials in the doubled variables x, y without
    the terms whose x-part or y-part has degree at least D.

    Those terms span an ideal, and their normal forms in A tensor A are 0,
    as m^D lies in J; so they are dropped as soon as they are formed, and
    the determinant expansion never carries them on.
    """

    def product(a, b):
        right = [(e, c, sum(e[:n]), sum(e[n:])) for e, c in b.terms.items()]
        out: dict = {}
        for e1, c1 in a.terms.items():
            dx, dy = D - sum(e1[:n]), D - sum(e1[n:])
            for e2, c2, dx2, dy2 in right:
                if dx2 < dx and dy2 < dy:
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(a.ring, a.n_vars, out)

    return product


def _packed_over_z(f: MultiPoly):
    """f with each coefficient's digits packed into one integer, as a
    polynomial over Z, and the width of a slot.

    Digit i sits in slot i, the coefficient of X^i for X = 2^width, so a
    product of packed integers is the product of the coefficients in
    Z[x] (Kronecker substitution), and sums and negation are exact too.
    The slots of the Bezoutian's determinant are below 2^(width - 1) in
    absolute value: each of its n! products of n divided differences, each
    entry of at most T terms with slots below deg(f) * b, convolves n
    digit vectors of length m.
    """
    ring, n = f.ring, f.n_vars
    deg = f.total_degree()
    terms = len(f.terms) * deg
    bound = math.factorial(n) * (terms * deg * ring.b) ** n * ring.m ** (n - 1)
    width = bound.bit_length() + 2

    def pack(c):
        v = 0
        for d in reversed(c.coeffs):
            v = (v << width) | d
        return v

    return f.map_coeffs(pack, ZZ), width


def _slot_residues(values, slots: int, width: int, b: int):
    """The slots of packed integers over Z, mod b, as a (len(values), slots)
    array.  A slot is read in the balanced range, so a negative one borrows
    from the next."""
    full = 1 << width
    mask, half = full - 1, full >> 1
    out = []
    for v in values:
        for _ in range(slots):
            s = v & mask
            if s >= half:
                s -= full
            out.append(s % b)
            v = (v - s) >> width
    return np.array(out, dtype=np.int64).reshape(-1, slots)


def bezoutian(f: MultiPoly):
    """Digits of the matrix of the Bezoutian class in A tensor A over the
    basis pairs of f's Milnor algebra A, shape (mu, mu, m).

    The determinant of the divided differences is expanded over Z, on
    packed coefficients (_packed_over_z), without the terms whose normal
    form is 0.  Its surviving coefficients, reduced to digits and written
    as the digit matrix Delta over the x-parts and y-parts that occur, give
    C = N_x^T * Delta * N_y, N_x and N_y the rows of the normal-form matrix
    N at those parts: two coded products, and no element is built.
    """
    alg = milnor_algebra(f)
    n, mu, ring = f.n_vars, alg.mu, f.ring
    if mu and (0,) * n not in alg.basis_index:
        raise SingularBezoutian("the unit monomial is not a standard monomial")
    packed, width = _packed_over_z(f)
    grads = partials(packed)
    dd = [[divided_difference(grads[i], j) for j in range(n)] for i in range(n)]
    delta = det_expand(dd, _truncated_product(n, alg.D))
    rows = alg.rows
    xs: dict = {}  # row of N -> row of Delta
    ys: dict = {}  # row of N -> column of Delta
    ix, iy, values = [], [], []
    for e, v in delta.terms.items():
        rx, ry = rows.get(e[:n]), rows.get(e[n:])
        if rx is not None and ry is not None:
            ix.append(xs.setdefault(rx, len(xs)))
            iy.append(ys.setdefault(ry, len(ys)))
            values.append(v)
    ops = coded(ring)
    Delta = np.zeros((len(xs), len(ys), ring.m), dtype=np.int32)
    Delta[ix, iy] = ops.fold(_slot_residues(values, n * (ring.m - 1) + 1, width, ring.b))
    N = alg.normal_forms
    return ops.matmul(N[list(xs)].transpose(1, 0, 2), ops.matmul(Delta, N[list(ys)]))


def residue_functional(f: MultiPoly):
    """Coefficients of the residue functional over the monomial basis: the
    row of the pairing at the unit monomial."""
    G = gram_matrix(f, 1)
    return G.matrix[G.basis.index((0,) * f.n_vars)] if G.mu else []


def _inv_bezoutian_det(f: MultiPoly):
    """1/det C for the Bezoutian matrix C of f, whose Milnor algebra was
    eliminated, and C's digits when this call built them (None when the
    algebra already held 1/det C).

    C is symmetric exactly when its inverse is, so the symmetry check reads
    C's digits; 1/det C is the product of the pivot inverses of one
    elimination of a copy of C alone, so no determinant is inverted, and it
    is kept on the algebra only once both checks pass.
    """
    alg = milnor_algebra(f)
    if alg.inv_bezoutian_det is not None:
        return alg.inv_bezoutian_det, None
    ring = f.ring
    C = bezoutian(f)
    inv_det_c = ring.one
    if alg.mu:
        if not (C == C.swapaxes(0, 1)).all():
            raise SingularBezoutian("gram matrix is not symmetric")
        ops = coded(ring)
        _, k, _, inverses = unit_det(ops, C.copy())
        if k < alg.mu:
            raise SingularBezoutian("bezoutian matrix is not invertible")
        inv_det_c = ops.product(inverses)
    alg.inv_bezoutian_det = inv_det_c
    return inv_det_c, C


def gram_matrix(f: MultiPoly, scale=1) -> GramForm:
    """Gram matrix of the pairing for the differential scale*dt: alpha^n
    times the inverse of the Bezoutian matrix, alpha = scale.

    det G = alpha^(n*mu) / det C at every scale, and the matrix is solved
    only when it is read, by one elimination of the digits
    [C | alpha^n * I], whose right half alone is decoded.  When the Milnor
    algebra is a tensor product of blocks' algebras,
    1/det C = prod (1/det C_i)^(mu/mu_i) is read off the blocks' algebras by
    the Kronecker law, with their checks.  The scale is checked once, after
    f's algebra and before any Bezoutian.
    """
    alg = milnor_algebra(f)
    ring, mu = f.ring, alg.mu
    alpha = ring(scale)
    if not alpha.is_unit():
        raise NonUnitScale(f"scale {alpha!r} is not a unit")
    C = None
    if alg.blocks:
        inv_det_c = math.prod((_inv_bezoutian_det(block)[0] ** (mu // a.mu)
                               for _, block, a in alg.blocks), start=ring.one)
    else:
        inv_det_c, C = _inv_bezoutian_det(f)
    factor = alpha ** f.n_vars

    def solve():
        aug = np.zeros((mu, 2 * mu, ring.m), dtype=np.int32)
        aug[:, :mu] = bezoutian(f) if C is None else C
        aug[np.arange(mu), mu + np.arange(mu)] = factor.coeffs
        return solve_coded(coded(ring), aug, mu)

    return GramForm(ring, f.n_vars, mu, lambda: list(alg.basis), solve, alpha,
                    factor ** mu * inv_det_c)


def disc_square_class(G: GramForm):
    """Square class of the Gram determinant."""
    ring = G.ring
    if isinstance(ring, Field):
        if ring.p == 2:
            raise EvenCharacteristic(
                "characteristic-2 discriminants live over the Witt lift"
            )
        return SquareClass(ring, G.det)
    return square_class_normalize(G.det)


def tensor_gram(G1: GramForm, G2: GramForm) -> GramForm:
    """Gram matrix of the product pairing on the sorted product basis; as a
    permuted Kronecker product it has det(G1)^mu2 * det(G2)^mu1."""
    if G1.ring != G2.ring:
        raise RingMismatch("tensor factors over different rings")
    if G1.scale != G2.scale:
        raise RingMismatch("tensor factors with different differential scales")
    pairs = [
        (i, j, tuple(G1.basis[i]) + tuple(G2.basis[j]))
        for i in range(G1.mu)
        for j in range(G2.mu)
    ]
    pairs.sort(key=lambda t: mono_key(t[2]))
    basis = [e for _, _, e in pairs]

    def solve():
        M1, M2 = G1.matrix, G2.matrix
        return [[M1[i1][j1] * M2[i2][j2] for j1, j2, _ in pairs] for i1, i2, _ in pairs]

    return GramForm(G1.ring, G1.n_vars + G2.n_vars, len(basis), lambda: basis, solve,
                    G1.scale, G1.det ** G2.mu * G2.det ** G1.mu)


def extension_disc(ext: QuotientField) -> "SquareClass":
    """Square class of the trace form of the extension itself."""
    base = ext.base
    theta = ext.gen()
    r = ext.degree
    T = [[ext.trace(theta ** (a + b)) for b in range(r)] for a in range(r)]
    return SquareClass(base, det_ring(base, T))


def pushforward_disc(ext: QuotientField, form):
    """Discriminant over the base of a Gram matrix B over the extension,
    pushed down along the trace: disc(ext)^rank times the norm of det(B),
    which is the determinant over the base of B's restriction of scalars,
    whose entry at row (i, a), column (j, c) is the theta^c coefficient of
    theta^a * B_ij."""
    base = ext.base
    if base.p == 2:
        raise EvenCharacteristic("pushforward discriminants need odd characteristic")
    rank = len(form)
    r = ext.degree
    powers = [ext.gen() ** a for a in range(r)]
    scalars = [[(powers[a] * form[i][j]).coeffs[c]
                for j in range(rank) for c in range(r)]
               for i in range(rank) for a in range(r)]
    return SquareClass(base, extension_disc(ext).rep ** rank * det_ring(base, scalars))


def global_univariate_functional(field, f):
    """Residue functional on F_q[x]/(f') for a dense univariate f.

    The local engine truncates at the origin; this variant keeps every root
    of the derivative, which makes it comparable against root-by-root trace
    sums.  Returns (lam, fprime) with lam indexed by 1, x, ..., x^(mu-1).
    """
    from .unipoly import deriv_p, trim

    c = trim(deriv_p(f))
    mu = len(c) - 1
    if mu <= 0:
        raise SingularBezoutian("derivative is constant")
    C = [
        [c[i + j + 1] if i + j + 1 < len(c) else field.zero for j in range(mu)]
        for i in range(mu)
    ]
    e0 = [[field.one if i == 0 else field.zero] for i in range(mu)]
    X = solve_ring(field, C, e0)
    if X is None:
        raise SingularBezoutian("bezoutian of the derivative is singular")
    lam = [row[0] for row in X]
    return lam, c


def global_univariate_value(field, lam, fprime, poly):
    """Apply a global univariate functional to a dense polynomial."""
    from .unipoly import mod_p

    acc = field.zero
    for k, ck in enumerate(mod_p(poly, fprime)):
        acc = acc + lam[k] * ck
    return acc


def witt_lift(f: MultiPoly) -> MultiPoly:
    """Teichmueller lift of a characteristic-2 polynomial to W_3 coefficients."""
    ring = gr_create(f.ring)
    return MultiPoly(ring, f.n_vars, {e: teichmuller(ring, c) for e, c in f.terms.items()})


def arf_invariant(f: MultiPoly, lift_perturbation: MultiPoly | None = None) -> ArfClass:
    """Arf class of an isolated characteristic-2 singularity at the origin.

    The default lift takes Teichmueller representatives of the coefficients;
    an optional perturbation g changes the lift by 2*g.  The result does not
    depend on that choice, which the test suite exercises directly.  The
    class is read off det G of the lift at scale 1; milnor_algebra checks
    the lift's basis against its reduction's, and n_vars*mu is even, as it
    refuses an odd mu in an odd number of variables; a lift that misses
    the cache reads its reduction's field algebra, f's, before its own.
    """
    field = f.ring
    if not isinstance(field, Field) or field.p != 2:
        raise OddCharacteristic("Arf invariants are for characteristic 2")
    f_w = witt_lift(f)
    ring = f_w.ring
    if lift_perturbation is not None:
        g = lift_perturbation
        if g.ring != ring:
            g = g.map_coeffs(lambda c: ring(c), ring)
        f_w = f_w + g.scale(2)
    G = gram_matrix(f_w, 1)
    return arf_from_unit(G.det, f.n_vars * G.mu // 2)
