"""The residue pairing engine.

From the Bezoutian of the partials we recover the residue functional, the
Gram matrix of the induced symmetric pairing on the Milnor algebra, its
discriminant square class, tensor and trace-pushforward laws, and the Arf
invariant of characteristic-2 singularities via the length-3 Witt lift.
"""

from __future__ import annotations

from .errors import (
    EvenCharacteristic,
    NonUnit,
    NonUnitScale,
    NotFlat,
    OddCharacteristic,
    OddProduct,
    RingMismatch,
    SingularBezoutian,
)
from .gfield import legendre
from .linalg import det_ring, solve_ring
from .milnor import milnor_algebra, mono_key
from .mpoly import MultiPoly, divided_difference, partials
from .unipoly import QuotientField
from .wittring import (
    ArfClass,
    arf_from_unit,
    gr_create,
    square_class_normalize,
    teichmuller,
)


def _is_unit(x) -> bool:
    if hasattr(x, "is_unit"):
        return x.is_unit()
    return not x.is_zero()


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
    """Symmetric Gram matrix of the residue pairing on a monomial basis."""

    __slots__ = ("ring", "n_vars", "basis", "matrix", "scale", "mu", "det")

    def __init__(self, ring, n_vars, basis, matrix, scale):
        mu = len(matrix)
        for i in range(mu):
            for j in range(i):
                if matrix[i][j] != matrix[j][i]:
                    raise SingularBezoutian("gram matrix is not symmetric")
        det = det_ring(ring, matrix) if mu else ring(1)
        if not _is_unit(det):
            raise NonUnit("gram determinant is not a unit")
        self.ring = ring
        self.n_vars = n_vars
        self.basis = basis
        self.matrix = matrix
        self.scale = scale
        self.mu = mu
        self.det = det

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "scale": repr(self.scale),
            "basis": [list(e) for e in self.basis],
            "gram": [[repr(x) for x in row] for row in self.matrix],
        }

    def __repr__(self):
        return f"GramForm(mu={self.mu}, scale={self.scale!r}, over {self.ring!r})"


def _poly_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    ring = mat[0][0].ring
    acc = MultiPoly.zero(ring, mat[0][0].n_vars)
    for j in range(n):
        piv = mat[0][j]
        if piv.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = piv * _poly_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def _residue_data(f: MultiPoly, reverse: bool = False):
    """(Milnor algebra, Bezoutian matrix, residue functional) of f."""
    alg = milnor_algebra(f)
    n = f.n_vars
    grads = partials(f)
    dd = [
        [divided_difference(grads[i], j, reverse=reverse) for j in range(n)]
        for i in range(n)
    ]
    delta = _poly_det(dd)
    mu = alg.mu
    zero = f.ring.zero
    C = [[zero] * mu for _ in range(mu)]
    for e, c in delta.terms.items():
        nx = alg.nf_monomial(e[:n])
        if not nx:
            continue
        ny = alg.nf_monomial(e[n:])
        for i, cx in nx.items():
            cc = c * cx
            for j, cy in ny.items():
                C[i][j] = C[i][j] + cc * cy
    if mu == 0:
        return alg, C, []
    rhs = [zero] * mu
    one_at = alg.basis_index.get((0,) * n)
    if one_at is None:
        raise SingularBezoutian("the unit monomial is not a standard monomial")
    rhs[one_at] = f.ring(1)
    ct = [[C[j][i] for j in range(mu)] for i in range(mu)]
    lam = solve_ring(f.ring, ct, rhs)
    if lam is None:
        raise SingularBezoutian("bezoutian matrix is not invertible")
    return alg, C, lam


def bezoutian(f: MultiPoly, reverse: bool = False):
    """Matrix of the Bezoutian class in A tensor A over the basis pairs."""
    return _residue_data(f, reverse)[1]


def residue_functional(f: MultiPoly, reverse: bool = False):
    """Coefficients of the residue functional over the monomial basis."""
    return _residue_data(f, reverse)[2]


def gram_matrix(f: MultiPoly, scale=1) -> GramForm:
    """Gram matrix of the pairing for the differential scale*dt."""
    alg, _, lam = _residue_data(f)
    ring = f.ring
    alpha = ring(scale)
    if not _is_unit(alpha):
        raise NonUnitScale(f"scale {alpha!r} is not a unit")
    factor = alpha ** f.n_vars
    mu = alg.mu
    G = [[ring.zero] * mu for _ in range(mu)]
    for i in range(mu):
        for j in range(i, mu):
            e = tuple(a + b for a, b in zip(alg.basis[i], alg.basis[j]))
            s = ring.zero
            for k, c in alg.nf_monomial(e).items():
                s = s + lam[k] * c
            G[i][j] = G[j][i] = factor * s
    return GramForm(ring, f.n_vars, list(alg.basis), G, alpha)


def disc_square_class(G: GramForm, N: int = 0):
    """Square class of (-1)^N times the Gram determinant."""
    ring = G.ring
    val = G.det if N % 2 == 0 else -G.det
    if hasattr(ring, "p"):
        if ring.p == 2:
            raise EvenCharacteristic(
                "characteristic-2 discriminants live over the Witt lift"
            )
        return SquareClass(ring, val)
    return square_class_normalize(val)


def tensor_gram(G1: GramForm, G2: GramForm) -> GramForm:
    """Gram matrix of the product pairing on the sorted product basis."""
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
    mat = [
        [G1.matrix[i1][j1] * G2.matrix[i2][j2] for j1, j2, _ in pairs]
        for i1, i2, _ in pairs
    ]
    return GramForm(G1.ring, G1.n_vars + G2.n_vars, basis, mat, G1.scale)


def extension_disc(ext: QuotientField) -> "SquareClass":
    """Square class of the trace form of the extension itself."""
    base = ext.base
    theta = ext.gen()
    r = ext.degree
    T = [[ext.trace(theta ** (a + b)) for b in range(r)] for a in range(r)]
    return SquareClass(base, det_ring(base, T))


def pushforward_disc(ext: QuotientField, form=None, disc=None, rank=None):
    """Discriminant over the base of a form pushed down along the trace.

    Either a full Gram matrix over the extension or its discriminant plus a
    rank may be supplied.  The answer is disc(ext)^rank times the norm of
    the discriminant upstairs.  For a full matrix B that norm is the
    determinant over the base of B's restriction of scalars, whose entry at
    row (i, a), column (j, c) is the theta^c coefficient of theta^a * B_ij.
    """
    base = ext.base
    if base.p == 2:
        raise EvenCharacteristic("pushforward discriminants need odd characteristic")
    if form is not None:
        rank = len(form)
        r = ext.degree
        powers = [ext.gen() ** a for a in range(r)]
        scalars = [[(powers[a] * form[i][j]).coeffs[c]
                    for j in range(rank) for c in range(r)]
                   for i in range(rank) for a in range(r)]
        norm = det_ring(base, scalars)
    elif disc is None or rank is None:
        raise ValueError("need either a form or a discriminant with a rank")
    else:
        norm = ext.norm(ext(disc))
    d_ext = extension_disc(ext)
    value = d_ext.rep ** rank * norm
    return SquareClass(base, value)


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
    rhs = [field.zero] * mu
    rhs[0] = field.one
    lam = solve_ring(field, C, rhs)
    if lam is None:
        raise SingularBezoutian("bezoutian of the derivative is singular")
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
    depend on that choice, which the test suite exercises directly.
    """
    field = f.ring
    if not hasattr(field, "p") or field.p != 2:
        raise OddCharacteristic("Arf invariants are for characteristic 2")
    f_w = witt_lift(f)
    ring = f_w.ring
    if lift_perturbation is not None:
        g = lift_perturbation
        if g.ring != ring:
            g = g.map_coeffs(lambda c: ring(c), ring)
        f_w = f_w + g.scale(2)
    alg2 = milnor_algebra(f)
    alg_w = milnor_algebra(f_w)
    if alg_w.basis != alg2.basis:
        raise NotFlat("Witt-lift basis does not match its mod-2 reduction")
    n_mu = f.n_vars * alg_w.mu
    if n_mu % 2:
        raise OddProduct(f"n_vars*mu = {n_mu} is odd")
    G = gram_matrix(f_w, 1)
    return arf_from_unit(G.det, n_mu // 2)
