"""Milnor algebras of isolated singularities.

The local algebra R[[x]]/(Jacobian ideal) is presented by elimination on
monomials below a truncation degree D.  Over a field D is the smallest D0
with m^{D0} contained in the Jacobian ideal; over the length-3 Witt ring the
bound 3*D0 works because (J + (2))^3 lies in J + (8) = J.
"""

from __future__ import annotations

from .errors import DegenerateFiber, NotFlat, NotIsolated, OddProduct, RingMismatch
from .linalg import rref_ring
from .mpoly import MultiPoly, partials
from . import unipoly

DEGREE_CAP = 24


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


def _is_field(ring) -> bool:
    return hasattr(ring, "p")


def _relation_rows(grads, upto: int, col_index, ring, n_vars: int):
    """Truncations of monomial multiples of the partials, as dense rows."""
    zero = ring.zero
    ncols = len(col_index)
    rows = []
    for g in grads:
        if g.is_zero():
            continue
        low = g.low_degree()
        for alpha in monomials_upto(n_vars, upto - low):
            row = [zero] * ncols
            hit = False
            for e, c in g.terms.items():
                shifted = tuple(a + b for a, b in zip(e, alpha))
                if sum(shifted) <= upto:
                    j = col_index[shifted]
                    row[j] = row[j] + c
                    hit = True
            if hit:
                rows.append(row)
    return rows


def _eliminate(grads, ring, n_vars: int, upto: int):
    """Reduced relation matrix on the monomials of degree <= upto.

    Columns run from the highest degree down; returns (columns, reduced
    rows, pivot columns, stuck column or None).
    """
    cols = sorted(monomials_upto(n_vars, upto), key=mono_key, reverse=True)
    col_index = {e: j for j, e in enumerate(cols)}
    rows = _relation_rows(grads, upto, col_index, ring, n_vars)
    return (cols, *rref_ring(ring, rows))


def _scan(f: MultiPoly, cap: int):
    """Smallest D0 with every degree-D0 monomial in J + m^{D0+1}, over a field.

    By graded Nakayama this certifies m^{D0} inside the Jacobian ideal of
    the complete local ring at the origin.  The certifying elimination also
    presents the algebra: its degree-D0 columns come first, each a pivot
    whose row is that monomial alone, so the remaining rows restricted to
    degree < D0 are the unique reduced echelon form of the relations there.
    Returns (D0, columns, rows, pivots) of that presentation.

    The search stops at the product of the partials' degrees: for an
    isolated singularity D0 <= mu, and mu is at most that product by the
    refined Bezout theorem.
    """
    if f.total_degree() < 1:
        raise NotIsolated("constant polynomial has no isolated singularity")
    grads = partials(f)
    if any(g.is_zero() for g in grads):
        raise NotIsolated(
            "a partial derivative vanishes identically, so the Jacobian ideal "
            "has fewer generators than variables"
        )
    bezout = 1
    for g in grads:
        bezout *= max(g.total_degree(), 1)
    for d0 in range(1, min(cap, bezout) + 1):
        cols, red, pivots, _ = _eliminate(grads, f.ring, f.n_vars, d0)
        top = sum(1 for e in cols if sum(e) == d0)
        if pivots[:top] == list(range(top)) and all(
            x.is_zero() for row in red[:top] for x in row[top:]
        ):
            rows = [row[top:] for row in red[top:len(pivots)]]
            return d0, cols[top:], rows, [c - top for c in pivots[top:]]
    if bezout < cap:
        raise NotIsolated(
            f"Jacobian ideal is not monomial-cofinite below degree {bezout}, "
            "the Bezout bound on the Milnor number"
        )
    raise NotIsolated(f"Jacobian ideal is not monomial-cofinite below degree {cap}")


class MilnorAlgebra:
    """Finite free presentation of R[x]/J on standard monomials."""

    __slots__ = ("ring", "n_vars", "D", "basis", "mu", "basis_index", "_nf")

    def __init__(self, ring, n_vars, D, basis, nf):
        self.ring = ring
        self.n_vars = n_vars
        self.D = D
        self.basis = basis
        self.mu = len(basis)
        self.basis_index = {e: i for i, e in enumerate(basis)}
        self._nf = nf

    def nf_monomial(self, exps) -> dict:
        """Sparse coefficient vector of a monomial over the basis."""
        e = tuple(exps)
        if sum(e) >= self.D:
            return {}
        return self._nf[e]

    def nf_poly(self, f: MultiPoly) -> dict:
        out: dict = {}
        for e, c in f.terms.items():
            for i, t in self.nf_monomial(e).items():
                v = out.get(i)
                v = c * t if v is None else v + c * t
                if v.is_zero():
                    out.pop(i, None)
                else:
                    out[i] = v
        return out

    def to_json(self) -> dict:
        return {"mu": self.mu, "basis": [list(e) for e in self.basis],
                "D": self.D}

    def __repr__(self):
        return f"MilnorAlgebra(mu={self.mu}, D={self.D}, over {self.ring!r})"


# Most recently used last.  The bound holds every algebra that the
# consumers of one polynomial share, and it is a bound rather than a clear
# so that a call costs the same however many polynomials came before it.
_ALGEBRAS: dict = {}
_ALGEBRAS_MAX = 256


def milnor_algebra(f: MultiPoly, ring=None, cap: int = DEGREE_CAP) -> MilnorAlgebra:
    """Quotient by the Jacobian ideal, presented below the truncation degree.

    Computed once per polynomial and cap; every consumer shares the result.
    """
    if ring is not None and ring != f.ring:
        raise RingMismatch("polynomial is not over the requested ring")
    ring = f.ring
    n = f.n_vars
    key = (ring, n, frozenset(f.terms.items()), cap)
    alg = _ALGEBRAS.pop(key, None)
    if alg is not None:
        _ALGEBRAS[key] = alg
        return alg
    if _is_field(ring):
        D, cols, red, pivots = _scan(f, cap)
    else:
        reduced = f.map_coeffs(lambda c: c.reduce(), ring.field)
        D = 3 * milnor_algebra(reduced, cap=cap).D
        cols, red, pivots, stuck = _eliminate(partials(f), ring, n, D - 1)
        if stuck is not None:
            raise NotFlat(
                f"monomial {cols[stuck]} carries a non-unit relation; quotient is not free"
            )
    pivot_set = set(pivots)
    basis = sorted((cols[j] for j in range(len(cols)) if j not in pivot_set),
                   key=mono_key)
    char = ring.p if _is_field(ring) else 2
    if char == 2 and n % 2 == 1 and len(basis) % 2 == 1:
        raise OddProduct(
            f"parity violated: odd mu={len(basis)} with odd n_vars={n} in characteristic 2"
        )
    basis_index = {e: i for i, e in enumerate(basis)}
    nf: dict = {e: {basis_index[e]: ring(1)} for e in basis}
    for k, c in enumerate(pivots):
        row = red[k]
        nf[cols[c]] = {
            basis_index[cols[j]]: -row[j]
            for j in range(len(cols))
            if j not in pivot_set and not row[j].is_zero()
        }
    alg = MilnorAlgebra(ring, n, D, basis, nf)
    if len(_ALGEBRAS) >= _ALGEBRAS_MAX:
        del _ALGEBRAS[next(iter(_ALGEBRAS))]
    _ALGEBRAS[key] = alg
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
