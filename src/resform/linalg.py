"""Linear algebra over the coefficient rings.

Every coefficient ring is (Z/b)[x]/(h) with h monic of degree m: a finite
field F_{p^m} = F_p[x]/(h) has b = p, and the length-3 Witt ring
W_3(F_{2^m}) = Z/8[x]/(h) has b = 8.  The kernel stores an element as its m
digits mod b and a matrix as a (rows, cols, m) integer array.  A product
convolves the digits and folds x^m..x^{2m-2} back through the ring's
reduction rows, so one elimination serves every such ring at any size.

Row reduction only ever uses unit pivots.  Over a field that loses nothing.
Over the truncated Witt ring a column whose remaining entries are nonzero
but all divisible by 2 cannot be cleared that way; we report the column and
let the caller decide what that means (for Milnor algebras it means the
quotient is not free, for determinants it means the result is not a unit).
"""

from __future__ import annotations

import numpy as np

from .errors import NonUnit
from .mpoly import MultiPoly

_CODED_CACHE: dict = {}


class CodedOps:
    """Digit-plane arithmetic and elimination for one ring (Z/b)[x]/(h).

    Digits are int32: a product sums m terms below b^2 before it is reduced.
    """

    __slots__ = ("ring", "size", "base", "residue", "_elem", "_S", "_inv")

    def __init__(self, ring):
        if hasattr(ring, "p"):
            b, residue = ring.p, ring.p
        else:
            b, residue = 8, 2
        m = ring.m
        self.ring = ring
        self.size = b ** m
        self.base = b
        # an entry is a unit when its digits mod the residue characteristic
        # are not all zero
        self.residue = residue
        self._elem = type(ring.one)
        # digits of x^0..x^(2m-2), the top m-1 from the ring's reduction rows
        red = np.vstack([np.eye(m, dtype=np.int32),
                         np.array(ring._xpow, dtype=np.int32).reshape(-1, m)])
        # _S[i, j] holds the digits of x^(i+j)
        self._S = red[np.add.outer(np.arange(m), np.arange(m))]
        self._inv: dict = {}

    def encode_matrix(self, rows):
        return np.array([[x.coeffs for x in row] for row in rows], dtype=np.int32)

    def decode_row(self, row):
        ring, elem = self.ring, self._elem
        return [elem(ring, c) for c in row.tolist()]

    def _reduce(self, X):
        """X mod b in place, by floor division, which numpy does fast for a scalar."""
        X -= (X // self.base) * self.base
        return X

    def _units(self, X):
        return (X % self.residue).any(axis=-1)

    def _row_times(self, row):
        """(m, cols*m) matrix U with F @ U the products F[r] * row[c], unreduced."""
        return np.einsum("cj,ijk->ick", row, self._S).reshape(len(self._S), -1)

    def _inverse_times(self, d):
        """Multiplication matrix of the inverse of the unit with digits d:
        v @ M is the digit vector of v / d.  Memoised per ring."""
        key = d.tobytes()
        M = self._inv.get(key)
        if M is None:
            inv = self._elem(self.ring, d.tolist()).inverse()
            M = self._inv[key] = self._row_times(np.array([inv.coeffs], dtype=np.int32))
        return M

    def _pivot(self, A, prow, r, col, first):
        """Move row r to prow, scale it to 1 at col, and clear col from the
        other rows from index first on, touching only the rows with a
        nonzero entry in col."""
        if r != prow:
            A[[prow, r]] = A[[r, prow]]
        P = A[prow]
        P[:] = self._reduce(P @ self._inverse_times(P[col]))
        below = A[first:]
        nz = below[:, col].any(axis=1)
        if prow >= first:
            nz[prow - first] = False
        rows = np.flatnonzero(nz)
        if rows.size:
            # over a field the pivot row is zero left of col; over the Witt
            # ring skipped columns there may hold non-units
            lo = col if self.residue == self.base else 0
            U = np.einsum("ri,in->rn", below[rows, col], self._row_times(P[lo:]))
            U = U.reshape(rows.size, -1, P.shape[1])
            below[rows, lo:] = self._reduce(below[rows, lo:] - U)

    def rref(self, A):
        """Reduce a copy; returns (matrix, pivot cols, stuck col).

        Columns without a unit entry are skipped; over a local ring their
        non-unit residue ends up in the leftover rows, and a nonzero
        leftover row is what certifies a non-free quotient.
        """
        A = A.copy()
        nrows, ncols, _ = A.shape
        pivots = []
        prow = 0
        for col in range(ncols):
            if prow == nrows:
                break
            units = np.flatnonzero(self._units(A[prow:, col]))
            if units.size == 0:
                continue
            self._pivot(A, prow, prow + int(units[0]), col, 0)
            pivots.append(col)
            prow += 1
        stuck = None
        if prow < nrows:
            leftover = np.flatnonzero(A[prow:].any(axis=(0, 2)))
            if leftover.size:
                stuck = int(leftover[0])
        return A, pivots, stuck

    def det(self, A):
        """Determinant, or None when a column keeps only non-unit entries."""
        A = A.copy()
        det = self.ring.one
        for k in range(A.shape[0]):
            units = np.flatnonzero(self._units(A[k:, k]))
            if units.size == 0:
                return None if A[k:, k].any() else self.ring.zero
            r = k + int(units[0])
            det = det * self._elem(self.ring, A[r, k].tolist())
            if r != k:
                det = -det
            self._pivot(A, k, r, k, k + 1)
        return det


def coded(ring):
    """The kernel of a field or Galois ring, built once per ring."""
    ops = _CODED_CACHE.get(ring)
    if ops is None:
        ops = _CODED_CACHE[ring] = CodedOps(ring)
    return ops


def rref_ring(ring, rows):
    """Unit-pivot reduced row echelon form.

    Returns (rows as elements, pivot column list, stuck column or None).
    """
    if not rows:
        return [], [], None
    ops = coded(ring)
    A, pivots, stuck = ops.rref(ops.encode_matrix(rows))
    return [ops.decode_row(r) for r in A], pivots, stuck


def det_ring(ring, mat):
    """Determinant by elimination.  Over the Witt ring a non-unit
    determinant cannot be pinned down with unit pivots, so raise."""
    if not mat:
        return ring(1)
    ops = coded(ring)
    det = ops.det(ops.encode_matrix(mat))
    if det is None:
        raise NonUnit("determinant is divisible by 2")
    return det


def solve_ring(ring, mat, rhs):
    """Solve mat * x = rhs; None when the matrix is not invertible."""
    n = len(mat)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    rows, pivots, stuck = rref_ring(ring, aug)
    if stuck is not None or len(pivots) != n or any(p >= n for p in pivots):
        return None
    return [rows[i][n] for i in range(n)]


def _exact_div(a, b):
    if isinstance(a, int):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("non-exact integer division in elimination")
        return q
    return poly_exact_div(a, b)


def poly_exact_div(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    """Exact division of integer multivariate polynomials."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    d_terms = den.sorted_terms()
    de, dc = d_terms[0]
    out = {}
    cur = dict(num.terms)
    while cur:
        ne, nc = max(cur.items(), key=lambda t: (sum(t[0]), t[0]))
        qe = tuple(a - b for a, b in zip(ne, de))
        if any(k < 0 for k in qe) or nc % dc:
            raise ArithmeticError("non-exact polynomial division")
        qc = nc // dc
        out[qe] = out.get(qe, 0) + qc
        for te, tc in den.terms.items():
            ke = tuple(a + b for a, b in zip(qe, te))
            v = cur.get(ke, 0) - qc * tc
            if v:
                cur[ke] = v
            else:
                cur.pop(ke, None)
    return MultiPoly(num.ring, num.n_vars, out)


def det_bareiss(mat):
    """Fraction-free determinant for integer or integer-polynomial entries."""
    n = len(mat)
    if n == 0:
        return 1
    M = [list(row) for row in mat]

    def _zero(x):
        return x == 0 if isinstance(x, int) else x.is_zero()

    sign = 1
    denom = 1 if isinstance(M[0][0], int) else MultiPoly.const(
        M[0][0].ring, M[0][0].n_vars, 1
    )
    one = denom
    for k in range(n - 1):
        if _zero(M[k][k]):
            sel = next((r for r in range(k + 1, n) if not _zero(M[r][k])), None)
            if sel is None:
                return 0 if isinstance(one, int) else MultiPoly.zero(
                    one.ring, one.n_vars
                )
            M[k], M[sel] = M[sel], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = _exact_div(M[k][k] * M[i][j] - M[i][k] * M[k][j], denom)
            M[i][k] = 0 if isinstance(one, int) else one.scale(0)
        denom = M[k][k]
    d = M[n - 1][n - 1]
    return -d if sign < 0 else d
