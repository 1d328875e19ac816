"""Linear algebra over the coefficient rings.

Every coefficient ring is a gfield.DigitRing, (Z/b)[x]/(h) with h monic of
degree m: a finite field F_{p^m} = F_p[x]/(h) has b = p, and the length-3
Witt ring W_3(F_{2^m}) = Z/8[x]/(h) has b = 8.  The kernel reads b, the
residue characteristic and the reduction rows off the ring, stores an
element as its m digits mod b and a matrix as a (rows, cols, m) integer
array.  A product convolves the digits and folds x^m..x^{2m-2} back through
the reduction rows, so one elimination serves every such ring at any size.
Callers that build their matrix as digits (the Milnor relation matrices)
call CodedOps.rref on it directly, so rref is the one elimination loop.
unit_det reads a determinant off rref's pivots: det_ring applies it to an
encoded element matrix, and the residue engine to the encoded Bezoutian
matrix, whose determinant is all the discriminant needs.  solve_ring takes
its right-hand side as n x k rows: one elimination of [M | B] gives the
whole solution (the residue engine inverts the Bezoutian matrix this way,
with B a multiple of I, only when the Gram matrix itself is asked for).

Row reduction only ever uses unit pivots.  Over a field that loses nothing.
Over the truncated Witt ring a column whose remaining entries are nonzero
but all divisible by 2 cannot be cleared that way; we report the column and
let the caller decide what that means (for Milnor algebras it means the
quotient is not free, for determinants it means the result is not a unit).

Matrices whose entries are integers or polynomials (the Bezoutian, the
Sylvester matrices over Z[c_0..c_d]) have one determinant, det_expand, a
memoised minor expansion that never divides.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonUnit
from .mpoly import _czero

_CODED_CACHE: dict = {}


class CodedOps:
    """Digit-plane arithmetic and elimination for one ring (Z/b)[x]/(h).

    Digits are int32: a product sums m terms below b^2 before it is reduced.
    """

    __slots__ = ("ring", "size", "base", "residue", "_mask", "_elem", "_S", "_inv")

    def __init__(self, ring):
        m = ring.m
        self.ring = ring
        self.size = ring.b ** m
        self.base = ring.b
        # b = 2 or 8: X mod b is X & (b - 1), on negative int32 entries too
        self._mask = ring.b - 1 if ring.b & (ring.b - 1) == 0 else None
        # an entry is a unit when its digits mod the residue characteristic
        # are not all zero
        self.residue = ring.residue
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
        """X mod b in place: a bit mask when b is a power of two, else by
        floor division, which numpy does fast for a scalar."""
        if self._mask is not None:
            X &= self._mask
        else:
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

    def product(self, values):
        """Product of digit lists, such as rref's pivot values, as an element."""
        return math.prod((self._elem(self.ring, v) for v in values), start=self.ring.one)

    def _pivot(self, A, prow, r, col):
        """Move row r to prow, scale it to 1 at col, and clear col from the
        other rows, touching only the rows with a nonzero entry in col."""
        if r != prow:
            A[[prow, r]] = A[[r, prow]]
        P = A[prow]
        P[:] = self._reduce(P @ self._inverse_times(P[col]))
        nz = A[:, col].any(axis=1)
        nz[prow] = False
        rows = np.flatnonzero(nz)
        if rows.size:
            # over a field the pivot row is zero left of col; over the Witt
            # ring skipped columns there may hold non-units
            lo = col if self.residue == self.base else 0
            U = np.einsum("ri,in->rn", A[rows, col], self._row_times(P[lo:]))
            U = U.reshape(rows.size, -1, P.shape[1])
            A[rows, lo:] = self._reduce(A[rows, lo:] - U)

    def rref(self, A):
        """Reduce a copy; returns (matrix, pivot cols, stuck col, pivot values).

        Columns without a unit entry are skipped; over a local ring their
        non-unit residue ends up in the leftover rows, and a nonzero
        leftover row is what certifies a non-free quotient.  The pivot
        values are digit lists, negated after a row swap, so their product
        is the determinant of the pivot block.
        """
        A = A.copy()
        nrows, ncols, _ = A.shape
        pivots, values = [], []
        prow = 0
        for col in range(ncols):
            if prow == nrows:
                break
            units = np.flatnonzero(self._units(A[prow:, col]))
            if units.size == 0:
                continue
            r = prow + int(units[0])
            values.append((A[r, col] if r == prow else -A[r, col] % self.base).tolist())
            self._pivot(A, prow, r, col)
            pivots.append(col)
            prow += 1
        leftover = np.flatnonzero(A[prow:].any(axis=(0, 2)))
        stuck = int(leftover[0]) if leftover.size else None
        return A, pivots, stuck, values


def coded(ring):
    """The kernel of a field or Galois ring, built once per ring."""
    ops = _CODED_CACHE.get(ring)
    if ops is None:
        ops = _CODED_CACHE[ring] = CodedOps(ring)
    return ops


def unit_det(ops, A):
    """rref of the square digit array A; returns (reduced, k, det), k the
    first column without a unit pivot (len(A) when there is none) and det the
    product of the pivot values when k == len(A), else None."""
    R, pivots, _, values = ops.rref(A)
    k = next((j for j, c in enumerate(pivots) if j != c), len(pivots))
    return R, k, (ops.product(values) if k == len(A) else None)


def det_ring(ring, mat):
    """Determinant, the product of rref's pivot values.  Rows from the first
    non-pivot column k on are only combined among themselves after step k,
    so their column-k entries are all zero (det 0) or hold a non-unit: raise."""
    if not mat:
        return ring(1)
    ops = coded(ring)
    R, k, det = unit_det(ops, ops.encode_matrix(mat))
    if det is not None:
        return det
    if R[k:, k].any():
        raise NonUnit("determinant is divisible by 2")
    return ring.zero


def solve_ring(ring, mat, rhs):
    """Solve mat * X = rhs for an n x k rhs given as rows; returns X as
    rows, or None when the matrix is not invertible."""
    n = len(mat)
    if n == 0:
        return []
    ops = coded(ring)
    aug = ops.encode_matrix([list(row) + list(b) for row, b in zip(mat, rhs)])
    A, pivots, _, _ = ops.rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [ops.decode_row(row) for row in A[:n, n:]]


def det_expand(mat):
    """Determinant of a square matrix of integers or polynomials, without
    division, so it holds over Z, a field or W_3 alike.

    Expands along the rows top-down and memoises each minor on its column
    tuple (the row is implied by the tuple's length).  Zero entries are
    skipped and a zero minor is absent, so a dense n x n matrix costs
    n*2^(n-1) products and a diagonal one n.
    """
    n = len(mat)
    if n == 0:
        return 1
    memo: dict = {}

    def minor(cols):
        row = mat[n - len(cols)]
        if len(cols) == 1:
            return None if _czero(row[cols[0]]) else row[cols[0]]
        if cols in memo:
            return memo[cols]
        acc = None
        for i, j in enumerate(cols):
            if _czero(row[j]):
                continue
            sub = minor(cols[:i] + cols[i + 1:])
            if sub is None:
                continue
            term = row[j] * sub if i % 2 == 0 else -(row[j] * sub)
            acc = term if acc is None else acc + term
        if acc is not None and _czero(acc):
            acc = None
        memo[cols] = acc
        return acc

    det = minor(tuple(range(n)))
    return mat[0][0] * 0 if det is None else det
