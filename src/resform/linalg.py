"""Linear algebra over the coefficient rings.

Every coefficient ring is a gfield.DigitRing, (Z/b)[x]/(h) with h monic of
degree m: a finite field F_{p^m} = F_p[x]/(h) has b = p, and the length-3
Witt ring W_3(F_{2^m}) = Z/8[x]/(h) has b = 8.  The kernel reads b, the
residue characteristic and the reduction rows off the ring, stores an
element as its m digits mod b and a matrix as a (rows, cols, m) integer
array.  A product convolves the digits and folds x^m..x^{2m-2} back through
the reduction rows, so one elimination serves every such ring at any size.
The folding table is laid out once per ring so that d @ _S is the
multiplication matrix of d; a pivot step is then two plain matrix
products, one for the multipliers of the rows it clears and one applying
them to the pivot row.  Callers that build their matrix as digits (the
Milnor relation matrices) call CodedOps.rref on it directly, so rref is the
one elimination loop.  It reduces its argument in place: every caller
builds the array for that one call.  CodedOps.matmul is the one matrix
product on digits, the same trick once more: the multiplication matrices of
B's entries, laid side by side, turn A @ B into one integer matrix product
with inner dimension k*m, accumulated in int64 and reduced once.  The
residue engine forms the Bezoutian matrix C = N_x^T * Delta * N_y with it,
and milnor the normal forms of a tensor product from its blocks';
CodedOps.fold turns the coefficients of a polynomial in the generator x,
such as the Bezoutian's unpacked ones, into digits.
unit_det reads a determinant off rref's pivots: det_ring multiplies the
pivot values of an encoded element matrix, and the residue engine the pivot
inverses of the Bezoutian matrix, built as digits, whose inverse
determinant is all the discriminant needs.  A pivot's inverse is the one
its scaling step already uses (row 0 of its memoised multiplication
matrix), so 1/det costs products only; the Milnor scan reads a Morse
point's 1/det C the same way.  solve_coded eliminates a digit [M | B]
whose first n columns are M, so one elimination gives the whole solution,
and decodes only X; solve_ring encodes element rows for it.  The residue
engine inverts the Bezoutian matrix with solve_coded, B a multiple of I,
only when the Gram matrix itself is asked for.

Row reduction only ever uses unit pivots.  Over a field that loses nothing.
Over the truncated Witt ring a column whose remaining entries are nonzero
but all divisible by 2 cannot be cleared that way; we report the column and
let the caller decide what that means (for Milnor algebras it means the
quotient is not free, for determinants it means the result is not a unit).

Matrices whose entries are integers or polynomials (the divided
differences behind the Bezoutian, the Sylvester matrices over Z[c_0..c_d])
have one determinant, det_expand, a memoised minor expansion that never
divides.  Its caller may hand it the product to use, as the Bezoutian does
to drop the terms whose normal form is zero as soon as they are formed.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import NonUnit
from .mpoly import _czero

_CODED_CACHE: dict = {}
# Pivot inverses kept per ring; a W_3(F_1024) memo otherwise grows with
# every distinct pivot value it meets.
_INVERSES_MAX = 1024


class CodedOps:
    """Digit-plane arithmetic and elimination for one ring (Z/b)[x]/(h).

    Digits are int32: an unreduced product sums at most m^2 terms, each
    two digits times a table digit.
    """

    __slots__ = ("ring", "size", "base", "residue", "_mask", "_elem", "_S", "_inv", "_powers")

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
        # row i holds the digits of x^(i+j) for j = 0..m-1, side by side, so
        # d @ _S is the multiplication matrix of d, flattened (_times)
        self._S = red[np.add.outer(np.arange(m), np.arange(m))].reshape(m, m * m)
        self._inv: dict = {}
        # digits of x^0, x^1, ..., for fold, which extends them past x^(2m-2)
        self._powers = red.astype(np.int64)

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

    def _times(self, D):
        """Multiplication matrices of the entries of D, shape (..., m, m):
        v @ M is the digit vector of v * d, unreduced."""
        m = len(self._S)
        return (D @ self._S).reshape(*D.shape[:-1], m, m)

    def _inverse_times(self, d):
        """Multiplication matrix of the inverse of the unit with digits d:
        v @ M is the digit vector of v / d.  Memoised per ring, at most
        _INVERSES_MAX of them, the oldest dropped first."""
        key = d.tobytes()
        M = self._inv.get(key)
        if M is None:
            if len(self._inv) >= _INVERSES_MAX:
                del self._inv[next(iter(self._inv))]
            inv = self._elem(self.ring, d.tolist()).inverse()
            M = self._inv[key] = self._times(np.array(inv.coeffs, dtype=np.int32))
        return M

    def fold(self, R):
        """Digits of sum_k R[:, k] * x^k for residues R (T, K) mod b, as a
        (T, m) array: column k adds its multiples of the digits of x^k mod
        h.  Past x^(2m-2) they are read off the ring's reduction and kept."""
        K = R.shape[1]
        if K > len(self._powers):
            self._powers = np.array([self.ring([0] * k + [1]).coeffs for k in range(K)],
                                    dtype=np.int64)
        return self._reduce(R @ self._powers[:K]).astype(np.int32)

    def matmul(self, A, B):
        """A @ B for digit matrices A (r, k, m) and B (k, c, m), reduced.

        Row (k, u) of the flattened multiplication matrices of B holds the
        digits of x^u * B[k, j] for every j, so the digits of A's row i
        against them sum to the product's row i.  Each sum has k*m terms
        below b^2, accumulated in int64, so no inner dimension overflows.
        """
        r, k, m = A.shape
        c = B.shape[1]
        T = self._reduce(self._times(B)).transpose(0, 2, 1, 3).reshape(k * m, c * m)
        X = A.reshape(r, k * m).astype(np.int64) @ T
        return self._reduce(X).astype(np.int32).reshape(r, c, m)

    def product(self, values):
        """Product of digit lists, such as rref's pivot values, as an element."""
        return math.prod((self._elem(self.ring, v) for v in values), start=self.ring.one)

    def rref(self, A):
        """Reduce A in place; returns (A, pivot cols, stuck col, pivot
        values, pivot inverses).

        Each pivot step moves the first row with a unit in the column up,
        scales it to 1 there and clears the column from the other rows,
        touching only the rows with a nonzero entry in it.  Columns without
        a unit entry are skipped; over a local ring their non-unit residue
        ends up in the leftover rows, and a nonzero leftover row is what
        certifies a non-free quotient.  The pivot values are digit lists,
        negated after a row swap, so their product is the determinant of
        the pivot block.  The scaling step already forms each value's
        inverse: row 0 of its multiplication matrix is the inverse's digits,
        negated with the value, so the product of the pivot inverses is
        1/det of the pivot block, with no inverse() of its own.
        """
        nrows, ncols, _ = A.shape
        # over a field every nonzero entry is a unit
        field = self.residue == self.base
        pivots, values, inverses = [], [], []
        prow = 0
        for col in range(ncols):
            if prow == nrows:
                break
            below = A[prow:, col]
            units = (below if field else below % self.residue).any(axis=1).nonzero()[0]
            if not units.size:
                continue
            r = prow + int(units[0])
            if r != prow:
                A[[prow, r]] = A[[r, prow]]
            P = A[prow]
            M = self._inverse_times(P[col])
            value, inverse = P[col], M[0]
            if r != prow:
                value, inverse = -value % self.base, -inverse % self.base
            values.append(value.tolist())
            inverses.append(inverse.tolist())
            P[:] = self._reduce(P @ M)
            nz = A[:, col].any(axis=1)
            nz[prow] = False
            rows = nz.nonzero()[0]
            if rows.size:
                # over a field the pivot row is zero left of col; over the Witt
                # ring skipped columns there may hold non-units
                lo = col if field else 0
                A[rows, lo:] = self._reduce(A[rows, lo:] - P[lo:] @ self._times(A[rows, col]))
            pivots.append(col)
            prow += 1
        leftover = A[prow:].any(axis=(0, 2)).nonzero()[0]
        stuck = int(leftover[0]) if leftover.size else None
        return A, pivots, stuck, values, inverses


def coded(ring):
    """The kernel of a field or Galois ring, built once per ring."""
    ops = _CODED_CACHE.get(ring)
    if ops is None:
        ops = _CODED_CACHE[ring] = CodedOps(ring)
    return ops


def unit_det(ops, A):
    """rref of the square digit array A; returns (reduced, k, values,
    inverses), k the first column without a unit pivot (len(A) when there
    is none).  When k == len(A) the products of rref's pivot values and of
    its pivot inverses are det A and 1/det A."""
    R, pivots, _, values, inverses = ops.rref(A)
    k = next((j for j, c in enumerate(pivots) if j != c), len(pivots))
    return R, k, values, inverses


def det_ring(ring, mat):
    """Determinant, the product of rref's pivot values.  Rows from the first
    non-pivot column k on are only combined among themselves after step k,
    so their column-k entries are all zero (det 0) or hold a non-unit: raise."""
    if not mat:
        return ring(1)
    ops = coded(ring)
    R, k, values, _ = unit_det(ops, ops.encode_matrix(mat))
    if k == len(mat):
        return ops.product(values)
    if R[k:, k].any():
        raise NonUnit("determinant is divisible by 2")
    return ring.zero


def solve_ring(ring, mat, rhs):
    """Solve mat * X = rhs for an n x k rhs given as rows; returns X as
    rows, or None when the matrix is not invertible."""
    if not mat:
        return []
    ops = coded(ring)
    aug = ops.encode_matrix([list(row) + list(b) for row, b in zip(mat, rhs)])
    return solve_coded(ops, aug, len(mat))


def solve_coded(ops, aug, n):
    """Solve M * X = B from the digit array [M | B], M its first n columns,
    in place; returns X's rows as elements, or None when M is not
    invertible."""
    A, pivots, _, _, _ = ops.rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [ops.decode_row(row) for row in A[:n, n:]]


def det_expand(mat, mul=operator.mul):
    """Determinant of a square matrix of integers or polynomials, without
    division, so it holds over Z, a field or W_3 alike.

    Expands along the rows top-down and memoises each minor on its column
    tuple (the row is implied by the tuple's length).  Zero entries are
    skipped and a zero minor is absent, so a dense n x n matrix costs
    n*2^(n-1) products and a diagonal one n.  Every product of an entry and
    a minor is mul(entry, minor); a mul that drops the terms of an ideal
    gives the determinant modulo that ideal.
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
            term = mul(row[j], sub)
            if i % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is not None and _czero(acc):
            acc = None
        memo[cols] = acc
        return acc

    det = minor(tuple(range(n)))
    return mat[0][0] * 0 if det is None else det
