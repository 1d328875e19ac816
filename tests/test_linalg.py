"""The digit-plane elimination kernel against a plain-Python eliminator, and
the minor-expansion determinant against plain cofactor expansion."""

import random
import time
import tracemalloc

import numpy as np
import pytest

from resform import linalg
from resform.errors import NonUnit, ResourceLimit
from resform.gfield import gf_create
from resform.linalg import coded, det_expand, det_ring, solve_ring
from resform.milnor import milnor_algebra
from resform.mpoly import ZZ, MultiPoly, parse_poly
from resform.residue import extension_disc, gram_matrix, pushforward_disc
from resform.unipoly import QuotientField, irreducible_poly
from resform.wittring import gr_create

NON_UNIT = "NonUnit"


def _is_unit(x) -> bool:
    return x.is_unit() if hasattr(x, "is_unit") else not x.is_zero()


def ref_rref(rows):
    """Unit-pivot reduced echelon form on element objects."""
    A = [list(row) for row in rows]
    nrows, ncols = len(A), len(A[0])
    pivots = []
    prow = 0
    for col in range(ncols):
        if prow == nrows:
            break
        sel = next((r for r in range(prow, nrows) if _is_unit(A[r][col])), None)
        if sel is None:
            continue
        A[prow], A[sel] = A[sel], A[prow]
        inv = A[prow][col].inverse()
        A[prow] = [inv * x for x in A[prow]]
        for r in range(nrows):
            if r != prow and not A[r][col].is_zero():
                c = A[r][col]
                A[r] = [x - c * y for x, y in zip(A[r], A[prow])]
        pivots.append(col)
        prow += 1
    stuck = next((col for col in range(ncols)
                  if any(not A[r][col].is_zero() for r in range(prow, nrows))), None)
    return A, pivots, stuck


def ref_det(ring, mat):
    """Determinant on element objects: 0 for a zero column below the
    pivots, NON_UNIT for a column holding only non-units there."""
    A = [list(row) for row in mat]
    n = len(A)
    det = ring(1)
    for k in range(n):
        sel = next((r for r in range(k, n) if _is_unit(A[r][k])), None)
        if sel is None:
            return NON_UNIT if any(not A[r][k].is_zero() for r in range(k, n)) else ring(0)
        if sel != k:
            A[k], A[sel] = A[sel], A[k]
            det = -det
        det = det * A[k][k]
        inv = A[k][k].inverse()
        for r in range(k + 1, n):
            if not A[r][k].is_zero():
                c = A[r][k] * inv
                A[r] = [x - c * y for x, y in zip(A[r], A[k])]
    return det


def _kernel_rref(ring, mat):
    ops = coded(ring)
    A, pivots, stuck, _, _ = ops.rref(ops.encode_matrix(mat))
    return [ops.decode_row(row) for row in A], pivots, stuck


def _kernel_det(ring, mat):
    try:
        return det_ring(ring, mat)
    except NonUnit:
        return NON_UNIT


def _random_entry(rng, ring, witt):
    """Zero a third of the time; over the Witt ring a third are non-units."""
    roll = rng.random()
    if roll < 0.33:
        return ring.zero
    coeffs = [rng.randrange(8 if witt else ring.p) for _ in range(ring.m)]
    if witt and roll < 0.66:
        coeffs = [2 * c for c in coeffs]
    return ring(coeffs)


def _random_matrices(rng, ring, witt, nrows, ncols):
    """A dense draw, one with a repeated row and one with a zero column."""
    draw = [[_random_entry(rng, ring, witt) for _ in range(ncols)] for _ in range(nrows)]
    repeated = [list(row) for row in draw]
    repeated[-1] = list(repeated[0])
    zero_col = [list(row) for row in draw]
    for row in zero_col:
        row[ncols // 2] = ring.zero
    return [draw, repeated, zero_col]


RINGS = [
    ("F_7", lambda: gf_create(7, 1)),
    ("F_9", lambda: gf_create(3, 2)),
    ("F_2^10", lambda: gf_create(2, 10)),
    ("F_2^11", lambda: gf_create(2, 11)),
    ("F_3^7", lambda: gf_create(3, 7)),
    ("W3(F_2)", lambda: gr_create(gf_create(2, 1))),
    ("W3(F_16)", lambda: gr_create(gf_create(2, 4))),
    ("W3(F_1024)", lambda: gr_create(gf_create(2, 10))),
]


@pytest.mark.parametrize("name, make", RINGS, ids=[name for name, _ in RINGS])
def test_kernel_matches_reference(name, make):
    ring = make()
    witt = ring.b != ring.residue
    rng = random.Random(f"linalg/{name}")
    stuck_seen = set()
    for nrows, ncols in ((1, 3), (4, 6), (6, 5), (7, 9)):
        for mat in _random_matrices(rng, ring, witt, nrows, ncols):
            got = _kernel_rref(ring, mat)
            assert got == ref_rref(mat)
            stuck_seen.add(got[2] is None)
    for n in (1, 3, 5, 6):
        for mat in _random_matrices(rng, ring, witt, n, n):
            assert _kernel_det(ring, mat) == ref_det(ring, mat)
    if witt:
        assert stuck_seen == {True, False}


def einsum_rref(ring, A):
    """The elimination written with einsum on an (m, m, m) folding table,
    S[i, j] the digits of x^(i+j): the reference for CodedOps.rref's two
    plain matrix products.  Reduces a copy; returns what rref returns."""
    A = A.copy()
    m, b, residue = ring.m, ring.b, ring.residue
    red = np.vstack([np.eye(m, dtype=np.int64),
                     np.array(ring._xpow, dtype=np.int64).reshape(-1, m)])
    S = red[np.add.outer(np.arange(m), np.arange(m))]

    def row_times(row):
        return np.einsum("cj,ijk->ick", row, S).reshape(m, -1)

    nrows, ncols, _ = A.shape
    pivots, values, inverses = [], [], []
    prow = 0
    for col in range(ncols):
        if prow == nrows:
            break
        units = np.flatnonzero((A[prow:, col] % residue).any(axis=1))
        if units.size == 0:
            continue
        r = prow + int(units[0])
        values.append((A[r, col] if r == prow else -A[r, col] % b).tolist())
        if r != prow:
            A[[prow, r]] = A[[r, prow]]
        P = A[prow]
        inv = type(ring.one)(ring, P[col].tolist()).inverse()
        inverses.append(list((inv if r == prow else -inv).coeffs))
        P[:] = (P @ row_times(np.array([inv.coeffs]))) % b
        rows = [k for k in range(nrows) if k != prow and A[k, col].any()]
        if rows:
            U = np.einsum("ri,in->rn", A[rows, col], row_times(P)).reshape(len(rows), ncols, m)
            A[rows] = (A[rows] - U) % b
        pivots.append(col)
        prow += 1
    leftover = np.flatnonzero(A[prow:].any(axis=(0, 2)))
    return A, pivots, int(leftover[0]) if leftover.size else None, values, inverses


KERNEL_RINGS = [
    ("F_5", lambda: gf_create(5, 1)),
    ("F_13", lambda: gf_create(13, 1)),
    ("F_8", lambda: gf_create(2, 3)),
    ("F_25", lambda: gf_create(5, 2)),
    ("F_3^5", lambda: gf_create(3, 5)),
    ("W3(F_2)", lambda: gr_create(gf_create(2, 1))),
    ("W3(F_4)", lambda: gr_create(gf_create(2, 2))),
    ("W3(F_256)", lambda: gr_create(gf_create(2, 8))),
]


@pytest.mark.parametrize("name, make", KERNEL_RINGS, ids=[name for name, _ in KERNEL_RINGS])
def test_kernel_matches_the_einsum_formulation(name, make):
    """Seeded random digit matrices, sparse and dense, some with repeated
    rows and over W_3 some with columns of non-units only: the reduced
    matrix, pivots, stuck column, pivot values and their inverses are the
    reference's."""
    ring = make()
    witt = ring.b != ring.residue
    ops = coded(ring)
    rng = np.random.default_rng(list(name.encode()))
    stuck_seen = set()
    for nrows, ncols in ((1, 1), (3, 5), (8, 6), (12, 20), (30, 18)):
        for density in (0.2, 0.6, 1.0):
            A = rng.integers(0, ring.b, size=(nrows, ncols, ring.m), dtype=np.int32)
            A[rng.random((nrows, ncols)) > density] = 0
            if witt and ncols > 2:
                A[:, rng.integers(ncols)] &= 6
            if nrows > 2:
                A[-1] = A[0]
            want = einsum_rref(ring, A)
            got = ops.rref(A.copy())
            assert (got[0] == want[0]).all()
            assert got[1:] == want[1:]
            stuck_seen.add(got[2] is None)
    if witt:
        assert stuck_seen == {True, False}


PRODUCT_RINGS = [
    ("F_13", lambda: gf_create(13, 1)),
    ("F_13^10", lambda: gf_create(13, 10)),
    ("F_2^10", lambda: gf_create(2, 10)),
    ("F_3^5", lambda: gf_create(3, 5)),
    ("W3(F_2)", lambda: gr_create(gf_create(2, 1))),
    ("W3(F_8)", lambda: gr_create(gf_create(2, 3))),
    ("W3(F_1024)", lambda: gr_create(gf_create(2, 10))),
]


@pytest.mark.parametrize("name, make", PRODUCT_RINGS, ids=[name for name, _ in PRODUCT_RINGS])
def test_the_coded_product_is_the_element_product(name, make):
    """CodedOps.matmul against sums of element products: small random
    shapes, a shape with an empty side, and an inner dimension of 4096
    whose entries are mostly the largest digits, where a sum of products
    kept in int32 would overflow."""
    ring = make()
    ops = coded(ring)
    rng = random.Random(f"matmul/{name}")
    top = [ring.b - 1] * ring.m

    def draw(rows, cols, full=0.0):
        return [[ring(top if rng.random() < full else
                      [rng.randrange(ring.b) for _ in range(ring.m)])
                 for _ in range(cols)] for _ in range(rows)]

    for (r, k, c), full in [((3, 5, 4), 0.0), ((1, 7, 1), 0.0), ((4, 0, 3), 0.0),
                            ((2, 4096, 3), 0.9)]:
        A, B = draw(r, k, full), draw(k, c, full)
        got = ops.matmul(ops.encode_matrix(A).reshape(r, k, ring.m),
                         ops.encode_matrix(B).reshape(k, c, ring.m))
        want = [[sum((A[i][t] * B[t][j] for t in range(k)), ring.zero) for j in range(c)]
                for i in range(r)]
        assert got.shape == (r, c, ring.m)
        assert [ops.decode_row(row) for row in got] == want


def test_a_bounded_inverse_memo_changes_no_result(monkeypatch):
    """With room for two pivot inverses per ring, rref drops the oldest and
    recomputes it when asked again: every result is the unbounded one's."""
    rings = [make() for _, make in KERNEL_RINGS]
    rng = np.random.default_rng(7)
    mats = [(ring, rng.integers(0, ring.b, size=(10, 12, ring.m), dtype=np.int32))
            for ring in rings for _ in range(3)]
    monkeypatch.setattr(linalg, "_CODED_CACHE", {})
    want = [coded(ring).rref(A.copy()) for ring, A in mats]
    monkeypatch.setattr(linalg, "_CODED_CACHE", {})
    monkeypatch.setattr(linalg, "_INVERSES_MAX", 2)
    for (ring, A), w in zip(mats, want):
        got = coded(ring).rref(A.copy())
        assert (got[0] == w[0]).all() and got[1:] == w[1:]
        assert len(coded(ring)._inv) <= 2
    assert max(len(coded(ring)._inv) for ring in rings) == 2


def test_an_elimination_holds_its_relation_matrix_once():
    """rref reduces the caller's array in place: the scan of this 4-variable
    input to the cap of 12 peaked at 52.5 MB of tracemalloc when rref
    copied its 25.6 MB largest matrix first.  The x^3*w term couples the
    variables, so f is scanned whole, not block by block."""
    f = parse_poly("x^3*y+x^3*w+x^2*z^2+z^5+w^2", gf_create(7, 1), ["x", "y", "z", "w"])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            milnor_algebra(f, cap=12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40_000_000, peak


def test_det_outcomes_over_the_witt_ring():
    """A unit value, 0 for a zero column, NonUnit for a column of non-units."""
    ring = gr_create(gf_create(2, 4))
    g = ring([0, 1])
    assert det_ring(ring, [[ring(1), g], [g, ring(3)]]) == ring(3) - g * g
    assert det_ring(ring, [[ring(1), ring(0)], [ring(0), ring(0)]]) == ring(0)
    with pytest.raises(NonUnit):
        det_ring(ring, [[ring(1), ring(0)], [ring(0), ring(2) * g]])


def test_solve_matches_reference_rows():
    """One column and the identity as right-hand sides, solved as rows."""
    field = gf_create(2, 11)
    rng = random.Random(11)
    eye = [[field(int(i == j)) for j in range(4)] for i in range(4)]
    mats = [[[field.decode(rng.randrange(field.q)) for _ in range(4)] for _ in range(4)]
            for _ in range(5)]
    mats.append(mats[0][:3] + [mats[0][0]])  # a repeated row: not invertible
    for mat in mats:
        column = [[field.decode(rng.randrange(field.q))] for _ in range(4)]
        for rhs in (column, eye):
            got = solve_ring(field, mat, rhs)
            ref = ref_rref([row + b for row, b in zip(mat, rhs)])
            if ref[1] == [0, 1, 2, 3]:
                assert got == [row[4:] for row in ref[0]]
                k = len(rhs[0])
                assert all(sum((a * x[c] for a, x in zip(row, got)), field.zero) == b[c]
                           for row, b in zip(mat, rhs) for c in range(k))
            else:
                assert got is None
                assert ref_det(field, mat).is_zero()


@pytest.mark.parametrize("p, m, r", [(3, 1, 2), (5, 1, 3), (3, 2, 2), (7, 1, 2)])
def test_pushforward_is_the_norm_of_the_determinant(p, m, r):
    base = gf_create(p, m)
    ext = QuotientField(base, irreducible_poly(base, r))
    rng = random.Random(f"pushforward/{p}/{m}/{r}")
    checked = 0
    for rank in (1, 2, 3):
        for _ in range(3):
            B = [[ext([base.decode(rng.randrange(base.q)) for _ in range(r)])
                  for _ in range(rank)] for _ in range(rank)]
            det = ref_det(ext, B)
            if det.is_zero():
                continue
            want = extension_disc(ext).rep ** rank * ext.norm(det)
            assert pushforward_disc(ext, form=B).rep == want
            checked += 1
    assert checked >= 6


def test_kernel_setup_is_small(monkeypatch):
    monkeypatch.setattr(linalg, "_CODED_CACHE", {})
    field = gf_create(2, 10)
    for ring in (field, gr_create(field)):
        tracemalloc.start()
        try:
            linalg.coded(ring)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (ring, peak)


def ref_cofactor_det(mat):
    """Cofactor expansion along the first row: n! products."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    acc = mat[0][0] * 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * ref_cofactor_det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def _int_entry(rng):
    return 0 if rng.random() < 0.33 else rng.randrange(-5, 6)


def _poly_entry(ring, n_vars, coeff):
    def draw(rng):
        if rng.random() < 0.33:
            return MultiPoly.zero(ring, n_vars)
        terms = {tuple(rng.randrange(3) for _ in range(n_vars)): coeff(rng)
                 for _ in range(rng.randrange(1, 4))}
        return MultiPoly(ring, n_vars, terms)
    return draw


def _f7_xy():
    f7 = gf_create(7, 1)
    return _poly_entry(f7, 2, lambda rng: f7(rng.randrange(7)))


def _w3_xy():
    ring = gr_create(gf_create(2, 2))
    return _poly_entry(ring, 2, lambda rng: ring([rng.randrange(8), rng.randrange(8)]))


DET_ENTRIES = [
    ("Z", lambda: _int_entry),
    ("Z[c0,c1]", lambda: _poly_entry(ZZ, 2, lambda rng: rng.randrange(-5, 6))),
    ("F_7[x,y]", _f7_xy),
    ("W3(F_4)[x,y]", _w3_xy),
]


@pytest.mark.parametrize("name, make", DET_ENTRIES, ids=[name for name, _ in DET_ENTRIES])
def test_det_expand_matches_cofactor_expansion(name, make):
    entry = make()
    rng = random.Random(f"det_expand/{name}")
    zero = entry(random.Random(0)) * 0
    for n in range(7):
        for _ in range(2 if n < 6 else 1):
            draw = [[entry(rng) for _ in range(n)] for _ in range(n)]
            shapes = [draw, [[x if i == j else zero for j, x in enumerate(row)]
                             for i, row in enumerate(draw)]]
            if n:
                zero_row = [list(row) for row in draw]
                zero_row[rng.randrange(n)] = [zero] * n
                zero_col = [list(row) for row in draw]
                k = rng.randrange(n)
                for row in zero_col:
                    row[k] = zero
                shapes += [zero_row, zero_col]
            if n > 1:
                repeated = [list(row) for row in draw]
                repeated[-1] = list(repeated[0])
                shapes.append(repeated)
            for mat in shapes:
                got = det_expand(mat)
                assert got == ref_cofactor_det(mat)
                assert type(got) is type(ref_cofactor_det(mat))


def test_det_expand_of_a_sparse_bezoutian_stays_linear():
    """A diagonal quadratic in 20 variables has a diagonal Bezoutian: 20
    products top-down, where enumerating every column subset visits 2^20
    minors (about 8 s on a 2-CPU host; 2^16 still fits the budget)."""
    field = gf_create(7, 1)
    f = sum((MultiPoly.var(field, 20, i) ** 2 for i in range(20)),
            MultiPoly.zero(field, 20))
    start = time.perf_counter()
    G = gram_matrix(f)
    assert time.perf_counter() - start < 1.0
    assert G.mu == 1
