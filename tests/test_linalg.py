"""The digit-plane elimination kernel against a plain-Python eliminator."""

import random
import tracemalloc

import pytest

from resform import linalg
from resform.errors import NonUnit
from resform.gfield import gf_create
from resform.linalg import det_ring, rref_ring, solve_ring
from resform.residue import extension_disc, pushforward_disc
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
    witt = not hasattr(ring, "p")
    rng = random.Random(f"linalg/{name}")
    stuck_seen = set()
    for nrows, ncols in ((1, 3), (4, 6), (6, 5), (7, 9)):
        for mat in _random_matrices(rng, ring, witt, nrows, ncols):
            got = rref_ring(ring, mat)
            assert got == ref_rref(mat)
            stuck_seen.add(got[2] is None)
    for n in (1, 3, 5, 6):
        for mat in _random_matrices(rng, ring, witt, n, n):
            assert _kernel_det(ring, mat) == ref_det(ring, mat)
    if witt:
        assert stuck_seen == {True, False}


def test_det_outcomes_over_the_witt_ring():
    """A unit value, 0 for a zero column, NonUnit for a column of non-units."""
    ring = gr_create(gf_create(2, 4))
    g = ring([0, 1])
    assert det_ring(ring, [[ring(1), g], [g, ring(3)]]) == ring(3) - g * g
    assert det_ring(ring, [[ring(1), ring(0)], [ring(0), ring(0)]]) == ring(0)
    with pytest.raises(NonUnit):
        det_ring(ring, [[ring(1), ring(0)], [ring(0), ring(2) * g]])


def test_solve_matches_reference_rows():
    field = gf_create(2, 11)
    rng = random.Random(11)
    for _ in range(5):
        mat = [[field.decode(rng.randrange(field.q)) for _ in range(4)] for _ in range(4)]
        rhs = [field.decode(rng.randrange(field.q)) for _ in range(4)]
        got = solve_ring(field, mat, rhs)
        ref = ref_rref([row + [b] for row, b in zip(mat, rhs)])
        if ref[1] == [0, 1, 2, 3]:
            assert got == [row[4] for row in ref[0]]
            assert all(sum((a * x for a, x in zip(row, got)), field.zero) == b
                       for row, b in zip(mat, rhs))
        else:
            assert got is None


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
