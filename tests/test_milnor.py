import json
import random
import time
import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, strategies as st
from test_linalg import ref_rref

from resform import cli, linalg, milnor, mpoly
from resform.epsilon import verify_identity
from resform.errors import NotFlat, NotIsolated, OddProduct, ResourceLimit
from resform.gfield import DigitElem, gf_create
from resform.milnor import (
    family_milnor_profile,
    milnor_algebra,
    mono_key,
)
from resform.mpoly import MultiPoly, parse_poly, partials, variable_blocks
from resform.residue import arf_invariant, disc_square_class, gram_matrix, witt_lift
from resform.wittring import gr_create


def monomials_upto(n_vars: int, max_deg: int):
    """All exponent tuples with total degree <= max_deg, in lex order; the
    seeded samplers and the plain-Python eliminations draw from it."""

    def gen(k, budget):
        if k == 0:
            yield ()
            return
        for head in range(budget + 1):
            for rest in gen(k - 1, budget - head):
                yield (head,) + rest

    return list(gen(n_vars, max_deg))


def test_monomial_order_is_graded():
    ms = sorted(monomials_upto(2, 2), key=mono_key)
    assert ms == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_cusp_algebra_over_f7():
    f7 = gf_create(7, 1)
    alg = milnor_algebra(parse_poly("x^3", f7, ["x"]))
    assert alg.D == 2
    assert alg.basis == [(0,), (1,)]
    assert alg.mu == 2
    assert alg.nf_monomial((2,)) == {}


def test_fermat_cubic_basis_and_products():
    f7 = gf_create(7, 1)
    alg = milnor_algebra(parse_poly("x^3+y^3", f7, ["x", "y"]))
    assert alg.mu == 4
    assert alg.basis == [(0, 0), (1, 0), (0, 1), (1, 1)]
    # x^2 and y^2 die: they are multiples of the partials
    assert alg.nf_monomial((2, 0)) == {}
    assert alg.nf_monomial((0, 2)) == {}


def test_degree_bound_values():
    f7 = gf_create(7, 1)
    assert milnor_algebra(parse_poly("x^2", f7, ["x"])).D == 1
    # xy survives in degree 2, so the bound for the fermat cubic is 3
    assert milnor_algebra(parse_poly("x^3+y^3", f7, ["x", "y"])).D == 3
    assert milnor_algebra(parse_poly("x^4", f7, ["x"])).D == 3


def test_non_isolated_raises():
    f7 = gf_create(7, 1)
    with pytest.raises(NotIsolated):
        milnor_algebra(parse_poly("x^2*y", f7, ["x", "y"]), cap=8)
    with pytest.raises(NotIsolated):
        milnor_algebra(MultiPoly.const(f7, 1, f7(3)), cap=4)


@pytest.mark.parametrize("p, text", [
    (7, "x^3+y^3+z^3+x*y*z"),  # a singular member of the Hesse pencil: 2^3 = 1 mod 7
    (3, "x^2*y+z^2"),
    (5, "x^2+y^2"),  # the partial in z vanishes
])
def test_non_isolated_cones_are_rejected_quickly(p, text):
    """The scan stops at the Bezout bound on mu instead of climbing to the cap."""
    f = parse_poly(text, gf_create(p, 1), ["x", "y", "z"])
    start = time.perf_counter()
    with pytest.raises(NotIsolated):
        milnor_algebra(f)
    assert time.perf_counter() - start < 2.0


def test_nf_is_idempotent_on_basis():
    f5 = gf_create(5, 1)
    alg = milnor_algebra(parse_poly("x^4 + y^2 + x*y", f5, ["x", "y"]))
    for i, e in enumerate(alg.basis):
        assert alg.nf_monomial(e) == {i: f5(1)}


def test_witt_lift_structure_constants():
    ring = gr_create(gf_create(2, 1))
    f = MultiPoly(ring, 1, {(2,): ring(1), (3,): ring(1)})
    alg = milnor_algebra(f)
    assert alg.basis == [(0,), (1,)]
    # D0 = 2 fails: the elimination at 2 leaves u^2 + 6u, a tail in degree
    # k = 1, so D = 3*2 - 2*1; it is least, as u^3 = 4u below is not 0
    assert alg.D == 4
    assert alg.nf_monomial((2,)) == {1: ring(2)}
    # u^3 = u * u^2 = 2u^2 = 4u
    assert alg.nf_monomial((3,)) == {1: ring(4)}
    assert alg.nf_monomial((4,)) == {}


def test_witt_basis_reduces_to_field_basis():
    field = gf_create(2, 2)
    ring = gr_create(field)
    f2 = MultiPoly(field, 2, {(2, 0): field(1), (1, 1): field(1), (0, 2): field.gen()})
    fw = MultiPoly(ring, 2, {e: ring(c) for e, c in f2.terms.items()})
    assert milnor_algebra(fw).basis == milnor_algebra(f2).basis


def test_char2_odd_vars_mu_is_even():
    for m in (1, 2):
        field = gf_create(2, m)
        for text in ("u^3", "u^5", "u^2+u^3", "u^2+u^7"):
            f = parse_poly(text, field, ["u"])
            assert milnor_algebra(f).mu % 2 == 0


def test_family_profile_conserves_total():
    f7 = gf_create(7, 1)
    fam = MultiPoly(f7, 2, {(3, 0): f7(1), (2, 1): f7(1)})
    prof = family_milnor_profile(fam, f7, list(range(7)))
    assert all(entry["total"] == 2 for entry in prof)
    at0 = next(e for e in prof if e["value"] == "0")
    assert at0["points"] == [{"point": "0", "degree": 1, "mu": 2}]
    at1 = next(e for e in prof if e["value"] == "1")
    assert sorted(p["mu"] for p in at1["points"]) == [1, 1]


def test_family_profile_reports_conjugate_points():
    """Critical points off the base field show up with their degree."""
    f5 = gf_create(5, 1)
    # derivative 3x^2 + a; at a=1 the roots are conjugate over F_5(sqrt(3))
    fam = MultiPoly(f5, 2, {(3, 0): f5(1), (1, 1): f5(1)})
    prof = family_milnor_profile(fam, f5, [1])
    entry = prof[0]
    degrees = sorted(p["degree"] for p in entry["points"])
    assert entry["total"] == 2
    assert degrees in ([1, 1], [2])


def _object_relation_rows(grads, upto, col_index, ring, n_vars):
    """Truncated monomial multiples of the partials as rows of elements."""
    rows = []
    for g in grads:
        for alpha in monomials_upto(n_vars, upto - g.low_degree()):
            row = [ring.zero] * len(col_index)
            for e, c in g.terms.items():
                shifted = tuple(a + b for a, b in zip(e, alpha))
                if sum(shifted) <= upto:
                    row[col_index[shifted]] = c
            rows.append(row)
    return rows


def _d_minus_one_presentation(f, D):
    """Basis and normal forms from a fresh plain-Python elimination at
    degree D - 1, on element objects and without the digit kernel."""
    ring, n = f.ring, f.n_vars
    cols = sorted(monomials_upto(n, D - 1), key=mono_key, reverse=True)
    col_index = {e: j for j, e in enumerate(cols)}
    rows = _object_relation_rows(partials(f), D - 1, col_index, ring, n)
    red, pivots, _ = ref_rref(rows) if rows else ([], [], None)
    pivot_set = set(pivots)
    basis = sorted((cols[j] for j in range(len(cols)) if j not in pivot_set), key=mono_key)
    index = {e: i for i, e in enumerate(basis)}
    nf = {e: {index[e]: ring(1)} for e in basis}
    for k, c in enumerate(pivots):
        nf[cols[c]] = {index[cols[j]]: -red[k][j] for j in range(len(cols))
                       if j not in pivot_set and not red[k][j].is_zero()}
    return basis, nf


def _separable_sample(per_field=3):
    """Seeded sums of two or three blocks in disjoint variables, at most
    three variables in all, each (p, m, names, text).  A block is a power
    c*v^d with p not dividing d, or u^a + c*v^b + c'*u^i*v^j with
    i/a + j/b > 1, which its principal part keeps isolated.  Some block has
    degree 3 or more, so no sample is a Morse point."""
    rng = random.Random("separable")
    cases = []
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (2, 2), (2, 4)]:
        degrees = [d for d in range(2, 6) if d % p]
        coefs = (["", "g*", "g^2*", "(g+1)*"] if m > 1
                 else [""] + [f"{c}*" for c in range(2, p)])
        found = 0
        while found < per_field:
            shapes = rng.choice([[1, 1], [1, 1, 1], [2, 1], [1, 2]])
            names = iter("xyz")
            blocks = []
            for width in shapes:
                a, b = rng.choice(degrees), rng.choice(degrees)
                u = next(names)
                if width == 1:
                    blocks.append((a, f"{rng.choice(coefs)}{u}^{a}"))
                    continue
                v = next(names)
                i, j = rng.choice([(i, j) for i in range(1, a + 1) for j in range(1, b + 1)
                                   if i * b + j * a > a * b and i + j <= max(a, b) + 1])
                blocks.append((max(a, b), f"{u}^{a}+{rng.choice(coefs)}{v}^{b}"
                                          f"+{rng.choice(coefs)}{u}^{i}*{v}^{j}"))
            if max(d for d, _ in blocks) >= 3:
                cases.append((p, m, ",".join("xyz"[:sum(shapes)]),
                              "+".join(text for _, text in blocks)))
                found += 1
    return cases


@pytest.mark.parametrize("p, m, names, text", [
    (7, 1, "x,y", "x^3+y^3"),
    (5, 1, "x,y", "x^4+y^2+x*y"),
    (7, 1, "x,y,z", "x^3+y^3+z^3+3*x*y*z"),
    (3, 1, "x,y", "x^2*y+y^4+x^4"),
    (3, 2, "x,y", "x^4+g*y^2+x*y^2"),
    (5, 2, "x,y", "x^3+g*y^4+x*y"),
    (2, 11, "x,y", "x^3+g*y^3+x*y^2"),
    (2, 11, "u", "u^2+g*u^5"),
    # separable: the algebra is the tensor product of its blocks' algebras,
    # except at a Morse point
    (7, 1, "x,y,z", "x^2+2*y^2+3*z^2"),
    (7, 1, "x,y,z", "x^3+2*y^4+z^5"),
    (13, 1, "x,y,z", "x^2+y^3+z^4+7"),
    (7, 1, "x,y", "3+x^4+y^5"),
    (5, 2, "x,y,z", "x^3+g*y^4+x*y^2+z^3"),
    (2, 2, "x,y,z,w", "x^3+g*y^5+z^2+z*w+w^3"),
    (2, 4, "x,y", "g*x^5+y^3"),
] + _separable_sample())
def test_scan_presentation_matches_a_fresh_elimination_below_D(monkeypatch, p, m, names, text):
    """The presentation read off the certifying scan, or built as a tensor
    product of the blocks' presentations on its first read, equals the D-1
    elimination."""
    field = gf_create(p, m)
    vars_ = names.split(",")
    constants = {field.gen_symbol: field.gen()} if m > 1 else None
    f = parse_poly(text, field, vars_, constants=constants)
    built = _count_product_presentations(monkeypatch)
    alg = milnor_algebra(f)
    parts = variable_blocks(f)
    orders = [g.low_degree() for g in partials(f)]
    separable = len(parts) > 1 and min(orders) >= 1 and max(orders) > 1
    assert (alg.blocks is not None) == separable
    if separable:
        assert alg.D == sum(milnor_algebra(b).D for _, b in parts) - len(parts) + 1
        assert alg.mu == prod(milnor_algebra(b).mu for _, b in parts)
    assert built == []
    basis, nf = _d_minus_one_presentation(f, alg.D)
    assert alg.basis == basis
    assert built == ([f.n_vars] if separable else [])
    for e in monomials_upto(f.n_vars, alg.D - 1):
        assert alg.nf_monomial(e) == nf[e], e
    assert built == ([f.n_vars, "forms"] if separable else [])


def _count_product_presentations(monkeypatch):
    """Record n_vars of every product basis enumerated, and "forms" for
    every product's normal-form matrix N built."""
    built = []
    basis, forms = milnor.ProductAlgebra.basis.func, milnor.ProductAlgebra.normal_forms.func

    def counting(alg):
        enumerated = basis(alg)
        built.append(alg.n_vars)
        return enumerated

    def counting_forms(alg):
        N = forms(alg)
        built.append("forms")
        return N

    monkeypatch.setattr(milnor.ProductAlgebra.basis, "func", counting)
    monkeypatch.setattr(milnor.ProductAlgebra.normal_forms, "func", counting_forms)
    return built


SPLIT_SUMS = [
    (13, 1, "x,y,z", "x^6+y^6+z^6"),
    (5, 2, "x,y", "g*x^3+y^4"),
    (13, 1, "x,y,z", "2*x^2+y^3+5*z^4"),
    (11, 1, "x,y,z,w", "x^5+y^5+z^5+w^5"),
]


def _parse_case(p, m, names, text):
    field = gf_create(p, m)
    constants = {field.gen_symbol: field.gen()} if m > 1 else None
    return parse_poly(text, field, names.split(","), constants=constants)


@pytest.mark.parametrize("p, m, names, text", SPLIT_SUMS)
def test_verify_and_the_gram_det_of_a_split_sum_build_no_product_basis(monkeypatch, p, m, names, text):
    """verify, the Gram determinant at two scales and the discriminant read
    mu, D and det G off the blocks.  A product is composed once per
    polynomial and kept on it alone, so G's algebra is alg; it enumerates
    its product basis once, on the first read of a basis, and never again.
    A fresh, equal polynomial composes its own, which builds its own."""
    f = _parse_case(p, m, names, text)
    built = _count_product_presentations(monkeypatch)
    report = verify_identity(f)
    G = gram_matrix(f, 1)
    disc_square_class(gram_matrix(f, 3))
    alg = milnor_algebra(f)
    assert alg.blocks is not None and report["mu"] == G.mu == alg.mu
    assert alg not in milnor._ALGEBRAS.values()
    assert all(kept.blocks is None for kept in milnor._ALGEBRAS.values())
    assert built == []
    assert G.basis == alg.basis
    assert built == [f.n_vars]
    alg.nf_monomial(alg.monomials[0])
    assert alg.basis_index[G.basis[-1]] == alg.mu - 1
    assert built == [f.n_vars, "forms"]
    assert milnor_algebra(_parse_case(p, m, names, text)).basis == G.basis
    assert built == [f.n_vars, "forms", f.n_vars]


def _count_splits_and_products(monkeypatch):
    """Record every split computed afresh and every call that composes a
    product algebra, in order; a Witt lift's are marked "W3"."""
    seen = []
    split, product = mpoly._disjoint_blocks, milnor._product

    def label(kind, f):
        return kind if f.ring.b == f.ring.residue else f"W3 {kind}"

    def counting_split(f):
        seen.append(label("split", f))
        return split(f)

    def counting_product(f, cap):
        seen.append(label("product", f))
        return product(f, cap)

    monkeypatch.setattr(mpoly, "_disjoint_blocks", counting_split)
    monkeypatch.setattr(milnor, "_product", counting_product)
    return seen


@pytest.mark.parametrize("p, m, names, text", SPLIT_SUMS + [(2, 2, "x,y", "x^3+y^5")])
def test_a_warm_verify_of_a_split_sum_splits_once_and_composes_once(monkeypatch, p, m, names, text):
    """With its blocks eliminated, a verify of a fresh f composes one
    product, and the algebra and the catalog share one split of f.  Both
    are kept on f: a second verify of the same f splits and composes
    nothing, and a fresh f equal to it does both afresh.  In characteristic
    2 the Witt lift, a new polynomial on every verify, is split and
    composed once too, and reads its reduction's algebra off a new
    polynomial, which is split and composed once more."""
    verify_identity(_parse_case(p, m, names, text))
    f = _parse_case(p, m, names, text)
    seen = _count_splits_and_products(monkeypatch)
    lift = ["product", "split", "W3 product", "W3 split"] if p == 2 else []
    report = verify_identity(f)
    assert seen == ["product", "split"] + lift
    seen.clear()
    assert verify_identity(f) == report
    assert seen == lift
    seen.clear()
    assert verify_identity(_parse_case(p, m, names, text)) == report
    assert seen == ["product", "split"] + lift


def test_the_arf_of_a_split_sum_reads_no_product_basis(monkeypatch):
    """The W_3 lift splits like the field algebra, so arf compares the two
    bases block by block and builds neither product basis; verify reads
    none either."""
    field = gf_create(2, 2)
    f = parse_poly("x^5+y^5+z^3+w^3", field, ["x", "y", "z", "w"])
    built = _count_product_presentations(monkeypatch)
    first = arf_invariant(f)
    assert verify_identity(f)["mu"] == 64
    assert arf_invariant(f) == first
    assert milnor_algebra(witt_lift(f)).blocks is not None
    assert built == []


def test_a_split_quartic_in_eleven_variables_verifies_quickly(monkeypatch):
    """mu = 3^11 = 177147: verify reads mu and det G off the one-variable
    blocks and never enumerates the product basis or raises q to 974308."""
    field = gf_create(13, 1)
    n = 11
    f = MultiPoly(field, n, {tuple(4 * (j == i) for j in range(n)): field(i + 1)
                             for i in range(n)})
    built = _count_product_presentations(monkeypatch)
    start = time.perf_counter()
    report = verify_identity(f)
    assert time.perf_counter() - start < 2.0
    assert built == []
    assert report["mu"] == 3 ** 11
    assert report["geometric"]["q_exp"] == str(n * 3 ** 11 // 2)
    assert report["geometric"]["witness"] is None


def _normal_forms(alg):
    """Every normal form below D, by monomial."""
    return {e: alg.nf_monomial(e) for e in monomials_upto(alg.n_vars, alg.D - 1)}


def test_eliminations_share_one_bounded_monomial_memo(monkeypatch):
    """Columns and shift lists come from one memo keyed by (n_vars, upto, lo)
    and holding (columns, index) pairs: each key's degrees are listed once
    while it is held, the memo never holds more than _MONOMIALS_MAX
    monomials, and the algebra does not depend on what it holds.
    x^4+y^4+x^2*y^2 has partials of order 3, so its scan starts with the
    degree-5 test of the initial forms (lo = 5)."""
    f = parse_poly("x^4+y^4+x^2*y^2", gf_create(7, 1), ["x", "y"])
    listed = []
    combinations = milnor.itertools.combinations_with_replacement

    def counting(variables, d):
        listed.append(d)
        return combinations(variables, d)

    def held_degrees():
        return sum(max(upto - lo + 1, 0) for _, upto, lo in milnor._MONOMIALS)

    monkeypatch.setattr(milnor.itertools, "combinations_with_replacement", counting)
    monkeypatch.setattr(milnor, "_MONOMIALS", {})
    alg = milnor_algebra(f)
    assert (2, 5, 5) in milnor._MONOMIALS
    assert len(listed) == held_degrees()
    for cols, index in milnor._MONOMIALS.values():
        assert index == {e: j for j, e in enumerate(cols)}
    monkeypatch.setattr(milnor, "_ALGEBRAS", {})
    again = milnor_algebra(f)
    assert len(listed) == held_degrees()
    assert again.basis == alg.basis and _normal_forms(again) == _normal_forms(alg)
    monkeypatch.setattr(milnor, "_MONOMIALS_MAX", 12)
    monkeypatch.setattr(milnor, "_MONOMIALS", {})
    monkeypatch.setattr(milnor, "_ALGEBRAS", {})
    small = milnor_algebra(f)
    assert sum(len(cols) for cols, _ in milnor._MONOMIALS.values()) <= 12
    assert small.basis == alg.basis and _normal_forms(small) == _normal_forms(alg)


def test_the_monomials_of_a_range_are_counted_and_listed_in_one_order(monkeypatch):
    """_monomials lists _count's number of monomials, strictly falling under
    mono_key, each monomial of degree lo..hi once; a range below degree 0
    or with hi < lo is empty, and a negative lo means 0."""
    monkeypatch.setattr(milnor, "_MONOMIALS", {})
    for n in range(1, 5):
        every = monomials_upto(n, 10)
        for hi in range(11):
            for lo in range(hi + 1):
                cols, index = milnor._monomials(n, hi, lo)
                assert len(cols) == milnor._count(n, hi, lo)
                assert all(mono_key(a) > mono_key(b) for a, b in zip(cols, cols[1:]))
                assert set(cols) == {e for e in every if lo <= sum(e) <= hi}
                assert index == {e: j for j, e in enumerate(cols)}
        assert milnor._count(n, 4, -3) == milnor._count(n, 4, 0)
        assert milnor._count(n, 3, 4) == milnor._count(n, -1, 0) == 0
        assert milnor._monomials(n, 3, 4)[0] == milnor._monomials(n, -1, -2)[0] == []


def _ends_bounded(call, *args):
    """The ResourceLimit that call(*args) ends in, asserted to come within
    2 s and a 32 MB tracemalloc peak."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ResourceLimit) as err:
            call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 32_000_000, peak
    return str(err.value)


def test_a_relation_matrix_past_the_cell_bound_is_refused_before_it_is_listed():
    """The initial-form test of these two inputs (degree 117 in four
    variables, degree 11999 in two) would list millions of monomials; its
    shape is counted from binomials and refused first."""
    f = parse_poly("x^31+y^31+z^31+w^31+(x*y*z*w)^8", gf_create(7, 1), ["x", "y", "z", "w"])
    assert _ends_bounded(milnor_algebra, f) == (
        "the relation matrix in degree 117 would hold 469920 x 280840 x 1 digits, "
        "more than MAX_RELATION_CELLS = 33554432")
    f = parse_poly("x^6001+x*y^6000+y^6001", gf_create(2, 1), ["x", "y"])
    assert _ends_bounded(milnor_algebra, f) == (
        "the relation matrix in degree 11999 would hold 12000 x 12000 x 1 digits, "
        "more than MAX_RELATION_CELLS = 33554432")


def test_a_relation_matrix_past_the_bound_is_refused(monkeypatch):
    """With the bound below a scan's first matrix the scan raises
    ResourceLimit, naming the shape, the degree and the bound; a matrix of
    exactly the bound is built.  The partials of x^3+y^4+x*y^2 have order
    2, so its scan starts at Wiebe's bound s = 3, and certifies D0 = 3 on
    its first matrix, 6 x 10 x 1."""
    f = parse_poly("x^3+y^4+x*y^2", gf_create(7, 1), ["x", "y"])
    for bound in (5, 59):
        monkeypatch.setattr(milnor, "MAX_RELATION_CELLS", bound)
        message = ("^the relation matrix in degree 3 would hold 6 x 10 x 1 digits, "
                   f"more than MAX_RELATION_CELLS = {bound}$")
        with pytest.raises(ResourceLimit, match=message):
            milnor_algebra(f)
    monkeypatch.setattr(milnor, "MAX_RELATION_CELLS", 60)
    assert (milnor_algebra(f).mu, milnor_algebra(f).D) == (4, 3)


def test_a_product_past_the_bound_builds_no_normal_forms(monkeypatch):
    """A product's normal-form matrix is held to the relation matrices'
    bound: a read of a normal form raises ResourceLimit, naming the shape,
    on every read, and its basis and mu, enumerated before the bound was
    lowered, are still read.  x^3+y^4 has blocks of 2 and 3 monomials below
    D, mu 2 and 3."""
    f = parse_poly("x^3+y^4", gf_create(7, 1), ["x", "y"])
    alg = milnor_algebra(f)
    assert len(alg.basis) == len(alg.monomials) == 6
    monkeypatch.setattr(milnor, "MAX_RELATION_CELLS", 35)
    for _ in range(2):
        with pytest.raises(ResourceLimit, match="^the normal forms of the product would hold "
                                                "6 x 6 x 1 digits, more than MAX_RELATION_CELLS = 35$"):
            alg.nf_monomial((1, 1))
    assert alg.mu == len(alg.basis) == 6
    monkeypatch.setattr(milnor, "MAX_RELATION_CELLS", 36)
    assert alg.nf_monomial((1, 1)) == {alg.basis_index[(1, 1)]: gf_create(7, 1).one}


def test_a_product_enumerates_nothing_past_the_bound(monkeypatch):
    """A product's basis and monomials are held to the cell bound at 8
    digits an exponent, their sizes read off the blocks before either is
    enumerated, on every read; mu and D are still read.  x^3+y^4 has 6
    basis monomials and 6 monomials with a row, in 2 variables: 96 digits
    each."""
    f = parse_poly("x^3+y^4", gf_create(7, 1), ["x", "y"])
    alg = milnor_algebra(f)
    built = _count_product_presentations(monkeypatch)
    monkeypatch.setattr(milnor, "MAX_RELATION_CELLS", 95)
    for name in ("basis", "monomials", "basis"):
        with pytest.raises(ResourceLimit, match=f"^the {name} of the product would hold "
                                                "6 x 2 x 8 digits, more than MAX_RELATION_CELLS = 95$"):
            getattr(alg, name)
    assert (alg.mu, alg.D) == (6, 4) and built == []
    monkeypatch.setattr(milnor, "MAX_RELATION_CELLS", 96)
    assert len(alg.basis) == len(alg.monomials) == 6 and built == [2]


def test_a_read_at_a_lower_cap_returns_the_known_algebra(monkeypatch):
    """The cap bounds a scan and is no part of an algebra's identity: after
    a default read, a read at a cap below D returns the same algebra.  A
    fresh x^3+y^3 read at cap 2 composes its blocks' D = 2 into D = 3, as a
    product is held to what it builds, not to the cap."""
    f7 = gf_create(7, 1)
    f = parse_poly("x^3+y^3", f7, ["x", "y"])
    alg = milnor_algebra(f)
    assert alg.D == 3
    seen = _count_eliminations(monkeypatch)
    assert milnor_algebra(f, cap=2) is alg and seen == []
    fresh = milnor_algebra(parse_poly("x^3+y^3", f7, ["x", "y"]), cap=2)
    assert (fresh.D, fresh.mu, fresh.basis) == (3, 4, alg.basis)


@pytest.mark.parametrize("p, m, names, text, cap", [
    (7, 1, "x,y", "x^3+y^4+x*y^2", 10),
    (2, 1, "x,y", "x^3+y^3+x*y^2", 10),
    (2, 2, "x,y", "x^3+y^5", 10),
    (2, 1, "u", "u^2+u^5", 4),
])
def test_a_capped_read_then_a_default_read_eliminates_once(monkeypatch, p, m, names, text, cap):
    """A read at a cap that succeeds keeps the algebra for every later read
    of f, so a default read, and the arf that corpus A7 runs after its read
    at cap 10, eliminate nothing more over the field; arf's own W_3 lift
    reads its reduction's algebra through the cache."""
    f = _parse_case(p, m, names, text)
    seen = _count_eliminations(monkeypatch)
    alg = milnor_algebra(f, cap=cap)
    first = len(seen)
    assert first > 0
    assert milnor_algebra(f) is alg and len(seen) == first
    if p == 2:
        arf_invariant(f)
        assert sum(1 for ring in seen if ring == f.ring) == first


def _count_eliminations(monkeypatch):
    """Record the ring of every elimination milnor runs (each test starts
    with an empty algebra cache, see conftest)."""
    seen = []
    eliminate = milnor._eliminate

    def counting(grads, ring, n_vars, upto, lo=0):
        seen.append(ring)
        return eliminate(grads, ring, n_vars, upto, lo)

    monkeypatch.setattr(milnor, "_eliminate", counting)
    return seen


def test_verify_runs_only_the_scan(monkeypatch):
    seen = _count_eliminations(monkeypatch)
    f7 = gf_create(7, 1)
    report = verify_identity(parse_poly("x^3+y^3+x^2*y", f7, ["x", "y"]))
    assert report["mu"] == 4
    # both partials have order 2, so the scan starts at Wiebe's bound
    # s = 3: the one elimination is the certificate at D0 = 3, none after
    # the scan
    assert len(seen) == 1
    # x^3 + y^3 is the tensor square of the algebra of x^3, whose scan
    # certifies at its bound s = 2; y^3 is the same one-variable block
    seen.clear()
    report = verify_identity(parse_poly("x^3+y^3", f7, ["x", "y"]))
    assert report["mu"] == 4
    assert len(seen) == 1


def _count_degrees(monkeypatch):
    """Record the (ring, degree) of every elimination milnor runs."""
    seen = []
    eliminate = milnor._eliminate

    def counting(grads, ring, n_vars, upto, lo=0):
        seen.append((ring, upto))
        return eliminate(grads, ring, n_vars, upto, lo)

    monkeypatch.setattr(milnor, "_eliminate", counting)
    return seen


def test_a_coupled_binary_cubic_eliminates_only_at_degree_3(monkeypatch):
    """x^3+x*y^2+g*y^3 over F_4 has partials x^2+y^2 and g*y^2 of order 2:
    the scan starts at Wiebe's bound s = 3 and certifies D0 = 3 there; as
    s = min k_i + 1, the initial forms are not tested in degree s first."""
    field = gf_create(2, 2)
    f = parse_poly("x^3+x*y^2+g*y^3", field, ["x", "y"], {"g": field.gen()})
    seen = _count_degrees(monkeypatch)
    alg = milnor_algebra(f)
    assert (alg.blocks, alg.mu, alg.D) == (None, 4, 3)
    assert seen == [(field, 3)]


@pytest.mark.parametrize("names, text, D, eliminations", [
    # a chain with orders (3, 3, 4) and s = 8, and one with orders 2 and
    # s = 5: the initial forms miss degree s, and the scan runs on from s
    ("x,y,z", "x^3*y+y^4*z+z^5", 9, [(8, 8), (8, 0), (9, 0)]),
    ("x,y,z,w", "x^2*y+y^3*z+z^2*w+w^4", 8, [(5, 5), (5, 0), (6, 0), (7, 0), (8, 0)]),
    # a loop with orders 3: the initial forms span degree s = 7, which
    # proves D0 = 7, and one elimination below it presents the algebra
    ("x,y,z", "x^3*y+y^3*z+z^3*x", 7, [(7, 7), (6, 0)]),
])
def test_the_scan_starts_at_the_socle_bound(monkeypatch, names, text, D, eliminations):
    """Over F_13 the scan tests the initial forms in degree
    s = 1 + sum(k_i - 1) alone, then eliminates from s up, as Wiebe's bound
    D0 >= s holds at every isolated point, or once below a D0 = s that the
    test proved: (upto, lo) of every elimination."""
    seen = []
    eliminate = milnor._eliminate

    def counting(grads, ring, n_vars, upto, lo=0):
        seen.append((upto, lo))
        return eliminate(grads, ring, n_vars, upto, lo)

    monkeypatch.setattr(milnor, "_eliminate", counting)
    alg = milnor_algebra(parse_poly(text, gf_create(13, 1), names.split(",")))
    assert (alg.D, seen) == (D, eliminations)


@pytest.mark.parametrize("p, m, names, text, constant", [
    (7, 1, "x,y", "x^2+3*x*y+y^2+x^3", "5"),
    (5, 2, "x,y,z", "x^2+g*y^2+2*z^2+x*y*z", "g"),
    (2, 2, "x,y", "x^2+x*y+g*y^2", "g"),
])
def test_a_morse_point_with_a_constant_term_is_presented_by_its_hessian(
        monkeypatch, p, m, names, text, constant):
    """The constant term does not enter the Hessian: f and f + c have one
    algebra, D = 1, mu = 1 and basis [1], and one 1/det C, over the field
    and over W_3, and neither eliminates a relation matrix."""
    field = gf_create(p, m)
    names = names.split(",")
    consts = {"g": field.gen()} if m > 1 else None
    seen = _count_degrees(monkeypatch)
    pair = [parse_poly(t, field, names, consts) for t in (text, constant + "+" + text)]
    if p == 2:
        pair = [witt_lift(f) for f in pair]
    algs = [milnor_algebra(f) for f in pair]
    for alg in algs:
        assert (alg.D, alg.mu, alg.basis) == (1, 1, [(0,) * len(names)])
    assert algs[0].inv_bezoutian_det == algs[1].inv_bezoutian_det
    assert seen == []


def test_a_singular_hessian_scans_from_degree_2(monkeypatch):
    """x^2+2*x*y+y^2+x^3 over F_7 has partials of order 1 and the Hessian
    [[2, 2], [2, 2]], which is singular, so D0 >= 2: the scan never
    eliminates at degree 1, and certifies D0 = 2 with mu = 2."""
    f7 = gf_create(7, 1)
    seen = _count_degrees(monkeypatch)
    alg = milnor_algebra(parse_poly("x^2+2*x*y+y^2+x^3", f7, ["x", "y"]))
    assert alg.to_json() == {"mu": 2, "basis": [[0, 0], [1, 0]], "D": 2}
    assert alg.inv_bezoutian_det is None
    assert seen == [(f7, 2)]


def test_a_morse_lift_with_a_linear_term_has_d_3():
    """The lift of the Morse point x^2+x*y+g*y^2 over F_4 plus 2y has a
    linear term, which the degree-1 certificate cannot absorb: it is
    eliminated whole, with D = 3, and not presented by its Hessian."""
    field = gf_create(2, 2)
    ring = gr_create(field)
    f = witt_lift(parse_poly("x^2+x*y+g*y^2", field, ["x", "y"], {"g": field.gen()}))
    alg = milnor_algebra(f + MultiPoly.var(ring, 2, 1).scale(2))
    assert (alg.D, alg.mu, alg.basis) == (3, 1, [(0, 0)])
    assert alg.inv_bezoutian_det is None


def test_repeated_arf_scans_the_residue_field_once(monkeypatch):
    seen = _count_eliminations(monkeypatch)
    field = gf_create(2, 2)
    f = parse_poly("u^2+u^5", field, ["u"])
    first = arf_invariant(f)
    scans = sum(1 for r in seen if r == field)
    # one variable: the scan starts at the derivative's order u^4, D0 = 4
    assert milnor_algebra(f).D == 4
    assert scans == 1
    # these lifts do not certify at D0 = 4, so each distinct lift makes two
    # W_3 eliminations: the one at D0 and the fallback at the 3*D0 - 2k - 1
    # that the first proves
    assert len(seen) == scans + 2
    perturbations = ["u^3", "u^4", "u^3+u^4"]
    for text in perturbations:
        assert arf_invariant(f, lift_perturbation=parse_poly(text, field, ["u"])) == first
    assert arf_invariant(f) == first
    assert sum(1 for r in seen if r == field) == scans
    assert len(seen) == scans + 2 * (1 + len(perturbations))


def test_algebra_cache_drops_the_least_recently_used(monkeypatch):
    """Each read is of a fresh parse, so it reaches the cache, not the
    algebra kept on a polynomial."""
    monkeypatch.setattr(milnor, "_ALGEBRAS_MAX", 3)
    f7 = gf_create(7, 1)

    def read(k):
        return milnor_algebra(parse_poly(f"{k}*x^3", f7, ["x"]))

    alg_a, alg_b = read(1), read(2)
    read(3)
    assert read(1) is alg_a
    read(4)
    assert len(milnor._ALGEBRAS) == 3
    assert read(1) is alg_a
    assert read(2) is not alg_b


def _count_cache_lookups(monkeypatch):
    """Record the key of every lookup in the algebra cache."""
    keys = []

    class Recording(dict):
        def pop(self, key, default):
            keys.append(key)
            return super().pop(key, default)

    monkeypatch.setattr(milnor, "_ALGEBRAS", Recording())
    return keys


@pytest.mark.parametrize("p, m, names, text", [
    (7, 1, "x,y", "x^4+y^3+x^2*y"),
    (13, 1, "x,y,z", "2*x^2+y^3+5*z^4"),
    (2, 2, "x,y", "x^3+g*x^2*y+y^3"),
    (2, 2, "x,y", "x^3+y^5"),
])
def test_a_polynomial_keeps_its_algebra(monkeypatch, p, m, names, text):
    """A second read of f, at any cap, returns the algebra the first
    returned without looking up the cache, for an elimination, a product
    and a Witt lift alike, even once the cache has dropped it.  A fresh,
    equal polynomial, read at the default cap or at one below D, shares an
    eliminated algebra through the cache, and composes its own product from
    the cached blocks; neither eliminates."""
    keys = _count_cache_lookups(monkeypatch)
    f = _parse_case(p, m, names, text)
    polys = [f, witt_lift(f)] if p == 2 else [f]
    algs = [milnor_algebra(g) for g in polys]
    seen = _count_eliminations(monkeypatch)
    keys.clear()
    assert all(milnor_algebra(g) is alg for g, alg in zip(polys, algs))
    assert keys == [] and seen == []
    fresh = milnor_algebra(_parse_case(p, m, names, text))
    assert (fresh is algs[0]) == (algs[0].blocks is None)
    assert fresh.basis == algs[0].basis
    low = milnor_algebra(_parse_case(p, m, names, text), cap=algs[0].D - 1)
    assert (low is algs[0]) == (algs[0].blocks is None) and seen == []
    milnor._ALGEBRAS.clear()
    seen.clear()
    assert all(milnor_algebra(g) is alg for g, alg in zip(polys, algs)) and seen == []
    keys.clear()
    assert milnor_algebra(f, cap=algs[0].D - 1) is algs[0] and keys == [] and seen == []


def test_an_error_is_raised_anew_on_every_read(monkeypatch):
    """A polynomial keeps no error: each read of one that raises eliminates
    again and raises again.  Once a read succeeds, the algebra is f's, and a
    read at the cap that failed before returns it without a scan.
    x^2+x*y^2+y^4 fails its one elimination at degree 2 and has D0 = 3."""
    f7 = gf_create(7, 1)
    seen = _count_eliminations(monkeypatch)
    flat = parse_poly("x^2*y", f7, ["x", "y"])
    counts = []
    for _ in range(2):
        with pytest.raises(NotIsolated):
            milnor_algebra(flat)
        counts.append(len(seen))
    assert counts[0] > 0 and counts[1] == 2 * counts[0]
    assert flat._algebra is None
    scan = parse_poly("x^2+x*y^2+y^4", f7, ["x", "y"])
    for _ in range(2):
        seen.clear()
        with pytest.raises(ResourceLimit):
            milnor_algebra(scan, cap=2)
        assert seen
    alg = milnor_algebra(scan)
    seen.clear()
    assert milnor_algebra(scan, cap=2) is alg and seen == []
    assert scan._algebra is alg


def test_parity_violation_is_a_structured_error(monkeypatch, capsys):
    """A broken parity reaches the CLI as OddProduct with exit code 2."""
    field = gf_create(2, 1)
    # pretend u^3 is a Morse point: mu = 1 with one variable, which no
    # Hessian gives in characteristic 2
    monkeypatch.setattr(milnor, "_orders", lambda f: [1])
    monkeypatch.setattr(milnor, "_morse", lambda f: milnor.MilnorAlgebra(
        field, 1, 1, [(0,)], np.zeros((0, 1, 1), dtype=np.int32), []))
    with pytest.raises(OddProduct):
        milnor_algebra(parse_poly("u^3", field, ["u"]))
    code = cli.main(["milnor", "--p", "2", "--vars", "u", "--poly", "u^3", "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == "OddProduct"


def _lift(field, text, names):
    """text over W_3(field), each coefficient lifted digit by digit."""
    ring = gr_create(field)
    f = parse_poly(text, field, names, constants={field.gen_symbol: field.gen()})
    return MultiPoly(ring, f.n_vars, {e: ring(c) for e, c in f.terms.items()})


def _nf_size(alg):
    return sum(len(alg.nf_monomial(e)) for e in monomials_upto(alg.n_vars, alg.D - 1))


def test_macaulay_cells_never_become_objects_on_the_way_in_or_out(monkeypatch):
    """The relation matrix is built and read as digits: the kernel's element
    encoder and decoder never run, over a field or over W_3."""
    def refuse(self, rows):
        raise AssertionError("a Macaulay matrix went through element objects")

    monkeypatch.setattr(linalg.CodedOps, "encode_matrix", refuse)
    monkeypatch.setattr(linalg.CodedOps, "decode_row", refuse)
    f13 = gf_create(13, 1)
    alg = milnor_algebra(parse_poly("x^4+y^3+x^2*y", f13, ["x", "y"]))
    assert _nf_size(alg) > alg.mu
    alg = milnor_algebra(_lift(gf_create(2, 2), "x^3+g*y^3+x*y^2", ["x", "y"]))
    assert _nf_size(alg) > alg.mu


def test_only_the_normal_form_coefficients_are_built_as_elements(monkeypatch):
    """The sextic's scan touches about 290k cells; the elements built are
    its normal-form coefficients plus a few constants.  The x^2*y^2*z^2
    term keeps it from splitting into three blocks."""
    f = parse_poly("x^6+y^6+z^6+x^2*y^2*z^2", gf_create(13, 1), ["x", "y", "z"])
    built = [0]
    init = DigitElem.__init__

    def counting(self, ring, coeffs):
        built[0] += 1
        init(self, ring, coeffs)

    monkeypatch.setattr(DigitElem, "__init__", counting)
    alg = milnor_algebra(f)
    monkeypatch.setattr(DigitElem, "__init__", init)
    assert (alg.mu, alg.D, alg.blocks) == (125, 13, None)
    assert built[0] <= _nf_size(alg) + 32


def test_a_relation_without_a_unit_pivot_is_not_flat(monkeypatch):
    """Over F_2 the ideal is (x, y); its lift (2x, 2y) has no unit pivot, so
    the quotient over W_3 is not free.  The lift of x*y carries the linear
    term 2x, so it is eliminated whole, at degree 1 and then at degree 2,
    and not presented by its Hessian, which reads no partials."""
    field = gf_create(2, 1)
    monkeypatch.setattr(milnor, "partials", lambda f: [
        MultiPoly.var(f.ring, 2, i).scale(1 if f.ring == field else 2) for i in range(2)
    ])
    f = _lift(field, "x*y", ["x", "y"])
    with pytest.raises(NotFlat) as err:
        milnor_algebra(f + MultiPoly.var(f.ring, 2, 0).scale(2))
    assert str(err.value) == "monomial (0, 2) carries a non-unit relation; quotient is not free"


@pytest.mark.parametrize("poly", ["x^2*y+x*y^2", "x^3+y^3"])
def test_a_lift_off_its_reductions_basis_is_not_flat_for_every_command(monkeypatch, capsys, poly):
    """With the W_3 basis forced off the residue field's (reversed), arf,
    gram and disc all refuse the lift with one message, on every call: the
    check sits where the lift's algebra is built.  x^2*y+x*y^2 is lifted
    whole; x^3+y^3 meets the check in its blocks and then whole."""
    init = milnor.MilnorAlgebra.__init__

    def reversed_over_w3(alg, ring, *args):
        init(alg, ring, *args)
        if ring.b != ring.residue:
            alg.basis = alg.basis[::-1]

    monkeypatch.setattr(milnor.MilnorAlgebra, "__init__", reversed_over_w3)
    argv = ["--p", "2", "--vars", "x,y", "--poly", poly]
    for cmd in ("arf", "gram", "disc", "arf"):
        assert cli.main([cmd] + argv) == 2
        assert capsys.readouterr().out == (
            "error: NotFlat\nmessage: Witt-lift basis does not match its mod-2 reduction\n")


def test_a_non_isolated_three_variable_cone_is_rejected_in_bounded_time():
    """x^5*y + z^5 is singular along the y-axis.  Its block x^5*y is a cone
    whose partials miss y^9, and its Bezout bound 25 lies past the cap, so
    the block ends f with the cone's NotIsolated, and nothing is scanned."""
    f = parse_poly("x^5*y+z^5", gf_create(7, 1), ["x", "y", "z"])
    start = time.perf_counter()
    with pytest.raises(NotIsolated):
        milnor_algebra(f)
    assert time.perf_counter() - start < 10.0


def test_a_non_isolated_four_variable_cone_is_rejected_in_bounded_time():
    """x^5*y + z^5 + w^5 splits, and its block x^5*y has homogeneous partials
    whose initial forms miss y^9 in degree 9, so it is not isolated and no
    scan runs; the block's Bezout bound 25 lies past the cap, so the message
    is the cone's, naming 9."""
    f = parse_poly("x^5*y+z^5+w^5", gf_create(7, 1), ["x", "y", "z", "w"])
    start = time.perf_counter()
    with pytest.raises(NotIsolated) as err:
        milnor_algebra(f)
    assert time.perf_counter() - start < 2.0
    assert str(err.value) == ("the partials are homogeneous and miss a monomial of degree 9, "
                              "so the Jacobian ideal is not monomial-cofinite")


@pytest.mark.parametrize("names, text", [
    ("x", "x"),
    ("x,y", "x+y^2"),
    ("x,y,z", "x+y+z"),
    ("x,y,z", "x*y+z"),
    # a constant partial next to partials of order 5: s = 8 means nothing here
    ("x,y,z", "x+y^3*z^3"),
    # three blocks, but a smooth point is not split
    ("x,y,z", "x+y^4+z^5"),
])
def test_smooth_points_have_D_one_and_mu_zero(names, text):
    alg = milnor_algebra(parse_poly(text, gf_create(7, 1), names.split(",")))
    assert (alg.D, alg.mu) == (1, 0)


@pytest.mark.parametrize("p, m, names, text, D, mu", [
    (7, 1, "x,y", "x^2*y+y^4", 4, 5),
    (2, 2, "x,y", "x^3+x*y^3+y^5", 5, 7),
    (7, 1, "x,y,z", "x^3+y^3+z^3+x*y*z+z^4", 5, 11),
])
def test_initial_forms_off_a_regular_sequence_scan_on_from_s(p, m, names, text, D, mu):
    """The initial forms miss a degree-s monomial, so D0 > s; the scan starts
    at Wiebe's bound s and still finds the least D0."""
    f = parse_poly(text, gf_create(p, m), names.split(","))
    alg = milnor_algebra(f)
    assert (alg.D, alg.mu) == (D, mu)
    assert alg.basis == _d_minus_one_presentation(f, D)[0]


@pytest.mark.parametrize("p, names, text, n_vars_scanned, error, message", [
    # the block y^2*z^2 is not isolated: its scan stops at its own Bezout
    # bound 3*3, and f ends there without a scan of its own
    (7, "x,y,z", "x^3+y^2*z^2", {1, 2}, NotIsolated,
     "Jacobian ideal is not monomial-cofinite below degree 9, the Bezout bound on the Milnor "
     "number"),
    # x^26 has D0 = 25, past the cap, and its Bezout bound 25 proves
    # nothing below it; the block's scan would start at its order 25, so
    # nothing is eliminated, in the block or in f
    (7, "x,y", "x^26+y^26", set(), ResourceLimit,
     "no degree up to DEGREE_CAP = 24 certifies the Jacobian ideal, and its Bezout bound 25 "
     "lies above the cap"),
    # the block's scan stops at the cap without a proof, and f ends there;
    # f's own four-variable scan would stop at the cell bound
    (7, "x,y,z,w", "x^3*y+x^2*z^2+z^5+w^2", {3}, ResourceLimit,
     "no degree up to DEGREE_CAP = 24 certifies the Jacobian ideal, and its Bezout bound 36 "
     "lies above the cap"),
])
def test_a_separable_input_that_fails_ends_at_its_block(
        monkeypatch, p, names, text, n_vars_scanned, error, message):
    seen = []
    eliminate = milnor._eliminate

    def counting(grads, ring, n_vars, upto, lo=0):
        seen.append(n_vars)
        return eliminate(grads, ring, n_vars, upto, lo)

    monkeypatch.setattr(milnor, "_eliminate", counting)
    f = parse_poly(text, gf_create(p, 1), names.split(","))
    with pytest.raises(error) as err:
        milnor_algebra(f)
    assert str(err.value) == message
    assert set(seen) == n_vars_scanned


def test_a_split_lift_ends_at_its_blocks_resource_limit(monkeypatch):
    """The lift of x^3+y^3+x*y^2+z^3 over F_2 perturbed by 2x splits into
    the lifts of its reduction's blocks.  The (x, y) block fails at its
    D0 = 3 on a 13 x 10 x 1 matrix, which proves D = 7, and its fallback
    at degree 6 would hold 43 x 28 x 1 digits.  With the bound between
    the two, the block's ResourceLimit ends the lift, as it would over a
    field, and no W_3 matrix in f's three variables is built."""
    field = gf_create(2, 1)
    ring = gr_create(field)
    names = ["x", "y", "z"]
    f_w = (witt_lift(parse_poly("x^3+y^3+x*y^2+z^3", field, names))
           + parse_poly("x", field, names).map_coeffs(ring, ring).scale(2))
    seen = []
    eliminate = milnor._eliminate

    def counting(grads, over, n_vars, upto, lo=0):
        seen.append((over, n_vars, upto))
        return eliminate(grads, over, n_vars, upto, lo)

    monkeypatch.setattr(milnor, "_eliminate", counting)
    monkeypatch.setattr(milnor, "MAX_RELATION_CELLS", 1000)
    with pytest.raises(ResourceLimit) as err:
        milnor_algebra(f_w)
    assert str(err.value) == ("the relation matrix in degree 6 would hold 43 x 28 x 1 digits, "
                              "more than MAX_RELATION_CELLS = 1000")
    assert [(n, upto) for r, n, upto in seen if r == ring] == [(2, 3), (2, 6)]


def test_a_product_past_the_cap_is_composed(monkeypatch):
    """x^14 has D = 13, so x^14+y^14 has D = 13 + 13 - 1 = 25, past the cap,
    which bounds a scan and not a product: its algebra is composed from the
    one-variable block's, which one elimination at its order 13 certifies,
    and its verify answers."""
    seen = _count_eliminations(monkeypatch)
    f = parse_poly("x^14+y^14", gf_create(13, 1), ["x", "y"])
    alg = milnor_algebra(f)
    assert (alg.D, alg.mu, alg.blocks is not None) == (25, 169, True)
    assert len(seen) == 1
    assert verify_identity(f)["mu"] == 169


def test_a_separable_sum_with_a_block_past_the_cap_ends_quickly():
    """The block x^4*y+x^2*z^3+z^7 stops at the cap, so f ends with its
    ResourceLimit and never scans four variables, whose matrices the cell
    bound alone would stop only at 184 MB."""
    f = parse_poly("x^4*y+x^2*z^3+z^7+w^2", gf_create(13, 1), ["x", "y", "z", "w"])
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="DEGREE_CAP = 24"):
        milnor_algebra(f)
    assert time.perf_counter() - start < 2.0
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="DEGREE_CAP = 24"):
            milnor_algebra(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000_000, peak


def test_a_derivative_of_order_past_the_cap_is_a_resource_limit():
    """x^27 over F_2 is isolated with D0 = s = 26, past the cap of 24, and
    its Bezout bound 26 proves nothing below the cap."""
    with pytest.raises(ResourceLimit) as err:
        milnor_algebra(parse_poly("x^27", gf_create(2, 1), ["x"]))
    assert str(err.value) == ("no degree up to DEGREE_CAP = 24 certifies the Jacobian ideal, "
                              "and its Bezout bound 26 lies above the cap")


def _random_poly(rng, field, n):
    """A few terms of degree 2..5, most variables with a pure power whose
    derivative does not vanish, so that many draws are isolated."""
    monos = [e for e in monomials_upto(n, 5) if sum(e) >= 2]
    degrees = [d for d in range(2, 6) if d % field.p]
    powers = [tuple(rng.choice(degrees) if j == i else 0 for j in range(n))
              for i in range(n) if rng.random() < 0.7]
    terms = {}
    for e in powers + rng.sample(monos, rng.randint(1, 3)):
        c = field([rng.randrange(field.p) for _ in range(field.m)])
        if not c.is_zero():
            terms[e] = c
    return MultiPoly(field, n, terms)


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (3, 1), (5, 1), (7, 1), (3, 2)])
def test_the_scan_finds_the_least_degree(p, m):
    """The scan returns a D at least Wiebe's bound s = 1 + sum(k_i - 1),
    the certificate fails one degree below it, and the presentation is the
    fresh D-1 elimination's."""
    field = gf_create(p, m)
    rng = random.Random(1000 * p + m)
    isolated = at_s = 0
    for _ in range(60):
        f = _random_poly(rng, field, rng.randint(1, 3))
        try:
            alg = milnor_algebra(f, cap=10)
        except (NotIsolated, ResourceLimit):
            continue
        isolated += 1
        orders = [g.low_degree() for g in partials(f)]
        s = 1 + sum(k - 1 for k in orders)
        assert alg.D >= s, f
        at_s += min(orders) >= 1 and s >= min(orders) + 2 and alg.D == s
        if alg.D > 1:
            cols, red, pivots, _, _ = milnor._eliminate(partials(f), field, f.n_vars, alg.D - 1)
            top = sum(1 for e in cols if sum(e) == alg.D - 1)
            assert pivots[:top] != list(range(top)) or red[:top, top:].any(), f
        basis, nf = _d_minus_one_presentation(f, alg.D)
        assert alg.basis == basis, f
        for e in monomials_upto(f.n_vars, alg.D - 1):
            assert alg.nf_monomial(e) == nf[e], (f, e)
    assert isolated >= 10 and at_s >= 1


def _raw_presentation(f_w, upto):
    """Basis and normal forms read off one elimination of the relation
    matrix at degree upto, with no certificate and no slicing."""
    ring, n = f_w.ring, f_w.n_vars
    cols, red, pivots, stuck, _ = milnor._eliminate(partials(f_w), ring, n, upto)
    assert stuck is None
    pivot_set = set(pivots)
    free = [j for j in range(len(cols)) if j not in pivot_set]
    basis = sorted((cols[j] for j in free), key=mono_key)
    index = {e: i for i, e in enumerate(basis)}
    nf = {e: {index[e]: ring(1)} for e in basis}
    for k, c in enumerate(pivots):
        nf[cols[c]] = {index[cols[j]]: -ring(red[k, j].tolist())
                       for j in free if red[k, j].any()}
    return basis, nf


def _least_w3_scan_degree(f_w, lo, hi):
    """The least degree in lo..hi whose W_3 elimination certifies, or None."""
    grads = partials(f_w)
    for d in range(lo, hi + 1):
        cols, red, pivots, _, _ = milnor._eliminate(grads, f_w.ring, f_w.n_vars, d)
        if milnor._certified(cols, red, pivots, d) is not None:
            return d
    return None


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_w3_algebra_matches_the_elimination_at_3_d0_minus_1(m):
    """Teichmueller lifts and 2*g perturbations of seeded isolated inputs:
    whether D0 certifies, the fallback at the proven 3*D0 - 2k runs or the
    lift splits into blocks, the basis and every normal form up to degree
    3*D0 (and up to a product's D, which may lie above it) are those of one
    plain elimination at 3*D0 - 1.  A lift eliminated whole has
    D0 <= D <= 3*D0, and one that fails at D0 has a D that a W_3 scan
    upward from D0 + 1 reaches: D is never below the least certified
    degree, and some draws take a D below 3*D0."""
    field = gf_create(2, m)
    ring = gr_create(field)
    rng = random.Random(f"w3-oracle/{m}")
    lifts = certified = split = below = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        f = _random_poly(rng, field, n)
        try:
            D0 = milnor_algebra(f, cap=5).D
        except (NotIsolated, ResourceLimit):
            continue
        if D0 > 5:  # a product's D is not held to the cap
            continue
        g = _random_poly(rng, field, n)
        for f_w in (witt_lift(f), witt_lift(f) + g.map_coeffs(ring, ring).scale(2)):
            alg = milnor_algebra(f_w, cap=5)
            basis, nf = _raw_presentation(f_w, 3 * D0 - 1)
            if alg.blocks is None:
                assert D0 <= alg.D <= 3 * D0, f_w
                if alg.D > D0:
                    assert _least_w3_scan_degree(f_w, D0 + 1, alg.D) is not None, f_w
                    below += alg.D < 3 * D0
            else:
                blocks = [milnor_algebra(block, cap=5).D for _, block, _ in alg.blocks]
                assert alg.D == sum(blocks) - len(blocks) + 1, f_w
            assert alg.basis == basis, f_w
            for e in monomials_upto(n, max(3 * D0, alg.D)):
                assert alg.nf_monomial(e) == nf.get(e, {}), (f_w, e)
            lifts += 1
            certified += alg.D == D0
            split += alg.blocks is not None
    assert lifts >= 10 and 0 < certified < lifts and split and below


def test_arf_of_the_fermat_quintic_over_f4_eliminates_once_over_w3(monkeypatch):
    """The Witt lift of x^5 + y^5 + z^5 over F_4 is the sum of three lifts
    of u^5, one cached algebra, which certifies at its residue field's
    D0 = 4: one W_3 elimination, at degree 4 and not 10 for the whole lift."""
    seen = []
    eliminate = milnor._eliminate

    def counting(grads, ring, n_vars, upto, lo=0):
        seen.append((ring, upto))
        return eliminate(grads, ring, n_vars, upto, lo)

    monkeypatch.setattr(milnor, "_eliminate", counting)
    field = gf_create(2, 2)
    f = parse_poly("x^5+y^5+z^5", field, ["x", "y", "z"])
    arf_invariant(f)
    assert milnor_algebra(f).D == 10
    assert milnor_algebra(witt_lift(f)).D == 10
    assert [upto for ring, upto in seen if ring != field] == [4]


@st.composite
def _polys_for_orders(draw):
    """A few terms over F_2, F_3, F_4, F_9 or F_13 whose exponents are often
    multiples of p, so that some terms die under a derivative; the constant
    and the zero polynomial are drawn too."""
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (13, 1)]))
    field = gf_create(p, m)
    n = draw(st.integers(1, 3))
    exponent = st.one_of(st.integers(0, 4), st.integers(0, 2).map(lambda k: k * p))
    exps = draw(st.lists(st.tuples(*[exponent] * n), max_size=5, unique=True))
    codes = draw(st.lists(st.integers(1, field.q - 1), min_size=len(exps), max_size=len(exps)))
    return MultiPoly(field, n, {e: field.decode(k) for e, k in zip(exps, codes)})


def _orders_reference(f):
    """The orders as milnor read them before: off the built partials."""
    grads = partials(f)
    if f.total_degree() < 1:
        return "constant"
    if any(g.is_zero() for g in grads):
        return "vanishes"
    return [g.low_degree() for g in grads]


_ORDER_MESSAGES = {
    "constant": "constant polynomial has no isolated singularity",
    "vanishes": "a partial derivative vanishes identically, so the Jacobian ideal has fewer "
                "generators than variables",
}


@given(_polys_for_orders())
def test_the_orders_read_off_the_exponents_are_the_partials_orders(f):
    expect = _orders_reference(f)
    if isinstance(expect, list):
        assert milnor._orders(f) == expect
    else:
        with pytest.raises(NotIsolated) as err:
            milnor._orders(f)
        assert str(err.value) == _ORDER_MESSAGES[expect]


@pytest.mark.parametrize("p, text, expect", [
    (3, "2", "constant"),
    (3, "x^3+y^2", "vanishes"),
    (2, "x^2*y+y^3+x^4", "vanishes"),
    (13, "x^13*y+y^2+x^14", [13, 1]),
    (2, "x^2*y+x*y^3+y^5", [3, 2]),
])
def test_the_orders_refuse_with_milnors_two_messages(p, text, expect):
    f = parse_poly(text, gf_create(p, 1), ["x", "y"])
    assert _orders_reference(f) == expect
    if isinstance(expect, list):
        assert milnor._orders(f) == expect
        return
    for call in (milnor._orders, milnor_algebra):
        with pytest.raises(NotIsolated) as err:
            call(f)
        assert str(err.value) == _ORDER_MESSAGES[expect]


@pytest.mark.parametrize("p, m, blocks, room", [
    (7, 1, ("x^3", "x^4"), 2),
    # the blocks' Witt lifts are eliminated and kept too
    (2, 3, ("x^3", "x^5"), 4),
])
def test_a_bound_that_holds_the_eliminations_scans_each_block_once(monkeypatch, p, m, blocks, room):
    """Ten distinct split sums of the same two blocks, in either order and
    with a constant term, verify with room for the blocks' eliminations
    alone: a product is composed on each call, so it pushes out no block,
    and each block is scanned once."""
    monkeypatch.setattr(milnor, "_ALGEBRAS_MAX", room)
    field = gf_create(p, m)
    scanned = []
    scan = milnor._scan

    def counting(f, *args):
        scanned.append(f.render(["x"]))
        return scan(f, *args)

    monkeypatch.setattr(milnor, "_scan", counting)
    sums = []
    for code in range(5):
        c = field.decode(code)
        for a, b in (blocks, blocks[::-1]):
            sums.append(parse_poly(f"{a}+{b.replace('x', 'y')}", field, ["x", "y"])
                        + MultiPoly.const(field, 2, c))
    assert len({frozenset(f.terms.items()) for f in sums}) == 10
    mus = {verify_identity(f)["mu"] for f in sums}
    assert len(mus) == 1
    assert sorted(scanned) == sorted(blocks)
    assert len(milnor._ALGEBRAS) == room
    assert all(alg.blocks is None for alg in milnor._ALGEBRAS.values())
