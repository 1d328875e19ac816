import json
import random
import re
import sys
import time

import pytest
from test_linalg import ref_det, ref_rref
from test_milnor import (
    _count_product_presentations,
    _d_minus_one_presentation,
    _parse_case,
    _random_poly,
)
from test_path_agreement import ODD_SHAPES, SHAPES, _compose

from resform import cli, corpus, linalg, milnor, residue
from resform.catalog import arithmetic_side
from resform.epsilon import verify_identity
from resform.errors import (
    EvenCharacteristic,
    NonUnit,
    NonUnitScale,
    OddCharacteristic,
    ResformError,
    RingMismatch,
    SingularBezoutian,
)
from resform.gfield import gf_create
from resform.linalg import CodedOps, coded, det_expand, det_ring
from resform.milnor import milnor_algebra, monomials_upto
from resform.homog import BinaryForm, divided_disc_binary
from resform.mpoly import MultiPoly, divided_difference, parse_poly, partials
from resform.residue import (
    GramForm,
    SquareClass,
    arf_invariant,
    disc_square_class,
    extension_disc,
    global_univariate_functional,
    global_univariate_value,
    gram_matrix,
    pushforward_disc,
    residue_functional,
    tensor_gram,
    witt_lift,
)
from resform.unipoly import QuotientField, deriv_p, irreducible_poly
from resform.wittring import ArfClass, WittSquareClass, gr_create, square_class_normalize


def _bezoutian_rows(f):
    """The Bezoutian matrix the engine builds as digits (through a
    monkeypatch of residue.bezoutian too), decoded to rows of elements."""
    ops = coded(f.ring)
    return [ops.decode_row(row) for row in residue.bezoutian(f)]


def test_cusp_frozen_matrices():
    f7 = gf_create(7, 1)
    f = parse_poly("x^3", f7, ["x"])
    assert _bezoutian_rows(f) == [[f7(0), f7(3)], [f7(3), f7(0)]]
    assert residue_functional(f) == [f7(0), f7(5)]
    G = gram_matrix(f, 1)
    assert G.matrix == [[f7(0), f7(5)], [f7(5), f7(0)]]
    assert G.det == f7(-25)


def test_quadratic_functional_inverts_leading_coefficient():
    for p in (3, 5, 7):
        field = gf_create(p, 1)
        for a0 in range(1, p):
            a = field(a0)
            f = MultiPoly(field, 1, {(2,): a})
            assert residue_functional(f) == [(field(2) * a).inverse()]


def test_gram_scaling_law():
    """Scaling the volume form by alpha multiplies the matrix by alpha^n."""
    f7 = gf_create(7, 1)
    for text, names in (("x^3", ["x"]), ("x^3+y^3", ["x", "y"])):
        f = parse_poly(text, f7, names)
        base = gram_matrix(f, 1)
        scaled = gram_matrix(f, 3)
        factor = f7(3) ** f.n_vars
        assert scaled.matrix == [[factor * v for v in row] for row in base.matrix]
    with pytest.raises(NonUnitScale):
        gram_matrix(parse_poly("x^3", f7, ["x"]), 7)


def test_smooth_point_has_empty_form():
    f7 = gf_create(7, 1)
    G = gram_matrix(parse_poly("x", f7, ["x"]), 1)
    assert G.mu == 0
    assert G.matrix == []
    assert disc_square_class(G).is_trivial()


def test_char2_field_disc_refuses():
    f2 = gf_create(2, 1)
    G = gram_matrix(parse_poly("u^2+u^3", f2, ["u"]), 1)
    with pytest.raises(EvenCharacteristic):
        disc_square_class(G)


def test_witt_frozen_matrices():
    ring = gr_create(gf_create(2, 1))
    f = MultiPoly(ring, 1, {(2,): ring(1), (3,): ring(1)})
    assert _bezoutian_rows(f) == [[ring(2), ring(3)], [ring(3), ring(0)]]
    assert residue_functional(f) == [ring(0), ring(3)]
    G = gram_matrix(f, 1)
    assert G.matrix == [[ring(0), ring(3)], [ring(3), ring(6)]]
    assert G.det == ring(-9)
    assert disc_square_class(G) == square_class_normalize(ring(-1))


def test_tensor_matches_direct_sum():
    f7 = gf_create(7, 1)
    f = parse_poly("x^3", f7, ["x"])
    g = parse_poly("x^2", f7, ["x"])
    box = f.embed(2, 0) + g.embed(2, 1)
    direct = gram_matrix(box, 1)
    prod = tensor_gram(gram_matrix(f, 1), gram_matrix(g, 1))
    assert direct.basis == prod.basis
    assert direct.matrix == prod.matrix


def test_tensor_determinant_is_the_kronecker_determinant():
    """det(G1)^mu2 * det(G2)^mu1 against elimination of the sorted product
    matrix, over F_p, F_{p^m} and W_3 lifts."""
    rng = random.Random(13)
    fields = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (2, 1), (2, 2)]
    seen = set()
    for _ in range(24):
        p, m = rng.choice(fields)
        field = gf_create(p, m)
        f1 = _seeded_isolated(rng, field, 1)
        f2 = _seeded_isolated(rng, field, rng.randrange(1, 3))
        if p == 2:
            f1, f2 = witt_lift(f1), witt_lift(f2)
        scale = rng.choice([1, 2, 3, 5])
        if not f1.ring(scale).is_unit():
            scale = 1
        G = tensor_gram(gram_matrix(f1, scale), gram_matrix(f2, scale))
        assert G.det == ref_det(G.ring, G.matrix)
        seen.add((p, m, G.mu > 2))
    assert {(p, m, True) for p, m in fields} <= seen


def test_a_gram_form_is_eliminated_once(monkeypatch):
    """With its Milnor algebra warm, gram_matrix runs mu pivot steps: the
    elimination of the Bezoutian matrix, whose pivots give det G.  A sum of
    blocks in disjoint variables runs mu_i steps per block instead, here
    3 + 4 for x^4 + y^5, whose mu is 12."""
    f2 = gf_create(2, 2)
    f7 = gf_create(7, 1)
    cases = [(parse_poly("x^4+y^5+x^2*y^2", f7, ["x", "y"]), None),
             (witt_lift(parse_poly("x^3+g*x^2*y+y^3", f2, ["x", "y"], {"g": f2.gen()})), None),
             (parse_poly("x^4+y^5", f7, ["x", "y"]), 3 + 4)]
    steps = [0]
    real = CodedOps._inverse_times  # asked once per pivot step

    def counting(*args):
        steps[0] += 1
        return real(*args)

    for f, block_steps in cases:
        mu = milnor_algebra(f).mu
        steps[0] = 0
        monkeypatch.setattr(CodedOps, "_inverse_times", counting)
        G = gram_matrix(f, 1)
        monkeypatch.setattr(CodedOps, "_inverse_times", real)
        assert G.mu == mu > 1
        assert steps[0] == (mu if block_steps is None else block_steps)
        assert G.det == ref_det(f.ring, G.matrix)


def test_tensor_rejects_mismatches():
    f7 = gf_create(7, 1)
    f5 = gf_create(5, 1)
    f = parse_poly("x^3", f7, ["x"])
    with pytest.raises(RingMismatch):
        tensor_gram(gram_matrix(f, 1), gram_matrix(f, 2))
    with pytest.raises(RingMismatch):
        tensor_gram(gram_matrix(f, 1), gram_matrix(parse_poly("x^3", f5, ["x"]), 1))


def test_arf_frozen_cases():
    f2 = gf_create(2, 1)
    assert arf_invariant(parse_poly("x^2+x*y+y^2", f2, ["x", "y"])) == 1
    assert arf_invariant(parse_poly("x^2+x*y", f2, ["x", "y"])) == 0
    assert arf_invariant(parse_poly("u^2+u^3", f2, ["u"])) == 0


def test_arf_reads_off_quadratic_coefficient():
    for m in (1, 2, 3):
        field = gf_create(2, m)
        for a in field.elements():
            terms = {(2, 0): field(1), (1, 1): field(1)}
            if not a.is_zero():
                terms[(0, 2)] = a
            assert arf_invariant(MultiPoly(field, 2, terms)) == a


def test_arf_ignores_choice_of_lift():
    f4 = gf_create(2, 2)
    f = parse_poly("x^2+x*y+y^2", f4, ["x", "y"])
    base = arf_invariant(f)
    for g_text in ("x*y", "x^2+y", "1+x^3"):
        g = parse_poly(g_text, f4, ["x", "y"])
        assert arf_invariant(f, lift_perturbation=g) == base


def test_a_separable_arf_over_f4_is_the_unsplit_one(capsys):
    """The field algebra of a sum of blocks splits and so does the W_3
    lift's; arf and verify answer as they did with both eliminated whole."""
    f4 = gf_create(2, 2)
    poly = "x^3+y^3+z^2+z*w+g*w^2"
    f = parse_poly(poly, f4, ["x", "y", "z", "w"], {"g": f4.gen()})
    assert milnor_algebra(f).blocks is not None
    assert len(milnor_algebra(witt_lift(f)).blocks) == 3
    argv = ["--p", "2", "--m", "2", "--vars", "x,y,z,w", "--poly", poly, "--json"]
    head = {"input": "x^3 + y^3 + z^2 + z*w + g*w^2",
            "field": {"p": 2, "m": 2, "modulus": [1, 1, 1]}}
    assert cli.main(["arf"] + argv) == 0
    assert json.loads(capsys.readouterr().out) == {**head, "arf": {"value": [0, 0], "trace_bit": 0}}
    assert cli.main(["verify"] + argv) == 0
    epsilon = {"sign": 1, "tau_exp": 0, "q_exp": "-8", "witness": None}
    assert json.loads(capsys.readouterr().out) == {
        **head, "mu": 4, "dimtot": -4, "convention": "calibrated", "geometric": epsilon,
        "arithmetic": epsilon, "verdict": "PASS", "psi_twists_checked": 1}


def test_global_univariate_hand_case():
    """f' = 3(x-1)(x-2) over F_7: the functional is a 2x2 Hankel solve."""
    f7 = gf_create(7, 1)
    f = [f7(0), f7(6), f7(6), f7(1)]
    lam, fprime = global_univariate_functional(f7, f)
    assert fprime == [f7(6), f7(5), f7(3)]
    assert lam == [f7(0), f7(5)]
    fpp = deriv_p(fprime)
    roots = [f7(1), f7(2)]
    for k in range(4):
        mono = [f7(0)] * k + [f7(1)]
        got = global_univariate_value(f7, lam, fprime, mono)
        want = f7.zero
        for th in roots:
            fpp_val = fpp[0] + fpp[1] * th
            want = want + th ** k * fpp_val.inverse()
        assert got == want


def test_extension_disc_frozen():
    f3 = gf_create(3, 1)
    ext = QuotientField(f3, [f3(1), f3(0), f3(1)])
    T = [[ext.trace(ext.gen() ** (a + b)) for b in range(2)] for a in range(2)]
    assert T == [[f3(2), f3(0)], [f3(0), f3(1)]]
    assert extension_disc(ext) == SquareClass(f3, f3(2))


def test_pushforward_formula_vs_direct():
    rng = random.Random(2)
    for p, r in ((3, 2), (5, 2), (3, 3)):
        base = gf_create(p, 1)
        ext = QuotientField(base, irreducible_poly(base, r, rng))
        th = ext.gen()
        diag = [ext(1 + rng.randrange(p - 1)) * th ** rng.randrange(r)
                for _ in range(2)]
        B = [[diag[0], ext(0)], [ext(0), diag[1]]]
        big = [[ext.trace(th ** (a + b) * B[i][j])
                for j in range(2) for b in range(r)]
               for i in range(2) for a in range(r)]
        direct = SquareClass(base, det_ring(base, big))
        assert pushforward_disc(ext, form=B) == direct


_NOT_CHAR2 = (OddCharacteristic, "Arf invariants are for characteristic 2")
# per ring, what disc_square_class, arf_invariant and arithmetic_side give:
# the type they return or the (error, message) they raise
RING_KINDS = [
    ("F_3", "x^2+y^2", [SquareClass, _NOT_CHAR2, tuple]),
    ("F_4", "x^2+x*y+y^2",
     [(EvenCharacteristic, "characteristic-2 discriminants live over the Witt lift"),
      ArfClass, tuple]),
    ("W3(F_4)", "x^2+x*y+y^2",
     [WittSquareClass, _NOT_CHAR2, (RingMismatch, "arithmetic side needs a finite field")]),
]


@pytest.mark.parametrize("name, poly, want", RING_KINDS, ids=[c[0] for c in RING_KINDS])
def test_ring_kind_decides_each_route(name, poly, want):
    field = gf_create(3, 1) if name == "F_3" else gf_create(2, 2)
    f = parse_poly(poly, field, ["x", "y"])
    if name.startswith("W3"):
        f = witt_lift(f)
    ring = f.ring
    unit_form = GramForm(ring, 1, 1, lambda: [(0,)], lambda: [[ring(1)]], ring(1), ring(1))
    calls = [lambda: disc_square_class(unit_form), lambda: arf_invariant(f),
             lambda: arithmetic_side(f)]
    for call, expect in zip(calls, want):
        if isinstance(expect, tuple):
            with pytest.raises(expect[0], match=f"^{re.escape(expect[1])}$"):
                call()
        else:
            assert type(call()) is expect


def _object_bezoutian(f):
    """The Bezoutian matrix on element objects, built the way the engine
    built it before it worked on digits: the whole determinant of the
    divided differences, and C accumulated one product at a time over the
    normal forms of a plain-Python elimination below D."""
    alg = milnor_algebra(f)
    n, mu, ring = f.n_vars, alg.mu, f.ring
    _, nf = _d_minus_one_presentation(f, alg.D)
    grads = partials(f)
    dd = [[divided_difference(grads[i], j) for j in range(n)] for i in range(n)]
    C = [[ring.zero] * mu for _ in range(mu)]
    for e, c in det_expand(dd).terms.items():
        ny = nf.get(e[n:], {})
        for i, cx in nf.get(e[:n], {}).items():
            for j, cy in ny.items():
                C[i][j] = C[i][j] + c * cx * cy
    return C


def _coordinate_changes(rng):
    """Item 5's sample: the path-agreement shapes moved by a seeded A in
    GL_n(F_q), over odd prime fields and, lifted to W_3, over F_{2^m}."""
    out = []
    for shapes, fields in ((ODD_SHAPES, [(5, 1), (7, 1), (11, 1), (13, 1)]),
                           (SHAPES, [(2, 1), (2, 2), (2, 3)])):
        for names, text, _ in shapes:
            for p, m in fields:
                field = gf_create(p, m)
                units = [e for e in field.elements() if not e.is_zero()]
                f = parse_poly(text, field, names.split(","),
                               constants={"a": rng.choice(units), "c": rng.choice(units)})
                # over an odd field a degree p divides has a vanishing
                # partial; the W_3 lift of a characteristic-2 input keeps it
                if p > 2 and any(k % p == 0 for e in f.terms for k in e if k):
                    continue
                while True:
                    A = [[rng.choice(units + [field.zero]) for _ in range(f.n_vars)]
                         for _ in range(f.n_vars)]
                    if not det_ring(field, A).is_zero():
                        break
                fa = _compose(f, A)
                out.append(witt_lift(fa) if p == 2 else fa)
    return out


def _corpus_bezoutians(monkeypatch):
    """Every polynomial the corpus builds a Bezoutian of, once each; undoes
    the test's monkeypatches."""
    seen = {}
    real = residue.bezoutian

    def recording(f):
        seen.setdefault((f.ring, f.n_vars, frozenset(f.terms.items())), f)
        return real(f)

    monkeypatch.setattr(residue, "bezoutian", recording)
    assert all(r.ok for r in corpus.run_corpus())
    monkeypatch.undo()
    return list(seen.values())


def _char2_lifts():
    """a7-shaped lifts over F_2 and F_4, plain and perturbed by 2*g, and the
    lifts of a13's binary cubics over F_2, F_4 and F_8."""
    out = []
    for m, text, g in [(1, "x^3+y^3+x*y^2", "x"), (1, "x^3+y^5+x^2*y", "y"),
                       (2, "x^3+g*y^3+x*y^2", "x*y"), (2, "x^5+x^2*y+y^3", "x+y^2"),
                       (2, "g*u^3+u^5", "u^2")]:
        field = gf_create(2, m)
        names = ["u"] if "u" in text else ["x", "y"]
        constants = {"g": field.gen()} if m > 1 else None
        f = parse_poly(text, field, names, constants=constants)
        ring = gr_create(field)
        lift = witt_lift(f)
        out += [lift, lift + parse_poly(g, field, names, constants).map_coeffs(ring, ring).scale(2)]
    rng = random.Random("a13-lifts")
    for m in (1, 2, 3):
        field = gf_create(2, m)
        found = 0
        while found < 3:
            F = BinaryForm(field, 3, [field.decode(rng.randrange(field.q)) for _ in range(4)])
            if divided_disc_binary(F).is_zero():
                continue
            out.append(witt_lift(F.as_poly()))
            found += 1
    return out


def test_the_digit_bezoutian_is_the_object_construction(monkeypatch):
    """C built as digits, truncated as it is expanded, equals the object
    construction entry for entry: on item 5's coordinate changes in both
    characteristics, on every input the corpus builds a Bezoutian of, on
    a7 and a13 lifts (two of which fail at their reduction's D0), on split
    sums whose C is read for gram --json, and on the CLI record's
    coordinate changes of Fermat sums."""
    hits = []
    lift_degree = milnor._lift_degree

    def recording(*args):
        hits.append(args[-1])
        return lift_degree(*args)

    monkeypatch.setattr(milnor, "_lift_degree", recording)
    cases = _coordinate_changes(random.Random("guard")) + _char2_lifts()
    field7, field13 = gf_create(7, 1), gf_create(13, 1)
    for text, field, names in [("x^3+2*y^4+z^3", field7, "x,y,z"),
                               ("(x+y)^3+(y+2*z)^3+(x+3*z)^3", field7, "x,y,z"),
                               ("(x+2*y)^4+(3*x+y)^4", field13, "x,y"),
                               ("x^2*y+y^3+x^4", field7, "x,y")]:
        cases.append(parse_poly(text, field, names.split(",")))
    cases.append(witt_lift(parse_poly("x^3+y^3+z^5", gf_create(2, 1), ["x", "y", "z"])))
    monkeypatch.setattr(milnor, "_ALGEBRAS", {})
    built = split = 0
    for f in cases:
        try:
            alg = milnor_algebra(f)
        except ResformError:
            continue
        assert _bezoutian_rows(f) == _object_bezoutian(f), f
        built += 1
        split += alg.blocks is not None
    assert len(hits) >= 2 and built >= 40 and split >= 3
    corpus_cases = _corpus_bezoutians(monkeypatch)
    assert len(corpus_cases) >= 10
    for f in corpus_cases:
        assert _bezoutian_rows(f) == _object_bezoutian(f), f


def _reference_gram(f, scale):
    """The pairing by the route that reads it off the functional: solve
    C^T lam = e_1 with the plain-Python eliminator, then take
    alpha^n * lam(b_i * b_j) from the multiplication table."""
    alg = milnor_algebra(f)
    ring, mu = f.ring, alg.mu
    C = _object_bezoutian(f)
    one_at = alg.basis_index[(0,) * f.n_vars]
    rows = [[C[j][i] for j in range(mu)] + [ring(int(i == one_at))] for i in range(mu)]
    reduced, pivots, _ = ref_rref(rows)
    assert pivots == list(range(mu))
    lam = [row[mu] for row in reduced]
    factor = ring(scale) ** f.n_vars
    G = []
    for bi in alg.basis:
        row = []
        for bj in alg.basis:
            prod = tuple(a + b for a, b in zip(bi, bj))
            s = ring.zero
            for k, c in alg.nf_monomial(prod).items():
                s = s + lam[k] * c
            row.append(factor * s)
        G.append(row)
    return lam, G


def _seeded_isolated(rng, field, n):
    """A diagonal principal part plus terms of higher weighted degree."""
    p = field.p
    ds = [rng.choice([d for d in (2, 3, 4) if d % p]) for _ in range(n)]
    terms = {}
    for i, d in enumerate(ds):
        terms[tuple(d if k == i else 0 for k in range(n))] = field.decode(
            rng.randrange(1, field.q))
    for _ in range(rng.randrange(3)):
        e = tuple(rng.randrange(max(ds) + 1) for _ in range(n))
        if sum(k / d for k, d in zip(e, ds)) > 1 and sum(e) <= max(ds) + 1:
            terms[e] = field.decode(rng.randrange(field.q))
    return MultiPoly(field, n, {e: c for e, c in terms.items() if not c.is_zero()})


def test_gram_is_the_pairing_read_off_the_functional():
    """The inverse of the Bezoutian matrix against the functional route, over
    F_p, F_{p^m} and W_3 lifts, for unit scales other than 1 too."""
    rng = random.Random(7)
    fields = [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (2, 1), (2, 2), (2, 3)]
    seen = set()
    checked = 0
    for _ in range(50):
        p, m = rng.choice(fields)
        f = _seeded_isolated(rng, gf_create(p, m), rng.randrange(1, 4))
        if p == 2:
            f = witt_lift(f)
        ring = f.ring
        if f.n_vars * milnor_algebra(f).mu % 2 and p == 2:
            continue
        scale = rng.choice([1, 2, 3, 5]) if p > 2 else rng.choice([1, 3, 5, 7])
        if not ring(scale).is_unit():
            scale = 1
        lam, ref = _reference_gram(f, scale)
        G = gram_matrix(f, scale)
        assert G.matrix == ref
        assert G.det == ref_det(ring, ref)
        assert residue_functional(f) == lam
        seen.add((p, m, scale != 1))
        checked += 1
    assert checked >= 40
    assert {(3, 2, True), (2, 2, True), (7, 1, True)} <= seen


def test_a_non_symmetric_bezoutian_is_refused(monkeypatch):
    """The inverse of a non-symmetric Bezoutian matrix is not symmetric."""
    f7 = gf_create(7, 1)
    f = parse_poly("x^3+y^3", f7, ["x", "y"])
    real = residue.bezoutian

    def skewed(f):
        C = real(f)
        C[0, 1] = (C[0, 1] + f7(1).coeffs) % 7
        assert (C[0, 1] != C[1, 0]).any()
        return C

    monkeypatch.setattr(residue, "bezoutian", skewed)
    for _ in range(2):
        with pytest.raises(SingularBezoutian, match="^gram matrix is not symmetric$"):
            gram_matrix(f, 1)
    assert milnor_algebra(f).inv_bezoutian_det is None


def _count_solves(monkeypatch):
    """Count linalg.solve_coded calls (under both names it goes by) and
    CodedOps.decode_row calls."""
    counts = {"solve": 0, "decode": 0}
    solve, decode = linalg.solve_coded, CodedOps.decode_row

    def counting_solve(*args):
        counts["solve"] += 1
        return solve(*args)

    def counting_decode(self, row):
        counts["decode"] += 1
        return decode(self, row)

    monkeypatch.setattr(linalg, "solve_coded", counting_solve)
    monkeypatch.setattr(residue, "solve_coded", counting_solve)
    monkeypatch.setattr(CodedOps, "decode_row", counting_decode)
    return counts


LAZY_CASES = [
    ("7", "1", "x,y,z", "x^3+y^3+z^4"),
    ("13", "1", "x,y", "x^5+y^6"),
    ("5", "2", "x,y", "x^3+g*y^4"),
    ("2", "4", "x,y", "x^5+y^5"),
    ("2", "2", "x,y", "x^2+x*y+g*y^2"),
]


@pytest.mark.parametrize("p, m, names, poly", LAZY_CASES, ids=[c[3] + "/" + c[0] for c in LAZY_CASES])
def test_only_a_read_of_the_matrix_solves_the_gram(monkeypatch, capsys, p, m, names, poly):
    """verify, disc and arf read det G alone: no solve, no decoded entry.
    gram solves once, and a second read of the matrix keeps the first."""
    field = gf_create(int(p), int(m))
    constants = {"g": field.gen()} if field.m > 1 else None
    f = parse_poly(poly, field, names.split(","), constants=constants)
    f_gram = witt_lift(f) if field.p == 2 else f
    counts = _count_solves(monkeypatch)
    assert verify_identity(f)["verdict"] in ("PASS", "GEOMETRIC_ONLY")
    G = gram_matrix(f_gram, -1)
    disc_square_class(G)
    if field.p == 2:
        arf_invariant(f)
    argv = ["--p", p, "--m", m, "--vars", names, "--poly", poly]
    for cmd in ("verify", "disc") + (("arf",) if field.p == 2 else ()):
        assert cli.main([cmd] + argv) == 0
    capsys.readouterr()
    assert counts == {"solve": 0, "decode": 0}

    assert cli.main(["gram"] + argv + ["--json"]) == 0
    capsys.readouterr()
    assert counts["solve"] == 1
    rows = G.matrix
    assert counts["solve"] == 2
    assert G.matrix is rows
    assert counts["solve"] == 2


def test_a_separable_verify_and_disc_eliminate_only_a_block(monkeypatch, capsys):
    """verify and disc of x^5+y^5+z^5+w^5 over F_11 (mu = 256) eliminate
    only the one-variable block x^5, once, and build the Bezoutian matrix
    of that block alone, once, never f's: the four blocks share one
    algebra, and disc's scale 1 moves verify's det G for -1."""
    eliminated, bezoutians = [], []
    eliminate, bezoutian = milnor._eliminate, residue.bezoutian

    def counting_eliminate(grads, ring, n_vars, upto, lo=0):
        eliminated.append(n_vars)
        return eliminate(grads, ring, n_vars, upto, lo)

    def counting_bezoutian(f):
        bezoutians.append(f.n_vars)
        return bezoutian(f)

    monkeypatch.setattr(milnor, "_eliminate", counting_eliminate)
    monkeypatch.setattr(residue, "bezoutian", counting_bezoutian)
    argv = ["--p", "11", "--vars", "x,y,z,w", "--poly", "x^5+y^5+z^5+w^5", "--json"]
    assert cli.main(["verify"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["mu"] == 256
    assert cli.main(["disc"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["mu"] == 256
    assert eliminated == [1]
    assert bezoutians == [1]


def _element_product(A, B, zero):
    return [[sum((a * B[k][j] for k, a in enumerate(row)), zero) for j in range(len(B[0]))]
            for row in A]


SEPARABLE = [
    (7, 1, "x,y", "x^3+y^3"),
    (13, 1, "x,y,z", "2*x^2+y^3+5*z^4"),
    (11, 1, "x,y,z", "x^3+y^4+x*y^3+3*z^3"),
    (5, 2, "x,y", "g*x^3+y^4+1"),
    (3, 2, "x,y,z", "x^4+g*y^5+z^2"),
    (5, 1, "x,y,z,w", "x^2+x*y+2*y^2+z^3+3*w^4"),
]


def test_the_lazy_matrix_inverts_the_bezoutian():
    """G * C = alpha^n * I with element arithmetic, and G.det is the
    determinant of G itself, over prime and extension fields and W_3 lifts,
    for alpha = 1, -1 and another unit (F_3 has only two).  For the sums of
    blocks in disjoint variables det G comes from the blocks' Gram forms
    and the matrix from f's own C, with alpha = 1, -1 and 3 (g over F_9)."""
    rng = random.Random(12)
    fields = [(3, 1), (7, 1), (13, 1), (3, 2), (5, 2), (2, 1), (2, 2)]
    cases = []
    for p, m in fields:
        for _ in range(4):
            f = _seeded_isolated(rng, gf_create(p, m), rng.randrange(1, 4))
            if p == 2:
                f = witt_lift(f)
            other = f.ring([0, 1]) if m > 1 else f.ring(3)
            cases.append((p, m, f, [1, -1] + ([other] if other.is_unit() else [])))
    for p, m, names, poly in SEPARABLE:
        field = gf_create(p, m)
        f = parse_poly(poly, field, names.split(","), {"g": field.gen()} if m > 1 else None)
        assert milnor_algebra(f).blocks is not None
        cases.append((p, m, f, [1, -1, 3 if p != 3 else field.gen()]))
    checked = set()
    for p, m, f, scales in cases:
        ring = f.ring
        C = _bezoutian_rows(f)
        for alpha in map(ring, scales):
            G = gram_matrix(f, alpha)
            factor = alpha ** f.n_vars
            eye = [[factor if i == j else ring.zero for j in range(G.mu)]
                   for i in range(G.mu)]
            assert _element_product(G.matrix, C, ring.zero) == eye
            assert G.det == det_ring(ring, G.matrix)
            checked.add((p, m, G.mu > 1))
    assert {(p, m, True) for p, m in fields} <= checked


def test_a_bezoutian_singular_over_w3_is_not_invertible(monkeypatch):
    """A symmetric C whose determinant is even has no unit pivot in some
    column: det_ring calls that a non-unit, the engine a singular C."""
    f = witt_lift(parse_poly("x^3+y^3", gf_create(2, 1), ["x", "y"]))
    ring = f.ring
    real = residue.bezoutian

    def even(f):
        C = real(f)
        C[0] *= 2
        C[1:, 0] *= 2
        return C % 8

    monkeypatch.setattr(residue, "bezoutian", even)
    with pytest.raises(NonUnit):
        det_ring(ring, _bezoutian_rows(f))
    for _ in range(2):
        with pytest.raises(SingularBezoutian, match="^bezoutian matrix is not invertible$"):
            gram_matrix(f, 1)
    assert milnor_algebra(f).inv_bezoutian_det is None


def _count_bezoutians(monkeypatch):
    """Record (ring, n_vars) of every Bezoutian matrix built, for its
    determinant or for a solved Gram matrix, and count the eliminations
    that read a determinant off it."""
    built, dets = [], [0]
    bezoutian, det = residue.bezoutian, residue.unit_det

    def counting_bezoutian(f):
        built.append((f.ring, f.n_vars))
        return bezoutian(f)

    def counting_det(ops, digits):
        dets[0] += 1
        return det(ops, digits)

    monkeypatch.setattr(residue, "bezoutian", counting_bezoutian)
    monkeypatch.setattr(residue, "unit_det", counting_det)
    return built, dets


def _arf_then_verify(monkeypatch, poly):
    """Bezoutians built and determinant eliminations by arf_invariant,
    verify_identity and arf_invariant again of poly over F_16, with the
    verdict; the two arf classes must agree."""
    field = gf_create(2, 4)
    f = parse_poly(poly, field, ["x", "y"], {"g": field.gen()})
    built, dets = _count_bezoutians(monkeypatch)
    first = arf_invariant(f)
    report = verify_identity(f)
    assert arf_invariant(f) == first
    return report["verdict"], built, dets


def test_arf_then_verify_build_the_witt_bezoutian_once(monkeypatch):
    """arf_invariant and then verify_identity of x^3+g*x^2*y+y^3 over F_16
    (mu = 4) read det G of one Witt lift: one Bezoutian and one
    elimination."""
    verdict, built, dets = _arf_then_verify(monkeypatch, "x^3+g*x^2*y+y^3")
    assert verdict == "GEOMETRIC_ONLY"
    assert built == [(gr_create(gf_create(2, 4)), 2)]
    assert dets == [1]


def test_arf_then_verify_of_a_morse_point_build_no_bezoutian(monkeypatch):
    """The Morse x^2+x*y+g*y^2 over F_16 reads det G of its Witt lift off
    the elimination that certifies the lift at D = 1: no Bezoutian and no
    elimination of one."""
    verdict, built, dets = _arf_then_verify(monkeypatch, "x^2+x*y+g*y^2")
    assert verdict == "PASS"
    assert built == [] and dets == [0]


def _random_morse(rng, field, n):
    """A quadratic part with random coefficients plus one to three terms of
    degree 3 or 4: a Morse point whenever its Hessian is invertible."""
    terms = {}
    for i in range(n):
        for j in range(i, n):
            terms[tuple((k == i) + (k == j) for k in range(n))] = field.decode(
                rng.randrange(field.q))
    for _ in range(rng.randint(1, 3)):
        e = [0] * n
        for _ in range(rng.choice([3, 4])):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = field.decode(rng.randrange(1, field.q))
    return MultiPoly(field, n, {e: c for e, c in terms.items() if not c.is_zero()})


def test_a_morse_algebra_holds_the_inverse_det_of_its_bezoutian():
    """On random Morse points over F_q, and on their W_3 lifts with and
    without a 2*g perturbation in characteristic 2, the algebra holds
    1/det C as soon as it is built, read off the elimination that
    certified D = 1, and it is the inverse of the det of the Bezoutian
    matrix built over that algebra.  Every other algebra holds none until
    a Gram form asks.  A perturbation with a linear term moves the lift
    off D = 1."""
    rng = random.Random(25)
    fields = [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (3, 3),
              (2, 1), (2, 2), (2, 3), (2, 4)]
    seen, others = set(), 0
    for _ in range(160):
        p, m = rng.choice(fields)
        field = gf_create(p, m)
        n = rng.choice([2, 4] if p == 2 else [1, 2, 3, 4])
        f = _random_morse(rng, field, n)
        cases = [("field", f)]
        if p == 2:
            ring = gr_create(field)
            g = _random_morse(rng, field, n)
            if rng.random() < 0.3:
                g = g + MultiPoly(field, n, {tuple(int(k == 0) for k in range(n)): field.one})
            cases += [("lift", witt_lift(f)),
                      ("perturbed", witt_lift(f) + g.map_coeffs(ring, ring).scale(2))]
        for kind, h in cases:
            try:
                alg = milnor_algebra(h, cap=4)
            except ResformError:
                continue
            if (alg.D, alg.mu) != (1, 1):
                assert alg.inv_bezoutian_det is None, h
                others += 1
                continue
            C = _bezoutian_rows(h)
            assert alg.inv_bezoutian_det == det_ring(h.ring, C).inverse(), h
            seen.add((p == 2, kind, n))
    assert {(False, "field", n) for n in (1, 2, 3, 4)} <= seen
    assert {(True, kind, n) for kind in ("field", "lift", "perturbed") for n in (2, 4)} <= seen
    assert others >= 5


MORSE_CASES = [
    ("7", "1", "x,y", "x^2+3*x*y+y^2+x^3"),
    ("5", "2", "x,y,z", "x^2+g*y^2+2*z^2+x*y*z"),
    ("3", "1", "x,y,z,w", "x^2+y^2+z*w+x^2*y"),
    ("2", "2", "x,y", "x^2+x*y+g*y^2"),
    ("2", "1", "x,y,z,w", "x*y+z*w+x^3+z^2"),
]


@pytest.mark.parametrize("p, m, names, poly", MORSE_CASES, ids=[c[3] + "/" + c[0] for c in MORSE_CASES])
def test_a_cold_morse_point_builds_a_bezoutian_only_for_its_gram_matrix(
        monkeypatch, capsys, p, m, names, poly):
    """A cold verify, disc and arf of a Morse point read det G off the one
    elimination per ring that certifies D = 1, and build no Bezoutian;
    gram --json reads the matrix, so it builds exactly one."""
    field = gf_create(int(p), int(m))
    rings = [field] + ([gr_create(field)] if field.p == 2 else [])
    eliminated = []
    eliminate = milnor._eliminate

    def counting(grads, ring, n_vars, upto, lo=0):
        eliminated.append((ring, upto))
        return eliminate(grads, ring, n_vars, upto, lo)

    def refused(f):
        raise AssertionError("a Morse point built its Bezoutian")

    monkeypatch.setattr(milnor, "_eliminate", counting)
    monkeypatch.setattr(residue, "bezoutian", refused)
    argv = ["--p", p, "--m", m, "--vars", names, "--poly", poly, "--json"]
    for cmd in ("verify", "disc") + (("arf",) if field.p == 2 else ()):
        monkeypatch.setattr(milnor, "_ALGEBRAS", {})
        eliminated.clear()
        assert cli.main([cmd] + argv) == 0
        capsys.readouterr()
        assert eliminated == [(ring, 1) for ring in rings], cmd
    monkeypatch.undo()
    monkeypatch.setattr(milnor, "_ALGEBRAS", {})
    built, _ = _count_bezoutians(monkeypatch)
    assert cli.main(["gram"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["mu"] == 1
    assert built == [(rings[-1], len(names.split(",")))]


def test_a_lift_moved_off_degree_1_reads_the_same_arf_class(monkeypatch, capsys):
    """The perturbation x moves the lift of x^2+x*y+g*y^2 over F_4 from
    D = 1 to D = 3, so its 1/det C comes from a Bezoutian, built once; the
    class is the unperturbed lift's, read off its elimination: trace bit 1."""
    field = gf_create(2, 2)
    ring = gr_create(field)
    f = parse_poly("x^2+x*y+g*y^2", field, ["x", "y"], {"g": field.gen()})
    x = parse_poly("x", field, ["x", "y"])
    lifts = [milnor_algebra(witt_lift(f)),
             milnor_algebra(witt_lift(f) + x.map_coeffs(ring, ring).scale(2))]
    assert [(a.D, a.mu) for a in lifts] == [(1, 1), (3, 1)]
    assert lifts[0].inv_bezoutian_det is not None and lifts[1].inv_bezoutian_det is None
    built, _ = _count_bezoutians(monkeypatch)
    argv = ["--p", "2", "--m", "2", "--vars", "x,y", "--poly", "x^2+x*y+g*y^2", "--json"]
    classes = []
    for extra in ([], ["--lift-perturbation", "x"]):
        assert cli.main(["arf"] + argv + extra) == 0
        classes.append(json.loads(capsys.readouterr().out)["arf"])
    assert classes[0] == classes[1] and classes[0]["trace_bit"] == 1
    assert built == [(ring, 2)]


STORE_CASES = [
    (7, 1, "x,y", "x^4+y^5+x^2*y^2"),
    (5, 2, "x,y", "g*x^3+y^4"),
    (13, 1, "x,y,z", "2*x^2+y^3+5*z^4"),
    (2, 2, "x,y", "x^3+g*x^2*y+y^3"),
]


def _store_case(p, m, names, poly):
    field = gf_create(p, m)
    f = parse_poly(poly, field, names.split(","), {"g": field.gen()} if m > 1 else None)
    return witt_lift(f) if p == 2 else f


# each first read, and how many composed algebras it presents: G's basis is
# its algebra's, and G's matrix is solved from the Bezoutian over that same
# algebra
FIRST_READS = {
    "algebra basis": (lambda alg, G: alg.basis, 1),
    "basis index": (lambda alg, G: alg.basis_index, 1),
    "normal form": (lambda alg, G: alg.nf_monomial((1,) * alg.n_vars), 1),
    "algebra json": (lambda alg, G: alg.to_json(), 1),
    "form basis": (lambda alg, G: G.basis, 1),
    "form matrix": (lambda alg, G: G.matrix, 1),
    "form json": (lambda alg, G: G.to_json(), 1),
}
LAZY_CASES = [
    (5, 2, "x,y", "g*x^3+y^4"),
    (13, 1, "x,y,z", "2*x^2+y^3+5*z^4"),
    (7, 1, "x,y,z", "x^3+2*y^4+z^3"),
]


@pytest.mark.parametrize("read", FIRST_READS)
@pytest.mark.parametrize("p, m, names, poly", LAZY_CASES, ids=[c[3] for c in LAZY_CASES])
def test_a_split_sum_builds_its_product_basis_on_first_read(monkeypatch, read, p, m, names, poly):
    """Whichever read comes first builds a product basis, once per composed
    algebra it reads, and the basis, every normal form below D and the
    solved G equal the eager references: a plain elimination of f below D,
    and G read off the residue functional."""
    f = _parse_case(p, m, names, poly)
    built = _count_product_presentations(monkeypatch)
    G = gram_matrix(f, 3)
    # a fresh parse, so alg is composed apart from G's algebra
    alg = milnor_algebra(_parse_case(p, m, names, poly))
    assert alg.blocks is not None and built == []
    first, composed = FIRST_READS[read]
    first(alg, G)
    assert built == [f.n_vars, "forms"] * composed
    basis, nf = _d_minus_one_presentation(f, alg.D)
    assert alg.basis == G.basis == basis
    for e in monomials_upto(f.n_vars, alg.D - 1):
        assert alg.nf_monomial(e) == nf[e], e
    matrix = G.matrix
    # alg and G's algebra, which G's Bezoutian reads too: once each
    assert built == [f.n_vars, "forms"] * 2
    assert matrix == _reference_gram(f, 3)[1]
    assert G.det == det_ring(f.ring, G.matrix)


def _bound_slots(alg):
    """id of every slot value the algebra has bound, read without building
    a product's presentation."""
    bound = {}
    for name in type(alg).__slots__:
        try:
            bound[name] = id(object.__getattribute__(alg, name))
        except AttributeError:
            pass
    return bound


def _eliminated(alg):
    """The eliminated algebras that keep 1/det C for alg: a product's blocks'
    algebras, or alg itself."""
    return [a for _, _, a in alg.blocks] if alg.blocks else [alg]


@pytest.mark.parametrize("p, m, names, poly", STORE_CASES, ids=[c[3] + "/" + str(c[0]) for c in STORE_CASES])
def test_a_stored_det_is_the_det_of_the_solved_matrix(monkeypatch, p, m, names, poly):
    """det G read at scales 1, -1 and 3 off a stored 1/det C is the
    determinant of the matrix solved from f's own Bezoutian; no Bezoutian
    is built for it, and the algebra keeps a ring element, the inverse of
    its Bezoutian's det.  A split sum's 1/det C is the Kronecker product of
    its blocks' stored ones: the product stores none, and its blocks'
    cached algebras hold them."""
    f = _store_case(p, m, names, poly)
    ring = f.ring
    first = gram_matrix(f, 1)
    alg = milnor_algebra(f)
    kept = _eliminated(alg)
    assert all(milnor_algebra(block) is a for _, block, a in alg.blocks or ())
    slots = [_bound_slots(a) for a in kept]
    built, dets = _count_bezoutians(monkeypatch)
    forms = [gram_matrix(f, s) for s in (1, -1, 3, -1)]
    assert built == [] and dets == [0]
    assert [_bound_slots(a) for a in kept] == slots
    forms.append(first)
    for G in forms:
        assert G.det == det_ring(ring, G.matrix)
    # solving G builds a Bezoutian; no slot of an eliminated algebra is
    # rebound or newly bound
    assert [_bound_slots(a) for a in kept] == slots
    if alg.blocks:
        assert alg.inv_bezoutian_det is None
    for g, a in [(block, a) for _, block, a in alg.blocks] if alg.blocks else [(f, alg)]:
        assert a.blocks is None
        assert type(a.inv_bezoutian_det) is type(ring.one) and a.inv_bezoutian_det.ring == ring
        assert a.inv_bezoutian_det * det_ring(ring, _bezoutian_rows(g)) == ring.one


def test_errors_are_raised_anew_on_every_call():
    """A non-unit scale raises its message before and after the algebra
    holds 1/det C, over a field, for a split sum and over W_3; a split sum's
    1/det C is held by its blocks' algebras."""
    f7 = gf_create(7, 1)
    cases = [(parse_poly("x^4+y^3+x^2*y", f7, ["x", "y"]), 7, "0"),
             (parse_poly("x^4+y^3", f7, ["x", "y"]), 14, "0"),
             (witt_lift(parse_poly("x^3+y^3", gf_create(2, 1), ["x", "y"])), 2, "2")]
    for f, scale, shown in cases:
        for good in (None, 1):
            if good is not None:
                gram_matrix(f, good)
            for _ in range(2):
                with pytest.raises(NonUnitScale, match=f"^scale {shown} is not a unit$"):
                    gram_matrix(f, scale)
        alg = milnor_algebra(f)
        assert all(a.inv_bezoutian_det is not None for a in _eliminated(alg))
        if alg.blocks:
            assert alg.inv_bezoutian_det is None


def test_a_cold_non_unit_scale_builds_no_bezoutian(monkeypatch):
    """The scale is checked once, before any branch: a cold gram_matrix at
    a non-unit scale expands no Bezoutian, over a field, for a split sum
    and over W_3, and stores no 1/det C."""
    expanded = []
    det_expand = residue.det_expand

    def counting_det_expand(mat, mul):
        expanded.append(len(mat))
        return det_expand(mat, mul)

    monkeypatch.setattr(residue, "det_expand", counting_det_expand)
    f7 = gf_create(7, 1)
    cases = [(parse_poly("x^4+y^3+x^2*y", f7, ["x", "y"]), 7, "0"),
             (parse_poly("x^4+y^3", f7, ["x", "y"]), 14, "0"),
             (witt_lift(parse_poly("x^3+y^3", gf_create(2, 1), ["x", "y"])), 2, "2")]
    for f, scale, shown in cases:
        with pytest.raises(NonUnitScale, match=f"^scale {shown} is not a unit$"):
            gram_matrix(f, scale)
        alg = milnor_algebra(f)
        assert all(a.inv_bezoutian_det is None for a in [alg] + _eliminated(alg))
    assert expanded == []


def test_an_evicted_polynomial_recomputes_the_same_det(monkeypatch):
    """With room for three algebras, the first of four polynomials is
    evicted; the Gram form of a fresh parse of it builds its Bezoutian
    again, with the same det, while a warm one builds none."""
    monkeypatch.setattr(milnor, "_ALGEBRAS_MAX", 3)
    f7 = gf_create(7, 1)

    def parse(k):
        return parse_poly(f"x^4+y^3+{k}*x^2*y", f7, ["x", "y"])

    built, _ = _count_bezoutians(monkeypatch)
    first = [gram_matrix(parse(k), 3).det for k in range(1, 5)]
    assert len(built) == 4
    assert gram_matrix(parse(4), 3).det == first[-1]
    assert len(built) == 4
    assert gram_matrix(parse(1), 3).det == first[0]
    assert len(built) == 5


@pytest.mark.parametrize("case", ["field", "witt"])
def test_a_cold_gram_matrix_inverts_only_the_pivots(monkeypatch, case):
    """With f's algebra built, a cold Gram form asks the pivot-inverse memo
    once per pivot of the Bezoutian's elimination, and nothing else: 1/det C
    is the product of those pivots' inverses.  Neither f is a sum of
    blocks."""
    if case == "field":
        f = parse_poly("x^4+y^3+x^2*y", gf_create(7, 1), ["x", "y"])
    else:
        f = witt_lift(parse_poly("x^3+x^2*y+y^3", gf_create(2, 1), ["x", "y"]))
    mu = milnor_algebra(f).mu
    assert milnor_algebra(f).blocks is None and mu == 4
    calls = []
    inverse_times = CodedOps._inverse_times

    def counting(ops, d):
        calls.append(d)
        return inverse_times(ops, d)

    monkeypatch.setattr(CodedOps, "_inverse_times", counting)
    gram_matrix(f, 1)
    assert len(calls) == mu


@pytest.mark.parametrize("p, m, names, text, op", [
    (7, 1, "x,y", "x^2+x*y+3*y^2", "verify"),
    (5, 2, "x,y,z", "g*x^2+x*y+y^2+y*z+z^2", "verify"),
    (2, 2, "x,y", "x^2+x*y+g*y^2", "verify"),
    (2, 4, "x,y", "x^3+g*x^2*y+y^3", "arf"),
    (2, 2, "u", "u^2+u^5", "arf"),
], ids=["morse-F7", "morse-F25", "morse-F4", "witt-F16", "witt-fallback-F4"])
def test_a_cold_engine_inverts_no_determinant(monkeypatch, p, m, names, text, op):
    """A cold verify of a Morse point, in odd characteristic and in
    characteristic 2, and a cold arf of a lift that certifies at D0 and of
    one that takes the fallback elimination: every inverse of the ring the
    determinant lives in (F_q, or W_3 for a lift) is a miss of the
    pivot-inverse memo.  1/det C is the product of pivot inverses, and the
    square class divides by a Teichmueller lift through a field inverse."""
    f = _parse_case(p, m, names, text)
    ring = gr_create(f.ring) if p == 2 else f.ring
    elem = type(ring.one)
    callers = []
    inverse = elem.inverse

    def recording(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return inverse(self)

    monkeypatch.setattr(linalg, "_CODED_CACHE", {})
    monkeypatch.setattr(elem, "inverse", recording)
    if op == "verify":
        assert verify_identity(f)["mu"] == 1
    else:
        arf_invariant(f)
    assert callers and set(callers) == {"_inverse_times"}
    assert len(callers) == len(linalg.coded(ring)._inv)


def _separable(rng, field):
    """A sum of two or three seeded random blocks in disjoint variables, 3
    variables in all at most, and the variable sets of its blocks."""
    sizes = rng.choice([(1, 1), (1, 2), (2, 1), (1, 1, 1)])
    terms, blocks, first = {}, [], 0
    n = sum(sizes)
    for size in sizes:
        block = _random_poly(rng, field, size)
        for e, c in block.terms.items():
            terms[(0,) * first + e + (0,) * (n - first - size)] = c
        blocks.append(range(first, first + size))
        first += size
    return MultiPoly(field, n, terms), blocks


def _perturbations(rng, field, n, blocks):
    """No perturbation, one whose terms each lie in one block's variables,
    and one with a term that couples two blocks."""
    def term(vs):
        e = [0] * n
        for v in vs:
            e[v] += rng.randint(1, 2)
        return tuple(e)

    unit = field.one
    inside = {term([rng.choice(block)]): unit for block in blocks}
    coupling = dict(inside)
    coupling[term([rng.choice(blocks[0]), rng.choice(blocks[-1])])] = unit
    return [None, MultiPoly(field, n, inside), MultiPoly(field, n, coupling)]


def _w3_outcome(f, g):
    """The W_3 algebra, det G, Arf JSON and Gram form at the non-unit scale
    2 of f's lift perturbed by 2*g, or for each the (error, message) it
    raised."""
    ring = gr_create(f.ring)
    f_w = witt_lift(f) if g is None else witt_lift(f) + g.map_coeffs(ring, ring).scale(2)
    out = []
    for step in (lambda: milnor_algebra(f_w), lambda: gram_matrix(f_w, 1).det,
                 lambda: arf_invariant(f, g).to_json(), lambda: gram_matrix(f_w, 2)):
        try:
            out.append(step())
        except ResformError as err:
            out.append((type(err).__name__, str(err)))
    return out


def test_a_split_witt_lift_is_the_whole_lift(monkeypatch):
    """Seeded separable inputs over F_2..F_16, lifted plain, perturbed
    inside the blocks and perturbed across two of them: the product route
    gives the W_3 mu, basis, normal forms, det G (exactly, not only its
    trace bit), Arf JSON and error messages of a whole-lift elimination."""
    product = milnor._product

    def whole(f, cap):
        return product(f, cap) if f.ring.b == f.ring.residue else None

    compared = split = coupled = errors = 0
    for m in (1, 2, 3, 4):
        field = gf_create(2, m)
        rng = random.Random(f"split-w3/{m}")
        for _ in range(80):
            f, blocks = _separable(rng, field)
            try:
                milnor_algebra(f, cap=3)  # keeps the whole lift's 3*D0 - 1 elimination small
            except ResformError:
                continue
            for g in _perturbations(rng, field, f.n_vars, blocks):
                monkeypatch.setattr(milnor, "_ALGEBRAS", {})
                got = _w3_outcome(f, g)
                monkeypatch.setattr(milnor, "_ALGEBRAS", {})
                monkeypatch.setattr(milnor, "_product", whole)
                want = _w3_outcome(f, g)
                monkeypatch.setattr(milnor, "_product", product)
                alg, ref = got[0], want[0]
                errors += sum(isinstance(out, tuple) for out in want)
                if isinstance(ref, tuple):
                    assert alg == ref, f
                else:
                    assert ref.blocks is None
                    assert (alg.mu, alg.basis) == (ref.mu, ref.basis), f
                    for e in monomials_upto(f.n_vars, max(alg.D, ref.D)):
                        assert alg.nf_monomial(e) == ref.nf_monomial(e), (f, g, e)
                    split += alg.blocks is not None
                    coupled += len(alg.blocks or ()) < len(blocks)
                assert got[1:] == want[1:], (f, g)
                compared += 1
    assert compared >= 60 and split >= 40 and coupled >= 20 and errors >= compared


def test_a_separable_lift_builds_no_whole_relation_matrix_or_bezoutian(monkeypatch):
    """arf, verify, gram and disc of x^5+y^5+z^3+w^3 over F_4 eliminate and
    build a Bezoutian only for the one-variable lifts x^5 and z^3, never in
    four variables over W_3."""
    eliminated = []
    eliminate = milnor._eliminate

    def counting(grads, ring, n_vars, upto, lo=0):
        eliminated.append((ring, n_vars))
        return eliminate(grads, ring, n_vars, upto, lo)

    monkeypatch.setattr(milnor, "_eliminate", counting)
    built, _ = _count_bezoutians(monkeypatch)
    f4 = gf_create(2, 2)
    ring = gr_create(f4)
    f = parse_poly("x^5+y^5+z^3+w^3", f4, ["x", "y", "z", "w"])
    arf_invariant(f)
    verify_identity(f)
    disc_square_class(gram_matrix(witt_lift(f), 3))
    assert [n for r, n in eliminated if r == ring] == [1, 1]
    assert [n for r, n in built if r == ring] == [1, 1]


def test_a_cold_split_arf_is_fast():
    """The blocks' lifts are eliminated instead of the whole mu = 64 lift,
    whose elimination and Bezoutian took about 0.14 s."""
    f = parse_poly("x^5+y^5+z^3+w^3", gf_create(2, 2), ["x", "y", "z", "w"])
    milnor_algebra(f)
    start = time.perf_counter()
    arf_invariant(f)
    assert time.perf_counter() - start < 0.05
