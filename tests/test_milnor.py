import json
import time

import pytest

from resform import cli, milnor
from resform.epsilon import calibrate, verify_identity
from resform.errors import NotIsolated, OddProduct
from resform.gfield import gf_create
from resform.linalg import rref_ring
from resform.milnor import (
    _relation_rows,
    family_milnor_profile,
    milnor_algebra,
    mono_key,
    monomials_upto,
)
from resform.mpoly import MultiPoly, parse_poly, partials
from resform.residue import arf_invariant
from resform.wittring import gr_create


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
    assert alg.D == 6
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


def _d_minus_one_presentation(f, D):
    """Basis and normal forms from a fresh elimination at degree D - 1."""
    ring, n = f.ring, f.n_vars
    cols = sorted(monomials_upto(n, D - 1), key=mono_key, reverse=True)
    col_index = {e: j for j, e in enumerate(cols)}
    red, pivots, _ = rref_ring(ring, _relation_rows(partials(f), D - 1, col_index, ring, n))
    pivot_set = set(pivots)
    basis = sorted((cols[j] for j in range(len(cols)) if j not in pivot_set), key=mono_key)
    index = {e: i for i, e in enumerate(basis)}
    nf = {e: {index[e]: ring(1)} for e in basis}
    for k, c in enumerate(pivots):
        nf[cols[c]] = {index[cols[j]]: -red[k][j] for j in range(len(cols))
                       if j not in pivot_set and not red[k][j].is_zero()}
    return basis, nf


@pytest.mark.parametrize("p, m, names, text", [
    (7, 1, "x,y", "x^3+y^3"),
    (5, 1, "x,y", "x^4+y^2+x*y"),
    (7, 1, "x,y,z", "x^3+y^3+z^3+3*x*y*z"),
    (3, 1, "x,y", "x^2*y+y^4+x^4"),
    (3, 2, "x,y", "x^4+g*y^2+x*y^2"),
    (5, 2, "x,y", "x^3+g*y^4+x*y"),
    (2, 11, "x,y", "x^3+g*y^3+x*y^2"),
    (2, 11, "u", "u^2+g*u^5"),
])
def test_scan_presentation_matches_a_fresh_elimination_below_D(p, m, names, text):
    """The presentation read off the certifying scan equals the D-1 elimination."""
    field = gf_create(p, m)
    vars_ = names.split(",")
    constants = {field.gen_symbol: field.gen()} if m > 1 else None
    f = parse_poly(text, field, vars_, constants=constants)
    alg = milnor_algebra(f)
    basis, nf = _d_minus_one_presentation(f, alg.D)
    assert alg.basis == basis
    for e in monomials_upto(f.n_vars, alg.D - 1):
        assert alg.nf_monomial(e) == nf[e], e


def test_a_lower_cap_still_rejects_after_success():
    f7 = gf_create(7, 1)
    f = parse_poly("x^3+y^3", f7, ["x", "y"])
    assert milnor_algebra(f).D == 3
    with pytest.raises(NotIsolated):
        milnor_algebra(f, cap=2)
    assert milnor_algebra(f, cap=3).D == 3


def _count_eliminations(monkeypatch):
    """Record the ring of every elimination milnor runs, on an empty cache."""
    seen = []

    def counting(ring, rows):
        seen.append(ring)
        return rref_ring(ring, rows)

    monkeypatch.setattr(milnor, "rref_ring", counting)
    monkeypatch.setattr(milnor, "_ALGEBRAS", {})
    return seen


def test_verify_runs_only_the_scan(monkeypatch):
    calibrate()
    seen = _count_eliminations(monkeypatch)
    f7 = gf_create(7, 1)
    report = verify_identity(parse_poly("x^3+y^3", f7, ["x", "y"]))
    assert report["mu"] == 4
    # D0 = 3: one elimination per candidate degree, none after the scan
    assert len(seen) == 3


def test_repeated_arf_scans_the_residue_field_once(monkeypatch):
    seen = _count_eliminations(monkeypatch)
    field = gf_create(2, 2)
    f = parse_poly("u^2+u^5", field, ["u"])
    first = arf_invariant(f)
    scans = sum(1 for r in seen if r == field)
    assert scans == milnor_algebra(f).D
    assert len(seen) == scans + 1
    perturbations = ["u^3", "u^4", "u^3+u^4"]
    for text in perturbations:
        assert arf_invariant(f, lift_perturbation=parse_poly(text, field, ["u"])) == first
    assert arf_invariant(f) == first
    assert sum(1 for r in seen if r == field) == scans
    # one elimination at 3*D0 - 1 per distinct Witt lift
    assert len(seen) == scans + 1 + len(perturbations)


def test_algebra_cache_drops_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(milnor, "_ALGEBRAS", {})
    monkeypatch.setattr(milnor, "_ALGEBRAS_MAX", 3)
    f7 = gf_create(7, 1)
    a, b, c, d = (parse_poly(f"{k}*x^3", f7, ["x"]) for k in range(1, 5))
    alg_a, alg_b = milnor_algebra(a), milnor_algebra(b)
    milnor_algebra(c)
    assert milnor_algebra(a) is alg_a
    milnor_algebra(d)
    assert len(milnor._ALGEBRAS) == 3
    assert milnor_algebra(a) is alg_a
    assert milnor_algebra(b) is not alg_b


def test_parity_violation_is_a_structured_error(monkeypatch, capsys):
    """A broken parity reaches the CLI as OddProduct with exit code 2."""
    field = gf_create(2, 1)
    monkeypatch.setattr(milnor, "_ALGEBRAS", {})
    # pretend the Jacobian ideal is (u): mu = 1 with one variable
    monkeypatch.setattr(milnor, "partials", lambda f: [MultiPoly.var(field, 1, 0)])
    with pytest.raises(OddProduct):
        milnor_algebra(parse_poly("u^3", field, ["u"]))
    code = cli.main(["milnor", "--p", "2", "--vars", "u", "--poly", "u^3", "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == "OddProduct"
