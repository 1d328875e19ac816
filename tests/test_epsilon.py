import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from resform import catalog, cli, gfield
from resform.errors import (
    CatalogMiss,
    EvenCharacteristic,
    FieldMismatch,
    NotIsolated,
    OddCharacteristic,
    ZeroCoefficient,
)
from resform.catalog import (
    EpsilonValue,
    arithmetic_side,
    arithmetic_sides,
    _mu_univariate_char2,
    dimtot_from_mu,
    eps_convolve,
    eps_ordquad_char2,
    eps_quad_odd,
    eps_wildquad_char2,
)
from resform.epsilon import calibrate, geometric_side, verify_identity
from resform.gfield import SUPPORTED_PRIMES, CycloInt, gf_create, legendre
from resform.milnor import milnor_algebra
from resform.mpoly import MultiPoly, parse_poly, variable_blocks


def test_tau_square_absorption():
    f3 = gf_create(3, 1)
    f5 = gf_create(5, 1)
    assert EpsilonValue(f3, 1, 2, 0) == EpsilonValue(f3, -1, 0, 1)
    assert EpsilonValue(f5, 1, 2, 0) == EpsilonValue(f5, 1, 0, 1)
    # negative exponents normalize the same way
    assert EpsilonValue(f3, 1, -1, 0) == EpsilonValue(f3, -1, 1, -1)


def test_group_laws_random():
    rng = random.Random(41)
    for p in (3, 5, 7):
        field = gf_create(p, 1)
        one = EpsilonValue(field, 1)
        vals = [
            EpsilonValue(field, rng.choice((1, -1)), rng.randrange(-3, 4),
                         Fraction(rng.randrange(-4, 5), rng.choice((1, 2))))
            for _ in range(6)
        ]
        for e in vals:
            assert e * e.inverse() == one
            assert e ** 3 == e * e * e
            assert e ** 0 == one
        for a in vals:
            for b in vals:
                assert a * b == b * a
                for c in vals:
                    assert (a * b) * c == a * (b * c)


def test_tau_square_sign_is_the_character_of_minus_one():
    """tau^2 = (-1 | F_q) * q, read from q mod 4 instead of a power of -1."""
    for p in SUPPORTED_PRIMES[1:]:
        for m in range(1, 5):
            field = gf_create(p, m)
            assert EpsilonValue(field, 1, 2, 0) == EpsilonValue(field, legendre(field(-1)), 0, 1)


def test_char2_refuses_tau():
    f2 = gf_create(2, 1)
    with pytest.raises(EvenCharacteristic):
        EpsilonValue(f2, 1, 1, 0)
    assert EpsilonValue(f2, -1, 0, Fraction(1, 2)).to_json()["q_exp"] == "1/2"


def test_q_exponent_is_kept_as_twice_a_half_integer():
    """Every value the operations build holds 2*q_exp as an int, and reads
    q_exp back as the Fraction it stands for."""
    rng = random.Random(7)
    for p in (3, 5, 7):
        field = gf_create(p, 1)
        vals = [EpsilonValue(field, rng.choice((1, -1)), rng.randrange(-3, 4),
                             Fraction(rng.randrange(-5, 6), 2)) for _ in range(5)]
        built = [a * b for a in vals for b in vals]
        built += [e ** k for e in vals for k in (0, 1, 2, 3, -1)]
        built += [e.inverse() for e in vals] + [e.negate() for e in vals]
        built += [e.twist(c) for e in vals for c in range(1, p)]
        for e in vals + built:
            assert type(e.q2) is int
            assert type(e.q_exp) is Fraction and e.q_exp == Fraction(e.q2, 2)
            assert e.tau_exp in (0, 1)


def test_q_exponent_json_strings():
    f2, f3, f4 = gf_create(2, 1), gf_create(3, 1), gf_create(2, 2)
    cases = [
        (EpsilonValue(f2, 1, 0, Fraction(1, 2)), "1/2"),
        (eps_ordquad_char2(f2(0), f2), "-1"),
        (EpsilonValue(f4, -1, 0, Fraction(3, 2)), "3/2"),
        (EpsilonValue(f3, 1, 1, 0), "0"),
        (EpsilonValue(f3, 1, 1, 0) ** 2, "1"),
        (EpsilonValue(f3, 1, 0, Fraction(-4, 2)), "-2"),
    ]
    for e, text in cases:
        assert e.to_json()["q_exp"] == text


def test_equal_values_built_by_different_routes_hash_alike():
    f3, f5 = gf_create(3, 1), gf_create(5, 1)
    tau3, tau5 = EpsilonValue(f3, 1, 1), EpsilonValue(f5, 1, 1)
    for a, b in [
        (tau3 ** 2, EpsilonValue(f3, -1, 0, 1)),  # tau^2 = -q over F_3
        (tau5 ** 2, EpsilonValue(f5, 1, 0, 1)),  # and +q over F_5
        (tau3 * tau3.inverse(), EpsilonValue(f3, 1)),
        (EpsilonValue(f3, 1, 0, Fraction(2, 2)), EpsilonValue(f3, 1, 0, 1)),
        (EpsilonValue(f3, 1, 4, 0), EpsilonValue(f3, 1, 0, 2)),
        (tau3.negate().negate(), tau3),
    ]:
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert tau3 ** 2 != EpsilonValue(f3, 1, 0, 1)


@pytest.mark.parametrize("q_exp", [Fraction(1, 3), Fraction(5, 4), Fraction(-1, 6)])
def test_a_q_exponent_that_is_not_a_half_integer_is_refused(q_exp):
    with pytest.raises(ValueError, match="half-integer"):
        EpsilonValue(gf_create(5, 1), 1, 0, q_exp)


def test_field_mismatch_refuses_product():
    e3 = EpsilonValue(gf_create(3, 1), 1)
    e5 = EpsilonValue(gf_create(5, 1), 1)
    with pytest.raises(FieldMismatch):
        e3 * e5


def test_witness_values():
    f3 = gf_create(3, 1)
    assert EpsilonValue(f3, 1, 0, 1).witness() == CycloInt.from_int(3, 3)
    assert EpsilonValue(f3, -1, 1, 0).witness() == CycloInt(3, (1, 2))
    assert EpsilonValue(f3, 1, 0, -1).witness() is None
    assert EpsilonValue(f3, 1, 0, Fraction(1, 2)).witness() is None
    assert EpsilonValue(gf_create(2, 1), 1, 0, 1).witness() is None


def _witness_as_printed(e):
    """The witness of e as the report printed it before witnesses had a
    size bound: the full power, or None when json refuses to print it."""
    if e.field.p == 2 or e.q2 % 2 or e.q2 < 0:
        return None
    w = CycloInt.from_int(e.field.p, e.sign * e.field.q ** (e.q2 // 2))
    if e.tau_exp:
        w = w * gfield.gauss_sum(e.field)
    try:
        json.dumps(list(w.coeffs))
    except ValueError:
        return "refused"
    return list(w.coeffs)


@pytest.mark.parametrize("p, m", [(3, 1), (13, 1), (3, 2), (5, 3)])
def test_a_witness_is_printed_exactly_when_its_digits_fit(p, m):
    """Around the size where q^k first needs more than WITNESS_DIGITS
    digits, a witness that printed before prints the same, and one that
    could not print is None, so every report prints."""
    field = gf_create(p, m)
    edge, power, bound = 0, 1, 10 ** catalog.WITNESS_DIGITS
    while power < bound:
        edge, power = edge + 1, power * field.q
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(catalog.WITNESS_DIGITS)
    try:
        refused = 0
        for k in range(edge - 3, edge + 3):
            for sign, tau in itertools.product((1, -1), (0, 1)):
                e = EpsilonValue(field, sign, tau, k)
                before = _witness_as_printed(e)
                refused += before == "refused"
                assert e.to_json()["witness"] == (None if before == "refused" else before)
                json.dumps(e.to_json())
    finally:
        sys.set_int_max_str_digits(limit)
    assert 0 < refused < 24
    assert EpsilonValue(field, 1, 1, 10 ** 6).witness() is None


def test_twist_rules():
    f7 = gf_create(7, 1)
    e = EpsilonValue(f7, 1, 1, 0)
    for c in range(1, 7):
        assert e.twist(c * c) == e
        assert e.twist(c).sign == legendre(f7(c))
    flat = EpsilonValue(f7, 1, 0, 2)
    assert flat.twist(3) == flat
    with pytest.raises(ZeroCoefficient):
        e.twist(7)
    with pytest.raises(ZeroCoefficient):
        EpsilonValue(gf_create(2, 1), 1).twist(2)


def test_catalog_quadratic_odd():
    f3 = gf_create(3, 1)
    f5 = gf_create(5, 1)
    f7 = gf_create(7, 1)
    assert eps_quad_odd(1, f3) == EpsilonValue(f3, 1, 1, 0)
    assert eps_quad_odd(1, f5) == EpsilonValue(f5, -1, 1, 0)
    assert eps_quad_odd(2, f7) == EpsilonValue(f7, 1, 1, 0)
    with pytest.raises(ZeroCoefficient):
        eps_quad_odd(0, f3)
    with pytest.raises(ZeroCoefficient):
        eps_quad_odd(1, f3, twist=3)
    with pytest.raises(EvenCharacteristic):
        eps_quad_odd(1, gf_create(2, 1))


def test_catalog_char2_entries():
    f2 = gf_create(2, 1)
    f4 = gf_create(2, 2)
    w = f4.gen()
    assert eps_ordquad_char2(f2(1), f2) == EpsilonValue(f2, 1, 0, Fraction(-1))
    assert eps_ordquad_char2(f2(0), f2) == EpsilonValue(f2, -1, 0, Fraction(-1))
    # over F_4 the trace of 1 vanishes and the trace of the generator is 1
    assert eps_ordquad_char2(f4(1), f4).sign == -1
    assert eps_ordquad_char2(w, f4).sign == 1
    assert eps_wildquad_char2(f2) == EpsilonValue(f2, 1, 0, 1)
    with pytest.raises(OddCharacteristic):
        eps_ordquad_char2(1, gf_create(3, 1))
    with pytest.raises(OddCharacteristic):
        eps_wildquad_char2(gf_create(3, 1))
    with pytest.raises(ZeroCoefficient):
        arithmetic_side(parse_poly("x^2+x^3", f2, ["x"]), twist=2)


def test_convolution_inverts_mixed_powers():
    f3 = gf_create(3, 1)
    e1 = EpsilonValue(f3, -1, 1, 0)
    e2 = EpsilonValue(f3, 1, 0, 1)
    assert eps_convolve(e1, 1, e2, 2) == (e1 ** 2 * e2).inverse()


def test_calibration_picks_exponent_one():
    assert calibrate() == 1


def test_the_geometric_side_never_consults_the_catalog(monkeypatch):
    """With the catalog unreachable the geometric side still returns the
    catalog's values on inputs the catalog covers."""
    polys = [parse_poly(poly, gf_create(p, m), names.split(","))
             for p, m, names, poly in [(3, 1, "t", "t^2"), (5, 1, "t", "t^2"),
                                       (7, 1, "t", "t^2"), (3, 1, "x,y,z", "x^2+y^2+z^2"),
                                       (2, 2, "x,y", "x^2+x*y+y^2")]]
    expected = [arithmetic_side(f)[0] for f in polys]

    def unreachable(*args):
        raise AssertionError("the geometric side consulted the catalog")

    monkeypatch.setattr(catalog, "arithmetic_sides", unreachable)
    monkeypatch.setattr(catalog, "_classify_block", unreachable)
    assert [geometric_side(f) for f in polys] == expected


def test_quadratic_identity_held_out_primes():
    """The t^2 identity over primes that played no part in calibration."""
    for p in (7, 11, 13):
        field = gf_create(p, 1)
        f = parse_poly("t^2", field, ["t"])
        ar, d = arithmetic_side(f)
        assert d == 1
        assert geometric_side(f) == ar
        rep = verify_identity(f)
        assert rep["verdict"] == "PASS"
        assert rep["psi_twists_checked"] == p - 1


def test_verify_sum_of_two_squares():
    f3 = gf_create(3, 1)
    rep = verify_identity(parse_poly("x^2+y^2", f3, ["x", "y"]))
    assert rep["verdict"] == "PASS"
    assert rep["dimtot"] == -1
    assert rep["arithmetic"] == {
        "sign": -1, "tau_exp": 0, "q_exp": "-1", "witness": None,
    }
    assert rep["psi_twists_checked"] == 2


def test_verify_char2_cases():
    f2 = gf_create(2, 1)
    rep = verify_identity(parse_poly("u^2+u^3", f2, ["u"]))
    assert rep["verdict"] == "PASS"
    assert rep["arithmetic"] == {
        "sign": 1, "tau_exp": 0, "q_exp": "1", "witness": None,
    }
    rep = verify_identity(parse_poly("x^2+x*y+y^2", f2, ["x", "y"]))
    assert rep["verdict"] == "PASS"
    assert rep["arithmetic"]["sign"] == -1
    assert rep["arithmetic"]["q_exp"] == "-1"


def test_verify_mixed_char2_convolution():
    f2 = gf_create(2, 1)
    f = parse_poly("x^2+x*y+y^2+u^2+u^3", f2, ["x", "y", "u"])
    ar, d = arithmetic_side(f)
    assert (ar.sign, ar.tau_exp, ar.q_exp) == (1, 0, Fraction(3))
    assert d == 2
    rep = verify_identity(f)
    assert rep["verdict"] == "PASS"


@pytest.mark.parametrize("p, k", [(3, 1), (5, 3), (7, 2), (13, 4)])
def test_verify_splits_once_and_classifies_every_block_for_every_twist(monkeypatch, p, k):
    """One verify of a k-block diagonal form over F_p splits f once in the
    catalog and derives each block's entry afresh for each of the p-1 twists."""
    calls = {"split": 0, "classify": 0}
    real_split, real_classify = catalog.variable_blocks, catalog._classify_block

    def split(f):
        calls["split"] += 1
        return real_split(f)

    def classify(*args):
        calls["classify"] += 1
        return real_classify(*args)

    monkeypatch.setattr(catalog, "variable_blocks", split)
    monkeypatch.setattr(catalog, "_classify_block", classify)
    field = gf_create(p, 1)
    names = [f"x{i}" for i in range(k)]
    text = "+".join(f"{i % (p - 1) + 1}*{v}^2" for i, v in enumerate(names))
    report = verify_identity(parse_poly(text, field, names))
    assert report["verdict"] == "PASS"
    assert report["psi_twists_checked"] == p - 1
    assert calls == {"split": 1, "classify": k * (p - 1)}


def test_arithmetic_sides_is_the_one_twist_answer_for_each_twist():
    f7 = gf_create(7, 1)
    f = parse_poly("x^2+3*y^2+5*z^2", f7, ["x", "y", "z"])
    twists = list(range(1, 7))
    assert arithmetic_sides(f, twists) == [arithmetic_side(f, c) for c in twists]
    # an even twist in characteristic 2 is refused before f is split, and a
    # bad shape before any block is classified
    f2 = gf_create(2, 1)
    with pytest.raises(ZeroCoefficient):
        arithmetic_sides(parse_poly("x^2+x^3+1", f2, ["x"]), [1, 2])
    with pytest.raises(CatalogMiss, match="nonzero constant term"):
        arithmetic_side(parse_poly("x^2+1", f7, ["x"]), twist=7)


def _entry_fold(f, twist):
    """The catalog answer for f under psi^twist, built from EpsilonValue
    objects: each block's entry, negated for an odd dimtot, the blocks
    combined by eps_convolve."""
    field, acc = f.ring, None
    for _, bp in variable_blocks(f):
        if field.p != 2:
            eps, d = eps_quad_odd(bp.terms[(2,)], field, twist), 1
        elif bp.n_vars == 2:
            c20, c02 = (bp.terms.get(e, field.zero) for e in ((2, 0), (0, 2)))
            eps, d = eps_ordquad_char2(c02 if c20 == 1 else c20, field), -1
        else:
            eps, d = eps_wildquad_char2(field), 2
        ebar = eps.negate() if d % 2 else eps
        acc = (ebar, d) if acc is None else (eps_convolve(*acc, ebar, d), -acc[1] * d)
    return acc


def _char2_block(rng, field, x, y):
    """(text, variables) of a catalogued characteristic-2 block:
    x^2+x*y+a*y^2 or a*x^2+x*y+y^2, or a univariate block in x with mu = 2."""
    a = f"({field.decode(rng.randrange(field.q))!r})"
    return rng.choice([(f"{x}^2+{x}*{y}+{a}*{y}^2", [x, y]), (f"{a}*{x}^2+{x}*{y}+{y}^2", [x, y]),
                       (f"{x}^2+{x}^3", [x]), (f"{x}^3+{x}^4", [x]), (f"{x}^2+{x}^3+{x}^5", [x])])


def test_the_integer_fold_is_the_fold_of_entries():
    """arithmetic_sides equals the fold of EpsilonValue entries on every
    twist: 1 to 4 quadratic blocks over fields with q = 1 and q = 3 mod 4,
    and characteristic-2 sums of ordinary and univariate blocks."""
    rng = random.Random(36)
    odd = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 6)]
    assert {p ** m % 4 for p, m in odd} == {1, 3}
    cases = []
    for p, m in odd:
        field = gf_create(p, m)
        for k in range(1, 5):
            for _ in range(2):
                cases.append(MultiPoly(field, k, {
                    tuple(2 * (j == i) for j in range(k)): field.decode(rng.randrange(1, field.q))
                    for i in range(k)}))
    for m in (1, 2, 3, 4):
        field = gf_create(2, m)
        for k in range(1, 5):
            for _ in range(2):
                blocks = [_char2_block(rng, field, f"x{i}", f"y{i}") for i in range(k)]
                cases.append(parse_poly("+".join(text for text, _ in blocks), field,
                                        [v for _, names in blocks for v in names],
                                        constants={"g": field.gen()}))
    for f in cases:
        twists = list(range(1, f.ring.p)) if f.ring.p != 2 else [1]
        assert arithmetic_sides(f, twists) == [_entry_fold(f, c) for c in twists], f.render()


def test_catalog_miss_reports_geometric_only():
    f7 = gf_create(7, 1)
    f = parse_poly("x^3+y^3", f7, ["x", "y"])
    with pytest.raises(CatalogMiss):
        arithmetic_side(f)
    rep = verify_identity(f)
    assert rep["verdict"] == "GEOMETRIC_ONLY"
    assert rep["psi_twists_checked"] == 0
    assert rep["arithmetic"] is None
    assert rep["geometric"]["tau_exp"] == 0


def test_blocks_reject_bad_shapes():
    f7 = gf_create(7, 1)
    with pytest.raises(CatalogMiss, match="^nonzero constant term$"):
        arithmetic_side(parse_poly("x^2+1", f7, ["x"]))
    with pytest.raises(CatalogMiss, match="^a variable is missing from f$"):
        arithmetic_side(parse_poly("x^2", f7, ["x", "y"]))
    with pytest.raises(CatalogMiss, match="^nonzero constant term$"):
        arithmetic_side(parse_poly("x^2+1", f7, ["x", "y"]))


def test_a_missed_block_is_named_in_fs_variable_positions():
    """Without names the missed block reads f's default names, x1 for the
    second variable, not the block's own x0."""
    f = parse_poly("u^2+v^3", gf_create(7, 1), ["u", "v"])
    with pytest.raises(CatalogMiss, match=r"^no catalog entry for block x1\^3$"):
        arithmetic_side(f)
    with pytest.raises(CatalogMiss, match=r"^no catalog entry for block v\^3$"):
        arithmetic_sides(f, [1, 2], ["u", "v"])


def test_a_verify_renders_no_missed_block(monkeypatch):
    """verify_identity discards the catalog's miss, so its message is
    never rendered: a verify of x^3+y^3 over F_7, whose cubic blocks miss
    the catalog, renders f once, for the report's input."""
    calls = []
    real = MultiPoly.render

    def counting(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(MultiPoly, "render", counting)
    f = parse_poly("x^3+y^3", gf_create(7, 1), ["x", "y"])
    report = verify_identity(f, var_names=["x", "y"])
    assert (report["verdict"], report["input"]) == ("GEOMETRIC_ONLY", "x^3 + y^3")
    assert calls == [f]


def test_conventions_differ_on_twisted_quadratic():
    """The literal convention drops a legendre(2) factor whenever n*mu is odd."""
    f5 = gf_create(5, 1)
    f = parse_poly("t^2", f5, ["t"])
    cal = geometric_side(f, "calibrated")
    lit = geometric_side(f, "literal")
    assert cal.sign * lit.sign == legendre(f5(2))
    assert verify_identity(f, convention="literal")["verdict"] == "FAIL"
    with pytest.raises(ValueError):
        geometric_side(f, "folklore")


def test_dimtot_sign_convention():
    assert dimtot_from_mu(1, 2) == 2
    assert dimtot_from_mu(2, 3) == -3
    assert dimtot_from_mu(3, 4) == 4


def _milnor_number(f):
    """mu from the Milnor engine, or the message it rejects f with."""
    try:
        return milnor_algebra(f).mu
    except NotIsolated as exc:
        return str(exc)


def test_univariate_char2_mu_matches_milnor_algebra():
    """The catalog reads a char-2 block's mu off its derivative; the Milnor
    engine is the reference.  Every exponent set in 1..9 is covered, over
    F_2 and, with seeded unit coefficients, over F_4."""
    rng = random.Random(3)
    for m in (1, 2):
        field = gf_create(2, m)
        units = [field(list(d)) for d in itertools.product(range(2), repeat=m) if any(d)]
        for mask in range(1, 2 ** 9):
            terms = {(k,): rng.choice(units) for k in range(1, 10) if mask >> (k - 1) & 1}
            f = MultiPoly(field, 1, terms)
            try:
                got = _mu_univariate_char2(f)
            except NotIsolated as exc:
                got = str(exc)
            assert got == _milnor_number(f), f.render()


def test_char2_block_without_odd_exponent_is_not_isolated():
    f4 = gf_create(2, 2)
    with pytest.raises(NotIsolated, match="a partial derivative vanishes identically"):
        arithmetic_side(parse_poly("x^2+x^4", f4, ["x"]))
    with pytest.raises(CatalogMiss):
        arithmetic_side(parse_poly("x^2+x^5", f4, ["x"]))


@pytest.fixture
def field_reads(monkeypatch):
    """Counts of gf_trace calls and field enumerations, with cold Gauss-sum
    and twist-law caches."""
    monkeypatch.setattr(gfield, "_GAUSS_CACHE", {})
    monkeypatch.setattr(catalog, "_TWIST_CHECKED", set())
    reads = {"traces": 0, "enumerations": 0}
    real_trace = gfield.gf_trace
    real_elements = gfield.DigitRing.elements

    def trace(a):
        reads["traces"] += 1
        return real_trace(a)

    def elements(ring):
        reads["enumerations"] += 1
        return real_elements(ring)

    monkeypatch.setattr(gfield, "gf_trace", trace)
    monkeypatch.setattr(gfield.DigitRing, "elements", elements)
    return reads


def test_verify_enumerates_no_field_for_the_gauss_sum(field_reads):
    """The twists c = 1..p-1 of the Gauss sum of F_{13^2} come from F_13 by
    Hasse-Davenport: verify of x^2 traces no element and enumerates no field."""
    report = verify_identity(parse_poly("x^2", gf_create(13, 2), ["x"]))
    assert report["verdict"] == "PASS"
    assert report["psi_twists_checked"] == 12
    assert field_reads == {"traces": 0, "enumerations": 0}


@pytest.mark.parametrize("p, m, twists", [(3, 10, 2), (5, 7, 4)])
def test_cli_verify_over_a_large_field_enumerates_nothing(capsys, field_reads, p, m, twists):
    code = cli.main(["verify", "--p", str(p), "--m", str(m), "--vars", "x",
                     "--poly", "x^2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "PASS"
    assert payload["psi_twists_checked"] == twists
    assert field_reads == {"traces": 0, "enumerations": 0}
