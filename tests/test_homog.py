import random

import pytest
from test_milnor import _ends_bounded

from resform import homog
from resform.errors import NonIntegral, OddCharacteristic, SingularForm
from resform.gfield import gf_create
from resform.homog import (
    BinaryForm,
    a_exponent,
    divided_disc_binary,
    fermat_formulas,
    frobenius_sign_binary,
    generic_divided_disc,
    sylvester_resultant,
    verify_homog_char2,
)
from resform.mpoly import ZZ, MultiPoly


def test_sylvester_known_values():
    # res(x^2 - 1, x - 2) = (2 - 1)(2 + 1)
    assert sylvester_resultant([-1, 0, 1], [-2, 1], 2, 1) == 3
    # shared root kills the resultant
    assert sylvester_resultant([-1, 1], [-1, 0, 1], 1, 2) == 0
    f7 = gf_create(7, 1)
    assert sylvester_resultant([f7(-1), f7(0), f7(1)], [f7(-2), f7(1)], 2, 1) == f7(3)
    with pytest.raises(ValueError):
        sylvester_resultant([1, 2, 3], [1], 1, 1)


def test_binary_form_validation():
    f2 = gf_create(2, 1)
    with pytest.raises(ValueError):
        BinaryForm(f2, 3, [1, 0, 1])
    with pytest.raises(ValueError):
        BinaryForm(f2, 2, [0, 0, 0])
    for d in (0, -1):
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            BinaryForm(f2, d, [1])
    F = BinaryForm(f2, 3, [1, 0, 1, 1])
    assert F.as_poly().terms == {(3, 0): f2(1), (1, 2): f2(1), (0, 3): f2(1)}


def test_generic_quadratic_disc_frozen():
    disc = generic_divided_disc(2)
    assert disc.terms == {(1, 0, 1): 4, (0, 2, 0): -1}
    # repeated call hits the cache and must agree
    assert generic_divided_disc(2) is disc


def test_divided_disc_routes_agree():
    """Integer, unit-d field, and specialized-generic routes match."""
    ints = [1, 1, 1, 1]
    z = divided_disc_binary(BinaryForm(ZZ, 3, ints))
    # resultant normalization: (-1)^(d(d-1)/2) times the classical -16
    assert z == 16
    for p in (5, 7, 11):
        field = gf_create(p, 1)
        assert divided_disc_binary(BinaryForm(field, 3, ints)) == field(z)
    f3 = gf_create(3, 1)
    assert divided_disc_binary(BinaryForm(f3, 3, ints)) == f3(z)
    f2 = gf_create(2, 1)
    assert divided_disc_binary(BinaryForm(f2, 2, [1, 1, 1])) == f2(3)


def test_divided_disc_detects_singular_forms():
    assert divided_disc_binary(BinaryForm(ZZ, 3, [0, 1, 0, 0])) == 0
    f3 = gf_create(3, 1)
    assert divided_disc_binary(BinaryForm(f3, 3, [1, 0, 0, 1])).is_zero()


def test_divided_disc_over_z_reduces_to_the_one_over_f_p():
    """Every route agrees with reduction mod p: ZZ takes the integer
    resultant, F_p the field resultant when p does not divide d and the
    generic divided discriminant when it does."""
    rng = random.Random(7)
    for d in (2, 3, 4, 5):
        for p in (2, 3, 5, 7):
            field = gf_create(p, 1)
            for _ in range(6):
                coeffs = [rng.randrange(-9, 10) for _ in range(d + 1)]
                if all(c % p == 0 for c in coeffs):
                    coeffs[0] = 1
                z = divided_disc_binary(BinaryForm(ZZ, d, coeffs))
                assert divided_disc_binary(BinaryForm(field, d, coeffs)) == field(z), (d, p, coeffs)


def test_fermat_evaluations_match_resultants():
    for d in (2, 3, 4, 5):
        coeffs = [1] + [0] * (d - 1) + [1]
        direct = divided_disc_binary(BinaryForm(ZZ, d, coeffs))
        assert direct == fermat_formulas(d, 0, [1, 1])["disc_d"]


def test_a_exponent_values():
    assert a_exponent(-1, 4) == 1
    assert a_exponent(0, 3) == 1
    assert a_exponent(1, 3) == 3
    assert a_exponent(0, 5) == 3
    with pytest.raises(ValueError):
        a_exponent(-2, 3)


def test_fermat_formulas_frozen():
    got = fermat_formulas(3, 0, [1, 1])
    assert got == {"d": 3, "n": 0, "mu": 4, "disc_d": 27, "disc_B_value": 6561}
    assert fermat_formulas(4, 0, [1, 1])["disc_d"] == 256
    assert fermat_formulas(5, 0, [1, 1])["disc_d"] == 3125
    with pytest.raises(ValueError):
        fermat_formulas(3, 0, [1, 1, 1])
    with pytest.raises(ValueError):
        fermat_formulas(3, 0, [1, 0])


def test_frobenius_sign_factor_patterns():
    f2 = gf_create(2, 1)
    assert frobenius_sign_binary(BinaryForm(f2, 3, [1, 0, 1, 1])) == 1
    assert frobenius_sign_binary(BinaryForm(f2, 3, [1, 1, 1, 0])) == -1
    assert frobenius_sign_binary(BinaryForm(f2, 3, [0, 1, 1, 0])) == 1
    with pytest.raises(SingularForm):
        frobenius_sign_binary(BinaryForm(f2, 3, [1, 0, 0, 0]))
    with pytest.raises(ValueError):
        frobenius_sign_binary(BinaryForm(f2, 2, [1, 1, 1]))
    with pytest.raises(ValueError):
        frobenius_sign_binary(BinaryForm(ZZ, 3, [1, 0, 1, 1]))


def _transformed_coeffs(field, coeffs, mat):
    """Coefficients of F(a*x + b*y, c*x + d*y) for a degree-3 form."""
    a, b, c, d = (field(v) for v in mat)
    x = MultiPoly.var(field, 2, 0)
    y = MultiPoly.var(field, 2, 1)
    u = x.scale(a) + y.scale(b)
    v = x.scale(c) + y.scale(d)
    acc = MultiPoly.zero(field, 2)
    for i, ci in enumerate(coeffs):
        if not field(ci).is_zero():
            acc = acc + (u ** (3 - i) * v ** i).scale(field(ci))
    return [acc.terms.get((3 - i, i), field(0)) for i in range(4)]


def test_frobenius_sign_is_gl2_invariant():
    """Linear substitutions permute the zero locus, so the sign survives."""
    f2 = gf_create(2, 1)
    gl2 = [(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1),
           (0, 1, 1, 1), (1, 1, 1, 0)]
    seen = 0
    for mask in range(1, 16):
        coeffs = [(mask >> i) & 1 for i in range(4)]
        F = BinaryForm(f2, 3, coeffs)
        if divided_disc_binary(F).is_zero():
            continue
        seen += 1
        base = frobenius_sign_binary(F)
        for mat in gl2:
            moved = _transformed_coeffs(f2, coeffs, mat)
            assert frobenius_sign_binary(BinaryForm(f2, 3, moved)) == base
    assert seen == 6


def test_verify_homog_char2_cubics():
    f2 = gf_create(2, 1)
    rep = verify_homog_char2(BinaryForm(f2, 3, [1, 0, 1, 1]))
    assert rep["verdict"] == "PASS"
    assert rep["frobenius_sign"] == 1
    assert rep["epsilon_sign"] == -1
    rep = verify_homog_char2(BinaryForm(f2, 3, [0, 1, 1, 0]))
    assert rep["verdict"] == "PASS"
    assert rep["arf"]["trace_bit"] == 1


def test_verify_homog_char2_field_growth_flips_arf():
    """T0^2*T1 + T0*T1^2 has nontrivial Arf over F_2 but not over F_4."""
    coeffs = [0, 1, 1, 0]
    rep2 = verify_homog_char2(BinaryForm(gf_create(2, 1), 3, coeffs))
    rep4 = verify_homog_char2(BinaryForm(gf_create(2, 2), 3, coeffs))
    assert rep2["verdict"] == rep4["verdict"] == "PASS"
    assert rep2["arf"]["trace_bit"] == 1
    assert rep4["arf"]["trace_bit"] == 0
    assert rep2["epsilon_sign"] == -1
    assert rep4["epsilon_sign"] == 1


def test_verify_homog_char2_guards():
    f2 = gf_create(2, 1)
    with pytest.raises(SingularForm):
        verify_homog_char2(BinaryForm(f2, 3, [1, 0, 0, 0]))
    with pytest.raises(ValueError):
        verify_homog_char2(BinaryForm(f2, 2, [1, 1, 1]))
    with pytest.raises(OddCharacteristic):
        verify_homog_char2(BinaryForm(gf_create(3, 1), 3, [1, 1, 1, 1]))


def test_imprimitive_divided_discriminant_is_reported(monkeypatch):
    """The content check survives python -O as a structured error."""
    real = homog.det_expand
    monkeypatch.setattr(homog, "_GENERIC_DISC", {})
    monkeypatch.setattr(homog, "det_expand", lambda rows: real(rows).scale(2))
    with pytest.raises(NonIntegral, match="imprimitive"):
        generic_divided_disc(3)


def test_indivisible_generic_resultant_is_reported(monkeypatch):
    """A resultant that d^(d-2) does not divide is a structured error."""
    real = homog.det_expand
    monkeypatch.setattr(homog, "_GENERIC_DISC", {})
    monkeypatch.setattr(homog, "det_expand", lambda rows: real(rows) + 1)
    with pytest.raises(NonIntegral, match="not divisible by 3"):
        generic_divided_disc(3)


def test_generic_divided_disc_term_counts():
    assert [len(generic_divided_disc(d).terms) for d in range(2, 7)] == [2, 5, 16, 59, 246]


def test_verify_homog_char2_takes_no_sylvester_determinant(monkeypatch):
    """The Arf side proves a form squarefree, so a nonsingular form takes no
    Sylvester determinant on the Frobenius side; a singular one ends at the
    Arf side's NotIsolated and takes none either.  frobenius_sign_binary,
    called directly, still checks with one."""
    calls = []
    real = homog.det_ring

    def counting(ring, mat):
        calls.append(len(mat))
        return real(ring, mat)

    monkeypatch.setattr(homog, "det_ring", counting)
    f4 = gf_create(2, 2)
    assert verify_homog_char2(BinaryForm(f4, 3, [1, 0, 1, 1]))["verdict"] == "PASS"
    assert calls == []
    with pytest.raises(SingularForm, match="^form has a repeated root$"):
        verify_homog_char2(BinaryForm(f4, 3, [1, 0, 0, 0]))
    assert calls == []
    assert frobenius_sign_binary(BinaryForm(f4, 3, [1, 0, 1, 1])) == 1
    assert calls == [4]


def test_verify_homog_char2_refuses_a_large_degree_before_the_frobenius_side():
    """T0^401 + T0*T1^400 + T1^401 over F_2 has D0 = 799, past DEGREE_CAP:
    the Arf side refuses it before the Sylvester determinant and the factor
    count are paid."""
    F = BinaryForm(gf_create(2, 1), 401, [1] + [0] * 399 + [1, 1])
    assert _ends_bounded(verify_homog_char2, F).startswith("no degree up to DEGREE_CAP = 24")
