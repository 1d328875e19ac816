import random

import pytest

from resform import gfield
from resform.errors import EvenCharacteristic, ReducibleModulus, UnsupportedPrime
from resform.gfield import (
    CycloInt,
    gauss_sum,
    gf_create,
    gf_trace,
    legendre,
    trace_bit,
    wp_class,
)


def test_prime_field_arithmetic():
    f7 = gf_create(7, 1)
    a, b = f7(3), f7(5)
    assert a + b == f7(1)
    assert a * b == f7(1)
    assert a - b == f7(-2)
    assert (a / b) * b == a
    assert a ** 6 == f7(1)
    assert a ** -1 * a == f7(1)


def test_extension_field_structure():
    f9 = gf_create(3, 2)
    g = f9.gen()
    assert g ** 9 == g
    units = [x for x in f9.elements() if not x.is_zero()]
    assert len(units) == 8
    for x in units:
        assert x * x.inverse() == f9(1)


def test_int_coercion_both_sides():
    f5 = gf_create(5, 1)
    a = f5(2)
    assert 1 + a == f5(3)
    assert 1 - a == f5(4)
    assert 3 * a == f5(1)
    assert 2 / a == f5(1)


def test_bad_constructions():
    with pytest.raises(UnsupportedPrime):
        gf_create(6, 1)
    with pytest.raises(ReducibleModulus):
        gf_create(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


def _has_factor_by_trial_division(h, p) -> bool:
    """Whether a monic h over Z/p has a monic divisor of degree 1..deg(h)//2."""
    m = len(h) - 1
    for d in range(1, m // 2 + 1):
        for k in range(p ** d):
            cand = gfield._digits(k, p, d) + [1]
            if not any(gfield._poly_mod(list(h), cand, p)):
                return True
    return False


@pytest.mark.parametrize("p, m", [(2, 4), (2, 6), (3, 3), (5, 2)])
def test_irreducibility_test_matches_trial_division(p, m):
    for k in range(p ** m):
        h = gfield._digits(k, p, m) + [1]
        assert gfield._irreducible_mod_p(h, p) == (not _has_factor_by_trial_division(h, p)), h


def test_default_moduli_are_pinned():
    """Every run sees the same presentation: the first irreducible in base-p order."""
    assert gfield._default_modulus(2, 10) == (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)
    assert gfield._default_modulus(2, 11) == (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)
    assert gfield._default_modulus(3, 6) == (2, 1, 0, 0, 0, 0, 1)
    assert gfield._default_modulus(11, 3) == (4, 1, 0, 1)


def test_trace_surjects_onto_prime_field():
    for p, m in ((2, 3), (3, 2), (5, 2)):
        field = gf_create(p, m)
        images = {gf_trace(x).constant_value() for x in field.elements()}
        assert images == set(range(p))


def test_legendre_counts():
    for p, m in ((3, 1), (5, 1), (7, 1), (3, 2)):
        field = gf_create(p, m)
        vals = [legendre(x) for x in field.elements()]
        q = field.q
        assert vals.count(0) == 1
        assert vals.count(1) == (q - 1) // 2
        assert vals.count(-1) == (q - 1) // 2


def test_legendre_rejects_char2():
    f2 = gf_create(2, 1)
    with pytest.raises(EvenCharacteristic):
        legendre(f2(1))


def test_legendre_is_multiplicative():
    rng = random.Random(41)
    f49 = gf_create(7, 2)
    for _ in range(40):
        a = f49.decode(1 + rng.randrange(48))
        b = f49.decode(1 + rng.randrange(48))
        assert legendre(a * b) == legendre(a) * legendre(b)


def test_wp_class_splits_by_trace():
    f4 = gf_create(2, 2)
    for a in f4.elements():
        bit, pre = wp_class(a)
        assert bit == trace_bit(a)
        if bit == 0:
            assert pre * pre - pre == a
        else:
            assert pre is None


def test_cyclo_arithmetic():
    x = CycloInt.zeta_pow(5, 1)
    # 1 + z + z^2 + z^3 + z^4 = 0
    total = CycloInt.from_int(5, 1) + x + x * x + x ** 3 + x ** 4
    assert total == 0
    assert x ** 5 == 1
    with pytest.raises(ValueError):
        x ** -1


def test_gauss_sum_frozen_values():
    assert gauss_sum(gf_create(3, 1)).coeffs == (-1, -2)
    assert gauss_sum(gf_create(5, 1)).coeffs == (1, 0, 2, 2)
    assert gauss_sum(gf_create(7, 1)).coeffs == (-1, -2, -2, 0, -2, 0)


def test_gauss_sum_square_law():
    """tau^2 = chi(-1) q, the only identity the rest of the code leans on."""
    for p, m in ((3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)):
        field = gf_create(p, m)
        tau = gauss_sum(field)
        assert tau * tau == CycloInt.from_int(p, legendre(field(-1)) * field.q)


def test_gauss_sum_twist_scaling():
    rng = random.Random(7)
    for p in (3, 5, 7):
        field = gf_create(p, 1)
        for _ in range(4):
            c = 1 + rng.randrange(p - 1)
            assert gauss_sum(field, c) == legendre(field(c)) * gauss_sum(field)


def test_missing_artin_schreier_preimage_is_reported(monkeypatch):
    """A trace-0 element without a preimage raises instead of asserting."""
    f4 = gf_create(2, 2)
    monkeypatch.setattr(gfield, "trace_bit", lambda a: 0)
    with pytest.raises(ReducibleModulus):
        wp_class(f4.gen())
