import random

import pytest

from resform import gfield, unipoly
from resform.errors import (
    EvenCharacteristic,
    FieldMismatch,
    ReducibleModulus,
    RingMismatch,
    UnsupportedPrime,
)
from resform.gfield import (
    MAX_FIELD_BITS,
    SUPPORTED_PRIMES,
    CycloInt,
    gauss_sum,
    gf_create,
    gf_trace,
    legendre,
    trace_bit,
    wp_class,
)
from resform.linalg import det_ring
from resform.wittring import gr_create


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


def test_gen_is_the_class_of_x():
    assert gf_create(3, 1).gen() == 0  # default modulus x
    assert gf_create(3, 1, (1, 1)).gen() == 2  # x = -1 mod x + 1
    f9 = gf_create(3, 2)
    assert f9.gen().coeffs == (0, 1)


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
    """Whether a monic h over Z/p has a monic divisor of degree 1..deg(h)//2,
    divided on prime-field elements, apart from the digit-list arithmetic."""
    prime = gf_create(p, 1)
    f = [prime(c) for c in h]
    for d in range(1, (len(h) - 1) // 2 + 1):
        for k in range(p ** d):
            cand = [prime(c) for c in gfield._digits(k, p, d)] + [prime.one]
            if not unipoly.mod_p(f, cand):
                return True
    return False


@pytest.mark.parametrize("p, m", [(2, 4), (2, 6), (3, 3), (5, 2)])
def test_irreducibility_test_matches_trial_division(p, m):
    for k in range(p ** m):
        h = gfield._digits(k, p, m) + [1]
        assert gfield._irreducible_mod_p(h, p) == (not _has_factor_by_trial_division(h, p)), h


@pytest.mark.parametrize("p, top", [(2, 24), (3, 14), (13, 8)])
def test_the_digit_test_agrees_with_the_element_test(p, top):
    """Seeded monic polynomials of degree 2..top over F_p, about half of
    them built reducible, against unipoly.is_irreducible on elements."""
    prime = gf_create(p, 1)
    rng = random.Random(f"ben-or/{p}")
    seen = set()
    for _ in range(60):
        r = rng.randint(2, top)
        if rng.random() < 0.5:
            k = rng.randint(1, r // 2)
            g = [rng.randrange(p) for _ in range(k)] + [1]
            c = [rng.randrange(p) for _ in range(r - k)] + [1]
            h = [sum(g[i] * c[j - i] for i in range(len(g)) if 0 <= j - i < len(c)) % p
                 for j in range(r + 1)]
        else:
            h = [rng.randrange(p) for _ in range(r)] + [1]
        irreducible = gfield._irreducible_mod_p(h, p)
        assert irreducible == unipoly.is_irreducible(prime, [prime(c) for c in h]), h
        seen.add(irreducible)
    assert seen == {True, False}


def _monic_polys(field, degree):
    for k in range(field.q ** degree):
        yield [field.decode(k // field.q ** i % field.q) for i in range(degree)] + [field.one]


@pytest.mark.parametrize("p, m, top", [(2, 1, 4), (3, 1, 4), (5, 1, 4), (2, 2, 4), (3, 2, 3)])
def test_is_irreducible_matches_a_divisor_search(p, m, top):
    """Every monic polynomial of degree 1..top over F_{p^m} against a search
    for a monic divisor of degree 1..deg/2."""
    field = gf_create(p, m)
    divisors = [g for d in range(1, top // 2 + 1) for g in _monic_polys(field, d)]
    for r in range(1, top + 1):
        for f in _monic_polys(field, r):
            reducible = any(not unipoly.mod_p(f, g) for g in divisors if 2 * unipoly.degree(g) <= r)
            assert unipoly.is_irreducible(field, f) == (not reducible), f


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


def _gauss_sum_by_enumeration(field, twist):
    """-sum over all a in F_q of zeta^Tr(twist * a^2), by plain enumeration.

    Tr is F_p-linear, so it is read off the traces of the basis g^i.
    """
    p = field.p
    basis_traces = [gf_trace(field.gen() ** i).constant_value() for i in range(field.m)]
    counts = [0] * p
    for a in field.elements():
        square = (a * a).coeffs
        counts[twist * sum(c * t for c, t in zip(square, basis_traces)) % p] += 1
    return -CycloInt(p, counts)


ORACLE_FIELDS = [(p, m) for p in SUPPORTED_PRIMES[1:] for m in range(1, 8) if p ** m <= 3 ** 7]


@pytest.mark.parametrize("p, m", ORACLE_FIELDS)
def test_gauss_sum_matches_the_enumeration(p, m):
    field = gf_create(p, m)
    for c in range(1, p):
        assert gauss_sum(field, c) == _gauss_sum_by_enumeration(field, c), c


@pytest.mark.parametrize("p, moduli", [(3, ((2, 2, 1), (1, 0, 1))),
                                       (5, ((2, 0, 1), (3, 0, 1)))])
def test_gauss_sum_does_not_depend_on_the_modulus(p, moduli):
    one, other = (gf_create(p, 2, h) for h in moduli)
    assert one.modulus != other.modulus
    for c in range(1, p):
        tau = _gauss_sum_by_enumeration(one, c)
        assert _gauss_sum_by_enumeration(other, c) == tau
        assert gauss_sum(one, c) == gauss_sum(other, c) == tau


def test_field_size_is_bounded():
    assert gf_create(2, MAX_FIELD_BITS).q == 2 ** MAX_FIELD_BITS
    assert gf_create(13, 10).q == 13 ** 10
    for p, m in ((2, MAX_FIELD_BITS + 1), (3, 26), (13, 11), (7, 10 ** 9)):
        with pytest.raises(ValueError, match="more than 2\\^40 elements"):
            gf_create(p, m)


def test_missing_artin_schreier_preimage_is_reported(monkeypatch):
    """A trace-0 element without a preimage raises instead of asserting."""
    f4 = gf_create(2, 2)
    monkeypatch.setattr(gfield, "trace_bit", lambda a: 0)
    with pytest.raises(ReducibleModulus):
        wp_class(f4.gen())


def _ref_mul(a, c, h, b):
    """Digits of a*c in (Z/b)[x]/(h): integer convolution, folded through the
    monic h, then reduced mod b."""
    m = len(h) - 1
    conv = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(c):
            conv[i + j] += x * y
    for k in range(len(conv) - 1, m - 1, -1):
        t = conv[k]
        for j in range(m + 1):
            conv[k - m + j] -= t * h[j]
    return [v % b for v in conv[:m]]


DIGIT_RINGS = {
    "F_7": (lambda: gf_create(7, 1), 7, 6),
    "F_9": (lambda: gf_create(3, 2), 3, 8),
    "F_16": (lambda: gf_create(2, 4), 2, 15),
    "W3(F_2)": (lambda: gr_create(gf_create(2, 1)), 8, 8 - 4),
    "W3(F_4)": (lambda: gr_create(gf_create(2, 2)), 8, 8 ** 2 - 4 ** 2),
    "W3(F_16)": (lambda: gr_create(gf_create(2, 4)), 8, 8 ** 4 - 4 ** 4),
}


@pytest.mark.parametrize("name", sorted(DIGIT_RINGS))
def test_digit_arithmetic_matches_the_integer_reference(name):
    make, b, n_units = DIGIT_RINGS[name]
    ring = make()
    h, m = list(ring.modulus), ring.m
    elems = list(ring.elements())
    assert len(elems) == b ** m
    units = [x for x in elems if x.is_unit()]
    assert len(units) == n_units
    for u in units:
        assert u * u.inverse() == 1
    rng = random.Random(name)
    for _ in range(60):
        a, c = rng.choice(elems), rng.choice(elems)
        assert list((a + c).coeffs) == [(x + y) % b for x, y in zip(a.coeffs, c.coeffs)]
        assert list((a - c).coeffs) == [(x - y) % b for x, y in zip(a.coeffs, c.coeffs)]
        assert list((a * c).coeffs) == _ref_mul(a.coeffs, c.coeffs, h, b)
        # the unreduced integer convolution coerces to the product
        conv = [sum(a.coeffs[i] * c.coeffs[k - i] for i in range(m) if k - i in range(m))
                for k in range(2 * m - 1)]
        assert ring(conv) == a * c
        e = rng.randrange(6)
        power = [1] + [0] * (m - 1)
        for _ in range(e):
            power = _ref_mul(power, a.coeffs, h, b)
        assert list((a ** e).coeffs) == power
        # equal elements reached by different routes hash equal
        same = (a + c) - c
        padded = ring(list(a.coeffs) + [0, 0])
        assert same == a == padded == a * 1
        assert hash(same) == hash(a) == hash(padded) == hash(a * 1)


def _digit_loop_mul(a, c, xpow, b):
    """The digit-by-digit product: convolve the digits mod b, then fold
    x^m.. back through the unpacked reduction rows xpow."""
    m = len(a)
    conv = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, cj in enumerate(c):
                conv[i + j] = (conv[i + j] + ai * cj) % b
    out = conv[:m]
    for k in range(m - 1):
        t = conv[m + k]
        if t:
            out = [(o + t * r) % b for o, r in zip(out, xpow[k])]
    return out


def _assert_packed_product(ring, a, c):
    expect = _digit_loop_mul(a, c, ring._xpow, ring.b)
    assert gfield.mul_digits(a, c, ring._packed_rows, ring.b) == expect, (ring, a, c)
    assert list((ring(list(a)) * ring(list(c))).coeffs) == expect


@pytest.mark.parametrize("make", [lambda: gf_create(2, 2), lambda: gf_create(3, 2),
                                  lambda: gr_create(gf_create(2, 2))],
                         ids=["F_4", "F_9", "W3(F_4)"])
def test_the_packed_product_is_the_digit_loop_on_every_pair(make):
    ring = make()
    elems = [x.coeffs for x in ring.elements()]
    for a in elems:
        for c in elems:
            _assert_packed_product(ring, a, c)


# an irreducible of degree 40 over F_2 with 33 nonzero digits: its W_3
# reduction rows are dense, so a top slot that was not reduced mod 8 before
# its fold would carry out of a 16-bit slot
DENSE_MODULUS_40 = tuple(int(c) for c in "11111101111011111111111101011111110111011")


@pytest.mark.parametrize("make", [
    *(lambda m=m: gf_create(2, m) for m in (1, 2, 3, 10, 40)),
    *(lambda m=m: gr_create(gf_create(2, m)) for m in (1, 2, 3, 10, 40)),
    lambda: gr_create(gf_create(2, 40, DENSE_MODULUS_40)),
    lambda: gf_create(3, 25), lambda: gf_create(13, 10), lambda: gf_create(7, 2),
], ids=[*(f"F_2^{m}" for m in (1, 2, 3, 10, 40)), *(f"W3(F_2^{m})" for m in (1, 2, 3, 10, 40)),
        "W3(F_2^40, dense)", "F_3^25", "F_13^10", "F_7^2"])
def test_the_packed_product_is_the_digit_loop_on_seeded_pairs(make):
    """Seeded digits, with the all-(b-1) element, whose convolution slots
    are the largest, on both sides."""
    ring = make()
    b, m = ring.b, ring.m
    rng = random.Random(f"{b}^{m}")
    top = (b - 1,) * m
    samples = [top, (0,) * m, (1,) + (0,) * (m - 1)]
    samples += [tuple(rng.randrange(b) for _ in range(m)) for _ in range(40)]
    samples += [tuple(rng.choice((0, b - 1)) for _ in range(m)) for _ in range(10)]
    for a in samples:
        _assert_packed_product(ring, a, top)
        _assert_packed_product(ring, top, a)
    for _ in range(200):
        _assert_packed_product(ring, rng.choice(samples), rng.choice(samples))


def test_mixing_rings_raises_a_mismatch():
    f16 = gf_create(2, 4)
    w16 = gr_create(f16)
    a, w = f16.gen(), w16(3)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        for x, y in ((a, w), (w, a)):
            with pytest.raises(RingMismatch) as err:
                op(x, y)
            assert type(err.value) is RingMismatch
    with pytest.raises(FieldMismatch):
        gf_create(3, 2).gen() + gf_create(3, 1)(1)
    with pytest.raises(FieldMismatch):
        gf_create(3, 1)(gf_create(3, 2).gen())


SMALL_FIELDS = [(p, m) for p in SUPPORTED_PRIMES for m in range(1, 8) if p ** m <= 3 ** 5]


@pytest.mark.parametrize("p, m", SMALL_FIELDS, ids=[f"F_{p}^{m}" for p, m in SMALL_FIELDS])
def test_inverse_is_the_power_q_minus_2_on_every_unit(p, m):
    field = gf_create(p, m)
    for a in field.elements():
        if a.is_zero():
            with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
                a.inverse()
        else:
            assert a.inverse() == a ** (field.q - 2)


@pytest.mark.parametrize("ring", [gf_create(2, 1), gf_create(3, 1), gf_create(7, 1),
                                  gf_create(13, 1), gr_create(gf_create(2, 1))],
                         ids=["F_2", "F_3", "F_7", "F_13", "Z/8"])
def test_a_power_on_a_prime_ring_is_the_square_and_multiply_power(ring):
    """On Z/b a power is Python's modular power; it agrees with _power for
    every element and e = 0..200, and for negative e on every unit."""
    for a in ring.elements():
        for e in range(201):
            assert a ** e == gfield._power(a, e, ring.one), (a, e)
        if a.is_unit():
            inv = a.inverse()
            for e in range(1, 201):
                assert a ** -e == gfield._power(inv, e, ring.one), (a, e)


@pytest.mark.parametrize("p, m", [(2, 10), (3, 6)])
def test_inverse_is_the_power_q_minus_2_on_large_fields(p, m):
    field = gf_create(p, m)
    rng = random.Random(f"inverse/{p}/{m}")
    for _ in range(200):
        a = field.decode(rng.randrange(1, field.q))
        inv = a.inverse()
        assert inv == a ** (field.q - 2)
        assert a * inv == field.one


def _frobenius_trace(a):
    """a + a^p + ... + a^(p^(m-1)): the definition of the absolute trace."""
    acc = cur = a
    for _ in range(a.ring.m - 1):
        cur = cur ** a.ring.p
        acc = acc + cur
    return acc


TRACE_FIELDS = ([(2, m, None) for m in range(1, 9)]
                + [(p, m, None) for p, m in SMALL_FIELDS if p > 2]
                + [(2, 4, (1, 1, 1, 1, 1)), (3, 2, (1, 0, 1)), (5, 2, (3, 0, 1))])


@pytest.mark.parametrize("p, m, modulus", TRACE_FIELDS,
                         ids=[f"F_{p}^{m}" + ("" if h is None else f"/{h}")
                              for p, m, h in TRACE_FIELDS])
def test_trace_is_the_frobenius_sum_on_every_element(p, m, modulus):
    field = gf_create(p, m, modulus)
    for a in field.elements():
        want = _frobenius_trace(a)
        assert gf_trace(a) == want, a
        assert trace_bit(a) == want.constant_value()


@pytest.mark.parametrize("m", [10, 40])
def test_trace_is_the_frobenius_sum_on_large_fields(m):
    field = gf_create(2, m)
    rng = random.Random(f"trace/2/{m}")
    for _ in range(200):
        a = field.decode(rng.randrange(field.q))
        assert gf_trace(a) == _frobenius_trace(a), a


ODD_FIELDS = [(p, m) for p, m in SMALL_FIELDS if p > 2]


@pytest.mark.parametrize("p, m", ODD_FIELDS, ids=[f"F_{p}^{m}" for p, m in ODD_FIELDS])
def test_legendre_is_eulers_criterion_on_every_element(p, m):
    """The character of the norm Res(h, a) agrees with a^((q-1)/2)
    everywhere."""
    field = gf_create(p, m)
    for a in field.elements():
        assert legendre(a) == _euler(a), a


def _euler(a):
    power = a ** ((a.ring.q - 1) // 2)
    return 0 if a.is_zero() else (1 if power == a.ring.one else -1)


@pytest.mark.parametrize("p, m, modulus", [(3, 6, None), (5, 4, None), (13, 3, None),
                                           (3, 2, (1, 0, 1)), (5, 2, (3, 0, 1))])
def test_legendre_is_eulers_criterion_on_large_fields(p, m, modulus):
    field = gf_create(p, m, modulus)
    rng = random.Random(f"legendre/{p}/{m}/{modulus}")
    for _ in range(200):
        a = field.decode(rng.randrange(field.q))
        assert legendre(a) == _euler(a), a


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_digit_division_matches_the_element_division(p):
    """Seeded pairs over F_p, divisors not monic, against unipoly.divmod_p."""
    prime = gf_create(p, 1)
    rng = random.Random(f"divmod/{p}")
    for _ in range(200):
        den = [rng.randrange(p) for _ in range(rng.randint(0, 5))] + [rng.randrange(1, p)]
        num = [rng.randrange(p) for _ in range(rng.randint(0, 9))]
        quot, rem = gfield._divmod_digits(list(num), den, p)
        q_ref, r_ref = unipoly.divmod_p([prime(c) for c in num], [prime(c) for c in den])
        assert gfield._trim(quot) == [c.coeffs[0] for c in q_ref], (num, den)
        assert rem == [c.coeffs[0] for c in r_ref], (num, den)


def test_digit_division_over_z8_multiplies_back():
    """Over Z/8 with monic divisors: num = quot * den + rem, deg rem < deg den."""
    rng = random.Random("divmod/8")
    for _ in range(200):
        den = [rng.randrange(8) for _ in range(rng.randint(0, 5))] + [1]
        num = [rng.randrange(8) for _ in range(rng.randint(0, 9))]
        quot, rem = gfield._divmod_digits(list(num), den, 8)
        assert len(rem) < len(den) and (not rem or rem[-1])
        back = [0] * max(len(num), len(quot) + len(den) - 1, len(rem))
        for i, c in enumerate(quot):
            for j, d in enumerate(den):
                back[i + j] += c * d
        for i, c in enumerate(rem):
            back[i] += c
        assert gfield._trim([c % 8 for c in back]) == gfield._trim(list(num)), (num, den)


@pytest.mark.parametrize("p", [2, 3])
def test_the_resultant_is_the_determinant_of_multiplication(p):
    """For every monic h of degree 1..4 over F_p, reducible ones included,
    and every a of lower degree (eight seeded ones past 16): Res(h, a) is
    det of multiplication by a on (Z/p)[x]/(h), and 0 exactly when a and h
    share a factor."""
    prime = gf_create(p, 1)
    rng = random.Random(f"resultant/{p}")
    for r in range(1, 5):
        for k in range(p ** r):
            h = gfield._digits(k, p, r) + [1]
            h_el = [prime(c) for c in h]
            q = p ** r
            for j in range(q) if q <= 16 else rng.sample(range(q), 8):
                a = gfield._digits(j, p, r)
                a_el = unipoly.trim([prime(c) for c in a])
                # row i: the digits of a * x^i mod h
                rows = []
                for i in range(r):
                    prod = unipoly.mod_p(unipoly.mul_p([prime.zero] * i + [prime.one], a_el), h_el)
                    rows.append(prod + [prime.zero] * (r - len(prod)))
                res = gfield._norm_digits(a, h, p)
                assert prime(res) == det_ring(prime, rows), (h, a)
                shared = unipoly.degree(unipoly.gcd_p(h_el, a_el)) >= 1
                assert (res == 0) == shared, (h, a)
