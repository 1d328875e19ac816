import random

import numpy as np
import pytest

from resform import wittring
from resform.errors import NonIntegral, NonUnit, RamifiedClass, ReducibleModulus
from resform.gfield import DigitElem, gf_create, trace_bit
from resform.wittring import (
    ArfClass,
    arf_from_unit,
    gr_create,
    square_class_normalize,
    teichmuller,
)


def test_ring_arithmetic_mod8():
    ring = gr_create(gf_create(2, 1))
    assert ring(3) + ring(7) == ring(2)
    assert ring(3) * ring(5) == ring(7)
    assert ring(5).inverse() * ring(5) == ring(1)
    assert (-ring(1)) == ring(7)
    with pytest.raises(NonUnit):
        ring(2).inverse()


def test_coercion_reduces_long_digit_lists_and_negative_ints():
    ring = gr_create(gf_create(2, 2))
    g = ring([0, 1])
    assert ring([0, 0, 1]) == g ** 2 == ring([7, 7])
    assert ring([0, 0, 0, 1]) == g ** 3
    assert ring(-9) == ring(7)
    assert ring([-1, 9]) == ring([7, 1])


def test_units_and_reduction():
    field = gf_create(2, 2)
    ring = gr_create(field)
    units = [x for x in ring.elements() if x.is_unit()]
    assert len(units) == 48  # |GR| - |2GR| = 64 - 16
    for x in units[:10]:
        assert x.reduce() == x.reduce()
        assert not x.reduce().is_zero()


def test_teichmuller_is_multiplicative_cube_root():
    for m in (1, 2, 3):
        field = gf_create(2, m)
        ring = gr_create(field)
        for a in field.elements():
            t = teichmuller(ring, a)
            assert t.reduce() == a
            assert t ** (2 ** m) == t
        rng = random.Random(m)
        elems = list(field.elements())
        for _ in range(8):
            a, b = rng.choice(elems), rng.choice(elems)
            assert teichmuller(ring, a * b) == teichmuller(ring, a) * teichmuller(ring, b)


def test_square_class_frozen_digits():
    ring = gr_create(gf_create(2, 1))
    digits = {}
    for u in (1, 3, 5, 7):
        cls = square_class_normalize(ring(u))
        digits[u] = (cls.a_part.coeffs[0], cls.b_part.coeffs[0])
    assert digits[1] == (0, 0)
    assert digits[5] == (0, 1)
    assert digits[7] == (1, 1)
    assert digits[3] == (1, 0)


def test_square_class_kills_squares():
    rng = random.Random(5)
    for m in (1, 2, 3):
        ring = gr_create(gf_create(2, m))
        units = [x for x in ring.elements() if x.is_unit()]
        for _ in range(12):
            u = rng.choice(units)
            s = rng.choice(units)
            assert square_class_normalize(u * s * s) == square_class_normalize(u)


def test_square_class_rejects_non_units():
    ring = gr_create(gf_create(2, 1))
    with pytest.raises(NonUnit):
        square_class_normalize(ring(2))


def test_arf_from_unit_readings():
    ring = gr_create(gf_create(2, 1))
    assert arf_from_unit(ring(1), 0) == 0
    assert arf_from_unit(ring(5), 0) == 1
    assert arf_from_unit(ring(7), 1) == 0
    assert arf_from_unit(ring(5), 2) == 1
    with pytest.raises(RamifiedClass):
        arf_from_unit(ring(3), 0)
    with pytest.raises(RamifiedClass):
        arf_from_unit(ring(7), 0)


def test_arf_class_equality_modulo_artin_schreier():
    field = gf_create(2, 2)
    w = field.gen()
    # w and w + 1 = w^2 differ by a square minus itself, hence one class
    assert ArfClass(field, w) == ArfClass(field, w * w)
    assert ArfClass(field, field(0)) == 0
    assert ArfClass(field, w).trace_bit == trace_bit(w) == 1


def test_sign_parity_moves_between_classes():
    ring = gr_create(gf_create(2, 1))
    # the reading exists exactly when (-1)^N u lands on an unramified class
    assert arf_from_unit(ring(7), 1) == 0
    assert arf_from_unit(ring(5), 0) == 1
    with pytest.raises(RamifiedClass):
        arf_from_unit(ring(5), 1)
    with pytest.raises(RamifiedClass):
        arf_from_unit(ring(7), 0)


def test_teichmuller_non_convergence_is_reported(monkeypatch):
    """A fourth root that does not invert a -> a^4 is reported as a
    structured error, which survives python -O."""
    field = gf_create(2, 3)
    ring = gr_create(field)
    # the identity is not a^(2^k) on F_8, k = 1: g^4 != g
    monkeypatch.setattr(ring, "_fourth_root", (1, 2, 4))
    with pytest.raises(ReducibleModulus):
        teichmuller(ring, field.gen())


def test_a_fixed_lift_costs_one_frobenius(monkeypatch):
    """0 and 1 are their own lifts and cost no product; any other lift costs
    at most 4 multiplications (it takes 2), whatever m."""
    calls = []
    real = DigitElem.__mul__

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    for m in (1, 3, 4, 10, 40):
        field = gf_create(2, m)
        ring = gr_create(field)
        monkeypatch.setattr(DigitElem, "__mul__", counting)
        for a in (field.zero, field.one):
            calls.clear()
            assert teichmuller(ring, a) == ring.lift(a)
            assert not calls
        rng = random.Random(m)
        for _ in range(5):
            a = field.decode(rng.randrange(field.q))
            calls.clear()
            teichmuller(ring, a)
            assert len(calls) <= 4
        monkeypatch.setattr(DigitElem, "__mul__", real)


def _iterated_lift(ring, a):
    """Reference lift: iterate z -> z^(2^m) from the {0,1} lift of a until
    it is fixed, squaring by numpy convolution and the ring's reduction rows."""
    m = ring.m
    rows = np.array(ring._xpow, dtype=np.int64).reshape(-1, m)
    z = np.array(a.coeffs, dtype=np.int64)
    for _ in range(4):
        w = z
        for _ in range(m):
            conv = np.convolve(w, w)
            w = (conv[:m] + conv[m:] @ rows) % 8
        if (w == z).all():
            return ring(w.tolist())
        z = w
    raise AssertionError("the iteration did not converge")


def test_teichmuller_matches_the_frobenius_iteration():
    """Every element of F_{2^m}, m <= 8, and 200 seeded elements of F_{2^10}
    and F_{2^40} lift as the fixed point of z -> z^(2^m) does."""
    for m in range(1, 9):
        field = gf_create(2, m)
        ring = gr_create(field)
        for a in field.elements():
            assert teichmuller(ring, a) == _iterated_lift(ring, a)
    for m in (10, 40):
        field = gf_create(2, m)
        ring = gr_create(field)
        rng = random.Random(m)
        for _ in range(200):
            a = field.decode(rng.randrange(field.q))
            assert teichmuller(ring, a) == _iterated_lift(ring, a)


def test_halving_an_odd_digit_raises_non_integral():
    assert wittring._half([2, 6, 0]) == [1, 3, 0]
    with pytest.raises(NonIntegral):
        wittring._half([2, 3])
