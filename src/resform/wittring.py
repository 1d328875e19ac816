"""Length-3 Witt vectors over F_{2^m}, realized as Galois rings Z/8[x]/(h).

h is the coefficient-wise {0,1} lift of the field modulus, so reduction
mod 2 is coefficient-wise and lands in the same basis.  The ring is the
case b = 8 of gfield.DigitRing, so its elements share the field's
arithmetic; a GaloisRingElem adds only the Hensel inverse and the
reduction mod 2.
"""

from __future__ import annotations

from .errors import (
    NonIntegral,
    NonUnit,
    OddCharacteristic,
    RamifiedClass,
    ReducibleModulus,
    RingMismatch,
)
from .gfield import DigitElem, DigitRing, Field, FieldElem, trace_bit

_RING_CACHE: dict = {}


class GaloisRingElem(DigitElem):
    """Element of a GaloisRing: digits mod 8."""

    __slots__ = ()

    def inverse(self) -> "GaloisRingElem":
        """Invert a unit by lifting the residue-field inverse (two Hensel steps)."""
        red = self.reduce()
        if red.is_zero():
            raise NonUnit(f"{self!r} is not a unit")
        v = self.ring.lift(red.inverse())
        two = self.ring(2)
        for _ in range(2):
            v = v * (two - self * v)
        return v

    def reduce(self) -> FieldElem:
        """Reduction modulo 2 into the residue field."""
        return FieldElem(self.ring.field, [c % 2 for c in self.coeffs])


class GaloisRing(DigitRing):
    """W_3(F_{2^m}) = Z/8[x]/(h) with h the {0,1}-lift of the field modulus."""

    _elem = GaloisRingElem

    def __init__(self, field: Field):
        if field.p != 2:
            raise OddCharacteristic("Witt coefficients are built over characteristic 2")
        self.field = field
        super().__init__(8, 2, tuple(c % 2 for c in field.modulus), field.gen_symbol)
        # a -> a^(2^k), k = -2 mod m, inverts a -> a^4 on the residue field
        # and is F_2-linear: row i holds the bits of (x^i)^(2^k)
        t = field.gen()
        for _ in range(-2 % field.m):
            t = t * t
        rows, power = [], field.one
        for _ in range(field.m):
            rows.append(sum(c << j for j, c in enumerate(power.coeffs)))
            power = power * t
        self._fourth_root = tuple(rows)

    def lift(self, a: FieldElem) -> GaloisRingElem:
        """The coefficient-wise {0,1} lift (not multiplicative in general)."""
        if a.ring != self.field:
            raise RingMismatch("element of a different residue field")
        return GaloisRingElem(self, a.coeffs)

    # an element of the residue field coerces by its {0,1} lift
    _foreign = lift

    def __repr__(self):
        return f"W3(GF({self.field.q}))"


def gr_create(field: Field) -> GaloisRing:
    ring = _RING_CACHE.get(field)
    if ring is None:
        ring = GaloisRing(field)
        _RING_CACHE[field] = ring
    return ring


def teichmuller(ring: GaloisRing, a: FieldElem) -> GaloisRingElem:
    """Multiplicative lift [a], the unique fixed point of z -> z^(2^m) above a.

    [0] = 0 and [1] = 1.  Otherwise let b = a^(2^k), k = -2 mod m, so that
    b^4 = a.  Any lift z of b has z^2 = [b]^2 mod 4, as (t + 2w)^2 =
    t^2 + 4(tw + w^2), and so z^4 = [b]^4 = [a] mod 8: two squarings.
    """
    z = ring.lift(a)
    if any(a.coeffs[1:]):
        bits = 0
        for c, row in zip(a.coeffs, ring._fourth_root):
            if c:
                bits ^= row
        z = GaloisRingElem(ring, [(bits >> j) & 1 for j in range(ring.m)])
        z = z * z
        z = z * z
        if z.reduce() != a:
            raise ReducibleModulus("b^4 != a for b = a^(2^(m-2)): the modulus is reducible")
    return z


class WittSquareClass:
    """Square class of a Witt unit, recorded as digits (a_part, b_part).

    A unit u factors as (square) * (1 + 2[a] + 4[b]) with Teichmuller
    digits a, b in the residue field.  a_part is canonical; b_part is
    canonical only modulo the Artin-Schreier image, which is what
    equality compares.  b_canonical flags the a_part == 0 case where the
    digit itself (not just its class) is pinned down.
    """

    __slots__ = ("field", "a_part", "b_part", "b_canonical")

    def __init__(self, field: Field, a_part: FieldElem, b_part: FieldElem):
        self.field = field
        self.a_part = a_part
        self.b_part = b_part
        self.b_canonical = a_part.is_zero()

    def is_trivial(self) -> bool:
        return self.a_part.is_zero() and trace_bit(self.b_part) == 0

    def __eq__(self, other):
        if not isinstance(other, WittSquareClass):
            return NotImplemented
        return (
            self.field == other.field
            and self.a_part == other.a_part
            and trace_bit(self.b_part - other.b_part) == 0
        )

    def __hash__(self):
        return hash((self.field, self.a_part, trace_bit(self.b_part)))

    def to_json(self) -> dict:
        return {
            "a_part": list(self.a_part.coeffs),
            "b_part": list(self.b_part.coeffs),
            "b_canonical": self.b_canonical,
            "trivial": self.is_trivial(),
        }

    def __repr__(self):
        return f"WittSquareClass(a={self.a_part!r}, b={self.b_part!r})"


def _half(coeffs):
    if any(c % 2 for c in coeffs):
        raise NonIntegral("element is not divisible by 2")
    return [c // 2 for c in coeffs]


def square_class_normalize(u: GaloisRingElem) -> WittSquareClass:
    """Digits (a, b) with u = (unit square) * (1 + 2[a] + 4[b]) mod 8."""
    ring = u.ring
    field = ring.field
    red = u.reduce()
    if red.is_zero():
        raise NonUnit("square classes are defined for units only")
    # [red]^-1 = [red^-1], as Teichmueller lifts are multiplicative: a field
    # inverse, with no Hensel step
    u1 = u * teichmuller(ring, red.inverse())
    w = _half([(c - o) % 8 for c, o in zip(u1.coeffs, ring.one.coeffs)])  # mod 4
    a = FieldElem(field, [c % 2 for c in w])
    ta = teichmuller(ring, a)
    v = _half([(c - t) % 4 for c, t in zip(w, ta.coeffs)])  # mod 2
    b = FieldElem(field, [c % 2 for c in v])
    return WittSquareClass(field, a, b)


class ArfClass:
    """Arf invariant as an element of k modulo the Artin-Schreier image."""

    __slots__ = ("field", "value", "trace_bit")

    def __init__(self, field: Field, value: FieldElem):
        self.field = field
        self.value = value
        self.trace_bit = trace_bit(value)

    def is_trivial(self) -> bool:
        return self.trace_bit == 0

    def __eq__(self, other):
        if isinstance(other, ArfClass):
            return self.field == other.field and self.trace_bit == other.trace_bit
        if isinstance(other, FieldElem):
            return self.field == other.ring and self.trace_bit == trace_bit(other)
        if isinstance(other, int):
            return self.trace_bit == other % 2
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.trace_bit))

    def to_json(self) -> dict:
        return {"value": list(self.value.coeffs), "trace_bit": self.trace_bit}

    def __repr__(self):
        return f"ArfClass({self.value!r}; trace_bit={self.trace_bit})"


def arf_from_unit(u: GaloisRingElem, n_sign: int) -> ArfClass:
    """Read the Arf invariant off a discriminant unit.

    (-1)^n_sign * u must normalize to 1 + 4[b]; a surviving 2-digit means
    the class is ramified, which no valid discriminant produces.
    """
    v = u if n_sign % 2 == 0 else -u
    cls = square_class_normalize(v)
    if not cls.a_part.is_zero():
        raise RamifiedClass(f"signed discriminant {v!r} has a 2-adic digit")
    return ArfClass(cls.field, cls.b_part)
