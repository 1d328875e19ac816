"""Length-3 Witt vectors over F_{2^m}, realized as Galois rings Z/8[x]/(h).

h is the coefficient-wise {0,1} lift of the field modulus, so reduction
mod 2 is coefficient-wise and lands in the same basis.
"""

from __future__ import annotations

from .errors import (
    NonUnit,
    OddCharacteristic,
    RamifiedClass,
    ReducibleModulus,
    RingMismatch,
)
from .gfield import Field, FieldElem, gf_create, trace_bit

_RING_CACHE: dict = {}


class GaloisRingElem:
    """Element of a GaloisRing, an immutable tuple of Z/8 coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "GaloisRing", coeffs):
        self.ring = ring
        self.coeffs = tuple(c % 8 for c in coeffs)

    def _check(self, other):
        if isinstance(other, GaloisRingElem):
            if other.ring != self.ring:
                raise RingMismatch("elements of different Galois rings")
            return other
        if isinstance(other, int):
            return self.ring(other)
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return GaloisRingElem(self.ring, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return GaloisRingElem(self.ring, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return GaloisRingElem(self.ring, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return GaloisRingElem(self.ring, self.ring._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_unit(self) -> bool:
        return not self.reduce().is_zero()

    def is_zero(self) -> bool:
        return not any(self.coeffs)

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

    def __truediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def reduce(self) -> FieldElem:
        """Reduction modulo 2 into the residue field."""
        return FieldElem(self.ring.field, [c % 2 for c in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring(other)
        return (
            isinstance(other, GaloisRingElem)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring.field.m, self.coeffs))

    def __repr__(self):
        g = self.ring.field.gen_symbol
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(g if c == 1 else f"{c}*{g}")
            else:
                parts.append(f"{g}^{i}" if c == 1 else f"{c}*{g}^{i}")
        return " + ".join(parts) if parts else "0"


class GaloisRing:
    """W_3(F_{2^m}) = Z/8[x]/(h) with h the {0,1}-lift of the field modulus."""

    def __init__(self, field: Field):
        if field.p != 2:
            raise OddCharacteristic("Witt coefficients are built over characteristic 2")
        self.field = field
        self.m = field.m
        self.modulus = tuple(c % 2 for c in field.modulus)
        m = self.m
        self._xpow = []
        cur = [(-c) % 8 for c in self.modulus[:m]]
        for _ in range(m - 1):
            self._xpow.append(tuple(cur))
            cur = [0] + cur
            top = cur[m]
            cur = cur[:m]
            if top:
                cur = [(c + top * r) % 8 for c, r in zip(cur, self._xpow[0])]
        self.zero = GaloisRingElem(self, [0] * m)
        self.one = GaloisRingElem(self, [1] + [0] * (m - 1))

    def _mul(self, a, b):
        m = self.m
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] = (conv[i + j] + ai * bj) % 8
        out = conv[:m]
        for k in range(m - 1):
            c = conv[m + k]
            if c:
                red = self._xpow[k]
                out = [(o + c * r) % 8 for o, r in zip(out, red)]
        return out

    def __call__(self, value) -> GaloisRingElem:
        if isinstance(value, GaloisRingElem):
            if value.ring != self:
                raise RingMismatch("element of a different ring")
            return value
        if isinstance(value, FieldElem):
            return self.lift(value)
        if isinstance(value, int):
            return GaloisRingElem(self, [value] + [0] * (self.m - 1))
        return GaloisRingElem(self, list(value) + [0] * (self.m - len(list(value))))

    def lift(self, a: FieldElem) -> GaloisRingElem:
        """The coefficient-wise {0,1} lift (not multiplicative in general)."""
        if a.field != self.field:
            raise RingMismatch("element of a different residue field")
        return GaloisRingElem(self, a.coeffs)

    def elements(self):
        m = self.m
        for k in range(8 ** m):
            coeffs = []
            kk = k
            for _ in range(m):
                coeffs.append(kk % 8)
                kk //= 8
            yield GaloisRingElem(self, coeffs)

    def encode(self, a: GaloisRingElem) -> int:
        code = 0
        for c in reversed(a.coeffs):
            code = code * 8 + c
        return code

    def decode(self, code: int) -> GaloisRingElem:
        coeffs = []
        for _ in range(self.m):
            coeffs.append(code % 8)
            code //= 8
        return GaloisRingElem(self, coeffs)

    def __eq__(self, other):
        return isinstance(other, GaloisRing) and self.field == other.field

    def __hash__(self):
        return hash(("W3", self.field))

    def __repr__(self):
        return f"W3(GF({self.field.q}))"


def gr_create(field: Field) -> GaloisRing:
    ring = _RING_CACHE.get(field)
    if ring is None:
        ring = GaloisRing(field)
        _RING_CACHE[field] = ring
    return ring


def teichmuller(ring: GaloisRing, a: FieldElem) -> GaloisRingElem:
    """Multiplicative lift: the unique fixed point of z -> z^(2^m) above a."""
    z = ring.lift(a)
    for _ in range(3):
        w = z
        for _ in range(ring.m):
            w = w * w
        if w == z:
            break
        z = w
    if _frob_q(ring, z) != z:
        raise ReducibleModulus("Teichmuller iteration did not converge")
    return z


def _frob_q(ring: GaloisRing, z: GaloisRingElem) -> GaloisRingElem:
    for _ in range(ring.m):
        z = z * z
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
        raise ArithmeticError("element is not divisible by 2")
    return [c // 2 for c in coeffs]


def square_class_normalize(u: GaloisRingElem) -> WittSquareClass:
    """Digits (a, b) with u = (unit square) * (1 + 2[a] + 4[b]) mod 8."""
    ring = u.ring
    field = ring.field
    red = u.reduce()
    if red.is_zero():
        raise NonUnit("square classes are defined for units only")
    u1 = u * teichmuller(ring, red).inverse()
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
            return self.field == other.field and self.trace_bit == trace_bit(other)
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
