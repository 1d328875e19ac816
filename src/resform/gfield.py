"""Arithmetic in small finite fields F_{p^m} and in Z[zeta_p].

Fields are realized as F_p[x]/(h) with h monic irreducible, coefficients
stored little-endian.  When no modulus is supplied the lexicographically
smallest irreducible polynomial of the right degree is used, so every run
of the engine sees the same field presentation.
"""

from __future__ import annotations

from typing import Iterator, Optional

from . import unipoly
from .errors import (
    EvenCharacteristic,
    FieldMismatch,
    OddCharacteristic,
    ReducibleModulus,
    UnsupportedPrime,
    ZeroCoefficient,
)

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)

_FIELD_CACHE: dict = {}


def _digits(k: int, p: int, width: int) -> list:
    out = []
    for _ in range(width):
        out.append(k % p)
        k //= p
    return out


def _poly_mod(num, den, p):
    """Remainder of num modulo a monic den, over Z/p, little-endian."""
    num = [c % p for c in num]
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            base = i - dn
            for j in range(dn + 1):
                num[base + j] = (num[base + j] - c * den[j]) % p
    return num[:dn]


def _irreducible_mod_p(h, p) -> bool:
    """Whether the monic h over Z/p is irreducible.

    A linear h needs no test, which lets the prime field be built without
    one; every other degree goes through unipoly.is_irreducible.
    """
    if len(h) == 2:
        return True
    prime = gf_create(p, 1)
    return unipoly.is_irreducible(prime, [prime(c) for c in h])


def reduction_rows(modulus, b: int) -> list:
    """Digits mod b of x^m, ..., x^(2m-2) modulo the monic modulus of degree m.

    These rows present (Z/b)[x]/(h): for F_{p^m} with b = p and for the
    Galois ring W_3(F_{2^m}) with b = 8.
    """
    m = len(modulus) - 1
    rows = []
    cur = [(-c) % b for c in modulus[:m]]
    for _ in range(m - 1):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [(c + top * r) % b for c, r in zip(cur, rows[0])]
    return rows


def mul_digits(a, c, xpow, b: int) -> list:
    """Product in (Z/b)[x]/(h): convolve the digits, fold x^m.. back through xpow."""
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


def _default_modulus(p: int, m: int) -> tuple:
    """First monic irreducible of degree m in base-p counting order."""
    for k in range(p ** m):
        cand = _digits(k, p, m) + [1]
        if _irreducible_mod_p(cand, p):
            return tuple(cand)
    raise ReducibleModulus(f"no irreducible of degree {m} over F_{p}")


class FieldElem:
    """Element of a Field, an immutable coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "Field", coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _check(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        p = self.field.p
        return FieldElem(self.field, [(a + b) % p for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElem(self.field, [(-a) % p for a in self.coeffs])

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        p = self.field.p
        return FieldElem(self.field, [(a - b) % p for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        f = self.field
        return FieldElem(f, mul_digits(self.coeffs, o.coeffs, f._xpow, f.p))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FieldElem":
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.q - 2)

    def frobenius(self) -> "FieldElem":
        return self ** self.field.p

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def constant_value(self) -> int:
        """The value in Z/p, valid only for prime-subfield elements."""
        if any(self.coeffs[1:]):
            raise ValueError(f"{self!r} is not in the prime subfield")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field(other)
        return (
            isinstance(other, FieldElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.coeffs))

    def __repr__(self):
        g = self.field.gen_symbol
        parts = []
        for i in range(self.field.m - 1, -1, -1):
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


class Field:
    """F_{p^m} with fixed monic irreducible modulus (little-endian)."""

    def __init__(self, p: int, m: int, modulus=None, gen_symbol: str = "g"):
        if p not in SUPPORTED_PRIMES:
            raise UnsupportedPrime(f"characteristic {p} not supported")
        if m < 1:
            raise ValueError("extension degree must be positive")
        if modulus is None:
            modulus = _default_modulus(p, m)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not _irreducible_mod_p(modulus, p):
                raise ReducibleModulus(f"{list(modulus)} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self.gen_symbol = gen_symbol
        self._xpow = reduction_rows(modulus, p)
        self.zero = FieldElem(self, [0] * m)
        self.one = FieldElem(self, [1] + [0] * (m - 1))

    def __call__(self, value) -> FieldElem:
        if isinstance(value, FieldElem):
            if value.field != self:
                raise FieldMismatch("element of a different field")
            return value
        if isinstance(value, int):
            return FieldElem(self, [value % self.p] + [0] * (self.m - 1))
        coeffs = [c % self.p for c in value]
        if len(coeffs) > self.m:
            coeffs = _poly_mod(coeffs, list(self.modulus), self.p)
        coeffs += [0] * (self.m - len(coeffs))
        return FieldElem(self, coeffs)

    def gen(self) -> FieldElem:
        return self([0, 1] if self.m > 1 else [0])

    def elements(self) -> Iterator[FieldElem]:
        for k in range(self.q):
            yield FieldElem(self, _digits(k, self.p, self.m))

    def encode(self, a: FieldElem) -> int:
        code = 0
        for c in reversed(a.coeffs):
            code = code * self.p + c
        return code

    def decode(self, code: int) -> FieldElem:
        return FieldElem(self, _digits(code, self.p, self.m))

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


def gf_create(p: int, m: int, modulus=None) -> Field:
    """Construct (or fetch from cache) the field F_{p^m}."""
    key = (p, m, tuple(modulus) if modulus is not None else None)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = Field(p, m, modulus)
        _FIELD_CACHE[key] = field
    return field


def gf_trace(a: FieldElem) -> FieldElem:
    """Absolute trace down to the prime subfield."""
    acc = a
    cur = a
    for _ in range(a.field.m - 1):
        cur = cur.frobenius()
        acc = acc + cur
    return acc


def trace_bit(a: FieldElem) -> int:
    return gf_trace(a).constant_value()


def legendre(a: FieldElem) -> int:
    """Quadratic character of F_q, q odd: +1, -1, or 0."""
    field = a.field
    if field.p == 2:
        raise EvenCharacteristic("no quadratic character in characteristic 2")
    if a.is_zero():
        return 0
    t = a ** ((field.q - 1) // 2)
    v = t.constant_value()
    return 1 if v == 1 else -1


def wp_class(a: FieldElem):
    """Artin-Schreier data of a in characteristic 2.

    Returns (trace bit, y) with y*y - y = a when the class is trivial,
    otherwise (1, None).
    """
    field = a.field
    if field.p != 2:
        raise OddCharacteristic("wp_class needs characteristic 2")
    tb = trace_bit(a)
    if tb:
        return (1, None)
    for y in field.elements():
        if y * y - y == a:
            return (0, y)
    raise ReducibleModulus("trace zero but no Artin-Schreier preimage")


class CycloInt:
    """Element of Z[zeta_p], p odd prime, on the basis 1..zeta^(p-2)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        if p % 2 == 0:
            raise EvenCharacteristic("cyclotomic integers are kept for odd p")
        coeffs = list(coeffs)
        if len(coeffs) > p - 1:
            coeffs = _cyclo_reduce(p, coeffs)
        coeffs += [0] * (p - 1 - len(coeffs))
        self.p = p
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_int(cls, p: int, n: int) -> "CycloInt":
        return cls(p, [n])

    @classmethod
    def zeta_pow(cls, p: int, k: int) -> "CycloInt":
        k %= p
        if k < p - 1:
            return cls(p, [0] * k + [1])
        return cls(p, [-1] * (p - 1))

    def _check(self, other):
        if isinstance(other, CycloInt):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, int):
            return CycloInt.from_int(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return CycloInt(self.p, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloInt(self.p, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return CycloInt(self.p, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        conv = [0] * (2 * (self.p - 1) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    conv[i + j] += a * b
        return CycloInt(self.p, conv)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers leave Z[zeta]")
        result = CycloInt.from_int(self.p, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def as_int(self) -> int:
        if any(self.coeffs[1:]):
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, int):
            return self == CycloInt.from_int(self.p, other)
        return isinstance(other, CycloInt) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                parts.append(z if c == 1 else f"{c}*{z}")
        body = " + ".join(parts) if parts else "0"
        return f"Cyclo({self.p}: {body})"


def _cyclo_reduce(p: int, coeffs):
    """Reduce an integer coefficient list modulo 1 + x + ... + x^(p-1)."""
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, p - 2, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = 0
            for j in range(i - p + 1, i):
                coeffs[j] -= c
    return coeffs[: p - 1]


_GAUSS_CACHE: dict = {}


def gauss_sum(field: Field, twist: int = 1) -> CycloInt:
    """The quadratic Gauss sum -sum_a psi(twist * a^2) as an exact CycloInt.

    psi is the additive character zeta_p^Tr; twist picks psi^twist.
    """
    p = field.p
    if p == 2:
        raise EvenCharacteristic("gauss_sum needs odd characteristic")
    twist %= p
    if twist == 0:
        raise ZeroCoefficient("twist must be a unit mod p")
    key = (field, twist)
    cached = _GAUSS_CACHE.get(key)
    if cached is not None:
        return cached
    counts = [0] * p
    for a in field.elements():
        t = gf_trace(a * a).constant_value()
        counts[(twist * t) % p] += 1
    total = CycloInt(p, [0])
    for t, n in enumerate(counts):
        if n:
            total = total + n * CycloInt.zeta_pow(p, t)
    tau = -total
    _GAUSS_CACHE[key] = tau
    return tau
