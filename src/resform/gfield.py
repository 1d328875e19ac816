"""Arithmetic in small finite fields F_{p^m} and in Z[zeta_p].

Fields are realized as F_p[x]/(h) with h monic irreducible, coefficients
stored little-endian.  When no modulus is supplied the lexicographically
smallest irreducible polynomial of the right degree is used, so every run
of the engine sees the same field presentation.

The element arithmetic is that of (Z/b)[x]/(h) for any b (`DigitElem`,
`DigitRing`); a field is the case b = p, and the Witt ring W_3(F_{2^m}) in
wittring.py is the case b = 8.

Quadratic Gauss sums of F_{p^m} come from the prime field: the
Hasse-Davenport relation (Davenport-Hasse 1935) gives tau_{p^m}(c) =
tau_p(c)^m in Z[zeta_p], so no Gauss sum enumerates F_q; gauss_sum has the
derivation.  The absolute trace is F_p-linear and is read off the traces of
the basis x^i, computed once per field.  The quadratic character is that of
F_p on the norm, a resultant with the modulus.
"""

from __future__ import annotations

from typing import Iterator

from .errors import (
    EvenCharacteristic,
    FieldMismatch,
    OddCharacteristic,
    ReducibleModulus,
    RingMismatch,
    UnsupportedPrime,
    ZeroCoefficient,
)

SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
# Fields have at most 2^MAX_FIELD_BITS elements: m <= 40 at p = 2, m <= 10
# at p = 13.  The default-modulus search takes at most 0.03 s for each
# (2-CPU Xeon, Python 3.11).
MAX_FIELD_BITS = 40

_FIELD_CACHE: dict = {}


def _digits(k: int, p: int, width: int) -> list:
    out = []
    for _ in range(width):
        out.append(k % p)
        k //= p
    return out


def _divmod_digits(num: list, den, b: int):
    """Quotient and trimmed remainder of num by den over Z/b, little-endian.

    num's digits are reduced mod b, and num is overwritten: its low part
    becomes the remainder.  den's leading digit must be a unit mod b.
    """
    d = len(den) - 1
    inv = pow(den[-1], -1, b)
    quot = [0] * (len(num) - d)
    for i in range(len(num) - 1 - d, -1, -1):
        c = num[i + d] * inv % b
        if c:
            quot[i] = c
            for j in range(d):
                num[i + j] = (num[i + j] - c * den[j]) % b
    del num[d:]
    return quot, _trim(num)


def _irreducible_mod_p(h, p) -> bool:
    """Whether the monic h over Z/p is irreducible, on integer digit lists.

    Ben-Or's test: h of degree r is irreducible iff x^(p^i) - x is prime
    to h for every i <= r/2, that is iff its resultant with h is nonzero.
    x^(p^i) is the p-th power of x^(p^(i-1)) in the ring (Z/p)[x]/(h), and
    the test stops at the first i that finds a factor.
    """
    ring = DigitRing(p, p, h, "x")
    x = frob = ring([0, 1])
    for _ in range((len(h) - 1) // 2):
        frob = frob ** p
        if not _norm_digits((frob - x).coeffs, h, p):
            return False
    return True


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


def _pack_digits(digits) -> int:
    """The digits as one integer, little-endian, in 16-bit slots."""
    packed = 0
    for d in reversed(digits):
        packed = (packed << 16) | d
    return packed


def mul_digits(a, c, packed_rows, b: int) -> list:
    """Product in (Z/b)[x]/(h) by Kronecker substitution.

    One integer product of the packed digits puts every convolution
    coefficient in a 16-bit slot of its own; the top m-1 slots, reduced
    mod b, fold back through the packed reduction rows of x^m..x^(2m-2),
    and each of the low m slots is then taken mod b.  No slot carries: it
    ends at most (2m - 1)(b - 1)^2, below 2^16 for every supported ring
    (W_3(F_{2^40}) has 79 * 49).
    """
    m = len(a)
    if m == 1:
        return [a[0] * c[0] % b]
    product = _pack_digits(a) * _pack_digits(c)
    shift = 16 * m
    low = product & ((1 << shift) - 1)
    top = product >> shift
    for row in packed_rows:
        if not top:
            break
        t = (top & 0xFFFF) % b
        if t:
            low += t * row
        top >>= 16
    out = []
    for _ in range(m):
        out.append((low & 0xFFFF) % b)
        low >>= 16
    return out


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _inverse_digits(a, h, p: int) -> list:
    """Digits of the inverse of the nonzero a modulo the irreducible monic h
    over Z/p, by the extended Euclidean algorithm on integer digit lists.

    Each step keeps s_i * a = r_i mod h; the remainders end in a nonzero
    constant c, and s / c is the inverse.  A constant a (every element of a
    prime field) skips the loop: its inverse is a^(p-2) mod p.
    """
    m = len(h) - 1
    r0, r1 = list(h), _trim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        quot, r2 = _divmod_digits(r0, r1, p)
        s = s0 + [0] * (len(quot) + len(s1) - 1 - len(s0))
        for i, c in enumerate(quot):
            if c:
                for j, sj in enumerate(s1):
                    s[i + j] = (s[i + j] - c * sj) % p
        r0, r1 = r1, r2
        s0, s1 = s1, _trim(s)
    c = pow(r1[0], p - 2, p)
    return [x * c % p for x in s1] + [0] * (m - len(s1))


def _power(x, e: int, one):
    """x ** e for e >= 0, left to right: square for each bit after the
    leading one, and multiply by x where the bit is set."""
    if not e:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


def _default_modulus(p: int, m: int) -> tuple:
    """First monic irreducible of degree m in base-p counting order."""
    for k in range(p ** m):
        cand = _digits(k, p, m) + [1]
        if _irreducible_mod_p(cand, p):
            return tuple(cand)
    raise ReducibleModulus(f"no irreducible of degree {m} over F_{p}")


class DigitElem:
    """Element of a DigitRing: an immutable tuple of m digits mod ring.b.

    The arithmetic is the same for every b; digits reach the constructor
    already reduced, and only the ring's coercion reduces arbitrary input.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: "DigitRing", coeffs):
        self.ring = ring
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if isinstance(other, DigitElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise _mismatch(self.ring, other.ring)
            return other
        if isinstance(other, int):
            return self.ring(other)
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        b = self.ring.b
        return type(self)(self.ring, [(x + y) % b for x, y in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        b = self.ring.b
        return type(self)(self.ring, [(-x) % b for x in self.coeffs])

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        b = self.ring.b
        return type(self)(self.ring, [(x - y) % b for x, y in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        r = self.ring
        return type(self)(r, mul_digits(self.coeffs, o.coeffs, r._packed_rows, r.b))

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
        r = self.ring
        if r.m == 1:  # Z/b, as F_p or W_3(F_2) = Z/8: Python's modular power
            return type(self)(r, (pow(self.coeffs[0], e, r.b),))
        return _power(self, e, r.one)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_unit(self) -> bool:
        """Whether the digits mod the residue characteristic are not all zero."""
        r = self.ring.residue
        return any(c % r for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring(other)
        return (
            isinstance(other, DigitElem)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring.b, self.ring.m, self.coeffs))

    def __repr__(self):
        g = self.ring.gen_symbol
        parts = []
        for i in range(self.ring.m - 1, -1, -1):
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


class DigitRing:
    """(Z/b)[x]/(h) with h monic of degree m, elements stored as m digits mod b.

    A unit is an element whose digits mod `residue` are not all zero:
    F_{p^m} has b = residue = p, W_3(F_{2^m}) has b = 8 and residue 2.
    Subclasses name their element class in `_elem`.
    """

    _elem = DigitElem

    def __init__(self, b: int, residue: int, modulus, gen_symbol: str):
        m = len(modulus) - 1
        self.b = b
        self.residue = residue
        self.m = m
        self.modulus = modulus
        self.gen_symbol = gen_symbol
        self._xpow = reduction_rows(modulus, b)
        self._packed_rows = [_pack_digits(row) for row in self._xpow]
        self.zero = self._elem(self, [0] * m)
        self.one = self._elem(self, [1] + [0] * (m - 1))

    def __call__(self, value):
        """Coerce an element, an int, or a digit list (reduced mod b and,
        when longer than m, mod h)."""
        if isinstance(value, DigitElem):
            return value if value.ring == self else self._foreign(value)
        if isinstance(value, int):
            return self._elem(self, [value % self.b] + [0] * (self.m - 1))
        coeffs = [c % self.b for c in value]
        if len(coeffs) > self.m:
            coeffs = _divmod_digits(coeffs, self.modulus, self.b)[1]
        coeffs += [0] * (self.m - len(coeffs))
        return self._elem(self, coeffs)

    def _foreign(self, value: DigitElem) -> DigitElem:
        """Coerce an element of another ring; none coerces by default."""
        raise _mismatch(self, value.ring)

    def elements(self) -> Iterator[DigitElem]:
        for k in range(self.b ** self.m):
            yield self._elem(self, _digits(k, self.b, self.m))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.b == other.b
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.b, self.m, self.modulus))


def _mismatch(ring: DigitRing, other: DigitRing) -> RingMismatch:
    if isinstance(ring, Field) and isinstance(other, Field):
        return FieldMismatch("elements of different fields")
    return RingMismatch(f"elements of {ring!r} and {other!r}")


class FieldElem(DigitElem):
    """Element of a Field."""

    __slots__ = ()

    def inverse(self) -> "FieldElem":
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero")
        ring = self.ring
        return FieldElem(ring, _inverse_digits(self.coeffs, ring.modulus, ring.p))

    def constant_value(self) -> int:
        """The value in Z/p, valid only for prime-subfield elements."""
        if any(self.coeffs[1:]):
            raise ValueError(f"{self!r} is not in the prime subfield")
        return self.coeffs[0]


def _basis_traces(modulus, p: int) -> tuple:
    """Tr(x^0), ..., Tr(x^(m-1)) in Z/p for F_p[x]/(h), h the monic modulus.

    Tr(x^k) is the power sum s_k of the roots of h, and Newton's identities
    give s_k = -(a_1 s_{k-1} + ... + a_{k-1} s_1 + k a_k) with
    h = x^m + a_1 x^(m-1) + ... + a_m, and s_0 = m.
    """
    m = len(modulus) - 1
    a = [None] + [modulus[m - i] for i in range(1, m + 1)]
    s = [m % p]
    for k in range(1, m):
        s.append(-(sum(a[i] * s[k - i] for i in range(1, k)) + k * a[k]) % p)
    return tuple(s)


class Field(DigitRing):
    """F_{p^m} with fixed monic irreducible modulus (little-endian)."""

    _elem = FieldElem

    def __init__(self, p: int, m: int, modulus=None):
        if p not in SUPPORTED_PRIMES:
            raise UnsupportedPrime(f"characteristic {p} not supported")
        if m < 1:
            raise ValueError("extension degree must be positive")
        if m > MAX_FIELD_BITS or p ** m > 2 ** MAX_FIELD_BITS:
            raise ValueError(f"F_{p}^{m} has more than 2^{MAX_FIELD_BITS} elements")
        if modulus is None:
            modulus = _default_modulus(p, m)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not _irreducible_mod_p(modulus, p):
                raise ReducibleModulus(f"{list(modulus)} is reducible over F_{p}")
        self.p = p
        self.q = p ** m
        super().__init__(p, p, modulus, "g")
        self._traces = _basis_traces(modulus, p)

    def gen(self) -> FieldElem:
        """The class of x modulo the field's modulus."""
        return self([0, 1])

    def encode(self, a: FieldElem) -> int:
        code = 0
        for c in reversed(a.coeffs):
            code = code * self.p + c
        return code

    def decode(self, code: int) -> FieldElem:
        return FieldElem(self, _digits(code, self.p, self.m))

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

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
    """Absolute trace down to the prime subfield.

    Tr is F_p-linear, so Tr(a) = sum a_i Tr(x^i) over the digits a_i of a,
    with the traces of the basis computed once per field.
    """
    field = a.ring
    return field(sum(c * t for c, t in zip(a.coeffs, field._traces)))


def trace_bit(a: FieldElem) -> int:
    return gf_trace(a).constant_value()


def _norm_digits(a, h, p: int) -> int:
    """The resultant Res(h, a) over Z/p of the monic h and a, by Euclid on
    integer digit lists: 0 exactly when h and a share a factor, and the
    norm of a to F_p when h is irreducible and a nonzero in F_p[x]/(h).

    Each step writes r0 = Q*r1 + r2 and uses Res(r0, r1) =
    (-1)^(deg r0 * deg r1) * lc(r1)^(deg r0 - deg r2) * Res(r1, r2); at a
    constant r1 = c, Res(r0, c) = c^(deg r0).
    """
    r0, r1 = list(h), _trim(list(a))
    acc = 1
    while len(r1) > 1:
        d0, d1 = len(r0) - 1, len(r1) - 1
        r2 = _divmod_digits(r0, r1, p)[1]
        if not r2:
            return 0
        acc = acc * pow(r1[-1], d0 - len(r2) + 1, p) * (-1) ** (d0 * d1) % p
        r0, r1 = r1, r2
    return acc * pow(r1[0], len(r0) - 1, p) % p if r1 else 0


def legendre(a: FieldElem) -> int:
    """Quadratic character of F_q, q odd: +1, -1, or 0.

    a^((q-1)/2) = N(a)^((p-1)/2) for the norm N to F_p, so eta_q(a) is
    Euler's criterion mod p on N(a) = Res(h, a).
    """
    field = a.ring
    if field.p == 2:
        raise EvenCharacteristic("no quadratic character in characteristic 2")
    if a.is_zero():
        return 0
    p = field.p
    return 1 if pow(_norm_digits(a.coeffs, field.modulus, p), (p - 1) // 2, p) == 1 else -1


def wp_class(a: FieldElem):
    """Artin-Schreier data of a in characteristic 2.

    Returns (trace bit, y) with y*y - y = a when the class is trivial,
    otherwise (1, None).
    """
    field = a.ring
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
        return _power(self, e, CycloInt.from_int(self.p, 1))

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

    The sum runs over F_q, q = p^m; psi is the additive character zeta_p^Tr
    and twist = c picks psi^c.  With psi_q = psi_p o Tr and the quadratic
    character eta_q = eta_p o N, the sum is -g(eta_q, psi_q^c), and the
    Hasse-Davenport relation -g(eta_p o N, psi_p^c o Tr) =
    (-g(eta_p, psi_p^c))^m (Davenport-Hasse 1935; Berndt-Evans-Williams,
    Gauss and Jacobi Sums, 1998) gives tau_{p^m}(c) = tau_p(c)^m: a sum
    over the p residues c*a^2 mod p, raised to the m-th power in Z[zeta_p].
    No element of F_q is touched.
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
    tau = (-sum(CycloInt.zeta_pow(p, twist * a * a) for a in range(p))) ** field.m
    _GAUSS_CACHE[key] = tau
    return tau
