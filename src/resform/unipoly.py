"""Dense univariate polynomial arithmetic over a finite field.

Polynomials are lists of FieldElem, lowest degree first.  This carries the
factorization machinery (distinct-degree and equal-degree splitting) and a
lightweight quotient-field construction used for splitting-field work.
"""

from __future__ import annotations

import random

from .errors import RingMismatch


def trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def degree(cs) -> int:
    return len(cs) - 1


def add_p(a, b):
    n = max(len(a), len(b))
    if n == 0:
        return []
    field = (a or b)[0].ring
    z = field.zero
    out = [(a[i] if i < len(a) else z) + (b[i] if i < len(b) else z) for i in range(n)]
    return trim(out)


def neg_p(a):
    return [-c for c in a]


def sub_p(a, b):
    return add_p(a, neg_p(b))


def mul_p(a, b):
    if not a or not b:
        return []
    field = a[0].ring
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return trim(out)


def scale_p(a, c):
    return trim([c * x for x in a])


def divmod_p(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv = b[-1].inverse()
    q = [b[0].ring.zero] * max(0, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv
        if c.is_zero():
            continue
        q[k] = c
        for j, cb in enumerate(b):
            a[k + j] = a[k + j] - c * cb
    return trim(q), trim(a)


def mod_p(a, b):
    return divmod_p(a, b)[1]


def monic_p(a):
    if not a:
        return a
    return scale_p(a, a[-1].inverse())


def gcd_p(a, b):
    a, b = trim(a), trim(b)
    while b:
        a, b = b, mod_p(a, b)
    return monic_p(a)


def ext_gcd_p(field, a, b):
    """Half-extended gcd: returns (g, s) with s*a = g mod b, g monic or []."""
    r0, r1 = trim(a), trim(b)
    s0, s1 = [field.one], []
    while r1:
        q, r = divmod_p(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub_p(s0, mul_p(q, s1))
    if r0:
        c = r0[-1].inverse()
        return scale_p(r0, c), scale_p(s0, c)
    return r0, s0


def deriv_p(a):
    if len(a) <= 1:
        return []
    field = a[0].ring
    return trim([field(i) * a[i] for i in range(1, len(a))])


def pow_mod(base, e: int, mod):
    field = mod[0].ring
    res = [field.one]
    cur = mod_p(base, mod)
    while e:
        if e & 1:
            res = mod_p(mul_p(res, cur), mod)
        cur = mod_p(mul_p(cur, cur), mod)
        e >>= 1
    return res


def _xpoly(field):
    return [field.zero, field.one]


def _ddf_blocks(field, f):
    """Distinct-degree blocks (d, product of the degree-d factors) of a
    monic f, yielded as they are found.

    The j-th step takes h = x^(q^j) mod f by a q-th power and splits off
    gcd(f, h - x), the product of f's distinct irreducible factors of
    degree dividing j; those of lower degree went at earlier steps, so for
    a squarefree f it is the degree-j block.  Once 2(j + 1) exceeds deg f,
    what is left of f is irreducible.
    """
    q = field.p ** field.m
    x = _xpoly(field)
    h = mod_p(x, f)
    j = 0
    while 2 * (j + 1) <= degree(f):
        j += 1
        h = pow_mod(h, q, f)
        g = gcd_p(f, sub_p(h, x))
        if degree(g) >= 1:
            yield j, g
            f = divmod_p(f, g)[0]
            h = mod_p(h, f)
    if degree(f) >= 1:
        yield degree(f), f


def ddf(field, f):
    """Distinct-degree split of a monic squarefree f: list of (d, product)."""
    return list(_ddf_blocks(field, list(f)))


def _random_poly(field, deg_bound: int, rng) -> list:
    q = field.p ** field.m
    return trim([field.decode(rng.randrange(q)) for _ in range(deg_bound)])


def edf(field, f, d: int, rng=None):
    """Equal-degree factorization of a monic product of degree-d irreducibles."""
    rng = rng or random.Random(11)
    n = degree(f)
    if n == d:
        return [monic_p(f)]
    q = field.p ** field.m
    while True:
        r = _random_poly(field, n, rng)
        if degree(r) < 1:
            continue
        if field.p == 2:
            t = mod_p(r, f)
            acc = t
            for _ in range(field.m * d - 1):
                t = pow_mod(t, 2, f)
                acc = add_p(acc, t)
            w = gcd_p(f, acc)
        else:
            h = pow_mod(r, (q ** d - 1) // 2, f)
            w = gcd_p(f, sub_p(h, [field.one]))
        if 0 < degree(w) < n:
            rest = divmod_p(f, w)[0]
            return edf(field, w, d, rng) + edf(field, rest, d, rng)


def _pth_root(c):
    """p-th root in a finite field (Frobenius is bijective)."""
    k = c.ring
    return c ** (k.p ** (k.m - 1)) if k.m > 1 else c


def factor(field, f):
    """Full factorization: (leading coefficient, [(monic irreducible, mult)])."""
    f = trim(f)
    if degree(f) < 0:
        raise ZeroDivisionError("factoring the zero polynomial")
    rng = random.Random(sum(field.encode(c) for c in f) + 13)
    lead = f[-1]
    f = monic_p(f)
    out = {}
    mult_scale = 1
    while degree(f) >= 1:
        df = deriv_p(f)
        if not df:
            p = field.p
            g = [_pth_root(f[i]) for i in range(0, len(f), p)]
            f = trim(g)
            mult_scale *= p
            continue
        rad = divmod_p(f, gcd_p(f, df))[0]
        for d, block in ddf(field, monic_p(rad)):
            for g in edf(field, block, d, rng):
                e = 0
                while True:
                    q2, r = divmod_p(f, g)
                    if r:
                        break
                    f = q2
                    e += 1
                key = tuple(field.encode(c) for c in g)
                out[key] = (g, out.get(key, (g, 0))[1] + e * mult_scale)
    return lead, sorted(out.values(), key=lambda t: tuple(
        field.encode(c) for c in t[0]
    ))


def is_irreducible(field, f) -> bool:
    """Ben-Or's test: f of degree r is irreducible iff it has no factor of
    degree i <= r/2, that is iff gcd(f, x^(q^i) - x) = 1 for each such i.

    That is the first distinct-degree block having degree r; the blocks are
    found one at a time, so most reducible f end after a step.
    """
    f = monic_p(trim(f))
    r = degree(f)
    return r >= 1 and next(_ddf_blocks(field, f))[0] == r


def irreducible_poly(field, r: int, rng=None):
    """A monic irreducible of degree r, found by seeded random search."""
    rng = rng or random.Random(field.p * 1000 + field.m * 10 + r)
    q = field.p ** field.m
    while True:
        cs = [field.decode(rng.randrange(q)) for _ in range(r)] + [field.one]
        if is_irreducible(field, cs):
            return cs


class QFElem:
    """Element of a quotient field F_q[y]/(g), stored as a coefficient list."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        z = ring.base.zero
        cs = trim(list(coeffs))
        if len(cs) > ring.degree:
            cs = mod_p(cs, ring.modulus)
        cs += [z] * (ring.degree - len(cs))
        self.coeffs = cs

    def _lift(self, other):
        if isinstance(other, QFElem):
            if other.ring is not self.ring:
                raise RingMismatch("elements of different quotient fields")
            return other
        return self.ring(other)

    def __add__(self, other):
        o = self._lift(other)
        return QFElem(self.ring, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def __sub__(self, other):
        o = self._lift(other)
        return QFElem(self.ring, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __mul__(self, other):
        o = self._lift(other)
        prod = mod_p(mul_p(trim(self.coeffs), trim(o.coeffs)), self.ring.modulus)
        return QFElem(self.ring, prod)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return QFElem(self.ring, pow_mod(trim(self.coeffs), e, self.ring.modulus))

    def inverse(self):
        g, s = ext_gcd_p(self.ring.base, trim(self.coeffs), self.ring.modulus)
        if degree(g) != 0:
            raise ZeroDivisionError("inverting zero in a quotient field")
        return QFElem(self.ring, s)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_unit(self) -> bool:
        return not self.is_zero()

    def constant_value(self):
        if any(not c.is_zero() for c in self.coeffs[1:]):
            raise ValueError("element is not in the base field")
        return self.coeffs[0]

    def __repr__(self):
        parts = [f"({c!r})*y^{i}" if i else repr(c)
                 for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"


class QuotientField:
    """F_q[y]/(g) for a monic irreducible g; a field of size q^deg(g)."""

    def __init__(self, base_field, modulus):
        modulus = trim(list(modulus))
        if degree(modulus) < 1:
            raise ValueError("modulus must have positive degree")
        self.base = base_field
        self.modulus = monic_p(modulus)
        self.degree = degree(modulus)
        self.size = (base_field.p ** base_field.m) ** self.degree
        self.zero = QFElem(self, [])
        self.one = QFElem(self, [base_field.one])

    def __call__(self, value):
        if isinstance(value, QFElem):
            if value.ring is not self:
                raise RingMismatch("element of a different quotient field")
            return value
        if isinstance(value, list):
            return QFElem(self, [self.base(c) for c in value])
        return QFElem(self, [self.base(value)])

    def gen(self):
        return QFElem(self, [self.base.zero, self.base.one])

    def frobenius(self, a: QFElem) -> QFElem:
        return a ** (self.base.p ** self.base.m)

    def trace(self, a: QFElem):
        """Trace to the base field F_q."""
        acc = a
        cur = a
        for _ in range(self.degree - 1):
            cur = self.frobenius(cur)
            acc = acc + cur
        return acc.constant_value()

    def norm(self, a: QFElem):
        q = self.base.p ** self.base.m
        e = (self.size - 1) // (q - 1)
        return (a ** e).constant_value() if not a.is_zero() else self.base.zero

    def eval_base_poly(self, cs, a: QFElem) -> QFElem:
        """Evaluate a base-field polynomial (dense list) at a."""
        acc = self.zero
        for c in reversed(cs):
            acc = acc * a + self(c)
        return acc

    def __repr__(self):
        return f"{self.base!r}[y]/<deg {self.degree}>"
