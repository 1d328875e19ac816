"""Binary forms and diagonal Fermat hypersurface data.

Resultants via Sylvester matrices, the divided discriminant (the resultant
of the partials with the forced power of d removed, so it stays honest in
small characteristic), closed forms for diagonal Fermat forms, and the
characteristic-2 comparison between the Arf invariant of a binary form and
the sign of Frobenius on its zero locus.
"""

from __future__ import annotations

import math

from .catalog import WITNESS_DIGITS, printable_product
from .errors import NonIntegral, NotIsolated, OddCharacteristic, ResourceLimit, SingularForm
from .gfield import Field
from .linalg import det_expand, det_ring
from .mpoly import ZZ, MultiPoly, _czero
from .residue import arf_invariant
from .unipoly import ddf, degree, monic_p, trim


class BinaryForm:
    """Homogeneous binary form over ring (mpoly.ZZ for integer forms), its
    coefficients ring(c) listed from T0^d down to T1^d."""

    __slots__ = ("ring", "d", "coeffs")

    def __init__(self, ring, d: int, coeffs):
        coeffs = [ring(c) for c in coeffs]
        if d < 1:
            raise ValueError("degree must be at least 1")
        if len(coeffs) != d + 1:
            raise ValueError(f"degree-{d} form needs {d + 1} coefficients")
        if all(_czero(c) for c in coeffs):
            raise ValueError("the zero form has no degree")
        self.ring = ring
        self.d = d
        self.coeffs = coeffs

    def as_poly(self) -> MultiPoly:
        d = self.d
        terms = {(d - i, i): c for i, c in enumerate(self.coeffs) if not _czero(c)}
        return MultiPoly(self.ring, 2, terms)

    def __repr__(self):
        return f"BinaryForm(d={self.d}, {self.coeffs!r})"


def sylvester_resultant(g, h, m: int, n: int):
    """Resultant of g and h with declared degree bounds m and n.

    Coefficient lists are little-endian, not both empty, and of one kind per
    call: integers, elements of one field, or polynomials over Z.  Shorter
    lists are padded with the first entry times 0.  Field entries take
    det_ring, the others det_expand.
    """
    g, h = list(g), list(h)
    if len(g) > m + 1 or len(h) > n + 1:
        raise ValueError("coefficient list exceeds its declared bound")
    zero = (g + h)[0] * 0
    g = g + [zero] * (m + 1 - len(g))
    h = h + [zero] * (n + 1 - len(h))
    if m + n == 0:
        return zero + 1
    gh = list(reversed(g))
    hh = list(reversed(h))
    rows = [[zero] * i + gh + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + hh + [zero] * (m - 1 - i) for i in range(m)]
    ring = getattr(zero, "ring", ZZ)
    return det_expand(rows) if ring == ZZ else det_ring(ring, rows)


def a_exponent(n: int, d: int) -> int:
    """The exponent ((d-1)^(n+2) - (-1)^(n+2)) / d; always an integer."""
    if n < -1:
        raise ValueError("n must be at least -1")
    if d < 1:
        raise ValueError("degree must be at least 1")
    num = (d - 1) ** (n + 2) - (-1) ** (n + 2)
    if num % d:
        raise NonIntegral(f"a({n}, {d}) is not integral")
    return num // d


def _partials_dehomog(coeffs, d):
    """Little-endian F(x,1) derivative pair for highest-first coefficients."""
    g = [(j + 1) * coeffs[d - 1 - j] for j in range(d)]
    h = [(d - j) * coeffs[d - j] for j in range(d)]
    return g, h


_GENERIC_DISC: dict = {}


def generic_divided_disc(d: int) -> MultiPoly:
    """Divided discriminant of the generic degree-d form, over Z[c_0..c_d].

    The Sylvester resultant of the two partials is divisible by d^(d-2);
    the exact quotient is primitive, which we check rather than assume.
    """
    cached = _GENERIC_DISC.get(d)
    if cached is not None:
        return cached
    cs = [MultiPoly.var(ZZ, d + 1, i) for i in range(d + 1)]
    g, h = _partials_dehomog(cs, d)
    res = sylvester_resultant(g, h, d - 1, d - 1)
    power = d ** max(d - 2, 0)
    if any(c % power for c in res.terms.values()):
        raise NonIntegral(f"generic resultant for d={d} is not divisible by {power}")
    disc = MultiPoly(ZZ, d + 1, {e: c // power for e, c in res.terms.items()})
    if math.gcd(*disc.terms.values()) != 1:
        raise NonIntegral(f"divided discriminant for d={d} is imprimitive")
    _GENERIC_DISC[d] = disc
    return disc


def divided_disc_binary(F: BinaryForm):
    """Divided discriminant of a binary form, in its coefficient ring.

    Forms over ZZ and over fields where d is a unit take the direct
    resultant route; otherwise (the characteristic divides d) the generic
    polynomial is evaluated at F's coefficients, which is what keeps those
    cases meaningful.
    """
    d = F.d
    ring = F.ring
    power = d ** max(d - 2, 0)
    if ring == ZZ:
        g, h = _partials_dehomog(F.coeffs, d)
        q, r = divmod(sylvester_resultant(g, h, d - 1, d - 1), power)
        if r:
            raise NonIntegral("resultant is not divisible by the forced power of d")
        return q
    if not ring(power).is_zero():
        g, h = _partials_dehomog(F.coeffs, d)
        return sylvester_resultant(g, h, d - 1, d - 1) / ring(power)
    return ring(generic_divided_disc(d).evaluate(F.coeffs))


def _printable(name: str, *powers) -> int:
    """The product of the (base, exponent) powers, refused with
    ResourceLimit when it has more than WITNESS_DIGITS decimal digits, which
    CPython would not print (catalog.printable_product)."""
    value = printable_product(*powers)
    if value is None:
        raise ResourceLimit(f"{name} has more than WITNESS_DIGITS = {WITNESS_DIGITS} "
                            "decimal digits, more than a report can print")
    return value


def fermat_formulas(d: int, n: int, a_list) -> dict:
    """Closed forms for the diagonal form a_0*T_0^d + ... + a_{n+1}*T_{n+1}^d.

    Returns integer values: the divided discriminant of the form, the
    discriminant of the residue pairing for dt, and the Milnor number.  A
    value of more than WITNESS_DIGITS digits raises ResourceLimit, decided
    from the exponents before any power is formed; mu = (d-1)^(n+2) is
    bounded before a_exponent forms it again.
    """
    nu = n + 2
    a_list = [int(a) for a in a_list]
    if len(a_list) != nu:
        raise ValueError(f"need {nu} coefficients for n={n}")
    if any(a == 0 for a in a_list):
        raise ValueError("coefficients must be units")
    prod_a = 1
    for a in a_list:
        prod_a *= a
    mu = _printable("mu", (d - 1, nu))
    half = (d - 2) * mu * nu
    if half % 2:
        raise NonIntegral("sign exponent is not integral")
    disc_d = _printable("disc_d", (d, nu * (d - 1) ** (nu - 1) - a_exponent(n, d)),
                        (prod_a, (d - 1) ** (nu - 1)))
    disc_b = (-1) ** (half // 2) * _printable("disc_B_value", (d, mu * nu), (prod_a, mu))
    return {"d": d, "n": n, "mu": mu, "disc_d": disc_d, "disc_B_value": disc_b}


def frobenius_sign_binary(F: BinaryForm) -> int:
    """(-1)^(d - c) with c the number of irreducible factors over F_q, for
    a form of odd degree; a form with a repeated root raises SingularForm."""
    if not isinstance(F.ring, Field):
        raise ValueError("frobenius sign needs a form over a finite field")
    if F.d % 2 == 0:
        raise ValueError("degree must be odd")
    if divided_disc_binary(F).is_zero():
        raise SingularForm("form has a repeated root")
    return _frobenius_sign(F)


def _frobenius_sign(F: BinaryForm) -> int:
    """frobenius_sign_binary of a squarefree F, whose factors distinct-degree
    splitting counts; a vanished leading coefficient is the factor T1."""
    le = trim(list(reversed(F.coeffs)))
    c = 1 if len(le) < F.d + 1 else 0
    for block_deg, prod in ddf(F.ring, monic_p(le)):
        c += degree(prod) // block_deg
    return (-1) ** ((F.d - c) % 2)


def verify_homog_char2(F: BinaryForm) -> dict:
    """Check Arf triviality against the Frobenius sign for odd-degree F.

    The comparison is epsilon(q, d) * frobenius sign == +1 exactly when
    the Arf class of the affine cone vanishes.  The Arf side runs first, so
    its bounds refuse a large d before the factor count; its NotIsolated is
    a repeated root, as at odd d Euler's identity F = T0*F_0 + T1*F_1 makes
    the partials' common zeros F's.  So a form it accepts is squarefree, and
    its Frobenius sign is counted without the Sylvester determinant that
    frobenius_sign_binary checks that with.
    """
    field = F.ring
    if not isinstance(field, Field) or field.p != 2:
        raise OddCharacteristic("this check lives in characteristic 2")
    d = F.d
    if d % 2 == 0 or d < 3:
        raise ValueError("degree must be odd and at least 3")
    try:
        arf = arf_invariant(F.as_poly())
    except NotIsolated as err:
        raise SingularForm("form has a repeated root") from err
    sgn = _frobenius_sign(F)
    eps = (-1) ** ((d * d - 1) // 8) if field.m % 2 else 1
    ok = arf.is_trivial() == (eps * sgn == 1)
    return {
        "d": d,
        "field": field.to_json(),
        "frobenius_sign": sgn,
        "epsilon_sign": eps,
        "product": eps * sgn,
        "arf": arf.to_json(),
        "verdict": "PASS" if ok else "FAIL",
    }
