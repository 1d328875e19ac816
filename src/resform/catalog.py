"""The arithmetic side: exact epsilon values and the catalog of local factors.

An EpsilonValue is sign * tau^t * q^e with tau the quadratic Gauss sum of
the field, kept symbolic so equality is decidable.  The catalog covers the
quadratic blocks in each characteristic, and additive convolution composes
them over the variable-disjoint blocks of a polynomial.  A polynomial is
split into its blocks once, and every block is classified afresh for each
twist of the additive character.  This is the second
route of verify_identity, so it imports no residue code: a block's Milnor
number is read off its derivative, never from the Milnor engine.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (CatalogMiss, CheckFailed, EvenCharacteristic, FieldMismatch,
                     NotIsolated, OddCharacteristic, RingMismatch, ZeroCoefficient)
from .gfield import CycloInt, Field, gauss_sum, legendre, trace_bit
from .mpoly import MultiPoly, variable_blocks


# CPython's default limit on the digits of an int it prints: a longer
# witness could not be written into a report, so the report gives none
# (homog.fermat_formulas refuses a longer closed form).
WITNESS_DIGITS = 4300
_WITNESS_BOUND = 10 ** WITNESS_DIGITS


def printable_product(*powers):
    """The product of the (base, exponent) powers when it has at most
    WITNESS_DIGITS decimal digits, and None when it has more.

    Each power is bounded before it is formed: |base|^k >= 2^(k*(bits - 1))
    and 2^(4*WITNESS_DIGITS) > 10^WITNESS_DIGITS, so past that exponent the
    power is refused unformed; below it each factor has fewer than
    8*WITNESS_DIGITS bits.
    """
    if all(k * (abs(base).bit_length() - 1) < 4 * WITNESS_DIGITS for base, k in powers):
        value = math.prod(base ** k for base, k in powers)
        if abs(value) < _WITNESS_BOUND:
            return value
    return None


class EpsilonValue:
    """sign * tau^tau_exp * q^q_exp, normalized so tau_exp is 0 or 1.

    Every exponent of q that arises is a half-integer, so the value keeps
    q2 = 2 * q_exp as an int and its arithmetic never leaves the integers;
    q_exp reads it back as a Fraction.
    """

    __slots__ = ("field", "sign", "tau_exp", "q2")

    def __init__(self, field, sign: int, tau_exp: int = 0, q_exp=0):
        q2 = 2 * Fraction(q_exp)
        if q2.denominator != 1:
            raise ValueError("the exponent of q must be a half-integer")
        self._set(field, sign, tau_exp, int(q2))

    def _set(self, field, sign: int, tau_exp: int, q2: int):
        """Hold sign * tau^tau_exp * q^(q2/2), with tau^2 absorbed into q."""
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        t = tau_exp % 2
        k = (tau_exp - t) // 2
        if field.p == 2 and (t or k):
            raise EvenCharacteristic("no Gauss sum factor in characteristic 2")
        # tau^2 = (-1 | F_q) * q, and (-1 | F_q) = -1 exactly when q = 3 mod 4
        if k % 2 and field.q % 4 == 3:
            sign = -sign
        self.field = field
        self.sign = sign
        self.tau_exp = t
        self.q2 = q2 + 2 * k

    @property
    def q_exp(self) -> Fraction:
        return Fraction(self.q2, 2)

    def __mul__(self, other):
        if not isinstance(other, EpsilonValue):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatch("epsilon values over different fields")
        return _epsilon(self.field, self.sign * other.sign,
                        self.tau_exp + other.tau_exp, self.q2 + other.q2)

    def __pow__(self, k: int):
        return _epsilon(self.field, self.sign if k % 2 else 1, self.tau_exp * k, self.q2 * k)

    def inverse(self) -> "EpsilonValue":
        return _epsilon(self.field, self.sign, -self.tau_exp, -self.q2)

    def negate(self) -> "EpsilonValue":
        return _epsilon(self.field, -self.sign, self.tau_exp, self.q2)

    def twist(self, c: int) -> "EpsilonValue":
        """The same value for the character psi^c in place of psi."""
        if c % self.field.p == 0:
            raise ZeroCoefficient("twist must be prime to the characteristic")
        if not self.tau_exp:
            return self
        return _epsilon(self.field, self.sign * legendre(self.field(c)), self.tau_exp, self.q2)

    def witness(self):
        """The value as an exact cyclotomic integer, when it is one and every
        coefficient has at most WITNESS_DIGITS decimal digits.  Its
        coefficients are sign * q^k times those of 1 or of the Gauss sum, so
        the largest is q^k times the largest of those."""
        if self.field.p == 2 or self.q2 % 2 or self.q2 < 0:
            return None
        k, q = self.q2 // 2, self.field.q
        gauss = gauss_sum(self.field) if self.tau_exp else None
        if printable_product((q, k), (max(map(abs, gauss.coeffs)) if gauss else 1, 1)) is None:
            return None
        w = CycloInt.from_int(self.field.p, self.sign * q ** k)
        return w * gauss if gauss else w

    def __eq__(self, other):
        if not isinstance(other, EpsilonValue):
            return NotImplemented
        return (
            self.field == other.field
            and self.sign == other.sign
            and self.tau_exp == other.tau_exp
            and self.q2 == other.q2
        )

    def __hash__(self):
        return hash((self.field, self.sign, self.tau_exp, self.q2))

    def __repr__(self):
        parts = []
        if self.tau_exp:
            parts.append("tau")
        if self.q2:
            parts.append(f"q^{self.q_exp}" if self.q2 != 2 else "q")
        body = "*".join(parts) if parts else "1"
        return ("-" if self.sign < 0 else "") + body

    def to_json(self) -> dict:
        w = self.witness()
        return {
            "sign": self.sign,
            "tau_exp": self.tau_exp,
            "q_exp": str(self.q_exp),
            "witness": list(w.coeffs) if w is not None else None,
        }


def _epsilon(field, sign: int, tau_exp: int, q2: int) -> EpsilonValue:
    """The value sign * tau^tau_exp * q^(q2/2), built from integers alone."""
    e = object.__new__(EpsilonValue)
    e._set(field, sign, tau_exp, q2)
    return e


def dimtot_from_mu(n_vars: int, mu: int) -> int:
    """Total dimension of vanishing cohomology, signed by parity."""
    return mu if n_vars % 2 else -mu


_TWIST_CHECKED: set = set()


def _check_twist_law(field, c: int):
    """Confirm that the twisted Gauss sum is the scaled one.

    gauss_sum computes tau_q(c) = tau_p(c)^m (Hasse-Davenport), so the law
    over F_q follows from the law over F_p: tau_p(c) = eta_p(c) tau_p(1)
    gives tau_q(c) = eta_p(c)^m tau_q(1), and legendre_q(c) = eta_p(N c) =
    eta_p(c)^m for c in F_p.  The check still runs, to catch a gauss_sum
    that has gone wrong.
    """
    c %= field.p
    if (field, c) in _TWIST_CHECKED:
        return
    expect = legendre(field(c)) * gauss_sum(field)
    if gauss_sum(field, c) != expect:
        raise CheckFailed("twisted Gauss sum does not match its scaling law")
    _TWIST_CHECKED.add((field, c))


def eps_quad_odd(a, field, twist: int = 1) -> EpsilonValue:
    """Catalog entry for a*t^2 in odd characteristic; psi(c*x) turns a*t^2
    into (c*a)*t^2, so the twist enters the block's one quadratic character."""
    if field.p == 2:
        raise EvenCharacteristic("this entry is for odd characteristic")
    a = field(a)
    if a.is_zero():
        raise ZeroCoefficient("quadratic coefficient must be a unit")
    if twist % field.p == 0:
        raise ZeroCoefficient("twist must be prime to the characteristic")
    _check_twist_law(field, twist)
    return _epsilon(field, -legendre(-a * twist), 1, 0)


def eps_ordquad_char2(a, field) -> EpsilonValue:
    """Catalog entry for x^2 + x*y + a*y^2 in characteristic 2."""
    if field.p != 2:
        raise OddCharacteristic("this entry is for characteristic 2")
    a = field(a)
    sign = -1 if trace_bit(a) == 0 else 1
    return _epsilon(field, sign, 0, -2)


def eps_wildquad_char2(field) -> EpsilonValue:
    """Catalog entry for a univariate mu=2 singularity in characteristic 2."""
    if field.p != 2:
        raise OddCharacteristic("this entry is for characteristic 2")
    return _epsilon(field, 1, 0, 2)


def eps_convolve(e1: EpsilonValue, d1: int, e2: EpsilonValue, d2: int) -> EpsilonValue:
    """Epsilon of an additive convolution from the factors and their dimtots."""
    return (e1 ** d2 * e2 ** d1).inverse()


def _blocks(f: MultiPoly):
    """Split f into variable-disjoint summands, ordered by first variable:
    (variables, block) pairs."""
    if (0,) * f.n_vars in f.terms:
        raise CatalogMiss("nonzero constant term")
    blocks = variable_blocks(f)
    if sum(len(vs) for vs, _ in blocks) != f.n_vars:
        raise CatalogMiss("a variable is missing from f")
    return blocks


def _mu_univariate_char2(bp: MultiPoly) -> int:
    """Milnor number of a univariate block in characteristic 2.

    The derivative keeps exactly the odd exponents k, as x^(k-1), so its
    order at 0 is the least of them minus 1.
    """
    odd = [k for (k,) in bp.terms if k % 2]
    if not odd:
        raise NotIsolated("a partial derivative vanishes identically, so the Jacobian "
                          "ideal has fewer generators than variables")
    return min(odd) - 1


def _classify_block(field, bp: MultiPoly, twist: int, names):
    """Catalog lookup for one block: (epsilon_0, dimtot).  A miss's
    message renders the block with names, the names of its variables in f,
    when it is read."""
    terms = bp.terms
    one = field(1)
    if field.p != 2:
        if bp.n_vars == 1 and set(terms) == {(2,)}:
            return eps_quad_odd(terms[(2,)], field, twist), 1
    elif bp.n_vars == 2:
        if set(terms) <= {(2, 0), (1, 1), (0, 2)} and terms.get((1, 1)) == one:
            c20 = terms.get((2, 0), field(0))
            c02 = terms.get((0, 2), field(0))
            if c20 == one:
                return eps_ordquad_char2(c02, field), -1
            if c02 == one:
                return eps_ordquad_char2(c20, field), -1
    elif bp.n_vars == 1 and _mu_univariate_char2(bp) == 2:
        return eps_wildquad_char2(field), 2
    raise CatalogMiss(lambda: f"no catalog entry for block {bp.render(names)}")


def arithmetic_sides(f: MultiPoly, twists, var_names=None):
    """Catalog-and-convolution epsilons: one (EpsilonValue, dimtot) per twist.

    f is split into its variable-disjoint blocks once; each block's catalog
    entry is then derived afresh for every twist and the entries convolved.
    Falls over with CatalogMiss whenever any block of f is not in the
    explicit catalog; no attempt is made to diagonalize.  Its message names
    the block's variables by var_names (x0, x1, ... by default), as f's
    own.  The signed total dimension of a Thom-Sebastiani sum is -d1*d2.
    """
    field = f.ring
    if not isinstance(field, Field):
        raise RingMismatch("arithmetic side needs a finite field")
    if field.p == 2 and any(c % 2 == 0 for c in twists):
        raise ZeroCoefficient("twist must be prime to the characteristic")
    if var_names is None:
        var_names = [f"x{i}" for i in range(f.n_vars)]
    blocks = [(bp, [var_names[v] for v in vs]) for vs, bp in _blocks(f)]
    if not blocks:
        raise CatalogMiss("empty polynomial")
    out = []
    for twist in twists:
        acc = None
        for bp, names in blocks:
            eps0, db = _classify_block(field, bp, twist, names)
            ebar = eps0.negate() if db % 2 else eps0
            if acc is None:
                acc = (ebar, db)
            else:
                acc = (eps_convolve(*acc, ebar, db), -acc[1] * db)
        out.append(acc)
    return out


def arithmetic_side(f: MultiPoly, twist: int = 1, var_names=None):
    """The catalog epsilon of f for one twist: (EpsilonValue, dimtot)."""
    return arithmetic_sides(f, [twist], var_names)[0]
