"""Exact local epsilon constants and the two-sided identity check.

An EpsilonValue is sign * tau^t * q^e with tau the quadratic Gauss sum of
the field, kept symbolic so equality is decidable.  The catalog covers the
quadratic blocks in each characteristic; additive convolution composes
them, and verify_identity compares the catalog answer with the residue-form
prediction for every twist of the additive character.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    CalibrationAmbiguous,
    CalibrationImpossible,
    CatalogMiss,
    CheckFailed,
    EvenCharacteristic,
    FieldMismatch,
    OddCharacteristic,
    RingMismatch,
    ZeroCoefficient,
)
from .gfield import CycloInt, Field, gauss_sum, gf_create, legendre, trace_bit
from .milnor import milnor_algebra
from .mpoly import MultiPoly
from .residue import arf_invariant, gram_matrix


class EpsilonValue:
    """sign * tau^tau_exp * q^q_exp, normalized so tau_exp is 0 or 1."""

    __slots__ = ("field", "sign", "tau_exp", "q_exp")

    def __init__(self, field, sign: int, tau_exp: int = 0, q_exp=0):
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        t = tau_exp % 2
        k = (tau_exp - t) // 2
        if field.p == 2 and (t or k):
            raise EvenCharacteristic("no Gauss sum factor in characteristic 2")
        if k % 2:
            sign *= legendre(field(-1))
        self.field = field
        self.sign = sign
        self.tau_exp = t
        self.q_exp = Fraction(q_exp) + k

    def __mul__(self, other):
        if not isinstance(other, EpsilonValue):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatch("epsilon values over different fields")
        return EpsilonValue(
            self.field,
            self.sign * other.sign,
            self.tau_exp + other.tau_exp,
            self.q_exp + other.q_exp,
        )

    def __pow__(self, k: int):
        return EpsilonValue(
            self.field,
            self.sign if k % 2 else 1,
            self.tau_exp * k,
            self.q_exp * k,
        )

    def inverse(self) -> "EpsilonValue":
        return EpsilonValue(self.field, self.sign, -self.tau_exp, -self.q_exp)

    def negate(self) -> "EpsilonValue":
        return EpsilonValue(self.field, -self.sign, self.tau_exp, self.q_exp)

    def twist(self, c: int) -> "EpsilonValue":
        """The same value for the character psi^c in place of psi."""
        p = self.field.p
        if p == 2:
            if c % 2 == 0:
                raise ZeroCoefficient("twist must be prime to the characteristic")
            return self
        if c % p == 0:
            raise ZeroCoefficient("twist must be prime to the characteristic")
        s = self.sign
        if self.tau_exp:
            s *= legendre(self.field(c))
        return EpsilonValue(self.field, s, self.tau_exp, self.q_exp)

    def witness(self):
        """The value as an exact cyclotomic integer, when it is one."""
        if self.field.p == 2:
            return None
        if self.q_exp.denominator != 1 or self.q_exp < 0:
            return None
        w = CycloInt.from_int(self.field.p, self.sign * self.field.q ** int(self.q_exp))
        if self.tau_exp:
            w = w * gauss_sum(self.field)
        return w

    def __eq__(self, other):
        if not isinstance(other, EpsilonValue):
            return NotImplemented
        return (
            self.field == other.field
            and self.sign == other.sign
            and self.tau_exp == other.tau_exp
            and self.q_exp == other.q_exp
        )

    def __hash__(self):
        return hash((self.field, self.sign, self.tau_exp, self.q_exp))

    def __repr__(self):
        parts = []
        if self.tau_exp:
            parts.append("tau")
        if self.q_exp:
            parts.append(f"q^{self.q_exp}" if self.q_exp != 1 else "q")
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


def dimtot_from_mu(n_vars: int, mu: int) -> int:
    """Total dimension of vanishing cohomology, signed by parity."""
    return mu if n_vars % 2 else -mu


_TWIST_CHECKED: set = set()


def _check_twist_law(field, c: int):
    """Confirm by summation that the twisted Gauss sum is the scaled one."""
    c %= field.p
    if (field, c) in _TWIST_CHECKED:
        return
    expect = legendre(field(c)) * gauss_sum(field)
    if gauss_sum(field, c) != expect:
        raise CheckFailed("twisted Gauss sum does not match its scaling law")
    _TWIST_CHECKED.add((field, c))


def eps_quad_odd(a, field, twist: int = 1) -> EpsilonValue:
    """Catalog entry for a*t^2 in odd characteristic."""
    if field.p == 2:
        raise EvenCharacteristic("this entry is for odd characteristic")
    a = field(a)
    if a.is_zero():
        raise ZeroCoefficient("quadratic coefficient must be a unit")
    if twist % field.p == 0:
        raise ZeroCoefficient("twist must be prime to the characteristic")
    _check_twist_law(field, twist)
    sign = -legendre(-a) * legendre(field(twist))
    return EpsilonValue(field, sign, 1, 0)


def eps_ordquad_char2(a, field, twist: int = 1) -> EpsilonValue:
    """Catalog entry for x^2 + x*y + a*y^2 in characteristic 2."""
    if field.p != 2:
        raise OddCharacteristic("this entry is for characteristic 2")
    if twist % 2 == 0:
        raise ZeroCoefficient("twist must be prime to the characteristic")
    a = field(a)
    sign = -1 if trace_bit(a) == 0 else 1
    return EpsilonValue(field, sign, 0, Fraction(-1))


def eps_wildquad_char2(field, twist: int = 1) -> EpsilonValue:
    """Catalog entry for a univariate mu=2 singularity in characteristic 2."""
    if field.p != 2:
        raise OddCharacteristic("this entry is for characteristic 2")
    if twist % 2 == 0:
        raise ZeroCoefficient("twist must be prime to the characteristic")
    return EpsilonValue(field, 1, 0, Fraction(1))


def eps_convolve(e1: EpsilonValue, d1: int, e2: EpsilonValue, d2: int) -> EpsilonValue:
    """Epsilon of an additive convolution from the factors and their dimtots."""
    return (e1 ** d2 * e2 ** d1).inverse()


def _blocks(f: MultiPoly):
    """Split f into variable-disjoint summands, ordered by first variable."""
    n = f.n_vars
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    used = set()
    for e in f.terms:
        sup = [i for i, k in enumerate(e) if k]
        if not sup:
            raise CatalogMiss("nonzero constant term")
        used.update(sup)
        for v in sup[1:]:
            parent[find(v)] = find(sup[0])
    if len(used) != n:
        raise CatalogMiss("a variable is missing from f")
    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = []
    for root in sorted(groups, key=lambda r: min(groups[r])):
        vs = sorted(groups[root])
        pos = {v: j for j, v in enumerate(vs)}
        terms = {}
        for e, c in f.terms.items():
            if any(e[i] and find(i) == find(root) for i in range(n)):
                ne = [0] * len(vs)
                for v in vs:
                    ne[pos[v]] = e[v]
                terms[tuple(ne)] = c
        out.append(MultiPoly(f.ring, len(vs), terms))
    return out


def _classify_block(field, bp: MultiPoly, twist: int):
    """Catalog lookup for one block: (epsilon_0, n_vars, mu)."""
    terms = bp.terms
    one = field(1)
    if field.p != 2:
        if bp.n_vars == 1 and set(terms) == {(2,)}:
            return eps_quad_odd(terms[(2,)], field, twist), 1, 1
        raise CatalogMiss(f"no catalog entry for block {bp.render()}")
    if bp.n_vars == 2:
        if set(terms) <= {(2, 0), (1, 1), (0, 2)} and terms.get((1, 1)) == one:
            c20 = terms.get((2, 0), field(0))
            c02 = terms.get((0, 2), field(0))
            if c20 == one:
                return eps_ordquad_char2(c02, field, twist), 2, 1
            if c02 == one:
                return eps_ordquad_char2(c20, field, twist), 2, 1
        raise CatalogMiss(f"no catalog entry for block {bp.render()}")
    if bp.n_vars == 1:
        if milnor_algebra(bp).mu == 2:
            return eps_wildquad_char2(field, twist), 1, 2
        raise CatalogMiss(f"no catalog entry for block {bp.render()}")
    raise CatalogMiss(f"no catalog entry for block {bp.render()}")


def arithmetic_side(f: MultiPoly, twist: int = 1):
    """Catalog-and-convolution epsilon: returns (EpsilonValue, dimtot).

    Falls over with CatalogMiss whenever any variable-disjoint block of f
    is not in the explicit catalog; no attempt is made to diagonalize.
    """
    field = f.ring
    if not isinstance(field, Field):
        raise RingMismatch("arithmetic side needs a finite field")
    acc = None
    for bp in _blocks(f):
        eps0, nb, mub = _classify_block(field, bp, twist)
        db = dimtot_from_mu(nb, mub)
        ebar = eps0.negate() if db % 2 else eps0
        if acc is None:
            acc = (ebar, db, nb, mub)
        else:
            e_acc, d_acc, n_acc, mu_acc = acc
            e_new = eps_convolve(e_acc, d_acc, ebar, db)
            n_new = n_acc + nb
            mu_new = mu_acc * mub
            acc = (e_new, dimtot_from_mu(n_new, mu_new), n_new, mu_new)
    if acc is None:
        raise CatalogMiss("empty polynomial")
    return acc[0], acc[1]


_CALIBRATION: dict = {}


def _geometric_raw(f: MultiPoly, exponent: int) -> EpsilonValue:
    field = f.ring
    n = f.n_vars
    if field.p == 2:
        arf = arf_invariant(f)
        mu = milnor_algebra(f).mu
        n_mu = n * mu
        sign = -1 if arf.trace_bit else 1
        q_exp = Fraction(n_mu if n % 2 else -n_mu, 2)
        return EpsilonValue(field, sign, 0, q_exp)
    G = gram_matrix(f, -1)
    mu = G.mu
    n_mu = n * mu
    sign = legendre(G.det) if mu else 1
    if (exponent * n_mu) % 2:
        sign *= legendre(field(2))
    tau_exp = n_mu if n % 2 else -n_mu
    return EpsilonValue(field, sign, tau_exp, 0)


def calibrate() -> int:
    """The unique power of 2 making the t^2 probes match over F_3 and F_5."""
    if "e" in _CALIBRATION:
        return _CALIBRATION["e"]
    winners = []
    for e in (0, 1):
        ok = True
        for p in (3, 5):
            k = gf_create(p, 1)
            probe = MultiPoly(k, 1, {(2,): k(1)})
            ar, _ = arithmetic_side(probe)
            if _geometric_raw(probe, e) != ar:
                ok = False
                break
        if ok:
            winners.append(e)
    if not winners:
        raise CalibrationImpossible("no power of 2 matches the probes")
    if len(winners) > 1:
        raise CalibrationAmbiguous("probes do not pin down the power of 2")
    _CALIBRATION["e"] = winners[0]
    return winners[0]


def geometric_side(f: MultiPoly, convention: str = "calibrated") -> EpsilonValue:
    """Epsilon predicted by the residue form.

    Odd characteristic reads the discriminant of the Gram matrix for -dt
    and a power of the Gauss sum; characteristic 2 reads the Arf bit and a
    half-integral power of q.
    """
    if convention == "calibrated":
        exponent = calibrate()
    elif convention == "literal":
        exponent = 0
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return _geometric_raw(f, exponent)


def verify_identity(f: MultiPoly, convention: str = "calibrated") -> dict:
    """Compare geometric and catalog epsilons over every character twist.

    The catalog side is recomputed from scratch for each twist, so the loop
    genuinely re-tests the identity rather than multiplying both sides by
    the same character value.
    """
    field = f.ring
    n = f.n_vars
    mu = milnor_algebra(f).mu
    dimtot = dimtot_from_mu(n, mu)
    twists = list(range(1, field.p)) if field.p != 2 else [1]
    geo1 = geometric_side(f, convention)
    arith1 = None
    verdict = "PASS"
    checked = 0
    for c in twists:
        geo_c = geo1.twist(c)
        try:
            ar_c, d_c = arithmetic_side(f, twist=c)
        except CatalogMiss:
            verdict = "GEOMETRIC_ONLY"
            break
        if c == 1:
            arith1 = ar_c
        if geo_c != ar_c or d_c != dimtot:
            verdict = "FAIL"
        checked += 1
    return {
        "input": f.render(),
        "field": field.to_json(),
        "mu": mu,
        "dimtot": dimtot,
        "convention": convention,
        "geometric": geo1.to_json(),
        "arithmetic": arith1.to_json() if arith1 is not None else None,
        "verdict": verdict,
        "psi_twists_checked": checked if verdict != "GEOMETRIC_ONLY" else 0,
    }
