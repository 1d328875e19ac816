"""The geometric side of the epsilon identity, and verify.

The geometric side reads the local epsilon constant off the residue form:
the discriminant of the Gram matrix in odd characteristic, the Arf class in
characteristic 2.  verify_identity compares it with the catalog answer of
catalog.arithmetic_sides, an independent route, for every twist of the
additive character.  It reads mu off f's Milnor algebra, and the
geometric side reads the same algebra, which milnor_algebra keeps on f;
the catalog reuses the split of f that the algebra made.

In odd characteristic the discriminant is read for the volume form -dt and
corrected by legendre(2)^(e*n*mu), a power of 2 the sources leave open.
The calibrated convention takes e = CALIBRATED_EXPONENT = 1, the literal
one e = 0.  A route that reads neither the residue form nor the catalog
fixes e: the Frobenius determinant of a quasi-homogeneous f on
H^n_c(A^n, f^*L_psi), from exact exponential sums (Deligne, La conjecture
de Weil I, 1974; SGA 4 1/2), gives epsilon =
(eta(-1)^(n*mu) * det F)^((-1)^(n+1)).  e = 1 agrees with it on every
sampled input in both characteristics, and e = 0 fails wherever n*mu is
odd and 2 is not a square, such as t^2 over F_3 (tests/frobenius_oracle.py
derives the dictionary).
"""

from __future__ import annotations

from fractions import Fraction

from .catalog import EpsilonValue, arithmetic_sides, dimtot_from_mu
from .errors import CatalogMiss
from .gfield import legendre
from .milnor import milnor_algebra
from .mpoly import MultiPoly
from .residue import arf_invariant, gram_matrix


CALIBRATED_EXPONENT = 1


def calibrate() -> int:
    """The power of 2 of the calibrated convention."""
    return CALIBRATED_EXPONENT


def geometric_side(f: MultiPoly, convention: str = "calibrated") -> EpsilonValue:
    """Epsilon predicted by the residue form.

    Odd characteristic reads the discriminant of the Gram matrix for -dt
    and a power of the Gauss sum; characteristic 2 reads the Arf bit and a
    half-integral power of q.  f's Milnor algebra is read first, so an
    input's first error is the algebra's and an unknown convention is
    refused after it; in characteristic 2 the field algebra is read before
    the Witt lift's.
    """
    mu = milnor_algebra(f).mu
    if convention == "calibrated":
        exponent = CALIBRATED_EXPONENT
    elif convention == "literal":
        exponent = 0
    else:
        raise ValueError(f"unknown convention {convention!r}")
    field = f.ring
    n = f.n_vars
    n_mu = n * mu
    if field.p == 2:
        sign = -1 if arf_invariant(f).trace_bit else 1
        return EpsilonValue(field, sign, 0, Fraction(n_mu if n % 2 else -n_mu, 2))
    G = gram_matrix(f, -1)
    sign = legendre(G.det) if G.mu else 1
    if (exponent * n_mu) % 2:
        sign *= legendre(field(2))
    return EpsilonValue(field, sign, n_mu if n % 2 else -n_mu, 0)


def verify_identity(f: MultiPoly, convention: str = "calibrated", var_names=None) -> dict:
    """Compare geometric and catalog epsilons over every character twist.

    The report renders f with var_names (x0, x1, ... by default), and the
    catalog names a missed block's variables by them.  mu and the geometric
    side come from the one Milnor algebra kept on f.  The catalog side uses
    the same split of f into blocks, then classifies every block afresh for
    each twist, so the loop genuinely re-tests the identity rather than
    multiplying both sides by the same character value.  The two sides are
    compared on EpsilonValue's integers, the geometric side's sign taken
    under psi^c (EpsilonValue.twist_sign), with no value built per twist.
    """
    field = f.ring
    mu = milnor_algebra(f).mu
    geo1 = geometric_side(f, convention)
    dimtot = dimtot_from_mu(f.n_vars, mu)
    twists = list(range(1, field.p)) if field.p != 2 else [1]
    arith1 = None
    checked = 0
    try:
        arith = arithmetic_sides(f, twists, var_names)
    except CatalogMiss:
        verdict = "GEOMETRIC_ONLY"
    else:
        arith1 = arith[0][0]
        checked = len(arith)
        agree = all(d_c == dimtot and (ar_c.sign, ar_c.tau_exp, ar_c.q2)
                    == (geo1.twist_sign(c), geo1.tau_exp, geo1.q2)
                    for c, (ar_c, d_c) in zip(twists, arith))
        verdict = "PASS" if agree else "FAIL"
    return {
        "input": f.render(var_names),
        "field": field.to_json(),
        "mu": mu,
        "dimtot": dimtot,
        "convention": convention,
        "geometric": geo1.to_json(),
        "arithmetic": arith1.to_json() if arith1 is not None else None,
        "verdict": verdict,
        "psi_twists_checked": checked,
    }
