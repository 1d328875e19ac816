"""Exact Frobenius determinants of quasi-homogeneous singularities.

A third route to the local epsilon factor, beside the residue form and the
catalog.  It reads neither: it counts points with finite-field arithmetic
from gfield and numpy, and does its algebra in cyclotomic integers.

The sums.  f has coefficients in F_p, and it is quasi-homogeneous: unique
positive rational weights w give every monomial of f weight 1.  Over
F_q, q = p^m, the sums

    S_k = sum over x in F_{q^k}^n of psi(Tr f(x)),   psi(t) = zeta_p^t,

with Tr the absolute trace, are exact: count how often Tr f(x) takes each
value j of Z/p, and S_k = sum_j count_j * zeta_p^j lies in Z[zeta_p].  For
p = 2, zeta_2 = -1 and S_k is an integer.

The cohomology.  With integer weights w_1..w_n and degree delta, the action
t.x = (t^w_i x_i) of G_m has f(t.x) = t^delta f(x) and contracts A^n onto
0.  When 0 is an isolated critical point it is then f's only one, and
H^i_c(A^n, f^*L_psi) vanishes for i != n, while H^n_c has rank mu and is
pure of weight n (Deligne, La conjecture de Weil I, 1974; Sommes
trigonometriques, SGA 4 1/2).  The rank is the Milnor-Orlik number
mu = prod (delta - w_i) / w_i: the partials are weighted-homogeneous of
degrees delta - w_i and form a regular sequence, in every characteristic.
The Grothendieck trace formula reads S_k = (-1)^n sum_j alpha_j^k over the
eigenvalues alpha_1..alpha_mu of the geometric Frobenius F on H^n_c.

Newton.  With p_k = (-1)^n S_k the power sums, Newton's identities
k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i give the elementary symmetric
functions; multiplied by (k-1)! they stay in Z[zeta_p] as

    k! e_k = sum_i (-1)^(i-1) (k-1)!/(k-i)! * (k-i)! e_(k-i) * p_i,

and e_k follows by exact division by k!.  det F = e_mu.  Purity, conj(alpha)
= q^n / alpha, turns into e_(mu-k) = det F * conj(e_k) / q^(nk), so once the
sums up to K give some e_k != 0 with mu - K <= k <= K,

    det F = q^(nk) * e_(mu-k) / conj(e_k),

and K = ceil(mu/2) sums suffice whenever the middle e_k is nonzero (k = 0
is the plain det F = e_mu).  The division is exact in Z[zeta_p]: multiply
by the other Galois conjugates of conj(e_k) and divide by its norm.

The dictionary.  verify compares epsilon, the local epsilon factor of the
vanishing cycles of f at 0, taken with psi.  Write V for the vanishing
cycles, of rank mu in degree n - 1, and eta for the quadratic character of
F_q.  Then

    epsilon = (eta(-1)^(n*mu) * det F)^((-1)^(n+1)),

with eta(-1) read as 1 for p = 2, where -1 = 1.  It comes in three steps.

1. Global to local.  The G_m-action contracts A^n onto 0, the only
   critical point, so H^n_c(A^n, f^*L_psi) is V at 0 with its Frobenius,
   and the product formula (Laumon, Transformation de Fourier, constantes
   d'equations fonctionnelles et conjecture de Weil, Publ. IHES 65, 1987)
   leaves one local constant there.  The sum pairs f with psi, and the
   local constant of V pairs it with the dual character, so
   det F = epsilon_0(V, psi^-1).
2. psi against psi^-1.  epsilon_0(V, psi_a) = det V(a) * epsilon_0(V, psi)
   (Deligne, Les constantes des equations fonctionnelles des fonctions L,
   1973), and -1 is a unit, so det V(-1) reads det V on inertia.  For a
   monomial x^d with p not dividing d, V is the sum of the d - 1 nontrivial
   characters of tame inertia of order dividing d, whose product is eta
   exactly when mu = d - 1 is odd: det V(-1) = eta(-1)^mu.  A
   Thom-Sebastiani sum tensors V, det(V1 x V2) = det V1^mu2 * det V2^mu1,
   and n*mu adds up the same way: n1*mu1*mu2 + n2*mu2*mu1 = n*mu.  So
   det V(-1) = eta(-1)^(n*mu).
3. The dimtot sign.  V sits in degree n - 1, so the epsilon factor of the
   complex, the one of signed total dimension (-1)^(n+1)*mu, is that of V
   to the power (-1)^(n-1) = (-1)^(n+1).

Two cases spell it out.  For a*t^2 in odd characteristic S_1 = eta(a) *
g(eta, psi) = -eta(a) * tau, with tau = -g(eta, psi) the Gauss sum of
EpsilonValue, so det F = eta(a) * tau and epsilon = eta(-a) * tau: the
catalog's value for the block, once its odd total dimension flips the sign
of eps_quad_odd.  For x^2 + x*y + a*y^2 over F_(2^m), S_1 = (-1)^Tr(a) * q,
so epsilon = (-1)^Tr(a) / q, the catalog's characteristic-2 entry.  And by
Kunneth det F(f1 + f2) = det F1^mu2 * det F2^mu1, which the dictionary
carries to the catalog's convolution (epsilon1^d2 * epsilon2^d1)^-1 with
d_i = (-1)^(n_i+1) * mu_i.  None of this reads the power of 2 on the volume
form that the residue side leaves open, so the dictionary pins it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from resform.gfield import CycloInt, gf_create, gf_trace

# The most points one sum may visit; a larger input is refused.
MAX_POINTS = 1 << 20

_POWER_TRACES: dict = {}


def weights(f):
    """The unique positive weights of f's variables that give each of its
    monomials weight 1, as Fractions; ValueError when there are none."""
    n = f.n_vars
    rows = [[Fraction(a) for a in e] + [Fraction(1)] for e in f.terms]
    for col in range(n):
        r = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if r is None:
            raise ValueError(f"{f.render()} has no unique weights")
        rows[col], rows[r] = rows[r], rows[col]
        pivot = rows[col] = [a / rows[col][col] for a in rows[col]]
        rows = [row if i == col else [a - row[col] * b for a, b in zip(row, pivot)]
                for i, row in enumerate(rows)]
    if any(row[-1] for row in rows[n:]):
        raise ValueError(f"{f.render()} is not quasi-homogeneous")
    w = tuple(rows[i][-1] for i in range(n))
    if min(w) <= 0:
        raise ValueError(f"{f.render()} has a weight that is not positive")
    return w


def milnor_orlik(f) -> int:
    """mu = prod (1/w_i - 1), the rank of H^n_c when 0 is isolated."""
    mu = math.prod(1 / w - 1 for w in weights(f))
    if mu.denominator != 1:
        raise ValueError(f"{f.render()} has a Milnor-Orlik number {mu} that is no integer")
    return int(mu)


def _power_traces(p: int, r: int):
    """(F_{p^r}, Tr(g^i) for i = 0..p^r - 2) with g a primitive element."""
    key = (p, r)
    if key not in _POWER_TRACES:
        field = gf_create(p, r)
        order = field.q - 1
        primes = [d for d in range(2, order + 1) if order % d == 0
                  and all(d % e for e in range(2, math.isqrt(d) + 1))]
        g = next(a for a in field.elements()
                 if not a.is_zero() and all(a ** (order // d) != field.one for d in primes))
        traces = np.empty(order, dtype=np.int64)
        x = field.one
        for i in range(order):
            traces[i] = gf_trace(x).constant_value()
            x = x * g
        _POWER_TRACES[key] = (field, traces)
    return _POWER_TRACES[key]


def _value_counts(terms, n: int, p: int, r: int):
    """How often Tr sum_e c_e x^e takes each value of Z/p over F_{p^r}^n;
    terms maps exponent tuples to coefficients in Z/p."""
    field, traces = _power_traces(p, r)
    q = field.q
    if q ** n > MAX_POINTS:
        raise ValueError(f"{q}^{n} points exceed MAX_POINTS")
    # index 0 is the zero of the field, index i > 0 is g^(i-1)
    logs = np.arange(q, dtype=np.int64) - 1
    axes = [logs.reshape((q,) + (1,) * (n - 1 - j)) for j in range(n)]
    total = np.zeros((q,) * n, dtype=np.int64)
    for e, c in terms.items():
        exponent = sum(a * axis for a, axis in zip(e, axes))
        value = traces[exponent % (q - 1)]
        for a, axis in zip(e, axes):
            if a:
                value = value * (axis >= 0)
        total += c * value
    return np.bincount((total % p).ravel(), minlength=p).tolist()


def _sum_of(counts, p: int):
    """sum_j counts[j] * zeta_p^j, an int for p = 2."""
    if p == 2:
        return counts[0] - counts[1]
    return CycloInt(p, counts)


def exponential_sum(f, k: int):
    """S_k = sum over F_{q^k}^n of psi(Tr f(x)), exactly."""
    field = f.ring
    terms = {e: c.constant_value() for e, c in f.terms.items()}
    return _sum_of(_value_counts(terms, f.n_vars, field.p, field.m * k), field.p)


def gauss_sum(field):
    """tau = -sum over F_q of psi(Tr x^2), the Gauss sum of EpsilonValue."""
    return -_sum_of(_value_counts({(2,): 1}, 1, field.p, field.m), field.p)


def _galois(x, t: int):
    """The conjugate zeta -> zeta^t of a cyclotomic integer (ints are fixed)."""
    if isinstance(x, int):
        return x
    p = x.p
    coeffs = [0] * p
    for i, c in enumerate(x.coeffs):
        coeffs[i * t % p] += c
    return CycloInt(p, coeffs)


def _divide_int(x, d: int):
    """x / d for an integer d, which must divide every coefficient."""
    coeffs = [x] if isinstance(x, int) else x.coeffs
    if any(c % d for c in coeffs):
        raise ValueError(f"{x!r} is not divisible by {d}")
    return x // d if isinstance(x, int) else CycloInt(x.p, [c // d for c in coeffs])


def _divide(a, b):
    """a / b in Z[zeta_p], which must be exact: a times the conjugates of b
    other than b itself, over the norm of b."""
    if isinstance(b, int):
        return _divide_int(a, b)
    others = math.prod((_galois(b, t) for t in range(2, b.p)), start=CycloInt.from_int(b.p, 1))
    norm = b * others
    if any(norm.coeffs[1:]):
        raise ValueError(f"the norm of {b!r} is not an integer")
    return _divide_int(a * others, norm.coeffs[0])


def frobenius_det(f, shortcut: bool = True):
    """det F on H^n_c(A^n, f^*L_psi), from the sums S_1..S_K.

    With shortcut, K stops at the first K at which purity gives det F;
    without it, K = mu and det F = e_mu.  Every pair e_k, e_(mu-k) that the
    sums reach is checked against purity, and so is |det F|^2 = q^(n*mu).
    """
    field = f.ring
    n, q = f.n_vars, field.q
    mu = milnor_orlik(f)
    sign = -1 if n % 2 else 1
    power_sums, scaled, e = [], [1], [1]
    k = None
    while k is None:
        K = len(e)
        power_sums.append(sign * exponential_sum(f, K))
        acc = 0
        for i in range(1, K + 1):
            term = scaled[K - i] * power_sums[i - 1] * math.perm(K - 1, i - 1)
            acc = acc + (term if i % 2 else -term)
        scaled.append(acc)
        e.append(_divide_int(acc, math.factorial(K)))
        usable = range(max(mu - K, 0), K + 1) if shortcut else range(K - mu + 1)
        k = next((j for j in reversed(usable) if e[j] != 0), None)
    det = _divide(q ** (n * k) * e[mu - k], _galois(e[k], -1))
    for j in range(max(mu - K, 0), K + 1):
        if q ** (n * j) * e[mu - j] != det * _galois(e[j], -1):
            raise ValueError(f"e_{j} and e_{mu - j} of {f.render()} break purity")
    if det * _galois(det, -1) != q ** (n * mu):
        raise ValueError(f"|det F|^2 of {f.render()} is not q^(n*mu)")
    return det


def epsilon_power(f):
    """eta(-1)^(n*mu) * det F, which the dictionary equates with
    epsilon^((-1)^(n+1))."""
    field = f.ring
    eta = -1 if field.p != 2 and field.q % 4 == 3 else 1
    return eta ** (f.n_vars * milnor_orlik(f)) * frobenius_det(f)


def as_number(value):
    """An EpsilonValue sign * tau^tau_exp * q^(q2/2) with q2 >= 0 even, as
    the exact int or cyclotomic integer it stands for; tau is this module's
    own Gauss sum."""
    field = value.field
    if value.q2 < 0 or value.q2 % 2:
        raise ValueError(f"{value!r} is not an integer of Z[zeta_p]")
    number = value.sign * field.q ** (value.q2 // 2)
    return number * gauss_sum(field) if value.tau_exp else number
