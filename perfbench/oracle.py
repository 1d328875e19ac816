"""Finite-field arithmetic for the benchmark's independent output checks.

Elements are little-endian coefficient lists over F_p, reduced by the
field's monic modulus.  Nothing here calls into resform: the checks that use
it must not share code with what they check.
"""

from __future__ import annotations

from fractions import Fraction


def digits(code: int, p: int, m: int) -> list:
    """Coefficients of the element with integer code sum(c_i * p^i)."""
    out = []
    for _ in range(m):
        out.append(code % p)
        code //= p
    return out


def mul(a, b, p: int, modulus) -> list:
    m = len(modulus) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        if c:
            for i in range(m + 1):
                prod[k - m + i] = (prod[k - m + i] - c * modulus[i]) % p
    return prod[:m]


def power(a, e: int, p: int, modulus) -> list:
    m = len(modulus) - 1
    result = [1] + [0] * (m - 1)
    while e:
        if e & 1:
            result = mul(result, a, p, modulus)
        a = mul(a, a, p, modulus)
        e >>= 1
    return result


def legendre(a, p: int, modulus) -> int:
    """Quadratic character of F_q on a coefficient list: 1, -1 or 0."""
    m = len(modulus) - 1
    if not any(a):
        return 0
    v = power(a, (p ** m - 1) // 2, p, modulus)
    return 1 if v == [1] + [0] * (m - 1) else -1


def legendre_int(x: int, p: int, modulus) -> int:
    m = len(modulus) - 1
    return legendre([x % p] + [0] * (m - 1), p, modulus)


def trace_bit(a, modulus) -> int:
    """Absolute trace F_{2^m} -> F_2 of a coefficient list."""
    m = len(modulus) - 1
    acc = [0] * m
    cur = list(a)
    for _ in range(m):
        acc = [(x + y) % 2 for x, y in zip(acc, cur)]
        cur = mul(cur, cur, 2, modulus)
    return acc[0]


CALIBRATED_EXPONENT = 1


def fermat_geometric(p: int, modulus, d: int, coeffs) -> dict:
    """Geometric epsilon of sum a_i x_i^d from the A4 closed form.

    det Gram(dt) = (-1)^((d-2) mu n / 2) d^(mu n) prod a_i^mu; the report
    reads the Gram matrix for -dt, corrected by the calibrated power of 2,
    as sign * tau^(+-n mu) normalized to tau^0 or tau^1.
    """
    n = len(coeffs)
    mu = (d - 1) ** n
    n_mu = n * mu
    half = (d - 2) * mu * n
    leg_m1 = legendre_int(-1, p, modulus)
    sign = leg_m1 ** (half // 2) * legendre_int(d, p, modulus) ** (mu * n)
    for a in coeffs:
        sign *= legendre(a, p, modulus) ** mu
    sign *= leg_m1 ** n_mu
    if (CALIBRATED_EXPONENT * n_mu) % 2:
        sign *= legendre_int(2, p, modulus)
    tau_raw = n_mu if n % 2 else -n_mu
    t = tau_raw % 2
    k = (tau_raw - t) // 2
    if k % 2:
        sign *= leg_m1
    return {"sign": sign, "tau_exp": t, "q_exp": str(Fraction(k))}


def quad_det(p: int, n: int, diag, cross) -> int:
    """det of the doubled Gram matrix of a quadratic form over F_p, mod p.

    diag[i] is the coefficient of x_i^2 and cross holds (i, j, c) for c*x_i*x_j;
    the matrix has 2*diag on the diagonal and c off it.
    """
    M = [[0] * n for _ in range(n)]
    for i, a in enumerate(diag):
        M[i][i] = 2 * a % p
    for i, j, c in cross:
        M[i][j] = M[j][i] = c % p
    det = 1
    for k in range(n):
        r = next((r for r in range(k, n) if M[r][k]), None)
        if r is None:
            return 0
        if r != k:
            M[k], M[r] = M[r], M[k]
            det = -det
        det = det * M[k][k] % p
        inv = pow(M[k][k], p - 2, p)
        for r in range(k + 1, n):
            f = M[r][k] * inv % p
            M[r] = [(x - f * y) % p for x, y in zip(M[r], M[k])]
    return det % p
