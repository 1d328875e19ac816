"""Built-in example suite and acceptance checks for the corpus run.

Every check recomputes its expected values through an independent route
(closed formulas, root sums, exhaustive scans) and raises on the first
mismatch; the runner converts raised errors into failing results rather
than stopping the sweep.
"""

from __future__ import annotations

import random
import time
from itertools import product

from . import unipoly
from .catalog import EpsilonValue, eps_ordquad_char2, eps_quad_odd, eps_wildquad_char2
from .epsilon import calibrate, verify_identity
from .errors import CheckFailed, NotFlat, NotIsolated, ResourceLimit, SingularForm
from .gfield import CycloInt, gauss_sum, gf_create, legendre, trace_bit, wp_class
from .homog import (
    BinaryForm,
    a_exponent,
    fermat_formulas,
    frobenius_sign_binary,
    generic_divided_disc,
    sylvester_resultant,
    verify_homog_char2,
)
from .linalg import coded, det_ring
from .milnor import family_milnor_profile, milnor_algebra
from .mpoly import MultiPoly, ZZ, parse_poly
from .residue import (
    SquareClass,
    arf_invariant,
    bezoutian,
    disc_square_class,
    extension_disc,
    global_univariate_functional,
    global_univariate_value,
    gram_matrix,
    pushforward_disc,
    residue_functional,
    tensor_gram,
)
from .unipoly import QuotientField, irreducible_poly
from .wittring import arf_from_unit, gr_create, square_class_normalize

DEFAULT_SEED = 1105


class CheckResult:
    __slots__ = ("name", "ok", "detail", "elapsed")

    def __init__(self, name: str, ok: bool, detail: str, elapsed: float):
        self.name = name
        self.ok = ok
        self.detail = detail
        self.elapsed = elapsed

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
            "elapsed": round(self.elapsed, 3),
        }


def _timed(name: str, fn) -> CheckResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
        ok = True
    except Exception as exc:
        ok = False
        detail = f"{type(exc).__name__}: {exc}"
    return CheckResult(name, ok, detail or "", time.perf_counter() - t0)


def _expect(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def _rand_unit(rng, field):
    return field.decode(1 + rng.randrange(field.q - 1))


def _diag_form(field, coeffs, degree=2):
    n = len(coeffs)
    terms = {}
    for i, a in enumerate(coeffs):
        e = [0] * n
        e[i] = degree
        terms[tuple(e)] = a
    return MultiPoly(field, n, terms)


# ---------------------------------------------------------------------------
# worked examples


def _ex_gauss_sums():
    f3, f5, f7 = gf_create(3, 1), gf_create(5, 1), gf_create(7, 1)
    _expect(gauss_sum(f3).coeffs == (-1, -2), "tau over F_3")
    _expect(gauss_sum(f5).coeffs == (1, 0, 2, 2), "tau over F_5")
    _expect(gauss_sum(f7).coeffs == (-1, -2, -2, 0, -2, 0), "tau over F_7")
    return "tau coefficients over F_3, F_5, F_7"


def _ex_artin_schreier():
    f4 = gf_create(2, 2)
    w = f4.gen()
    bit, pre = wp_class(w)
    _expect(bit == 1 and pre is None, "generator of F_4 has trace 1")
    bit, pre = wp_class(f4(1))
    _expect(bit == 0 and pre is not None and pre * pre - pre == f4(1), "1 in the image")
    return "wp classes over F_4"


def _ex_witt_classes():
    ring = gr_create(gf_create(2, 1))
    for u, digits in ((1, (0, 0)), (5, (0, 1)), (7, (1, 1))):
        cls = square_class_normalize(ring(u))
        got = (cls.a_part.coeffs[0], cls.b_part.coeffs[0])
        _expect(got == digits, f"class of {u} is {digits}, got {got}")
    _expect(arf_from_unit(ring(5), 0) == 1, "unit 5 reads Arf 1")
    _expect(arf_from_unit(ring(7), 1) == 0, "signed unit 7 reads Arf 0")
    try:
        arf_from_unit(ring(3), 0)
    except Exception as exc:
        _expect(type(exc).__name__ == "RamifiedClass", "unit 3 is ramified")
    else:
        raise CheckFailed("unit 3 should be ramified")
    return "square classes of 1, 5, 7 and Arf readings"


def _ex_milnor_basics():
    f7 = gf_create(7, 1)
    alg = milnor_algebra(parse_poly("x^3", f7, ["x"]))
    _expect(alg.mu == 2 and alg.basis == [(0,), (1,)] and alg.D == 2, "cusp algebra")
    alg = milnor_algebra(parse_poly("x^2+y^3", f7, ["x", "y"]))
    _expect(alg.mu == 2 and alg.basis == [(0, 0), (0, 1)], "A2 point algebra")
    alg = milnor_algebra(parse_poly("x^3+y^3", f7, ["x", "y"]))
    _expect(alg.mu == 4 and (1, 1) in alg.basis, "fermat cubic algebra")
    try:
        milnor_algebra(parse_poly("x^2*y", f7, ["x", "y"]), cap=8)
    except NotIsolated:
        pass
    else:
        raise CheckFailed("x^2*y has a non-isolated singular locus")
    return "milnor numbers 2, 2, 4 and a non-isolated rejection"


def _ex_witt_milnor():
    ring = gr_create(gf_create(2, 1))
    f = MultiPoly(ring, 1, {(2,): ring(1), (3,): ring(1)})
    alg = milnor_algebra(f)
    _expect(alg.mu == 2 and alg.basis == [(0,), (1,)], "lifted algebra basis 1, u")
    nf = alg.nf_monomial((2,))
    _expect(nf == {1: ring(2)}, "u^2 reduces to 2u")
    return "u^2+u^3 over the length-3 Witt ring"


def _ex_residue_cusp():
    f7 = gf_create(7, 1)
    f = parse_poly("x^3", f7, ["x"])
    C = [coded(f7).decode_row(row) for row in bezoutian(f)]
    _expect(C == [[f7(0), f7(3)], [f7(3), f7(0)]], "bezoutian matrix")
    lam = residue_functional(f)
    _expect(lam == [f7(0), f7(5)], "residue functional")
    G = gram_matrix(f, 1)
    _expect(G.matrix == [[f7(0), f7(5)], [f7(5), f7(0)]], "gram matrix")
    return "cusp over F_7: bezoutian, functional, gram"


def _ex_residue_quadratic():
    f7 = gf_create(7, 1)
    a = f7(3)
    f = MultiPoly(f7, 1, {(2,): a})
    lam = residue_functional(f)
    _expect(lam == [(f7(2) * a).inverse()], "lambda(1) = 1/(2a)")
    return "a*t^2 residue normalization"


def _ex_witt_residue():
    ring = gr_create(gf_create(2, 1))
    f = MultiPoly(ring, 1, {(2,): ring(1), (3,): ring(1)})
    C = [coded(ring).decode_row(row) for row in bezoutian(f)]
    _expect(C == [[ring(2), ring(3)], [ring(3), ring(0)]], "bezoutian")
    _expect(residue_functional(f) == [ring(0), ring(3)], "functional")
    G = gram_matrix(f, 1)
    _expect(G.matrix == [[ring(0), ring(3)], [ring(3), ring(6)]], "gram")
    _expect(G.det == ring(-9), "determinant -9")
    _expect(disc_square_class(G) == square_class_normalize(ring(-1)), "disc class -1")
    field = gf_create(2, 1)
    f2 = MultiPoly(field, 1, {(2,): field(1), (3,): field(1)})
    _expect(arf_invariant(f2) == 0, "Arf 0")
    return "u^2+u^3: gram over W_3, disc class -1, Arf 0"


def _ex_pushforward():
    f3 = gf_create(3, 1)
    ext = QuotientField(f3, [f3(1), f3(0), f3(1)])
    theta = ext.gen()
    T = [[ext.trace(theta ** (a + b)) for b in range(2)] for a in range(2)]
    _expect(T == [[f3(2), f3(0)], [f3(0), f3(-2)]], "trace form of F_9 over F_3")
    _expect(extension_disc(ext).sign == -1, "extension disc is a nonsquare")
    direct = SquareClass(f3, det_ring(f3, T))
    _expect(pushforward_disc(ext, form=[[ext.one]]) == direct, "unit form pushes to it")
    return "F_9 over F_3 trace form discriminant"


def _ex_epsilon_catalog():
    f3, f5, f7 = gf_create(3, 1), gf_create(5, 1), gf_create(7, 1)
    _expect(eps_quad_odd(1, f3) == EpsilonValue(f3, 1, 1), "t^2 over F_3 gives +tau")
    _expect(eps_quad_odd(1, f5) == EpsilonValue(f5, -1, 1), "t^2 over F_5 gives -tau")
    _expect(eps_quad_odd(2, f7) == EpsilonValue(f7, 1, 1), "2t^2 over F_7 gives +tau")
    f4 = gf_create(2, 2)
    w = f4.gen()
    _expect(eps_ordquad_char2(w, f4) == EpsilonValue(f4, 1, 0, -1), "trace-1 coefficient")
    _expect(eps_wildquad_char2(f4) == EpsilonValue(f4, 1, 0, 1), "wild entry is q")
    return "catalog entries in both characteristics"


def _ex_verify_sum_of_squares():
    f3 = gf_create(3, 1)
    rep = verify_identity(parse_poly("x^2+y^2", f3, ["x", "y"]))
    _expect(rep["verdict"] == "PASS", "verdict")
    _expect(rep["geometric"]["sign"] == -1, "sign")
    _expect(rep["geometric"]["q_exp"] == "-1", "q exponent")
    return "x^2+y^2 over F_3 passes with value -1/q"


def _ex_fermat_formulas():
    got = fermat_formulas(3, 0, [1, 1])
    _expect(got["disc_d"] == 27 and got["mu"] == 4, "cubic values")
    _expect(got["disc_B_value"] == 3 ** 8, "pairing discriminant 3^8")
    _expect(fermat_formulas(2, 0, [1, 1])["mu"] == 1, "quadric mu")
    _expect(a_exponent(0, 3) == 1 and a_exponent(1, 3) == 3, "a exponents")
    return "diagonal cubic closed forms"


def _ex_arf_quadratic():
    f2 = gf_create(2, 1)
    f = parse_poly("x^2+x*y+y^2", f2, ["x", "y"])
    _expect(arf_invariant(f).trace_bit == 1, "nontrivial Arf")
    return "x^2+xy+y^2 over F_2 has Arf bit 1"


def _ex_binary_cubics():
    f2 = gf_create(2, 1)
    irred = BinaryForm(f2, 3, [1, 0, 1, 1])
    _expect(frobenius_sign_binary(irred) == 1, "3-cycle is even")
    split = BinaryForm(f2, 3, [1, 0, 0, 1])
    _expect(frobenius_sign_binary(split) == -1, "transposition is odd")
    rational = BinaryForm(f2, 3, [0, 1, 1, 0])
    _expect(frobenius_sign_binary(rational) == 1, "identity permutation")
    _expect(verify_homog_char2(irred)["verdict"] == "PASS", "irreducible cubic")
    rep = verify_homog_char2(rational)
    _expect(rep["verdict"] == "PASS" and rep["arf"]["trace_bit"] == 1,
            "three rational roots force a nontrivial Arf over F_2")
    f4 = gf_create(2, 2)
    rep4 = verify_homog_char2(BinaryForm(f4, 3, [f4(0), f4(1), f4(1), f4(0)]))
    _expect(rep4["verdict"] == "PASS" and rep4["arf"]["trace_bit"] == 0,
            "the same form is trivial over F_4")
    return "frobenius signs and both cubic verdicts"


EXAMPLES = [
    ("gauss-sums", _ex_gauss_sums),
    ("artin-schreier", _ex_artin_schreier),
    ("witt-square-classes", _ex_witt_classes),
    ("milnor-basics", _ex_milnor_basics),
    ("witt-milnor", _ex_witt_milnor),
    ("residue-cusp", _ex_residue_cusp),
    ("residue-quadratic", _ex_residue_quadratic),
    ("witt-residue", _ex_witt_residue),
    ("trace-pushforward", _ex_pushforward),
    ("epsilon-catalog", _ex_epsilon_catalog),
    ("verify-sum-of-squares", _ex_verify_sum_of_squares),
    ("fermat-closed-forms", _ex_fermat_formulas),
    ("arf-quadratic", _ex_arf_quadratic),
    ("binary-cubics", _ex_binary_cubics),
]


# ---------------------------------------------------------------------------
# acceptance checks


def check_a1() -> str:
    count = 0
    for p in (3, 5, 7, 11, 13):
        for m in (1, 2, 3):
            field = gf_create(p, m)
            tau = gauss_sum(field)
            want = CycloInt.from_int(p, legendre(field(-1)) * field.q)
            _expect(tau * tau == want, f"tau^2 over q={field.q}")
            count += 1
    return f"tau^2 = (-1|k)q over {count} fields"


def check_a2(seed: int = DEFAULT_SEED) -> str:
    rng = random.Random(seed)
    cases = 0
    for p, m in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)):
        field = gf_create(p, m)
        for nv in (1, 2, 3, 4):
            for _ in range(2):
                coeffs = [_rand_unit(rng, field) for _ in range(nv)]
                f = _diag_form(field, coeffs)
                alg = milnor_algebra(f)
                _expect(alg.mu == 1, f"mu=1 for a diagonal quadratic, q={field.q}")
                lam = residue_functional(f)
                want = field(1)
                for a in coeffs:
                    want = want * (field(2) * a).inverse()
                _expect(lam[0] == want, f"lambda(1) over q={field.q}, {nv} vars")
                cases += 1
    return f"lambda(1) = prod 1/(2a_i) on {cases} diagonal quadratics"


def check_a3(seed: int = DEFAULT_SEED) -> str:
    e = calibrate()
    _expect(e == 1, f"calibration exponent {e}")
    rng = random.Random(seed)
    fields = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2),
              (11, 1), (11, 2), (13, 1), (13, 2)]
    twists = 0
    for idx in range(200):
        p, m = fields[idx % len(fields)]
        field = gf_create(p, m)
        nv = 1 + (idx // len(fields)) % 4
        f = _diag_form(field, [_rand_unit(rng, field) for _ in range(nv)])
        rep = verify_identity(f)
        _expect(rep["verdict"] == "PASS", f"{f.render()} over q={field.q}: {rep['verdict']}")
        twists += rep["psi_twists_checked"]
    return f"200 diagonal quadratics, {twists} twisted comparisons, exponent 1"


def check_a4(seed: int = DEFAULT_SEED) -> str:
    rng = random.Random(seed)
    cases = 0
    for d in (3, 4, 5):
        for p, m in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1)):
            if (2 * d) % p == 0:
                continue
            field = gf_create(p, m)
            for nv in (1, 2, 3):
                coeffs = [_rand_unit(rng, field) for _ in range(nv)]
                f = _diag_form(field, coeffs, d)
                G = gram_matrix(f, 1)
                _expect(G.mu == (d - 1) ** nv, f"mu for d={d}, {nv} vars, q={field.q}")
                nu = nv
                mu = G.mu
                half = (d - 2) * mu * nu
                closed = field((-1) ** (half // 2)) * field(d) ** (mu * nu)
                for a in coeffs:
                    closed = closed * a ** mu
                _expect(disc_square_class(G) == SquareClass(field, closed),
                        f"disc class for d={d}, {nv} vars, q={field.q}")
                if m == 1:
                    ints = [a.constant_value() for a in coeffs]
                    formulas = fermat_formulas(d, nv - 2, ints)
                    _expect(formulas["mu"] == mu, "closed-form mu")
                    _expect(SquareClass(field, field(formulas["disc_B_value"]))
                            == disc_square_class(G), "integer closed form")
                cases += 1
    return f"{cases} diagonal forms match the closed-form discriminant"


def check_a5() -> str:
    cases = 0
    for m in (1, 2, 3, 4):
        field = gf_create(2, m)
        for a in field.elements():
            f = MultiPoly(field, 2, {(2, 0): field(1), (1, 1): field(1), (0, 2): a})
            if a.is_zero():
                f = MultiPoly(field, 2, {(2, 0): field(1), (1, 1): field(1)})
            arf = arf_invariant(f)
            _expect(arf == a, f"Arf class of a={a!r} over m={m}")
            rep = verify_identity(f)
            _expect(rep["verdict"] == "PASS", f"verify over m={m}, a={a!r}")
            want_sign = -1 if trace_bit(a) else 1
            _expect(rep["geometric"]["sign"] == want_sign
                    and rep["geometric"]["q_exp"] == "-1",
                    f"epsilon value for a={a!r}")
            cases += 1
    return f"Arf(x^2+xy+ay^2) = [a] and verify passes for {cases} coefficients"


def check_a6() -> str:
    for m in (1, 2, 3):
        field = gf_create(2, m)
        ring = gr_create(field)
        f_w = MultiPoly(ring, 1, {(2,): ring(1), (3,): ring(1)})
        G = gram_matrix(f_w, 1)
        _expect(disc_square_class(G) == square_class_normalize(ring(-1)),
                f"disc class -1 at m={m}")
        f = MultiPoly(field, 1, {(2,): field(1), (3,): field(1)})
        _expect(arf_invariant(f) == 0, f"Arf 0 at m={m}")
        rep = verify_identity(f)
        _expect(rep["verdict"] == "PASS", f"verify at m={m}")
        _expect(rep["arithmetic"] == {"sign": 1, "tau_exp": 0, "q_exp": "1", "witness": None},
                f"epsilon is q at m={m}")
    return "u^2+u^3: disc -1, Arf 0, epsilon q for m up to 3"


def _random_char2_poly(rng, field, n_vars: int) -> MultiPoly:
    """A random polynomial whose Jacobian ideal is monomial-cofinite.

    Each sample carries an odd pure power in every variable (so the
    corresponding partial derivative survives the characteristic), plus a
    few extra terms for variety.
    """
    terms = {}
    if n_vars == 1:
        terms[(rng.choice((3, 5)),)] = _rand_unit(rng, field)
        for _ in range(rng.randrange(0, 3)):
            terms.setdefault((rng.randrange(2, 6),), _rand_unit(rng, field))
    else:
        terms[(rng.choice((3, 5)), 0)] = _rand_unit(rng, field)
        terms[(0, rng.choice((3, 5)))] = _rand_unit(rng, field)
        if rng.random() < 0.7:
            terms[(1, 1)] = _rand_unit(rng, field)
        for _ in range(rng.randrange(0, 3)):
            d = rng.randrange(2, 5)
            i = rng.randrange(d + 1)
            terms.setdefault((d - i, i), _rand_unit(rng, field))
    return MultiPoly(field, n_vars, terms)


def check_a7(seed: int = DEFAULT_SEED) -> str:
    rng = random.Random(seed)
    found = 0
    attempts = 0
    while found < 20 and attempts < 400:
        attempts += 1
        field = gf_create(2, rng.choice((1, 2)))
        nv = rng.choice((1, 2))
        f = _random_char2_poly(rng, field, nv)
        try:
            alg = milnor_algebra(f, cap=10)
        except (NotIsolated, NotFlat, ResourceLimit):
            continue
        if not 1 <= alg.mu <= 8 or (nv * alg.mu) % 2:
            continue
        base = arf_invariant(f)
        for _ in range(2):
            g_terms = {}
            for _ in range(rng.randrange(1, 4)):
                if nv == 1:
                    e = (rng.randrange(0, 4),)
                else:
                    e = (rng.randrange(0, 3), rng.randrange(0, 2))
                g_terms[e] = field.decode(rng.randrange(field.q))
            g = MultiPoly(field, nv, g_terms)
            _expect(arf_invariant(f, lift_perturbation=g) == base,
                    f"lift perturbation changed Arf for {f.render()}")
        found += 1
    _expect(found == 20, f"only {found} usable samples in {attempts} attempts")
    return "20 singularities, Arf stable under 2 perturbed lifts each"


def check_a8() -> str:
    odd_cases = 0
    for m in (1, 2):
        field = gf_create(2, m)
        pool = [
            MultiPoly(field, 1, {(3,): field(1)}),
            MultiPoly(field, 1, {(2,): field(1), (3,): field(1)}),
            MultiPoly(field, 1, {(5,): field(1)}),
            MultiPoly(field, 3, {(2, 0, 0): field(1), (1, 1, 0): field(1),
                                 (0, 2, 0): field(1), (0, 0, 3): field(1)}),
        ]
        for f in pool:
            if f.n_vars % 2 == 0:
                continue
            mu = milnor_algebra(f).mu
            _expect(mu % 2 == 0, f"odd mu={mu} for {f.render()} over m={m}")
            odd_cases += 1
    arf_cases = 0
    for k in (1, 2, 3):
        for m in (1, 2, 3):
            field = gf_create(2, m)
            f = MultiPoly(field, 1, {(2 * k + 1,): field(1)})
            _expect(arf_invariant(f) == 0, f"Arf of u^{2 * k + 1} over m={m}")
            arf_cases += 1
    return f"mu parity on {odd_cases} odd-variable cases; Arf 0 on {arf_cases} monomials"


def check_a9(seed: int = DEFAULT_SEED) -> str:
    rng = random.Random(seed)
    pairs = 0
    attempts = 0
    while pairs < 30 and attempts < 600:
        attempts += 1
        p = rng.choice((3, 5, 7))
        field = gf_create(p, rng.choice((1, 2)) if p == 3 else 1)
        fs = []
        for _ in range(2):
            d = rng.randrange(2, 6)
            if d % p == 0:
                d += 1
            terms = {(d,): _rand_unit(rng, field)}
            if d > 2 and rng.random() < 0.5:
                terms[(2,)] = _rand_unit(rng, field)
            fs.append(MultiPoly(field, 1, terms))
        try:
            g1, g2 = gram_matrix(fs[0], 1), gram_matrix(fs[1], 1)
        except NotIsolated:
            continue
        if g1.mu > 4 or g2.mu > 4:
            continue
        box = fs[0].embed(2, 0) + fs[1].embed(2, 1)
        g_box = gram_matrix(box, 1)
        g_tensor = tensor_gram(g1, g2)
        _expect(g_box.basis == g_tensor.basis, "product basis order")
        _expect(g_box.matrix == g_tensor.matrix,
                f"tensor law fails for {fs[0].render()} and {fs[1].render()}")
        pairs += 1
    _expect(pairs == 30, f"only {pairs} pairs in {attempts} attempts")
    return "Gram(f boxplus g) = Gram(f) tensor Gram(g) on 30 pairs"


def check_a10(seed: int = DEFAULT_SEED) -> str:
    rng = random.Random(seed)
    cases = 0
    attempts = 0
    while cases < 50 and attempts < 1000:
        attempts += 1
        p, m = rng.choice(((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1)))
        field = gf_create(p, m)
        d = rng.randrange(3, 7)
        f = [field.decode(rng.randrange(field.q)) for _ in range(d)] + [_rand_unit(rng, field)]
        fp = unipoly.trim(unipoly.deriv_p(f))
        if unipoly.degree(fp) < 1:
            continue
        if unipoly.degree(unipoly.gcd_p(fp, unipoly.deriv_p(fp))) != 0:
            continue
        lam, fprime = global_univariate_functional(field, f)
        fpp = unipoly.deriv_p(fprime)
        mu = len(lam)
        _, factors = unipoly.factor(field, fprime)
        for k in range(mu):
            target = field.zero
            for g, mult in factors:
                _expect(mult == 1, "separable derivative")
                ext = QuotientField(field, g)
                theta = ext.gen()
                val = theta ** k * ext.eval_base_poly(fpp, theta).inverse()
                target = target + ext.trace(val)
            xk = [field.zero] * k + [field.one]
            _expect(global_univariate_value(field, lam, fprime, xk) == target,
                    f"lambda(x^{k}) root sum over q={field.q}")
        cases += 1
    _expect(cases == 50, f"only {cases} separable cases in {attempts} attempts")
    return "50 separable derivatives, functional equals the root sum"


def check_a11(seed: int = DEFAULT_SEED) -> str:
    rng = random.Random(seed)
    cases = 0
    for p, m in ((3, 1), (5, 1), (3, 2)):
        base = gf_create(p, m)
        for r in (2, 3):
            ext = QuotientField(base, irreducible_poly(base, r))
            theta = ext.gen()
            for _ in range(3):
                rank = rng.randrange(1, 4)
                B = [[ext(0)] * rank for _ in range(rank)]
                for i in range(rank):
                    code = 1 + rng.randrange(ext.size - 1)
                    cs = []
                    for _ in range(r):
                        cs.append(base.decode(code % base.q))
                        code //= base.q
                    B[i][i] = ext(cs)
                big = []
                for i in range(rank):
                    for a in range(r):
                        row = []
                        for j in range(rank):
                            for b in range(r):
                                row.append(ext.trace(theta ** (a + b) * B[i][j]))
                        big.append(row)
                direct = SquareClass(base, det_ring(base, big))
                _expect(pushforward_disc(ext, form=B) == direct,
                        f"pushforward over q={base.q}, r={r}")
                cases += 1
    return f"{cases} diagonal forms push forward consistently"


def check_a12() -> str:
    f7 = gf_create(7, 1)
    fam1 = MultiPoly(f7, 2, {(3, 0): f7(1), (2, 1): f7(1)})
    prof1 = family_milnor_profile(fam1, f7, list(range(7)))
    _expect({p["total"] for p in prof1} == {2}, "x^3+ax^2 totals")
    at0 = [p for p in prof1 if p["value"] == "0"][0]
    _expect(at0["points"] == [{"point": "0", "degree": 1, "mu": 2}], "profile at a=0")
    at1 = [p for p in prof1 if p["value"] == "1"][0]
    _expect(sorted(pt["point"] for pt in at1["points"]) == ["0", "4"], "roots at a=1")
    fam2 = MultiPoly(f7, 2, {(2, 0): f7(1)})
    prof2 = family_milnor_profile(fam2, f7, list(range(7)))
    _expect({p["total"] for p in prof2} == {1}, "x^2 totals")
    fam3 = MultiPoly(f7, 2, {(5, 0): f7(1), (3, 1): f7(1)})
    prof3 = family_milnor_profile(fam3, f7, list(range(7)))
    _expect({p["total"] for p in prof3} == {4}, "x^5+ax^3 totals")
    return "three families with conserved totals 2, 1, 4"


def check_a13() -> str:
    scanned = {2: 0, 4: 0}
    for q, m in ((2, 1), (4, 2)):
        field = gf_create(2, m)
        for codes in product(range(q), repeat=4):
            if not any(codes):
                continue
            F = BinaryForm(field, 3, [field.decode(c) for c in codes])
            try:
                rep = verify_homog_char2(F)
            except SingularForm:
                continue
            _expect(rep["verdict"] == "PASS",
                    f"cubic {codes} over F_{q}: Arf vs Frobenius mismatch")
            scanned[q] += 1
    _expect(scanned[2] > 0 and scanned[4] > 0, "no nonsingular cubics found")
    for d in (2, 3, 4, 5):
        disc = generic_divided_disc(d)
        cs = [MultiPoly.var(ZZ, d + 1, i) for i in range(d + 1)]
        g = [(j + 1) * cs[d - 1 - j] for j in range(d)]
        h = [(d - j) * cs[d - j] for j in range(d)]
        res = sylvester_resultant(g, h, d - 1, d - 1)
        _expect(disc * MultiPoly.const(ZZ, d + 1, d ** max(d - 2, 0)) == res,
                f"divided discriminant times d^{{{d}-2}} for d={d}")
        ferm = [1] + [0] * (d - 1) + [1]
        want = fermat_formulas(d, 0, [1, 1])["disc_d"]
        _expect(disc.evaluate(ferm) == want, f"fermat value for d={d}")
    quad = generic_divided_disc(2)
    want2 = (MultiPoly.var(ZZ, 3, 0) * MultiPoly.var(ZZ, 3, 2)).scale(4) - MultiPoly.var(ZZ, 3, 1) ** 2
    _expect(quad == want2, "binary quadric discriminant")
    _expect(generic_divided_disc(3).evaluate([0, 1, 0, 0]) == 0, "singular cubic vanishes")
    return (f"{scanned[2]} cubics over F_2 and {scanned[4]} over F_4 pass; "
            "divided discriminants verified through d=5")


ACCEPTANCE = [
    ("A1", check_a1),
    ("A2", check_a2),
    ("A3", check_a3),
    ("A4", check_a4),
    ("A5", check_a5),
    ("A6", check_a6),
    ("A7", check_a7),
    ("A8", check_a8),
    ("A9", check_a9),
    ("A10", check_a10),
    ("A11", check_a11),
    ("A12", check_a12),
    ("A13", check_a13),
]


def run_corpus(seed: int = DEFAULT_SEED):
    """Run the example suite then the acceptance suite; returns CheckResults."""
    results = [_timed(f"example:{name}", fn) for name, fn in EXAMPLES]
    for name, fn in ACCEPTANCE:
        if fn.__code__.co_argcount:
            results.append(_timed(name, lambda f=fn: f(seed)))
        else:
            results.append(_timed(name, fn))
    return results
