import random

from resform import unipoly
from resform.gfield import gf_create

# (p, m), f, ddf(f): f and each block as the codes of their coefficients,
# lowest degree first
DDF_FROZEN = [
    ((2, 1), [1, 0, 1, 0, 1, 1, 1], [(6, [1, 0, 1, 0, 1, 1, 1])]),
    ((2, 1), [1, 1, 1, 1, 0, 1], [(5, [1, 1, 1, 1, 0, 1])]),
    ((2, 1), [1, 1, 0, 0, 1, 0, 0, 1, 0, 1], [(3, [1, 1, 0, 1]), (6, [1, 0, 0, 1, 0, 0, 1])]),
    ((3, 1), [0, 1, 2, 2, 2, 2, 2, 1, 2, 1], [(1, [0, 2, 1]), (7, [2, 0, 1, 2, 0, 1, 0, 1])]),
    ((3, 1), [0, 2, 0, 1, 2, 2, 0, 1], [(1, [0, 1]), (6, [2, 0, 1, 2, 2, 0, 1])]),
    ((3, 1), [0, 2, 0, 0, 0, 0, 1], [(1, [0, 2, 1]), (4, [1, 1, 1, 1, 1])]),
    ((5, 1), [4, 1, 0, 0, 1], [(4, [4, 1, 0, 0, 1])]),
    ((5, 1), [3, 0, 0, 0, 1, 3, 4, 2, 1, 1],
     [(1, [2, 2, 1]), (2, [2, 1, 1]), (5, [2, 2, 4, 2, 3, 1])]),
    ((5, 1), [3, 4, 3, 4, 3, 1, 4, 1], [(7, [3, 4, 3, 4, 3, 1, 4, 1])]),
    ((2, 2), [3, 0, 2, 2, 2, 1, 0, 2, 0, 1], [(2, [2, 2, 1, 3, 1]), (5, [2, 2, 2, 1, 3, 1])]),
    ((2, 2), [0, 3, 3, 2, 1, 3, 1], [(1, [0, 2, 1]), (4, [2, 3, 3, 1, 1])]),
    ((2, 2), [3, 3, 2, 2, 3, 1], [(1, [3, 1]), (4, [1, 3, 2, 0, 1])]),
    ((3, 2), [6, 7, 3, 1, 1], [(1, [2, 2, 1]), (2, [3, 2, 1])]),
    ((3, 2), [4, 1, 0, 3, 7, 7, 5, 1, 1], [(1, [6, 1]), (3, [3, 0, 2, 1]), (4, [4, 8, 0, 5, 1])]),
    ((3, 2), [7, 2, 1, 1, 6, 1], [(1, [6, 1]), (2, [4, 4, 1, 0, 1])]),
]


def test_ddf_is_frozen_on_a_seeded_sample():
    """Squarefree monic f of degree 4..9 drawn by a seeded generator, three
    per field; the blocks were recorded before ddf and is_irreducible
    shared one Frobenius loop."""
    rng = random.Random("ddf")
    sample = []
    for p, m in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        field = gf_create(p, m)
        drawn = 0
        while drawn < 3:
            r = rng.randint(4, 9)
            f = [field.decode(rng.randrange(field.q)) for _ in range(r)] + [field.one]
            if unipoly.degree(unipoly.gcd_p(f, unipoly.deriv_p(f))) != 0:
                continue
            blocks = [(d, [field.encode(c) for c in g]) for d, g in unipoly.ddf(field, f)]
            sample.append(((p, m), [field.encode(c) for c in f], blocks))
            drawn += 1
    assert sample == DDF_FROZEN


def test_is_irreducible_stops_at_the_first_block(monkeypatch):
    """(x - 1) * g with g irreducible of degree 5 over F_3: the linear block
    turns up at the first q-th power, and the test makes no second one,
    while ddf goes on to degree 2."""
    field = gf_create(3, 1)
    g = unipoly.irreducible_poly(field, 5)
    f = unipoly.mul_p([field(-1), field.one], g)
    calls = []
    pow_mod = unipoly.pow_mod

    def counting(base, e, mod):
        calls.append(e)
        return pow_mod(base, e, mod)

    monkeypatch.setattr(unipoly, "pow_mod", counting)
    assert not unipoly.is_irreducible(field, f)
    assert calls == [3]
    assert [d for d, _ in unipoly.ddf(field, f)] == [1, 5]
    assert calls == [3, 3, 3]


def _codes(field, g):
    return tuple(field.encode(c) for c in g)


def _check_factorization(field, f, want):
    """factor(f) multiplies back to f, into monic irreducibles with the
    multiplicities in want ({factor codes: multiplicity})."""
    lead, facs = unipoly.factor(field, f)
    back = [lead]
    for g, e in facs:
        assert g[-1] == field.one
        assert unipoly.is_irreducible(field, g)
        for _ in range(e):
            back = unipoly.mul_p(back, g)
    assert back == unipoly.trim(f)
    assert {_codes(field, g): e for g, e in facs} == want


def test_factor_splits_equal_degree_and_inseparable_factors():
    """Two cubics over F_2 share a distinct-degree block, which the trace
    map of characteristic 2 splits; x*(x^2+x+g)^2 over F_4 and (x+g)^3 over
    F_9 leave a p-th power after their separable part, whose p-th root is
    factored with the multiplicity scaled by p."""
    f2 = gf_create(2, 1)
    a, b = [f2(1), f2(1), f2(0), f2(1)], [f2(1), f2(0), f2(1), f2(1)]
    _check_factorization(f2, unipoly.mul_p(a, b), {(1, 1, 0, 1): 1, (1, 0, 1, 1): 1})
    f4 = gf_create(2, 2)
    g = f4.gen()
    h = [g, f4.one, f4.one]
    x = [f4.zero, f4.one]
    _check_factorization(f4, unipoly.mul_p(x, unipoly.mul_p(h, h)),
                         {(0, 1): 1, _codes(f4, h): 2})
    f9 = gf_create(3, 2)
    linear = [f9.gen(), f9.one]
    cube = unipoly.mul_p(linear, unipoly.mul_p(linear, linear))
    _check_factorization(f9, unipoly.scale_p(cube, f9(2)), {_codes(f9, linear): 3})


def test_factor_recovers_a_seeded_sample_of_products():
    """Products of distinct monic irreducibles of degree 1..3 with
    multiplicities 1..p+1 (so p-th powers occur) and a random leading
    coefficient, over every field of at most 8 elements."""
    rng = random.Random("factor")
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)]:
        field = gf_create(p, m)
        for _ in range(4):
            want, count = {}, rng.randint(1, 3)
            while len(want) < count:
                d = rng.randint(1, 3)
                g = [field.decode(rng.randrange(field.q)) for _ in range(d)] + [field.one]
                if unipoly.is_irreducible(field, g):
                    want.setdefault(_codes(field, g), rng.randint(1, p + 1))
            f = [field.decode(rng.randrange(1, field.q))]
            for codes, e in want.items():
                for _ in range(e):
                    f = unipoly.mul_p(f, [field.decode(c) for c in codes])
            _check_factorization(field, f, want)
