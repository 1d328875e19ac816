"""The benchmark's four workloads: input pools, seeded op order, ops, checks.

Each workload walks a fixed pool of inputs stored in golden/<name>.json next
to the digest of every input's canonical output, recorded on the unchanged
engine by make_golden.py.  The pool is split into slots of one input shape
each (field, variable count, degree).  One cycle runs one op from every slot,
so every cycle carries the same mix of work; --seed picks the order of the
slots within each cycle and which pool entry each slot serves next.  Entries
are not reused until a slot's pool is exhausted, because a repeated
polynomial would hit the engine's per-polynomial cache and run faster than
a new one.

The generators below are only run by make_golden.py and the tests; a
benchmark run reads the stored pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
POOL_SEED = 201011022


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


def _unit_code(rng, q):
    return 1 + rng.randrange(q - 1)


def _field(R, p, m):
    return R.gfield.gf_create(p, m)


def _diag_poly(R, field, codes, d):
    n = len(codes)
    terms = {}
    for i, c in enumerate(codes):
        e = [0] * n
        e[i] = d
        terms[tuple(e)] = field.decode(c)
    return R.mpoly.MultiPoly(field, n, terms)


def _terms_poly(R, field, n, terms):
    return R.mpoly.MultiPoly(field, n, {tuple(e): field.decode(c) for e, c in terms})


class Workload:
    """One workload: slots of (name, pool size, shape), op and checks."""

    name = ""
    slots: list = []
    # seconds one cycle takes on the reference machine; sizes the traced run
    nominal_cycle_s = 1.0
    # percentile reported as the tail: the highest with at least 10 ops
    # beyond it in a 30-second run at either of the machine's speeds
    tail_pct = 50.0

    def generate(self, rng, shape, R):
        raise NotImplementedError

    def prepare(self, R, inp):
        raise NotImplementedError

    def op(self, R, arg):
        raise NotImplementedError

    def check(self, inp, out):
        """Independent check of one output; a message when it fails."""
        return None


class FermatLargeMu(Workload):
    name = "fermat-large-mu"
    # Sizes are staggered (two variables up to d = 9, mu = 64, beside three
    # variables with d = 4) so that op costs form a dense ladder around the
    # median.  The machine this was tuned on switches between two speeds
    # every few seconds; over a ladder the median moves smoothly with the
    # share of slow time, where over one repeated size it would jump between
    # that size's fast and slow cost.  x^6+y^6+z^6 over F_13 (mu = 125,
    # ~11.6 s an op) is left out: one op would take most of a run.
    slots = [
        ("2v-d4-F7", 24, {"p": 7, "m": 1, "n": 2, "d": 4}),
        ("2v-d5-F9", 24, {"p": 3, "m": 2, "n": 2, "d": 5}),
        ("2v-d6-F11", 24, {"p": 11, "m": 1, "n": 2, "d": 6}),
        ("2v-d7-F13", 24, {"p": 13, "m": 1, "n": 2, "d": 7}),
        ("2v-d8-F11", 24, {"p": 11, "m": 1, "n": 2, "d": 8}),
        ("2v-d8-F13", 24, {"p": 13, "m": 1, "n": 2, "d": 8}),
        ("3v-d4-F7", 24, {"p": 7, "m": 1, "n": 3, "d": 4}),
        ("3v-d4-F13", 24, {"p": 13, "m": 1, "n": 3, "d": 4}),
        ("3v-d4-F25", 24, {"p": 5, "m": 2, "n": 3, "d": 4}),
        ("2v-d9-F7", 24, {"p": 7, "m": 1, "n": 2, "d": 9}),
        ("2v-d9-F11", 24, {"p": 11, "m": 1, "n": 2, "d": 9}),
        ("2v-d9-F13", 24, {"p": 13, "m": 1, "n": 2, "d": 9}),
        ("3v-d5-F11", 24, {"p": 11, "m": 1, "n": 3, "d": 5}),
        ("3v-d5-F13", 24, {"p": 13, "m": 1, "n": 3, "d": 5}),
    ]
    nominal_cycle_s = 4.2
    tail_pct = 75.0

    def generate(self, rng, shape, R):
        q = shape["p"] ** shape["m"]
        a = [_unit_code(rng, q) for _ in range(shape["n"])]
        return dict(shape, a=a)

    def prepare(self, R, inp):
        return _diag_poly(R, _field(R, inp["p"], inp["m"]), inp["a"], inp["d"])

    def op(self, R, f):
        return R.epsilon.verify_identity(f)

    def check(self, inp, out):
        p, m, n, d = inp["p"], inp["m"], inp["n"], inp["d"]
        modulus = out.get("field", {}).get("modulus")
        if not modulus:
            return f"no field in output: {out}"
        mu = (d - 1) ** n
        if out.get("mu") != mu:
            return f"mu {out.get('mu')} != (d-1)^n = {mu}"
        if out.get("dimtot") != (mu if n % 2 else -mu):
            return "dimtot does not match mu"
        coeffs = [oracle.digits(c, p, m) for c in inp["a"]]
        want = oracle.fermat_geometric(p, modulus, d, coeffs)
        got = {k: out["geometric"][k] for k in want}
        if got != want:
            return f"geometric epsilon {got} != closed form {want}"
        if out.get("verdict") == "FAIL":
            return "verdict FAIL"
        return None


_VARS = ("x", "y", "z", "w")
# cross terms x_i*x_j present in the non-diagonal forms, by variable count
_CROSS = {2: [(0, 1)], 3: [(0, 1), (1, 2)], 4: [(0, 1), (1, 2), (2, 3), (0, 3)]}


def _coeff_text(code, p, m):
    if m == 1:
        return str(code)
    parts = []
    for i, c in enumerate(oracle.digits(code, p, m)):
        if c:
            parts.append(str(c) if i == 0 else f"{c}*g" + (f"^{i}" if i > 1 else ""))
    return "(" + "+".join(parts) + ")"


def quadratic_text(inp) -> str:
    """The form as the CLI's --poly text."""
    p, m = inp["p"], inp["m"]
    parts = []
    for i, c in enumerate(inp["diag"]):
        parts.append(f"{_coeff_text(c, p, m)}*{_VARS[i]}^2")
    for i, j, c in inp["cross"]:
        parts.append(f"{_coeff_text(c, p, m)}*{_VARS[i]}*{_VARS[j]}")
    return "+".join(parts)


def quadratic_argv(inp) -> list:
    return ["verify", "--p", str(inp["p"]), "--m", str(inp["m"]),
            "--vars", ",".join(_VARS[:inp["n"]]), "--poly", quadratic_text(inp), "--json"]


class QuadraticSweep(Workload):
    name = "quadratic-sweep"
    slots = [
        ("d1-F13", 512, {"p": 13, "m": 1, "n": 1, "mixed": False}),
        ("d1-F49", 512, {"p": 7, "m": 2, "n": 1, "mixed": False}),
        ("d2-F5", 512, {"p": 5, "m": 1, "n": 2, "mixed": False}),
        ("d2-F9", 512, {"p": 3, "m": 2, "n": 2, "mixed": False}),
        ("d3-F7", 512, {"p": 7, "m": 1, "n": 3, "mixed": False}),
        ("d3-F25", 512, {"p": 5, "m": 2, "n": 3, "mixed": False}),
        ("d4-F11", 512, {"p": 11, "m": 1, "n": 4, "mixed": False}),
        ("d4-F27", 512, {"p": 3, "m": 3, "n": 4, "mixed": False}),
        ("d2-F729", 512, {"p": 3, "m": 6, "n": 2, "mixed": False}),
        ("d3-F729", 512, {"p": 3, "m": 6, "n": 3, "mixed": False}),
        ("c2-F3", 512, {"p": 3, "m": 1, "n": 2, "mixed": True}),
        ("c2-F7", 512, {"p": 7, "m": 1, "n": 2, "mixed": True}),
        ("c3-F5", 512, {"p": 5, "m": 1, "n": 3, "mixed": True}),
        ("c3-F13", 512, {"p": 13, "m": 1, "n": 3, "mixed": True}),
        ("c4-F11", 512, {"p": 11, "m": 1, "n": 4, "mixed": True}),
        ("c4-F13", 512, {"p": 13, "m": 1, "n": 4, "mixed": True}),
    ]
    nominal_cycle_s = 0.08
    tail_pct = 99.0

    def generate(self, rng, shape, R=None):
        return generate_quadratic(rng, shape)

    def prepare(self, R, inp):
        return quadratic_argv(inp)

    def op(self, R, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = R.cli.main(argv)
        return {"exit": code, "stdout": buf.getvalue()}

    def check(self, inp, out):
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        rep = json.loads(out["stdout"])
        if rep.get("mu") != 1:
            return f"nondegenerate quadratic form with mu {rep.get('mu')}"
        if not inp["mixed"] and rep.get("verdict") != "PASS":
            return f"diagonal form ends {rep.get('verdict')}"
        if rep.get("verdict") == "FAIL":
            return "verdict FAIL"
        return None


def generate_quadratic(rng, shape) -> dict:
    """A nondegenerate quadratic form of the slot's shape.

    Cross terms are drawn only over prime fields, where quad_det can reject
    a degenerate draw; a degenerate form would send the engine through the
    full truncation-degree scan (minutes in 3 variables).
    """
    p, m, n = shape["p"], shape["m"], shape["n"]
    q = p ** m
    while True:
        diag = [_unit_code(rng, q) for _ in range(n)]
        cross = []
        if shape["mixed"]:
            if m != 1:
                raise ValueError("cross terms are generated over prime fields only")
            cross = [[i, j, _unit_code(rng, p)] for i, j in _CROSS[n]]
            if oracle.quad_det(p, n, diag, cross) == 0:
                continue
        return dict(shape, diag=diag, cross=cross)


class Char2Witt(Workload):
    name = "char2-witt"
    # x^2+xy+ay^2 over every F_{2^m} up to m = 10 gives a dense ladder of
    # op costs around the median (see FermatLargeMu for why).
    slots = [
        *[(f"oq-F{2 ** m}", 320, {"kind": "oq", "p": 2, "m": m}) for m in range(1, 11)],
        ("a7-F4-1v", 320, {"kind": "a7", "p": 2, "m": 2, "n": 1, "mu": None}),
        ("a7-F2-2v-mu4", 320, {"kind": "a7", "p": 2, "m": 1, "n": 2, "mu": 4}),
        ("a7-F4-2v-mu4", 320, {"kind": "a7", "p": 2, "m": 2, "n": 2, "mu": 4}),
        ("a13-F2", 320, {"kind": "a13", "p": 2, "m": 1}),
        ("a13-F4", 320, {"kind": "a13", "p": 2, "m": 2}),
        ("a13-F8", 320, {"kind": "a13", "p": 2, "m": 3}),
        ("a13-F16", 64, {"kind": "a13", "p": 2, "m": 4}),
        ("a13-F32", 64, {"kind": "a13", "p": 2, "m": 5}),
    ]
    nominal_cycle_s = 0.9
    tail_pct = 95.0

    def generate(self, rng, shape, R):
        q = 2 ** shape["m"]
        kind = shape["kind"]
        if kind == "oq":
            return dict(shape, a=rng.randrange(q))
        if kind == "a13":
            return self._gen_cubic(rng, shape, R)
        return self._gen_a7(rng, shape, R)

    def _gen_cubic(self, rng, shape, R):
        field = _field(R, 2, shape["m"])
        while True:
            codes = [rng.randrange(field.q) for _ in range(4)]
            if not any(codes):
                continue
            F = R.homog.BinaryForm(field, 3, [field.decode(c) for c in codes])
            if R.homog.divided_disc_binary(F).is_zero():
                continue
            return dict(shape, c=codes)

    def _gen_a7(self, rng, shape, R):
        """An A7-style random singularity, kept when isolated with even n*mu.

        A slot may fix mu: two-variable draws are mostly Morse (mu = 1, ~20 ms
        an op) or mu = 4 (~90 ms) or mu = 8 (~600 ms), and a slot mixing them
        would make every run's mean depend on how many slow draws it served.
        mu = 8 is left out; its ops would dominate the workload.
        """
        field = _field(R, 2, shape["m"])
        n = shape["n"]
        q = field.q
        while True:
            terms = {}
            if n == 1:
                terms[(rng.choice((3, 5)),)] = _unit_code(rng, q)
                for _ in range(rng.randrange(0, 3)):
                    terms.setdefault((rng.randrange(2, 6),), _unit_code(rng, q))
            else:
                terms[(rng.choice((3, 5)), 0)] = _unit_code(rng, q)
                terms[(0, rng.choice((3, 5)))] = _unit_code(rng, q)
                if rng.random() < 0.7:
                    terms[(1, 1)] = _unit_code(rng, q)
                for _ in range(rng.randrange(0, 3)):
                    d = rng.randrange(2, 5)
                    i = rng.randrange(d + 1)
                    terms.setdefault((d - i, i), _unit_code(rng, q))
            f_terms = sorted([list(e), c] for e, c in terms.items())
            f = _terms_poly(R, field, n, f_terms)
            try:
                alg = R.milnor.milnor_algebra(f, cap=10)
            except (R.errors.NotIsolated, R.errors.NotFlat):
                continue
            if not 1 <= alg.mu <= 8 or (n * alg.mu) % 2:
                continue
            if shape["mu"] is not None and alg.mu != shape["mu"]:
                continue
            perturbations = []
            for _ in range(2):
                g = {}
                for _ in range(rng.randrange(1, 4)):
                    e = (rng.randrange(0, 4),) if n == 1 else (rng.randrange(0, 3), rng.randrange(0, 2))
                    g[e] = rng.randrange(q)
                perturbations.append(sorted([list(e), c] for e, c in g.items()))
            return dict(shape, f=f_terms, g=perturbations)

    def prepare(self, R, inp):
        field = _field(R, 2, inp["m"])
        kind = inp["kind"]
        if kind == "oq":
            terms = [[(2, 0), 1], [(1, 1), 1], [(0, 2), inp["a"]]]
            return kind, _terms_poly(R, field, 2, terms), None
        if kind == "a13":
            return kind, R.homog.BinaryForm(field, 3, [field.decode(c) for c in inp["c"]]), None
        f = _terms_poly(R, field, inp["n"], inp["f"])
        gs = [_terms_poly(R, field, inp["n"], g) for g in inp["g"]]
        return kind, f, gs

    def op(self, R, arg):
        kind, f, gs = arg
        if kind == "oq":
            arf = R.residue.arf_invariant(f)
            return {"arf": arf.to_json(), "verify": R.epsilon.verify_identity(f)}
        if kind == "a13":
            return R.homog.verify_homog_char2(f)
        base = R.residue.arf_invariant(f)
        pert = [R.residue.arf_invariant(f, lift_perturbation=g) for g in gs]
        return {"arf": base.to_json(), "perturbed": [a.to_json() for a in pert]}

    def check(self, inp, out):
        kind = inp["kind"]
        if "error" in out:
            return f"raised {out['error']}"
        if kind == "oq":
            modulus = out["verify"]["field"]["modulus"]
            a = oracle.digits(inp["a"], 2, inp["m"])
            want = oracle.trace_bit(a, modulus)
            if out["arf"]["trace_bit"] != want:
                return f"Arf trace bit {out['arf']['trace_bit']} != Tr(a) = {want}"
            geo = out["verify"]["geometric"]
            if geo["sign"] != (-1 if want else 1) or geo["q_exp"] != "-1":
                return f"epsilon {geo} does not match Arf class [a]"
            if out["verify"]["verdict"] != "PASS":
                return f"verdict {out['verify']['verdict']}"
            return None
        if kind == "a13":
            return None if out["verdict"] == "PASS" else "Arf does not match Frobenius sign"
        bits = {out["arf"]["trace_bit"]} | {a["trace_bit"] for a in out["perturbed"]}
        return None if len(bits) == 1 else "a perturbed lift changed the Arf class"


class NonisolatedReject(Workload):
    name = "nonisolated-reject"
    # Only 2-variable inputs: 3- and 4-variable non-isolated inputs run past
    # 40 s or exhaust memory in the truncation-degree scan, so no run could
    # finish.
    # Slots of ~2, ~2.4 and ~4.6 s keep a cycle near 9 s, so a run serves
    # two or three whole cycles; a*x^2*y (~4.6 s, like the square) is left
    # out for that.
    slots = [
        ("x2-F13", 8, {"p": 13, "m": 1, "shape": "a*x^2"}),
        ("x2-F5", 8, {"p": 5, "m": 1, "shape": "a*x^2"}),
        ("sq-F7", 8, {"p": 7, "m": 1, "shape": "a*(x+b*y)^2"}),
    ]
    nominal_cycle_s = 9.0

    def generate(self, rng, shape, R=None):
        p = shape["p"]
        return dict(shape, a=_unit_code(rng, p), b=_unit_code(rng, p))

    def prepare(self, R, inp):
        p, a, b = inp["p"], inp["a"], inp["b"]
        shape = inp["shape"]
        if shape == "a*x^2":
            terms = [[(2, 0), a]]
        else:
            terms = [[(2, 0), a], [(1, 1), 2 * a * b % p], [(0, 2), a * b * b % p]]
        return _terms_poly(R, _field(R, p, 1), 2, terms)

    def op(self, R, f):
        return R.epsilon.verify_identity(f)

    def check(self, inp, out):
        return None if out == {"error": "NotIsolated"} else f"expected NotIsolated, got {out}"


WORKLOADS = {w.name: w for w in (FermatLargeMu(), QuadraticSweep(), Char2Witt(), NonisolatedReject())}


class Engine:
    """The resform modules a workload calls, looked up at call time.

    Ops go through module attributes, never through names bound at import,
    so that the traced run's wrappers on those attributes see every call.
    """

    def __init__(self):
        import importlib

        for mod in ("cli", "epsilon", "errors", "gfield", "homog", "linalg",
                    "milnor", "mpoly", "residue", "wittring"):
            setattr(self, mod, importlib.import_module(f"resform.{mod}"))


def load_pool(wl: Workload) -> dict:
    """{slot: [{"in": input, "out": golden digest}]}; the file stores each
    input without the keys its slot's shape fixes."""
    with open(os.path.join(GOLDEN_DIR, f"{wl.name}.json")) as fh:
        stored = json.load(fh)["slots"]
    return {name: [{"in": dict(shape, **drawn), "out": out} for drawn, out in stored[name]]
            for name, _, shape in wl.slots}


def set_up(R: Engine, wl: Workload):
    """Build every field, Witt ring, lookup table and Gauss sum the inputs need."""
    for p, m in dict.fromkeys((shape["p"], shape["m"]) for _, _, shape in wl.slots):
        field = R.gfield.gf_create(p, m)
        R.linalg.coded(field)
        if p == 2:
            R.linalg.coded(R.wittring.gr_create(field))
        else:
            for c in range(1, p):
                R.gfield.gauss_sum(field, c)
    R.epsilon.calibrate()


def cycles(wl: Workload, seed: int):
    """Endless seeded sequence of cycles, each a list of (slot, pool index).

    Cycle c serves entry c of each slot's seeded permutation, so entries
    repeat only once a slot's pool is used up.
    """
    rng = random.Random(f"{wl.name}/{seed}")
    perms = {name: rng.sample(range(size), size) for name, size, _ in wl.slots}
    order = [name for name, _, _ in wl.slots]
    c = 0
    while True:
        rng.shuffle(order)
        yield [(name, perms[name][c % len(perms[name])]) for name in order]
        c += 1


def pool_wraps(wl: Workload, n_cycles: int) -> bool:
    """Whether n_cycles cycles serve some slot more entries than its pool holds."""
    return any(n_cycles > size for _, size, _ in wl.slots)


def check_output(wl: Workload, entry: dict, out) -> str | None:
    """None when the output matches its golden digest and the workload's checks."""
    if digest(out) != entry["out"]:
        return f"output differs from golden record: {canonical(out)[:300]}"
    return wl.check(entry["in"], out)
