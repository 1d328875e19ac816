"""Cold cost of verify_identity on coordinate changes of Fermat sums.

    PYTHONPATH=src python3 tests/cold_costs.py [--seed N] [--repeat K]

For each rung of the ladder (x^5+y^5+z^5 over F_11, x^6+y^6+z^6 over F_13,
x^4+y^4+z^4+w^4 over F_13) a seeded A in GL_n(F_p) gives f o A, which does
not split into blocks and is no Morse point, so its Milnor algebra is one
elimination and verify builds its Bezoutian.  Two Morse rungs follow, of
the shapes of the benchmark's quadratic-sweep slots c4-F13 and d3-F729: a
coupled form in 4 variables over F_13 and a diagonal one in 3 variables
over F_729.  Each is presented by one linalg.unit_det of its Hessian, and
verify builds no Bezoutian for it.  Each op parses f afresh and clears
milnor._ALGEBRAS first, so it pays for the elimination or the Hessian and
for the Bezoutian; the best of K ops is printed, with the share of that op
spent in residue.bezoutian, inside it in the determinant expansion
(linalg.det_expand), in the rest of the Bezoutian (the divided differences
and C built from the determinant), and in the Hessian's unit_det, and the
number of relation-matrix eliminations (milnor._eliminate) the op ran, so
a scan that eliminates more than it needs shows in every run.  Pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import random
import time

from resform import milnor, residue
from resform.epsilon import verify_identity
from resform.gfield import gf_create
from resform.linalg import det_ring
from resform.mpoly import parse_poly

# (p, number of variables, degree)
LADDER = [(11, 3, 5), (13, 3, 6), (13, 4, 4)]
NAMES = "xyzw"
# (p, m, Morse form in the first variables of NAMES, g the field's generator)
MORSE = [
    (13, 1, "2*x^2+5*x*y+y^2+3*y*z+7*z^2+z*w+4*w^2+6*x*w+x*z"),
    (3, 6, "x^2+g*y^2+g^5*z^2"),
]


def fermat_change(rng, p, n, d):
    """The text of sum_i (sum_j A_ij x_j)^d for a random A in GL_n(F_p)."""
    field = gf_create(p, 1)
    while True:
        A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if not det_ring(field, [[field(a) for a in row] for row in A]).is_zero():
            break
    rows = ("+".join(v if a == 1 else f"{a}*{v}" for a, v in zip(row, NAMES) if a) for row in A)
    return "+".join(f"({row})^{d}" for row in rows)


class _Timer:
    """Total seconds spent in, and calls of, one module function while
    installed."""

    def __init__(self, module, name):
        self.module, self.name, self.real = module, name, getattr(module, name)
        self.seconds, self.calls = 0.0, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        start = time.perf_counter()
        try:
            return self.real(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start

    def __enter__(self):
        setattr(self.module, self.name, self)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.real)


def cold_op(field, names, text):
    """(op seconds, Bezoutian seconds, det_expand seconds, Hessian unit_det
    seconds, mu, eliminations) of one cold verify."""
    milnor._ALGEBRAS.clear()
    f = parse_poly(text, field, names, {"g": field.gen()} if field.m > 1 else None)
    with (_Timer(residue, "bezoutian") as bez, _Timer(residue, "det_expand") as det,
          _Timer(milnor, "unit_det") as hess, _Timer(milnor, "_eliminate") as elim):
        start = time.perf_counter()
        report = verify_identity(f)
        op = time.perf_counter() - start
    return op, bez.seconds, det.seconds, hess.seconds, report["mu"], elim.calls


def _row(label, field, names, text, repeat):
    op, bez, det, hess, mu, elims = min(cold_op(field, names, text) for _ in range(repeat))
    print(f"{label:<44} {mu:>4} {op:>8.4f} {bez / op:>10.1%} {det / op:>11.1%} "
          f"{(bez - det) / op:>6.1%} {hess / op:>9.1%} {elims:>6}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    print(f"{'input':<44} {'mu':>4} {'op s':>8} {'bezoutian':>10} {'det_expand':>11} "
          f"{'rest':>6} {'unit_det':>9} {'elims':>6}")
    for p, n, d in LADDER:
        text = fermat_change(rng, p, n, d)
        label = f"{'+'.join(f'{v}^{d}' for v in NAMES[:n])} o A over F_{p}"
        _row(label, gf_create(p, 1), list(NAMES[:n]), text, args.repeat)
        print(f"  f o A = {text}")
    for p, m, text in MORSE:
        names = [v for v in NAMES if v in text]
        _row(f"Morse, {len(names)} variables, over F_{p ** m}", gf_create(p, m), names, text,
             args.repeat)
        print(f"  f = {text}")


if __name__ == "__main__":
    main()
