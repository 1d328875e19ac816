"""Cold cost of verify_identity on coordinate changes of Fermat sums.

    PYTHONPATH=src python3 tests/cold_costs.py [--seed N] [--repeat K]

For each rung of the ladder (x^5+y^5+z^5 over F_11, x^6+y^6+z^6 over F_13,
x^4+y^4+z^4+w^4 over F_13) a seeded A in GL_n(F_p) gives f o A, which does
not split into blocks and is no Morse point, so its Milnor algebra is one
elimination and verify builds its Bezoutian.  Each op parses f afresh and
clears milnor._ALGEBRAS first, so it pays for the elimination and the
Bezoutian; the best of K ops is printed, with the share of that op spent
in residue.bezoutian, inside it in the determinant expansion
(linalg.det_expand), and in the rest of the Bezoutian: the divided
differences and C built from the determinant.  Pytest does not collect
this file.
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
    """Total seconds spent in one module function while installed."""

    def __init__(self, module, name):
        self.module, self.name, self.real = module, name, getattr(module, name)
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
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
    """(op seconds, Bezoutian seconds, det_expand seconds, mu) of one cold
    verify."""
    milnor._ALGEBRAS.clear()
    f = parse_poly(text, field, names)
    with _Timer(residue, "bezoutian") as bez, _Timer(residue, "det_expand") as det:
        start = time.perf_counter()
        report = verify_identity(f)
        op = time.perf_counter() - start
    return op, bez.seconds, det.seconds, report["mu"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    print(f"{'input':<44} {'mu':>4} {'op s':>8} {'bezoutian':>10} {'det_expand':>11} {'rest':>6}")
    for p, n, d in LADDER:
        text = fermat_change(rng, p, n, d)
        field = gf_create(p, 1)
        runs = [cold_op(field, list(NAMES[:n]), text) for _ in range(args.repeat)]
        op, bez, det, mu = min(runs)
        label = f"{'+'.join(f'{v}^{d}' for v in NAMES[:n])} o A over F_{p}"
        print(f"{label:<44} {mu:>4} {op:>8.4f} {bez / op:>10.1%} {det / op:>11.1%} "
              f"{(bez - det) / op:>6.1%}")
        print(f"  f o A = {text}")


if __name__ == "__main__":
    main()
