"""Record the engine's CLI output for tests/cli_outputs.json.

    PYTHONPATH=src python3 tests/make_cli_outputs.py

Runs every argv below through cli.main in one process, with the Milnor
algebra cache cleared first, and writes [argv, exit code, sha256 of stdout]
for each.  Digests rather than outputs are stored, as the Gram matrix of
x^5+y^5+z^5+w^5 alone prints 330 KB.  Re-record only when an output is
meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib

from resform import cli, milnor

RECORD = pathlib.Path(__file__).with_name("cli_outputs.json")

# (p, m, variables, polynomial): split, unsplit and Morse inputs
ODD = [
    (7, 1, "x", "x^3"),
    (7, 1, "x,y", "x^3+y^4"),
    (7, 1, "x,y", "x^2*y+y^3"),
    (13, 1, "x,y", "x^4+y^3+x*y^2"),
    (5, 1, "x,y,z", "x^2+y^2+z^2"),
    (5, 1, "x,y", "x*y"),
    (7, 2, "x,y", "g*x^2+y^2"),
    (5, 2, "x,y", "x^3+g*y^4"),
    (7, 1, "x,y,z", "x^2*y+y^4+z^2"),
    (7, 1, "x,y,z", "x^3+y^3+z^3"),
    (11, 1, "x,y,z,w", "x^5+y^5+z^5+w^5"),
]
ODD_COMMANDS = [
    ["milnor"], ["gram", "--scale", "3"], ["disc", "--scale", "2"], ["epsilon"],
    ["verify"], ["verify", "--convention", "literal"],
]

# (m, variables, polynomial, lift perturbation): Morse, split, unsplit and
# W_3-fallback inputs, the last two lifts eliminated at 3*D0 - 2k - 1
CHAR2 = [
    (1, "x,y", "x^2+x*y+y^2", "x*y+1"),
    (2, "x,y", "x^2+x*y+g*y^2", "x"),
    (2, "x,y", "x^3+y^5", "x*y"),
    (4, "x,y", "x^3+g*x^2*y+y^3", "x^2"),
    (3, "x,y,z,w", "x^2+x*y+y^2+z^2+z*w+w^2", "x*z"),
    (1, "u", "u^2+u^3", "u^2"),
    (2, "u", "u^2+u^5", "u^3"),
    (2, "x,y,z,w", "x^5+y^5+z^3+w^3", "x*y*z*w"),
]
CHAR2_COMMANDS = [["verify"], ["gram"], ["disc"], ["arf"], ["milnor"]]

REFUSALS = [
    # NotIsolated
    ["milnor", "--p", "7", "--vars", "x,y,z,w", "--poly", "x^5*y+z^5+w^5"],
    ["verify", "--p", "5", "--vars", "x,y", "--poly", "x^2*y"],
    ["arf", "--p", "2", "--vars", "x,y", "--poly", "x^2+y^2"],
    # ResourceLimit at DEGREE_CAP, for a scan
    ["verify", "--p", "2", "--vars", "x", "--poly", "x^27"],
    # ResourceLimit at the cell bound, for a coupled W_3 lift and for the
    # basis of a product with mu = 2^23
    ["arf", "--p", "2", "--m", "2", "--vars", "x,y,z,w", "--poly", "x^5+y^5+z^3+w^3",
     "--lift-perturbation", "x*y*z*w+x"],
    ["milnor", "--p", "7", "--vars", ",".join(f"x{i}" for i in range(23)),
     "--poly", "+".join(f"x{i}^3" for i in range(23))],
    # ValueError naming a list option's bad entry
    ["verify", "--p", "3", "--m", "2", "--modulus", "1,,1", "--vars", "x", "--poly", "x^2"],
    # NonUnitScale
    ["gram", "--p", "7", "--vars", "x", "--poly", "x^3", "--scale", "7"],
    ["disc", "--p", "7", "--vars", "x,y", "--poly", "x^3+y^4", "--scale", "0"],
    # UnknownVariable
    ["verify", "--p", "7", "--vars", "x,y", "--poly", "x^2+z^2"],
    ["arf", "--p", "2", "--vars", "x,y", "--poly", "x^2+x*y+y^2",
     "--lift-perturbation", "z"],
]

# A product whose D = 25 passes DEGREE_CAP, which bounds only a scan
PAST_THE_CAP = [
    ["verify", "--p", "13", "--vars", "x,y", "--poly", "x^14+y^14"],
]

# Unsplit inputs over F_13 whose scans test the partials' initial forms in
# degree s = 1 + sum(k_i - 1): a chain and a four-variable chain that fail
# there and scan on to D0 = 9 and 8, and a loop that certifies D0 = s = 7
SCANS = [
    ("x,y,z", "x^3*y+y^4*z+z^5"),
    ("x,y,z,w", "x^2*y+y^3*z+z^2*w+w^4"),
    ("x,y,z", "x^3*y+y^3*z+z^3*x"),
]
SCAN_COMMANDS = [["milnor"], ["verify"]]

# Bezoutians of unsplit, non-Morse inputs with mu > 4, recorded after the
# calls above: coordinate changes f o A of Fermat sums (mu 9 and 8), and
# a7-shaped lifts over F_2 whose elimination at D0 fails, perturbed (mu 4)
# or not (mu 8)
FERMAT_CHANGES = [
    (13, "x,y", "(x+2*y)^4+(3*x+y)^4"),
    (7, "x,y,z", "(x+y)^3+(y+2*z)^3+(x+3*z)^3"),
]
FERMAT_COMMANDS = [["gram"], ["disc"], ["verify"]]
A7_LIFTS = [
    ("x,y", "x^3+y^3+x*y^2", "x"),
    ("x,y", "x^3+y^5+x^2*y", "y"),
]

# fermat and homog2, and homog2's refusals: zero, inhomogeneous,
# three-variable, singular, even-degree and constant forms, and p = 3
CLOSED_FORMS = [
    ["fermat", "--d", "3", "--n", "0", "--a", "1,1"],
    ["fermat", "--d", "4", "--n", "1", "--a", "1,2,3"],
    ["fermat", "--d", "3", "--n", "0", "--a", "1,,2"],
    ["homog2", "--p", "2", "--poly", "T0^3+T0*T1^2+T1^3"],
    ["homog2", "--p", "2", "--m", "2", "--vars", "x,y", "--poly", "x^2*y+x*y^2"],
    ["homog2", "--p", "2", "--poly", "0*T0+0*T1"],
    ["homog2", "--p", "2", "--poly", "T0^3+T1^2"],
    ["homog2", "--p", "2", "--vars", "x,y,z", "--poly", "x^3+y^3+z^3"],
    ["homog2", "--p", "2", "--poly", "T0^3"],
    ["homog2", "--p", "2", "--poly", "T0^2+T0*T1+T1^2"],
    ["homog2", "--p", "2", "--poly", "1"],
    ["homog2", "--p", "3", "--poly", "T0^3+T1^3"],
]

# Which refusal comes first: the characteristic, then --poly, then --vars
MISSING = [
    ["verify", "--p", "7"],
    ["milnor", "--p", "7", "--poly", "x^2"],
    ["arf", "--p", "3"],
    ["homog2", "--p", "3"],
]

# Flat key: value output, without --json: a PASS and a FAIL verify, and a
# refusal
TEXT = [
    ["milnor", "--p", "7", "--vars", "x,y", "--poly", "x^3+y^4"],
    ["gram", "--p", "7", "--vars", "x", "--poly", "x^3", "--scale", "3"],
    ["disc", "--p", "5", "--m", "2", "--vars", "x,y", "--poly", "x^3+g*y^4"],
    ["arf", "--p", "2", "--vars", "x,y", "--poly", "x^2+x*y+y^2",
     "--lift-perturbation", "x*y+1"],
    ["epsilon", "--p", "3", "--vars", "x,y", "--poly", "x^2+y^2"],
    ["verify", "--p", "3", "--vars", "x,y", "--poly", "x^2+y^2"],
    ["verify", "--p", "5", "--vars", "t", "--poly", "t^2", "--convention", "literal"],
    ["fermat", "--d", "3", "--n", "0", "--a", "1,1"],
    ["homog2", "--p", "2", "--poly", "T0^3+T0*T1^2+T1^3"],
    ["homog2", "--p", "2", "--poly", "1"],
]


def argvs():
    """Every recorded argv: the --json calls, then the TEXT calls."""
    out = []
    for p, m, names, poly in ODD:
        field = ["--p", str(p), "--m", str(m), "--vars", names, "--poly", poly]
        out += [cmd[:1] + field + cmd[1:] for cmd in ODD_COMMANDS]
    for m, names, poly, lift in CHAR2:
        field = ["--p", "2", "--m", str(m), "--vars", names, "--poly", poly]
        out += [cmd + field for cmd in CHAR2_COMMANDS]
        out.append(["arf"] + field + ["--lift-perturbation", lift])
    out += REFUSALS + PAST_THE_CAP
    for names, poly in SCANS:
        out += [cmd + ["--p", "13", "--vars", names, "--poly", poly] for cmd in SCAN_COMMANDS]
    for p, names, poly in FERMAT_CHANGES:
        out += [cmd + ["--p", str(p), "--vars", names, "--poly", poly]
                for cmd in FERMAT_COMMANDS]
    for names, poly, lift in A7_LIFTS:
        field = ["--p", "2", "--vars", names, "--poly", poly]
        out += [["gram"] + field, ["arf"] + field + ["--lift-perturbation", lift]]
    out += CLOSED_FORMS + MISSING
    return [argv + ["--json"] for argv in out] + TEXT


def run(argv):
    """(exit code, sha256 of stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def main():
    milnor._ALGEBRAS.clear()
    record = [[argv, *run(argv)] for argv in argvs()]
    RECORD.write_text("[\n" + ",\n".join(json.dumps(r) for r in record) + "\n]\n")
    print(f"wrote {len(record)} records to {RECORD}")


if __name__ == "__main__":
    main()
