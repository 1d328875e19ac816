"""Record the engine's CLI JSON for tests/cli_outputs.json.

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
    # ResourceLimit at DEGREE_CAP: a scan, and a product's degree
    ["verify", "--p", "2", "--vars", "x", "--poly", "x^27"],
    ["verify", "--p", "13", "--vars", "x,y", "--poly", "x^14+y^14"],
    # ResourceLimit at the cell bound, for a coupled W_3 lift
    ["arf", "--p", "2", "--m", "2", "--vars", "x,y,z,w", "--poly", "x^5+y^5+z^3+w^3",
     "--lift-perturbation", "x*y*z*w+x"],
    # NonUnitScale
    ["gram", "--p", "7", "--vars", "x", "--poly", "x^3", "--scale", "7"],
    ["disc", "--p", "7", "--vars", "x,y", "--poly", "x^3+y^4", "--scale", "0"],
    # UnknownVariable
    ["verify", "--p", "7", "--vars", "x,y", "--poly", "x^2+z^2"],
    ["arf", "--p", "2", "--vars", "x,y", "--poly", "x^2+x*y+y^2",
     "--lift-perturbation", "z"],
]


def argvs():
    """Every recorded argv, each ending in --json."""
    out = []
    for p, m, names, poly in ODD:
        field = ["--p", str(p), "--m", str(m), "--vars", names, "--poly", poly]
        out += [cmd[:1] + field + cmd[1:] for cmd in ODD_COMMANDS]
    for m, names, poly, lift in CHAR2:
        field = ["--p", "2", "--m", str(m), "--vars", names, "--poly", poly]
        out += [cmd + field for cmd in CHAR2_COMMANDS]
        out.append(["arf"] + field + ["--lift-perturbation", lift])
    out += REFUSALS
    return [argv + ["--json"] for argv in out]


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
